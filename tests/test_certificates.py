"""JSON certificate encoding, decoding, and rejection of malformed input."""

import json
from fractions import Fraction

import pytest

from ordramsey.certificates import (
    KINDS,
    certificate_dict,
    decode_certificate,
    encode_certificate,
    parse_rational,
    rational_str,
    verify_certificate,
)
from ordramsey.core import Color, ColoredCompleteGraph, OrderedGraph
from ordramsey.embed import (
    Embedding,
    SlotSystem,
    SparsePair,
    find_ordered_embedding,
    greedy_embed_or_sparse_pair,
)
from ordramsey.errors import ParseError
from ordramsey.pipeline import (
    Exhausted,
    MonoCopy,
    SparseSet,
    find_mono_copy,
    recursive_sparse_set,
)
from ordramsey.skeleton import Skeleton, find_skeleton_from_cliques

from conftest import all_red, complete_graph


class TestRationals:
    def test_round_trip(self):
        for f in (Fraction(3, 7), Fraction(0), Fraction(-1, 2), Fraction(10)):
            assert parse_rational(rational_str(f)) == f

    def test_normalization(self):
        assert parse_rational("6/14") == Fraction(3, 7)

    @pytest.mark.parametrize("bad", ["abc", "1/2/3", "1/0", "3", "/2", 7, None])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)


class TestEncoding:
    def test_deterministic_bytes(self):
        emb = Embedding((2, 5, 7))
        assert encode_certificate(emb) == encode_certificate(emb)
        text = encode_certificate(emb)
        assert text.endswith("\n")
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            certificate_dict(object())


class TestEmbeddingKind:
    def test_plain_round_trip(self):
        emb = Embedding((2, 5, 7))
        kind, (back, color) = decode_certificate(encode_certificate(emb))
        assert kind == "embedding"
        assert back.mapping == (2, 5, 7)
        assert color is None

    def test_colored_round_trip(self):
        kind, (back, color) = decode_certificate('{"color":"red","kind":"embedding","map":[1,4]}')
        assert color is Color.RED
        assert back.mapping == (1, 4)

    def test_mono_copy_serializes_as_embedding(self):
        mc = MonoCopy(Color.BLUE, (3, 6, 9))
        d = certificate_dict(mc)
        assert d["kind"] == "embedding" and d["color"] == "blue"
        kind, (back, color) = decode_certificate(encode_certificate(mc))
        assert color is Color.BLUE and back.mapping == (3, 6, 9)

    def test_missing_map_rejected(self):
        with pytest.raises(ParseError):
            decode_certificate('{"kind":"embedding"}')

    def test_non_integer_map_rejected(self):
        with pytest.raises(ParseError):
            decode_certificate('{"kind":"embedding","map":[1,"2"]}')

    def test_bad_color_rejected(self):
        with pytest.raises(ParseError):
            decode_certificate('{"kind":"embedding","map":[1],"color":"green"}')


class TestSparsePairKind:
    def test_round_trip(self):
        sp = SparsePair((1, 2, 3), (7, 9), Fraction(1, 5), Fraction(1, 6))
        kind, back = decode_certificate(encode_certificate(sp))
        assert kind == "sparse_pair"
        assert back == sp

    def test_missing_density_rejected(self):
        with pytest.raises(ParseError):
            decode_certificate('{"kind":"sparse_pair","A":[1],"B":[2],"c":"1/5"}')


class TestSkeletonKind:
    def test_round_trip_with_color(self):
        skel = Skeleton((5, 10), ((1, 2), (6, 7), (11, 12)), 2, 2)
        kind, (back, color) = decode_certificate(
            encode_certificate(skel, Color.BLUE)
        )
        assert kind == "skeleton"
        assert color is Color.BLUE
        assert back.spine == skel.spine
        assert back.blocks == skel.blocks
        assert back.a == 2 and back.b == 2

    def test_color_optional(self):
        skel = Skeleton((3,), ((1, 2), (4, 5)), 1, 2)
        kind, (back, color) = decode_certificate(encode_certificate(skel))
        assert color is None

    def test_non_integer_params_rejected(self):
        with pytest.raises(ParseError):
            decode_certificate(
                '{"kind":"skeleton","spine":[3],"blocks":[[1],[4]],"a":"1","b":1}'
            )

    def test_blocks_must_be_lists(self):
        with pytest.raises(ParseError):
            decode_certificate(
                '{"kind":"skeleton","spine":[3],"blocks":"no","a":1,"b":1}'
            )


# certificates of other kinds, one field left as VALUE
OTHER_KINDS_WITH_FIELD = {
    "map": '{"kind":"embedding","map":VALUE}',
    "spine": '{"kind":"skeleton","spine":VALUE,"blocks":[[1],[4]],"a":1,"b":1}',
    "a": '{"kind":"skeleton","spine":[3],"blocks":[[1],[4]],"a":VALUE,"b":1}',
    "b": '{"kind":"skeleton","spine":[3],"blocks":[[1],[4]],"a":1,"b":VALUE}',
    "n_star": '{"kind":"ramsey_exact","n_star":VALUE,"witness":"2\\nR\\n"}',
}


class TestSparseSetKind:
    def test_round_trip(self):
        ss = SparseSet(
            Color.RED, (1, 3, 8), Fraction(1, 3), Fraction(11, 20), 2, True, 0.35, 1, 1
        )
        kind, back = decode_certificate(encode_certificate(ss))
        assert kind == "sparse_set"
        assert back == ss

    def test_color_mandatory(self):
        with pytest.raises(ParseError):
            decode_certificate(
                '{"kind":"sparse_set","color":null,"members":[1],'
                '"density":"0/1","bound":"1/2"}'
            )

    def test_absent_optional_fields_take_defaults(self):
        _, back = decode_certificate(
            '{"kind":"sparse_set","color":"blue","members":[1],'
            '"density":"0/1","bound":"1/2"}'
        )
        assert (back.size_target, back.met_size_target, back.alpha, back.h1, back.h2) == (
            1, True, 1.0, 0, 0
        )

    @pytest.mark.parametrize(
        "field, value",
        [("size_target", '"x"'), ("size_target", "true"), ("met_size_target", '"false"'),
         ("met_size_target", "0"), ("alpha", "[1]"), ("alpha", "false"), ("h2", "null"),
         ("map", "[true,2]"), ("spine", "[false]"), ("a", "true"), ("b", "true"),
         ("n_star", "true")],
    )
    def test_optional_field_of_wrong_type_rejected(self, field, value):
        # the sparse_set fields are optional; the others are integers of other
        # kinds, where a JSON boolean is no integer either
        text = OTHER_KINDS_WITH_FIELD.get(
            field,
            '{"kind":"sparse_set","color":"blue","members":[1],'
            '"density":"0/1","bound":"1/2","FIELD":VALUE}',
        )
        with pytest.raises(ParseError, match=field):
            decode_certificate(text.replace("FIELD", field).replace("VALUE", value))


class TestExhaustedKind:
    def test_round_trip(self):
        ex = Exhausted(("no cliques sampled", "recursion floor"))
        kind, back = decode_certificate(encode_certificate(ex))
        assert kind == "exhausted"
        assert back.trace == ex.trace

    def test_trace_strings_only(self):
        with pytest.raises(ParseError):
            decode_certificate('{"kind":"exhausted","trace":[1]}')


class TestRamseyExactKind:
    def test_round_trip(self):
        okc_text = "2\nR\n"
        kind, (n_star, witness) = decode_certificate(
            encode_certificate((3, okc_text))
        )
        assert kind == "ramsey_exact"
        assert n_star == 3
        assert witness == okc_text

    def test_null_form(self):
        kind, (n_star, witness) = decode_certificate(
            '{"kind":"ramsey_exact","n_star":null}'
        )
        assert kind == "ramsey_exact"
        assert n_star is None and witness is None

    def test_bad_n_star_rejected(self):
        with pytest.raises(ParseError):
            decode_certificate('{"kind":"ramsey_exact","n_star":0,"witness":"2\\nR\\n"}')

    def test_witness_must_be_text(self):
        with pytest.raises(ParseError):
            decode_certificate('{"kind":"ramsey_exact","n_star":3,"witness":7}')


class TestMalformedEnvelopes:
    def test_invalid_json(self):
        with pytest.raises(ParseError):
            decode_certificate("{nope")

    def test_non_object(self):
        with pytest.raises(ParseError):
            decode_certificate("[1,2]")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            decode_certificate('{"kind":"mystery"}')

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"kind":"embedding","map":[1],"color":[1]}',
             "embedding: color must be red, blue, or null, got [1]"),
            ('{"kind":"skeleton","a":1,"b":1,"spine":[2],"blocks":[[1],[3]],"color":"RED"}',
             "skeleton: color must be red, blue, or null, got 'RED'"),
            ('{"kind":"sparse_set","members":[1],"density":"0/1","bound":"1/2","color":1}',
             "sparse_set: color must be red, blue, or null, got 1"),
            ('{"kind":"sparse_set","members":[1],"density":"0/1","bound":"1/2","color":null}',
             "sparse_set color must be red or blue"),
            # with a second fault, an embedding or skeleton names its own field
            # first and a sparse_set its color
            ('{"kind":"embedding","map":"x","color":"green"}', "map must be a list of integers"),
            ('{"kind":"skeleton","a":1,"b":1,"spine":[2],"blocks":3,"color":"green"}',
             "blocks must be a list of lists"),
            ('{"kind":"sparse_set","members":"x","density":"0/1","bound":"1/2","color":"green"}',
             "sparse_set: color must be red, blue, or null, got 'green'"),
        ],
    )
    def test_color_errors(self, text, error):
        with pytest.raises(ParseError) as info:
            decode_certificate(text)
        assert str(info.value) == error

    def test_all_kinds_have_a_decoder(self):
        assert set(KINDS) == {
            "embedding",
            "sparse_pair",
            "skeleton",
            "sparse_set",
            "exhausted",
            "ramsey_exact",
        }


class TestProducersVerify:
    def test_every_producer_round_trips_to_valid(self):
        k3 = complete_graph(3)
        k9 = complete_graph(9)
        k11 = complete_graph(11)
        path4 = OrderedGraph(4, [(1, 2), (2, 3), (3, 4)])
        allblue = ColoredCompleteGraph.from_function(30, lambda i, j: False)
        empty = OrderedGraph(16)
        halves = SlotSystem([range(1, 9), range(9, 17)], host_n=16)
        edge = OrderedGraph(2, [(1, 2)])
        pair = greedy_embed_or_sparse_pair(empty, edge, halves, Fraction(1, 2))
        assert isinstance(pair, SparsePair)
        copy = find_mono_copy(all_red(6), k3, k3)
        assert isinstance(copy, MonoCopy)
        sparse = recursive_sparse_set(allblue, k9, k9, Fraction(1, 10))
        assert isinstance(sparse, SparseSet)
        produced = [
            (find_ordered_embedding(k11, path4), k11, path4),
            (copy, all_red(6), k3),
            (find_skeleton_from_cliques(k11, 5, 1), k11, None),
            (pair, empty, None),
            (sparse, allblue, None),
        ]
        for cert, host, pattern in produced:
            assert cert is not None
            kind, payload = decode_certificate(encode_certificate(cert))
            assert verify_certificate(kind, payload, host, pattern) == (True, None), kind
