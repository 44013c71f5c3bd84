"""End-to-end command-line runs: exit codes, JSON output, determinism."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import ordramsey
from ordramsey import cli, io as formats, kernels
from ordramsey.cli import main
from ordramsey.core import ColoredCompleteGraph, OrderedGraph, Tournament
from ordramsey.errors import GenerationError, TupleCapError

from conftest import TAIL_TRIANGLE, all_red, complete_graph, hub_zone_coloring, paley


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def files(tmp_path):
    """Small corpus of inputs reused across commands."""
    k3 = complete_graph(3)
    path4 = OrderedGraph(4, [(1, 2), (2, 3), (3, 4)])
    pentagon = ColoredCompleteGraph.from_function(
        5, lambda i, j: (j - i) % 5 in (1, 4)
    )
    return {
        "k3": write(tmp_path / "k3.og", formats.write_og(k3)),
        "k11": write(tmp_path / "k11.og", formats.write_og(complete_graph(11))),
        "empty6": write(tmp_path / "empty6.og", formats.write_og(OrderedGraph(6))),
        "path4": write(tmp_path / "path4.og", formats.write_og(path4)),
        "c4x": write(
            tmp_path / "c4x.og",
            formats.write_og(OrderedGraph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])),
        ),
        "allred": write(tmp_path / "allred.okc", formats.write_okc(all_red(10))),
        "allblue30": write(
            tmp_path / "allblue30.okc",
            formats.write_okc(ColoredCompleteGraph.from_function(30, lambda i, j: False)),
        ),
        "pentagon": write(tmp_path / "pentagon.okc", formats.write_okc(pentagon)),
        "k9": write(tmp_path / "k9.og", formats.write_og(complete_graph(9))),
        "t3": write(
            tmp_path / "t3.trn",
            formats.write_trn(Tournament.from_arcs(3, [(1, 2), (2, 3), (3, 1)])),
        ),
        "dir": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_triangle(self, capsys, files):
        code, out, err = run(capsys, ["exact", files["k3"], files["k3"], "6"])
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "ramsey_exact" and rec["n_star"] == 6
        witness = formats.parse_okc(rec["witness"])
        assert witness.N == 5
        assert "n_star = 6" in err

    def test_bound_exceeded(self, capsys, files):
        code, out, err = run(capsys, ["exact", files["k3"], files["k3"], "5"])
        assert out == '{"kind":"ramsey_exact","max_n":5,"n_star":null}\n'
        assert err == "ordered ramsey number exceeds max_n = 5\n"

    def test_bad_input_file(self, capsys, files, tmp_path):
        bad = write(tmp_path / "bad.og", "not a graph\n")
        code, out, err = run(capsys, ["exact", bad, files["k3"], "4"])
        assert code == 2 and out == ""
        assert "error:" in err

    def test_default_node_budget_keeps_the_certificate(self, capsys, files):
        # the certificate the counter-propagation search printed
        code, out, err = run(capsys, ["exact", files["c4x"], files["k3"], "12"])
        assert code == 0
        assert out == (
            '{"kind":"ramsey_exact","n_star":9,'
            '"witness":"8\\nRRRRBBB\\nRBBRRB\\nRBBRB\\nRBBR\\nRBR\\nRR\\nR\\n"}\n'
        )

    def test_tiny_node_budget_exhausts(self, capsys, files):
        argv = ["--node-budget", "50", "exact", files["c4x"], files["k3"], "12"]
        code, out, err = run(capsys, argv)
        assert code == 4
        rec = json.loads(out)
        assert rec["kind"] == "exhausted"
        assert rec["trace"][-1].startswith("node budget exhausted at N = ")
        assert rec["trace"][-1].endswith(" after 50 decisions")

    def test_clause_bound_exhausts(self, capsys, files, monkeypatch):
        # C4x,K3 at N = 7: C(7, 4) * 4 + C(7, 3) * 3 = 245 literals
        monkeypatch.setattr(kernels, "CLAUSE_LITERAL_BOUND", 200)
        code, out, err = run(capsys, ["exact", files["c4x"], files["k3"], "12"])
        trace = "clause bound exhausted at N = 7: 245 literals above the bound of 200"
        assert code == 4
        assert out == '{"kind":"exhausted","trace":["' + trace + '"]}\n'
        assert err == "exact search exhausted: " + trace + "\n"

    def test_nonpositive_max_n_is_an_input_error(self, capsys, files):
        code, out, err = run(capsys, ["exact", files["k3"], files["k3"], "0"])
        assert (code, out, err) == (2, "", "error: max_n must be positive\n")


class TestSearch:
    def test_copy_found(self, capsys, files):
        code, out, err = run(
            capsys, ["search", files["allred"], files["path4"], files["path4"]]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "embedding" and rec["color"] == "red"
        assert len(rec["map"]) == 4

    def test_copy_free_paley17_exhausts_after_complete_search(self, capsys, tmp_path):
        col = write(tmp_path / "paley17.okc", formats.write_okc(paley(17)))
        k4 = write(tmp_path / "k4.og", formats.write_og(complete_graph(4)))
        code, out, err = run(capsys, ["search", col, k4, k4])
        assert code == 4
        assert out == (
            '{"kind":"exhausted","trace":["exhaustive search over 17 vertices found no copy"]}\n'
        )

    def test_bad_character_names_its_line(self, capsys, files, tmp_path):
        lines = formats.write_okc(ColoredCompleteGraph.from_random(60, 7)).split("\n")
        lines[37] = lines[37][:5] + "X" + lines[37][6:]
        col = write(tmp_path / "bad60.okc", "\n".join(lines))
        code, out, err = run(capsys, ["search", col, files["k3"], files["k3"]])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "line 38:" in err
        assert "Traceback" not in err


class TestEmbed:
    def test_found(self, capsys, files):
        code, out, err = run(capsys, ["embed", files["k11"], files["path4"]])
        assert code == 0
        assert json.loads(out)["map"] == [1, 2, 3, 4]

    def test_wrong_type_refused_before_the_file_is_read(self, capsys, files):
        # parsed, this header would ask for 10**12 + 1 adjacency rows
        host = write(files["dir"] / "huge.dg", f"{10**12} 0\n")
        code, out, err = run(capsys, ["embed", host, files["path4"]])
        expected = f"error: {host} holds a Digraph, expected an .og host\n"
        assert (code, out, err) == (2, "", expected)

    def test_unknown_extension(self, capsys, files):
        host = str(files["dir"] / "host.txt")
        code, out, err = run(capsys, ["embed", host, files["path4"]])
        assert (code, out, err) == (2, "", f"error: unknown file extension '.txt' for {host}\n")

    def test_host_above_the_vertex_limit(self, capsys, files):
        # rows for 10**12 vertices would not fit in memory; the header is refused
        host = write(files["dir"] / "huge.og", f"{10**12} 0\n")
        code, out, err = run(capsys, ["embed", host, files["path4"]])
        limit = f"vertex count {10**12} is above the limit of {formats.MAX_VERTICES}"
        assert (code, out, err) == (2, "", f"error: line 1: {limit}\n")

    def test_files_load_through_the_parser_table(self, capsys, files, monkeypatch):
        # a tracer that replaces the table's parser sees every file read
        texts = []
        parse_og = formats._PARSERS[".og"]
        monkeypatch.setitem(
            formats._PARSERS, ".og", lambda text: texts.append(text) or parse_og(text)
        )
        assert run(capsys, ["-q", "embed", files["k11"], files["path4"]])[0] == 0
        assert len(texts) == 2


class TestSkeletonCommand:
    def test_found_in_complete_host(self, capsys, files):
        code, out, err = run(capsys, ["skeleton", files["k11"], "--a", "1"])
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "skeleton" and rec["a"] == 1
        assert len(rec["blocks"]) == 2 and len(rec["spine"]) == 1

    def test_no_cliques(self, capsys, files):
        code, out, err = run(capsys, ["skeleton", files["empty6"], "--a", "1"])
        assert out == '{"kind":"exhausted","trace":["no (1, b)-skeleton at d = 1"]}\n'
        assert err == "no skeleton met the block-size target\n"


class TestSparseSetCommand:
    def test_red_set_from_blue_host(self, capsys, files):
        code, out, err = run(
            capsys,
            ["sparse-set", files["allblue30"], files["k9"], files["k9"], "--c", "1/10"],
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "sparse_set" and rec["color"] == "red"
        assert rec["density"] == "0/1"

    def test_c_gate(self, capsys, files):
        code, out, err = run(
            capsys,
            ["sparse-set", files["allblue30"], files["k9"], files["k9"], "--c", "1/4"],
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--samples", "0", "samples"), ("--samples", "-4", "samples"), ("--window", "-4", "window")],
    )
    def test_nonpositive_samples_or_window_is_an_input_error(
        self, capsys, files, flag, value, message
    ):
        argv = ["sparse-set", files["allblue30"], files["k9"], files["k9"], "--c", "1/10"]
        code, out, err = run(capsys, [*argv, "--alpha", "0.75", flag, value])
        assert code == 2 and out == ""
        assert err == f"error: {message} must be positive\n"

    def test_pair_branch(self, capsys, files, tmp_path):
        # the planted coloring takes the recursion below its root: a red
        # skeleton, a sparse pair, and a union of the two children's sets
        hz = write(tmp_path / "hz.okc", formats.write_okc(hub_zone_coloring()))
        tt = write(tmp_path / "tt.og", formats.write_og(TAIL_TRIANGLE))
        code, out, err = run(
            capsys,
            ["-q", "sparse-set", hz, tt, files["k3"], "--c", "1/10", "--alpha", "0.9",
             "--window", "5", "--samples", "512"],
        )
        assert (code, err) == (0, "")
        assert out == (
            '{"alpha":0.9,"bound":"13/160","color":"red","density":"0/1","h1":5,"h2":5,'
            '"kind":"sparse_set","members":[1,3],"met_size_target":false,"size_target":5}\n'
        )
        cert = write(tmp_path / "ss.json", out)
        code, out, err = run(capsys, ["verify", cert, hz])
        assert code == 0 and json.loads(out)["valid"] is True

    def test_copy_branch(self, capsys, tmp_path, monkeypatch):
        # an all-red K_40 gives a red skeleton whose dichotomy embeds K2
        monkeypatch.delenv("ORDRAMSEY_SEED", raising=False)
        red = write(tmp_path / "red40.okc", formats.write_okc(all_red(40)))
        k2 = write(tmp_path / "k2.og", "2 1\n1 2\n")
        code, out, err = run(
            capsys, ["sparse-set", red, k2, k2, "--c", "1/10", "--alpha", "0.75"]
        )
        assert (code, out) == (0, '{"color":"red","kind":"embedding","map":[22,23]}\n')
        assert "stumbled on a red copy instead" in err
        cert = write(tmp_path / "copy.json", out)
        code, out, err = run(capsys, ["verify", cert, red, "--pattern", k2])
        assert code == 0 and json.loads(out)["valid"] is True

    def test_exhausted_branch(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("ORDRAMSEY_SEED", raising=False)
        col = write(tmp_path / "r20.okc", formats.write_okc(ColoredCompleteGraph.from_random(20, 3)))
        k5 = write(tmp_path / "k5.og", formats.write_og(complete_graph(5)))
        code, out, err = run(
            capsys, ["sparse-set", col, k5, k5, "--c", "1/10", "--alpha", "0.75"]
        )
        assert (code, out) == (
            4, '{"kind":"exhausted","trace":["no monochromatic cliques sampled on 20 vertices"]}\n'
        )


class TestPatternGate:
    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("search", [], "first pattern must have at least one edge"),
            ("sparse-set", ["--c", "1/10"], "first pattern must have at least one edge"),
            ("exact", ["5"], "patterns must each have at least one edge"),
        ],
    )
    def test_edgeless_first_pattern(self, capsys, files, tmp_path, command, extra, message):
        edgeless = write(tmp_path / "e2.og", "2 0\n")
        host = [] if command == "exact" else [files["allred"]]
        code, out, err = run(capsys, [command, *host, edgeless, files["k3"], *extra])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_nonpositive_tuple_cap(self, capsys, files):
        code, out, err = run(capsys, ["--tuple-cap", "0", "exact", files["k3"], files["k3"], "5"])
        assert (code, out, err) == (2, "", "error: caps must be positive\n")


class TestConstruct:
    def test_sn_with_sidecar(self, capsys, files, tmp_path):
        out_path = tmp_path / "s3.dg"
        code, out, err = run(capsys, ["construct", "sn", "3", "--out", str(out_path)])
        assert code == 0
        rec = json.loads(out)
        assert rec["vertices"] == 4 and rec["arcs"] == 3
        d = formats.parse_dg(out_path.read_text())
        assert d.n == 4
        sidecar = tmp_path / "s3.triples.json"
        assert rec["sidecar"] == str(sidecar)
        assert json.loads(sidecar.read_text()) == {"1,2,3": 4}

    def test_blowup(self, capsys, files, tmp_path):
        out_path = tmp_path / "b.trn"
        code, out, err = run(
            capsys,
            ["construct", "blowup", files["t3"], files["t3"], "--out", str(out_path)],
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["vertices"] == 9 and rec["blocks"] == 3
        assert formats.parse_trn(out_path.read_text()).N == 9

    def test_lowerbound(self, capsys, files, tmp_path):
        out_path = tmp_path / "lb.trn"
        code, out, err = run(
            capsys, ["construct", "lowerbound", "3", "--out", str(out_path)]
        )
        assert code == 0
        assert formats.parse_trn(out_path.read_text()).N == 4

    @pytest.mark.parametrize(
        "what, want, suffix",
        [(w, want, sfx) for w, want in (("sn", ".dg"), ("blowup", ".trn"), ("lowerbound", ".trn"))
         for sfx in (".og", ".okc", ".dg", ".trn") if sfx != want],
    )
    def test_out_naming_another_format_is_refused(
        self, capsys, files, tmp_path, what, want, suffix
    ):
        # such a file would be read back as the type its extension names
        out_path = tmp_path / f"x{suffix}"
        args = {"sn": ["3"], "blowup": [files["t3"], files["t3"]], "lowerbound": ["21"]}[what]
        before = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, ["construct", what, *args, "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert err == (
            f"error: --out {out_path}: construct {what} writes {want} files, not {suffix}\n"
        )
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv", [["sn", "3"], ["lowerbound", "3"]])
    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path, argv):
        out_path = tmp_path / "missing" / "x.out"
        code, out, err = run(capsys, ["construct", *argv, "--out", str(out_path)])
        assert code == 2 and out == ""
        assert err == f"error: cannot write {out_path}: No such file or directory\n"


class TestVerify:
    def make_embedding_cert(self, capsys, files, tmp_path):
        code, out, _ = run(capsys, ["embed", files["k11"], files["path4"]])
        assert code == 0
        return write(tmp_path / "emb.json", out)

    def test_valid_embedding(self, capsys, files, tmp_path):
        cert = self.make_embedding_cert(capsys, files, tmp_path)
        code, out, err = run(
            capsys, ["verify", cert, files["k11"], "--pattern", files["path4"]]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["valid"] is True and rec["certificate_kind"] == "embedding"

    def test_sparse_set_against_coloring(self, capsys, files, tmp_path):
        code, out, _ = run(
            capsys,
            ["sparse-set", files["allblue30"], files["k9"], files["k9"], "--c", "1/10"],
        )
        cert = write(tmp_path / "ss.json", out)
        code, out, err = run(capsys, ["verify", cert, files["allblue30"]])
        assert code == 0
        assert json.loads(out)["valid"] is True

    @pytest.mark.parametrize(
        "field, value",
        [("size_target", "x"), ("alpha", [1]), ("met_size_target", "false")],
    )
    def test_sparse_set_field_of_wrong_type(self, capsys, files, tmp_path, field, value):
        code, out, _ = run(
            capsys,
            ["sparse-set", files["allblue30"], files["k9"], files["k9"], "--c", "1/10"],
        )
        rec = json.loads(out)
        rec[field] = value
        cert = write(tmp_path / "ss.json", json.dumps(rec))
        code, out, err = run(capsys, ["verify", cert, files["allblue30"]])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    def test_boolean_map_entry_is_rejected(self, capsys, tmp_path):
        host = write(tmp_path / "p3.og", "3 1\n1 2\n")
        pattern = write(tmp_path / "p2.og", "2 1\n1 2\n")
        cert = write(tmp_path / "emb.json", '{"kind":"embedding","map":[true,2]}')
        code, out, err = run(capsys, ["verify", cert, host, "--pattern", pattern])
        assert code == 2 and out == ""
        assert err == "error: map must be a list of integers\n"

    def test_skeleton_roundtrip(self, capsys, files, tmp_path):
        code, out, _ = run(capsys, ["skeleton", files["k11"], "--a", "1"])
        cert = write(tmp_path / "skel.json", out)
        code, out, err = run(capsys, ["verify", cert, files["k11"]])
        assert code == 0
        assert json.loads(out)["valid"] is True

    @pytest.mark.parametrize(
        "host, message",
        [
            ("t3.trn", "this embedding certificate verifies against an .og host"),
            ("s3.dg", "this embedding certificate verifies against an .og host"),
            ("host.txt", "unknown file extension '.txt' for {host}"),
        ],
    )
    def test_host_extension_gate(self, capsys, files, tmp_path, host, message):
        # any extension loads; the certificate decides which host type it needs
        cert = self.make_embedding_cert(capsys, files, tmp_path)
        write(tmp_path / "s3.dg", "4 3\n1 4\n4 2\n4 3\n")
        host = str(tmp_path / host)
        code, out, err = run(capsys, ["verify", cert, host, "--pattern", files["path4"]])
        assert (code, out, err) == (2, "", "error: " + message.format(host=host) + "\n")


# hand-made certificates on 4-vertex hosts: .og for embedding, sparse_pair
# and skeleton (pattern: one edge), .okc for sparse_set
OUTSIDE_HOST = {
    "embedding": {"kind": "embedding", "map": [1, 9]},
    "sparse_pair": {"kind": "sparse_pair", "A": [1], "B": [9], "c": "1/2", "density": "0/1"},
    "skeleton": {"kind": "skeleton", "a": 1, "b": 1, "spine": [2], "blocks": [[1], [9]]},
    "sparse_set": {
        "kind": "sparse_set", "color": "red", "members": [1, 9], "density": "0/1",
        "bound": "1/1", "size_target": 1, "met_size_target": True,
    },
}
REPEATED_VERTEX = {
    "embedding": {"kind": "embedding", "map": [2, 2]},
    "sparse_pair": {"kind": "sparse_pair", "A": [1, 1], "B": [3], "c": "1/2", "density": "0/1"},
    "skeleton": {"kind": "skeleton", "a": 1, "b": 1, "spine": [2], "blocks": [[1], [2, 3]]},
    "sparse_set": {
        "kind": "sparse_set", "color": "red", "members": [1, 1], "density": "0/1",
        "bound": "1/1", "size_target": 1, "met_size_target": True,
    },
}
# each kind against the host type it does not check against
SKELETON = {"kind": "skeleton", "a": 1, "b": 1, "spine": [2], "blocks": [[1], [3]]}
WRONG_HOST = [
    ({"kind": "embedding", "map": [1, 2]}, ".okc"),
    ({"kind": "embedding", "map": [1, 2], "color": "red"}, ".og"),
    ({"kind": "sparse_pair", "A": [1], "B": [2], "c": "1/2", "density": "0/1"}, ".okc"),
    (SKELETON, ".okc"),
    ({**SKELETON, "color": "red"}, ".og"),
    (OUTSIDE_HOST["sparse_set"], ".og"),
]

# skeleton certificates (a = 1 unless given), each failing one condition on a
# 4-vertex host that lacks the edge (2, 3)
SKELETON_FAILURES = [
    ({"b": 1, "spine": [2], "blocks": [[3], [4]]}, "condition (a) fails at (3, 2)"),
    ({"b": 2, "spine": [2], "blocks": [[1], [3, 4]]}, "condition (b) fails at (0, 1)"),
    ({"b": 1, "spine": [2], "blocks": [[1], [3]]}, "condition (c) fails at (2, 3)"),
    # the other failures of condition (a)
    ({"b": 1, "spine": [9], "blocks": [[1], [3]]}, "condition (a) fails at (9,)"),
    ({"b": 1, "spine": [3], "blocks": [[2, 1], [4]]}, "condition (a) fails at (2, 1)"),
    ({"b": 1, "spine": [4], "blocks": [[1], [2]]}, "condition (a) fails at (4, 2)"),
    ({"a": 2, "b": 1, "spine": [3, 1], "blocks": [[], [4], [2]]}, "condition (a) fails at (3, 1)"),
]


# mutated certificates, each failing one check of its kind's checker
CHECKER_REJECTIONS = [
    (
        {"kind": "sparse_pair", "A": [3], "B": [2], "c": "1/2", "density": "0/1"}, ".og",
        "lower side must precede upper side",
    ),
    (
        {"kind": "sparse_pair", "A": [1], "B": [2], "c": "1/2", "density": "0/1"}, ".og",
        "recomputed density 1 differs from claimed 0",
    ),
    (
        {"kind": "sparse_pair", "A": [1], "B": [2], "c": "1/2", "density": "1/1"}, ".og",
        "density 1 is not below c = 1/2",
    ),
    (
        {
            "kind": "sparse_set", "color": "red", "members": [1, 2], "density": "1/1",
            "bound": "1/2", "size_target": 1, "met_size_target": True,
        },
        ".okc", "density 1 exceeds the bound 1/2",
    ),
]


class TestVerifyRule:
    @pytest.fixture
    def hosts(self, tmp_path):
        return {
            ".og": write(tmp_path / "k4.og", formats.write_og(complete_graph(4))),
            ".okc": write(tmp_path / "red4.okc", formats.write_okc(all_red(4))),
            "pattern": write(tmp_path / "p2.og", "2 1\n1 2\n"),
        }

    def verify(self, capsys, hosts, tmp_path, rec, host_suffix, pattern=True):
        cert = write(tmp_path / "cert.json", json.dumps(rec))
        argv = ["verify", cert, hosts[host_suffix]]
        return run(capsys, argv + (["--pattern", hosts["pattern"]] if pattern else []))

    def assert_invalid(self, code, out, kind):
        assert code == 4
        assert out.count("\n") == 1
        rec = json.loads(out)
        assert rec["kind"] == "verify" and rec["certificate_kind"] == kind
        assert rec["valid"] is False and rec["reason"]

    def assert_input_error(self, code, out, err):
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("table", [OUTSIDE_HOST, REPEATED_VERTEX], ids=["outside", "repeated"])
    @pytest.mark.parametrize("kind", sorted(OUTSIDE_HOST))
    def test_bad_vertex_is_invalid(self, capsys, hosts, tmp_path, table, kind):
        suffix = ".okc" if kind == "sparse_set" else ".og"
        code, out, _ = self.verify(capsys, hosts, tmp_path, table[kind], suffix)
        self.assert_invalid(code, out, kind)

    @pytest.mark.parametrize(
        "members, extra",
        [([1], {"size_target": 4, "met_size_target": True}), ([], {})],
        ids=["short-of-target", "empty-with-defaults"],
    )
    def test_sparse_set_size_claim_is_rechecked(self, capsys, hosts, tmp_path, members, extra):
        rec = {"kind": "sparse_set", "color": "red", "members": members,
               "density": "0/1", "bound": "1/1", **extra}
        code, out, _ = self.verify(capsys, hosts, tmp_path, rec, ".okc")
        self.assert_invalid(code, out, "sparse_set")
        assert "met_size_target" in json.loads(out)["reason"]

    @pytest.mark.parametrize("rec, wrong", WRONG_HOST)
    def test_wrong_host_type(self, capsys, hosts, tmp_path, rec, wrong):
        code, out, err = self.verify(capsys, hosts, tmp_path, rec, wrong)
        self.assert_input_error(code, out, err)
        needed = ".og" if wrong == ".okc" else ".okc"
        assert rec["kind"] in err and f"{needed} host" in err

    def test_embedding_without_pattern(self, capsys, hosts, tmp_path):
        rec = {"kind": "embedding", "map": [1, 2]}
        code, out, err = self.verify(capsys, hosts, tmp_path, rec, ".og", pattern=False)
        self.assert_input_error(code, out, err)

    @pytest.mark.parametrize(
        "rec",
        [{"kind": "exhausted", "trace": ["nothing"]}, {"kind": "ramsey_exact", "n_star": None}],
        ids=["exhausted", "ramsey_exact"],
    )
    def test_unverifiable_kinds(self, capsys, hosts, tmp_path, rec):
        code, out, err = self.verify(capsys, hosts, tmp_path, rec, ".og")
        self.assert_input_error(code, out, err)
        assert "not verifiable" in err

    @pytest.mark.parametrize("host", ["t.trn", "missing.og"])
    def test_unverifiable_kind_is_refused_before_reading_files(self, capsys, tmp_path, host):
        # neither the host nor the pattern is opened
        write(tmp_path / "t.trn", "3\n>\n>\n<\n")
        cert = write(tmp_path / "ex.json", '{"kind":"exhausted","trace":["x"]}')
        argv = ["verify", cert, str(tmp_path / host), "--pattern", str(tmp_path / "no.og")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: certificates of kind 'exhausted' are not verifiable\n"

    @pytest.mark.parametrize("host", ["t.trn", "missing.og"])
    def test_embedding_without_pattern_is_refused_before_reading_the_host(
        self, capsys, tmp_path, host
    ):
        write(tmp_path / "t.trn", "3\n>\n>\n<\n")
        cert = write(tmp_path / "emb.json", '{"kind":"embedding","map":[2,5]}')
        code, out, err = run(capsys, ["verify", cert, str(tmp_path / host)])
        assert (code, out) == (2, "")
        assert err == "error: embedding certificates need --pattern\n"

    def test_skeleton_spine_length_must_be_a(self, capsys, hosts, tmp_path):
        rec = {**SKELETON, "a": 2, "blocks": [[1], [3], [4]]}
        code, out, err = self.verify(capsys, hosts, tmp_path, rec, ".og")
        assert (code, out, err) == (2, "", "error: spine has 1 vertices, expected a = 2\n")

    @pytest.mark.parametrize("rec, host, reason", CHECKER_REJECTIONS)
    def test_checker_rejection_reasons(self, capsys, hosts, tmp_path, rec, host, reason):
        code, out, _ = self.verify(capsys, hosts, tmp_path, rec, host)
        assert code == 4
        assert json.loads(out) == {
            "kind": "verify", "certificate_kind": rec["kind"], "valid": False, "reason": reason
        }

    @pytest.mark.parametrize(
        "fields, reason", SKELETON_FAILURES,
        ids=["a", "b", "c", "a-spine-outside", "a-unsorted-block", "a-spine-above-next-block",
             "a-spine-decreasing"],
    )
    def test_skeleton_reason_names_the_failed_condition(self, capsys, tmp_path, fields, reason):
        host = write(tmp_path / "gap4.og", "4 5\n1 2\n1 3\n1 4\n2 4\n3 4\n")
        cert = write(tmp_path / "skel.json", json.dumps({"kind": "skeleton", "a": 1, **fields}))
        code, out, _ = run(capsys, ["verify", cert, host])
        assert code == 4
        assert json.loads(out) == {
            "kind": "verify", "certificate_kind": "skeleton", "valid": False, "reason": reason
        }


# one argv per outcome of every command, "{name}" standing for the path of
# the outcomes fixture's file name, with the exit code and the kind of the
# JSON line printed (None: nothing printed)
OUTCOMES = {
    "exact-found": (["exact", "{k3}", "{k3}", "6"], 0, "ramsey_exact"),
    "exact-above-max-n": (["exact", "{k3}", "{k3}", "5"], 3, "ramsey_exact"),
    "exact-budget": (["--node-budget", "50", "exact", "{c4x}", "{k3}", "12"], 4, "exhausted"),
    "exact-wrong-extension": (["exact", "{allred}", "{k3}", "4"], 2, None),
    "search-copy": (["search", "{allred}", "{path4}", "{path4}"], 0, "embedding"),
    "search-exhausted": (["search", "{pentagon}", "{k3}", "{k3}"], 4, "exhausted"),
    "embed-found": (["embed", "{k11}", "{path4}"], 0, "embedding"),
    "embed-not-found": (["embed", "{empty6}", "{k3}"], 4, "exhausted"),
    "skeleton-found": (["skeleton", "{k11}", "--a", "1"], 0, "skeleton"),
    "skeleton-none": (["skeleton", "{empty6}", "--a", "1"], 4, "exhausted"),
    "sparse-set-set": (
        ["sparse-set", "{allblue30}", "{k9}", "{k9}", "--c", "1/10"], 0, "sparse_set"
    ),
    "sparse-set-copy": (
        ["sparse-set", "{red40}", "{k2}", "{k2}", "--c", "1/10", "--alpha", "0.75"], 0, "embedding"
    ),
    "sparse-set-exhausted": (
        ["sparse-set", "{r20}", "{k5}", "{k5}", "--c", "1/10", "--alpha", "0.75"], 4, "exhausted"
    ),
    "construct-sn": (["construct", "sn", "3", "--out", "{dir}/s3.dg"], 0, "construct"),
    "construct-blowup": (
        ["construct", "blowup", "{t3}", "{t3}", "--out", "{dir}/b.trn"], 0, "construct"
    ),
    "construct-lowerbound": (
        ["construct", "lowerbound", "3", "--out", "{dir}/lb.trn"], 0, "construct"
    ),
    "verify-valid": (["verify", "{skeleton}", "{k11}"], 0, "verify"),
    "verify-invalid": (["verify", "{tampered}", "{k11}", "--pattern", "{path4}"], 4, "verify"),
    "verify-no-pattern": (["verify", "{tampered}", "{k11}"], 2, None),
    "verify-unverifiable": (["verify", "{exhausted}", "{k11}"], 2, None),
}


class TestOutcomes:
    @pytest.fixture
    def outcomes(self, files, tmp_path, monkeypatch):
        monkeypatch.delenv("ORDRAMSEY_SEED", raising=False)
        r20 = ColoredCompleteGraph.from_random(20, 3)
        return {
            **files,
            "k2": write(tmp_path / "k2.og", "2 1\n1 2\n"),
            "k5": write(tmp_path / "k5.og", formats.write_og(complete_graph(5))),
            "red40": write(tmp_path / "red40.okc", formats.write_okc(all_red(40))),
            "r20": write(tmp_path / "r20.okc", formats.write_okc(r20)),
            "skeleton": write(
                tmp_path / "skel.json",
                '{"kind":"skeleton","a":1,"b":1,"spine":[2],"blocks":[[1],[3]]}',
            ),
            "tampered": write(tmp_path / "tampered.json", '{"kind":"embedding","map":[1,2,4,3]}'),
            "exhausted": write(tmp_path / "ex.json", '{"kind":"exhausted","trace":["nothing"]}'),
        }

    @pytest.mark.parametrize("argv, code, kind", OUTCOMES.values(), ids=OUTCOMES)
    def test_exit_code_and_printed_kind(self, capsys, outcomes, argv, code, kind):
        got, out, err = run(capsys, [a.format(**outcomes) for a in argv])
        assert (got, json.loads(out)["kind"] if out else None) == (code, kind)
        if kind == "verify":
            assert json.loads(out)["valid"] is (code == 0)


TOP_USAGE = (
    "usage: ordramsey [-h] [--seed SEED] [--tuple-cap TUPLE_CAP]\n"
    "                 [--node-budget NODE_BUDGET] [-q]\n"
    "                 {exact,search,embed,skeleton,sparse-set,construct,verify} ...\n"
)


class TestParser:
    @pytest.fixture
    def built(self, monkeypatch):
        """The prog of every ArgumentParser built, in order."""
        progs = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        return progs

    def test_only_the_chosen_command_gets_a_parser(self, capsys, files, tmp_path, built):
        assert run(capsys, ["-q", "embed", files["k11"], files["path4"]])[0] == 0
        assert built == ["ordramsey", "ordramsey embed"]
        built.clear()
        assert run(capsys, ["construct", "sn", "3", "--out", str(tmp_path / "s.dg")])[0] == 0
        assert built == ["ordramsey", "ordramsey construct", "ordramsey construct sn"]

    def test_top_help_builds_only_the_top_parser(self, capsys, built):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert built == ["ordramsey"]
        assert "{exact,search,embed,skeleton,sparse-set,construct,verify}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            ([], 2, "", TOP_USAGE + "ordramsey: error: the following arguments are required: command\n"),
            (
                ["bogus"], 2, "",
                TOP_USAGE + "ordramsey: error: argument command: invalid choice: 'bogus' (choose from "
                "'exact', 'search', 'embed', 'skeleton', 'sparse-set', 'construct', 'verify')\n",
            ),
            (
                ["construct"], 2, "",
                "usage: ordramsey construct [-h] {sn,blowup,lowerbound} ...\n"
                "ordramsey construct: error: the following arguments are required: what\n",
            ),
            (
                ["exact", "--bogus", "k3", "k3", "1"], 2, "",
                TOP_USAGE + "ordramsey: error: unrecognized arguments: --bogus\n",
            ),
            (
                ["exact", "--help"], 0,
                "usage: ordramsey exact [-h] h1 h2 max_n\n\npositional arguments:\n"
                "  h1\n  h2\n  max_n\n\noptions:\n  -h, --help  show this help message and exit\n",
                "",
            ),
            (
                ["construct", "lowerbound", "--help"], 0,
                "usage: ordramsey construct lowerbound [-h] [--out OUT] n\n\n"
                "positional arguments:\n  n\n\noptions:\n"
                "  -h, --help  show this help message and exit\n  --out OUT\n",
                "",
            ),
        ],
        ids=["no-command", "unknown-command", "no-construction", "unknown-option", "exact-help",
             "lowerbound-help"],
    )
    def test_usage_and_errors(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        captured = capsys.readouterr()
        assert exit_.value.code == code
        # Python 3.10 heads the options section "optional arguments:"
        assert captured.out.replace("optional arguments:", "options:") == out
        assert captured.err == err


class TestRationalArguments:
    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("skeleton", "1/x", "bad rational '1/x': invalid literal for int() with base 10: 'x'"),
            ("skeleton", "x", "bad rational 'x': Invalid literal for Fraction: 'x'"),
            ("sparse-set", "1/0", "bad rational '1/0': Fraction(1, 0)"),
            ("skeleton", "1/2/3", "expected a p/q rational string, got '1/2/3'"),
        ],
    )
    def test_names_the_rational_once(self, capsys, files, command, text, message):
        if command == "skeleton":
            argv, flag = ["skeleton", files["k3"], "--a", "1", "--d", text], "--d"
        else:
            argv, flag = ["sparse-set", files["allred"], files["k3"], files["k3"], "--c", text], "--c"
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"ordramsey {command}: error: argument {flag}: {message}"
        )


class TestErrorExitCodes:
    def test_tuple_cap_error_exits_3(self, capsys, files, monkeypatch):
        def over_cap(*args):
            raise TupleCapError("tuple cap of 5 exceeded")

        monkeypatch.setattr(cli, "find_skeleton_from_cliques", over_cap)
        code, out, err = run(capsys, ["skeleton", files["k11"], "--a", "1"])
        assert (code, out, err) == (3, "", "error: tuple cap of 5 exceeded\n")

    def test_generation_error_exits_5(self, capsys, tmp_path, monkeypatch):
        def no_draw(*args):
            raise GenerationError("no avoiding tournament", 7)

        monkeypatch.setattr(cli, "iterated_lower_bound_tournament", no_draw)
        argv = ["construct", "lowerbound", "30", "--out", str(tmp_path / "lb.trn")]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (5, "", "error: no avoiding tournament (after 7 tries)\n")


# inputs that once ended in a traceback: a file that is not UTF-8, a
# certificate nested past the recursion limit, and an alpha beyond the floats
HOSTILE_INPUTS = [
    ("bin.og", b"\xff\xfe", ["embed", "{input}", "{pattern}"]),
    ("deep.json", b"[" * 200_000, ["verify", "{input}", "{coloring}"]),
    (
        "alpha.json",
        json.dumps({
            "kind": "sparse_set", "color": "red", "members": [1], "density": "0/1",
            "bound": "1/1", "alpha": 10**400,
        }).encode(),
        ["verify", "{input}", "{coloring}"],
    ),
]


@pytest.mark.parametrize(
    "name, content, argv", HOSTILE_INPUTS, ids=["not-utf8", "deep-nesting", "alpha-overflow"]
)
def test_hostile_input_is_an_input_error(capsys, tmp_path, name, content, argv):
    (tmp_path / name).write_bytes(content)
    paths = {
        "input": str(tmp_path / name),
        "pattern": write(tmp_path / "p2.og", "2 1\n1 2\n"),
        "coloring": write(tmp_path / "red4.okc", formats.write_okc(all_red(4))),
    }
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


class TestSeedResolution:
    def test_env_seed_used_when_flag_absent(self, capsys, files, tmp_path, monkeypatch):
        monkeypatch.setenv("ORDRAMSEY_SEED", "7")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, ["construct", "lowerbound", "50"])
        assert code == 0
        assert json.loads(out)["seed"] == 7
        assert (tmp_path / "lowerbound_50_7.trn").exists()

    def test_flag_overrides_env(self, capsys, files, tmp_path, monkeypatch):
        monkeypatch.setenv("ORDRAMSEY_SEED", "7")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, ["--seed", "3", "construct", "lowerbound", "50"])
        assert code == 0
        assert json.loads(out)["seed"] == 3

    def test_bad_env_seed(self, capsys, files, monkeypatch):
        monkeypatch.setenv("ORDRAMSEY_SEED", "banana")
        code, out, err = run(capsys, ["embed", files["k11"], files["path4"]])
        assert code == 2


class TestDeterminism:
    def test_stdout_stable_across_runs(self, capsys, files):
        argv = ["search", files["allred"], files["path4"], files["path4"]]
        outputs = []
        for _ in range(2):
            code, out, err = run(capsys, argv)
            assert code == 0
            outputs.append(out)
        assert len(set(outputs)) == 1

    def test_sparse_set_stable(self, capsys, files):
        argv = [
            "--seed", "5",
            "sparse-set",
            files["allblue30"], files["k9"], files["k9"],
            "--c", "1/10",
        ]
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second

    def test_quiet_silences_stderr(self, capsys, files):
        code, out, err = run(capsys, ["-q", "embed", files["k11"], files["path4"]])
        assert code == 0 and err == ""


def fresh_interpreter(probe: str) -> str:
    """stdout of the Python code probe, run in a new interpreter on this package."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ordramsey.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def test_import_loads_neither_dataclasses_nor_inspect():
    # Every command pays this import in a fresh interpreter; core.record's
    # docstring says what dataclasses and inspect would add to it.
    probe = "import sys, ordramsey.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert fresh_interpreter(probe) == "[]\n"


def test_certificates_import_no_search_code():
    # the checks run apart from the searches they check
    probe = (
        "import sys, ordramsey.certificates; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'ordramsey'))"
    )
    loaded = ["ordramsey", "ordramsey.certificates", "ordramsey.core", "ordramsey.errors"]
    assert fresh_interpreter(probe) == f"{loaded}\n"
