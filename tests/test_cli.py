"""End-to-end command-line runs: exit codes, JSON output, determinism."""

import json

import pytest

from ordramsey import io as formats
from ordramsey.cli import main
from ordramsey.core import ColoredCompleteGraph, OrderedGraph, Tournament

from conftest import all_red, complete_graph


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
        assert code == 3
        rec = json.loads(out)
        assert rec["n_star"] is None and rec["max_n"] == 5

    def test_bad_input_file(self, capsys, files, tmp_path):
        bad = write(tmp_path / "bad.og", "not a graph\n")
        code, out, err = run(capsys, ["exact", bad, files["k3"], "4"])
        assert code == 2 and out == ""
        assert "error:" in err

    def test_wrong_extension(self, capsys, files):
        code, out, err = run(capsys, ["exact", files["allred"], files["k3"], "4"])
        assert code == 2


class TestSearch:
    def test_copy_found(self, capsys, files):
        code, out, err = run(
            capsys, ["search", files["allred"], files["path4"], files["path4"]]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "embedding" and rec["color"] == "red"
        assert len(rec["map"]) == 4

    def test_exhausted(self, capsys, files):
        code, out, err = run(
            capsys, ["search", files["pentagon"], files["k3"], files["k3"]]
        )
        assert code == 4
        assert json.loads(out)["kind"] == "exhausted"


class TestEmbed:
    def test_found(self, capsys, files):
        code, out, err = run(capsys, ["embed", files["k11"], files["path4"]])
        assert code == 0
        assert json.loads(out)["map"] == [1, 2, 3, 4]

    def test_not_found(self, capsys, files):
        code, out, err = run(capsys, ["embed", files["empty6"], files["k3"]])
        assert code == 4
        assert json.loads(out)["kind"] == "exhausted"


class TestSkeletonCommand:
    def test_found_in_complete_host(self, capsys, files):
        code, out, err = run(capsys, ["skeleton", files["k11"], "--a", "1"])
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "skeleton" and rec["a"] == 1
        assert len(rec["blocks"]) == 2 and len(rec["spine"]) == 1

    def test_no_cliques(self, capsys, files):
        code, out, err = run(capsys, ["skeleton", files["empty6"], "--a", "1"])
        assert code == 4


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

    def test_tampered_embedding(self, capsys, files, tmp_path):
        cert_path = tmp_path / "tampered.json"
        rec = {"kind": "embedding", "map": [1, 2, 4, 3]}
        cert_path.write_text(json.dumps(rec))
        code, out, err = run(
            capsys,
            ["verify", str(cert_path), files["k11"], "--pattern", files["path4"]],
        )
        assert code == 4
        out_rec = json.loads(out)
        assert out_rec["valid"] is False and out_rec["reason"]

    def test_embedding_needs_pattern(self, capsys, files, tmp_path):
        cert = self.make_embedding_cert(capsys, files, tmp_path)
        code, out, err = run(capsys, ["verify", cert, files["k11"]])
        assert code == 2

    def test_unverifiable_kind(self, capsys, files, tmp_path):
        cert = write(
            tmp_path / "ex.json", '{"kind":"exhausted","trace":["nothing"]}\n'
        )
        code, out, err = run(capsys, ["verify", cert, files["k11"]])
        assert code == 2

    def test_sparse_set_against_coloring(self, capsys, files, tmp_path):
        code, out, _ = run(
            capsys,
            ["sparse-set", files["allblue30"], files["k9"], files["k9"], "--c", "1/10"],
        )
        cert = write(tmp_path / "ss.json", out)
        code, out, err = run(capsys, ["verify", cert, files["allblue30"]])
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_skeleton_roundtrip(self, capsys, files, tmp_path):
        code, out, _ = run(capsys, ["skeleton", files["k11"], "--a", "1"])
        cert = write(tmp_path / "skel.json", out)
        code, out, err = run(capsys, ["verify", cert, files["k11"]])
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_host_extension_gate(self, capsys, files, tmp_path):
        cert = self.make_embedding_cert(capsys, files, tmp_path)
        code, out, err = run(
            capsys, ["verify", cert, files["t3"], "--pattern", files["path4"]]
        )
        assert code == 2


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
