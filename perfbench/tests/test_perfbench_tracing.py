"""Trace plumbing: outputs unchanged, self times add up, bindings restored."""

import ordramsey.core
import ordramsey.kernels
import ordramsey.pipeline
import pytest

import tracing
import worker
import workloads


def _jobs(work):
    k3 = workloads.og_text(workloads.K3)
    p3 = workloads.og_text((3, ((1, 2), (2, 3))))
    (work / "k3.og").write_text(k3)
    (work / "p3.og").write_text(p3)
    jobs = [
        {"name": "exact K3,K3", "cli": ["-q", "exact", "k3.og", "k3.og", "8"], "check": {}},
        {"name": "exact P3,K3", "cli": ["-q", "exact", "p3.og", "k3.og", "8"], "check": {}},
    ]
    return jobs + workloads.dense_skeleton_jobs(0, work)[-1:]


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_traced_outputs_match_and_self_times_add_up(work):
    jobs = _jobs(work)
    plain = [worker.run_job(job, None, f"j{i}") for i, job in enumerate(jobs)]
    tracer = tracing.Tracer().install()
    try:
        traced = [worker.run_job(job, tracer, f"j{i}") for i, job in enumerate(jobs)]
    finally:
        tracer.uninstall()
    assert [r["error"] for r in plain + traced] == [None] * (2 * len(jobs))
    assert [r["digest"] for r in traced] == [r["digest"] for r in plain]

    selfs = tracing.self_times(tracer.spans)
    wall = sum(r["latency_s"] for r in traced)
    assert min(selfs) >= -1e-9
    assert sum(selfs) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["job"] * len(jobs)

    layers = tracing.layer_metrics(tracer.spans)
    assert layers["kernels.search_good_coloring.calls"] > 0
    assert layers["kernels.search_good_coloring.refute_s"] <= layers["kernels.search_good_coloring.self_s"]
    assert layers["skeleton.expand_clique_tuples.tuples"] > 0
    assert layers["cli.main.self_s"] > 0
    assert set(layers) == set(tracing.LAYER_METRICS)


def test_install_reaches_imported_names_and_uninstall_restores_them():
    search = ordramsey.kernels.search_good_coloring
    color_class = ordramsey.core.color_class
    induced = ordramsey.core.ColoredCompleteGraph.__dict__["induced"]
    tracer = tracing.Tracer().install()
    try:
        assert ordramsey.kernels.search_good_coloring.__wrapped__ is search
        assert ordramsey.pipeline.color_class.__wrapped__ is color_class
        assert ordramsey.core.color_class is ordramsey.pipeline.color_class
        assert ordramsey.core.ColoredCompleteGraph.__dict__["induced"].__wrapped__ is induced
    finally:
        tracer.uninstall()
    assert ordramsey.kernels.search_good_coloring is search
    assert ordramsey.pipeline.color_class is color_class
    assert ordramsey.core.ColoredCompleteGraph.__dict__["induced"] is induced


def test_self_times_subtract_only_direct_children():
    spans = [
        ["job", 0.0, 10.0, -1, "j", None],
        ["a", 1.0, 6.0, 0, "j", None],
        ["b", 2.0, 3.0, 1, "j", None],
        ["c", 7.0, 9.0, 0, "j", {"refute": True}],
    ]
    assert tracing.self_times(spans) == [3.0, 4.0, 1.0, 2.0]
    totals = tracing.layer_totals(spans)
    assert totals["c"]["refute_s"] == 2.0
    assert totals["a"]["calls"] == 1
