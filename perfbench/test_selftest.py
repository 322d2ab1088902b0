"""Fast self-test of the benchmark at tiny n.

    python3 -m pytest -q perfbench/test_selftest.py

Runs every workload definition through both run modes on a tiny grid, checks
the tracer on stand-in functions, and checks that the output checks catch a
moved value, changed bytes, a changed count, a changed config and a checkout
without sources.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def metric_names(trace: bool) -> set:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def test_benchmark_json_lists_every_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] for w in spec["workloads"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_clean_at_tiny_n(name, trace):
    # a seed with no stored reference: the reference holds the full-size configs only
    record = run.run_workload(WORKLOADS[name], seed=13, seconds=0, trace=trace, tiny=True)
    assert record["problems"] == []
    assert record["failed"] == 0
    assert record["reference"] == "no reference for this seed"
    labels = [i["label"] for i in record["invocations"]]
    assert "dense" in labels
    assert set(record["metrics"]) == metric_names(trace)
    m = record["metrics"]
    if trace:
        assert labels[:6] == ["warm-up", "one-worker", "untraced-0", "traced-0", "traced-1", "untraced-1"]
        assert m["graph.matvec.calls"] > 0
        assert m["harness.trial.s"] > 0
        assert 0 < m["harness.busy_frac"] <= 1.0
        assert m["spectral.smallest_eigenpairs.self_s"] < m["spectral.smallest_eigenpairs.s"]
        uses_network = WORKLOADS[name].command == "run"
        assert (m["network.forward_continuum.s"] > 0) == uses_network
        assert (m["spectral.align.s"] > 0) == (not uses_network)
    else:
        assert len(labels) == run.MIN_REPEATS + 2
        assert m["wall_s"] > m["setup_s"] > 0
        assert m["trials_per_s"] > 0 and m["peak_rss_mib"] > 0
        assert m["trials_ok_frac"] == 1.0


class Failure(Exception):
    def __init__(self, residuals):
        super().__init__("did not converge")
        self.residuals = residuals


class Op:
    n = 4


def test_tracer_links_parents_trials_and_failures():
    tracer = Tracer({11, 12}, failure_type=Failure)

    def matvec(op, x):
        time.sleep(0.002)
        return x

    matvec = tracer.wrap("graph.matvec", matvec, size_of=lambda args: args[0].n)

    def eigen(op, K, seed):
        for _ in range(3):
            matvec(op, None)
        if seed == 12:
            raise Failure(np.array([1e-3, 2e-3]))

    eigen = tracer.wrap("spectral.smallest_eigenpairs", eigen)
    sample = tracer.wrap("manifolds.sample_uniform", lambda manifold, n, seed: None)

    def calibrate():
        sample("m", 4, 999)
        eigen(Op(), K=2, seed=0)

    tracer.wrap("harness.resolve_calibration", calibrate)()
    for seed in (11, 12):
        sample("m", 4, seed)
        try:
            eigen(Op(), K=2, seed=seed)
        except Failure:
            pass

    by_id = {s[0]: s for s in tracer.spans}
    for s in tracer.spans:
        if s[2] == "graph.matvec":
            assert by_id[s[1]][2] == "spectral.smallest_eigenpairs"
            assert by_id[s[1]][5] == s[5]
    assert {s[5] for s in tracer.spans} == {None, 11, 12}
    assert tracer.failures == [
        {"trial": 12, "n": 4, "K": 2, "message": "did not converge", "max_residual": 2e-3}
    ]

    m = layer_metrics(tracer.spans, tracer.failures, workers=1)
    assert m["graph.matvec.calls"] == 9
    assert m["graph.bytes_per_sweep"] == 8 * 4**2
    assert m["spectral.failures"] == 1
    assert m["spectral.failure_max_residual"] == 2e-3
    assert m["harness.resolve_calibration.s"] > 0.006
    assert 0 <= m["spectral.smallest_eigenpairs.self_s"] < m["graph.matvec.s"]
    assert m["harness.trial.s"] >= m["spectral.smallest_eigenpairs.s"]
    assert 0.9 < m["harness.busy_frac"] <= 1.0


def test_compare_rows_catches_moved_values():
    want = {(100, 0, 5): [0.5, None]}
    assert run.compare_rows(want, want, 1e-6, "x") == []
    assert run.compare_rows({(100, 0, 5): [0.5 + 1e-9, None]}, want, 1e-6, "x") == []
    assert run.compare_rows({(100, 0, 5): [0.5 + 1e-5, None]}, want, 1e-6, "x")
    assert run.compare_rows({(100, 0, 5): [0.5, 0.1]}, want, 1e-6, "x")
    assert run.compare_rows({(100, 1, 5): [0.5, None]}, want, 1e-6, "x")


def test_check_identical_catches_changed_bytes():
    base = run.Invocation("a", 0, csv=b"n\n1\n", summary=b"{}")
    same = run.Invocation("b", 0, csv=b"n\n1\n", summary=b"{}")
    other = run.Invocation("c", 0, csv=b"n\n2\n", summary=b"{}")
    run.check_identical(base, [same, other])
    assert same.problems == [] and other.problems


def test_counts_repeat_check_catches_changed_count():
    def traced(label, sweeps):
        spans = [(i, None, "graph.matvec", 0.0, 1.0, 7, 4) for i in range(sweeps)]
        return run.Invocation(label, 0, result={"spans": spans, "failures": []})

    first, same, other = traced("a", 3), traced("b", 3), traced("c", 4)
    run.check_counts_repeat(first, same)
    run.check_counts_repeat(first, other)
    assert same.problems == [] and any("exact counts" in p for p in other.problems)


def test_reference_check_catches_moved_value_and_changed_config():
    bench = run.Bench(WORKLOADS["sphere-deep"], seed=5, tiny=True)
    try:
        base = bench.invoke("untraced")
        assert base.problems == []
        rows = [[*cell, *values] for cell, values in base.rows().items()]
        entry = {"config_sha256": bench.config_sha256(), "rows": rows}
        assert bench.check_reference(base, {"sphere-deep": {"5": entry}}) == "checked"
        assert base.problems == []

        rows[0][3] *= 1.001
        assert bench.check_reference(base, {"sphere-deep": {"5": entry}}) == "checked"
        assert any("reference" in p for p in base.problems)

        base.problems.clear()
        entry["config_sha256"] = "0" * 64
        assert bench.check_reference(base, {"sphere-deep": {"5": entry}}) == "config changed"
        assert any("config changed" in p for p in base.problems)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)


def test_fails_without_result_outside_a_checkout():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sphere-deep", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare, ignore_errors=True)
