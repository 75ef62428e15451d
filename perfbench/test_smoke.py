"""Smoke test of the benchmark itself; a few seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LayerTrace  # noqa: E402
from run import Child, layer_metrics, solve_metrics  # noqa: E402
from workloads import (CUBIC_BAND, CUBIC_ROOT, CUBIC_STEP, WORKLOADS,  # noqa: E402
                       check_result, cubic_middle_root)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(40)


def _poly_value(entry: dict, x: Fraction) -> Fraction:
    return sum(Fraction(t["coeff"]) * x ** t["exponents"][0]
               for t in entry["terms"])


def test_every_benchmark_workload_is_defined():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_emits_a_parsable_document(name, tmp_path):
    from sah.pipeline import SCHEMA_INPUT, parse_system
    wl = WORKLOADS[name]
    for seed in (0, 1, 7):
        doc = wl.document(seed)
        assert doc["schema"] == SCHEMA_INPUT
        assert wl.document(seed) == doc
        path = tmp_path / f"{seed}.json"
        wl.write_input(str(path), seed)
        assert json.loads(path.read_text()) == doc
        parse_system(str(path))


def test_annulus_generator_is_the_fixture():
    fixture = json.loads((ROOT / "tests" / "fixtures" / "annulus.json").read_text())
    for name in ("fixed-annulus", "budget-annulus"):
        assert WORKLOADS[name].document(3) == fixture


def test_cubic_has_roots_minus_one_c_one_within_the_band():
    roots = set()
    for seed in SEEDS:
        c = cubic_middle_root(seed)
        assert abs(c - CUBIC_ROOT) <= CUBIC_BAND * CUBIC_STEP
        (eq,) = WORKLOADS["certified-cubic"].document(seed)["equalities"]
        assert all(_poly_value(eq, x) == 0 for x in (Fraction(-1), c, Fraction(1)))
        roots.add(c)
    assert len(roots) > 10


def test_check_result_flags_mismatches():
    wl = WORKLOADS["fixed-annulus"]
    good = dict(wl.expected)
    assert check_result(wl, json.dumps(good), 2) is None
    assert "exit code" in check_result(wl, json.dumps(good), 0)
    assert "betti" in check_result(wl, json.dumps({**good, "betti": [2, 0, 0]}), 2)
    assert "not JSON" in check_result(wl, "Traceback", 2)


def test_no_metric_stands_in_for_a_child_that_reported_nothing():
    probe = Child("setup", 0.0, 0.3, 0.3, 0, {"t_parsed": 0.25})
    killed = Child("solve", 1.0, 170.0, 169.0, None, None)
    solved = Child("solve", 2.0, 9.0, 9.2, 0,
                   {"t_parsed": 2.2, "solve_s": 8.5, "maxrss_kb": 65536})
    assert solve_metrics([probe], [killed]) == {"setup_s": 0.25}
    assert solve_metrics([], [solved]) == {"solve_s": 8.5, "cpu_s": 9.2,
                                           "peak_rss_mb": 64.0}
    assert solve_metrics([probe], [killed, solved]) == {
        "setup_s": 0.25, "solve_s": 8.5, "cpu_s": 9.2, "peak_rss_mb": 64.0}
    assert layer_metrics(solved, killed) == {}
    solved.report["layers"] = {"covering.total_s": 7.0}
    assert layer_metrics(killed, solved) == {"covering.total_s": 7.0,
                                             "trace.solve_s": 8.5}


WRAPPED = [("sah.pipeline", n) for n in (
    "scaled_homogenization", "covering", "covering_fixed",
    "approx_member_mask", "condition_report", "cech_nerve",
    "homology_of_complex")] + [
    ("sah.covering", "grid_chunks"), ("sah.covering", "approx_member_mask"),
    ("sah.nerve", "min_enclosing_ball"), ("sah.homology", "boundary_matrix"),
    ("sah.homology", "smith_normal_form")]


def _originals():
    out = {(m, a): importlib.import_module(m).__dict__[a] for m, a in WRAPPED}
    kernel = importlib.import_module("sah.condition").SubtupleKernel
    out[("SubtupleKernel", "kappa_many")] = kernel.__dict__["kappa_many"]
    return out


def test_wrappers_cover_the_lookups_and_restore_the_originals():
    before = _originals()
    tracer = LayerTrace()
    try:
        tracer.install()
        during = _originals()
        assert all(during[k] is not before[k] for k in before)
    finally:
        tracer.restore()
    assert _originals() == before


def test_traced_self_times_partition_the_solve(tmp_path):
    from sah.pipeline import RunOptions, homology_algorithm, parse_system
    wl = WORKLOADS["tiny"]
    path = tmp_path / "in.json"
    wl.write_input(str(path), 0)
    system = parse_system(str(path))
    tracer = LayerTrace()
    try:
        tracer.install()
        tracer.enter("pipeline")
        homology_algorithm(system, RunOptions(**wl.options))
        root = tracer.exit()
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    assert metrics["trace.self_sum_s"] == pytest.approx(root, rel=1e-9)
    assert metrics["covering.iterations"] == wl.expected["iterations"]
    assert metrics["condition.kernels"] == 2
    assert metrics["nerve.simplices.0"] == metrics["covering.members"]
    named = {m["name"] for m in BENCH["per_layer"]}
    assert set(metrics) == named - {"trace.solve_s", "trace.overhead_s"}


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed",
         "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_named_metric(trace, section):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in BENCH[section]}
    assert not list(ROOT.glob(".perfbench-*"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
