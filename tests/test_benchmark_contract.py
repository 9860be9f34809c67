"""The benchmark in perfbench/ calls the library by name: its traced run
looks every wrapped callable up in vars(owner), its verify workload
calls verify_conjecture(graph, CAP, workers=1), and its Monte Carlo
workload calls connection_estimates and initial_pattern_fit.  These tests
only read perfbench/."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers, workloads


def test_every_traced_target_exists(perfbench):
    layers, _ = perfbench
    missing = [
        (t.owner.__name__, t.attr) for t in layers.targets() if t.attr not in vars(t.owner)
    ]
    assert missing == []


def test_verify_workload_runs_and_checks(perfbench):
    _, workloads = perfbench
    workload = workloads.VerifyWorkload("cycle:3", matrix_step=3, onset=2)
    graph = workload.inputs(0)
    checks = workload.check(graph, workload.run(graph))
    assert checks and all(checks)


def test_monte_carlo_workload_runs_and_checks(perfbench):
    _, workloads = perfbench
    workload = workloads.MonteCarloWorkload("cycle:3", Fraction(7, 10), 20000)
    inputs = workload.inputs(0)
    checks = workload.check(inputs, workload.run(inputs))
    assert checks and all(checks)
    assert workload.descent_layers_mean(inputs) > 1.0
