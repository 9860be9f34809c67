"""Self-test of the benchmark harness.  Run from the root of a checkout:

    python3 perfbench/selftest.py           # quick checks, then seeds 0 and 1
    python3 perfbench/selftest.py --quick   # quick checks only (seconds)

The quick checks put three-vertex variants in place of each workload's
body and run the harness end to end, untraced and traced.  They check that
every metric BENCHMARK.json names is emitted with its unit and that the
outputs pass, and that a wrong expected onset shows up as a failed check.
The full check runs every real workload at seeds 0 and 1, which must give
different inputs that pass the same checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

import run


def _small_workloads(workloads) -> dict:
    return {
        "verify-cycle4": workloads.VerifyWorkload("cycle:3", matrix_step=3, onset=2),
        "mc-cycle3": workloads.MonteCarloWorkload("cycle:3", Fraction(7, 10), 5_000),
    }


def quick_checks(workloads, spec: dict) -> list[str]:
    problems = []
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    real = dict(workloads.WORKLOADS)
    small = _small_workloads(workloads)
    if set(small) != set(real) or set(real) != {w["name"] for w in spec["workloads"]}:
        problems.append("workload names differ between BENCHMARK.json and workloads.py")
    # Setup children still build the real inputs; only the bodies are small.
    repeats = run.SETUP_REPEATS, run.IMPORT_REPEATS
    run.SETUP_REPEATS = run.IMPORT_REPEATS = 1
    workloads.WORKLOADS.update(small)
    try:
        for name in small:
            for trace in (False, True):
                result = run.run(name, 0, 0.0, trace)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != wanted[trace]:
                    problems.append(f"{name} trace={int(trace)}: metrics {units}")
                if not result["correct"] or result["failed"] or not result["attempted"]:
                    problems.append(f"{name} trace={int(trace)}: checks failed {result}")
        workloads.WORKLOADS["verify-cycle4"] = dataclasses.replace(small["verify-cycle4"], onset=3)
        result = run.run("verify-cycle4", 0, 0.0, False)
        if result["correct"] or not result["failed"] / result["attempted"] > 0:
            problems.append(f"a wrong expected onset was not counted as failed: {result}")
    finally:
        run.SETUP_REPEATS, run.IMPORT_REPEATS = repeats
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(real)
    return problems


def seed_checks(workloads) -> list[str]:
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        inputs = [workload.inputs(seed) for seed in (0, 1)]
        if inputs[0] == inputs[1]:
            problems.append(f"{name}: seeds 0 and 1 give the same inputs")
        for seed, given in enumerate(inputs):
            checks = workload.check(given, workload.run(given))
            if not all(checks):
                problems.append(f"{name} seed {seed}: {checks.count(False)} checks failed")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="skip the seed 0 and 1 runs")
    args = parser.parse_args()
    run._import_layerchain()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = quick_checks(workloads, spec)
    if not args.quick:
        problems += seed_checks(workloads)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
