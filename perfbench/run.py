"""Benchmark of layerchain: the exact certificate pipeline and the Monte Carlo oracle.

Run from the root of a layerchain checkout:

    python3 perfbench/run.py --workload verify-cycle4 --seed 0 --seconds 55 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
run reports the end-to-end metrics: ``setup_s`` (median over fresh
interpreters that import layerchain and build the workload's graphs),
``wall_s`` (median time of one workload body, repeated for about
``--seconds``) and ``peak_rss_mb``.  With ``--trace 1`` it runs the body
once untraced and once with every layer wrapped, reports the per-layer
metrics, and writes the spans to ``.perfbench/spans-<workload>-<seed>.json``.
Every run checks the outputs; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

SETUP_CHILD = (
    "import sys, workloads; workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _import_layerchain() -> None:
    """Put the checkout's src/ first on the path and make sure it is what imports."""
    package = SRC / "layerchain"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a layerchain checkout")
    sys.path.insert(0, str(SRC))
    import layerchain

    if Path(layerchain.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: layerchain imported from {layerchain.__file__}, not {package}")


def setup_seconds(name: str, seed: int) -> float:
    """Median time for a fresh interpreter to import layerchain and build the inputs.

    The caller has imported the workloads already, so the bytecode caches
    are written before the first child starts.
    """
    command = [sys.executable, "-c", SETUP_CHILD, name, str(seed)]
    env = _child_env()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_montecarlo_seconds() -> float:
    """Median cumulative import time of layerchain.montecarlo, from -X importtime."""
    command = [sys.executable, "-X", "importtime", "-c", "import layerchain.montecarlo"]
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            command, env=_child_env(), check=True, capture_output=True, text=True
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "layerchain.montecarlo":
                times.append(int(fields[1]) / 1e6)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str, seed: int, seconds: float) -> tuple[dict, list[bool]]:
    """End-to-end metrics: repeat the workload body for about ``seconds``."""
    import workloads

    setup_s = setup_seconds(name, seed)
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    times: list[float] = []
    checks: list[bool] = []
    start = time.perf_counter()
    # Start another body only while it should end within ``seconds``, so a
    # run lasts at most about ``seconds`` whatever the body's length.
    while not times or time.perf_counter() - start + statistics.median(times) < seconds:
        gc.collect()  # each body starts without the last one's garbage
        began = time.perf_counter()
        result = workload.run(inputs)
        times.append(time.perf_counter() - began)
        checks += workload.check(inputs, result)
        del result
    print(f"{name} body times: {' '.join(f'{t:.3f}' for t in times)} s", file=sys.stderr)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(times),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, checks


def measure_traced(name: str, seed: int) -> tuple[dict, list[bool]]:
    """Per-layer metrics from one traced body, against one untraced body."""
    import layers
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    start = time.perf_counter()
    result = workload.run(inputs)
    untraced_s = time.perf_counter() - start
    checks = workload.check(inputs, result)

    tracer = Tracer()
    with tracer.patched(layers.targets()):
        start = time.perf_counter()
        result = workload.run(inputs)
        traced_s = time.perf_counter() - start
    checks += workload.check(inputs, result)
    tracer.write(ROOT / ".perfbench" / f"spans-{name}-{seed}.json", f"{name}-{seed}")

    descent = getattr(workload, "descent_layers_mean", None)
    values = layers.metrics(
        tracer,
        overhead_frac=traced_s / untraced_s - 1.0,
        import_montecarlo_s=import_montecarlo_seconds(),
        descent_mean=descent(inputs) if descent else 0.0,
    )
    return {k: {"value": v, "unit": layers.UNITS[k]} for k, v in values.items()}, checks


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    metrics, checks = measure_traced(name, seed) if trace else measure(name, seed, seconds)
    failed = checks.count(False)
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _import_layerchain()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; one of {', '.join(workloads.WORKLOADS)}")
    results = {}
    for name in names:
        results[name] = run(name, args.seed, args.seconds, bool(args.trace))
        result = results[name]
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
        print(
            f"{name} failed_frac = {result['failed'] / result['attempted']:.6g} "
            f"({result['failed']} of {result['attempted']} checks)",
            file=sys.stderr,
        )
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
