"""Command-line front end emitting machine-readable certificates and tables.

All exact results are rendered as rational strings; only the mc and decay
commands are approximate and say so in their artifacts.  Exit codes:
0 success or proven, 1 usage or input error (a malformed command line
included), 2 counterexample, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .analysis import (
    estimate_decay_rate,
    extremal_constants,
    extremal_step_bound,
)
from .errors import CodedError
from .graphs import Graph, GraphError, load_graph, make_builtin
from .kernels import build_full_kernel, build_lumped_kernel, build_reduced_kernel
from .monotonicity import (
    COUNTEREXAMPLE,
    Engine,
    OnsetCapExceeded,
    PROVEN,
    degree_bound_report,
    verify_conjecture,
    verify_expected_count_monotonicity,
)
from .montecarlo import estimate_connection, initial_pattern_fit
from .patterns import Pattern, enumerate_patterns

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INCONCLUSIVE = 3


class UsageError(CodedError):
    """Invalid command-line input."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a coded usage error instead of
    printing the usage text and exiting; sub-parsers inherit the class."""

    def error(self, message):
        raise UsageError("argument-invalid", message)


def _graph_from_args(args) -> Graph:
    spec = args.graph
    if spec is None:
        raise UsageError("argument-missing", "--graph is required")
    origin = args.origin
    if os.path.exists(spec):
        with open(spec) as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as exc:
                raise GraphError("document-invalid", f"invalid JSON graph file: {exc}")
        graph = load_graph(document)
        if origin is not None:
            graph = Graph(graph.vertex_count, graph.edges, origin)
        return graph
    return make_builtin(spec, origin if origin is not None else 0)


def _fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("value-invalid", f"cannot parse {name} value {text!r}: {exc}")


def _probability(text: str) -> Fraction:
    p = _fraction(text, "--p")
    if not 0 <= p <= 1:
        raise UsageError("probability-range", f"--p must lie in [0, 1], got {p}")
    return p


def _nonnegative(value: int, flag: str, code: str) -> int:
    if value < 0:
        raise UsageError(code, f"{flag} must be nonnegative, got {value}")
    return value


def _layer_index(args) -> int:
    return _nonnegative(args.n, "--n", "layer-negative")


def _emit(artifact, args, as_text: bool = False) -> None:
    payload = artifact if as_text else json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_states(args) -> int:
    graph = _graph_from_args(args)
    patterns = enumerate_patterns(graph)
    infected = [x for x in patterns if x.infected]
    lumped = build_lumped_kernel(graph)
    reduced = build_reduced_kernel(graph)
    _emit(
        {
            "graph": graph.describe(),
            "pattern_count": len(patterns),
            "infected_count": len(infected),
            "uninfected_count": len(patterns) - len(infected),
            "core_count": reduced.size,
            "lumped_count": lumped.size,
            "core_states": [str(s) for s in reduced.states],
            "lumped_states": [str(s) for s in lumped.states],
        },
        args,
    )
    return EXIT_OK


def _cmd_kernel(args) -> int:
    graph = _graph_from_args(args)
    builder = {
        "full": build_full_kernel,
        "reduced": build_reduced_kernel,
        "lumped": build_lumped_kernel,
    }[args.kind]
    _emit(builder(graph).to_dict(), args)
    return EXIT_OK


def _cmd_stationary(args) -> int:
    engine = Engine(_graph_from_args(args))
    _emit({"stationary": engine.stationary.to_dict(), "initial": engine.initial.to_dict()}, args)
    return EXIT_OK


def _cmd_onset(args) -> int:
    graph = _graph_from_args(args)
    cap = _nonnegative(args.cap, "--cap", "cap-negative")
    try:
        certificate = Engine(graph).onset(cap)
    except OnsetCapExceeded as exc:
        _emit({"graph": graph.describe(), "error": "onset-cap-exceeded", "cap": exc.cap}, args)
        return EXIT_INCONCLUSIVE
    _emit(certificate.to_dict(), args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = _graph_from_args(args)
    cap = _nonnegative(args.cap, "--cap", "cap-negative")
    certificate = verify_conjecture(graph, cap)
    _emit(certificate.to_dict(), args)
    if certificate.verdict == PROVEN:
        return EXIT_OK
    if certificate.verdict == COUNTEREXAMPLE:
        return EXIT_COUNTEREXAMPLE
    return EXIT_INCONCLUSIVE


def _cmd_connection(args) -> int:
    graph = _graph_from_args(args)
    if args.vertex is None or args.n is None:
        raise UsageError("argument-missing", "connection requires --vertex and --n")
    if args.vertex not in graph.vertices:
        last = graph.vertex_count - 1
        raise UsageError("vertex-out-of-range", f"--vertex {args.vertex} is outside 0..{last}")
    n = _layer_index(args)
    p = None if args.p is None else _probability(args.p)
    engine = Engine(graph)
    poly = engine.connection(args.vertex, n)
    artifact = {
        "graph": graph.describe(),
        "vertex": args.vertex,
        "n": args.n,
        "scaled_polynomial": poly.to_strings(),
        "normalizer": engine.stationary.normalizer.to_strings(),
    }
    if p is not None:
        scale = Fraction(engine.stationary.normalizer(p))
        artifact["p"] = str(p)
        artifact["probability"] = str(Fraction(poly(p)) / scale**2)
    _emit(artifact, args)
    return EXIT_OK


def _cmd_expected(args) -> int:
    graph = _graph_from_args(args)
    if args.n is None:
        raise UsageError("argument-missing", "expected requires --n")
    n = _layer_index(args)
    p = None if args.p is None else _probability(args.p)
    engine = Engine(graph)
    poly = engine.expected(n)
    artifact = {
        "graph": graph.describe(),
        "n": args.n,
        "scaled_polynomial": poly.to_strings(),
        "normalizer": engine.stationary.normalizer.to_strings(),
    }
    if p is not None:
        scale = Fraction(engine.stationary.normalizer(p))
        artifact["p"] = str(p)
        artifact["expected_count"] = str(Fraction(poly(p)) / scale**2)
    _emit(artifact, args)
    return EXIT_OK


def _cmd_extremal(args) -> int:
    graph = _graph_from_args(args)
    if args.source and args.target:
        report = extremal_constants(
            graph, Pattern.from_string(args.source), Pattern.from_string(args.target), args.kind
        )
        _emit({"graph": graph.describe(), **report.to_dict()}, args)
    else:
        bound = extremal_step_bound(graph, args.kind)
        _emit(
            {"graph": graph.describe(), "kind": args.kind, "max_min_steps": bound},
            args,
        )
    return EXIT_OK


def _cmd_decay(args) -> int:
    graph = _graph_from_args(args)
    if args.p is None:
        raise UsageError("argument-missing", "decay requires --p")
    p = _fraction(args.p, "--p")
    kernel = build_lumped_kernel(graph)
    estimate = estimate_decay_rate(kernel, p)
    _emit(
        {
            "graph": graph.describe(),
            "p": str(p),
            "estimate": estimate,
            "method": "eigenvalues",
            "approximate": True,
        },
        args,
    )
    return EXIT_OK


def _cmd_bound(args) -> int:
    rows = degree_bound_report(_nonnegative(args.max_degree, "--max-degree", "degree-negative"))
    table = [
        {
            "delta": row["delta"],
            "p": str(row["p"]),
            "g": str(row["g"]),
            "g_le_1": row["g_le_1"],
            "h": str(row["h"]),
            "h_le_1": row["h_le_1"],
        }
        for row in rows
    ]
    if args.format == "csv":
        lines = ["delta,p,g,g_le_1,h,h_le_1"]
        for row in table:
            lines.append(
                f"{row['delta']},{row['p']},{row['g']},{row['g_le_1']},{row['h']},{row['h_le_1']}"
            )
        _emit("\n".join(lines) + "\n", args, as_text=True)
    else:
        _emit({"rows": table}, args)
    return EXIT_OK


def _cmd_expected_mono(args) -> int:
    graph = _graph_from_args(args)
    if args.n is None:
        raise UsageError("argument-missing", "expected-mono requires --n (largest step checked)")
    n = _layer_index(args)
    delta = args.max_degree_override
    if delta is not None:
        _nonnegative(delta, "--max-degree", "degree-negative")
    certs = verify_expected_count_monotonicity(graph, n, delta)
    _emit(
        {
            "graph": graph.describe(),
            "n_max": args.n,
            "certificates": [c.to_dict() for c in certs],
            "all_nonnegative": all(c.nonnegative for c in certs),
        },
        args,
    )
    return EXIT_OK


def _cmd_mc(args) -> int:
    graph = _graph_from_args(args)
    if args.p is None or args.vertex is None or args.n is None:
        raise UsageError("argument-missing", "mc requires --p, --vertex and --n")
    p = _fraction(args.p, "--p")
    stats = estimate_connection(graph, p, args.vertex, args.n, args.samples, args.seed)
    _emit({"graph": graph.describe(), "approximate": True, **stats.to_dict()}, args)
    return EXIT_OK


def _cmd_fit(args) -> int:
    graph = _graph_from_args(args)
    if args.p is None:
        raise UsageError("argument-missing", "fit requires --p")
    p = _fraction(args.p, "--p")
    result = initial_pattern_fit(graph, p, args.samples, args.seed)
    _emit({"graph": graph.describe(), "approximate": True, **result}, args)
    return EXIT_OK


_COMMANDS = {
    "states": _cmd_states,
    "kernel": _cmd_kernel,
    "stationary": _cmd_stationary,
    "onset": _cmd_onset,
    "verify": _cmd_verify,
    "connection": _cmd_connection,
    "expected": _cmd_expected,
    "expected-mono": _cmd_expected_mono,
    "extremal": _cmd_extremal,
    "decay": _cmd_decay,
    "bound": _cmd_bound,
    "mc": _cmd_mc,
    "fit": _cmd_fit,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="layerchain",
        description="Exact monotonicity certificates for percolation on layered graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("states", "enumerate chain state spaces and their sizes"),
        ("kernel", "emit a transition kernel as exact polynomials"),
        ("stationary", "stationary and initial distributions"),
        ("onset", "onset certificate of pattern monotonicity"),
        ("verify", "full conjecture certificate for a graph"),
        ("connection", "exact connection-probability polynomial"),
        ("expected", "exact expected-infected-count polynomial"),
        ("expected-mono", "certify expected-count monotonicity on the degree interval"),
        ("extremal", "minimal per-layer bond counts over walks"),
        ("decay", "numeric decay-rate estimate of the infected block"),
        ("bound", "exact rational table of the bounded-degree criterion"),
        ("mc", "Monte Carlo connection estimate"),
        ("fit", "chi-square fit of sampled initial patterns"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", help="cycle:k, path:k, or a JSON graph file")
        p.add_argument("--origin", type=int, default=None, help="origin vertex override")
        p.add_argument("--n", type=int, default=None, help="layer index")
        p.add_argument("--vertex", type=int, default=None, help="target vertex")
        p.add_argument("--p", default=None, help="bond probability, e.g. 1/2")
        p.add_argument("--samples", type=int, default=100000, help="Monte Carlo sample count")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--cap", type=int, default=64, help="onset search cap")
        p.add_argument("--out", default=None, help="artifact output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "kernel":
            p.add_argument("--kind", choices=("full", "reduced", "lumped"), default="lumped")
        if name == "extremal":
            p.add_argument("--kind", choices=("open", "closed"), default="open")
            p.add_argument("--source", default=None, help="source pattern string")
            p.add_argument("--target", default=None, help="target pattern string")
        if name == "bound":
            p.add_argument("--max-degree", type=int, default=5, dest="max_degree")
        if name == "expected-mono":
            p.add_argument(
                "--max-degree",
                type=int,
                default=None,
                dest="max_degree_override",
                help="degree threshold override",
            )
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:  # --help, after printing it
            return EXIT_OK
        if args.format == "csv" and args.command != "bound":
            raise UsageError("format-invalid", "--format csv is only supported by bound")
        return _COMMANDS[args.command](args)
    except CodedError as exc:
        print(f"error: [{exc.code}] {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
