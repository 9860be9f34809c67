"""Command-line front end emitting machine-readable certificates and tables.

All exact results are rendered as rational strings; only the mc and decay
commands are approximate and say so in their artifacts.  Exit codes:
0 success or proven, 1 usage or input error (a malformed command line
included) or running out of memory, 2 counterexample, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .analysis import (
    estimate_decay_rate,
    extremal_constants,
    extremal_step_bound,
)
from .errors import CodedError
from .graphs import Graph, GraphError, load_graph, make_builtin
from .kernels import (
    _bell,
    build_core,
    build_full_kernel,
    build_lumped_kernel,
    build_reduced_kernel,
    lumped_state_list,
)
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
from .patterns import Pattern

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
    origin = args.origin
    if os.path.exists(spec):
        try:
            with open(spec) as handle:
                document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise GraphError("document-invalid", f"invalid JSON graph file: {exc}")
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphError("document-invalid", f"cannot read graph file {spec}: {exc}")
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


def _emit(artifact, args, as_text: bool = False) -> None:
    payload = artifact if as_text else json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(payload)
        except OSError as exc:
            raise UsageError("output-unwritable", f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(payload)


def _cmd_states(args) -> int:
    """Count chain state spaces and list the core and lumped states."""
    graph = _graph_from_args(args)
    core = build_core(graph).orbits.states
    lumped = lumped_state_list(core)
    # the patterns partition V plus {*}; the uninfected ones hold * alone
    patterns, uninfected = _bell(graph.vertex_count + 1), _bell(graph.vertex_count)
    _emit(
        {
            "graph": graph.describe(),
            "pattern_count": patterns,
            "infected_count": patterns - uninfected,
            "uninfected_count": uninfected,
            "core_count": len(core),
            "lumped_count": len(lumped),
            "core_states": [str(s) for s in core],
            "lumped_states": [str(s) for s in lumped],
        },
        args,
    )
    return EXIT_OK


def _cmd_kernel(args) -> int:
    """Emit a transition kernel as exact polynomials."""
    graph = _graph_from_args(args)
    builder = {
        "full": build_full_kernel,
        "reduced": build_reduced_kernel,
        "lumped": build_lumped_kernel,
    }[args.kind]
    _emit(builder(graph).to_dict(), args)
    return EXIT_OK


def _cmd_stationary(args) -> int:
    """Stationary and initial distributions."""
    engine = Engine(_graph_from_args(args))
    _emit({"stationary": engine.stationary.to_dict(), "initial": engine.initial.to_dict()}, args)
    return EXIT_OK


def _cmd_onset(args) -> int:
    """Onset certificate of pattern monotonicity."""
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
    """Full conjecture certificate for a graph."""
    graph = _graph_from_args(args)
    cap = _nonnegative(args.cap, "--cap", "cap-negative")
    certificate = verify_conjecture(graph, cap)
    _emit(certificate.to_dict(), args)
    if certificate.verdict == PROVEN:
        return EXIT_OK
    if certificate.verdict == COUNTEREXAMPLE:
        return EXIT_COUNTEREXAMPLE
    return EXIT_INCONCLUSIVE


def _scaled_artifact(engine: Engine, poly, p, value_key: str, **fields) -> dict:
    """The artifact of a polynomial scaled by the stationary normalizer
    squared, with its value at p under value_key when p is given."""
    normalizer = engine.stationary.normalizer
    artifact = {
        "graph": engine.graph.describe(),
        **fields,
        "scaled_polynomial": poly.to_strings(),
        "normalizer": normalizer.to_strings(),
    }
    if p is not None:
        artifact["p"] = str(p)
        artifact[value_key] = str(Fraction(poly(p)) / Fraction(normalizer(p)) ** 2)
    return artifact


def _cmd_connection(args) -> int:
    """Exact connection-probability polynomial."""
    graph = _graph_from_args(args)
    if args.vertex not in graph.vertices:
        last = graph.vertex_count - 1
        raise UsageError("vertex-out-of-range", f"--vertex {args.vertex} is outside 0..{last}")
    n = _nonnegative(args.n, "--n", "layer-negative")
    p = None if args.p is None else _probability(args.p)
    engine = Engine(graph)
    poly = engine.connection(args.vertex, n)
    _emit(_scaled_artifact(engine, poly, p, "probability", vertex=args.vertex, n=n), args)
    return EXIT_OK


def _cmd_expected(args) -> int:
    """Exact expected-infected-count polynomial."""
    graph = _graph_from_args(args)
    n = _nonnegative(args.n, "--n", "layer-negative")
    p = None if args.p is None else _probability(args.p)
    engine = Engine(graph)
    _emit(_scaled_artifact(engine, engine.expected(n), p, "expected_count", n=n), args)
    return EXIT_OK


def _cmd_extremal(args) -> int:
    """Minimal per-layer bond counts over walks."""
    graph = _graph_from_args(args)
    if (args.source is None) != (args.target is None):
        raise UsageError("argument-missing", "--source and --target must be given together")
    if args.source is not None:
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
    """Numeric decay-rate estimate of the infected block."""
    graph = _graph_from_args(args)
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
    """Exact rational table of the bounded-degree criterion."""
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
    """Certify expected-count monotonicity on the degree interval."""
    graph = _graph_from_args(args)
    n = _nonnegative(args.n, "--n", "layer-negative")
    if args.max_degree is not None:
        _nonnegative(args.max_degree, "--max-degree", "degree-negative")
    certs = verify_expected_count_monotonicity(graph, n, args.max_degree)
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
    """Monte Carlo connection estimate."""
    graph = _graph_from_args(args)
    p = _fraction(args.p, "--p")
    stats = estimate_connection(graph, p, args.vertex, args.n, args.samples, args.seed)
    _emit({"graph": graph.describe(), "approximate": True, **stats.to_dict()}, args)
    return EXIT_OK


def _cmd_fit(args) -> int:
    """Chi-square fit of sampled initial patterns."""
    graph = _graph_from_args(args)
    p = _fraction(args.p, "--p")
    result = initial_pattern_fit(graph, p, args.samples, args.seed)
    _emit({"graph": graph.describe(), "approximate": True, **result}, args)
    return EXIT_OK


class _Command(NamedTuple):
    """A subcommand: its handler, whose docstring is the help text, the _FLAGS
    it reads (space-separated, a trailing ! marks a required one), and the
    flags of this command alone as name -> add_argument keywords."""

    handler: Callable[[argparse.Namespace], int]
    flags: str
    options: dict = {}


_FLAGS = {
    "graph": {"help": "cycle:k, path:k, or a JSON graph file"},
    "origin": {"type": int, "help": "origin vertex override"},
    "n": {"type": int, "help": "layer index"},
    "vertex": {"type": int, "help": "target vertex"},
    "p": {"help": "bond probability, e.g. 1/2"},
    "samples": {"type": int, "default": 100000, "help": "Monte Carlo sample count"},
    "seed": {"type": int, "default": 0, "help": "random seed"},
    "cap": {"type": int, "default": 64, "help": "onset search cap"},
    "source": {"help": "source pattern string"},
    "target": {"help": "target pattern string"},
    "format": {"choices": ("json", "csv"), "default": "json"},
}

_COMMANDS = {
    "states": _Command(_cmd_states, "graph! origin"),
    "kernel": _Command(
        _cmd_kernel,
        "graph! origin",
        {"kind": {"choices": ("full", "reduced", "lumped"), "default": "lumped"}},
    ),
    "stationary": _Command(_cmd_stationary, "graph! origin"),
    "onset": _Command(_cmd_onset, "graph! origin cap"),
    "verify": _Command(_cmd_verify, "graph! origin cap"),
    "connection": _Command(_cmd_connection, "graph! origin vertex! n! p"),
    "expected": _Command(_cmd_expected, "graph! origin n! p"),
    "expected-mono": _Command(
        _cmd_expected_mono,
        "graph! origin n!",
        {"max-degree": {"type": int, "help": "degree threshold override"}},
    ),
    "extremal": _Command(
        _cmd_extremal,
        "graph! origin source target",
        {"kind": {"choices": ("open", "closed"), "default": "open"}},
    ),
    "decay": _Command(_cmd_decay, "graph! origin p!"),
    "bound": _Command(_cmd_bound, "format", {"max-degree": {"type": int, "default": 5}}),
    "mc": _Command(_cmd_mc, "graph! origin p! vertex! n! samples seed"),
    "fit": _Command(_cmd_fit, "graph! origin p! samples seed"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="layerchain",
        description="Exact monotonicity certificates for percolation on layered graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.handler.__doc__)
        required = p.add_argument_group("required")
        for flag in command.flags.split():
            key = flag.rstrip("!")
            (required if flag.endswith("!") else p).add_argument(f"--{key}", **_FLAGS[key])
        for key, keywords in command.options.items():
            p.add_argument(f"--{key}", **keywords)
        p.add_argument("--out", help="artifact output path (default stdout)")
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:  # --help, after printing it
            return EXIT_OK
        command = _COMMANDS[args.command]
        missing = [
            f"--{flag[:-1]}"
            for flag in command.flags.split()
            if flag.endswith("!") and getattr(args, flag[:-1]) is None
        ]
        if missing:
            raise UsageError("argument-missing", f"{args.command} requires {', '.join(missing)}")
        return command.handler(args)
    except CodedError as exc:
        print(f"error: [{exc.code}] {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: [out-of-memory] {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
