"""Byte-identity guard for the CLI artifacts.

Each case runs one command on one small graph and compares the SHA-256 of
its stdout, and its exit code, with tests/artifact_digests.json.  A change
that alters an artifact on purpose regenerates the file with

    PYTHONPATH=src python tests/test_artifacts.py

and says in its description which artifacts changed and why.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from layerchain.cli import main

DIGESTS = Path(__file__).with_name("artifact_digests.json")

GRAPHS = ("cycle:2", "cycle:3", "path:3")

COMMANDS = (
    ("states",),
    ("kernel", "--kind", "full"),
    ("kernel", "--kind", "lumped"),
    ("stationary",),
    ("onset",),
    ("verify",),
    ("connection", "--vertex", "1", "--n", "2", "--p", "1/3"),
    ("expected", "--n", "2", "--p", "1/3"),
    ("expected-mono", "--n", "2"),
    ("extremal", "--kind", "open"),
    ("extremal", "--kind", "closed"),
    ("decay", "--p", "1/2"),
    ("mc", "--p", "7/10", "--vertex", "1", "--n", "2", "--samples", "2000", "--seed", "7"),
    ("fit", "--p", "1/2", "--samples", "2000", "--seed", "3"),
)

# the stationary solve on graphs whose vectors have higher degree, and the
# bridge, layer weights and onset on a graph whose origin has a nontrivial
# stabilizer
CASES = (
    [(graph, command) for graph in GRAPHS for command in COMMANDS]
    + [(graph, ("stationary",)) for graph in ("cycle:4", "path:4")]
    + [
        ("cycle:4", ("connection", "--vertex", "1", "--n", "2", "--p", "1/3")),
        # vertex 3 is not the smallest vertex of its orbit under the
        # reflection fixing the origin, so it reads vertex 1's bridge row
        ("cycle:4", ("connection", "--vertex", "3", "--n", "2", "--p", "1/3")),
        ("cycle:4", ("expected-mono", "--n", "2")),
        ("cycle:4", ("onset",)),
        ("cycle:4", ("verify",)),
    ]
    # a matrix onset whose step needs several word primes, and one that
    # stops at its cap
    + [("path:4", ("onset",)), ("cycle:4", ("onset", "--cap", "4"))]
    # sign-change witnesses: all 49 changes-sign certificates of path:4 have
    # one Descartes sign variation on their interval
    + [("path:4", ("verify",))]
    # the only built-in run whose sign certificates reach two or more sign
    # variations: 18 certify_sign calls, 16 of them changes-sign
    + [("cycle:5", ("verify",))]
    # the mc-cycle3 benchmark graph and p, and fits at skewed p, where some
    # layer-configuration draws need more than the guide table's fixed passes
    + [
        (
            "cycle:3",
            ("mc", "--p", "7/10", "--vertex", "1", "--n", "2")
            + ("--samples", "20000", "--seed", "45"),
        ),
        ("cycle:4", ("fit", "--p", "1/20", "--samples", "20000", "--seed", "5")),
        ("cycle:3", ("fit", "--p", "9/10", "--samples", "20000", "--seed", "5")),
    ]
    # kernels and Monte Carlo tables of graphs with more than six bonds
    + [
        ("cycle:4", ("kernel", "--kind", "full")),
        ("cycle:4", ("kernel", "--kind", "lumped")),
        ("path:4", ("kernel", "--kind", "lumped")),
        (
            "cycle:4",
            ("mc", "--p", "7/10", "--vertex", "1", "--n", "2", "--samples", "2000", "--seed", "7"),
        ),
    ]
    # extremal step bounds past six bonds, and extremal constants between
    # two given patterns of one
    + [
        (graph, ("extremal", "--kind", kind))
        for graph in ("cycle:4", "path:4")
        for kind in ("open", "closed")
    ]
    + [
        (
            "cycle:4",
            ("extremal", "--kind", "open", "--source", "*,0|1|2|3", "--target", "*,0,2|1|3"),
        ),
        (
            "cycle:4",
            ("extremal", "--kind", "closed", "--source", "*,0,2|1|3", "--target", "*,0|1,3|2"),
        ),
    ]
    # a graph file: a three-leaf star with the origin on a leaf, whose
    # origin stabilizer swaps the other two leaves, so layer weights and
    # bridge rows are held on orbits of two states
    + [("star_leaf.json", ("onset",)), ("star_leaf.json", ("verify",))]
    # connection and expected polynomials at layers whose count-basis
    # coefficients need six to eight word primes
    + [
        ("path:4", ("connection", "--vertex", "3", "--n", "9", "--p", "1/3")),
        ("cycle:4", ("expected", "--n", "7", "--p", "1/3")),
        ("path:4", ("expected-mono", "--n", "3")),
    ]
)


def _key(graph: str, command: tuple) -> str:
    return " ".join((command[0], "--graph", graph, *command[1:]))


def _digest(graph: str, command: tuple) -> dict:
    """The digest of one command; a graph ending in .json names a file
    beside this one, so the key does not depend on the working directory."""
    if graph.endswith(".json"):
        graph = str(Path(__file__).with_name(graph))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command[0], "--graph", graph, *command[1:]])
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("graph,command", CASES, ids=[_key(g, c) for g, c in CASES])
def test_artifact_digest(graph, command):
    expected = json.loads(DIGESTS.read_text())[_key(graph, command)]
    assert _digest(graph, command) == expected


if __name__ == "__main__":
    table = {_key(g, c): _digest(g, c) for g, c in CASES}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
