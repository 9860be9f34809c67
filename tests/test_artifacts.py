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
        ("cycle:4", ("expected-mono", "--n", "2")),
        ("cycle:4", ("onset",)),
        ("cycle:4", ("verify",)),
    ]
)


def _key(graph: str, command: tuple) -> str:
    return " ".join((command[0], "--graph", graph, *command[1:]))


def _digest(graph: str, command: tuple) -> dict:
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
