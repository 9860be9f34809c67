"""Chain analysis: reachability, stationary and initial distributions,
extremal per-layer bond counts, and a numeric decay-rate estimator.

The stationary distribution of the connectivity chain is solved exactly
in Z[p]: fraction-free (Bareiss) elimination with lowest-degree pivoting
keeps intermediate degrees down, and back-substitution with the free entry
set to the last pivot gives, by Cramer's rule, a vector of minors, so every
division is exact.  The vector is then cleared to a primitive polynomial
vector whose entries and normalizer are certified positive on (0, 1).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    NEGATIVE,
    ONE,
    POSITIVE,
    UNIT_OPEN,
    Polynomial,
    certify_sign,
    poly_dot,
    poly_dot_table,
    poly_gcd,
    poly_sum,
)
from .errors import CodedError
from .graphs import Graph, closure
from .kernels import Orbits, PolyMatrix, lumped_state_list, successor_table
from .patterns import (
    DAGGER,
    Pattern,
    delete_infection,
    enumerate_patterns,
    state_from_string,
    state_to_string,
)

ZERO = Polynomial()


class ChainAnalysisError(CodedError):
    """Structural assumption of a chain-analysis operation failed."""


def reachable(kernel: PolyMatrix, source) -> set:
    """States reachable from source via structurally positive kernel entries."""
    rows = kernel.entries
    seen = closure(
        [kernel.index(source)], lambda i: [j for j, e in enumerate(rows[i]) if not e.is_zero]
    )
    return {kernel.states[i] for i in seen}


# ---------------------------------------------------------------------------
# Stationary distribution.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyVector:
    """Polynomial-valued distribution entries over a common polynomial normalizer."""

    states: tuple
    entries: tuple[Polynomial, ...]
    normalizer: Polynomial

    def __post_init__(self):
        if len(self.entries) != len(self.states):
            raise ValueError("entry count does not match states")

    def index(self, state) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise KeyError(f"unknown state {state}") from None

    def entry(self, state) -> Polynomial:
        return self.entries[self.index(state)]

    def evaluate(self, at) -> list[Fraction]:
        at = Fraction(at)
        scale = Fraction(self.normalizer(at))
        return [Fraction(e(at)) / scale for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "states": [state_to_string(s) for s in self.states],
            "c_p": self.normalizer.to_strings(),
            "entries": [e.to_strings() for e in self.entries],
        }

    @staticmethod
    def from_dict(data: dict) -> "PolyVector":
        return PolyVector(
            tuple(state_from_string(s) for s in data["states"]),
            tuple(Polynomial.from_strings(e) for e in data["entries"]),
            Polynomial.from_strings(data["c_p"]),
        )


def _bareiss_echelon(rows: list[list[Polynomial]]) -> tuple[list[list[Polynomial]], list[int]]:
    """Fraction-free row echelon form; returns reduced rows and pivot columns.

    Each new entry is the cross-product pivot * a - factor * b divided
    exactly by the previous pivot; rows are zero to the left of their pivot.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    previous = ONE
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n_cols):
        best: Optional[int] = None
        for i in range(rank, n_rows):
            entry = rows[i][col]
            if not entry.is_zero and (best is None or entry.degree < rows[best][col].degree):
                best = i
        if best is None:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        pivot = rows[rank][col]
        pivot_tail = rows[rank][col + 1 :]
        for i in range(rank + 1, n_rows):
            pairs = list(zip(rows[i][col + 1 :], pivot_tail))
            cross = poly_dot_table([[pivot, -rows[i][col]]], pairs)[0]
            rows[i] = [ZERO] * (col + 1) + [value.exact_div(previous) for value in cross]
        previous = pivot
        pivot_cols.append(col)
        rank += 1
    return rows, pivot_cols


def stationary_distribution(kernel: PolyMatrix) -> PolyVector:
    """Unique stationary row vector of an irreducible row-stochastic kernel.

    Entries and the normalizer are polynomials with cleared common gcd and
    integer content, each certified positive on (0, 1).
    """
    n = kernel.size
    if any(s != ONE for s in kernel.row_sums()):
        raise ChainAnalysisError("kernel-not-stochastic", "kernel is not row-stochastic")
    # left eigenvector condition, transposed: (pi^T - I) x = 0; the columns
    # of the system sum to zero, so dropping the last row loses no rank.
    rows = []
    for i in range(n - 1):
        row = []
        for j in range(n):
            entry = kernel.entries[j][i]
            if i == j:
                entry = entry - ONE
            row.append(entry)
        rows.append(row)
    rows, pivot_cols = _bareiss_echelon(rows)
    if len(pivot_cols) != n - 1:
        raise ChainAnalysisError("chain-reducible", "stationary eigenspace dimension is not 1")
    free_col = next(j for j in range(n) if j not in pivot_cols)
    # With the free entry equal to the last pivot, the minor of the pivot
    # columns, Cramer's rule makes every entry a minor of the system, so
    # each division below is exact.
    entries = [ZERO] * n
    entries[free_col] = rows[-1][pivot_cols[-1]] if rows else ONE
    for r in reversed(range(n - 1)):
        col = pivot_cols[r]
        acc = poly_dot(rows[r][col + 1 :], entries[col + 1 :])
        entries[col] = (-acc).exact_div(rows[r][col])

    entries, normalizer = _primitive_vector(entries)
    if any(certify_sign(q, UNIT_OPEN).verdict != POSITIVE for q in (normalizer, *entries)):
        raise ChainAnalysisError(
            "stationary-not-positive", "stationary vector is not positive on (0, 1)"
        )

    result = PolyVector(tuple(kernel.states), tuple(entries), normalizer)
    _assert_stationary(result, kernel)
    return result


def _primitive_vector(entries: list[Polynomial]) -> tuple[list[Polynomial], Polynomial]:
    """The entries with their common polynomial factor and integer content
    cleared, oriented so that their sum, returned with them, is positive on
    (0, 1) when it has a constant sign there."""
    g = ZERO
    for e in entries:
        g = e if g.is_zero else poly_gcd(g, e)
        if g.degree == 0 and not g.is_zero:
            break
    if g.degree > 0:
        # g is primitive, so by Gauss's lemma each quotient lies in Z[p]
        entries = [e.exact_div(g) for e in entries]
    content = math.gcd(*(c for e in entries for c in e.coeffs))
    if content > 1:
        entries = [Polynomial([c // content for c in e.coeffs]) for e in entries]

    normalizer = poly_sum(entries)
    if certify_sign(normalizer, UNIT_OPEN).verdict == NEGATIVE:
        entries = [-e for e in entries]
        normalizer = -normalizer
    return entries, normalizer


def expand_orbits(vector: PolyVector, orbits: Orbits) -> PolyVector:
    """Per-state form of an invariant vector given by its orbit sums.

    vector is indexed by the orbit representatives.  Each state gets its
    orbit's entry over the orbit size, scaled by the lcm of the sizes to
    stay in Z[p], and the entries are cleared to a primitive integer vector
    again, over their sum.  Applied to the stationary vector of a chain
    lumped onto automorphism orbits this is the stationary vector of the
    chain itself: that vector is unique, so invariant under every
    automorphism, and orbit-mates share its orbit sum equally.
    """
    if tuple(vector.states) != orbits.representatives:
        raise ValueError("vector is not indexed by the orbit representatives")
    entries = [ZERO] * len(orbits.states)
    common = math.lcm(*orbits.sizes)
    for entry, members in zip(vector.entries, orbits.members):
        share = entry * (common // len(members))
        for i in members:
            entries[i] = share
    entries, normalizer = _primitive_vector(entries)
    return PolyVector(orbits.states, tuple(entries), normalizer)


def _assert_stationary(vector: PolyVector, kernel: PolyMatrix) -> None:
    if kernel.vecmat(vector.entries) != list(vector.entries):
        raise ChainAnalysisError(
            "stationary-identity", "stationary identity alpha * pi = alpha failed"
        )


def initial_distribution(stationary: PolyVector, graph: Graph) -> PolyVector:
    """Distribution of the first infected layer pattern over the lumped states.

    A state whose infected block does not contain the origin has weight 0;
    otherwise the weight is the stationary weight of its uninfected
    projection, over the same normalizer.
    """
    states = lumped_state_list(list(stationary.states))
    entries = []
    for state in states:
        if state is DAGGER or graph.origin not in state.infected_vertices:
            entries.append(ZERO)
        else:
            entries.append(stationary.entry(delete_infection(state)))
    return PolyVector(tuple(states), tuple(entries), stationary.normalizer)


# ---------------------------------------------------------------------------
# Extremal per-layer bond counts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalReport:
    """Minimal per-layer bond count over all walks between two infected patterns."""

    source: str
    target: str
    kind: str
    min_bonds: int
    min_steps: int

    def to_dict(self) -> dict:
        return {
            "y": self.source,
            "x": self.target,
            "kind": self.kind,
            "m": self.min_bonds,
            "l": self.min_steps,
        }


def _infected_successors(graph: Graph, seeds: Sequence[Pattern]) -> dict[Pattern, list]:
    """Successor table rows for every infected pattern reachable from the seeds."""
    table: dict[Pattern, list] = {}

    def infected_successors(x: Pattern) -> list[Pattern]:
        step = successor_table(graph, [x])
        table[x] = step[0]
        return [y for y in step.patterns if y.infected]

    closure(seeds, infected_successors)
    return table


def extremal_constants(graph: Graph, source: Pattern, target: Pattern, kind: str) -> ExtremalReport:
    """Minimal bond count of a layer on walks source -> target, and the
    shortest walk length containing such a layer.

    kind "open" minimizes open bonds per layer, "closed" minimizes closed
    bonds.  Walks between infected patterns stay infected throughout, so the
    search runs over infected patterns only.
    """
    if kind not in ("open", "closed"):
        raise ValueError("kind must be 'open' or 'closed'")
    if {source.vertex_count, target.vertex_count} != {graph.vertex_count}:
        message = f"source and target must have the graph's {graph.vertex_count} vertices"
        raise ChainAnalysisError("pattern-size", message)
    if not (source.infected and target.infected):
        raise ChainAnalysisError(
            "endpoint-uninfected", "extremal constants require infected endpoints"
        )
    moves = _cheapest_moves(graph, _infected_successors(graph, [source]), kind)
    return _extremal(moves, _predecessors(moves), source, target, kind)


def _cheapest_moves(
    graph: Graph, table: dict[Pattern, list], kind: str
) -> dict[Pattern, dict[Pattern, int]]:
    """moves[u][v]: the fewest open (kind "open") or closed bonds of any
    layer taking u to the infected pattern v."""
    b = graph.bond_count
    costs = [z.bit_count() if kind == "open" else b - z.bit_count() for z in range(1 << b)]
    moves: dict[Pattern, dict[Pattern, int]] = {}
    for u, row in table.items():
        cheapest = moves[u] = {}
        for cost, v in zip(costs, row):
            if v.infected and cost < cheapest.get(v, b + 1):
                cheapest[v] = cost
    return moves


def _predecessors(moves: dict[Pattern, dict[Pattern, int]]) -> dict[Pattern, dict[Pattern, int]]:
    """predecessors[v][u]: the cost of the cheapest move from u to v."""
    predecessors: dict[Pattern, dict[Pattern, int]] = {u: {} for u in moves}
    for u, row in moves.items():
        for v, cost in row.items():
            predecessors[v][u] = cost
    return predecessors


def _extremal(
    moves: dict[Pattern, dict[Pattern, int]],
    predecessors: dict[Pattern, dict[Pattern, int]],
    source: Pattern,
    target: Pattern,
    kind: str,
) -> ExtremalReport:
    """extremal_constants over the cheapest moves of the infected patterns
    reachable from source (moves holds exactly those) and their predecessors."""
    if target not in moves:
        raise ChainAnalysisError("target-unreachable", f"{target} is not reachable from {source}")

    co_reach = closure([target], predecessors.__getitem__)
    minimum = min(
        (cost for v in co_reach for cost in predecessors[v].values()),
        default=None,
    )
    if minimum is None:
        raise ChainAnalysisError("no-transition", "no infected transition found")

    # shortest walk containing a minimal layer: BFS over (pattern, seen-flag).
    # A move flags the walk iff its cost is the minimum; a cheaper move
    # leaves the co-reach set, and a dearer move to the same pattern is
    # dominated by the flagged one.
    start = (source, False)
    goal = (target, True)
    distance = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        u, flag = node
        for v, cost in moves[u].items():
            nxt = (v, flag or cost == minimum)
            if nxt not in distance:
                distance[nxt] = distance[node] + 1
                queue.append(nxt)
    if goal not in distance:
        raise ChainAnalysisError("no-walk", "no walk with a minimal layer found")
    return ExtremalReport(str(source), str(target), kind, minimum, distance[goal])


def extremal_step_bound(graph: Graph, kind: str) -> int:
    """Maximum, over reachable infected pattern pairs, of the minimal walk length."""
    infected = [x for x in enumerate_patterns(graph) if x.infected]
    moves = _cheapest_moves(graph, _infected_successors(graph, infected), kind)
    best = 0
    for source in infected:
        seen = closure([source], moves.__getitem__)
        rows = {x: moves[x] for x in seen}
        predecessors = _predecessors(rows)
        for target in seen:
            best = max(best, _extremal(rows, predecessors, source, target, kind).min_steps)
    return best


# ---------------------------------------------------------------------------
# Numeric decay-rate estimate.
# ---------------------------------------------------------------------------


def estimate_decay_rate(kernel: PolyMatrix, p) -> float:
    """Spectral radius of the infected-states block at a fixed p.

    The block is substochastic with absorption, so the result lies in (0, 1).
    It is the largest eigenvalue modulus of the block, periodic or not.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ChainAnalysisError(
            "probability-range", "decay estimate requires p strictly inside (0, 1)"
        )
    indices = [i for i, s in enumerate(kernel.states) if isinstance(s, Pattern)]
    block = np.array(
        [[float(Fraction(kernel.entries[i][j](p))) for j in indices] for i in indices],
        dtype=float,
    )
    return float(max(abs(np.linalg.eigvals(block))))
