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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
        [kernel.index(source)],
        lambda frontier: [j for i in frontier for j, e in enumerate(rows[i]) if not e.is_zero],
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
    return _clear_content(entries)


def _clear_content(entries: list[Polynomial]) -> tuple[list[Polynomial], Polynomial]:
    """The entries over their integer content, oriented so that their sum,
    returned with them, is positive on (0, 1) when it has a constant sign
    there."""
    content = math.gcd(*(c for e in entries for c in e.coeffs))
    if content > 1:
        entries = [Polynomial([c // content for c in e.coeffs]) for e in entries]

    normalizer = poly_sum(entries)
    if certify_sign(normalizer, UNIT_OPEN).verdict == NEGATIVE:
        entries = [-e for e in entries]
        normalizer = -normalizer
    return entries, normalizer


def _expand_orbits(vector: PolyVector, orbits: Orbits) -> PolyVector:
    """Per-state form of an invariant vector given by its orbit sums.

    vector is indexed by the orbit representatives and its entries have
    polynomial gcd 1, as stationary_distribution returns them.  Each state
    gets its orbit's entry over the orbit size, scaled by the lcm of the
    sizes to stay in Z[p].  Integer multiples of entries with gcd 1 keep
    gcd 1, so only their integer content is cleared (_clear_content, which
    also orients their sum, the normalizer).  Applied to the stationary
    vector of a chain lumped onto automorphism orbits this is the
    stationary vector of the chain itself: that vector is unique, so
    invariant under every automorphism, and orbit-mates share its orbit
    sum equally.
    """
    if tuple(vector.states) != orbits.representatives:
        raise ValueError("vector is not indexed by the orbit representatives")
    entries = [ZERO] * len(orbits.states)
    common = math.lcm(*orbits.sizes)
    for entry, members in zip(vector.entries, orbits.members):
        share = entry * (common // len(members))
        for i in members:
            entries[i] = share
    entries, normalizer = _clear_content(entries)
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


def extremal_constants(graph: Graph, source: Pattern, target: Pattern, kind: str) -> ExtremalReport:
    """Minimal bond count of a layer on walks source -> target, and the
    shortest walk length containing such a layer.

    kind "open" minimizes open bonds per layer, "closed" minimizes closed
    bonds.  Walks between infected patterns stay infected throughout, so the
    search runs over infected patterns only.
    """
    if {source.vertex_count, target.vertex_count} != {graph.vertex_count}:
        message = f"source and target must have the graph's {graph.vertex_count} vertices"
        raise ChainAnalysisError("pattern-size", message)
    if not (source.infected and target.infected):
        raise ChainAnalysisError(
            "endpoint-uninfected", "extremal constants require infected endpoints"
        )
    patterns, cost = _moves(graph, kind)
    dist = _distances(cost <= graph.bond_count)
    s, t = patterns.index(source), patterns.index(target)
    if dist[s, t] < 0:
        raise ChainAnalysisError("target-unreachable", f"{target} is not reachable from {source}")
    m, l = _walk_constants(cost, dist, s, graph.bond_count)
    return ExtremalReport(str(source), str(target), kind, int(m[t]), int(l[t]))


def _moves(graph: Graph, kind: str) -> tuple[list[Pattern], np.ndarray]:
    """The infected patterns, and cost[u, v]: the fewest open (kind "open")
    or closed bonds of any layer taking pattern u to pattern v, or
    graph.bond_count + 1 where no layer does."""
    if kind not in ("open", "closed"):
        raise ValueError("kind must be 'open' or 'closed'")
    infected = [x for x in enumerate_patterns(graph) if x.infected]
    position = {x: i for i, x in enumerate(infected)}
    columns = successor_table(graph, infected).columns(lambda y: position.get(y, -1))
    b, n = graph.bond_count, len(infected)
    counts = np.bitwise_count(np.arange(1 << b))
    # an uninfected successor, column -1, lands in a spare last column
    cost = np.full((n, n + 1), b + 1)
    rows = np.arange(n)[:, None]
    np.minimum.at(cost, (rows, columns), counts if kind == "open" else b - counts)
    return infected, cost[:, :n]


def _distances(adjacent: np.ndarray) -> np.ndarray:
    """dist[u, v]: the fewest moves from u to v, or -1 where there is no
    walk; a breadth-first search from every pattern at once, one level per
    matrix product."""
    n = len(adjacent)
    dist = np.full((n, n), -1)
    np.fill_diagonal(dist, 0)
    step = adjacent.astype(np.float32)
    frontier = np.eye(n, dtype=bool)
    level = 0
    while frontier.any():
        level += 1
        frontier = (frontier @ step > 0) & (dist < 0)
        dist[frontier] = level
    return dist


def _walk_constants(
    cost: np.ndarray, dist: np.ndarray, s: int, bonds: int
) -> tuple[np.ndarray, np.ndarray]:
    """m[t] and l[t] for every pattern t reachable from pattern s: the
    fewest bonds of a move (u, v) on a walk s -> t, and the length of the
    shortest walk through such a move, dist[s, u] + 1 + dist[v, t].

    A layer with every vertical bond open and every horizontal bond closed
    maps each pattern to itself, so once t is reachable from s the move
    (t, t) lies on a walk s -> t, and some move of cost at most bonds does.
    """
    n = len(cost)
    far = 2 * n  # longer than every walk below
    reach = np.flatnonzero(dist[s] >= 0)
    # arrive[c, v]: the shortest walk from s whose last move enters v at
    # cost c; the pairs with no move fill row bonds + 1, which is dropped
    arrive = np.full((bonds + 2, n), far)
    np.minimum.at(arrive, (cost[reach], np.arange(n)), dist[s, reach, None] + 1)
    leave = np.where(dist >= 0, dist, far)
    # walks[c, t]: the shortest walk s -> t through a move of cost c
    walks = (arrive[: bonds + 1, :, None] + leave).min(axis=1)
    m = (walks < far).argmax(axis=0)
    return m, walks[m, np.arange(n)]


def extremal_step_bound(graph: Graph, kind: str) -> int:
    """Maximum, over reachable infected pattern pairs, of the minimal walk length."""
    patterns, cost = _moves(graph, kind)
    b = graph.bond_count
    dist = _distances(cost <= b)
    return max(
        int(_walk_constants(cost, dist, s, b)[1][dist[s] >= 0].max()) for s in range(len(patterns))
    )


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
