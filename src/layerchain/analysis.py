"""Chain analysis: reachability, stationary and initial distributions,
extremal per-layer bond counts, and a numeric decay-rate estimator.

The stationary distribution of the connectivity chain is solved exactly
over the rational-function field: fraction-free (Bareiss) elimination with
lowest-degree pivoting keeps intermediate degrees down, and one rational
back-substitution pass recovers the eigenvector, which is then cleared to
a primitive polynomial vector over a positive polynomial normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import ONE, Polynomial, poly_gcd, poly_sum
from .errors import CodedError
from .graphs import Graph, closure
from .kernels import PolyMatrix, lumped_state_list, successor_table
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


class _RatFunc:
    """Ratio of polynomials, reduced by polynomial gcd after every operation."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = ONE):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        self.num = num
        self.den = den

    def __add__(self, other: "_RatFunc") -> "_RatFunc":
        return _RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "_RatFunc") -> "_RatFunc":
        return _RatFunc(self.num * other.num, self.den * other.den)

    def __neg__(self) -> "_RatFunc":
        return _RatFunc(-self.num, self.den)

    def divided_by(self, poly: Polynomial) -> "_RatFunc":
        return _RatFunc(self.num, self.den * poly)


def _bareiss_echelon(rows: list[list[Polynomial]]) -> tuple[list[list[Polynomial]], list[int]]:
    """Fraction-free row echelon form; returns reduced rows and pivot columns."""
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
        for i in range(rank + 1, n_rows):
            factor = rows[i][col]
            new_row = []
            for j in range(n_cols):
                value = pivot * rows[i][j] - factor * rows[rank][j]
                new_row.append(value.exact_div(previous))
            new_row[col] = ZERO
            rows[i] = new_row
        previous = pivot
        pivot_cols.append(col)
        rank += 1
    return rows, pivot_cols


def stationary_distribution(kernel: PolyMatrix) -> PolyVector:
    """Unique stationary row vector of an irreducible row-stochastic kernel.

    Entries and the normalizer are polynomials with cleared common gcd and
    integer content, signed so that everything is positive at p = 1/2.
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
    solution: list[Optional[_RatFunc]] = [None] * n
    solution[free_col] = _RatFunc(ONE)
    for r in reversed(range(len(pivot_cols))):
        col = pivot_cols[r]
        acc = _RatFunc(ZERO)
        for j in range(n):
            if j == col or rows[r][j].is_zero:
                continue
            term = solution[j]
            if term is None:
                raise ChainAnalysisError("echelon-order", "echelon back-substitution out of order")
            acc = acc + _RatFunc(rows[r][j]) * term
        solution[col] = (-acc).divided_by(rows[r][col])

    # clear to a common polynomial denominator
    common_den = ONE
    for ratio in solution:
        g = poly_gcd(common_den, ratio.den)
        common_den = common_den * ratio.den.exact_div(g) if g.degree > 0 else common_den * ratio.den
    entries = [ratio.num * common_den.exact_div(ratio.den) for ratio in solution]

    # strip the common polynomial factor (this also divides the normalizer)
    g = ZERO
    for e in entries:
        g = e if g.is_zero else poly_gcd(g, e)
        if g.degree == 0 and not g.is_zero:
            break
    if g.degree > 0:
        entries = [e.exact_div(g) for e in entries]

    # clear integer content and denominators with one rational scale
    scaled = [e.integer_scaled() for e in entries]
    den_lcm = 1
    for _, scale in scaled:
        den_lcm = den_lcm * scale.denominator // math.gcd(den_lcm, scale.denominator)
    int_entries = []
    for ints, scale in scaled:
        factor = int(scale * den_lcm)
        int_entries.append([c * factor for c in ints])
    content = 0
    for ints in int_entries:
        for c in ints:
            content = math.gcd(content, c)
    if content > 1:
        int_entries = [[c // content for c in ints] for ints in int_entries]
    entries = [Polynomial(ints) for ints in int_entries]

    normalizer = poly_sum(entries)
    half = Fraction(1, 2)
    if normalizer(half) < 0:
        entries = [-e for e in entries]
        normalizer = -normalizer
    if normalizer(half) <= 0:
        raise ChainAnalysisError(
            "normalizer-vanishes", "stationary normalizer vanishes at p = 1/2"
        )

    result = PolyVector(tuple(kernel.states), tuple(entries), normalizer)
    _assert_stationary(result, kernel)
    return result


def _assert_stationary(vector: PolyVector, kernel: PolyMatrix) -> None:
    cols = list(zip(*kernel.entries))
    for j, col in enumerate(cols):
        image = poly_sum(e * c for e, c in zip(vector.entries, col))
        if image != vector.entries[j]:
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
        table[x] = successor_table(graph, [x])[0]
        return [y for y in table[x] if y.infected]

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
    return _extremal(graph, _infected_successors(graph, [source]), source, target, kind)


def _extremal(
    graph: Graph, table: dict[Pattern, list], source: Pattern, target: Pattern, kind: str
) -> ExtremalReport:
    """extremal_constants over the successor rows of the infected patterns
    reachable from source (table holds exactly those)."""
    b = graph.bond_count
    if target not in table:
        raise ChainAnalysisError("target-unreachable", f"{target} is not reachable from {source}")

    predecessors: dict[Pattern, set[Pattern]] = {u: set() for u in table}
    for u, row in table.items():
        for v in set(row):
            if v.infected:
                predecessors[v].add(u)
    co_reach = closure([target], predecessors.__getitem__)

    costs = [z.bit_count() if kind == "open" else b - z.bit_count() for z in range(1 << b)]
    minimum = None
    for u, row in table.items():
        for z, v in enumerate(row):
            if v.infected and v in co_reach:
                cost = costs[z]
                if minimum is None or cost < minimum:
                    minimum = cost
    if minimum is None:
        raise ChainAnalysisError("no-transition", "no infected transition found")

    # shortest walk containing a minimal layer: BFS over (pattern, seen-flag)
    step_all: dict[Pattern, set[Pattern]] = {}
    step_min: dict[Pattern, set[Pattern]] = {}
    step_other: dict[Pattern, set[Pattern]] = {}
    for u, row in table.items():
        step_all[u] = set()
        step_min[u] = set()
        step_other[u] = set()
        for z, v in enumerate(row):
            if not v.infected:
                continue
            step_all[u].add(v)
            if costs[z] == minimum:
                step_min[u].add(v)
            else:
                step_other[u].add(v)

    start = (source, False)
    distance = {start: 0}
    queue = [start]
    goal = (target, True)
    while queue:
        node = queue.pop(0)
        if node == goal:
            break
        u, flag = node
        moves = (
            [(v, True) for v in step_all[u]]
            if flag
            else [(v, True) for v in step_min[u]] + [(v, False) for v in step_other[u]]
        )
        for nxt in moves:
            if nxt not in distance:
                distance[nxt] = distance[node] + 1
                queue.append(nxt)
    if goal not in distance:
        raise ChainAnalysisError("no-walk", "no walk with a minimal layer found")
    return ExtremalReport(str(source), str(target), kind, minimum, distance[goal])


def extremal_step_bound(graph: Graph, kind: str) -> int:
    """Maximum, over reachable infected pattern pairs, of the minimal walk length."""
    infected = [x for x in enumerate_patterns(graph) if x.infected]
    table = _infected_successors(graph, infected)
    best = 0
    for source in infected:
        seen = closure([source], lambda x: [y for y in table[x] if y.infected])
        rows = {x: table[x] for x in seen}
        for target in seen:
            best = max(best, _extremal(graph, rows, source, target, kind).min_steps)
    return best


# ---------------------------------------------------------------------------
# Numeric decay-rate estimate.
# ---------------------------------------------------------------------------


def estimate_decay_rate(
    kernel: PolyMatrix,
    p,
    tolerance: float = 1e-10,
    max_iterations: int = 10**6,
) -> float:
    """Spectral radius of the infected-states block at a fixed p, by power iteration.

    The block is substochastic with absorption, so the result lies in (0, 1).
    Starts from the uniform vector; raises if the iteration cap is reached.
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
    vector = np.full(len(indices), 1.0 / len(indices))
    previous = 0.0
    for _ in range(max_iterations):
        image = vector @ block
        norm = image.sum()
        if norm == 0.0:
            return 0.0
        vector = image / norm
        if abs(norm - previous) <= tolerance * norm:
            return float(norm)
        previous = norm
    raise ChainAnalysisError("no-convergence", "power iteration did not converge within the cap")
