"""Single-layer transition kernels of the pattern chain, as exact polynomial matrices.

A layer configuration assigns open/closed to b = |E| + |V| bonds: positions
0..|E|-1 are the horizontal edges (graph edge order) and positions |E|..b-1
the vertical bonds (vertex order).  Kernel entries accumulate the monomials
p^k (1-p)^(b-k) of all configurations mapping a source pattern to a target
pattern, so rows sum to the constant 1 exactly.

Three chains are built: the full chain on all patterns, the connectivity
chain on the uninfected partitions reachable from the all-singletons state,
and the lumped chain on infected states plus one absorbing class.  Every
transition is one layer step, which joins the lower layer's blocks to the
upper layer through the open vertical bonds.  _join is the one layer step:
it labels the components of a batch of two-layer graphs with one numpy
union-find, the array form of cluster labelling (Hoshen & Kopelman, Phys.
Rev. B 14, 1976) with the larger root hooked under the smaller (Shiloach &
Vishkin, J. Algorithms 3, 1982).  The tables (successor_table,
bridge_reach_table) take every step at once; step_pattern, the raw-bond
reference sampler's step, joins a batch of one.  Kernel entries count the
configurations of each cell by open bonds and weight the counts with one
integer product.

An automorphism of G commutes with the layer step, so the connectivity and
lumped chains are strongly lumpable onto the orbits of a group of
automorphisms (Kemeny & Snell, Finite Markov Chains, 1960, section 6.3).
The connectivity and lumped kernels are built on Orbits: only each orbit's
representative, its smallest pattern, is stepped, and its row is summed
over the states of each target orbit.  The trivial group, every state its
own orbit, gives the per-state kernels through the same code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import ONE, ZERO, Polynomial, _shift_basis, poly_dot_table, poly_sum
from .graphs import Graph, closure
from .patterns import (
    DAGGER,
    Pattern,
    PatternClass,
    PatternSpaceError,
    STAR,
    all_singletons_pattern,
    attach_infection,
    _check_guard,
    enumerate_patterns,
    relabel,
    state_from_string,
    state_to_string,
)


def _block_ids(pattern: Pattern) -> list[int]:
    """Index of the block holding each vertex; block 0 holds the marker."""
    ids = [0] * pattern.vertex_count
    for bid, block in enumerate(pattern.blocks):
        for element in block:
            if element != STAR:
                ids[element] = bid
    return ids


# ---------------------------------------------------------------------------
# The layer step: one union-find over a batch of two-layer graphs.
# ---------------------------------------------------------------------------

# Two-layer graphs joined per numpy batch, which bounds the union-find's
# work arrays whatever the table size.
_CHUNK = 1 << 12


def _find(parent: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Roots of the given nodes of a flat parent array."""
    while True:
        up = parent[nodes]
        if np.array_equal(up, nodes):
            return nodes
        nodes = up


def _union(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join a[i] to b[i] for every i, no two pairs in one forest: the
    larger root is hooked under the smaller, so every root stays the
    minimum node of its component."""
    a, b = _find(parent, a), _find(parent, b)
    parent[np.maximum(a, b)] = np.minimum(a, b)


def _roots(parent: np.ndarray) -> np.ndarray:
    """The root of every node of a flat parent array, by pointer jumping."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return parent
        parent = up


def _horizontal_forests(graph: Graph, masks: np.ndarray) -> np.ndarray:
    """forests[r, v]: the smallest vertex joined to v by the horizontal
    edges open in bitmask masks[r]."""
    k, count = graph.vertex_count, len(masks)
    base = np.arange(0, count * k, k)
    parent = (base[:, None] + np.arange(k)).ravel()
    for index, (u, v) in enumerate(graph.edges):
        rows = np.flatnonzero(masks >> index & 1)
        _union(parent, base[rows] + u, base[rows] + v)
    return _roots(parent).reshape(count, k) - base[:, None]


def _join(lower: np.ndarray, upper: np.ndarray, verticals: np.ndarray) -> np.ndarray:
    """Component labels of a batch of two-layer graphs, one per row.

    Nodes 0..k-1 are the upper layer's vertices and node k + i is block i
    of the lower layer (at most k + 1 blocks), collapsed to one node, block
    0 holding the marker.  lower[r, v] is the lower block holding vertex v,
    upper[r] labels each upper vertex with the smallest vertex of its upper
    component, and bit v of verticals[r] joins upper vertex v to its lower
    block.  Returns roots[r, node], the smallest node of its component.
    """
    count, k = lower.shape
    width = 2 * k + 1
    base = np.arange(0, count * width, width)
    parent = np.empty((count, width), dtype=np.intp)
    parent[:, :k] = upper
    parent[:, k:] = np.arange(k, width)
    parent += base[:, None]
    parent = parent.ravel()
    for v in range(k):
        rows = np.flatnonzero(verticals >> v & 1)
        _union(parent, base[rows] + v, base[rows] + k + lower[rows, v])
    return _roots(parent).reshape(count, width) - base[:, None]


def _chunks(total: int):
    """The index ranges of the batches covering total two-layer graphs."""
    for start in range(0, total, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, total))


def _pattern_from_roots(roots: Sequence[int], k: int) -> Pattern:
    """The successor pattern of one joined two-layer graph: roots[v] labels
    the component of upper vertex v and roots[k] that of the marker, which
    joins the upper vertices it reaches or stands alone.  An upper root is
    below k, so any label of k or more leaves the marker alone."""
    groups: dict[int, list[int]] = {roots[k]: [STAR]}
    for v, root in enumerate(roots[:k]):
        groups.setdefault(root, []).append(v)
    return Pattern(groups.values())


def _pattern_from_key(key: int, k: int) -> Pattern:
    """Decode a successor key: the roots of the upper vertices, then
    min(root of the marker, k), as base-(k+1) digits."""
    digits = []
    for _ in range(k + 1):
        key, digit = divmod(key, k + 1)
        digits.append(digit)
    return _pattern_from_roots(digits, k)


def step_pattern(graph: Graph, source: Pattern, bits: int) -> Pattern:
    """Deterministic successor pattern of a source pattern under one layer's
    bonds, packed into a bitmask of width b (bit i set: bond i open).

    The step joins a batch of one two-layer graph.  Its edge mask is held as
    a Python int, so any graph steps, past the enumeration guard too.
    """
    k, e = graph.vertex_count, graph.edge_count
    upper = _horizontal_forests(graph, np.array([bits & ((1 << e) - 1)], dtype=object))
    lower = np.array([_block_ids(source)], dtype=np.intp)
    return _pattern_from_roots(_join(lower, upper, np.array([bits >> e]))[0].tolist(), k)


@functools.cache
def _weight_matrix(width: int) -> np.ndarray:
    """matrix[n, d]: the coefficient of p^d in p^n (1-p)^(width-n); read-only."""
    matrix = np.array(
        [_shift_basis([0] * n + [1], width, -1) for n in range(width + 1)], dtype=np.int64
    )
    matrix.flags.writeable = False
    return matrix


def weigh_configs(counts: np.ndarray) -> list[Polynomial]:
    """The polynomial of each cell given its configuration counts: the sum
    over n of counts[cell, n] p^n (1-p)^(width-n), for width-bit configs
    with n open bonds, width = counts.shape[1] - 1.

    The counts are weighted with one integer product.  A coefficient is at
    most sum_n C(width, n) C(width-n, d-n) = C(width, d) 2^d <= 3^width in
    absolute value, below 2^34 in int64 for every width the 21-bond guard
    allows.
    """
    width = counts.shape[1] - 1
    reached = np.flatnonzero(counts.any(axis=1))
    entries = [ZERO] * len(counts)
    for cell, row in zip(reached.tolist(), (counts[reached] @ _weight_matrix(width)).tolist()):
        entries[cell] = Polynomial(row)
    return entries


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix of exact polynomials indexed by chain states."""

    states: tuple
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.states):
            raise ValueError("entry rows do not match states")
        if any(len(row) != len(self.states) for row in self.entries):
            raise ValueError("matrix is not square")

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, state) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise KeyError(f"unknown state {state}") from None

    def entry(self, source, target) -> Polynomial:
        return self.entries[self.index(source)][self.index(target)]

    def row(self, source) -> tuple[Polynomial, ...]:
        return self.entries[self.index(source)]

    def row_sums(self) -> list[Polynomial]:
        return [poly_sum(row) for row in self.entries]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.states != other.states:
            raise ValueError("state spaces differ")
        table = poly_dot_table(self.entries, list(zip(*other.entries)))
        return PolyMatrix(self.states, tuple(tuple(row) for row in table))

    def vecmat(self, vector: Sequence[Polynomial]) -> list[Polynomial]:
        """The row vector times this matrix, as one Kronecker product table."""
        return poly_dot_table([vector], list(zip(*self.entries)))[0]

    @staticmethod
    def identity(states) -> "PolyMatrix":
        n = len(states)
        return PolyMatrix(
            tuple(states),
            tuple(tuple(ONE if i == j else Polynomial() for j in range(n)) for i in range(n)),
        )

    def evaluate(self, at) -> list[list[Fraction]]:
        at = Fraction(at)
        return [[Fraction(entry(at)) for entry in row] for row in self.entries]

    def max_degree(self) -> int:
        return max(entry.degree for row in self.entries for entry in row)

    def to_dict(self) -> dict:
        return {
            "states": [state_to_string(s) for s in self.states],
            "entries": [[entry.to_strings() for entry in row] for row in self.entries],
        }

    @staticmethod
    def from_dict(data: dict) -> "PolyMatrix":
        states = tuple(state_from_string(s) for s in data["states"])
        entries = tuple(
            tuple(Polynomial.from_strings(cell) for cell in row) for row in data["entries"]
        )
        return PolyMatrix(states, entries)


# ---------------------------------------------------------------------------
# Kernel construction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Successors:
    """The successor of every source under every layer configuration:
    source i steps to patterns[index[i, z]] under config bitmask z.

    The table is also the sequence of its rows, table[i] listing the
    successor patterns of source i by config.
    """

    patterns: tuple[Pattern, ...]
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i: int) -> list[Pattern]:
        patterns = self.patterns
        return [patterns[j] for j in self.index[i].tolist()]

    def columns(self, column_of) -> np.ndarray:
        """column_of(successor) for every entry, as an array shaped like index."""
        return np.array([column_of(y) for y in self.patterns], dtype=np.int32)[self.index]

    @staticmethod
    def stack(tables: Sequence["Successors"]) -> "Successors":
        """The rows of the tables, in order, as one table."""
        position: dict[Pattern, int] = {}
        for table in tables:
            for y in table.patterns:
                position.setdefault(y, len(position))
        index = np.concatenate([table.columns(position.__getitem__) for table in tables])
        return Successors(tuple(position), index)


def _check_table(rows: int, bonds: int) -> None:
    """PatternSpaceError unless a successor table of rows times 2^bonds
    cells stays within 2^31 - 1 cells, about 8 GiB of int32 pattern ids,
    checked before the table is allocated."""
    if rows << bonds > 2**31 - 1:
        raise PatternSpaceError(
            "enumeration-guard",
            f"successor table guard: {rows} sources times 2^{bonds} configurations"
            " exceed 2^31 - 1 cells",
        )


def _bell(n: int) -> int:
    """The Bell number B_n, the first entry of row n of the Bell triangle."""
    row = [1]
    for _ in range(n):
        following = [row[-1]]
        for x in row:
            following.append(following[-1] + x)
        row = following
    return row[0]


def successor_table(graph: Graph, sources: Sequence[Pattern]) -> Successors:
    """The successor of every source under every config, by the batched join.

    The upper forest of a config is the component labelling of its open
    horizontal edges.  A successor is read as one integer key, the root of
    each upper vertex and then min(root of the marker, k) in base k + 1,
    below 13^13 < 2^63 under the 12-vertex guard; each distinct key becomes
    one Pattern.  A graph past that guard or the 21-bond guard, or a table
    of more than 2^31 - 1 cells (_check_table), fails with PatternSpaceError
    before anything is allocated.
    """
    k = _check_guard(graph)
    e, b = graph.edge_count, graph.bond_count
    _check_table(len(sources), b)
    lowers = np.array([_block_ids(x) for x in sources], dtype=np.intp).reshape(-1, k)
    forests = _horizontal_forests(graph, np.arange(1 << e))
    powers = (k + 1) ** np.arange(k + 1, dtype=np.int64)
    ids: dict[int, int] = {}
    index = np.empty(len(sources) << b, dtype=np.int32)
    for t in _chunks(len(index)):
        configs = t & ((1 << b) - 1)
        roots = _join(lowers[t >> b], forests[configs & ((1 << e) - 1)], configs >> e)
        np.minimum(roots[:, k], k, out=roots[:, k])
        distinct, inverse = np.unique(roots[:, : k + 1] @ powers, return_inverse=True)
        local = [ids.setdefault(key, len(ids)) for key in distinct.tolist()]
        index[t] = np.array(local, dtype=np.int32)[inverse]
    patterns = tuple(_pattern_from_key(key, k) for key in ids)
    return Successors(patterns, index.reshape(len(sources), 1 << b))


class Orbits:
    """States split into the orbits of a group of vertex permutations.

    The states, closed under the group, keep their given order, which is
    canonical (DAGGER first if present, then patterns sorted).  members[i]
    lists the indices of orbit i in ascending order, so its first state,
    the smallest pattern, is the orbit's representative, and orbits are
    ordered by representative.  carriers[i][j] is a permutation of the
    group taking the representative to the state members[i][j].  The group
    must contain the identity.
    """

    def __init__(self, states: Sequence[PatternClass], group: Sequence[tuple[int, ...]]):
        self.states = tuple(states)
        self.group = tuple(group)
        index = {state: i for i, state in enumerate(self.states)}
        orbit_of: list[Optional[int]] = [None] * len(self.states)
        members, carriers = [], []
        for i, state in enumerate(self.states):
            if orbit_of[i] is not None:
                continue
            carry: dict[int, tuple[int, ...]] = {}
            for perm in group:
                carry.setdefault(index[relabel(state, perm)], perm)
            order = sorted(carry)
            for j in order:
                orbit_of[j] = len(members)
            members.append(tuple(order))
            carriers.append(tuple(carry[j] for j in order))
        self.members: tuple[tuple[int, ...], ...] = tuple(members)
        self.carriers: tuple[tuple[tuple[int, ...], ...], ...] = tuple(carriers)
        self.orbit_of: tuple[int, ...] = tuple(orbit_of)

    @staticmethod
    def trivial(states: Sequence[PatternClass]) -> "Orbits":
        """Every state its own orbit: the orbits of the identity alone."""
        k = next(s.vertex_count for s in states if isinstance(s, Pattern))
        return Orbits(states, (tuple(range(k)),))

    @property
    def representatives(self) -> tuple:
        return tuple(self.states[m[0]] for m in self.members)

    @property
    def sizes(self) -> list[int]:
        return [len(m) for m in self.members]

    def columns(self) -> dict:
        """The orbit index of every state."""
        return dict(zip(self.states, self.orbit_of))


def table_counts(
    graph: Graph, table: Successors, columns: dict, collapse_uninfected: bool = False
) -> np.ndarray:
    """counts[i, j, n]: the configurations with n open bonds that step
    source i of the table into column j, where state y lies in column
    columns[y] (every uninfected successor in the column of DAGGER when
    collapse_uninfected is set).  Several states may share a column, whose
    count is then their sum.  Counted by one bincount per batch of sources;
    a count is at most 2^b, for b the bond count."""
    b = graph.bond_count
    width = 1 + max(columns.values())
    column = np.array(
        [columns[DAGGER if collapse_uninfected and not y.infected else y] for y in table.patterns],
        dtype=np.intp,
    )
    opens = np.bitwise_count(np.arange(1 << b))
    counts = np.empty((len(table), width, b + 1), dtype=np.int64)
    step = max(1, _CHUNK >> b)
    for start in range(0, len(table), step):
        cols = column[table.index[start : start + step]]
        keys = (cols + np.arange(0, len(cols) * width, width)[:, None]) * (b + 1) + opens
        cells = np.bincount(keys.ravel(), minlength=len(cols) * width * (b + 1))
        counts[start : start + len(cols)] = cells.reshape(len(cols), width, b + 1)
    return counts


def _rows_from_table(
    graph: Graph,
    table: Successors,
    columns: dict,
    collapse_uninfected: bool = False,
) -> list[list[Polynomial]]:
    """Kernel rows from a successor table: the configurations reaching each
    column counted by open bonds (table_counts), then weighed."""
    counts = table_counts(graph, table, columns, collapse_uninfected)
    entries = weigh_configs(counts.reshape(-1, counts.shape[2]))
    width = counts.shape[1]
    return [entries[i : i + width] for i in range(0, len(entries), width)]


def build_full_kernel(graph: Graph) -> PolyMatrix:
    """Transition matrix of the pattern chain on all partitions of V plus {*}.

    Its successor table has Bell(k+1) rows, one per pattern, whose cells
    are checked against the table's cap (_check_table) before the patterns
    are enumerated.
    """
    _check_table(_bell(_check_guard(graph) + 1), graph.bond_count)
    states = enumerate_patterns(graph)
    columns = {s: i for i, s in enumerate(states)}
    rows = _rows_from_table(graph, successor_table(graph, states), columns)
    return PolyMatrix(tuple(states), tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class Core:
    """The connectivity chain's reachable partitions in the orbits of a
    group, with the successor table of the orbit representatives, in
    orbit order."""

    orbits: Orbits
    table: Successors


def build_core(graph: Graph, group: Optional[Sequence[tuple[int, ...]]] = None) -> Core:
    """The core of the connectivity chain, reached by stepping orbit
    representatives only; group defaults to the identity alone.

    The successors of a relabelled partition are the relabelled successors,
    so the core is the union of the orbits of the representatives reached.
    The search steps one breadth-first level of representatives per
    successor table.
    """
    if group is None:
        group = (tuple(graph.vertices),)
    representative: dict[Pattern, Pattern] = {}

    def canonical(x: Pattern) -> Pattern:
        rep = representative.get(x)
        if rep is None:
            orbit = {relabel(x, perm) for perm in group}
            rep = min(orbit)
            representative.update(dict.fromkeys(orbit, rep))
        return rep

    levels: list[Successors] = []
    stepped: list[Pattern] = []

    def successors(frontier: list[Pattern]) -> set[Pattern]:
        levels.append(successor_table(graph, frontier))
        stepped.extend(frontier)
        return {canonical(y) for y in levels[-1].patterns}

    closure([canonical(all_singletons_pattern(graph.vertex_count))], successors)
    orbits = Orbits(sorted(representative), group)
    table = Successors.stack(levels)
    row = {rep: i for i, rep in enumerate(stepped)}
    order = [row[rep] for rep in orbits.representatives]
    return Core(orbits, Successors(table.patterns, table.index[order]))


def core_partitions(graph: Graph) -> list[Pattern]:
    """Uninfected partitions reachable from the all-singletons pattern, in canonical order."""
    return list(build_core(graph).orbits.states)


def build_reduced_kernel(graph: Graph, core: Optional[Core] = None) -> PolyMatrix:
    """Transition matrix of the connectivity chain on its reachable partitions.

    Given a core, the matrix is indexed by its orbit representatives and
    entry (i, j) is the probability that representative i steps into orbit
    j; the default core has every partition as its own orbit.
    """
    core = core or build_core(graph)
    rows = _rows_from_table(graph, core.table, core.orbits.columns())
    return PolyMatrix(core.orbits.representatives, tuple(tuple(r) for r in rows))


def lumped_state_list(core: Sequence[Pattern]) -> list[PatternClass]:
    """Absorbing class first, then every infected pattern over the given cores."""
    infected = []
    for partition in core:
        for block in partition.blocks:
            if block == (STAR,):
                continue
            infected.append(attach_infection(partition, block[0]))
    infected.sort()
    return [DAGGER] + infected


def build_lumped_kernel(graph: Graph, orbits: Optional[Orbits] = None) -> PolyMatrix:
    """Transition matrix on infected states plus the absorbing class.

    Given orbits of the lumped states under automorphisms fixing the
    origin (the absorbing class, first, is always its own orbit), the
    matrix is indexed by their representatives and entry (i, j) is the
    probability that representative i steps into orbit j; by default every
    state is its own orbit.
    """
    if orbits is None:
        orbits = Orbits.trivial(lumped_state_list(core_partitions(graph)))
    states = orbits.representatives
    table = successor_table(graph, states[1:])
    rows = _rows_from_table(graph, table, orbits.columns(), collapse_uninfected=True)
    dagger_row = [ONE] + [Polynomial()] * (len(states) - 1)
    all_rows = [dagger_row] + rows
    return PolyMatrix(states, tuple(tuple(r) for r in all_rows))


# ---------------------------------------------------------------------------
# Two-layer connectivity used by connection probabilities.
# ---------------------------------------------------------------------------


def _block_minima(partition: Pattern) -> list[int]:
    """The smallest vertex of each vertex's block."""
    minima = [0] * partition.vertex_count
    for block in partition.blocks:
        members = [e for e in block if e != STAR]
        for element in members:
            minima[element] = members[0]
    return minima


def bridge_reach_table(
    graph: Graph, infected_states: Sequence[Pattern], core: Sequence[Pattern]
) -> np.ndarray:
    """reach[i, j, z]: bitmask of the lower-layer vertices linked to the
    infection through one extra layer, by the batched join.

    The lower layer carries infected_states[i], the upper layer the
    uninfected partition core[j] (no horizontal edges: the upper forest is
    its blocks), and z the open vertical bonds between them; bit v is set
    iff lower vertex v connects to the infected block through this
    two-layer structure.
    """
    k = graph.vertex_count
    lowers = np.array([_block_ids(x) for x in infected_states], dtype=np.intp).reshape(-1, k)
    uppers = np.array([_block_minima(y) for y in core], dtype=np.intp).reshape(-1, k)
    bits = 1 << np.arange(k)
    reach = np.empty(len(lowers) * len(uppers) << k, dtype=np.int32)
    for t in _chunks(len(reach)):
        pair = t >> k
        lower = lowers[pair // len(uppers)]
        roots = _join(lower, uppers[pair % len(uppers)], t & ((1 << k) - 1))
        linked = np.take_along_axis(roots, k + lower, axis=1) == roots[:, k : k + 1]
        reach[t] = linked @ bits
    return reach.reshape(len(lowers), len(uppers), 1 << k)
