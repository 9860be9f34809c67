"""Single-layer transition kernels of the pattern chain, as exact polynomial matrices.

A layer configuration assigns open/closed to b = |E| + |V| bonds: positions
0..|E|-1 are the horizontal edges (graph edge order) and positions |E|..b-1
the vertical bonds (vertex order).  Kernel entries accumulate the monomials
p^k (1-p)^(b-k) of all configurations mapping a source pattern to a target
pattern, so rows sum to the constant 1 exactly.

Three chains are built: the full chain on all patterns, the connectivity
chain on the uninfected partitions reachable from the all-singletons state,
and the lumped chain on infected states plus one absorbing class.  Every
transition is one layer step: _join_layers joins the lower layer's blocks
to the upper layer through the open vertical bonds, and step_pattern,
successor_table and bridge_reach read their answers off that union-find.

An automorphism of G commutes with the layer step, so the connectivity and
lumped chains are strongly lumpable onto the orbits of a group of
automorphisms (Kemeny & Snell, Finite Markov Chains, 1960, section 6.3).
The connectivity and lumped kernels are built on Orbits: only each orbit's
representative, its smallest pattern, is stepped, and its row is summed
over the states of each target orbit.  The trivial group, every state its
own orbit, gives the per-state kernels through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import ONE, P, Polynomial, poly_dot_table, poly_sum
from .graphs import Graph, closure
from .patterns import (
    DAGGER,
    Pattern,
    PatternClass,
    STAR,
    all_singletons_pattern,
    attach_infection,
    enumerate_patterns,
    relabel,
    state_from_string,
    state_to_string,
)


def config_weights(width: int) -> list[Polynomial]:
    """weights[k] = p^k (1-p)^(width-k), the probability of a config with k open bonds."""
    one_minus = Polynomial((1, -1))
    return [P**k * one_minus ** (width - k) for k in range(width + 1)]


def _block_ids(pattern: Pattern) -> list[int]:
    """Index of the block holding each vertex; block 0 holds the marker."""
    ids = [0] * pattern.vertex_count
    for bid, block in enumerate(pattern.blocks):
        for element in block:
            if element != STAR:
                ids[element] = bid
    return ids


def _join_layers(k: int, block_id: Sequence[int], links, verticals: int):
    """Join a lower layer, given as block ids, to an upper layer through the
    open vertical bonds; returns the find function of the joined union-find.

    Nodes 0..k-1 are the upper layer's vertices and node k + i is block i of
    the lower layer (at most k + 1 blocks), collapsed to one node.  links
    are the pairs of upper vertices joined within the upper layer; bit v of
    verticals joins upper vertex v to the lower block holding v.
    """
    parent = list(range(2 * k + 1))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u, v in links:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    for v in range(k):
        if verticals >> v & 1:
            ru, rv = find(v), find(k + block_id[v])
            if ru != rv:
                parent[rv] = ru
    return find


def _open_edges(graph: Graph, bits: int) -> list[tuple[int, int]]:
    return [edge for index, edge in enumerate(graph.edges) if bits >> index & 1]


def _step_blocks(k: int, block_id: Sequence[int], links, verticals: int) -> tuple:
    """Canonical blocks of the successor of a lower layer: the upper layer's
    vertices grouped by connection, the marker joining the group linked to
    the lower layer's marker block or standing alone.
    """
    find = _join_layers(k, block_id, links, verticals)
    star_root = find(k)
    groups: dict[int, list[int]] = {}
    for v in range(k):
        groups.setdefault(find(v), []).append(v)
    blocks = [
        (STAR, *members) if root == star_root else tuple(members)
        for root, members in groups.items()
    ]
    if star_root not in groups:
        blocks.append((STAR,))
    return tuple(sorted(blocks))


def step_pattern(graph: Graph, source: Pattern, bits: int) -> Pattern:
    """Deterministic successor pattern of a source pattern under one layer's
    bonds, packed into a bitmask of width b (bit i set: bond i open)."""
    links = _open_edges(graph, bits)
    verticals = bits >> graph.edge_count
    return Pattern(_step_blocks(graph.vertex_count, _block_ids(source), links, verticals))


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


def successor_table(graph: Graph, sources: Sequence[Pattern]) -> list[list[Pattern]]:
    """table[i][z] = successor pattern of sources[i] under config bitmask z."""
    k = graph.vertex_count
    e = graph.edge_count
    horizontal = (1 << e) - 1
    links = [_open_edges(graph, bits) for bits in range(horizontal + 1)]
    table: list[list[Pattern]] = []
    pattern_cache: dict[tuple, Pattern] = {}
    for source in sources:
        block_id = _block_ids(source)
        row = []
        for z in range(1 << graph.bond_count):
            key = _step_blocks(k, block_id, links[z & horizontal], z >> e)
            cached = pattern_cache.get(key)
            if cached is None:
                cached = Pattern(key)
                pattern_cache[key] = cached
            row.append(cached)
        table.append(row)
    return table


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


def _rows_from_table(
    graph: Graph,
    table: Sequence[Sequence[Pattern]],
    columns: dict,
    collapse_uninfected: bool = False,
) -> list[list[Polynomial]]:
    """Kernel rows from successor table rows: count the configurations
    reaching each column by open-bond multiplicity, then weight.  Several
    states may share a column, whose entry is then their sum."""
    b = graph.bond_count
    weights = config_weights(b)
    popcounts = [z.bit_count() for z in range(1 << b)]
    width = 1 + max(columns.values())
    rows = []
    for row_targets in table:
        counts: dict[int, list[int]] = {}
        for z, target in enumerate(row_targets):
            state: PatternClass = target
            if collapse_uninfected and not target.infected:
                state = DAGGER
            col = columns[state]
            per = counts.get(col)
            if per is None:
                per = [0] * (b + 1)
                counts[col] = per
            per[popcounts[z]] += 1
        row = [Polynomial() for _ in range(width)]
        for col, per in counts.items():
            row[col] = poly_sum(
                count * weights[k] for k, count in enumerate(per) if count
            )
        rows.append(row)
    return rows


def build_full_kernel(graph: Graph) -> PolyMatrix:
    """Transition matrix of the pattern chain on all partitions of V plus {*}."""
    states = enumerate_patterns(graph)
    columns = {s: i for i, s in enumerate(states)}
    rows = _rows_from_table(graph, successor_table(graph, states), columns)
    return PolyMatrix(tuple(states), tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class Core:
    """The connectivity chain's reachable partitions in the orbits of a
    group, with the successor table rows of the orbit representatives."""

    orbits: Orbits
    rows: tuple[list[Pattern], ...]


def build_core(graph: Graph, group: Optional[Sequence[tuple[int, ...]]] = None) -> Core:
    """The core of the connectivity chain, reached by stepping orbit
    representatives only; group defaults to the identity alone.

    The successors of a relabelled partition are the relabelled successors,
    so the core is the union of the orbits of the representatives reached.
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

    rows: dict[Pattern, list[Pattern]] = {}

    def successors(rep: Pattern) -> set[Pattern]:
        [rows[rep]] = successor_table(graph, [rep])
        return {canonical(y) for y in set(rows[rep])}

    closure([canonical(all_singletons_pattern(graph.vertex_count))], successors)
    orbits = Orbits(sorted(representative), group)
    return Core(orbits, tuple(rows[rep] for rep in orbits.representatives))


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
    rows = _rows_from_table(graph, core.rows, core.orbits.columns())
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


def _partition_links(upper: Pattern) -> list[tuple[int, int]]:
    """Pairs of vertices that chain each block of a partition together."""
    links: list[tuple[int, int]] = []
    for block in upper.blocks:
        members = [e for e in block if e != STAR]
        links += zip(members, members[1:])
    return links


def _reach_mask(k: int, block_id: Sequence[int], links, vertical_bits: int) -> int:
    find = _join_layers(k, block_id, links, vertical_bits)
    star_root = find(k)
    mask = 0
    for v in range(k):
        if find(k + block_id[v]) == star_root:
            mask |= 1 << v
    return mask


def bridge_reach(graph: Graph, infected: Pattern, upper: Pattern, vertical_bits: int) -> int:
    """Bitmask of lower-layer vertices linked to the infection through one extra layer.

    The lower layer carries the infected pattern, the upper layer the
    uninfected partition, and vertical_bits the open vertical bonds between
    them; bit v of the result is set iff lower vertex v connects to the
    infected block through this two-layer structure.
    """
    k = graph.vertex_count
    return _reach_mask(k, _block_ids(infected), _partition_links(upper), vertical_bits)


def bridge_reach_table(
    graph: Graph, infected_states: Sequence[Pattern], core: Sequence[Pattern]
) -> list[list[list[int]]]:
    """reach[x][y][z] = bridge_reach mask for every state pair and vertical config."""
    k = graph.vertex_count
    links = [_partition_links(y) for y in core]
    table = []
    for x in infected_states:
        block_id = _block_ids(x)
        table.append([[_reach_mask(k, block_id, l, z) for z in range(1 << k)] for l in links])
    return table
