import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerchain.algebra import ONE, P, Polynomial
from layerchain.algebra import poly_sum
from layerchain import kernels
from layerchain.graphs import Graph, automorphisms, cycle, make_builtin, path
from layerchain.kernels import (
    Orbits,
    PolyMatrix,
    bridge_reach_table,
    build_core,
    build_full_kernel,
    build_lumped_kernel,
    build_reduced_kernel,
    core_partitions,
    lumped_state_list,
    step_pattern,
    successor_table,
)
from layerchain.patterns import (
    DAGGER,
    Pattern,
    PatternSpaceError,
    STAR,
    all_connected_pattern,
    all_singletons_pattern,
    delete_infection,
    enumerate_patterns,
    is_infected,
    relabel,
)

OMP = Polynomial((1, -1))  # 1 - p

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Reference: a plain search over the explicit two-layer graph.
# ---------------------------------------------------------------------------


def _components(nodes, edges) -> dict:
    """Component label of every node, by breadth-first search."""
    neighbours = {node: [] for node in nodes}
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    label = {}
    for node in nodes:
        if node in label:
            continue
        label[node] = node
        queue = [node]
        while queue:
            for other in neighbours[queue.pop()]:
                if other not in label:
                    label[other] = node
                    queue.append(other)
    return label


def _lower_layer(pattern: Pattern) -> list:
    """Nodes ("lo", v) and the marker "*", joined along each block of the pattern."""
    edges = []
    for block in pattern.blocks:
        nodes = ["*" if e == STAR else ("lo", e) for e in block]
        edges += zip(nodes, nodes[1:])
    return edges


def reference_step(graph: Graph, source: Pattern, bits: int) -> Pattern:
    """Successor pattern: the components of the upper layer's vertices in the
    two-layer graph, the marker joining the component that holds it."""
    k = graph.vertex_count
    nodes = ["*"] + [(side, v) for side in ("lo", "up") for v in range(k)]
    edges = _lower_layer(source)
    edges += [(("up", u), ("up", v)) for i, (u, v) in enumerate(graph.edges) if bits >> i & 1]
    edges += [(("lo", v), ("up", v)) for v in range(k) if bits >> (graph.edge_count + v) & 1]
    label = _components(nodes, edges)
    blocks = {"*": [STAR]}
    for v in range(k):
        root = label[("up", v)]
        blocks.setdefault("*" if root == label["*"] else root, []).append(v)
    return Pattern(blocks.values())


def reference_bridge(graph: Graph, infected: Pattern, upper: Pattern, vertical_bits: int) -> int:
    """Lower vertices in the marker's component when the lower layer carries
    the infected pattern, the upper layer the partition, joined by verticals."""
    k = graph.vertex_count
    nodes = ["*"] + [(side, v) for side in ("lo", "up") for v in range(k)]
    edges = _lower_layer(infected)
    for block in upper.blocks:
        members = [("up", e) for e in block if e != STAR]
        edges += zip(members, members[1:])
    edges += [(("lo", v), ("up", v)) for v in range(k) if vertical_bits >> v & 1]
    label = _components(nodes, edges)
    return sum(1 << v for v in range(k) if label[("lo", v)] == label["*"])


def search(start, successors) -> set:
    seen = {start}
    queue = [start]
    while queue:
        for node in successors(queue.pop()):
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return seen


def complete_graph(k: int) -> Graph:
    return Graph(k, tuple((u, v) for u in range(k) for v in range(u + 1, k)), 0)


@st.composite
def small_graphs(draw, max_vertices: int = 4) -> Graph:
    """A random connected graph: a random spanning tree plus random chords."""
    k = draw(st.integers(1, max_vertices))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, k)}
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    return Graph(k, tuple(edges), draw(st.integers(0, k - 1)))


@st.composite
def stepping_cases(draw):
    """A graph, a pattern on its vertices, and a layer config bitmask."""
    graph = draw(small_graphs())
    pattern = draw(st.sampled_from(enumerate_patterns(graph)))
    return graph, pattern, draw(st.integers(0, (1 << graph.bond_count) - 1))


# ---------------------------------------------------------------------------
# Bond configurations and layer stepping.
# ---------------------------------------------------------------------------


def test_step_all_open_keeps_everything_connected():
    g = cycle(3)
    star = all_connected_pattern(3)
    assert step_pattern(g, star, (1 << g.bond_count) - 1) == star


def test_step_all_closed_gives_isolated_pattern():
    g = cycle(3)
    isolated = all_singletons_pattern(3)
    for source in enumerate_patterns(g):
        assert step_pattern(g, source, 0) == isolated


def test_step_vertical_only_transfers_connectivity_through_lower_layer():
    # two-vertex graph, source fully infected, both verticals open and the
    # horizontal closed: both upper vertices infect through the lower block
    # and stay connected through it, so the successor is fully connected.
    g = cycle(2)
    star = all_connected_pattern(2)
    assert step_pattern(g, star, 0b110) == star


def test_step_single_vertical_from_full_pattern():
    g = cycle(2)
    star = all_connected_pattern(2)
    assert step_pattern(g, star, 0b010) == Pattern([(STAR, 0), (1,)])
    assert step_pattern(g, star, 0b100) == Pattern([(STAR, 1), (0,)])


def test_step_horizontal_only_connects_without_infection():
    g = cycle(2)
    star = all_connected_pattern(2)
    assert step_pattern(g, star, 0b001) == Pattern([(STAR,), (0, 1)])


def test_successor_table_matches_step_pattern():
    rng = random.Random(5)
    for g in (cycle(2), cycle(3), path(3)):
        patterns = enumerate_patterns(g)
        sample = rng.sample(patterns, min(6, len(patterns)))
        table = successor_table(g, sample)
        for row, source in zip(table, sample):
            for _ in range(40):
                z = rng.randrange(1 << g.bond_count)
                assert row[z] == step_pattern(g, source, z) == reference_step(g, source, z)


def test_successor_table_enforces_vertex_guard():
    # its int64 keys hold 13 digits in base 13 at most
    with pytest.raises(PatternSpaceError) as info:
        successor_table(path(13), [all_singletons_pattern(13)])
    assert info.value.code == "enumeration-guard"


def test_successor_table_checks_its_cell_count(monkeypatch):
    """K6 has 21 bonds, inside both guards, so 1024 sources make 2^31 cells,
    one past the table's cap of 2^31 - 1: refused before any array is
    built."""

    def refuse(*args):
        raise AssertionError("forests built")

    monkeypatch.setattr(kernels, "_horizontal_forests", refuse)
    with pytest.raises(PatternSpaceError) as info:
        successor_table(complete_graph(6), [all_singletons_pattern(6)] * 1024)
    assert info.value.code == "enumeration-guard"
    assert [kernels._bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


@given(stepping_cases())
def test_step_pattern_matches_two_layer_search(case):
    graph, source, bits = case
    assert step_pattern(graph, source, bits) == reference_step(graph, source, bits)


@pytest.mark.parametrize("graph", [path(14), complete_graph(12)], ids=["path14", "K12"])
def test_step_pattern_needs_no_guard(graph):
    # path:14 is past the 12-vertex guard; K12 has 78 bonds, past the bond
    # guard and past 63 bits
    rng = random.Random(graph.bond_count)
    k = graph.vertex_count
    for _ in range(40):
        labels = [rng.randrange(1 + rng.randrange(k + 1)) for _ in range(k + 1)]
        blocks = {labels[0]: [STAR]}
        for v in range(k):
            blocks.setdefault(labels[v + 1], []).append(v)
        source = Pattern(blocks.values())
        density = rng.random()
        bits = sum(1 << i for i in range(graph.bond_count) if rng.random() < density)
        assert step_pattern(graph, source, bits) == reference_step(graph, source, bits)


def check_successor_table(graph: Graph, sources) -> None:
    """Every entry of one successor table over the sources is the two-layer
    search's successor."""
    table = successor_table(graph, sources)
    assert table.index.shape == (len(sources), 1 << graph.bond_count)
    for source, row in zip(sources, table.index.tolist()):
        for z, j in enumerate(row):
            assert table.patterns[j] == reference_step(graph, source, z)


def check_bridge_table(graph: Graph, infected, uppers) -> None:
    """Every entry of one bridge table is the two-layer search's reach mask."""
    reach = bridge_reach_table(graph, infected, uppers)
    assert reach.shape == (len(infected), len(uppers), 1 << graph.vertex_count)
    for i, x in enumerate(infected):
        for j, y in enumerate(uppers):
            for z, mask in enumerate(reach[i, j].tolist()):
                assert mask == reference_bridge(graph, x, y, z)


@given(small_graphs(), st.data())
def test_successor_table_rows_match_two_layer_search(graph, data):
    patterns = enumerate_patterns(graph)
    sources = data.draw(st.lists(st.sampled_from(patterns), min_size=1, max_size=3))
    check_successor_table(graph, sources)


@given(small_graphs(), st.data())
def test_bridge_reach_matches_two_layer_search(graph, data):
    patterns = enumerate_patterns(graph)
    infected = [x for x in patterns if x.infected]
    uninfected = [x for x in patterns if not x.infected]
    sources = data.draw(st.lists(st.sampled_from(infected), min_size=1, max_size=3))
    uppers = data.draw(st.lists(st.sampled_from(uninfected), min_size=1, max_size=3))
    check_bridge_table(graph, sources, uppers)


def test_tables_span_several_chunks(monkeypatch):
    """Batches of a few two-layer graphs give the same tables, a chunk
    boundary falling inside rows and between sources."""
    monkeypatch.setattr(kernels, "_CHUNK", 3)
    graph = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 2)), 1)
    patterns = enumerate_patterns(graph)
    check_successor_table(graph, patterns[::5])
    infected = [x for x in patterns if x.infected][::7]
    check_bridge_table(graph, infected, [x for x in patterns if not x.infected][::3])


@pytest.mark.parametrize("graph", [Graph(1, (), 0), make_builtin("path:1")])
def test_tables_of_a_one_vertex_graph(graph, monkeypatch):
    """No horizontal edges: one horizontal mask, and every join is a lone
    vertical bond, in one batch and in batches of one."""
    patterns = enumerate_patterns(graph)
    for chunk in (kernels._CHUNK, 1):
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
        check_successor_table(graph, patterns)
        check_bridge_table(graph, [x for x in patterns if x.infected], patterns[:1])
    isolated, infected = all_singletons_pattern(1), all_connected_pattern(1)
    table = successor_table(graph, [isolated, infected])
    assert [table[0], table[1]] == [[isolated, isolated], [isolated, infected]]


@settings(max_examples=30)  # each example runs up to 15 * 1024 reference steps
@given(small_graphs())
def test_core_partitions_match_two_layer_search(graph):
    configs = range(1 << graph.bond_count)
    start = all_singletons_pattern(graph.vertex_count)
    reached = search(start, lambda x: {reference_step(graph, x, z) for z in configs})
    assert core_partitions(graph) == sorted(reached)


def test_core_partitions_match_kernel_reachability():
    """The uninfected patterns reached from the all-singletons state along
    nonzero entries of the full kernel, the construction core_partitions
    used before it searched successor patterns directly."""
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    for g in (cycle(2), cycle(3), cycle(4), path(3), path(4), star):
        kernel = build_full_kernel(g)
        rows = kernel.entries
        start = kernel.index(all_singletons_pattern(g.vertex_count))
        reached = search(start, lambda i: [j for j, e in enumerate(rows[i]) if not e.is_zero])
        assert core_partitions(g) == sorted(kernel.states[i] for i in reached)


# ---------------------------------------------------------------------------
# Kernel fixtures from the two-vertex chain.
# ---------------------------------------------------------------------------


def test_full_kernel_two_vertex_entries(c2):
    kernel = build_full_kernel(c2)
    isolated = all_singletons_pattern(2)
    assert kernel.entry(isolated, isolated) == OMP


def test_reduced_kernel_two_vertex_matrix(c2):
    kernel = build_reduced_kernel(c2)
    isolated = all_singletons_pattern(2)
    connected = Pattern([(STAR,), (0, 1)])
    assert kernel.size == 2
    assert kernel.entry(isolated, isolated) == OMP
    assert kernel.entry(isolated, connected) == P
    assert kernel.entry(connected, isolated) == OMP * Polynomial((1, 0, -1))
    assert kernel.entry(connected, connected) == P * Polynomial((1, 1, -1))


def test_lumped_kernel_two_vertex_matrix(c2):
    kernel = build_lumped_kernel(c2)
    star = all_connected_pattern(2)
    first = Pattern([(STAR, 0), (1,)])
    second = Pattern([(STAR, 1), (0,)])
    assert kernel.size == 4
    assert kernel.states[0] is DAGGER
    assert kernel.entry(DAGGER, DAGGER) == ONE
    for state in (first, second, star):
        assert kernel.entry(DAGGER, state).is_zero
    assert kernel.entry(first, DAGGER) == OMP
    assert kernel.entry(first, first) == P * OMP
    assert kernel.entry(first, second).is_zero
    assert kernel.entry(first, star) == P * P
    assert kernel.entry(second, DAGGER) == OMP
    assert kernel.entry(second, second) == P * OMP
    assert kernel.entry(second, first).is_zero
    assert kernel.entry(second, star) == P * P
    assert kernel.entry(star, DAGGER) == OMP * OMP
    assert kernel.entry(star, first) == P * OMP * OMP
    assert kernel.entry(star, second) == P * OMP * OMP
    assert kernel.entry(star, star) == Polynomial((0, 0, 3, -2))


# ---------------------------------------------------------------------------
# Structural invariants.
# ---------------------------------------------------------------------------


@settings(max_examples=20)  # a complete graph K4 builds its three kernels in about 1 s
@given(small_graphs())
def test_row_sums_are_one(g):
    for kernel in (build_full_kernel(g), build_reduced_kernel(g), build_lumped_kernel(g)):
        assert all(total == ONE for total in kernel.row_sums())


def test_uninfected_rows_never_reach_infected():
    for g in (cycle(2), cycle(3)):
        kernel = build_full_kernel(g)
        for source in kernel.states:
            if is_infected(source):
                continue
            for target in kernel.states:
                if is_infected(target):
                    assert kernel.entry(source, target).is_zero


def test_self_loops_and_extinction_positive_at_half():
    for g in (cycle(2), cycle(3)):
        kernel = build_full_kernel(g)
        isolated = all_singletons_pattern(g.vertex_count)
        for state in kernel.states:
            assert kernel.entry(state, state)(HALF) > 0
            assert kernel.entry(state, isolated)(HALF) > 0


def test_positivity_structure_is_p_independent():
    kernel = build_lumped_kernel(cycle(3))
    for row in kernel.entries:
        for entry in row:
            first = entry(Fraction(1, 3)) > 0
            second = entry(Fraction(2, 3)) > 0
            assert first == second == (not entry.is_zero)


def test_entries_are_probabilities():
    for g in (cycle(2), cycle(3)):
        kernel = build_lumped_kernel(g)
        assert kernel.max_degree() <= g.bond_count
        for at in (Fraction(1, 7), HALF, Fraction(9, 10)):
            for row in kernel.evaluate(at):
                for value in row:
                    assert 0 <= value <= 1


def test_lumping_consistency_identity():
    """Projecting the target of a full-kernel row onto uninfected patterns
    agrees with the uninfected row of the projected source, exactly."""
    for g in (cycle(2), cycle(3)):
        kernel = build_full_kernel(g)
        uninfected = [x for x in kernel.states if not is_infected(x)]
        for source in kernel.states:
            projected_source = delete_infection(source)
            for target in uninfected:
                total = Polynomial()
                for state in kernel.states:
                    if delete_infection(state) == target:
                        total = total + kernel.entry(source, state)
                assert total == kernel.entry(projected_source, target)


def test_core_partitions_context():
    assert len(core_partitions(cycle(2))) == 2
    assert len(core_partitions(cycle(3))) == 5
    # opposite-corner pairing in a 4-cycle needs crossing paths: unreachable
    crossing = Pattern([(STAR,), (0, 2), (1, 3)])
    core4 = core_partitions(cycle(4))
    assert len(core4) == 14
    assert crossing not in core4


def test_lumped_states_of_four_cycle():
    kernel = build_lumped_kernel(cycle(4))
    assert kernel.size == 36


# ---------------------------------------------------------------------------
# Orbit kernels.
# ---------------------------------------------------------------------------


def _lumped_orbits(graph: Graph) -> Orbits:
    return Orbits(lumped_state_list(core_partitions(graph)), automorphisms(graph, True))


def _assert_lumps(per_state: PolyMatrix, orbits: Orbits, quotient: PolyMatrix) -> None:
    """B S = S Q: every state's row, summed over each orbit of targets, is
    the row of its orbit's representative in the orbit kernel."""
    assert quotient.states == orbits.representatives
    for i, row in enumerate(per_state.entries):
        summed = [poly_sum(row[j] for j in members) for members in orbits.members]
        assert summed == list(quotient.entries[orbits.orbit_of[i]])


@given(small_graphs())
def test_orbits_partition_the_states(graph):
    orbits = _lumped_orbits(graph)
    assert sorted(i for members in orbits.members for i in members) == list(
        range(len(orbits.states))
    )
    assert orbits.members[0] == (0,) and orbits.states[0] is DAGGER
    for members, carriers in zip(orbits.members[1:], orbits.carriers[1:]):
        rep = orbits.states[members[0]]
        assert members == tuple(sorted(members))
        for i, perm in zip(members, carriers):
            assert orbits.orbit_of[i] == orbits.orbit_of[members[0]]
            assert relabel(rep, perm) == orbits.states[i]
            assert not orbits.states[i] < rep


@settings(max_examples=20)  # a complete graph K4 builds its kernels in about 1 s
@given(small_graphs())
def test_orbit_kernels_lump_the_per_state_kernels(graph):
    core = build_core(graph, automorphisms(graph, False))
    assert core.orbits.states == tuple(core_partitions(graph))
    _assert_lumps(build_reduced_kernel(graph), core.orbits, build_reduced_kernel(graph, core))
    orbits = _lumped_orbits(graph)
    _assert_lumps(build_lumped_kernel(graph), orbits, build_lumped_kernel(graph, orbits))


def test_orbit_counts_of_the_four_cycle():
    g = cycle(4)
    core = build_core(g, automorphisms(g, False))
    assert len(core.orbits.members) == 6
    assert build_reduced_kernel(g, core).size == 6
    assert build_lumped_kernel(g, _lumped_orbits(g)).size == 24
    # the origin at the end of a path has no nontrivial symmetry
    assert build_lumped_kernel(path(4), _lumped_orbits(path(4))).size == 36


# ---------------------------------------------------------------------------
# Matrix algebra and serialization.
# ---------------------------------------------------------------------------


def test_matrix_multiply_matches_evaluation():
    kernel = build_lumped_kernel(cycle(2))
    square = kernel @ kernel
    at = Fraction(2, 5)
    base = kernel.evaluate(at)
    expected = [
        [sum(base[i][k] * base[k][j] for k in range(kernel.size)) for j in range(kernel.size)]
        for i in range(kernel.size)
    ]
    assert square.evaluate(at) == expected


def test_matrix_json_round_trip():
    kernel = build_reduced_kernel(cycle(3))
    data = json.loads(json.dumps(kernel.to_dict()))
    assert PolyMatrix.from_dict(data) == kernel


def test_weight_matrix_rows_are_config_weights():
    for n, row in enumerate(kernels._weight_matrix(4).tolist()):
        assert Polynomial(row) == P**n * OMP ** (4 - n)


def test_bridge_reach_basic():
    g = cycle(2)
    infected = Pattern([(STAR, 0), (1,)])
    upper = Pattern([(STAR,), (0, 1)])
    [[reach]] = bridge_reach_table(g, [infected], [upper]).tolist()
    # no verticals: only the infected block itself
    assert reach[0] == 0b01
    # verticals at both: the upper block joins 0 and 1
    assert reach[0b11] == 0b11
    # vertical only at 1: upper layer disconnected from the infection
    assert reach[0b10] == 0b01


def test_projection_commutes_with_stepping():
    """Deleting the infection before or after one layer step is the same map;
    this is the deterministic core of the lumping identity."""
    rng = random.Random(23)
    for g in (cycle(2), cycle(3), path(3)):
        patterns = enumerate_patterns(g)
        for _ in range(60):
            source = rng.choice(patterns)
            z = rng.randrange(1 << g.bond_count)
            stepped = step_pattern(g, source, z)
            projected = step_pattern(g, delete_infection(source), z)
            assert delete_infection(stepped) == projected


def test_full_and_lumped_chains_give_equal_distributions():
    """Dual route: evolving the exact initial distribution with the full
    kernel and with the lumped kernel gives identical infected-state weights."""
    from layerchain.analysis import initial_distribution, stationary_distribution
    from layerchain.algebra import poly_dot, poly_sum

    for g in (cycle(2), cycle(3)):
        full = build_full_kernel(g)
        lumped = build_lumped_kernel(g)
        stationary = stationary_distribution(build_reduced_kernel(g))
        initial = initial_distribution(stationary, g)
        full_weights = [
            initial.entry(state) if state in lumped.states[1:] else Polynomial()
            for state in full.states
        ]
        lumped_weights = list(initial.entries)
        for _ in range(3):
            full_cols = list(zip(*full.entries))
            full_weights = [poly_dot(full_weights, col) for col in full_cols]
            lumped_cols = list(zip(*lumped.entries))
            lumped_weights = [poly_dot(lumped_weights, col) for col in lumped_cols]
            for state, weight in zip(lumped.states, lumped_weights):
                if state is DAGGER:
                    uninfected_total = poly_sum(
                        w for s, w in zip(full.states, full_weights) if not is_infected(s)
                    )
                    assert weight == uninfected_total
                else:
                    assert weight == full_weights[full.index(state)]
