import functools
import json
import math
from collections import deque
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerchain.algebra import (
    Interval,
    ONE,
    P,
    POSITIVE,
    Polynomial,
    certify_sign,
    poly_gcd,
    poly_sum,
)
from layerchain.analysis import (
    ChainAnalysisError,
    ExtremalReport,
    PolyVector,
    _moves,
    estimate_decay_rate,
    extremal_constants,
    extremal_step_bound,
    initial_distribution,
    reachable,
    stationary_distribution,
)
from layerchain.graphs import closure, cycle, neighbours_of, path
from layerchain.kernels import (
    PolyMatrix,
    build_lumped_kernel,
    build_reduced_kernel,
    step_pattern,
    successor_table,
)
from layerchain.patterns import (
    DAGGER,
    Pattern,
    STAR,
    all_connected_pattern,
    all_singletons_pattern,
    enumerate_patterns,
)
from layerchain.schemas import MATRIX_SCHEMA, VECTOR_SCHEMA
from test_kernels import small_graphs

OMP = Polynomial((1, -1))
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Reachability.
# ---------------------------------------------------------------------------


def test_reduced_chain_is_irreducible(pipeline_c2, pipeline_c3):
    for pipeline in (pipeline_c2, pipeline_c3):
        reduced = pipeline[0]
        for state in reduced.states:
            assert reachable(reduced, state) == set(reduced.states)


def test_absorbing_class_reaches_only_itself(pipeline_c2):
    lumped = pipeline_c2[2]
    assert reachable(lumped, DAGGER) == {DAGGER}


def test_reachable_unknown_state(pipeline_c2):
    with pytest.raises(KeyError):
        reachable(pipeline_c2[0], all_connected_pattern(2))


# ---------------------------------------------------------------------------
# Stationary distribution.
# ---------------------------------------------------------------------------


def test_stationary_two_vertex_fixture(pipeline_c2):
    _, stationary, _, _ = pipeline_c2
    isolated = all_singletons_pattern(2)
    connected = Pattern([(STAR,), (0, 1)])
    assert stationary.entry(isolated) == OMP * Polynomial((1, 0, -1))
    assert stationary.entry(connected) == P
    assert stationary.normalizer == Polynomial((1, 0, -1, 1))


def test_stationary_sums_to_normalizer(pipeline_c2, pipeline_c3):
    for pipeline in (pipeline_c2, pipeline_c3):
        stationary = pipeline[1]
        assert poly_sum(stationary.entries) == stationary.normalizer
        assert stationary.normalizer(HALF) > 0


def test_stationary_identity_exact(pipeline_c2, pipeline_c3):
    for pipeline in (pipeline_c2, pipeline_c3):
        reduced, stationary = pipeline[0], pipeline[1]
        columns = list(zip(*reduced.entries))
        for j, col in enumerate(columns):
            image = poly_sum(e * c for e, c in zip(stationary.entries, col))
            assert image == stationary.entries[j]


def test_stationary_entries_positive_on_unit_interval(pipeline_c3):
    stationary = pipeline_c3[1]
    for entry in stationary.entries:
        assert certify_sign(entry, Interval(0, 1)).verdict == POSITIVE


def test_stationary_entry_gcd_cleared(pipeline_c3):
    from layerchain.algebra import poly_gcd

    stationary = pipeline_c3[1]
    g = stationary.entries[0]
    for e in stationary.entries[1:]:
        g = poly_gcd(g, e)
    g = poly_gcd(g, stationary.normalizer)
    assert g.degree == 0


def test_stationary_rejects_non_stochastic():
    states = (all_singletons_pattern(1), all_connected_pattern(1))
    bad = PolyMatrix(states, ((ONE, P), (ONE, Polynomial())))
    with pytest.raises(ChainAnalysisError):
        stationary_distribution(bad)


def test_stationary_rejects_sign_changing_vector():
    # rows sum to 1, but the left null vector (2p - 1, p) over 3p - 1
    # changes sign on (0, 1)
    kernel = PolyMatrix(("a", "b"), ((OMP, P), (Polynomial((-1, 2)), Polynomial((2, -2)))))
    with pytest.raises(ChainAnalysisError) as error:
        stationary_distribution(kernel)
    assert error.value.code == "stationary-not-positive"


@settings(max_examples=30)  # each example is one exact stationary solve
@given(small_graphs())
def test_stationary_vector_properties(graph):
    reduced = build_reduced_kernel(graph)
    stationary = stationary_distribution(reduced)
    columns = list(zip(*reduced.entries))
    for j, col in enumerate(columns):
        image = poly_sum(e * c for e, c in zip(stationary.entries, col))
        assert image == stationary.entries[j]
    assert poly_sum(stationary.entries) == stationary.normalizer
    g = stationary.entries[0]
    for e in stationary.entries[1:]:
        g = poly_gcd(g, e)
    assert g == ONE
    assert math.gcd(*(c for e in stationary.entries for c in e.coeffs)) == 1
    for entry in stationary.entries:
        assert certify_sign(entry, Interval(0, 1)).verdict == POSITIVE


def test_stationary_rejects_reducible_chain():
    states = (all_singletons_pattern(1), all_connected_pattern(1))
    identity = PolyMatrix.identity(states)
    with pytest.raises(ChainAnalysisError):
        stationary_distribution(identity)


def test_vector_json_round_trip(pipeline_c3):
    stationary = pipeline_c3[1]
    assert PolyVector.from_dict(stationary.to_dict()) == stationary


@settings(max_examples=20)  # each example is one exact stationary solve
@given(small_graphs())
def test_kernel_and_vector_artifacts_round_trip_through_the_schema(graph):
    reduced = build_reduced_kernel(graph)
    for artifact, schema in (
        (reduced, MATRIX_SCHEMA),
        (build_lumped_kernel(graph), MATRIX_SCHEMA),
        (stationary_distribution(reduced), VECTOR_SCHEMA),
    ):
        data = json.loads(json.dumps(artifact.to_dict()))
        jsonschema.validate(data, schema)
        assert type(artifact).from_dict(data) == artifact


# ---------------------------------------------------------------------------
# Initial distribution.
# ---------------------------------------------------------------------------


def test_initial_two_vertex_fixture(pipeline_c2):
    _, _, _, initial = pipeline_c2
    star = all_connected_pattern(2)
    infected_origin = Pattern([(STAR, 0), (1,)])
    infected_other = Pattern([(STAR, 1), (0,)])
    assert initial.entry(DAGGER).is_zero
    assert initial.entry(infected_origin) == OMP * Polynomial((1, 0, -1))
    assert initial.entry(infected_other).is_zero
    assert initial.entry(star) == P


def test_initial_sums_to_normalizer(pipeline_c2, pipeline_c3):
    for pipeline in (pipeline_c2, pipeline_c3):
        initial = pipeline[3]
        assert poly_sum(initial.entries) == initial.normalizer


def test_initial_respects_origin(c3):
    reduced = build_reduced_kernel(c3)
    stationary = stationary_distribution(reduced)
    for origin in range(3):
        shifted = cycle(3, origin=origin)
        initial = initial_distribution(stationary, shifted)
        for state, entry in zip(initial.states, initial.entries):
            if state is DAGGER:
                assert entry.is_zero
            elif origin in state.infected_vertices:
                assert not entry.is_zero
            else:
                assert entry.is_zero


# ---------------------------------------------------------------------------
# Extremal constants.
# ---------------------------------------------------------------------------


def brute_force_min_bonds(graph, source, target, kind, max_steps=4):
    """Oracle: enumerate every config sequence up to max_steps, track the
    minimal layer cost over complete walks ending at the target.  Each
    (state, config) step is taken once and cached."""
    b = graph.bond_count
    best = None
    step = functools.cache(lambda state, z: step_pattern(graph, state, z))

    def explore(state, steps, current_min):
        nonlocal best
        if steps > 0 and state == target:
            if best is None or current_min < best:
                best = current_min
        if steps == max_steps:
            return
        for z in range(1 << b):
            nxt = step(state, z)
            if not nxt.infected:
                continue
            cost = bin(z).count("1") if kind == "open" else b - bin(z).count("1")
            explore(nxt, steps + 1, min(current_min, cost))

    explore(source, 0, b + 1)
    return best


def test_extremal_three_path_fixture():
    # holding the middle-infected end-pair-connected pattern costs three bonds
    g = path(3)
    state = Pattern([(STAR, 1), (0, 2)])
    report = extremal_constants(g, state, state, "open")
    assert report.min_bonds == 3
    assert report.min_steps >= 1
    assert brute_force_min_bonds(g, state, state, "open", max_steps=2) == 3


def test_extremal_open_bonds_at_least_one(c2, c3):
    for g in (c2, c3):
        infected = [x for x in enumerate_patterns(g) if x.infected]
        for source in infected:
            for target in infected:
                try:
                    report = extremal_constants(g, source, target, "open")
                except ChainAnalysisError:
                    continue
                assert report.min_bonds >= 1


def test_extremal_closed_zero_for_full_pattern(c2):
    star = all_connected_pattern(2)
    report = extremal_constants(c2, star, star, "closed")
    assert report.min_bonds == 0
    # oracle: the all-open layer maps the full pattern to itself
    assert brute_force_min_bonds(c2, star, star, "closed", max_steps=1) == 0


def test_extremal_against_brute_force(c2):
    infected = [x for x in enumerate_patterns(c2) if x.infected]
    for kind in ("open", "closed"):
        for source in infected:
            for target in infected:
                try:
                    report = extremal_constants(c2, source, target, kind)
                except ChainAnalysisError:
                    continue
                oracle = brute_force_min_bonds(c2, source, target, kind)
                assert report.min_bonds == oracle, (str(source), str(target), kind)


def test_extremal_requires_reachability(c2):
    with pytest.raises(ChainAnalysisError):
        extremal_constants(
            c2, all_singletons_pattern(2), all_connected_pattern(2), "open"
        )


def test_extremal_step_bound(c2):
    assert extremal_step_bound(c2, "open") >= 1
    assert extremal_step_bound(c2, "closed") >= 1


def test_extremal_kind_is_open_or_closed(c2):
    star = all_connected_pattern(2)
    with pytest.raises(ValueError):
        extremal_constants(c2, star, star, "half")
    with pytest.raises(ValueError):
        extremal_step_bound(c2, "half")


@pytest.mark.parametrize(
    "graph,open_steps,closed_steps",
    [(cycle(3), 3, 2), (path(3), 3, 2), (path(4), 4, 5), (cycle(4), 4, 3)],
    ids=["cycle:3", "path:3", "path:4", "cycle:4"],
)
def test_extremal_step_bound_values(graph, open_steps, closed_steps):
    assert extremal_step_bound(graph, "open") == open_steps
    assert extremal_step_bound(graph, "closed") == closed_steps


def reference_moves(graph, kind) -> dict:
    """moves[u][v]: the fewest open (kind "open") or closed bonds of any
    layer taking the infected pattern u to the infected pattern v, read off
    the successor table rows."""
    infected = [x for x in enumerate_patterns(graph) if x.infected]
    table = successor_table(graph, infected)
    b = graph.bond_count
    costs = [z.bit_count() if kind == "open" else b - z.bit_count() for z in range(1 << b)]
    moves = {}
    for i, u in enumerate(infected):
        cheapest = moves[u] = {}
        for cost, v in zip(costs, table[i]):
            if v.infected and cost < cheapest.get(v, b + 1):
                cheapest[v] = cost
    return moves


def reference_extremal(moves, source):
    """The walks from source: a function taking a target to the (m, l) of
    extremal_constants, by a search over (pattern, flag) pairs, or to the
    error code.  m is the cheapest move from a pattern reachable from source
    into one that reaches target, and l the length of the shortest walk
    source -> target whose flag is set by a move of cost m."""
    reached = closure([source], neighbours_of(moves))
    predecessors = {u: {} for u in reached}
    for u in reached:
        for v, cost in moves[u].items():
            predecessors[v][u] = cost

    def walk(target):
        if target not in reached:
            return "target-unreachable"
        co_reach = closure([target], neighbours_of(predecessors))
        minimum = min(
            (cost for v in co_reach for cost in predecessors[v].values()),
            default=None,
        )
        if minimum is None:
            return "no-transition"
        start, goal = (source, False), (target, True)
        distance = {start: 0}
        queue = deque([start])
        while queue and goal not in distance:
            node = queue.popleft()
            u, flag = node
            for v, cost in moves[u].items():
                nxt = (v, flag or cost == minimum)
                if nxt not in distance:
                    distance[nxt] = distance[node] + 1
                    queue.append(nxt)
        return (minimum, distance[goal]) if goal in distance else "no-walk"

    return walk


@settings(max_examples=20)
@given(small_graphs(), st.sampled_from(("open", "closed")), st.data())
def test_extremal_matches_reference_search(graph, kind, data):
    moves = reference_moves(graph, kind)
    infected = list(moves)
    drawn = st.tuples(st.sampled_from(infected), st.sampled_from(infected))
    for source, target in data.draw(st.lists(drawn, min_size=1, max_size=4)):
        expected = reference_extremal(moves, source)(target)
        try:
            got = extremal_constants(graph, source, target, kind)
        except ChainAnalysisError as error:
            assert error.code == expected
        else:
            assert got == ExtremalReport(str(source), str(target), kind, *expected)
    walks = (w for s in infected for w in map(reference_extremal(moves, s), infected))
    assert extremal_step_bound(graph, kind) == max(w[1] for w in walks if isinstance(w, tuple))
    # the layer with every vertical bond open and every horizontal bond
    # closed maps each pattern to itself
    self_move = graph.vertex_count if kind == "open" else graph.edge_count
    assert (np.diag(_moves(graph, kind)[1]) <= self_move).all()


# ---------------------------------------------------------------------------
# Decay rate.
# ---------------------------------------------------------------------------


def test_decay_two_vertex_characteristic_polynomial(pipeline_c2):
    lumped = pipeline_c2[2]
    estimate = estimate_decay_rate(lumped, HALF)
    # infected block at p = 1/2: [[1/4,0,1/4],[0,1/4,1/4],[1/8,1/8,1/2]];
    # characteristic polynomial factors as (1/4 - t)(t^2 - 3t/4 + 1/16),
    # so the spectral radius is (3 + sqrt 5)/8
    expected = (3 + math.sqrt(5)) / 8
    assert abs(estimate - expected) < 1e-9
    # independent numeric oracle
    block = np.array([[0.25, 0, 0.25], [0, 0.25, 0.25], [0.125, 0.125, 0.5]])
    assert abs(estimate - max(abs(np.linalg.eigvals(block)))) < 1e-9


def test_decay_below_one(pipeline_c2, pipeline_c3):
    for pipeline in (pipeline_c2, pipeline_c3):
        lumped = pipeline[2]
        for p in (Fraction(1, 10), HALF, Fraction(9, 10)):
            assert 0 < estimate_decay_rate(lumped, p) < 1


def test_decay_monotone_under_state_removal(pipeline_c2, pipeline_c3):
    for pipeline in (pipeline_c2, pipeline_c3):
        lumped = pipeline[2]
        full = estimate_decay_rate(lumped, HALF)
        infected = [i for i, s in enumerate(lumped.states) if s is not DAGGER]
        for drop in infected:
            keep = [i for i in range(lumped.size) if i != drop]
            states = tuple(lumped.states[i] for i in keep)
            entries = tuple(
                tuple(lumped.entries[i][j] for j in keep) for i in keep
            )
            sub = PolyMatrix(states, entries)
            assert estimate_decay_rate(sub, HALF) <= full + 1e-9


def test_decay_of_a_periodic_block():
    # x -> y with p, x -> dagger with 1-p, y -> x with 1: the infected block
    # [[0, p], [1, 0]] has eigenvalues +-sqrt(p) and period 2
    x, y = [s for s in enumerate_patterns(cycle(2)) if s.infected][:2]
    zero = Polynomial()
    kernel = PolyMatrix(
        (x, y, DAGGER),
        ((zero, P, OMP), (ONE, zero, zero), (zero, zero, ONE)),
    )
    assert abs(estimate_decay_rate(kernel, HALF) - math.sqrt(0.5)) < 1e-12
    assert abs(estimate_decay_rate(kernel, Fraction(9, 100)) - 0.3) < 1e-12


def test_decay_rejects_bad_p(pipeline_c2):
    lumped = pipeline_c2[2]
    for p in (0, 1, Fraction(3, 2)):
        with pytest.raises(ChainAnalysisError):
            estimate_decay_rate(lumped, p)


def test_stationary_identity_four_cycle(c4):
    reduced = build_reduced_kernel(c4)
    stationary = stationary_distribution(reduced)
    columns = list(zip(*reduced.entries))
    for j, col in enumerate(columns):
        image = poly_sum(e * c for e, c in zip(stationary.entries, col))
        assert image == stationary.entries[j]
    assert poly_sum(stationary.entries) == stationary.normalizer


def test_stationary_matches_sympy_nullspace(pipeline_c3):
    """Independent oracle: the stationary vector from fraction-free
    elimination equals the symbolic left-nullspace direction."""
    import sympy
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    reduced, stationary = pipeline_c3[0], pipeline_c3[1]
    p = sympy.Symbol("p")
    n = reduced.size
    system = DomainMatrix.from_Matrix(_sympy_matrix(reduced, p).T - sympy.eye(n))
    null = system.convert_to(QQ.frac_field(p)).nullspace()
    assert null.shape == (1, n)
    direction = null.to_Matrix().row(0)
    # both vectors span the same line: cross-ratios must cancel exactly
    mine = [
        sympy.Poly(list(reversed(list(e.coeffs))), p).as_expr() for e in stationary.entries
    ]
    for i in range(1, n):
        cross = sympy.cancel(mine[0] * direction[i] - mine[i] * direction[0])
        assert cross == 0


def _sympy_matrix(kernel: PolyMatrix, p):
    import sympy

    n = kernel.size
    return sympy.Matrix(
        n,
        n,
        lambda i, j: sympy.Poly(list(reversed(list(kernel.entries[i][j].coeffs))), p).as_expr(),
    )
