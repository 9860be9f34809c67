"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time
from fractions import Fraction

import pytest

from layerchain.algebra import ONE, P, Polynomial, poly_sum
from layerchain.analysis import (
    ChainAnalysisError,
    estimate_decay_rate,
    extremal_constants,
    stationary_distribution,
)
from layerchain.graphs import cycle, path
from layerchain.kernels import (
    build_full_kernel,
    build_lumped_kernel,
    build_reduced_kernel,
    successor_table,
)
from layerchain.monotonicity import (
    PROVEN,
    degree_bound_report,
    verify_conjecture,
    verify_expected_count_monotonicity,
)
from layerchain.montecarlo import connection_estimates, initial_pattern_fit
from layerchain.patterns import (
    DAGGER,
    Pattern,
    STAR,
    all_connected_pattern,
    all_singletons_pattern,
    delete_infection,
    enumerate_patterns,
    is_infected,
)

OMP = Polynomial((1, -1))
HALF = Fraction(1, 2)


def report(number, description, ok):
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def verified():
    """Conjecture certificates for the three small cycles, with timings."""
    results = {}
    for k in (2, 3, 4):
        start = time.perf_counter()
        certificate = verify_conjecture(cycle(k), label=f"cycle:{k}")
        results[k] = (certificate, time.perf_counter() - start)
    return results


def test_criterion_01_kernel_fixtures(c2):
    start = time.perf_counter()
    reduced = build_reduced_kernel(c2)
    lumped = build_lumped_kernel(c2)

    isolated = all_singletons_pattern(2)
    connected = Pattern([(STAR,), (0, 1)])
    expected_reduced = {
        (isolated, isolated): OMP,
        (isolated, connected): P,
        (connected, isolated): OMP * Polynomial((1, 0, -1)),
        (connected, connected): P * Polynomial((1, 1, -1)),
    }
    ok = reduced.size == 2 and all(
        reduced.entry(y, x) == value for (y, x), value in expected_reduced.items()
    )

    star = all_connected_pattern(2)
    first = Pattern([(STAR, 0), (1,)])
    second = Pattern([(STAR, 1), (0,)])
    zero = Polynomial()
    expected_lumped = {
        (DAGGER, DAGGER): ONE,
        (DAGGER, first): zero,
        (DAGGER, second): zero,
        (DAGGER, star): zero,
        (first, DAGGER): OMP,
        (first, first): P * OMP,
        (first, second): zero,
        (first, star): P * P,
        (second, DAGGER): OMP,
        (second, first): zero,
        (second, second): P * OMP,
        (second, star): P * P,
        (star, DAGGER): OMP * OMP,
        (star, first): P * OMP * OMP,
        (star, second): P * OMP * OMP,
        (star, star): Polynomial((0, 0, 3, -2)),
    }
    ok = ok and lumped.size == 4 and all(
        lumped.entry(y, x) == value for (y, x), value in expected_lumped.items()
    )
    elapsed = time.perf_counter() - start
    report(1, f"two-vertex kernels equal their closed forms ({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_02_stationary_fixture(c2):
    start = time.perf_counter()
    stationary = stationary_distribution(build_reduced_kernel(c2))
    from layerchain.analysis import initial_distribution

    initial = initial_distribution(stationary, c2)
    isolated = all_singletons_pattern(2)
    connected = Pattern([(STAR,), (0, 1)])
    ok = (
        stationary.entry(isolated) == OMP * Polynomial((1, 0, -1))
        and stationary.entry(connected) == P
    )
    star = all_connected_pattern(2)
    ok = ok and initial.entry(DAGGER).is_zero
    ok = ok and initial.entry(Pattern([(STAR, 0), (1,)])) == OMP * Polynomial((1, 0, -1))
    ok = ok and initial.entry(Pattern([(STAR, 1), (0,)])).is_zero
    ok = ok and initial.entry(star) == P
    elapsed = time.perf_counter() - start
    report(2, f"stationary and initial vectors match ({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_03_onset_table(verified):
    expected = {2: 2, 3: 2, 4: 4}
    ok = True
    summary = []
    for k, (certificate, elapsed) in verified.items():
        onset = certificate.onset_certificate
        onset.validate()
        ok = ok and onset.onset == expected[k]
        limit = 600.0 if k == 4 else 10.0
        ok = ok and elapsed < limit
        summary.append(f"N(C{k})={onset.onset} ({elapsed:.1f}s)")
    report(3, "onset table " + ", ".join(summary), ok)


def test_criterion_04_conjecture_certificates(verified):
    ok = True
    for k, (certificate, _) in verified.items():
        certificate.validate()
        ok = ok and certificate.verdict == PROVEN
    report(4, "monotonicity proven for the three small cycles", ok)


def test_criterion_05_five_cycle_state_counts():
    start = time.perf_counter()
    c5 = cycle(5)
    reduced = build_reduced_kernel(c5)
    lumped = build_lumped_kernel(c5)
    ok = reduced.size == 42 and lumped.size == 127
    ok = ok and reduced.max_degree() <= 10 and lumped.max_degree() <= 10
    elapsed = time.perf_counter() - start
    report(
        5,
        f"five-cycle: 42 core states, 127 lumped states, degree <= 10 ({elapsed:.1f}s)",
        ok and elapsed < 300.0,
    )


def test_criterion_06_structural_invariants():
    ok = True
    for k in (2, 3, 4):
        start = time.perf_counter()
        graph = cycle(k)
        full = build_full_kernel(graph)
        reduced = build_reduced_kernel(graph)
        lumped = build_lumped_kernel(graph)
        for kernel in (full, reduced, lumped):
            ok = ok and all(total == ONE for total in kernel.row_sums())
        isolated = all_singletons_pattern(k)
        for source in full.states:
            ok = ok and full.entry(source, source)(HALF) > 0
            ok = ok and full.entry(source, isolated)(HALF) > 0
            if not is_infected(source):
                for target in full.states:
                    if is_infected(target):
                        ok = ok and full.entry(source, target).is_zero
        uninfected = [x for x in full.states if not is_infected(x)]
        for source in full.states:
            projected = delete_infection(source)
            for target in uninfected:
                total = poly_sum(
                    full.entry(source, state)
                    for state in full.states
                    if delete_infection(state) == target
                )
                ok = ok and total == full.entry(projected, target)
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 60.0
    report(6, "row sums, absorption, self-loops, lumping consistency", ok)


def check_minimal_layer_lemmas(graph, kind, n_max=3):
    """Exhaustively verify the minimal-layer structure over all walks of
    length <= n_max between infected patterns: a layer achieving the minimal
    bond count has all horizontal bonds closed (open kind) or all vertical
    bonds open (closed kind), and two consecutive minimal layers carry
    identical configurations."""
    b = graph.bond_count
    horizontal_mask = (1 << graph.edge_count) - 1
    vertical_mask = ((1 << b) - 1) ^ horizontal_mask
    infected = [x for x in enumerate_patterns(graph) if x.infected]
    index = {x: i for i, x in enumerate(infected)}
    rows = successor_table(graph, infected)
    succ = [
        [index[t] if t.infected else None for t in row] for row in rows
    ]
    costs = [
        z.bit_count() if kind == "open" else b - z.bit_count() for z in range(1 << b)
    ]
    pred_one = [set() for _ in infected]
    for u, row in enumerate(succ):
        for v in row:
            if v is not None:
                pred_one[v].add(u)

    pairs = 0
    for yi, y in enumerate(infected):
        forward = [{yi}]
        for _ in range(n_max):
            nxt = set()
            for u in forward[-1]:
                nxt.update(v for v in succ[u] if v is not None)
            forward.append(nxt)
        for xi, x in enumerate(infected):
            try:
                minimum = extremal_constants(graph, y, x, kind).min_bonds
            except ChainAnalysisError:
                continue
            backward = [{xi}]
            for _ in range(n_max):
                prev = set()
                for v in backward[-1]:
                    prev.update(pred_one[v])
                backward.append(prev)
            minimal_configs = [z for z in range(1 << b) if costs[z] == minimum]
            for n in range(1, n_max + 1):
                for i in range(1, n + 1):
                    for u in forward[i - 1]:
                        for z in minimal_configs:
                            v = succ[u][z]
                            if v is not None and v in backward[n - i]:
                                if kind == "open":
                                    assert z & horizontal_mask == 0, (str(y), str(x), n, i, z)
                                else:
                                    assert z & vertical_mask == vertical_mask, (
                                        str(y), str(x), n, i, z,
                                    )
                for i in range(1, n):
                    for u in forward[i - 1]:
                        for z1 in minimal_configs:
                            v1 = succ[u][z1]
                            if v1 is None:
                                continue
                            for z2 in minimal_configs:
                                v2 = succ[v1][z2]
                                if v2 is not None and v2 in backward[n - i - 1]:
                                    assert z1 == z2, (str(y), str(x), n, i, z1, z2)
            pairs += 1
    return pairs


def test_criterion_07_minimal_layer_suite():
    start = time.perf_counter()
    pairs = 0
    for graph in (cycle(2), cycle(3)):
        for kind in ("open", "closed"):
            pairs += check_minimal_layer_lemmas(graph, kind)
    fixture = Pattern([(STAR, 1), (0, 2)])
    ok = extremal_constants(path(3), fixture, fixture, "open").min_bonds == 3
    elapsed = time.perf_counter() - start
    report(
        7,
        f"minimal-layer structure over {pairs} pattern pairs, three-path fixture ({elapsed:.1f}s)",
        ok and elapsed < 120.0,
    )


def test_criterion_08_degree_bound_arithmetic(c2):
    start = time.perf_counter()
    rows = degree_bound_report(50)
    ok = all(rows[d]["g_le_1"] for d in range(5))
    ok = ok and rows[5]["h_le_1"]
    majorants = [row["h"] for row in rows[5:]]
    ok = ok and all(a > b for a, b in zip(majorants, majorants[1:]))
    arithmetic_elapsed = time.perf_counter() - start
    certificates = verify_expected_count_monotonicity(c2, 4, delta=2)
    ok = ok and all(c.nonnegative for c in certificates)
    ok = ok and all(
        c.interval.hi == Fraction(5, 17) and c.interval.closed_hi for c in certificates
    )
    report(
        8,
        f"degree-bound table and expected-count drop on (0, 5/17] ({arithmetic_elapsed:.2f}s)",
        ok and arithmetic_elapsed < 1.0,
    )


def test_criterion_09_oracle_agreement():
    from layerchain.monotonicity import Engine

    start = time.perf_counter()
    ok = True
    worst = 0.0
    for k in (2, 3):
        graph = cycle(k)
        engine = Engine(graph)
        targets = [(v, n) for v in graph.vertices for n in range(4)]
        exact = {(v, n): engine.connection(v, n) for v, n in targets}
        for p in (Fraction(3, 10), HALF, Fraction(7, 10)):
            scale = Fraction(engine.stationary.normalizer(p)) ** 2
            stats = connection_estimates(graph, p, targets, 100_000, seed=1000 + k)
            for s in stats:
                v, n = s.meta["vertex"], s.meta["layer"]
                value = float(Fraction(exact[(v, n)](p)) / scale)
                if s.std_error == 0.0:
                    ok = ok and s.estimate == value
                else:
                    deviation = abs(s.estimate - value) / s.std_error
                    worst = max(worst, deviation)
                    ok = ok and deviation < 4.0
            fit = initial_pattern_fit(graph, p, 100_000, seed=2000 + k)
            ok = ok and fit["pvalue"] > 1e-4
    elapsed = time.perf_counter() - start
    report(
        9,
        f"Monte Carlo within 4 sigma (worst {worst:.2f}) and chi-square fits pass ({elapsed:.1f}s)",
        ok and elapsed < 120.0,
    )


def test_criterion_10_decay_property():
    start = time.perf_counter()
    ok = True
    for k in (2, 3):
        graph = cycle(k)
        lumped = build_lumped_kernel(graph)
        for p in (Fraction(1, 10), HALF, Fraction(9, 10)):
            rate = estimate_decay_rate(lumped, p)
            ok = ok and 0 < rate < 1
        # exact ratio of successive powers at p = 1/2 approaches the estimate
        rate = estimate_decay_rate(lumped, HALF)
        infected = [i for i, s in enumerate(lumped.states) if s is not DAGGER]
        block = [
            [Fraction(lumped.entries[i][j](HALF)) for j in infected] for i in infected
        ]
        star_index = infected.index(lumped.index(all_connected_pattern(k)))
        size = len(block)
        power = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]

        def multiply(a, b):
            return [
                [sum(a[i][l] * b[l][j] for l in range(size)) for j in range(size)]
                for i in range(size)
            ]

        previous_entry = None
        for n in range(31):
            if n >= 20 and previous_entry:
                ratio = float(power[star_index][star_index] / previous_entry)
                ok = ok and abs(ratio - rate) < 1e-3
            previous_entry = power[star_index][star_index]
            power = multiply(power, block)
        ok = ok and rate < 1
    elapsed = time.perf_counter() - start
    report(10, f"decay rate below one with matching power ratios ({elapsed:.1f}s)", ok and elapsed < 60.0)
