import pytest

from layerchain.graphs import cycle
from layerchain.patterns import (
    _check_guard,
    DAGGER,
    Pattern,
    PatternSpaceError,
    STAR,
    all_connected_pattern,
    all_singletons_pattern,
    attach_infection,
    delete_infection,
    enumerate_patterns,
    is_infected,
    lump,
    state_from_string,
)
from test_kernels import complete_graph


def partitions_oracle(items):
    """Independent recursive set-partition generator (expand-last-element)."""
    if not items:
        yield []
        return
    rest, last = items[:-1], items[-1]
    for smaller in partitions_oracle(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [last]] + smaller[i + 1 :]
        yield smaller + [[last]]


def test_counts_match_bell_numbers():
    assert len(enumerate_patterns(cycle(2))) == 5
    assert len(enumerate_patterns(cycle(3))) == 15


def test_count_against_independent_oracle():
    ground = [STAR, 0, 1, 2, 3]
    oracle = {tuple(sorted(tuple(sorted(b)) for b in part)) for part in partitions_oracle(ground)}
    mine = {x.blocks for x in enumerate_patterns(cycle(4))}
    assert len(mine) == 52
    assert mine == oracle


def test_enumeration_sorted_unique_and_valid():
    for k in (1, 2, 3, 4):
        patterns = enumerate_patterns(k)
        assert len(set(patterns)) == len(patterns)
        assert patterns == sorted(patterns)
        for x in patterns:
            assert x.blocks[0][0] == STAR
            assert x.vertex_count == k


def test_enumeration_guard():
    with pytest.raises(PatternSpaceError):
        enumerate_patterns(13)


def test_bond_guard():
    # K6 has 21 bonds and builds; K7 has 28 and cycle:11 22
    assert _check_guard(complete_graph(6)) == 6
    for graph in (complete_graph(7), cycle(11)):
        with pytest.raises(PatternSpaceError) as info:
            _check_guard(graph)
        assert info.value.code == "enumeration-guard"


def test_infected_split_counts():
    bell = {2: 2, 3: 5, 4: 15, 5: 52}
    for k in (2, 3, 4):
        patterns = enumerate_patterns(k)
        uninfected = [x for x in patterns if not is_infected(x)]
        # each uninfected pattern is a partition of the vertices plus a lone marker
        assert len(uninfected) == bell[k]
        assert len(patterns) - len(uninfected) == bell[k + 1] - bell[k]


def test_is_infected_fixtures():
    assert not is_infected(all_singletons_pattern(3))
    assert is_infected(all_connected_pattern(3))
    assert is_infected(Pattern([(STAR, 1), (0, 2)]))


def test_delete_infection_fixtures():
    assert delete_infection(all_connected_pattern(2)) == Pattern([(STAR,), (0, 1)])
    isolated = all_singletons_pattern(3)
    assert delete_infection(isolated) == isolated
    assert delete_infection(Pattern([(STAR, 1), (0, 2)])) == Pattern([(STAR,), (1,), (0, 2)])


def test_delete_infection_idempotent_and_onto():
    patterns = enumerate_patterns(3)
    uninfected = {x for x in patterns if not is_infected(x)}
    image = {delete_infection(x) for x in patterns}
    assert image == uninfected
    for x in patterns:
        once = delete_infection(x)
        assert delete_infection(once) == once


def test_lump_fixtures():
    assert lump(all_singletons_pattern(2)) is DAGGER
    star = all_connected_pattern(2)
    assert lump(star) is star
    for x in enumerate_patterns(2):
        if not is_infected(x):
            assert lump(x) is DAGGER


def test_attach_infection_inverts_delete():
    for x in enumerate_patterns(3):
        if is_infected(x):
            vertex = x.infected_vertices[0]
            assert attach_infection(delete_infection(x), vertex) == x


def test_canonical_equality_is_structural():
    a = Pattern([[0, STAR], [2, 1]])
    b = Pattern([(1, 2), (STAR, 0)])
    assert a == b and hash(a) == hash(b)
    assert a.blocks == ((STAR, 0), (1, 2))


def test_pattern_validation_errors():
    with pytest.raises(PatternSpaceError):
        Pattern([(0, 1)])  # no marker
    with pytest.raises(PatternSpaceError):
        Pattern([(STAR, 0), (0, 1)])  # overlap
    with pytest.raises(PatternSpaceError):
        Pattern([(STAR,), (0,), (2,)])  # label gap


def test_string_round_trip():
    for x in enumerate_patterns(3):
        assert Pattern.from_string(str(x)) == x
    assert str(Pattern([(STAR, 0), (1, 2)])) == "*,0|1,2"
    assert state_from_string("dagger") is DAGGER


def test_block_queries():
    x = Pattern([(STAR, 1), (0, 2)])
    assert x.block_of(2) == (0, 2)
    assert x.connected(0, 2)
    assert not x.connected(0, 1)
    assert x.infected_vertices == (1,)
