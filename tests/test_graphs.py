from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given

from layerchain import graphs
from layerchain.graphs import (
    Graph,
    GraphError,
    automorphisms,
    cartesian_product,
    cycle,
    load_graph,
    make_builtin,
    path,
)
from test_kernels import small_graphs


def canonical_adjacency(graph: Graph) -> tuple:
    """Canonical adjacency-matrix form under vertex relabeling (small graphs only).

    Brute-forces all vertex permutations, so it is limited to at most 8
    vertices; used to compare graphs up to isomorphism (origin ignored).
    """
    k = graph.vertex_count
    if k > 8:
        raise ValueError("canonical form via permutations is limited to 8 vertices")
    adj = [[0] * k for _ in range(k)]
    for u, v in graph.edges:
        adj[u][v] = adj[v][u] = 1
    best = None
    for perm in permutations(range(k)):
        rows = tuple(tuple(adj[perm[i]][perm[j]] for j in range(k)) for i in range(k))
        if best is None or rows < best:
            best = rows
    return best


def test_cycle_three_is_triangle():
    g = cycle(3)
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_cycle_two_is_single_edge():
    g = cycle(2)
    assert g.edges == ((0, 1),)


def test_path_four_edges():
    assert path(4).edges == ((0, 1), (1, 2), (2, 3))


def test_family_minimum_sizes():
    with pytest.raises(GraphError):
        cycle(1)
    with pytest.raises(GraphError):
        path(0)


def test_make_builtin_descriptors():
    assert make_builtin("cycle:5").vertex_count == 5
    assert make_builtin("path:3", origin=2).origin == 2
    with pytest.raises(GraphError):
        make_builtin("torus:3")
    with pytest.raises(GraphError):
        make_builtin("cycle")
    # a digit character that int() does not parse
    with pytest.raises(GraphError):
        make_builtin("cycle:²")


def test_product_square():
    square = cartesian_product(path(2), path(2))
    assert canonical_adjacency(square) == canonical_adjacency(cycle(4))


def test_product_with_single_vertex_is_identity():
    g = cartesian_product(cycle(3), path(1))
    assert canonical_adjacency(g) == canonical_adjacency(cycle(3))


def test_product_grid_edge_count():
    # |V1| |E2| + |V2| |E1| = 2*2 + 3*1
    grid = cartesian_product(path(2), path(3))
    assert grid.vertex_count == 6
    assert grid.edge_count == 7


def test_product_commutative_up_to_isomorphism():
    pairs = [(path(2), cycle(3)), (path(2), path(4)), (cycle(2), cycle(4))]
    for g1, g2 in pairs:
        a = cartesian_product(g1, g2)
        b = cartesian_product(g2, g1)
        assert canonical_adjacency(a) == canonical_adjacency(b)


def test_product_origin_is_pair_of_origins():
    g = cartesian_product(path(3, origin=2), path(2, origin=1))
    assert g.origin == 2 * 2 + 1


def test_load_triangle():
    g = load_graph({"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]], "origin": 0})
    assert g.edges == cycle(3).edges


def test_load_error_codes():
    cases = [
        ({"vertices": 2, "edges": [], "origin": 0}, "disconnected"),
        ({"vertices": 2, "edges": [[0, 0]], "origin": 0}, "self-loop"),
        ({"vertices": 2, "edges": [[0, 1], [1, 0]], "origin": 0}, "duplicate-edge"),
        ({"vertices": 2, "edges": [[0, 1]], "origin": 5}, "origin-out-of-range"),
        ({"vertices": 2, "edges": [[0, 3]], "origin": 0}, "edge-invalid"),
        ({"vertices": 2, "edges": [[0, 1]], "weights": [1]}, "document-invalid"),
        ({"vertices": 2, "edges": [[0, 1]], "origin": "0"}, "origin-out-of-range"),
    ]
    for document, code in cases:
        with pytest.raises(GraphError) as err:
            load_graph(document)
        assert err.value.code == code, document


def test_too_few_edges_are_disconnected_before_any_search(monkeypatch):
    assert path(1).vertex_count == 1

    def refuse(starts, successors):
        raise AssertionError("closure searched")

    monkeypatch.setattr(graphs, "closure", refuse)
    with pytest.raises(GraphError) as err:
        Graph(10**6, ())
    assert err.value.code == "disconnected"
    with pytest.raises(GraphError) as err:
        Graph(10**6, (), origin=-1)
    assert err.value.code == "origin-out-of-range"


def test_load_rejects_booleans():
    """bool is a subclass of int, so true/false must be rejected explicitly."""
    cases = [
        ({"vertices": True, "edges": []}, "vertices-invalid"),
        ({"vertices": False, "edges": []}, "vertices-invalid"),
        ({"vertices": 2, "edges": [[0, True]]}, "edge-invalid"),
        ({"vertices": 2, "edges": [[False, 1]]}, "edge-invalid"),
        ({"vertices": 2, "edges": [[0, 1]], "origin": True}, "origin-out-of-range"),
        ({"vertices": 2, "edges": [[0, 1]], "origin": False}, "origin-out-of-range"),
    ]
    for document, code in cases:
        with pytest.raises(GraphError) as err:
            load_graph(document)
        assert err.value.code == code, document


def test_load_accepts_descriptor_shorthand():
    assert load_graph("cycle:4").vertex_count == 4


def test_every_vertex_reached_from_origin():
    for g in (cycle(2), cycle(5), path(4), cartesian_product(path(2), path(3))):
        assert all(g.degree(v) >= 1 for v in g.vertices)
        reached = {g.origin}
        for _ in g.vertices:
            reached |= {v for e in g.edges if reached & set(e) for v in e}
        assert reached == set(g.vertices)


def test_max_degree_of_families():
    for k in (3, 4, 7):
        assert cycle(k).max_degree == 2
        assert path(k).max_degree == 2
    assert cycle(2).max_degree == 1


def test_bond_count():
    assert cycle(2).bond_count == 3
    assert cycle(5).bond_count == 10


def test_graph_is_immutable():
    g = cycle(3)
    with pytest.raises(AttributeError):
        g.origin = 1


# ---------------------------------------------------------------------------
# Automorphisms.
# ---------------------------------------------------------------------------


@given(small_graphs(max_vertices=6))
def test_automorphisms_match_networkx(graph):
    reference = nx.Graph(graph.edges)
    reference.add_nodes_from(graph.vertices)
    matcher = nx.algorithms.isomorphism.GraphMatcher(reference, reference)
    expected = sorted(tuple(m[v] for v in graph.vertices) for m in matcher.isomorphisms_iter())
    assert list(automorphisms(graph, fix_origin=False)) == expected
    fixed = [perm for perm in expected if perm[graph.origin] == graph.origin]
    assert list(automorphisms(graph, fix_origin=True)) == fixed


def test_automorphism_counts_of_builtins():
    for k in range(3, 8):
        assert len(automorphisms(cycle(k), fix_origin=False)) == 2 * k
        assert len(automorphisms(cycle(k), fix_origin=True)) == 2
    assert automorphisms(cycle(2), fix_origin=True) == ((0, 1),)
    assert automorphisms(path(4), fix_origin=False) == ((0, 1, 2, 3), (3, 2, 1, 0))
    assert automorphisms(path(4), fix_origin=True) == ((0, 1, 2, 3),)
    assert automorphisms(path(1), fix_origin=True) == ((0,),)
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert len(automorphisms(star, fix_origin=True)) == 6
    assert len(automorphisms(Graph(4, star.edges, 1), fix_origin=True)) == 2
