"""Finite simple connected base graphs with a distinguished origin vertex.

Vertices carry dense integer labels 0..k-1 so that downstream code can use
bitmasks and array indexing.  Graphs are immutable after construction and
validated eagerly; every invalid input raises GraphError with a stable
error code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable

from .errors import CodedError


def _is_int(value) -> bool:
    """True for an int that is not a bool (bool is a subclass of int)."""
    return isinstance(value, int) and not isinstance(value, bool)


class GraphError(CodedError):
    """Invalid graph input."""


def closure(starts: Iterable, successors: Callable[[list], Iterable]) -> set:
    """Every node reachable from the starts, the starts included, by repeated successors.

    The search runs one breadth-first level at a time: successors is called
    once per level with the list of nodes first reached there, and returns
    their successors.
    """
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        level = []
        for node in successors(frontier):
            if node not in seen:
                seen.add(node)
                level.append(node)
        frontier = level
    return seen


def neighbours_of(adjacency) -> Callable[[list], Iterable]:
    """closure's successors for adjacency lists: adjacency[node] lists the
    successors of node, in a list indexed by node or a dict keyed by it."""
    return lambda frontier: chain.from_iterable(map(adjacency.__getitem__, frontier))


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    origin: int = 0

    def __post_init__(self):
        if not _is_int(self.vertex_count) or self.vertex_count < 1:
            raise GraphError("vertices-invalid", "vertex count must be a positive integer")
        seen = set()
        canon = []
        for edge in self.edges:
            if len(edge) != 2:
                raise GraphError("edge-invalid", f"edge {edge!r} is not a vertex pair")
            u, v = edge
            if not (_is_int(u) and _is_int(v)):
                raise GraphError("edge-invalid", f"edge {edge!r} has non-integer endpoints")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GraphError("edge-invalid", f"edge {edge!r} leaves the vertex range")
            if u == v:
                raise GraphError("self-loop", f"vertex {u} has a self-loop")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError("duplicate-edge", f"edge {key} occurs twice")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        if not (_is_int(self.origin) and 0 <= self.origin < self.vertex_count):
            raise GraphError("origin-out-of-range", f"origin {self.origin} is not a vertex")
        if not self._connected():
            raise GraphError("disconnected", "graph is not connected")

    def _connected(self) -> bool:
        if len(self.edges) < self.vertex_count - 1:  # too few for a spanning tree
            return False
        neighbours: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            neighbours[u].append(v)
            neighbours[v].append(u)
        return len(closure([0], neighbours_of(neighbours))) == self.vertex_count

    # -- queries -------------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.vertex_count)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    @property
    def max_degree(self) -> int:
        return max(self.degree(v) for v in self.vertices)

    @property
    def bond_count(self) -> int:
        """Bonds per layer of the layered product: horizontal edges plus verticals."""
        return self.edge_count + self.vertex_count

    def describe(self) -> str:
        return f"vertices={self.vertex_count} edges={list(self.edges)} origin={self.origin}"


def automorphisms(graph: Graph, fix_origin: bool) -> tuple[tuple[int, ...], ...]:
    """Every vertex permutation mapping the edge set onto itself, in
    lexicographic order (the identity first); with fix_origin, only those
    that also fix the origin.

    perm[v] is the image of vertex v.  The search assigns images to the
    vertices in order and prunes a partial assignment as soon as a degree or
    an adjacency among the assigned vertices is not preserved; a complete
    assignment is kept only after its image of E is checked to be E.
    """
    k = graph.vertex_count
    edges = set(graph.edges)
    adjacent = [[False] * k for _ in range(k)]
    for u, v in edges:
        adjacent[u][v] = adjacent[v][u] = True
    degrees = [graph.degree(v) for v in graph.vertices]
    found = []
    image: list[int] = []
    used = [False] * k

    def extend(v: int) -> None:
        if v == k:
            if {(min(image[a], image[b]), max(image[a], image[b])) for a, b in edges} == edges:
                found.append(tuple(image))
            return
        for w in range(k):
            if used[w] or degrees[w] != degrees[v]:
                continue
            if fix_origin and (v == graph.origin) != (w == graph.origin):
                continue
            if any(adjacent[u][v] != adjacent[image[u]][w] for u in range(v)):
                continue
            used[w] = True
            image.append(w)
            extend(v + 1)
            image.pop()
            used[w] = False

    extend(0)
    return tuple(found)


def cycle(k: int, origin: int = 0) -> Graph:
    """Cycle on k vertices; k = 2 degenerates to a single edge (no multi-edge)."""
    if k < 2:
        raise GraphError("family-size", "cycle needs at least 2 vertices")
    if k == 2:
        return Graph(2, ((0, 1),), origin)
    edges = tuple((i, (i + 1) % k) for i in range(k))
    return Graph(k, edges, origin)


def path(k: int, origin: int = 0) -> Graph:
    """Path on k vertices (a single vertex for k = 1)."""
    if k < 1:
        raise GraphError("family-size", "path needs at least 1 vertex")
    edges = tuple((i, i + 1) for i in range(k - 1))
    return Graph(k, edges, origin)


def make_builtin(descriptor: str, origin: int = 0) -> Graph:
    """Build a named graph from a 'cycle:k' or 'path:k' descriptor."""
    name, sep, arg = descriptor.partition(":")
    if not sep or not arg.isdecimal():
        raise GraphError("descriptor-invalid", f"cannot parse graph descriptor {descriptor!r}")
    k = int(arg)
    if name == "cycle":
        return cycle(k, origin)
    if name == "path":
        return path(k, origin)
    raise GraphError("descriptor-invalid", f"unknown graph family {name!r}")


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product; vertex (a, b) maps to label a*|V2| + b (row-major)."""
    n2 = g2.vertex_count
    label = lambda a, b: a * n2 + b
    edges = []
    for a in g1.vertices:
        for u, v in g2.edges:
            edges.append((label(a, u), label(a, v)))
    for b in g2.vertices:
        for u, v in g1.edges:
            edges.append((label(u, b), label(v, b)))
    return Graph(g1.vertex_count * n2, tuple(edges), label(g1.origin, g2.origin))


def load_graph(document) -> Graph:
    """Validate a graph-file JSON object {"vertices", "edges", "origin"}."""
    if isinstance(document, str):
        return make_builtin(document)
    if not isinstance(document, dict):
        raise GraphError("document-invalid", "graph document must be an object or descriptor")
    unknown = set(document) - {"vertices", "edges", "origin"}
    if unknown:
        raise GraphError("document-invalid", f"unsupported graph fields {sorted(unknown)}")
    try:
        vertices = document["vertices"]
        edges = [tuple(e) for e in document["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphError("document-invalid", f"malformed graph document: {exc}") from exc
    return Graph(vertices, tuple(edges), document.get("origin", 0))

