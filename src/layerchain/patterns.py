"""Infection patterns: set partitions of the vertex set plus the marker '*'.

A pattern records which vertices of one layer are mutually connected and
which of them carry the infection.  The marker is encoded by the sentinel
STAR = -1, which sorts before every vertex label, so the canonical form
(blocks sorted by minimum, elements ascending) always lists the infected
block first.  Patterns are immutable and usable as dict keys and matrix
indices.
"""

from __future__ import annotations

from typing import Iterable, Union

from .errors import CodedError

STAR = -1

_GUARD_VERTICES = 12
# A table steps all 2^b layer configurations of each source; K6 has 21 bonds.
_GUARD_BONDS = 21


class PatternSpaceError(CodedError):
    """Pattern input invalid or enumeration guard exceeded."""


class Pattern:
    """Canonical partition of V plus {*}, blocks sorted by minimal element."""

    __slots__ = ("blocks", "_hash")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        canon = tuple(sorted(tuple(sorted(set(block))) for block in blocks))
        elements = [e for block in canon for e in block]
        if len(elements) != len(set(elements)):
            raise PatternSpaceError("pattern-invalid", "pattern blocks are not disjoint")
        if not elements or min(elements) != STAR:
            raise PatternSpaceError(
                "pattern-invalid", "pattern must contain the marker '*' exactly once"
            )
        vertices = sorted(e for e in elements if e != STAR)
        if vertices != list(range(len(vertices))):
            raise PatternSpaceError(
                "pattern-invalid", "pattern must cover vertex labels 0..k-1 exactly"
            )
        if any(not block for block in canon):
            raise PatternSpaceError("pattern-invalid", "pattern blocks must be nonempty")
        self.blocks = canon
        self._hash = hash(canon)

    # -- queries -------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return sum(len(b) for b in self.blocks) - 1

    @property
    def infected(self) -> bool:
        return len(self.blocks[0]) > 1

    @property
    def infected_vertices(self) -> tuple[int, ...]:
        return self.blocks[0][1:]

    def block_of(self, element: int) -> tuple[int, ...]:
        for block in self.blocks:
            if element in block:
                return block
        raise KeyError(element)

    def connected(self, a: int, b: int) -> bool:
        return b in self.block_of(a)

    # -- ordering / identity ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Pattern):
            return self.blocks == other.blocks
        return NotImplemented

    def __lt__(self, other: "Pattern") -> bool:
        return self.blocks < other.blocks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Pattern({self})"

    def __str__(self) -> str:
        return "|".join(
            ",".join("*" if e == STAR else str(e) for e in block) for block in self.blocks
        )

    @staticmethod
    def from_string(text: str) -> "Pattern":
        blocks = []
        for chunk in text.split("|"):
            try:
                items = [STAR if part == "*" else int(part) for part in chunk.split(",") if part]
            except ValueError:
                message = f"cannot parse pattern {text!r}"
                raise PatternSpaceError("pattern-invalid", message) from None
            blocks.append(items)
        return Pattern(blocks)


class _Dagger:
    """Absorbing class standing for every uninfected pattern."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DAGGER"

    def __str__(self) -> str:
        return "dagger"


DAGGER = _Dagger()

PatternClass = Union[Pattern, _Dagger]


def state_to_string(state: PatternClass) -> str:
    return str(state)


def state_from_string(text: str) -> PatternClass:
    return DAGGER if text == "dagger" else Pattern.from_string(text)


def relabel(state: PatternClass, perm) -> PatternClass:
    """The state with vertex v renamed perm[v]; the marker and DAGGER stay."""
    if state is DAGGER:
        return state
    return Pattern([[e if e == STAR else perm[e] for e in block] for block in state.blocks])


def all_singletons_pattern(vertex_count: int) -> Pattern:
    """The pattern with no infection and no connections."""
    return Pattern([(STAR,)] + [(v,) for v in range(vertex_count)])


def all_connected_pattern(vertex_count: int) -> Pattern:
    """The pattern where every vertex is connected and infected."""
    return Pattern([(STAR,) + tuple(range(vertex_count))])


def _check_guard(graph_or_count) -> int:
    """The vertex count, or PatternSpaceError above the 12-vertex guard or,
    for a graph, above the 21-bond guard."""
    if isinstance(graph_or_count, int):
        k, b = graph_or_count, 0
    else:
        k, b = graph_or_count.vertex_count, graph_or_count.bond_count
    if k > _GUARD_VERTICES:
        raise PatternSpaceError(
            "enumeration-guard", f"pattern enumeration guard: {k} > {_GUARD_VERTICES} vertices"
        )
    if b > _GUARD_BONDS:
        raise PatternSpaceError(
            "enumeration-guard", f"layer configuration guard: {b} > {_GUARD_BONDS} bonds"
        )
    return k


def enumerate_patterns(graph_or_count) -> list[Pattern]:
    """All partitions of V plus {*}, canonical, in canonical sorted order.

    Enumeration walks restricted growth strings over the (k+1)-element
    ground set (*, 0, ..., k-1), which is duplicate-free by construction;
    the result has Bell(k+1) entries.
    """
    k = _check_guard(graph_or_count)
    ground = [STAR] + list(range(k))
    out: list[Pattern] = []
    assignment = [0] * len(ground)

    def descend(position: int, used: int):
        if position == len(ground):
            blocks: list[list[int]] = [[] for _ in range(used)]
            for element, label in zip(ground, assignment):
                blocks[label].append(element)
            out.append(Pattern(blocks))
            return
        for label in range(used + 1):
            assignment[position] = label
            descend(position + 1, used + (label == used))

    descend(0, 0)
    out.sort()
    return out


def is_infected(x: Pattern) -> bool:
    """True iff the marker block contains at least one vertex."""
    return x.infected


def delete_infection(x: Pattern) -> Pattern:
    """Strip '*' out of its block; maps onto uninfected patterns, idempotent."""
    if not x.infected:
        return x
    blocks = [(STAR,)]
    for block in x.blocks:
        remaining = tuple(e for e in block if e != STAR)
        if remaining:
            blocks.append(remaining)
    return Pattern(blocks)


def lump(x: Pattern) -> PatternClass:
    """Identify every uninfected pattern with the absorbing class DAGGER."""
    return x if x.infected else DAGGER


def attach_infection(uninfected: Pattern, vertex: int) -> Pattern:
    """Add '*' to the block containing the given vertex."""
    if uninfected.infected:
        raise PatternSpaceError(
            "pattern-infected", "attach_infection expects an uninfected pattern"
        )
    blocks = []
    for block in uninfected.blocks:
        if block == (STAR,):
            continue
        blocks.append((STAR,) + block if vertex in block else block)
    if not any(STAR in b for b in blocks):
        raise PatternSpaceError("vertex-out-of-range", f"vertex {vertex} not present in pattern")
    return Pattern(blocks)
