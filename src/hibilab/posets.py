"""Finite posets and distributive lattices around Gelfand-Tsetlin patterns.

Two kinds of posets live here: the triangular GT posets (full, column
bounded, or an explicit induced subposet) and the lattices of column
tableaux (the full lattice plus its bounded, Grassmannian, symplectic and
branching subfamilies).  Each poset has one order table, ``below()``: per
element, the bitmask of the elements strictly below it.  Covers, ranks and
multichains are read from it; a lattice builds it once, on first use, and
also indexes its elements by their entries.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .tableaux import ColumnTableau, chain_sort_key

DEFAULT_MAX_ENUM_NODES = 24
MAX_LATTICE_SIZE = 2048


def _enum_guard() -> int:
    """Node guard for up-set enumeration; the HIBILAB_MAX_NODES environment
    variable overrides it (unsafe: memory grows with the up-set count)."""
    raw = os.environ.get("HIBILAB_MAX_NODES")
    try:
        return int(raw) if raw else DEFAULT_MAX_ENUM_NODES
    except ValueError:
        raise ValueError(f"HIBILAB_MAX_NODES must be an integer, got {raw!r}") from None


class GtNode(NamedTuple):
    """Node ``z^(level)_index`` of a GT poset, ``1 <= index <= level``."""

    level: int
    index: int

    @property
    def label(self) -> str:
        return f"z^({self.level})_{self.index}"


def gt_geq(a: GtNode, b: GtNode) -> bool:
    """Whether ``a >= b`` under the betweenness order.

    The order is generated by ``z^(i+1)_j >= z^(i)_j >= z^(i+1)_(j+1)``;
    its closure is ``a.index <= b.index`` and
    ``a.level - a.index >= b.level - b.index``.
    """
    return a.index <= b.index and a.level - a.index >= b.level - b.index


@dataclass(frozen=True)
class GtPoset:
    """A GT poset: the full triangle, a column-bounded one, or an induced
    subposet on an explicit node set."""

    n: int
    nodes: frozenset[GtNode]
    m: Optional[int] = None

    def __init__(self, n: int, m: Optional[int] = None, nodes: Optional[Iterable[GtNode]] = None):
        n = int(n)
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if nodes is None:
            bound = n if m is None else min(int(m), n)
            if m is not None and m < 1:
                raise ValueError(f"m must be positive, got {m}")
            nodes = frozenset(
                GtNode(i, j) for i in range(1, n + 1) for j in range(1, min(i, bound) + 1)
            )
        else:
            nodes = frozenset(GtNode(*x) for x in nodes)
            for x in nodes:
                if not (1 <= x.index <= x.level <= n):
                    raise ValueError(f"node {x} outside the triangle of size {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "nodes", nodes)

    @property
    def elements(self) -> tuple[GtNode, ...]:
        """The nodes, smaller first: ``x > y`` makes ``level - 2 * index``
        strictly larger, so this order is a linear extension."""
        return tuple(sorted(self.nodes, key=lambda x: (x.level - 2 * x.index, x.index)))

    def below(self) -> tuple[int, ...]:
        """Per element of ``elements``, the bitmask of the elements strictly
        below it."""
        elems = self.elements
        return tuple(
            sum(1 << j for j, y in enumerate(elems) if y != x and gt_geq(x, y))
            for x in elems
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, x: GtNode) -> bool:
        return x in self.nodes

    def __iter__(self) -> Iterator[GtNode]:
        return iter(self.elements)


def _join(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def _meet(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) > len(b):
        a, b = b, a
    return tuple(map(min, a, b)) + b[len(a):]


def _code(entries: tuple[int, ...], n: int) -> int:
    """A column as an int: bit ``t * n + v - 1`` is set when row ``t``
    exists and its entry is at most ``v``.  Join is ``&`` on codes, meet is
    ``|`` and the order is a subset test."""
    return sum(((1 << n) - (1 << (x - 1))) << (t * n) for t, x in enumerate(entries))


def join(a: ColumnTableau, b: ColumnTableau) -> ColumnTableau:
    """Entrywise maximum over the shallower depth."""
    if a.n != b.n:
        raise ValueError("join requires the same ambient bound")
    return ColumnTableau(_join(a.entries, b.entries), a.n)


def meet(a: ColumnTableau, b: ColumnTableau) -> ColumnTableau:
    """Entrywise minimum, extended by the tail of the deeper column."""
    if a.n != b.n:
        raise ValueError("meet requires the same ambient bound")
    return ColumnTableau(_meet(a.entries, b.entries), a.n)


class Family(enum.Enum):
    FULL = "L"
    BOUNDED = "Lm"
    GRASS = "G"
    SYMPLECTIC = "P"
    BRANCHING = "B"


def _all_columns(n: int, depths: Iterable[int]) -> Iterator[ColumnTableau]:
    for k in depths:
        for entries in combinations(range(1, n + 1), k):
            yield ColumnTableau(entries, n)


@dataclass(frozen=True)
class TableauLattice:
    """A distributive lattice of column tableaux from one of the five
    families.  Join/meet closure is verified at construction, on one
    ``_code`` per column, where join and meet are ``&`` and ``|``; the size
    guard stops reading ``elements`` at its first member past
    ``MAX_LATTICE_SIZE``, so a family may pass a lazy iterable."""

    n: int
    family: Family
    m: Optional[int]
    k: Optional[int]
    elements: tuple[ColumnTableau, ...]

    def __init__(self, n: int, family: Family, m: Optional[int], k: Optional[int],
                 elements: Iterable[ColumnTableau]):
        members: set[ColumnTableau] = set()
        for e in elements:
            members.add(e)
            if len(members) > MAX_LATTICE_SIZE:
                raise ValueError(f"lattice has over {MAX_LATTICE_SIZE} elements (desk-scale guard)")
        # chain_sort_key lists smaller elements first: a linear extension
        elements = tuple(sorted(members, key=chain_sort_key))
        index = {e.entries: i for i, e in enumerate(elements)}
        width = max((e.n for e in elements), default=n)
        codes = [_code(e.entries, width) for e in elements]
        closed = set(codes)
        for i, a in enumerate(codes):
            rest = codes[i + 1:]
            if closed.issuperset(map(a.__and__, rest)) and closed.issuperset(map(a.__or__, rest)):
                continue
            j = next(j for j, b in enumerate(rest, i + 1)
                     if a & b not in closed or a | b not in closed)
            raise ValueError(
                f"family {family.value} not closed under join/meet at "
                f"{elements[i].label}, {elements[j].label}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_hash", hash((n, family, m, k, elements)))

    # -- constructors -------------------------------------------------

    @classmethod
    def full(cls, n: int) -> "TableauLattice":
        """All nonempty columns with entries in 1..n."""
        return cls(n, Family.FULL, None, None, _all_columns(n, range(1, n + 1)))

    @classmethod
    def bounded(cls, n: int, m: int) -> "TableauLattice":
        """Columns of depth at most m."""
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        return cls(n, Family.BOUNDED, m, None, _all_columns(n, range(1, m + 1)))

    @classmethod
    def grassmannian(cls, n: int, m: int) -> "TableauLattice":
        """Columns of depth exactly m."""
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        return cls(n, Family.GRASS, m, None, _all_columns(n, [m]))

    @classmethod
    def symplectic(cls, n: int) -> "TableauLattice":
        """Columns of depth at most m = n/2 dominating [1, 3, ..., 2m-1]."""
        if n % 2 != 0 or n < 2:
            raise ValueError(f"symplectic family needs even n >= 2, got {n}")
        m = n // 2
        cols = (
            c for c in _all_columns(n, range(1, m + 1))
            if all(x >= 2 * i + 1 for i, x in enumerate(c.entries))
        )
        return cls(n, Family.SYMPLECTIC, m, None, cols)

    @classmethod
    def branching(cls, n: int, m: int, k: int) -> "TableauLattice":
        """Columns of the three branching forms: an initial run [1..p], a
        column with all entries above k, or an initial run followed by
        entries above k."""
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
        cols = (
            ColumnTableau(tuple(range(1, r + 1)) + tail, n)
            for r in range(min(k, m) + 1)
            for s in range(0 if r else 1, min(n - k, m - r) + 1)
            for tail in combinations(range(k + 1, n + 1), s)
        )
        return cls(n, Family.BRANCHING, m, k, cols)

    # -- protocol ------------------------------------------------------

    @property
    def column_bound(self) -> int:
        """Largest column depth present; the matrix width for minors."""
        return self.m if self.m is not None else self.n

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[ColumnTableau]:
        return iter(self.elements)

    def __contains__(self, c: ColumnTableau) -> bool:
        return c.n == self.n and c.entries in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableauLattice):
            return NotImplemented
        return self is other or (
            (self.n, self.family, self.m, self.k, self.elements)
            == (other.n, other.family, other.m, other.k, other.elements)
        )

    def __hash__(self) -> int:
        return self._hash

    def index(self, c: ColumnTableau) -> int:
        """Position of the member ``c`` in ``elements`` and in ``below()``."""
        return self._index[c.entries]

    def below(self) -> tuple[int, ...]:
        """The order table: per element of ``elements``, the bitmask of the
        elements strictly below it.  ``d <= c`` iff ``d`` is at least as deep
        and entrywise at most ``c`` over ``c``'s depth, so the elements at
        most ``c`` are the intersection of one mask per entry of ``c``."""
        if getattr(self, "_below", None) is None:
            # at_most[t][v]: elements whose entry in row t exists and is <= v
            at_most = [[0] * (self.n + 1) for _ in range(self.n)]
            for j, e in enumerate(self.elements):
                for t, x in enumerate(e.entries):
                    at_most[t][x] |= 1 << j
            at_most = [list(accumulate(row, or_)) for row in at_most]
            table = []
            for i, e in enumerate(self.elements):
                mask = ~(1 << i)
                for t, x in enumerate(e.entries):
                    mask &= at_most[t][x]
                table.append(mask)
            object.__setattr__(self, "_below", tuple(table))
        return self._below

    def rank(self, c: ColumnTableau) -> int:
        """Height of ``c``: the longest chain strictly below it.  The lattice
        is graded, so the walk down through the last element listed below
        (a lower cover, as ``elements`` is a linear extension) is longest."""
        below = self.below()
        mask, height = below[self.index(c)], 0
        while mask:
            mask = below[mask.bit_length() - 1]
            height += 1
        return height

    def _levels(self, depths: Iterable[int]) -> list[list[int]]:
        """Positions of the elements of each of ``depths``, deepest first as
        a multichain lists them."""
        by_depth: dict[int, list[int]] = {}
        for i, e in enumerate(self.elements):
            by_depth.setdefault(e.depth, []).append(i)
        return [by_depth.get(d, []) for d in sorted(depths, reverse=True)]

    def multichains(self, depths: Iterable[int]) -> Iterator[tuple[ColumnTableau, ...]]:
        """All multichains whose sorted depth sequence equals ``depths``
        (weakly decreasing), listed smallest element first."""
        levels = self._levels(depths)
        if not all(levels):
            return
        below = self.below()

        def rec(i: int, prev: Optional[int]) -> Iterator[tuple[ColumnTableau, ...]]:
            if i == len(levels):
                yield ()
                return
            for c in levels[i]:
                if prev is None or prev == c or below[c] >> prev & 1:
                    for rest in rec(i + 1, c):
                        yield (self.elements[c],) + rest

        yield from rec(0, None)

    def count_multichains(self, depths: Iterable[int]) -> int:
        """Number of multichains with the given depth multiset."""
        below = self.below()
        # per candidate for the current factor: (elements at most it, number
        # of ways to finish the multichain from it); -1 stands past the end
        ahead = [(-1, 1)]
        for level in reversed(self._levels(depths)):
            ahead = [
                (below[c] | 1 << c, sum(w for upto, w in ahead if upto >> c & 1))
                for c in level
            ]
        return sum(w for _, w in ahead)


PosetLike = Union[GtPoset, TableauLattice]


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lower_covers(below: tuple[int, ...]) -> list[int]:
    """Per element, the bitmask of its lower covers.  The order table lists
    a linear extension, so the highest element left below an element is a
    lower cover; take it, drop everything at most it, and repeat."""
    covers = []
    for mask in below:
        found = 0
        while mask:
            j = mask.bit_length() - 1
            found |= 1 << j
            mask &= ~(below[j] | 1 << j)
        covers.append(found)
    return covers


def hasse(p: PosetLike) -> list[tuple[object, object]]:
    """Cover relations of a finite poset as (greater, smaller) pairs,
    sorted lexicographically by node labels."""
    elems = p.elements
    edges = [
        (elems[i], elems[j])
        for i, mask in enumerate(_lower_covers(p.below()))
        for j in _bits(mask)
    ]
    edges.sort(key=lambda e: (e[0].label, e[1].label))
    return edges


def join_irreducibles(l: TableauLattice) -> tuple[ColumnTableau, ...]:
    """Elements that are neither the least element nor a join of two
    strictly smaller elements; equivalently, elements with exactly one
    lower cover."""
    return tuple(
        c for c, covers in zip(l.elements, _lower_covers(l.below()))
        if covers and not covers & (covers - 1)
    )


def order_increasing_subsets(
    p: GtPoset, max_nodes: Optional[int] = None
) -> Iterator[frozenset[GtNode]]:
    """All up-closed subsets of ``p``, the empty set included.

    Recursion over a linear extension: nodes are visited from maximal to
    minimal, and a node may enter only if all its upper covers already did.
    Guarded at ``max_nodes`` nodes (default 24, or HIBILAB_MAX_NODES) on call.
    """
    if max_nodes is None:
        max_nodes = _enum_guard()
    elems = p.elements
    if len(elems) > max_nodes:
        raise ValueError(
            f"poset has {len(elems)} nodes, above the enumeration guard "
            f"of {max_nodes}"
        )
    order = elems[::-1]  # a linear extension, larger nodes first
    ups = [
        [j for j in range(i) if gt_geq(order[j], order[i])]
        for i in range(len(order))
    ]

    def rec(i: int, chosen: list[bool]) -> Iterator[frozenset[GtNode]]:
        if i == len(order):
            yield frozenset(order[j] for j, c in enumerate(chosen) if c)
            return
        chosen.append(False)
        yield from rec(i + 1, chosen)
        chosen.pop()
        if all(chosen[j] for j in ups[i]):
            chosen.append(True)
            yield from rec(i + 1, chosen)
            chosen.pop()

    return rec(0, [])


class ConstantPolicy(enum.Enum):
    """What to do with nodes on which every family indicator is 1."""

    KEEP_TOP = "keep-top"
    DROP = "drop"
    KEEP_ALL = "keep-all"


DEFAULT_POLICY = {
    Family.FULL: ConstantPolicy.KEEP_TOP,
    Family.BOUNDED: ConstantPolicy.KEEP_TOP,
    Family.GRASS: ConstantPolicy.DROP,
    Family.SYMPLECTIC: ConstantPolicy.KEEP_TOP,
    Family.BRANCHING: ConstantPolicy.KEEP_TOP,
}


def associated_gt_subposet(
    l: TableauLattice, policy: Optional[ConstantPolicy] = None
) -> GtPoset:
    """The GT subposet seen by a lattice family.

    Nodes of the full triangle are grouped by the vector of indicator
    values over all lattice elements; all-zero groups are discarded, each
    non-constant group is represented by its unique maximal node, and
    all-one groups are kept or dropped according to ``policy`` (the
    per-family default reproduces the standard pictures).
    """
    from .gtpatterns import column_to_indicator

    if policy is None:
        policy = DEFAULT_POLICY[l.family]
    n = l.n
    indicators = [column_to_indicator(c) for c in l.elements]
    classes: dict[tuple[int, ...], list[GtNode]] = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            node = GtNode(i, j)
            vec = tuple(f.value(i, j) for f in indicators)
            classes.setdefault(vec, []).append(node)
    kept: list[GtNode] = []
    for vec, nodes in classes.items():
        if all(v == 0 for v in vec):
            continue
        maxima = [
            x for x in nodes
            if not any(y != x and gt_geq(y, x) for y in nodes)
        ]
        if len(maxima) != 1:
            raise ValueError(
                f"value class {sorted(nodes)} has {len(maxima)} maximal nodes"
            )
        rep = maxima[0]
        if all(v == 1 for v in vec):
            if policy is ConstantPolicy.DROP:
                continue
            if policy is ConstantPolicy.KEEP_TOP and rep.level != n:
                continue
        kept.append(rep)
    return GtPoset(n, nodes=kept)


def to_dot(p: PosetLike) -> str:
    """DOT rendering: one node per element, edges from larger to smaller,
    nodes and edges in lexicographic label order."""
    lines = ["digraph {"]
    for x in sorted(p.elements, key=lambda e: e.label):
        lines.append(f'  "{x.label}";')
    for greater, smaller in hasse(p):
        lines.append(f'  "{greater.label}" -> "{smaller.label}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
