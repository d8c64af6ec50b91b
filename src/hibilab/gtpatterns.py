"""Gelfand-Tsetlin patterns as order-preserving maps on the triangular
poset, the additive monoid they form, indicator patterns of up-closed
subsets, and both bijections with semistandard tableaux.

A pattern of size ``n`` is a triangular array of nonnegative integers with
rows of lengths ``n, n-1, ..., 1`` listed top first, every pair of adjacent
rows interlacing.  Row ``k`` (the one of length ``k``) collects the values
at the level-``k`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Iterable, Iterator, Optional, Sequence

from .posets import GtNode
from .tableaux import SSYT, ColumnTableau, YoungDiagram, multichain_to_ssyt

MAX_PATTERN_N = 32


@dataclass(frozen=True)
class GtPattern:
    """An order-preserving map from the size-``n`` GT poset to Z>=0."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Sequence[int]], n: Optional[int] = None):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        if n is None:
            n = len(rows)
        n = int(n)
        if not 1 <= n <= MAX_PATTERN_N:
            raise ValueError(f"pattern size must be in 1..{MAX_PATTERN_N}, got {n}")
        if len(rows) != n or any(len(rows[i]) != n - i for i in range(n)):
            raise ValueError(
                f"expected rows of lengths {list(range(n, 0, -1))}, "
                f"got {[len(r) for r in rows]}"
            )
        if any(v < 0 for row in rows for v in row):
            raise ValueError("pattern values must be nonnegative")
        for i in range(n - 1):
            upper, lower = rows[i], rows[i + 1]
            for j in range(len(lower)):
                if not (upper[j] >= lower[j] >= upper[j + 1]):
                    raise ValueError(
                        f"rows {len(upper)} and {len(lower)} do not interlace "
                        f"at position {j + 1}: {upper} / {lower}"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def zero(cls, n: int) -> "GtPattern":
        return cls([(0,) * k for k in range(n, 0, -1)], n)

    def value(self, level: int, index: int) -> int:
        """Value at node ``z^(level)_index``."""
        if not 1 <= index <= level <= self.n:
            raise ValueError(f"no node z^({level})_{index} in a size-{self.n} pattern")
        return self.rows[self.n - level][index - 1]

    def row(self, level: int) -> tuple[int, ...]:
        """Values at level ``level``, a weakly decreasing tuple of that length."""
        if not 1 <= level <= self.n:
            raise ValueError(f"level must be in 1..{self.n}")
        return self.rows[self.n - level]

    @property
    def top_row(self) -> tuple[int, ...]:
        return self.rows[0]

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def support(self) -> frozenset[GtNode]:
        return frozenset(
            GtNode(level, j + 1)
            for level in range(1, self.n + 1)
            for j, v in enumerate(self.row(level))
            if v != 0
        )

    def __add__(self, other: "GtPattern") -> "GtPattern":
        """Pointwise sum; order preservation is automatic."""
        if not isinstance(other, GtPattern):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"cannot add patterns of sizes {self.n} and {other.n}")
        return GtPattern(
            tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)),
            self.n,
        )

    def __mul__(self, c: int) -> "GtPattern":
        if not isinstance(c, int):
            return NotImplemented
        if c < 0:
            raise ValueError("patterns only scale by nonnegative integers")
        return GtPattern(tuple(tuple(c * v for v in row) for row in self.rows), self.n)

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {"n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, data: dict) -> "GtPattern":
        return cls(data["rows"], data.get("n"))

    # value equality across the indicator subclass
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GtPattern):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"GtPattern({self.rows})"


class IndicatorPattern(GtPattern):
    """A 0/1 pattern with non-empty support.

    Support of any 0/1 order-preserving map is automatically up-closed;
    only the value range and non-emptiness need checking.
    """

    def __init__(self, rows: Iterable[Sequence[int]], n: Optional[int] = None):
        super().__init__(rows, n)
        if any(v not in (0, 1) for row in self.rows for v in row):
            raise ValueError("indicator pattern values must be 0 or 1")
        if self.is_zero:
            raise ValueError("indicator pattern must have non-empty support")


def indicator_join(a: IndicatorPattern, b: IndicatorPattern) -> IndicatorPattern:
    """Indicator of the intersection of supports (pointwise minimum)."""
    s = tuple(tuple(min(x, y) for x, y in zip(r, t)) for r, t in zip(a.rows, b.rows))
    return IndicatorPattern(s, a.n)


def indicator_meet(a: IndicatorPattern, b: IndicatorPattern) -> IndicatorPattern:
    """Indicator of the union of supports (pointwise maximum)."""
    s = tuple(tuple(max(x, y) for x, y in zip(r, t)) for r, t in zip(a.rows, b.rows))
    return IndicatorPattern(s, a.n)


def indicator_leq(a: IndicatorPattern, b: IndicatorPattern) -> bool:
    """Reverse-inclusion order: ``a <= b`` iff the support of ``b`` is
    contained in the support of ``a``."""
    if a.n != b.n:
        raise ValueError("indicator order requires equal sizes")
    return all(
        x >= y for r, t in zip(a.rows, b.rows) for x, y in zip(r, t)
    )


def column_to_indicator(i: ColumnTableau) -> IndicatorPattern:
    """The indicator pattern of a column: level ``a`` carries as many
    leading ones as the column has entries at most ``a``."""
    n = i.n
    rows = []
    for level in range(n, 0, -1):
        ones = sum(1 for e in i.entries if e <= level)
        rows.append((1,) * ones + (0,) * (level - ones))
    return IndicatorPattern(rows, n)


def indicator_to_column(f: IndicatorPattern) -> ColumnTableau:
    """Inverse of :func:`column_to_indicator`."""
    counts = [0]
    for level in range(1, f.n + 1):
        row = f.row(level)
        ones = sum(row)
        if any(row[j] < row[j + 1] for j in range(level - 1)):
            raise ValueError(f"row at level {level} is not left-justified: {row}")
        counts.append(ones)
    entries = tuple(a for a in range(1, f.n + 1) if counts[a] == counts[a - 1] + 1)
    if any(counts[a] - counts[a - 1] not in (0, 1) for a in range(1, f.n + 1)):
        raise ValueError("level counts must grow by at most one per level")
    return ColumnTableau(entries, f.n)


def ssyt_to_gt(t: SSYT, n: int) -> GtPattern:
    """Counting bijection: the value at ``z^(i)_j`` is the number of
    entries in row ``j`` of the tableau that are at most ``i``."""
    if t.max_entry > n:
        raise ValueError(f"tableau entries exceed {n}")
    if t.shape.depth > n:
        raise ValueError(f"tableau deeper than {n}")
    rows = []
    for level in range(n, 0, -1):
        rows.append(
            tuple(
                sum(1 for e in (t.rows[j] if j < len(t.rows) else ()) if e <= level)
                for j in range(level)
            )
        )
    return GtPattern(rows, n)


def decompose(f: GtPattern) -> list[tuple[int, IndicatorPattern]]:
    """Write a pattern as a positive combination of a chain of indicator
    patterns: thresholds are the nonzero values in the image, each level
    set above a threshold contributes its indicator with the gap to the
    previous threshold as coefficient."""
    values = sorted(set(v for row in f.rows for v in row))
    terms: list[tuple[int, IndicatorPattern]] = []
    prev = 0
    for v in values:
        if v == 0:
            continue
        rows = tuple(
            tuple(1 if x >= v else 0 for x in row) for row in f.rows
        )
        terms.append((v - prev, IndicatorPattern(rows, f.n)))
        prev = v
    return terms


def gt_to_ssyt(f: GtPattern) -> SSYT:
    """Inverse of :func:`ssyt_to_gt` via the indicator decomposition."""
    chain: list[ColumnTableau] = []
    for coeff, ind in decompose(f):
        chain.extend([indicator_to_column(ind)] * coeff)
    return multichain_to_ssyt(chain)


def weight(f: GtPattern) -> tuple[int, ...]:
    """Successive row-sum differences, bottom row first."""
    sums = [sum(f.row(level)) for level in range(1, f.n + 1)]
    return tuple(s - p for s, p in zip(sums, [0] + sums[:-1]))


def interlaces(mu: YoungDiagram, nu: YoungDiagram) -> bool:
    """Whether ``mu_1 >= nu_1 >= mu_2 >= ... >= nu_(k-1) >= mu_k`` holds
    for rows of lengths k and k-1."""
    a, b = tuple(mu.rows), tuple(nu.rows)
    if len(a) != len(b) + 1:
        raise ValueError(
            f"expected lengths k and k-1, got {len(a)} and {len(b)}"
        )
    return all(a[j] >= b[j] >= a[j + 1] for j in range(len(b)))


def weyl_dimension(shape: YoungDiagram, n: int) -> int:
    """Number of patterns of size ``n`` with top row ``shape``: Weyl's
    product over the padded shape, in exact integer arithmetic."""
    lam = shape.padded(n)
    pairs = list(combinations(range(n), 2))
    top = prod(lam[i] - lam[j] + j - i for i, j in pairs)
    value, rest = divmod(top, prod(j - i for i, j in pairs))
    if rest:
        raise ArithmeticError(f"non-integer Weyl product for {shape.rows}, n={n}")
    return value


def enumerate_patterns(
    top: YoungDiagram, n: int, m: Optional[int] = None
) -> Iterator[GtPattern]:
    """All patterns with the given top row, in lexicographic order of the
    concatenated rows (top row first).

    With ``m`` given the top row must fit in ``m`` columns of the triangle;
    deeper values are then zero automatically.
    """
    top = top if isinstance(top, YoungDiagram) else YoungDiagram(top)
    if top.depth > n:
        raise ValueError(f"top row {top.rows} deeper than n={n}")
    if m is not None and top.depth > m:
        raise ValueError(f"top row {top.rows} deeper than m={m}")
    first = top.padded(n)

    def rec(rows: list[tuple[int, ...]]) -> Iterator[GtPattern]:
        upper = rows[-1]
        if len(upper) == 1:
            yield GtPattern(tuple(rows), n)
            return
        ranges = [
            range(upper[j + 1], upper[j] + 1) for j in range(len(upper) - 1)
        ]
        for lower in product(*ranges):
            rows.append(lower)
            yield from rec(rows)
            rows.pop()

    yield from rec([first])
