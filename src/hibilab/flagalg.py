"""Exact symbolic side of the flag algebra: sparse integer polynomials in
the matrix coordinates x[a,b], minors indexed by columns, the graded
lexicographic order that makes diagonal products initial, triangular
expansion in the standard monomial basis, and the SAGBI/invariance checks.

Variables are tagged tuples: ``("x", a, b)`` for matrix coordinates and
``("u", p, q)`` for the strictly-upper entries of a unitriangular matrix
(these appear only in the invariance checker).  A monomial stores each
variable as an integer rank that grows with the variable, so its glex key
is the plain tuple ``(degree, pairs)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .posets import TableauLattice, join, meet
from .tableaux import SSYT, ColumnTableau, YoungDiagram

Variable = tuple
Coefficient = Union[int, Fraction]

# x[a,b] has rank -(b << 16 | a) and u[p,q] a further 2**32 below, so a
# greater variable has a greater rank and every u ranks below every x
_SHIFT, _U_OFFSET = 16, 1 << 32


def x_var(a: int, b: int) -> Variable:
    return ("x", a, b)


def u_var(p: int, q: int) -> Variable:
    return ("u", p, q)


def _var_text(v: Variable) -> str:
    return f"{v[0]}[{v[1]},{v[2]}]"


def _variable(rank: int) -> Variable:
    b, a = divmod(-rank % _U_OFFSET, 1 << _SHIFT)
    return ("u" if -rank >= _U_OFFSET else "x", a, b)


class Monomial:
    """A product of variables with positive integer exponents, stored as
    ``(rank, exponent)`` pairs in descending rank with its degree, its hash
    and ``maxrow``, the largest row of an x variable.  Treated as immutable."""

    __slots__ = ("pairs", "degree", "maxrow", "_hash")

    def __init__(self, exps: Union[Mapping[Variable, int], Iterable[tuple[Variable, int]]] = ()):
        if isinstance(exps, Mapping):
            exps = exps.items()
        merged: dict[int, int] = {}
        maxrow = 0
        for var, e in exps:
            if e < 0:
                raise ValueError(f"negative exponent on {var}")
            if e:
                tag, a, b = var
                if tag not in ("x", "u") or not (0 < a < 1 << _SHIFT and 0 < b < 1 << _SHIFT):
                    raise ValueError(f"unsupported variable {var}: want x or u, indices 1..65535")
                rank = -(b << _SHIFT | a) - (_U_OFFSET if tag == "u" else 0)
                merged[rank] = merged.get(rank, 0) + e
                maxrow = max(maxrow, a if tag == "x" else 0)
        self._set(tuple(sorted(merged.items(), reverse=True)), sum(merged.values()), maxrow)

    def _set(self, pairs: tuple[tuple[int, int], ...], degree: int, maxrow: int) -> "Monomial":
        self.pairs, self.degree, self.maxrow, self._hash = pairs, degree, maxrow, hash(pairs)
        return self

    @property
    def exps(self) -> tuple[tuple[Variable, int], ...]:
        return tuple(sorted((_variable(r), e) for r, e in self.pairs))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.pairs, other.pairs
        if not b or not a:
            return self if not b else other
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            p, q = a[i], b[j]
            if p[0] == q[0]:
                out.append((p[0], p[1] + q[1]))
                i, j = i + 1, j + 1
            elif p[0] > q[0]:
                out.append(p)
                i += 1
            else:
                out.append(q)
                j += 1
        out += a[i:] + b[j:]
        return object.__new__(Monomial)._set(
            tuple(out), self.degree + other.degree, max(self.maxrow, other.maxrow))

    @property
    def text(self) -> str:
        if not self.pairs:
            return "1"
        # descending rank: x in glex order (column, then row), then u
        return "*".join(
            _var_text(_variable(r)) + (f"^{e}" if e > 1 else "") for r, e in self.pairs
        )

    def __repr__(self) -> str:
        return f"Monomial({self.text})"


ONE = Monomial()


class MatrixPolynomial:
    """Sparse exact polynomial: a map from monomials to coefficients.

    Treated as immutable; all arithmetic returns fresh values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping[Monomial, Coefficient],
                                    Iterable[tuple[Monomial, Coefficient]]] = ()):
        if isinstance(terms, Mapping):
            terms = terms.items()
        merged: dict[Monomial, Coefficient] = {}
        for mono, c in terms:
            acc = merged.get(mono, 0) + c
            if acc:
                merged[mono] = acc
            else:
                merged.pop(mono, None)
        self.terms = merged

    @classmethod
    def zero(cls) -> "MatrixPolynomial":
        return cls()

    @classmethod
    def _of(cls, terms: dict[Monomial, Coefficient]) -> "MatrixPolynomial":
        """Wrap an already merged term dict without copying it."""
        result = cls.__new__(cls)
        result.terms = terms
        return result

    @classmethod
    def constant(cls, c: Coefficient) -> "MatrixPolynomial":
        return cls({ONE: c} if c else {})

    @classmethod
    def variable(cls, v: Variable) -> "MatrixPolynomial":
        return cls({Monomial({v: 1}): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            acc = out.get(mono, 0) + c
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return MatrixPolynomial._of(out)

    def __neg__(self) -> "MatrixPolynomial":
        return MatrixPolynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        return self + (-other)

    def __mul__(self, other: Union["MatrixPolynomial", int, Fraction]) -> "MatrixPolynomial":
        if isinstance(other, (int, Fraction)):
            return MatrixPolynomial._of({m: c * other for m, c in self.terms.items() if other})
        out: dict[Monomial, Coefficient] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 * m2
                acc = out.get(mono, 0) + c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return MatrixPolynomial._of(out)

    __rmul__ = __mul__

    def evaluate(self, values: Mapping[Variable, Coefficient]) -> Coefficient:
        total: Coefficient = 0
        for mono, c in self.terms.items():
            prod: Coefficient = c
            for var, e in mono.exps:
                prod *= values[var] ** e
            total += prod
        return total

    def __repr__(self) -> str:
        return f"MatrixPolynomial({len(self.terms)} terms)"


@dataclass(frozen=True)
class GlexOrder:
    """Graded lexicographic order on pure-x monomials.

    Total degree decides first; ties break lexicographically under the
    variable order x[a,b] > x[c,d] iff b < d, or b = d and a < c.
    """

    n: int
    m: int

    def variables(self) -> list[Variable]:
        """All x variables, greatest first."""
        return [x_var(a, b) for b in range(1, self.m + 1) for a in range(1, self.n + 1)]

    def key(self, mono: Monomial):
        """Sort key: bigger key means glex-greater.  The last pair holds a u
        variable if there is one, else the deepest column."""
        last = -mono.pairs[-1][0] if mono.pairs else 0
        if last >= _U_OFFSET or last >> _SHIFT > self.m or mono.maxrow > self.n:
            v = next(v for v, _ in mono.exps if v[0] != "x" or v[1] > self.n or v[2] > self.m)
            raise ValueError(f"glex order only compares x monomials, found {v}" if v[0] != "x"
                             else f"variable {v} outside the {self.n} x {self.m} matrix")
        return (mono.degree, mono.pairs)


def initial_monomial(p: MatrixPolynomial, order: GlexOrder) -> tuple[Monomial, Coefficient]:
    """The glex-greatest monomial of a nonzero polynomial, with coefficient."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no initial monomial")
    best = max(p.terms, key=order.key)
    return best, p.terms[best]


def _det(entries: Sequence[Sequence[MatrixPolynomial]]) -> MatrixPolynomial:
    """Determinant by cofactor expansion along the last column, memoized
    on row subsets (all submatrices use a prefix of the columns)."""
    k = len(entries)
    memo: dict[tuple[int, ...], MatrixPolynomial] = {}

    def rec(rows: tuple[int, ...]) -> MatrixPolynomial:
        if not rows:
            return MatrixPolynomial.constant(1)
        if rows in memo:
            return memo[rows]
        col = len(rows) - 1
        total = MatrixPolynomial.zero()
        for pos, r in enumerate(rows):
            sub = rec(rows[:pos] + rows[pos + 1:])
            term = entries[r][col] * sub
            total = total + term if (pos + col) % 2 == 0 else total - term
        memo[rows] = total
        return total

    return rec(tuple(range(k)))


MAX_MINOR_DEPTH = 8


def minor(i: ColumnTableau, n: int, m: int) -> MatrixPolynomial:
    """The determinant on rows ``i`` and leading columns, as an exact
    polynomial with k! signed unit terms."""
    k = i.depth
    if k > m:
        raise ValueError(f"column {i.label} deeper than the matrix width {m}")
    if k > MAX_MINOR_DEPTH:
        raise ValueError(f"minor depth {k} above the desk-scale guard {MAX_MINOR_DEPTH}")
    if i.entries[-1] > n:
        raise ValueError(f"column {i.label} has rows above {n}")
    entries = [
        [MatrixPolynomial.variable(x_var(r, b)) for b in range(1, k + 1)]
        for r in i.entries
    ]
    return _det(entries)


def diagonal_monomial(i: ColumnTableau) -> Monomial:
    """Product of the diagonal coordinates of the minor on ``i``."""
    return Monomial({x_var(r, b): 1 for b, r in enumerate(i.entries, start=1)})


def standard_monomial_poly(chain: Sequence[ColumnTableau], n: int, m: int) -> MatrixPolynomial:
    """Product of the minors over a multichain."""
    p = MatrixPolynomial.constant(1)
    for c in chain:
        p = p * minor(c, n, m)
    return p


@dataclass(frozen=True)
class StandardMonomialExpansion:
    """An exact combination of standard monomials of one shape.

    Terms are keyed by the multichain (ascending tuple of columns) and
    kept in discovery order, which is strictly glex-decreasing in the
    initial monomials.
    """

    shape: YoungDiagram
    terms: tuple[tuple[tuple[ColumnTableau, ...], Fraction], ...]

    @property
    def leading(self) -> tuple[tuple[ColumnTableau, ...], Fraction]:
        return self.terms[0]

    def to_polynomial(self, n: int, m: int) -> MatrixPolynomial:
        total = MatrixPolynomial.zero()
        for chain, c in self.terms:
            total = total + standard_monomial_poly(chain, n, m) * c
        return total

    @property
    def text(self) -> str:
        parts = []
        for chain, c in self.terms:
            sign = "-" if c < 0 else "+"
            body = "≤".join(col.label for col in chain)
            parts.append(f"{sign}{abs(c)}*D[{body}]")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"StandardMonomialExpansion({self.text})"


def _chain_from_initial(mono: Monomial, shape: YoungDiagram,
                        lattice: TableauLattice) -> tuple[ColumnTableau, ...]:
    """Rebuild the unique multichain whose standard monomial has the given
    initial monomial: the sorted row multiset at matrix column b is row b
    of the tableau whose columns form the chain."""
    rows_by_col: dict[int, list[int]] = {}
    for var, e in mono.exps:
        rows_by_col.setdefault(var[2], []).extend([var[1]] * e)
    depth = shape.depth
    if sorted(rows_by_col) != list(range(1, depth + 1)):
        raise ValueError(
            f"initial monomial {mono.text} does not fill matrix columns 1..{depth}"
        )
    rows = []
    for b in range(1, depth + 1):
        row = sorted(rows_by_col[b])
        if len(row) != shape.row(b):
            raise ValueError(
                f"initial monomial {mono.text} gives row {b} length {len(row)}, "
                f"shape wants {shape.row(b)}"
            )
        rows.append(tuple(row))
    try:
        tableau = SSYT(rows)
    except ValueError as exc:
        raise ValueError(
            f"initial monomial {mono.text} is not the diagonal monomial of a "
            f"standard monomial: {exc}"
        ) from exc
    chain = tuple(ColumnTableau(col, lattice.n) for col in tableau.columns())
    for col in chain:
        if col not in lattice:
            raise ValueError(f"column {col.label} is outside the lattice family")
    return chain


def expand_in_standard_basis(p: MatrixPolynomial, shape: YoungDiagram,
                             lattice: TableauLattice) -> StandardMonomialExpansion:
    """Triangular reduction of ``p`` against the standard monomials of the
    given shape.

    Repeatedly matches the initial monomial of the remainder to the unique
    standard monomial with that initial monomial and subtracts; fails if an
    initial monomial matches no standard monomial (input outside the span)
    or if the iteration bound (the number of standard monomials of this
    shape) is exceeded.
    """
    shape = shape if isinstance(shape, YoungDiagram) else YoungDiagram(shape)
    n, m = lattice.n, lattice.column_bound
    order = GlexOrder(n, m)
    bound = lattice.count_multichains(shape.transpose().rows)
    found: list[tuple[tuple[ColumnTableau, ...], Fraction]] = []
    last_key = None
    remainder = p
    while not remainder.is_zero:
        if len(found) >= bound:
            raise ValueError(
                f"reduction exceeded the {bound} standard monomials of shape "
                f"{shape.rows}; input is outside their span"
            )
        mono, coeff = initial_monomial(remainder, order)
        key = order.key(mono)
        if last_key is not None and not key < last_key:
            raise ValueError("initial monomials failed to decrease strictly")
        last_key = key
        chain = _chain_from_initial(mono, shape, lattice)
        remainder = remainder - standard_monomial_poly(chain, n, m) * coeff
        found.append((chain, Fraction(coeff)))
    return StandardMonomialExpansion(shape, tuple(found))


def straightening_relation(i: ColumnTableau, j: ColumnTableau,
                           lattice: TableauLattice) -> StandardMonomialExpansion:
    """Expansion of the product of two incomparable minors.

    The leading term is the meet-join chain with coefficient one; every
    other term brackets the pair from outside.  Violations of either fact,
    or a non-integer coefficient, raise.
    """
    if i <= j or j <= i:
        raise ValueError(f"{i.label} and {j.label} are comparable")
    n, m = lattice.n, lattice.column_bound
    shape = YoungDiagram(sorted((i.depth, j.depth), reverse=True)).transpose()
    product = minor(i, n, m) * minor(j, n, m)
    expansion = expand_in_standard_basis(product, shape, lattice)
    lo, hi = meet(i, j), join(i, j)
    lead_chain, lead_coeff = expansion.leading
    if lead_chain != (lo, hi) or lead_coeff != 1:
        raise ValueError(
            f"leading term {expansion.text} is not the meet-join chain of "
            f"{i.label}, {j.label}"
        )
    for chain, c in expansion.terms[1:]:
        e, f = chain
        if not (e <= lo and hi <= f):
            raise ValueError(
                f"side term D[{e.label}≤{f.label}] does not bracket "
                f"{lo.label} ≤ {hi.label}"
            )
        if Fraction(c).denominator != 1:
            raise ValueError(f"non-integer coefficient {c} in a straightening relation")
    return expansion


def check_sagbi_pair(i: ColumnTableau, j: ColumnTableau, lattice: TableauLattice,
                     order: Optional[GlexOrder] = None) -> bool:
    """Whether the initial monomials satisfy the join-meet factorization:
    in(d_i) in(d_j) = in(d_(i v j)) in(d_(i ^ j))."""
    n, m = lattice.n, lattice.column_bound
    if order is None:
        order = GlexOrder(n, m)
    lhs = initial_monomial(minor(i, n, m), order)[0] * initial_monomial(minor(j, n, m), order)[0]
    rhs = (
        initial_monomial(minor(join(i, j), n, m), order)[0]
        * initial_monomial(minor(meet(i, j), n, m), order)[0]
    )
    return lhs == rhs


def unipotent_substitute(p: MatrixPolynomial, n: int, m: int) -> MatrixPolynomial:
    """Replace every x[a,b] by the (a,b) entry of X u, where u is upper
    unitriangular with independent symbolic entries u[c,b] above the
    diagonal."""
    images: dict[Variable, MatrixPolynomial] = {}
    for a in range(1, n + 1):
        for b in range(1, m + 1):
            img = MatrixPolynomial.variable(x_var(a, b))
            for c in range(1, b):
                img = img + (
                    MatrixPolynomial.variable(x_var(a, c))
                    * MatrixPolynomial.variable(u_var(c, b))
                )
            images[x_var(a, b)] = img
    total = MatrixPolynomial.zero()
    for mono, coeff in p.terms.items():
        term = MatrixPolynomial.constant(coeff)
        for var, e in mono.exps:
            factor = images.get(var, MatrixPolynomial.variable(var))
            for _ in range(e):
                term = term * factor
        total = total + term
    return total


def is_unipotent_invariant(p: MatrixPolynomial, n: int, m: int) -> bool:
    """Exact check that the unitriangular substitution fixes ``p``
    identically in all x and u variables."""
    return (unipotent_substitute(p, n, m) - p).is_zero


def check_unipotent_invariance(i: ColumnTableau, n: int, m: int) -> bool:
    """Invariance of the minor on ``i`` under the unitriangular action."""
    return is_unipotent_invariant(minor(i, n, m), n, m)


def format_polynomial(p: MatrixPolynomial, order: GlexOrder) -> str:
    """Signed terms in strictly decreasing glex order."""
    if p.is_zero:
        return "0"
    parts = []
    for mono in sorted(p.terms, key=order.key, reverse=True):
        c = p.terms[mono]
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign}{abs(c)}*{mono.text}")
    return " ".join(parts)
