"""The Hibi algebra of a tableau lattice: formal polynomials in lattice
variables, the straightening rewrite system that replaces an incomparable
pair of factors by its join and meet, standard monomial normal forms, and
the monomial-to-pattern homomorphism onto the GT monoid algebra.

Coefficients are exact rationals throughout.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional, Union

from .gtpatterns import GtPattern, column_to_indicator
from .posets import TableauLattice, join, meet
from .tableaux import ColumnTableau, YoungDiagram, chain_sort_key

Coefficient = Union[int, Fraction]


@dataclass(frozen=True)
class HibiMonomial:
    """A multiset of lattice elements, kept in canonical sorted order."""

    lattice: TableauLattice
    factors: tuple[ColumnTableau, ...]

    def __init__(self, lattice: TableauLattice, factors: Iterable[ColumnTableau]):
        factors = tuple(sorted(factors, key=chain_sort_key))
        for f in factors:
            if f not in lattice:
                raise ValueError(f"factor {f.label} does not belong to the lattice")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "factors", factors)

    @property
    def degree(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> YoungDiagram:
        """Transpose of the weakly decreasing depth sequence."""
        depths = sorted((f.depth for f in self.factors), reverse=True)
        return YoungDiagram(depths).transpose()

    def is_standard(self) -> bool:
        """A monomial is standard when its factors form a multichain."""
        return not self.incomparable_pairs()

    def incomparable_pairs(self) -> list[tuple[int, int]]:
        """Index pairs of incomparable factors, lexicographically ordered.
        Factors are sorted like the lattice's elements, a linear extension,
        so an earlier factor can only lie below a later one."""
        below = self.lattice.below()
        pos = [self.lattice.index(f) for f in self.factors]
        return [
            (i, j)
            for i, j in combinations(range(len(pos)), 2)
            if pos[i] != pos[j] and not below[pos[j]] >> pos[i] & 1
        ]

    def rewrite(self, i: int, j: int) -> "HibiMonomial":
        """Replace factors at positions ``i < j`` by their join and meet."""
        a, b = self.factors[i], self.factors[j]
        rest = [f for t, f in enumerate(self.factors) if t not in (i, j)]
        return HibiMonomial(self.lattice, rest + [join(a, b), meet(a, b)])

    @property
    def text(self) -> str:
        if not self.factors:
            return "1"
        return "*".join("x" + f.label for f in self.factors)

    def __repr__(self) -> str:
        return f"HibiMonomial({self.text})"


def rank_measure(m: HibiMonomial) -> int:
    """Sum of squared lattice heights of the factors.

    Each rewrite replaces an incomparable pair by its join and meet; the
    lattice is graded, the rank sum is preserved, and the spread (hence
    this measure) strictly increases, so rewriting terminates.
    """
    return sum(m.lattice.rank(f) ** 2 for f in m.factors)


@dataclass(frozen=True)
class HibiPolynomial:
    """A formal rational combination of monomials over one lattice."""

    lattice: TableauLattice
    terms: tuple[tuple[HibiMonomial, Fraction], ...]

    def __init__(self, lattice: TableauLattice,
                 terms: Union[dict, Iterable[tuple[HibiMonomial, Coefficient]]] = ()):
        if isinstance(terms, dict):
            terms = terms.items()
        collected: dict[HibiMonomial, Fraction] = {}
        for mono, coeff in terms:
            if mono.lattice != lattice:
                raise ValueError("all monomials must live over the same lattice")
            c = collected.get(mono, Fraction(0)) + Fraction(coeff)
            if c:
                collected[mono] = c
            else:
                collected.pop(mono, None)
        ordered = tuple(
            sorted(collected.items(), key=lambda t: [chain_sort_key(f) for f in t[0].factors])
        )
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "terms", ordered)

    @classmethod
    def monomial(cls, m: HibiMonomial, coeff: Coefficient = 1) -> "HibiPolynomial":
        return cls(m.lattice, [(m, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HibiPolynomial") -> "HibiPolynomial":
        if self.lattice != other.lattice:
            raise ValueError("polynomials live over different lattices")
        return HibiPolynomial(self.lattice, list(self.terms) + list(other.terms))

    def __sub__(self, other: "HibiPolynomial") -> "HibiPolynomial":
        return self + (-1) * other

    def __mul__(self, c: Coefficient) -> "HibiPolynomial":
        return HibiPolynomial(self.lattice, [(m, co * c) for m, co in self.terms])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"HibiPolynomial({format_polynomial(self)!r})"


def _pick_pair(m: HibiMonomial, rng: Optional[random.Random]) -> Optional[tuple[int, int]]:
    pairs = m.incomparable_pairs()
    if not pairs:
        return None
    if rng is None:
        return pairs[0]
    return rng.choice(pairs)


def straighten_steps(
    m: HibiMonomial, rng: Optional[random.Random] = None
) -> Iterator[HibiMonomial]:
    """Successive rewrites of one monomial down to its standard form,
    starting with ``m`` itself.  A single monomial never splits: each step
    yields exactly one monomial.  ``rng`` randomizes the pair choice; the
    default picks the lexicographically first incomparable pair.

    The squared-height measure must grow strictly at every step (that is
    the termination argument), so each step asserts it.
    """
    yield m
    measure = rank_measure(m)
    while True:
        pair = _pick_pair(m, rng)
        if pair is None:
            return
        m = m.rewrite(*pair)
        next_measure = rank_measure(m)
        if next_measure <= measure:
            raise AssertionError(
                f"termination measure failed to increase at {m.text}"
            )
        measure = next_measure
        yield m


def straighten(p: Union[HibiPolynomial, HibiMonomial],
               rng: Optional[random.Random] = None) -> HibiPolynomial:
    """Normal form modulo the straightening relations.

    Every monomial is rewritten to the standard monomial it reduces to;
    like terms merge.  Idempotent, shape-homogeneous inputs stay so.
    """
    if isinstance(p, HibiMonomial):
        p = HibiPolynomial.monomial(p)
    out: list[tuple[HibiMonomial, Fraction]] = []
    for mono, coeff in p.terms:
        for mono in straighten_steps(mono, rng):
            pass
        out.append((mono, coeff))
    return HibiPolynomial(p.lattice, out)


def hibi_to_gt(m: HibiMonomial) -> GtPattern:
    """Image of a monomial under the variable-to-indicator homomorphism:
    the sum of the factor indicators."""
    total = GtPattern.zero(m.lattice.n)
    for f in m.factors:
        total = total + column_to_indicator(f)
    return total


def graded_dimension(l: TableauLattice, shape: YoungDiagram) -> int:
    """Number of standard monomials of the given shape: multichains whose
    depth multiset is the transpose of the shape."""
    shape = shape if isinstance(shape, YoungDiagram) else YoungDiagram(shape)
    depths = tuple(shape.transpose().rows)
    available = {e.depth for e in l.elements}
    if any(d not in available for d in depths):
        raise ValueError(
            f"shape {shape.rows} needs column depths {sorted(set(depths))}, "
            f"family only has {sorted(available)}"
        )
    return l.count_multichains(depths)


# -- text form -------------------------------------------------------------

def format_polynomial(p: HibiPolynomial) -> str:
    """Signed sum of monomials; unit coefficients are left implicit."""
    if p.is_zero:
        return "0"
    parts = []
    for i, (mono, coeff) in enumerate(p.terms):
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = mono.text if mag == 1 else f"{mag}*{mono.text}"
        if i == 0:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?(.*)$")
_FACTOR_RE = re.compile(r"^x\[(\d+(?:,\d+)*)\]$")


def parse_polynomial(text: str, lattice: TableauLattice) -> HibiPolynomial:
    """Parse the output of :func:`format_polynomial`."""
    text = text.strip()
    if text == "0" or not text:
        return HibiPolynomial(lattice)
    tokens = text.replace("-", " - ").replace("+", " + ").split()
    terms: list[tuple[HibiMonomial, Fraction]] = []
    sign = Fraction(1)
    expect_term = True
    for tok in tokens:
        if tok in "+-":
            sign = Fraction(1) if tok == "+" else Fraction(-1)
            expect_term = True
            continue
        if not expect_term:
            raise ValueError(f"unexpected token {tok!r}")
        m = _TERM_RE.match(tok)
        coeff = sign * Fraction(m.group(1)) if m.group(1) else sign
        body = m.group(2)
        if body == "1":
            body = ""
        factors = []
        if body:
            for factor in body.split("*"):
                fm = _FACTOR_RE.match(factor)
                if not fm:
                    raise ValueError(f"cannot parse factor {factor!r}")
                entries = tuple(int(x) for x in fm.group(1).split(","))
                factors.append(ColumnTableau(entries, lattice.n))
        terms.append((HibiMonomial(lattice, factors), coeff))
        sign = Fraction(1)
        expect_term = False
    return HibiPolynomial(lattice, terms)
