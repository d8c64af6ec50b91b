import random
from fractions import Fraction

import pytest

from hibilab.gtpatterns import GtPattern, enumerate_patterns
from hibilab.hibi import (
    HibiMonomial,
    HibiPolynomial,
    format_polynomial,
    graded_dimension,
    hibi_to_gt,
    parse_polynomial,
    rank_measure,
    straighten,
    straighten_steps,
)
from hibilab.posets import TableauLattice
from hibilab.tableaux import ColumnTableau, YoungDiagram

import golden

L4 = TableauLattice.full(4)
L5 = TableauLattice.full(5)


def col(entries, n=4):
    return ColumnTableau(entries, n)


def mono(lattice, *cols):
    return HibiMonomial(lattice, [col(c, lattice.n) for c in cols])


def random_monomial(lattice, rng, max_degree=5):
    return HibiMonomial(
        lattice,
        [rng.choice(lattice.elements) for _ in range(rng.randint(1, max_degree))],
    )


class TestStandard:
    def test_comparable_pair(self):
        assert mono(L4, (1,), (1, 2)).is_standard()

    def test_incomparable_pair(self):
        assert not mono(L4, (1, 4), (2, 3)).is_standard()

    def test_empty_product(self):
        assert mono(L4).is_standard()

    def test_membership_enforced(self):
        grass = TableauLattice.grassmannian(4, 2)
        with pytest.raises(ValueError, match="belong"):
            HibiMonomial(grass, [col((1,), 4)])

    def test_shape(self):
        assert mono(L4, (1, 2, 3), (1, 4), (2,)).shape == YoungDiagram((3, 2, 1))


class TestStraighten:
    def test_single_rewrite(self):
        p = straighten(mono(L4, (1, 4), (2, 3)))
        assert format_polynomial(p) == "x[1,3]*x[2,4]"

    def test_already_standard(self):
        m = mono(L4, (1,), (1, 2))
        assert straighten(m) == HibiPolynomial.monomial(m)

    def test_difference_cancels(self):
        p = parse_polynomial("x[1,4]*x[2,3] - x[2,4]*x[1,3]", L4)
        assert straighten(p).is_zero

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(50):
            p = HibiPolynomial.monomial(random_monomial(L5, rng), Fraction(3, 7))
            once = straighten(p)
            assert straighten(once) == once

    def test_result_is_standard(self):
        rng = random.Random(2)
        for _ in range(100):
            p = straighten(random_monomial(L5, rng))
            assert all(m.is_standard() for m, _ in p.terms)

    def test_shape_homogeneous_preserved(self):
        rng = random.Random(3)
        for _ in range(50):
            m = random_monomial(L5, rng)
            result = straighten(m)
            assert all(term.shape == m.shape for term, _ in result.terms)

    def test_measure_strictly_increases(self):
        rng = random.Random(4)
        for _ in range(100):
            m = random_monomial(L5, rng)
            steps = list(straighten_steps(m))
            measures = [rank_measure(s) for s in steps]
            assert all(a < b for a, b in zip(measures, measures[1:]))

    def test_confluence_randomized(self):
        rng = random.Random(5)
        for _ in range(10):
            m = random_monomial(L5, rng, max_degree=6)
            reference = straighten(m)
            for _ in range(100):
                assert straighten(m, rng) == reference


class TestPatternMap:
    def test_empty_monomial(self):
        assert hibi_to_gt(mono(L4)) == GtPattern.zero(4)

    def test_worked_monomial(self):
        factors = []
        for entries, mult in golden.EX_MULTISET.items():
            factors.extend([col(entries)] * mult)
        m = HibiMonomial(L4, factors)
        assert hibi_to_gt(m) == GtPattern(golden.EX_PATTERN_ROWS)

    def test_invariant_under_straightening(self):
        rng = random.Random(6)
        for _ in range(200):
            m = random_monomial(L5, rng)
            (normal, coeff), = straighten(m).terms
            assert coeff == 1
            assert hibi_to_gt(m) == hibi_to_gt(normal)

    def test_top_row_matches_shape(self):
        rng = random.Random(7)
        for _ in range(100):
            m = random_monomial(L5, rng)
            assert hibi_to_gt(m).top_row == m.shape.padded(5)

    def test_injective_on_standard_monomials(self):
        # distinct multichains give distinct patterns, exhaustively
        for n in range(1, 5):
            lattice = TableauLattice.full(n)
            for size in range(0, 7):
                seen = {}
                for shape_rows in _partitions(size, n):
                    shape = YoungDiagram(shape_rows)
                    for chain in lattice.multichains(shape.transpose().rows):
                        f = hibi_to_gt(HibiMonomial(lattice, chain))
                        assert f not in seen, (chain, seen[f])
                        seen[f] = chain

    def test_surjective_at_desk_scale(self):
        # every pattern with a given top row is hit by a standard monomial
        lattice = TableauLattice.full(4)
        for shape_rows in [(2, 1), (2, 2), (3, 1, 1)]:
            shape = YoungDiagram(shape_rows)
            images = {
                hibi_to_gt(HibiMonomial(lattice, chain))
                for chain in lattice.multichains(shape.transpose().rows)
            }
            assert images == set(enumerate_patterns(shape, 4))


def _partitions(size, max_depth):
    def rec(first, depth, left):
        if left == 0:
            yield ()
            return
        if depth == 0:
            return
        for r in range(min(first, left), 0, -1):
            for rest in rec(r, depth - 1, left - r):
                yield (r,) + rest

    return rec(size, max_depth, size)


class TestGradedDimension:
    def test_singletons(self):
        assert graded_dimension(TableauLattice.full(3), YoungDiagram((1,))) == 3

    def test_small_shape(self):
        assert graded_dimension(TableauLattice.full(3), YoungDiagram((2, 1))) == 8

    def test_matches_pattern_count_bounded(self):
        for n in range(1, 6):
            for m in range(1, min(3, n) + 1):
                lattice = TableauLattice.bounded(n, m)
                for shape_rows in _shapes_upto(3, m):
                    shape = YoungDiagram(shape_rows)
                    want = sum(1 for _ in enumerate_patterns(shape, n, m))
                    assert graded_dimension(lattice, shape) == want, (n, m, shape_rows)

    def test_incompatible_shape(self):
        grass = TableauLattice.grassmannian(4, 2)
        with pytest.raises(ValueError, match="depths"):
            graded_dimension(grass, YoungDiagram((1,)))


def _shapes_upto(max_width, max_depth):
    def rec(first, depth):
        yield ()
        if depth == 0:
            return
        for r in range(1, first + 1):
            for rest in rec(r, depth - 1):
                yield (r,) + rest

    return sorted(set(rec(max_width, max_depth)))


class TestTextForm:
    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(100):
            terms = [
                (random_monomial(L4, rng, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                for _ in range(rng.randint(0, 4))
            ]
            p = HibiPolynomial(L4, terms)
            assert parse_polynomial(format_polynomial(p), L4) == p

    def test_unit_coefficient_is_implicit(self):
        m = mono(L4, (1, 3), (2, 4))
        assert format_polynomial(HibiPolynomial.monomial(m)) == "x[1,3]*x[2,4]"

    def test_fractional_and_negative(self):
        p = HibiPolynomial(L4, [(mono(L4, (1,)), Fraction(-2, 3)), (mono(L4), 2)])
        text = format_polynomial(p)
        assert parse_polynomial(text, L4) == p

    def test_zero(self):
        assert format_polynomial(HibiPolynomial(L4)) == "0"
        assert parse_polynomial("0", L4).is_zero
