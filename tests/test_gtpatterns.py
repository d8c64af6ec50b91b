import random
from collections import Counter
from fractions import Fraction

import pytest

from hibilab.gtpatterns import (
    GtPattern,
    IndicatorPattern,
    column_to_indicator,
    decompose,
    enumerate_patterns,
    gt_to_ssyt,
    indicator_join,
    indicator_leq,
    indicator_meet,
    indicator_to_column,
    interlaces,
    ssyt_to_gt,
    weight,
)
from hibilab.posets import TableauLattice, join, meet
from hibilab.tableaux import SSYT, ColumnTableau, YoungDiagram

import golden


def random_pattern(rng, n, top_max=6):
    top = sorted((rng.randint(0, top_max) for _ in range(n)), reverse=True)
    rows = [tuple(top)]
    while len(rows[-1]) > 1:
        upper = rows[-1]
        rows.append(tuple(
            rng.randint(upper[j + 1], upper[j]) for j in range(len(upper) - 1)
        ))
    return GtPattern(rows, n)


def weyl_product(shape, n):
    lam = shape.padded(n)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert out.denominator == 1
    return int(out)


class TestPattern:
    def test_validation(self):
        with pytest.raises(ValueError, match="interlace"):
            GtPattern([(1, 0), (2,)])
        with pytest.raises(ValueError, match="nonnegative"):
            GtPattern([(1, -1), (0,)])
        with pytest.raises(ValueError, match="lengths"):
            GtPattern([(1, 1)], 2)

    def test_value_accessors(self):
        f = GtPattern(golden.EX_PATTERN_ROWS)
        assert f.value(4, 1) == 10
        assert f.value(1, 1) == 3
        assert f.row(3) == (7, 7, 2)
        assert f.top_row == (10, 7, 3, 2)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="size"):
            GtPattern.zero(33)


class TestAdd:
    def test_identity(self):
        f = GtPattern(golden.EX_PATTERN_ROWS)
        assert f + GtPattern.zero(4) == f

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError, match="sizes"):
            GtPattern.zero(3) + GtPattern.zero(4)

    def test_modular_identity_on_indicators(self):
        # for incomparable supports: 1_A + 1_B = 1_(A u B) + 1_(A n B)
        n = 4
        pairs = [((1, 4), (2, 3)), ((2,), (1, 3)), ((1, 2, 4), (1, 3))]
        for ea, eb in pairs:
            fa = column_to_indicator(ColumnTableau(ea, n))
            fb = column_to_indicator(ColumnTableau(eb, n))
            assert fa + fb == indicator_join(fa, fb) + indicator_meet(fa, fb)

    def test_worked_sum(self):
        total = GtPattern.zero(4)
        for entries, mult in golden.EX_MULTISET.items():
            total = total + mult * column_to_indicator(ColumnTableau(entries, 4))
        assert total == GtPattern(golden.EX_PATTERN_ROWS)


class TestIndicatorLattice:
    def test_nested_supports(self):
        f13 = column_to_indicator(ColumnTableau((1, 3), 3))
        f2 = column_to_indicator(ColumnTableau((2,), 3))
        assert indicator_join(f13, f2) == f2
        assert indicator_meet(f13, f2) == f13

    def test_idempotent(self):
        a = column_to_indicator(ColumnTableau((1, 4), 4))
        assert indicator_join(a, a) == a
        assert indicator_meet(a, a) == a

    def test_matches_column_lattice(self):
        a, b = ColumnTableau((1, 4), 4), ColumnTableau((2, 3), 4)
        fa, fb = column_to_indicator(a), column_to_indicator(b)
        assert indicator_join(fa, fb) == column_to_indicator(join(a, b))
        assert indicator_meet(fa, fb) == column_to_indicator(meet(a, b))
        assert indicator_to_column(indicator_join(fa, fb)).entries == (2, 4)
        assert indicator_to_column(indicator_meet(fa, fb)).entries == (1, 3)

    def test_order_isomorphism_exhaustive(self):
        for n in range(1, 6):
            lattice = TableauLattice.full(n)
            ind = {c: column_to_indicator(c) for c in lattice}
            for a in lattice:
                for b in lattice:
                    assert (a <= b) == indicator_leq(ind[a], ind[b])
                    assert ind[join(a, b)] == indicator_join(ind[a], ind[b])
                    assert ind[meet(a, b)] == indicator_meet(ind[a], ind[b])


class TestColumnIndicatorMaps:
    def test_rank3_table(self):
        for entries, rows in golden.INDICATOR_TABLE_N3.items():
            f = column_to_indicator(ColumnTableau(entries, 3))
            assert f.rows == rows
            assert indicator_to_column(f).entries == entries

    def test_top_column_singleton_support(self):
        for n in (2, 3, 5):
            f = column_to_indicator(ColumnTableau((n,), n))
            assert {(x.level, x.index) for x in f.support()} == {(n, 1)}

    def test_indicator_requires_nonempty_support(self):
        with pytest.raises(ValueError, match="support"):
            IndicatorPattern([(0, 0), (0,)])


class TestSsytGtBijection:
    def test_worked_pattern(self):
        t = SSYT(golden.EX_TABLEAU_ROWS)
        assert ssyt_to_gt(t, 4) == GtPattern(golden.EX_PATTERN_ROWS)

    def test_empty_tableau(self):
        assert ssyt_to_gt(SSYT(()), 3) == GtPattern.zero(3)

    def test_single_column_consistency(self):
        for n in (3, 4):
            for k in range(1, n + 1):
                t = SSYT([(i,) for i in range(1, k + 1)])
                col = ColumnTableau(tuple(range(1, k + 1)), n)
                assert ssyt_to_gt(t, n) == column_to_indicator(col)

    def test_worked_decomposition(self):
        f = GtPattern(golden.EX_PATTERN_ROWS)
        multiset = Counter()
        for coeff, ind in decompose(f):
            multiset[indicator_to_column(ind).entries] += coeff
        assert dict(multiset) == golden.EX_MULTISET
        assert gt_to_ssyt(f) == SSYT(golden.EX_TABLEAU_ROWS)

    def test_zero_pattern(self):
        assert gt_to_ssyt(GtPattern.zero(4)) == SSYT(())

    def test_indicator_gives_single_column(self):
        f = column_to_indicator(ColumnTableau((2, 4), 4))
        assert gt_to_ssyt(f).columns() == [(2, 4)]

    def test_round_trip_exhaustive_small(self):
        for n in range(1, 5):
            for shape in _shapes(6, n):
                for f in enumerate_patterns(shape, n):
                    t = gt_to_ssyt(f)
                    assert t.shape == shape
                    assert ssyt_to_gt(t, n) == f

    def test_reconstruction_identity(self):
        rng = random.Random(5)
        for _ in range(1000):
            n = rng.randint(1, 6)
            f = random_pattern(rng, n, top_max=20)
            total = GtPattern.zero(n)
            for coeff, ind in decompose(f):
                total = total + coeff * ind
            assert total == f

    def test_monoid_grading(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(1, 6)
            f, g = random_pattern(rng, n), random_pattern(rng, n)
            assert (f + g).top_row == tuple(
                x + y for x, y in zip(f.top_row, g.top_row)
            )


class TestWeight:
    def test_worked_pattern(self):
        assert weight(GtPattern(golden.EX_PATTERN_ROWS)) == golden.EX_WEIGHT

    def test_zero(self):
        assert weight(GtPattern.zero(5)) == (0,) * 5

    def test_weight_is_content(self):
        rng = random.Random(9)
        for _ in range(1000):
            n = rng.randint(1, 6)
            f = random_pattern(rng, n)
            assert weight(f) == gt_to_ssyt(f).content(n)

    def test_weight_sums_to_top_row(self):
        rng = random.Random(10)
        for _ in range(100):
            f = random_pattern(rng, 5)
            assert sum(weight(f)) == sum(f.top_row)


class TestInterlaces:
    def test_examples(self):
        assert interlaces(YoungDiagram((10, 7, 3, 2)), YoungDiagram((7, 7, 2)))
        assert not interlaces(YoungDiagram((2, 2)), YoungDiagram((1,)))
        assert interlaces(YoungDiagram((5,)), YoungDiagram(()))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            interlaces(YoungDiagram((2, 1)), YoungDiagram((2, 1)))

    def test_consecutive_pattern_rows(self):
        rng = random.Random(12)
        for _ in range(50):
            f = random_pattern(rng, 5)
            for level in range(2, 6):
                assert interlaces(
                    YoungDiagram(f.row(level)), YoungDiagram(f.row(level - 1))
                )


def _shapes(max_size, max_depth):
    def rec(first, depth, left):
        yield ()
        if depth == 0 or left == 0:
            return
        for r in range(1, min(first, left) + 1):
            for rest in rec(r, depth - 1, left - r):
                yield (r,) + rest

    return [YoungDiagram(rows) for rows in sorted(set(rec(max_size, max_depth, max_size)))]


class TestEnumerate:
    def test_forced(self):
        assert sum(1 for _ in enumerate_patterns(YoungDiagram((1, 1, 1)), 3)) == 1

    def test_three_indicators(self):
        patterns = list(enumerate_patterns(YoungDiagram((1,)), 3))
        assert len(patterns) == 3
        expected = {
            column_to_indicator(ColumnTableau((i,), 3)) for i in (1, 2, 3)
        }
        assert set(patterns) == expected

    def test_eight_patterns(self):
        count = sum(1 for _ in enumerate_patterns(YoungDiagram((2, 1)), 3))
        assert count == 8 == weyl_product(YoungDiagram((2, 1)), 3)

    def test_weyl_oracle(self):
        for n in range(1, 6):
            for shape in _shapes(4 * n, n):
                if shape.row(1) > 4:
                    continue
                count = sum(1 for _ in enumerate_patterns(shape, n))
                assert count == weyl_product(shape, n), (shape.rows, n)

    def test_lexicographic_order(self):
        flat = [
            tuple(v for row in f.rows for v in row)
            for f in enumerate_patterns(YoungDiagram((2, 1)), 3)
        ]
        assert flat == sorted(flat)

    def test_depth_bound(self):
        with pytest.raises(ValueError, match="deeper"):
            list(enumerate_patterns(YoungDiagram((1, 1, 1)), 2))
        with pytest.raises(ValueError, match="deeper"):
            list(enumerate_patterns(YoungDiagram((1, 1)), 4, 1))

    def test_column_bound_automatic(self):
        # zero top entries beyond column m force zeros below
        for f in enumerate_patterns(YoungDiagram((2, 2)), 4, 2):
            for level in range(1, 5):
                assert all(v == 0 for v in f.row(level)[2:])


class TestJson:
    def test_round_trip(self):
        f = GtPattern(golden.EX_PATTERN_ROWS)
        assert GtPattern.from_dict(f.to_dict()) == f
        assert f.to_dict() == {"n": 4, "rows": [[10, 7, 3, 2], [7, 7, 2], [7, 3], [3]]}
