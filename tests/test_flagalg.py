import itertools
import random
from fractions import Fraction

import pytest

from hibilab.flagalg import (
    GlexOrder,
    MatrixPolynomial,
    Monomial,
    _det,
    check_sagbi_pair,
    check_unipotent_invariance,
    diagonal_monomial,
    expand_in_standard_basis,
    format_polynomial,
    initial_monomial,
    is_unipotent_invariant,
    minor,
    standard_monomial_poly,
    straightening_relation,
    u_var,
    unipotent_substitute,
    x_var,
)
from hibilab.hibi import HibiMonomial, graded_dimension, straighten
from hibilab.posets import TableauLattice, join, meet
from hibilab.tableaux import ColumnTableau, YoungDiagram


def col(entries, n):
    return ColumnTableau(entries, n)


def incomparable_pairs(lattice):
    for a, b in itertools.combinations(lattice.elements, 2):
        if not (a <= b or b <= a):
            yield a, b


class TestMinor:
    def test_depth_one(self):
        for a in (1, 2, 3):
            p = minor(col((a,), 3), 3, 2)
            assert p.terms == {Monomial({x_var(a, 1): 1}): 1}

    def test_two_by_two(self):
        p = minor(col((1, 2), 3), 3, 2)
        assert p.terms == {
            Monomial({x_var(1, 1): 1, x_var(2, 2): 1}): 1,
            Monomial({x_var(2, 1): 1, x_var(1, 2): 1}): -1,
        }

    def test_three_by_three_term_count(self):
        p = minor(col((1, 2, 3), 4), 4, 3)
        assert len(p.terms) == 6
        assert sorted(p.terms.values()) == [-1, -1, -1, 1, 1, 1]
        ones = {x_var(a, b): 1 for a in range(1, 5) for b in range(1, 4)}
        assert p.evaluate(ones) == 0

    def test_depth_bound(self):
        with pytest.raises(ValueError, match="deeper"):
            minor(col((1, 2, 3), 4), 4, 2)

    def test_alternating(self):
        # swapping two rows negates the determinant
        p12 = minor(col((1, 2), 3), 3, 2)
        rows21 = [
            [MatrixPolynomial.variable(x_var(r, b)) for b in (1, 2)]
            for r in (2, 1)
        ]
        assert (_det(rows21) + p12).is_zero


class TestGlex:
    def test_variable_order(self):
        order = GlexOrder(3, 2)
        ranked = order.variables()
        assert ranked[:4] == [x_var(1, 1), x_var(2, 1), x_var(3, 1), x_var(1, 2)]

    def test_degree_dominates(self):
        order = GlexOrder(3, 2)
        small = Monomial({x_var(1, 1): 1})
        big = Monomial({x_var(3, 2): 2})
        assert order.key(big) > order.key(small)

    def test_rejects_unipotent_variables(self):
        order = GlexOrder(3, 2)
        with pytest.raises(ValueError, match="glex"):
            order.key(Monomial({u_var(1, 2): 1}))

    @pytest.mark.parametrize("var", [x_var(4, 1), x_var(1, 3), x_var(4, 3)])
    def test_rejects_variables_outside_the_matrix(self, var):
        order = GlexOrder(3, 2)
        with pytest.raises(ValueError, match="outside the 3 x 2 matrix"):
            order.key(Monomial({x_var(1, 1): 2, var: 1}))

    def test_key_matches_dense_reference(self):
        rng = random.Random(4)
        for _ in range(300):
            n, m = rng.randint(1, 6), rng.randint(1, 4)
            order = GlexOrder(n, m)
            monos = [
                Monomial({x_var(rng.randint(1, n), rng.randint(1, m)): rng.randint(0, 3)
                          for _ in range(rng.randint(0, 4))})
                for _ in range(6)
            ]
            for a, b in itertools.product(monos, repeat=2):
                dense_a, dense_b = (
                    (mono.degree, tuple(dict(mono.exps).get(v, 0) for v in order.variables()))
                    for mono in (a, b)
                )
                assert (order.key(a) < order.key(b)) == (dense_a < dense_b)
                assert (order.key(a) == order.key(b)) == (dense_a == dense_b)


class TestMonomial:
    def test_independent_of_insertion_order(self):
        rng = random.Random(5)
        for _ in range(100):
            exps = {v: rng.randint(1, 3) for v in
                    {rng.choice((x_var, u_var))(rng.randint(1, 6), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 6))}}
            items = list(exps.items())
            rng.shuffle(items)
            a, b = Monomial(exps), Monomial(items)
            assert a == b and hash(a) == hash(b)
            assert a.exps == b.exps == tuple(sorted(exps.items()))
            assert a.text == b.text

    def test_product_merges_exponents(self):
        rng = random.Random(6)
        for _ in range(100):
            left, right = (
                [(x_var(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(1, 2))
                 for _ in range(rng.randint(0, 4))]
                for _ in range(2)
            )
            product = Monomial(left) * Monomial(right)
            assert product == Monomial(left + right)
            assert product.exps == Monomial(left + right).exps
            assert product.degree == sum(e for _, e in left + right)


class TestInitialMonomial:
    def test_diagonal(self):
        order = GlexOrder(3, 2)
        mono, coeff = initial_monomial(minor(col((2, 3), 3), 3, 2), order)
        assert mono == Monomial({x_var(2, 1): 1, x_var(3, 2): 1})
        assert coeff == 1

    def test_single_variable(self):
        order = GlexOrder(2, 2)
        p = MatrixPolynomial.variable(x_var(1, 1))
        assert initial_monomial(p, order) == (Monomial({x_var(1, 1): 1}), 1)

    def test_zero_polynomial(self):
        with pytest.raises(ValueError, match="zero"):
            initial_monomial(MatrixPolynomial.zero(), GlexOrder(2, 2))

    def test_multiplicative_on_minor_products(self):
        lattice = TableauLattice.bounded(4, 3)
        order = GlexOrder(4, 3)
        for a, b in itertools.combinations_with_replacement(lattice.elements, 2):
            pa, pb = minor(a, 4, 3), minor(b, 4, 3)
            lhs = initial_monomial(pa * pb, order)[0]
            rhs = initial_monomial(pa, order)[0] * initial_monomial(pb, order)[0]
            assert lhs == rhs

    def test_diagonal_for_all_minors(self):
        lattice = TableauLattice.bounded(4, 3)
        order = GlexOrder(4, 3)
        for c in lattice:
            mono, coeff = initial_monomial(minor(c, 4, 3), order)
            assert (mono, coeff) == (diagonal_monomial(c), 1)


class TestExpansion:
    def test_pluecker(self):
        lattice = TableauLattice.bounded(4, 2)
        a, b = col((1, 4), 4), col((2, 3), 4)
        p = minor(a, 4, 2) * minor(b, 4, 2)
        expansion = expand_in_standard_basis(p, YoungDiagram((2, 2)), lattice)
        terms = [
            (tuple(c.entries for c in chain), coeff)
            for chain, coeff in expansion.terms
        ]
        assert terms == [
            (((1, 3), (2, 4)), 1),
            (((1, 2), (3, 4)), -1),
        ]

    def test_standard_product_is_fixed(self):
        lattice = TableauLattice.bounded(4, 2)
        chain = (col((1,), 4), col((1, 2), 4))
        # depths (2,1) transpose to shape (2,1)
        p = standard_monomial_poly(chain[::-1], 4, 2)
        expansion = expand_in_standard_basis(p, YoungDiagram((2, 1)), lattice)
        assert expansion.terms == (((col((1, 2), 4), col((1,), 4)), Fraction(1)),)

    def test_comparable_minor_product_is_standard(self):
        lattice = TableauLattice.bounded(4, 2)
        chain = (col((1, 3), 4), col((2, 4), 4))
        p = standard_monomial_poly(chain, 4, 2)
        expansion = expand_in_standard_basis(p, YoungDiagram((2, 2)), lattice)
        assert expansion.terms == ((chain, Fraction(1)),)

    def test_outside_span_detected(self):
        lattice = TableauLattice.bounded(3, 2)
        p = MatrixPolynomial.variable(x_var(1, 1))
        with pytest.raises(ValueError):
            expand_in_standard_basis(p, YoungDiagram((2,)), lattice)

    def test_exactness_on_random_matrices(self):
        lattice = TableauLattice.bounded(4, 2)
        rng = random.Random(13)
        for a, b in incomparable_pairs(lattice):
            p = minor(a, 4, 2) * minor(b, 4, 2)
            expansion = straightening_relation(a, b, lattice)
            for _ in range(50):
                values = {
                    x_var(r, c): rng.randint(-9, 9)
                    for r in range(1, 5) for c in range(1, 3)
                }
                direct = p.evaluate(values)
                viaexp = sum(
                    coeff * standard_monomial_poly(chain, 4, 2).evaluate(values)
                    for chain, coeff in expansion.terms
                )
                assert direct == viaexp


class TestStraighteningRelation:
    def test_comparable_pairs_rejected(self):
        lattice = TableauLattice.bounded(4, 3)
        with pytest.raises(ValueError, match="comparable"):
            straightening_relation(col((2,), 4), col((1, 3), 4), lattice)
        with pytest.raises(ValueError, match="comparable"):
            straightening_relation(col((1, 3), 4), col((2,), 4), lattice)

    def test_leading_and_bracketing(self):
        lattice = TableauLattice.bounded(4, 2)
        for a, b in incomparable_pairs(lattice):
            expansion = straightening_relation(a, b, lattice)
            lead_chain, lead_coeff = expansion.leading
            assert lead_chain == (meet(a, b), join(a, b))
            assert lead_coeff == 1
            for chain, coeff in expansion.terms[1:]:
                e, f = chain
                assert e <= meet(a, b) and join(a, b) <= f
                assert Fraction(coeff).denominator == 1

    def test_residual_zero_symbolically(self):
        lattice = TableauLattice.bounded(4, 2)
        for a, b in incomparable_pairs(lattice):
            expansion = straightening_relation(a, b, lattice)
            direct = minor(a, 4, 2) * minor(b, 4, 2)
            assert (expansion.to_polynomial(4, 2) - direct).is_zero

    def test_hibi_shadow(self):
        # the leading term alone is the lattice rewrite of the pair
        lattice = TableauLattice.bounded(4, 2)
        for a, b in incomparable_pairs(lattice):
            expansion = straightening_relation(a, b, lattice)
            lead_chain, _ = expansion.leading
            (rewritten, coeff), = straighten(HibiMonomial(lattice, [a, b])).terms
            assert coeff == 1
            assert rewritten.factors == lead_chain


class TestSagbi:
    def test_worked_pair(self):
        lattice = TableauLattice.bounded(4, 2)
        assert check_sagbi_pair(col((1, 4), 4), col((2, 3), 4), lattice)

    def test_reflexive_pair(self):
        lattice = TableauLattice.bounded(4, 2)
        c = col((1, 3), 4)
        assert check_sagbi_pair(c, c, lattice)

    def test_all_pairs_small(self):
        lattice = TableauLattice.bounded(4, 3)
        for a in lattice:
            for b in lattice:
                assert check_sagbi_pair(a, b, lattice)


class TestInvariance:
    def test_small_lattice(self):
        lattice = TableauLattice.bounded(3, 2)
        for c in lattice:
            assert check_unipotent_invariance(c, 3, 2)

    def test_negative_control(self):
        raw = MatrixPolynomial.variable(x_var(1, 2))
        assert not is_unipotent_invariant(raw, 4, 3)
        image = unipotent_substitute(raw, 4, 3)
        picked_up = Monomial({x_var(1, 1): 1, u_var(1, 2): 1})
        assert image.terms.get(picked_up) == 1

    def test_width_one_trivial(self):
        raw = MatrixPolynomial.variable(x_var(2, 1))
        assert is_unipotent_invariant(raw, 3, 1)


class TestGradedComponentDimension:
    def test_examples(self):
        assert graded_dimension(TableauLattice.bounded(3, 3), YoungDiagram((1,))) == 3
        assert graded_dimension(TableauLattice.bounded(3, 3), YoungDiagram((2, 1))) == 8
        assert graded_dimension(TableauLattice.bounded(4, 2), YoungDiagram((1, 1))) == 6

    def test_too_deep(self):
        with pytest.raises(ValueError, match="needs column depths"):
            graded_dimension(TableauLattice.bounded(4, 2), YoungDiagram((1, 1, 1)))


def _rank_over_q(rows):
    """Gaussian elimination over exact rationals."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestLinearIndependence:
    def test_full_rank_per_shape(self):
        checked = 0
        for n in range(2, 6):
            for m in range(1, min(3, n) + 1):
                lattice = TableauLattice.bounded(n, m)
                order = GlexOrder(n, m)
                for shape_rows in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1),
                                   (1, 1, 1), (2, 1, 1), (2, 2, 2)]:
                    shape = YoungDiagram(shape_rows)
                    if shape.depth > m:
                        continue
                    chains = list(lattice.multichains(shape.transpose().rows))
                    if not chains or len(chains) > 20:
                        continue
                    polys = [standard_monomial_poly(chain, n, m) for chain in chains]
                    for p in polys:
                        assert initial_monomial(p, order)[1] == 1
                    basis = sorted({mono for p in polys for mono in p.terms}, key=repr)
                    index = {mono: i for i, mono in enumerate(basis)}
                    matrix = [[0] * len(basis) for _ in polys]
                    for r, p in enumerate(polys):
                        for mono, coeff in p.terms.items():
                            matrix[r][index[mono]] = coeff
                    assert _rank_over_q(matrix) == len(chains), (n, m, shape_rows)
                    checked += 1
        assert checked > 10


class TestFormat:
    def test_glex_sorted_output(self):
        order = GlexOrder(3, 2)
        p = minor(col((1, 2), 3), 3, 2)
        assert format_polynomial(p, order) == "+1*x[1,1]*x[2,2] -1*x[2,1]*x[1,2]"

    def test_zero(self):
        assert format_polynomial(MatrixPolynomial.zero(), GlexOrder(2, 2)) == "0"
