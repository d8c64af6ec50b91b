"""Acceptance gate: one test per criterion, each printing a summary line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 5 carries one strict-xfail sub-assertion whose recorded
expected value is arithmetically impossible; see the xfail reason.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from hibilab.flagalg import (
    GlexOrder,
    MatrixPolynomial,
    check_sagbi_pair,
    check_unipotent_invariance,
    diagonal_monomial,
    initial_monomial,
    is_unipotent_invariant,
    minor,
    standard_monomial_poly,
    straightening_relation,
    x_var,
)
from hibilab.gtpatterns import (
    GtPattern,
    column_to_indicator,
    decompose,
    enumerate_patterns,
    gt_to_ssyt,
    indicator_join,
    indicator_leq,
    indicator_meet,
    indicator_to_column,
    ssyt_to_gt,
    weight,
)
from hibilab.hibi import HibiMonomial, hibi_to_gt, rank_measure, straighten, straighten_steps
from hibilab.posets import (
    ConstantPolicy,
    TableauLattice,
    associated_gt_subposet,
    hasse,
    join,
    meet,
)
from hibilab.tableaux import (
    SSYT,
    ColumnTableau,
    YoungDiagram,
    multichain_to_ssyt,
    ssyt_to_multichain,
    to_skew,
)

import golden


def report(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: PASS{suffix}")


def brute_ssyt_count(shape, n):
    """Independent oracle: count semistandard fillings by backtracking."""
    rows = [r for r in shape.rows if r > 0]
    if not rows:
        return 1
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    grid = [[0] * r for r in rows]
    total = 0

    def fill(pos):
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, n + 1):
            grid[i][j] = v
            fill(pos + 1)
        grid[i][j] = 0

    fill(0)
    return total


def weyl_product(shape, n):
    """Independent oracle: the rational product formula, exactly."""
    lam = shape.padded(n)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert out.denominator == 1
    return int(out)


def shapes_within(max_size, max_depth, max_width=None):
    def rec(first, depth, left):
        yield ()
        if depth == 0 or left == 0:
            return
        hi = min(first, left) if max_width is None else min(first, left, max_width)
        for r in range(1, hi + 1):
            for rest in rec(r, depth - 1, left - r):
                yield (r,) + rest

    return [YoungDiagram(r) for r in sorted(set(rec(max_size, max_depth, max_size)))]


def test_criterion_01_l4_hasse_golden():
    lattice = TableauLattice.full(4)
    assert len(lattice) == 15
    edges = {(g.entries, s.entries) for g, s in hasse(lattice)}
    assert edges == golden.L4_COVER_EDGES
    report("01 (lattice Hasse diagram golden)")


def test_criterion_02_rank3_indicator_golden():
    assert len(golden.INDICATOR_TABLE_N3) == 7
    for entries, rows in golden.INDICATOR_TABLE_N3.items():
        f = column_to_indicator(ColumnTableau(entries, 3))
        assert f.rows == rows, entries
        assert indicator_to_column(f).entries == entries
    report("02 (all 7 rank-3 column/indicator pairs)")


def test_criterion_03_degree10_pattern_golden():
    f = GtPattern(golden.EX_PATTERN_ROWS)
    t = gt_to_ssyt(f)
    multiset = Counter()
    for coeff, ind in decompose(f):
        multiset[indicator_to_column(ind).entries] += coeff
    assert dict(multiset) == golden.EX_MULTISET
    assert t.rows == golden.EX_TABLEAU_ROWS
    assert ssyt_to_gt(t, 4) == f
    assert weight(f) == golden.EX_WEIGHT
    report("03 (worked degree-10 pattern round trip)")


@pytest.mark.parametrize("family,policy,nodes,edges", [
    ("G73", ConstantPolicy.DROP, golden.FIG_GRASS_73_NODES, golden.FIG_GRASS_73_EDGES),
    ("P6", ConstantPolicy.KEEP_TOP, golden.FIG_SYMPL_6_NODES, golden.FIG_SYMPL_6_EDGES),
    ("B835", ConstantPolicy.KEEP_TOP, golden.FIG_BRANCH_835_NODES, golden.FIG_BRANCH_835_EDGES),
    ("B532", ConstantPolicy.KEEP_TOP, golden.FIG_BRANCH_532_NODES, golden.FIG_BRANCH_532_EDGES),
])
def test_criterion_04_associated_subposet_goldens(family, policy, nodes, edges):
    lattice = {
        "G73": lambda: TableauLattice.grassmannian(7, 3),
        "P6": lambda: TableauLattice.symplectic(6),
        "B835": lambda: TableauLattice.branching(8, 3, 5),
        "B532": lambda: TableauLattice.branching(5, 3, 2),
    }[family]()
    sub = associated_gt_subposet(lattice, policy)
    assert {(x.level, x.index) for x in sub} == nodes
    assert {
        ((g.level, g.index), (s.level, s.index)) for g, s in hasse(sub)
    } == edges
    report(f"04 (associated subposet golden, {family})")


def test_criterion_05_skew_golden_shapes_and_filling():
    t = SSYT(golden.SKEW_INPUT_ROWS)
    sk = to_skew(t, 4)
    assert sk.outer == YoungDiagram(golden.SKEW_OUTER)
    assert sk.inner == YoungDiagram(golden.SKEW_INNER)
    assert sk.rows == golden.SKEW_FILLING
    report("05 (skew golden: outer, inner, printed filling)")


@pytest.mark.xfail(
    strict=True,
    reason="the stated content vector (5,2,3,3,2,0) sums to 15 while the "
    "stated filling has 16 cells (three entries shift to value 5, not two); "
    "the two sub-assertions of this criterion contradict each other, so the "
    "value is kept verbatim and this check cannot pass",
)
def test_criterion_05_skew_content_as_stated():
    sk = to_skew(SSYT(golden.SKEW_INPUT_ROWS), 4)
    print(
        "criterion 05 (skew content as stated): FAIL expected "
        "(stated vector sums to 15, the stated filling has 16 cells)"
    )
    assert sk.content(6) == golden.SKEW_CONTENT_AS_STATED
    report("05 (skew golden: content as stated)")


def test_criterion_05_skew_content_derived_from_filling():
    # counting oracle over the criterion's own filling
    counts = Counter(e for row in golden.SKEW_FILLING for e in row)
    derived = tuple(counts.get(v, 0) for v in range(1, 7))
    assert derived == golden.SKEW_CONTENT_DERIVED
    sk = to_skew(SSYT(golden.SKEW_INPUT_ROWS), 4)
    assert sk.content(6) == derived
    report("05 (skew golden: content derived by counting)", "FAIL expected for the as-stated twin")


def test_criterion_06_bijection_suite():
    cases = 0
    for n in range(1, 6):
        for shape in shapes_within(8, n):
            for f in enumerate_patterns(shape, n):
                t = gt_to_ssyt(f)
                assert ssyt_to_gt(t, n) == f
                assert t.shape == shape
                assert multichain_to_ssyt(ssyt_to_multichain(t, n)) == t
                cases += 1
    assert cases > 1000
    pairs = 0
    for n in range(1, 6):
        lattice = TableauLattice.full(n)
        ind = {c: column_to_indicator(c) for c in lattice}
        for a in lattice:
            assert indicator_to_column(ind[a]) == a
            for b in lattice:
                assert (a <= b) == indicator_leq(ind[a], ind[b])
                assert ind[join(a, b)] == indicator_join(ind[a], ind[b])
                assert ind[meet(a, b)] == indicator_meet(ind[a], ind[b])
                pairs += 1
    report("06 (bijection suite)", f"{cases} round trips, {pairs} order pairs")


def test_criterion_07_dimension_oracle():
    lattices = {n: TableauLattice.full(n) for n in range(1, 6)}
    checked = 0
    for n in range(1, 6):
        for shape in shapes_within(4 * n, n, max_width=4):
            counts = {
                "ssyt": brute_ssyt_count(shape, n),
                "patterns": sum(1 for _ in enumerate_patterns(shape, n)),
                "standard": lattices[n].count_multichains(shape.transpose().rows),
                "weyl": weyl_product(shape, n),
            }
            assert len(set(counts.values())) == 1, (shape.rows, n, counts)
            checked += 1
    report("07 (dimension oracle)", f"{checked} shape/size pairs, 4 counts each")


def test_criterion_08_straightening_suite():
    n, m = 5, 3
    lattice = TableauLattice.bounded(n, m)
    pairs = 0
    for a, b in itertools.combinations(lattice.elements, 2):
        if a <= b or b <= a:
            continue
        pairs += 1
        # leading term, +1 coefficient, bracketing and integrality are
        # asserted inside the call
        expansion = straightening_relation(a, b, lattice)
        direct = minor(a, n, m) * minor(b, n, m)
        assert (expansion.to_polynomial(n, m) - direct).is_zero
    assert pairs > 0
    # the quadratic exchange case with coefficients (+1, -1) exactly
    l42 = TableauLattice.bounded(4, 2)
    expansion = straightening_relation(
        ColumnTableau((1, 4), 4), ColumnTableau((2, 3), 4), l42
    )
    terms = [(tuple(c.entries for c in chain), coeff) for chain, coeff in expansion.terms]
    assert terms == [(((1, 3), (2, 4)), 1), (((1, 2), (3, 4)), -1)]
    report("08 (straightening suite)", f"{pairs} incomparable pairs, residual 0")


def test_criterion_09_sagbi_suite():
    n, m = 5, 3
    lattice = TableauLattice.bounded(n, m)
    order = GlexOrder(n, m)
    for c in lattice:
        assert initial_monomial(minor(c, n, m), order) == (diagonal_monomial(c), 1)
    for a in lattice:
        for b in lattice:
            assert check_sagbi_pair(a, b, lattice, order)
    shapes_checked = 0
    for shape in shapes_within(4 * m, m, max_width=4):
        if shape.size == 0:
            continue
        depths = shape.transpose().rows
        if lattice.count_multichains(depths) > 20:
            continue
        initials = set()
        chains = 0
        for chain in lattice.multichains(depths):
            mono = diagonal_monomial(chain[0])
            for c in chain[1:]:
                mono = mono * diagonal_monomial(c)
            initials.add(mono.exps)
            chains += 1
        assert len(initials) == chains, shape.rows
        shapes_checked += 1
    assert shapes_checked > 0
    report(
        "09 (SAGBI suite)",
        f"{len(lattice)**2} pair identities, {shapes_checked} shapes distinct",
    )


def test_criterion_10_invariance_suite():
    n, m = 4, 3
    lattice = TableauLattice.bounded(n, m)
    for c in lattice:
        assert check_unipotent_invariance(c, n, m), c.label
    raw = MatrixPolynomial.variable(x_var(1, 2))
    assert not is_unipotent_invariant(raw, n, m)
    report("10 (invariance suite)", f"{len(lattice)} minors, negative control fails")


def test_criterion_11_hibi_rewrite_suite():
    lattice = TableauLattice.full(5)
    rng = random.Random(20250809)

    def random_monomial(max_degree=5):
        degree = rng.randint(2, max_degree)
        return HibiMonomial(
            lattice, [rng.choice(lattice.elements) for _ in range(degree)]
        )

    steps_checked = 0
    for _ in range(100):
        m = random_monomial()
        measures = [rank_measure(s) for s in straighten_steps(m)]
        assert all(x < y for x, y in zip(measures, measures[1:])), m.text
        steps_checked += len(measures) - 1
    confluence_inputs = [random_monomial(6) for _ in range(5)]
    for m in confluence_inputs:
        reference = straighten(m)
        for _ in range(1000):
            assert straighten(m, rng) == reference
    psi_checked = 0
    for _ in range(1000):
        m = random_monomial()
        (normal, coeff), = straighten(m).terms
        assert coeff == 1
        assert hibi_to_gt(m) == hibi_to_gt(normal)
        psi_checked += 1
    report(
        "11 (hibi rewrite suite)",
        f"{steps_checked} measured steps, 5x1000 confluence trials, "
        f"{psi_checked} pattern-map checks",
    )
