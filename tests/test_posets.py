import itertools
import random

import pytest

from hibilab.checks import suite_birkhoff
from hibilab.posets import (
    ConstantPolicy,
    Family,
    GtNode,
    GtPoset,
    TableauLattice,
    _code,
    _join,
    _lower_covers,
    _meet,
    associated_gt_subposet,
    gt_geq,
    hasse,
    join,
    join_irreducibles,
    meet,
    order_increasing_subsets,
    to_dot,
)
from hibilab.tableaux import ColumnTableau

import golden


def col(entries, n):
    return ColumnTableau(entries, n)


class TestTabOrder:
    def test_examples(self):
        assert col((1, 3), 4) <= col((2,), 4)
        assert not col((1, 4), 4) <= col((2, 3), 4)
        assert not col((2, 3), 4) <= col((1, 4), 4)
        assert col((1, 2, 3), 4) <= col((1, 2, 3), 4)

    def test_join_meet_examples(self):
        a, b = col((1, 4), 4), col((2, 3), 4)
        assert join(a, b).entries == (2, 4)
        assert meet(a, b).entries == (1, 3)
        c, d = col((2,), 4), col((3, 4), 4)
        assert join(c, d).entries == (3,)
        assert meet(c, d).entries == (2, 4)

    def test_idempotence(self):
        for entries in [(1,), (2, 4), (1, 2, 3)]:
            x = col(entries, 4)
            assert join(x, x).entries == entries
            assert meet(x, x).entries == entries

    def test_join_meet_are_bounds(self):
        lattice = TableauLattice.full(4)
        for a, b in itertools.combinations(lattice.elements, 2):
            j, m = join(a, b), meet(a, b)
            assert a <= j and b <= j
            assert m <= a and m <= b
            for c in lattice:
                if a <= c and b <= c:
                    assert j <= c
                if c <= a and c <= b:
                    assert c <= m


class TestGtOrder:
    def test_closed_form_matches_generators(self):
        # oracle: reflexive-transitive closure of the generating relations
        for n in range(1, 7):
            nodes = [GtNode(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
            above = {x: set() for x in nodes}
            for i in range(1, n):
                for j in range(1, i + 1):
                    above[GtNode(i, j)].add(GtNode(i + 1, j))
                    above[GtNode(i + 1, j + 1)].add(GtNode(i, j))
            closure = {x: {x} for x in nodes}
            changed = True
            while changed:
                changed = False
                for x in nodes:
                    grown = set(closure[x])
                    for y in list(grown):
                        grown |= {z for u in above[y] for z in closure[u]}
                        grown |= above[y]
                    if grown != closure[x]:
                        closure[x] = grown
                        changed = True
            for x in nodes:
                for y in nodes:
                    assert gt_geq(y, x) == (y in closure[x]), (x, y)

    def test_bounded_node_set(self):
        p = GtPoset(5, 3)
        assert {(x.level, x.index) for x in p} == {
            (i, j) for i in range(1, 6) for j in range(1, min(i, 3) + 1)
        }

    def test_labels(self):
        assert GtNode(4, 2).label == "z^(4)_2"


class TestHasse:
    def test_l4_golden(self):
        edges = {
            (g.entries, s.entries) for g, s in hasse(TableauLattice.full(4))
        }
        assert edges == golden.L4_COVER_EDGES

    def test_gt4_golden(self):
        p = GtPoset(4)
        assert len(p) == 10
        edges = {
            ((g.level, g.index), (s.level, s.index)) for g, s in hasse(p)
        }
        assert edges == golden.GT4_COVER_EDGES

    def test_single_node(self):
        assert hasse(GtPoset(1)) == []

    def test_transitive_closure_recovers_order(self):
        p = GtPoset(5, 2)
        edges = hasse(p)
        reach = {x: {x} for x in p}
        changed = True
        while changed:
            changed = False
            for g, s in edges:
                for x in p:
                    if g in reach[x] and s not in reach[x]:
                        reach[x].add(s)
                        changed = True
        for x in p:
            for y in p:
                assert (y in reach[x]) == gt_geq(x, y)


class TestJoinIrreducibles:
    def test_l4_golden(self):
        ji = {c.entries for c in join_irreducibles(TableauLattice.full(4))}
        assert ji == {
            (1,), (1, 2), (1, 2, 3), (4,), (1, 4), (1, 2, 4),
            (3, 4), (1, 3, 4), (2, 3, 4),
        }

    def test_l2_brute_force(self):
        lattice = TableauLattice.full(2)
        # oracle: x is irreducible iff not minimum and not a join of two
        # strictly smaller elements
        expected = set()
        bottom = min(lattice.elements, key=lambda c: sum(1 for d in lattice if c <= d))
        bottom = [c for c in lattice if all(c <= d for d in lattice)][0]
        for x in lattice:
            if x == bottom:
                continue
            if any(
                join(a, b) == x
                for a in lattice for b in lattice
                if a < x and b < x
            ):
                continue
            expected.add(x.entries)
        assert {c.entries for c in join_irreducibles(lattice)} == expected
        # the top is irreducible here (one lower cover); the bottom never is
        assert expected == {(1,), (2,)}

    def test_two_element_chain(self):
        chain = TableauLattice.grassmannian(2, 1)
        assert {c.entries for c in join_irreducibles(chain)} == {(2,)}


class TestUpSets:
    def test_counts(self):
        assert sum(1 for _ in order_increasing_subsets(GtPoset(3))) == 8
        assert sum(1 for _ in order_increasing_subsets(GtPoset(4))) == 16

    def test_empty_poset(self):
        p = GtPoset(1, nodes=[])
        assert list(order_increasing_subsets(p)) == [frozenset()]

    def test_all_results_up_closed(self):
        p = GtPoset(4)
        for sub in order_increasing_subsets(p):
            for x in sub:
                for y in p:
                    if gt_geq(y, x):
                        assert y in sub

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            list(order_increasing_subsets(GtPoset(7)))

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("HIBILAB_MAX_NODES", "28")
        assert sum(1 for _ in order_increasing_subsets(GtPoset(7))) == 2**7

    def test_birkhoff_count(self):
        for n in range(1, 6):
            upsets = sum(1 for _ in order_increasing_subsets(GtPoset(n)))
            assert upsets - 1 == len(TableauLattice.full(n)) == 2**n - 1


class TestFamilies:
    def test_grassmannian_size(self):
        import math

        for n in range(1, 8):
            for m in range(1, min(n, 3) + 1):
                assert len(TableauLattice.grassmannian(n, m)) == math.comb(n, m)

    def test_symplectic_floor(self):
        p6 = TableauLattice.symplectic(6)
        floor = col((1, 3, 5), 6)
        assert all(floor <= c for c in p6)

    def test_branching_forms(self):
        b = TableauLattice.branching(5, 3, 2)
        for c in b:
            run = 0
            while run < c.depth and c.entries[run] == run + 1 and run + 1 <= 2:
                run += 1
            assert all(e > 2 for e in c.entries[run:])

    def test_full_closure_verified(self):
        # closure holds by construction for every family; spot check sizes
        assert len(TableauLattice.full(5)) == 31
        assert len(TableauLattice.bounded(5, 3)) == 25

    def test_distributivity_exhaustive_small(self):
        for n in (2, 3, 4):
            lattice = TableauLattice.full(n)
            for a, b, c in itertools.product(lattice, repeat=3):
                assert join(a, meet(b, c)).entries == meet(join(a, b), join(a, c)).entries

    def test_distributivity_random_n7(self):
        rng = random.Random(42)
        lattice = TableauLattice.bounded(7, 3)
        elems = lattice.elements
        for _ in range(10_000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert join(a, meet(b, c)).entries == meet(join(a, b), join(a, c)).entries

    def test_rank_grading(self):
        lattice = TableauLattice.full(4)
        for g, s in hasse(lattice):
            assert lattice.rank(g) == lattice.rank(s) + 1
        for a, b in itertools.combinations(lattice.elements, 2):
            assert lattice.rank(join(a, b)) + lattice.rank(meet(a, b)) == \
                lattice.rank(a) + lattice.rank(b)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            TableauLattice.full(12)


def small_families():
    for n in range(1, 7):
        yield TableauLattice.full(n)
        for m in range(1, n + 1):
            yield TableauLattice.bounded(n, m)
            yield TableauLattice.grassmannian(n, m)
            for k in range(1, n):
                yield TableauLattice.branching(n, m, k)
        if n % 2 == 0:
            yield TableauLattice.symplectic(n)


class TestOrderTable:
    def test_table_matches_tableau_order(self):
        for lattice in small_families():
            below = lattice.below()
            elems = lattice.elements
            for i, c in enumerate(elems):
                assert lattice.index(c) == i
                for j, d in enumerate(elems):
                    assert bool(below[i] >> j & 1) == (d <= c and i != j), (c, d)

    def test_gt_table_matches_closed_form(self):
        for p in (GtPoset(5), GtPoset(6, 2), GtPoset(4, nodes=[(4, 1), (3, 2), (2, 1)])):
            below, elems = p.below(), p.elements
            for i, x in enumerate(elems):
                for j, y in enumerate(elems):
                    assert bool(below[i] >> j & 1) == (x != y and gt_geq(x, y))

    def test_rank_is_longest_chain_below(self):
        for lattice in [TableauLattice.full(5), TableauLattice.branching(6, 3, 2)]:
            height = {}
            for c in lattice.elements:  # smaller elements come first
                height[c] = max((height[d] + 1 for d in height if d < c), default=0)
            assert all(lattice.rank(c) == h for c, h in height.items())

    def test_multichain_count_matches_brute_force(self):
        lattice = TableauLattice.bounded(5, 3)
        for depths in [(), (1,), (2, 1), (3, 3, 1), (2, 2, 2), (4, 1), (3, 1, 1, 1)]:
            pools = [
                [c for c in lattice if c.depth == d] for d in sorted(depths, reverse=True)
            ]
            brute = [
                chain for chain in itertools.product(*pools)
                if all(a <= b for a, b in zip(chain, chain[1:]))
            ]
            assert list(lattice.multichains(depths)) == brute
            assert lattice.count_multichains(depths) == len(brute)


class TestCodes:
    def test_join_meet_are_and_or(self):
        for lattice in small_families():
            n = lattice.n
            for a, b in itertools.combinations(lattice.elements, 2):
                ca, cb = _code(a.entries, n), _code(b.entries, n)
                assert _code(_join(a.entries, b.entries), n) == ca & cb, (a, b)
                assert _code(_meet(a.entries, b.entries), n) == ca | cb, (a, b)
                assert (ca | cb == ca) == (a <= b) and (ca | cb == cb) == (b <= a), (a, b)

    @pytest.mark.parametrize("entries", [
        [(1,), (2, 4), (2, 3)],  # join fails; the first pair [2,3], [2,4] is closed
        [(2,), (1,), (2, 3)],  # closed under join, not under meet
    ])
    def test_first_failing_pair_is_named(self, entries):
        with pytest.raises(ValueError) as exc:
            TableauLattice(4, Family.FULL, None, None, [col(e, 4) for e in entries])
        assert str(exc.value) == "family L not closed under join/meet at [2,3], [1]"


class TestCovers:
    def test_matches_brute_force(self):
        gt_posets = [GtPoset(5), GtPoset(6, 2), GtPoset(4, nodes=[(4, 1), (3, 2), (2, 1)])]
        for p in itertools.chain(small_families(), gt_posets):
            below = p.below()
            for c, covers in enumerate(_lower_covers(below)):
                brute = 0
                for d in range(len(below)):
                    between = any(below[c] >> e & 1 and below[e] >> d & 1
                                  for e in range(len(below)))
                    if below[c] >> d & 1 and not between:
                        brute |= 1 << d
                assert covers == brute, (p, c)

    def test_gt_elements_are_a_linear_extension(self):
        for p in (GtPoset(8), GtPoset(6, 2), GtPoset(4, nodes=[(4, 1), (3, 2), (2, 1)])):
            elems = p.elements
            for i, x in enumerate(elems):
                assert not any(gt_geq(x, y) for y in elems[i + 1:]), x


class TestLatticeIdentity:
    def test_element_set_decides_equality(self):
        lone = TableauLattice(3, Family.FULL, None, None, [ColumnTableau((1,), 3)])
        assert lone != TableauLattice.full(3)
        assert len({lone, TableauLattice.full(3)}) == 2
        assert TableauLattice.full(3) == TableauLattice.full(3)
        assert hash(TableauLattice.full(3)) == hash(TableauLattice.full(3))

    def test_non_closed_set_rejected(self):
        with pytest.raises(ValueError, match="not closed under join/meet"):
            TableauLattice(4, Family.FULL, None, None, [col((1, 4), 4), col((2, 3), 4)])

    def test_membership(self):
        grass = TableauLattice.grassmannian(4, 2)
        assert col((1, 3), 4) in grass
        assert col((1,), 4) not in grass
        assert col((1, 3), 5) not in grass


class TestAssociatedSubposet:
    def as_pairs(self, poset):
        nodes = {(x.level, x.index) for x in poset}
        edges = {((g.level, g.index), (s.level, s.index)) for g, s in hasse(poset)}
        return nodes, edges

    def test_grassmannian_73(self):
        sub = associated_gt_subposet(
            TableauLattice.grassmannian(7, 3), ConstantPolicy.DROP
        )
        assert self.as_pairs(sub) == (golden.FIG_GRASS_73_NODES, golden.FIG_GRASS_73_EDGES)

    def test_symplectic_6(self):
        sub = associated_gt_subposet(
            TableauLattice.symplectic(6), ConstantPolicy.KEEP_TOP
        )
        assert self.as_pairs(sub) == (golden.FIG_SYMPL_6_NODES, golden.FIG_SYMPL_6_EDGES)

    def test_branching_835(self):
        sub = associated_gt_subposet(
            TableauLattice.branching(8, 3, 5), ConstantPolicy.KEEP_TOP
        )
        assert self.as_pairs(sub) == (
            golden.FIG_BRANCH_835_NODES, golden.FIG_BRANCH_835_EDGES,
        )

    def test_branching_532(self):
        sub = associated_gt_subposet(
            TableauLattice.branching(5, 3, 2), ConstantPolicy.KEEP_TOP
        )
        assert self.as_pairs(sub) == (
            golden.FIG_BRANCH_532_NODES, golden.FIG_BRANCH_532_EDGES,
        )

    def test_default_policies_match_reference_pictures(self):
        drop = associated_gt_subposet(TableauLattice.grassmannian(7, 3))
        assert len(drop) == 12
        keep = associated_gt_subposet(TableauLattice.symplectic(6))
        assert len(keep) == 12

    def test_keep_all_adds_constant_class(self):
        sub = associated_gt_subposet(
            TableauLattice.grassmannian(7, 3), ConstantPolicy.KEEP_ALL
        )
        assert GtNode(7, 1) in sub
        assert len(sub) == 13

    def test_full_family_recovers_triangle(self):
        for n in (2, 3, 4):
            sub = associated_gt_subposet(TableauLattice.full(n))
            assert sub.nodes == GtPoset(n).nodes

    def test_bounded_family_recovers_bounded_triangle(self):
        sub = associated_gt_subposet(TableauLattice.bounded(5, 3))
        assert sub.nodes == GtPoset(5, 3).nodes

    def test_grassmannian_ideal_count(self):
        import math

        for n in range(2, 8):
            for m in range(1, min(3, n) + 1):
                sub = associated_gt_subposet(
                    TableauLattice.grassmannian(n, m), ConstantPolicy.DROP
                )
                # down-sets and up-sets are equinumerous (complementation)
                ideals = sum(1 for _ in order_increasing_subsets(sub))
                assert ideals == math.comb(n, m), (n, m)


class TestBirkhoffSuite:
    def test_full_suite_through_rank_5(self):
        # includes the explicit irreducibles-plus-top isomorphism onto the
        # GT poset, checked pairwise
        for n in range(1, 6):
            cases, failures = suite_birkhoff(n)
            assert not failures, failures[:3]
            assert cases > 0


class TestDot:
    def test_single_node_gt1(self):
        dot = to_dot(GtPoset(1))
        assert '"z^(1)_1";' in dot
        assert "->" not in dot

    def test_deterministic_and_labeled(self):
        lattice = TableauLattice.full(3)
        dot = to_dot(lattice)
        assert dot == to_dot(TableauLattice.full(3))
        assert '"[1,2,3]";' in dot
        assert '"[2]" -> "[1]";' in dot
