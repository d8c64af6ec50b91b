"""Self-check suites behind the command line ``check`` subcommand.

Each suite returns ``(cases, failures)``: the number of assertions tried
and a list of human-readable counterexample strings (empty on success).
"""

from __future__ import annotations

import random
from itertools import product as iproduct
from typing import Callable, Optional

from . import flagalg, gtpatterns, hibi, posets
from .posets import TableauLattice
from .tableaux import YoungDiagram


def _shapes(max_size: int, max_depth: int, max_width: Optional[int] = None):
    """All Young diagrams with at most max_size boxes and max_depth rows."""

    def rec(first: int, depth: int, left: int):
        yield ()
        if depth == 0 or left == 0:
            return
        hi = min(first, left) if max_width is None else min(first, left, max_width)
        for r in range(1, hi + 1):
            for rest in rec(r, depth - 1, left - r):
                yield (r,) + rest

    seen = set()
    for rows in rec(max_size, max_depth, max_size):
        if rows not in seen:
            seen.add(rows)
            yield YoungDiagram(rows)


def count_ssyt_brute(shape: YoungDiagram, n: int) -> int:
    """Independent tableau count: backtracking fill, no pattern machinery."""
    rows = list(shape.rows)
    rows = [r for r in rows if r > 0]
    if not rows:
        return 1
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    grid = [[0] * r for r in rows]
    total = 0

    def fill(pos: int) -> None:
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


def suite_birkhoff(n: int = 5) -> tuple[int, list[str]]:
    """Order isomorphism between columns and indicator patterns, the
    join/meet intertwining, the up-set count, and the join-irreducible
    picture of the GT poset."""
    cases = 0
    failures: list[str] = []
    gt = posets.GtPoset(n)
    upsets = posets.order_increasing_subsets(gt)  # checks the node guard
    lattice = TableauLattice.full(n)
    ind = {c: gtpatterns.column_to_indicator(c) for c in lattice}
    for a in lattice:
        cases += 1
        if gtpatterns.indicator_to_column(ind[a]) != a:
            failures.append(f"round trip failed at {a.label}")
    for a in lattice:
        for b in lattice:
            cases += 1
            if (a <= b) != gtpatterns.indicator_leq(ind[a], ind[b]):
                failures.append(f"order mismatch at {a.label}, {b.label}")
            if gtpatterns.indicator_join(ind[a], ind[b]) != ind[posets.join(a, b)]:
                failures.append(f"join not intertwined at {a.label}, {b.label}")
            if gtpatterns.indicator_meet(ind[a], ind[b]) != ind[posets.meet(a, b)]:
                failures.append(f"meet not intertwined at {a.label}, {b.label}")
    cases += 1
    count = sum(1 for _ in upsets)
    if count - 1 != len(lattice) or len(lattice) != 2**n - 1:
        failures.append(f"up-set count {count} vs lattice size {len(lattice)}")
    # join-irreducibles with an added greatest element match the GT poset
    cases += 1
    ji = posets.join_irreducibles(lattice)
    if len(ji) + 1 != len(gt):
        failures.append(f"{len(ji)} join-irreducibles vs {len(gt)} GT nodes")
    else:
        mapping = {}
        for c in ji:
            complement = [x for x in gt if x not in ind[c].support()]
            maxima = [
                x for x in complement
                if not any(y != x and posets.gt_geq(y, x) for y in complement)
            ]
            if len(maxima) != 1:
                failures.append(f"non-principal complement at {c.label}")
                break
            mapping[c] = maxima[0]
        else:
            top = posets.GtNode(n, 1)
            if top in mapping.values():
                failures.append("greatest GT node already used by a join-irreducible")
            for a in ji:
                for b in ji:
                    cases += 1
                    if (a <= b) != posets.gt_geq(mapping[b], mapping[a]):
                        failures.append(
                            f"irreducible order mismatch at {a.label}, {b.label}"
                        )
            for a in ji:
                cases += 1
                if not posets.gt_geq(top, mapping[a]):
                    failures.append(f"{a.label} not below the greatest node")
    return cases, failures


def suite_bijection(n: int = 5, max_size: int = 8) -> tuple[int, list[str]]:
    """Exhaustive pattern/tableau round trips over small shapes."""
    cases = 0
    failures: list[str] = []
    for shape in _shapes(max_size, n):
        for f in gtpatterns.enumerate_patterns(shape, n):
            cases += 1
            t = gtpatterns.gt_to_ssyt(f)
            if gtpatterns.ssyt_to_gt(t, n) != f:
                failures.append(f"pattern round trip failed at {f.rows}")
                if len(failures) > 5:
                    return cases, failures
            if t.shape != shape:
                failures.append(f"shape drift at {f.rows}")
            if gtpatterns.weight(f) != t.content(n):
                failures.append(f"weight/content mismatch at {f.rows}")
    return cases, failures


def suite_dimension(n: int = 5, max_width: int = 4) -> tuple[int, list[str]]:
    """Four independent counts of each irreducible label agree."""
    cases = 0
    failures: list[str] = []
    lattices = {size: TableauLattice.full(size) for size in range(1, n + 1)}
    for shape in _shapes(max_width * n, n, max_width):
        for size in range(max(shape.depth, 1), n + 1):
            brute = count_ssyt_brute(shape, size)
            patterns = sum(1 for _ in gtpatterns.enumerate_patterns(shape, size))
            standard = hibi.graded_dimension(lattices[size], shape)
            weyl = gtpatterns.weyl_dimension(shape, size)
            cases += 1
            if not brute == patterns == standard == weyl:
                failures.append(
                    f"shape {shape.rows}, n={size}: "
                    f"ssyt={brute} patterns={patterns} standard={standard} weyl={weyl}"
                )
    return cases, failures


def suite_straightening(n: int = 5, m: int = 3) -> tuple[int, list[str]]:
    """Every incomparable pair straightens with zero residual; the
    relation's own leading/bracketing checks run inside the call."""
    cases = 0
    failures: list[str] = []
    lattice = TableauLattice.bounded(n, m)
    for i, a in enumerate(lattice.elements):
        for b in lattice.elements[i + 1:]:
            if a <= b or b <= a:
                continue
            cases += 1
            try:
                expansion = flagalg.straightening_relation(a, b, lattice)
            except ValueError as exc:
                failures.append(f"{a.label}, {b.label}: {exc}")
                continue
            lhs = flagalg.minor(a, n, m) * flagalg.minor(b, n, m)
            if not (expansion.to_polynomial(n, m) - lhs).is_zero:
                failures.append(f"{a.label}, {b.label}: nonzero residual")
    return cases, failures


def suite_sagbi(n: int = 5, m: int = 3) -> tuple[int, list[str]]:
    """Initial-monomial facts: the pair identity, diagonal initial
    monomials, and distinct initials across each small shape."""
    cases = 0
    failures: list[str] = []
    lattice = TableauLattice.bounded(n, m)
    order = flagalg.GlexOrder(n, m)
    for c in lattice:
        cases += 1
        mono, coeff = flagalg.initial_monomial(flagalg.minor(c, n, m), order)
        if mono != flagalg.diagonal_monomial(c) or coeff != 1:
            failures.append(f"initial of {c.label} is not its diagonal")
    for a in lattice:
        for b in lattice:
            cases += 1
            if not flagalg.check_sagbi_pair(a, b, lattice, order):
                failures.append(f"pair identity fails at {a.label}, {b.label}")
    for shape in _shapes(3 * m, m, 3):
        if shape.size == 0:
            continue
        if lattice.count_multichains(shape.transpose().rows) > 20:
            continue
        seen: dict[tuple, tuple] = {}
        for chain in lattice.multichains(shape.transpose().rows):
            cases += 1
            mono = flagalg.Monomial({})
            for c in chain:
                mono = mono * flagalg.diagonal_monomial(c)
            key = mono.exps
            if key in seen:
                failures.append(
                    f"shape {shape.rows}: chains collide on initial monomial"
                )
            seen[key] = chain
    return cases, failures


def suite_invariance(n: int = 4, m: int = 3) -> tuple[int, list[str]]:
    """Unitriangular invariance of every minor plus a negative control."""
    cases = 0
    failures: list[str] = []
    lattice = TableauLattice.bounded(n, m)
    for c in lattice:
        cases += 1
        if not flagalg.check_unipotent_invariance(c, n, m):
            failures.append(f"minor on {c.label} not invariant")
    if m >= 2:
        cases += 1
        raw = flagalg.MatrixPolynomial.variable(flagalg.x_var(1, 2))
        if flagalg.is_unipotent_invariant(raw, n, m):
            failures.append("negative control x[1,2] reported invariant")
    return cases, failures


def _random_monomial(lattice: TableauLattice, rng: random.Random,
                     max_degree: int = 5) -> hibi.HibiMonomial:
    degree = rng.randint(1, max_degree)
    factors = [rng.choice(lattice.elements) for _ in range(degree)]
    return hibi.HibiMonomial(lattice, factors)


def suite_hibi(n: int = 5, trials: int = 1000, seed: int = 0) -> tuple[int, list[str]]:
    """Rewrite termination measure, randomized confluence, and
    compatibility with the pattern homomorphism."""
    cases = 0
    failures: list[str] = []
    rng = random.Random(seed)
    lattice = TableauLattice.full(n)
    inputs = [_random_monomial(lattice, rng) for _ in range(20)]
    for mono in inputs:
        prev = None
        for step in hibi.straighten_steps(mono):
            cases += 1
            measure = hibi.rank_measure(step)
            if prev is not None and measure <= prev:
                failures.append(f"measure did not increase at {step.text}")
            prev = measure
    for mono in inputs[:5]:
        reference = hibi.straighten(mono)
        for _ in range(trials):
            cases += 1
            if hibi.straighten(mono, rng) != reference:
                failures.append(f"confluence broken at {mono.text}")
                break
    for _ in range(trials):
        cases += 1
        mono = _random_monomial(lattice, rng)
        straightened = hibi.straighten(mono)
        (normal, coeff), = straightened.terms
        if coeff != 1 or hibi.hibi_to_gt(mono) != hibi.hibi_to_gt(normal):
            failures.append(f"pattern image changed at {mono.text}")
    return cases, failures


def suite_distributivity(n: int = 4, trials: int = 10000, seed: int = 0) -> tuple[int, list[str]]:
    """Join distributes over meet on every family, exhaustively for small
    lattices and on random triples for larger ones."""
    cases = 0
    failures: list[str] = []
    rng = random.Random(seed)
    families = [TableauLattice.full(n), TableauLattice.bounded(n, max(1, n - 1))]
    if n >= 2:
        families.append(TableauLattice.grassmannian(n, 2))
    if n % 2 == 0:
        families.append(TableauLattice.symplectic(n))
    if n >= 3:
        families.append(TableauLattice.branching(n, min(3, n - 1), n // 2))
    for lattice in families:
        elems = lattice.elements
        if len(elems) ** 3 <= 20000:
            triples = iproduct(elems, elems, elems)
        else:
            triples = (
                (rng.choice(elems), rng.choice(elems), rng.choice(elems))
                for _ in range(trials)
            )
        for a, b, c in triples:
            cases += 1
            lhs = posets.join(a, posets.meet(b, c))
            rhs = posets.meet(posets.join(a, b), posets.join(a, c))
            if lhs.entries != rhs.entries:
                failures.append(
                    f"{lattice.family.value}: distributivity fails at "
                    f"{a.label}, {b.label}, {c.label}"
                )
                break
    return cases, failures


SUITES: dict[str, Callable[..., tuple[int, list[str]]]] = {
    "birkhoff": suite_birkhoff,
    "bijection": suite_bijection,
    "dimension": suite_dimension,
    "straightening": suite_straightening,
    "sagbi": suite_sagbi,
    "invariance": suite_invariance,
    "hibi": suite_hibi,
    "distributivity": suite_distributivity,
}
