"""The benchmark's four workloads.

Each workload is a closed loop run by one client: the next op starts when
the previous one has returned and been checked.  Ops are grouped into
rounds whose mix of cost classes is fixed, and a run always ends on a
round boundary, so the seed changes which inputs are drawn but not how
much of each kind of work a run contains.  ``prepare`` is the session
set-up (lattice builds, cache warm-up, input tables) and is timed as part
of ``setup_s``; ``round`` draws the next round of ops from the seeded RNG;
``run`` is the timed call into the program; ``check`` is the oracle and
runs outside the timed region.
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from typing import Optional

import oracles


class OpFailed(Exception):
    """The program returned a non-zero exit code."""


def run_cli(cli, argv: list[str], stdin: str = "") -> str:
    """Run ``cli.main(argv)`` in-process with stdin, stdout and stderr held
    in memory; return what it printed."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise OpFailed(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Lattice:
    """``hasse`` over every family and bound in the catalogue, plain and as
    ``gt-sub``; one round is the whole catalogue in seeded order, so every
    run does the same work and the seed sets only its order."""

    name = "lattice"
    block_rounds = 1

    def prepare(self, mods, rng: random.Random):
        return None

    def round(self, state, rng: random.Random) -> list:
        combos = [("L", n) for n in range(6, 10)]
        combos += [("Lm", n, m) for n in range(8, 11) for m in range(2, 5)]
        combos += [("G", n, m) for n in range(8, 11) for m in range(3, 6)]
        combos += [("P", n) for n in (6, 8, 10)]
        combos += [("B", n, m, k) for n in range(8, 11) for m in range(2, 5) for k in (2, 4, 6)]
        ops = [
            ["hasse", *pre, family, *map(str, bounds)]
            for family, *bounds in combos
            for pre in ([], ["gt-sub"])
        ]
        rng.shuffle(ops)
        return ops

    def run(self, mods, state, argv):
        return run_cli(mods.cli, argv)

    def check(self, state, argv, out, rng) -> Optional[str]:
        return oracles.check_hasse(argv, out)


def _random_coefficient(rng: random.Random) -> Fraction:
    c = Fraction(rng.randint(1, 9), rng.choice((1, 1, 1, 2, 3)))
    return c if rng.random() < 0.5 else -c


def polynomial_text(terms) -> str:
    """Input text for ``parse_polynomial``; factors are left unsorted."""
    parts = []
    for i, (coeff, factors) in enumerate(terms):
        body = "*".join("x" + oracles.col_label(f) for f in factors)
        mag = abs(coeff)
        body = body if mag == 1 else f"{mag}*{body}"
        sign = "-" if coeff < 0 else "+"
        parts.append(("-" + body if sign == "-" else body) if i == 0 else f"{sign} {body}")
    return " ".join(parts)


class Hibi:
    """Straightening of seeded polynomials over the full lattice on 1..9;
    one round holds one polynomial of each degree 4..16."""

    name = "hibi"
    block_rounds = 60
    n = 9

    def prepare(self, mods, rng: random.Random):
        lattice = mods.posets.TableauLattice.full(self.n)
        lattice.rank(lattice.elements[-1])  # fills the lazy rank cache
        return lattice

    def round(self, state, rng: random.Random) -> list:
        degrees = list(range(4, 17))
        rng.shuffle(degrees)
        ops = []
        for degree in degrees:
            terms = []
            for _ in range(rng.randint(1, 5)):
                factors = [
                    tuple(sorted(rng.sample(range(1, self.n + 1), rng.randint(1, self.n))))
                    for _ in range(degree)
                ]
                terms.append((_random_coefficient(rng), factors))
            ops.append((polynomial_text(terms), terms))
        return ops

    def run(self, mods, lattice, op):
        hibi = mods.hibi
        return hibi.format_polynomial(hibi.straighten(hibi.parse_polynomial(op[0], lattice)))

    def check(self, lattice, op, out, rng) -> Optional[str]:
        return oracles.check_hibi(op[1], out)


def bracket_count(a: tuple, b: tuple) -> int:
    """Number of standard pairs (K <= L) that could appear in the
    straightening relation of ``d_a * d_b``: K and L split the multiset of
    rows of a and b, keep their depths, and bracket the meet-join chain.
    The relation has at most this many terms, and its cost grows with them."""
    deep, shallow = (a, b) if len(a) >= len(b) else (b, a)
    lo = tuple(min(x, y) for x, y in zip(deep, shallow)) + deep[len(shallow):]
    hi = tuple(max(x, y) for x, y in zip(deep, shallow))
    rows = sorted(a + b)
    count = 0
    for picks in set(combinations(rows, len(deep))):
        rest = list(rows)
        for r in picks:
            rest.remove(r)
        k, l = picks, tuple(rest)
        if (len(set(k)) == len(k) and len(set(l)) == len(l) and oracles.col_geq(l, k)
                and oracles.col_geq(lo, k) and oracles.col_geq(l, hi)):
            count += 1
    return count


class Flag:
    """Straightening relations of incomparable minor pairs in the bounded
    lattices on 1..8 of widths 4 and 5.  One round draws a fixed number of
    pairs from each class of (width, depths, bracket count).  The counts put
    the median inside the 6-16 ms classes and the 90th percentile inside the
    heaviest class drawn three times a round."""

    name = "flag"
    block_rounds = 6
    n = 8
    # (pairs per round, width, shallower depth, deeper depth, bracket counts).
    # Pairs whose relation may have more than 6 terms are never drawn, nor
    # are pairs of two depth-5 minors: either costs 1-3 s on the baseline
    # machine (perfbench/README.md), and a few
    # of them would decide a run's throughput alone.
    ANY = range(1, 7)
    ROUND = [
        (1, 4, 1, 2, ANY), (1, 4, 2, 2, ANY), (2, 4, 1, 3, ANY), (2, 4, 2, 3, ANY),
        (2, 4, 1, 4, ANY), (2, 4, 3, 3, ANY), (2, 4, 2, 4, ANY),
        (1, 4, 3, 4, ANY), (1, 4, 4, 4, ANY), (1, 5, 1, 5, ANY), (1, 5, 2, 5, ANY),
        (1, 5, 3, 5, ANY), (1, 5, 4, 5, range(2, 3)), (3, 5, 4, 5, range(3, 4)),
        (1, 5, 4, 5, range(5, 6)),
    ]

    def prepare(self, mods, rng: random.Random):
        lattices = {m: mods.posets.TableauLattice.bounded(self.n, m) for m in (4, 5)}
        classes: dict[tuple[int, int, int], list] = {c[1:4]: [] for c in self.ROUND}
        for m, lattice in lattices.items():
            for a, b in combinations(lattice.elements, 2):
                if oracles.comparable(a.entries, b.entries):
                    continue
                key = (m, *sorted((a.depth, b.depth)))
                if key in classes:
                    classes[key].append((a, b))
        return lattices, classes

    def round(self, state, rng: random.Random) -> list:
        _, classes = state
        ops = []
        for count, *key, brackets in self.ROUND:
            while count:
                a, b = rng.choice(classes[tuple(key)])
                if bracket_count(a.entries, b.entries) in brackets:
                    ops.append((key[0], *((a, b) if rng.random() < 0.5 else (b, a))))
                    count -= 1
        rng.shuffle(ops)
        return ops

    def run(self, mods, state, op):
        m, a, b = op
        return mods.flagalg.straightening_relation(a, b, state[0][m])

    def check(self, state, op, out, rng) -> Optional[str]:
        m, a, b = op
        terms = [(tuple(c.entries for c in chain), coeff) for chain, coeff in out.terms]
        return oracles.check_relation(a.entries, b.entries, self.n, m, terms, rng)


def _partitions(max_part: int, max_len: int):
    def rec(prefix, limit):
        if prefix:
            yield tuple(prefix)
        if len(prefix) < max_len:
            for part in range(min(limit, max_part), 0, -1):
                yield from rec(prefix + [part], part)
    yield from rec([], max_part)


def random_ssyt(rng: random.Random, shape: list[int], n: int) -> list[list[int]]:
    """A random semistandard filling with entries in 1..n.  Each cell is
    drawn between its left/upper lower bound and the largest value that
    still leaves room for the cells below it in its column."""
    heights = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    rows: list[list[int]] = []
    for i, length in enumerate(shape):
        row: list[int] = []
        for j in range(length):
            lo = max(row[j - 1] if j else 1, rows[i - 1][j] + 1 if i else 1)
            hi = n - (heights[j] - 1 - i)
            row.append(rng.randint(lo, hi))
        rows.append(row)
    return rows


class Patterns:
    """``dim`` by enumeration and ssyt->gt->ssyt ``convert`` round trips.
    One round holds eight conversions and four ``dim`` calls: one small,
    one medium and two large, each band a narrow range of pattern counts.
    Conversions are two thirds of the ops, so they set the median; the two
    large counts are a sixth, so they set the 90th percentile."""

    name = "patterns"
    block_rounds = 7
    CONVERTS = 8
    # (n, lowest count, highest count, calls per round)
    BANDS = ((5, 800, 1000, 1), (6, 6000, 7500, 1), (7, 30000, 36000, 2))

    def prepare(self, mods, rng: random.Random):
        tops = []
        for n, lo, hi, _ in self.BANDS:
            tops.append([p for p in _partitions(8, n) if lo <= oracles.weyl_count(p, n) <= hi])
        return tops

    def round(self, tops, rng: random.Random) -> list:
        ops = []
        for _ in range(self.CONVERTS):
            n = rng.randint(4, 9)
            depth = rng.randint(1, min(n, 5))
            shape = sorted((rng.randint(1, 6) for _ in range(depth)), reverse=True)
            rows = random_ssyt(rng, shape, n)
            text = oracles.canonical({"rows": rows, "shape": shape})
            ops.append(("convert", text, rows, n))
        for (n, _, _, count), candidates in zip(self.BANDS, tops):
            for _ in range(count):
                top = rng.choice(candidates)
                ops.append(("dim", "(" + ",".join(map(str, top)) + ")", top, n))
        rng.shuffle(ops)
        return ops

    def run(self, mods, tops, op):
        if op[0] == "dim":
            return run_cli(mods.cli, ["dim", op[1], str(op[3])])
        _, text, _, n = op
        gt = run_cli(mods.cli, ["convert", "--from", "ssyt", "--to", "gt", "--n", str(n), "-"], text)
        return gt, run_cli(mods.cli, ["convert", "--from", "gt", "--to", "ssyt", "-"], gt)

    def check(self, tops, op, out, rng) -> Optional[str]:
        if op[0] == "dim":
            return oracles.check_dim(op[2], op[3], out)
        _, text, rows, n = op
        return oracles.check_convert(text, rows, n, *out)


WORKLOADS = {w.name: w for w in (Lattice(), Hibi(), Flag(), Patterns())}
