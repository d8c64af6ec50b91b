"""Checks of the benchmark itself: each oracle accepts the program's real
output and rejects a deliberately corrupted copy of it, and the oracles'
own arithmetic agrees with brute force on small cases.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
import run
import spans
import workloads

MODS = run.load_program()


def cli(argv, stdin=""):
    return workloads.run_cli(MODS.cli, argv, stdin)


# -- lattice ----------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["hasse", "L", "4"], ["hasse", "B", "6", "3", "3"], ["hasse", "P", "6"],
    ["hasse", "gt-sub", "G", "7", "3"], ["hasse", "gt-sub", "Lm", "6", "2"],
])
def test_hasse_oracle_accepts_and_rejects(argv):
    out = cli(argv)
    assert oracles.check_hasse(argv, out) is None
    lines = out.split("\n")
    edge = next(i for i, line in enumerate(lines) if "->" in line)
    dropped_edge = "\n".join(lines[:edge] + lines[edge + 1:])
    assert oracles.check_hasse(argv, dropped_edge) is not None
    dropped_node = "\n".join(lines[:1] + lines[2:])
    assert oracles.check_hasse(argv, dropped_node) is not None
    greater, smaller = lines[edge].split(" -> ")
    reversed_edge = lines[:edge] + [f'  {smaller.strip().rstrip(";")} -> {greater.strip()};'] + lines[edge + 1:]
    assert oracles.check_hasse(argv, "\n".join(reversed_edge)) is not None


def test_column_covers_match_brute_force():
    for family, bounds in [("L", [5]), ("LM", [6, 3]), ("P", [6]), ("B", [7, 3, 3])]:
        members = oracles.family_members(family, bounds)
        brute = {
            (i, j)
            for i, a in enumerate(members) for j, b in enumerate(members)
            if i != j and oracles.col_geq(a, b)
            and not any(c not in (a, b) and oracles.col_geq(a, c) and oracles.col_geq(c, b)
                        for c in members)
        }
        assert oracles.column_covers(members) == brute


# -- hibi -------------------------------------------------------------------

def test_hibi_oracle_accepts_and_rejects():
    lattice = MODS.posets.TableauLattice.full(5)
    terms = [
        (Fraction(3), [(1, 4), (2, 3), (5,)]),
        (Fraction(-2, 3), [(2, 5), (1, 3, 4), (2,), (1, 2)]),
    ]
    hibi = MODS.hibi
    out = hibi.format_polynomial(hibi.straighten(
        hibi.parse_polynomial(workloads.polynomial_text(terms), lattice)))
    assert oracles.check_hibi(terms, out) is None
    flipped = out.replace("- ", "+ ", 1) if "- " in out else out.replace("+ ", "- ", 1)
    assert flipped != out
    assert oracles.check_hibi(terms, flipped) is not None
    assert oracles.check_hibi(terms, out.replace("3*", "4*", 1)) is not None


def test_standard_form_fixes_standard_monomials():
    chain = ((1, 2, 4), (2, 3), (2, 5), (4,))
    assert oracles.standard_form(chain[::-1]) == chain


# -- flag -------------------------------------------------------------------

def test_relation_oracle_accepts_and_rejects():
    lattice = MODS.posets.TableauLattice.bounded(6, 3)
    by_entries = {c.entries: c for c in lattice.elements}
    a, b = by_entries[(1, 4)], by_entries[(2, 3, 5)]
    expansion = MODS.flagalg.straightening_relation(a, b, lattice)
    terms = [(tuple(c.entries for c in chain), coeff) for chain, coeff in expansion.terms]
    assert len(terms) >= 2

    def check(ts):
        return oracles.check_relation(a.entries, b.entries, 6, 3, ts, random.Random(0))

    assert check(terms) is None
    flipped = [terms[0]] + [(terms[1][0], -terms[1][1])] + terms[2:]
    assert check(flipped) is not None
    assert check(terms[:-1]) is not None
    assert check([((b.entries, a.entries), 1)]) is not None  # not a multichain
    assert len(terms) <= workloads.bracket_count(a.entries, b.entries)


def test_bareiss_matches_leibniz():
    rng = random.Random(3)
    for k in range(1, 6):
        m = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
        leibniz = 0
        for perm in itertools.permutations(range(k)):
            sign = (-1) ** sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
            prod = 1
            for r, c in enumerate(perm):
                prod *= m[r][c]
            leibniz += sign * prod
        assert oracles.det(m) == leibniz


# -- patterns ---------------------------------------------------------------

def test_dim_oracle_accepts_and_rejects():
    out = cli(["dim", "(3,1)", "4"])
    assert oracles.check_dim((3, 1), 4, out) is None
    assert oracles.check_dim((3, 1), 4, f"{int(out) + 1}\n") is not None


def test_weyl_matches_brute_force():
    def brute(top):
        if len(top) == 1:
            return 1
        ranges = [range(top[j + 1], top[j] + 1) for j in range(len(top) - 1)]
        return sum(brute(low) for low in itertools.product(*ranges))

    for top, n in [((2, 1), 3), ((3, 1), 4), ((2, 2, 1), 4), ((4, 2), 5)]:
        assert oracles.weyl_count(top, n) == brute(tuple(top) + (0,) * (n - len(top)))


def test_convert_oracle_accepts_and_rejects():
    rng = random.Random(7)
    rows = workloads.random_ssyt(rng, [4, 3, 1], 6)
    text = oracles.canonical({"rows": rows, "shape": [4, 3, 1]})
    gt = cli(["convert", "--from", "ssyt", "--to", "gt", "--n", "6", "-"], text)
    back = cli(["convert", "--from", "gt", "--to", "ssyt", "-"], gt)
    assert oracles.check_convert(text, rows, 6, gt, back) is None
    bad_rows = [list(r) for r in rows]
    bad_rows[-1][-1] = 6 if bad_rows[-1][-1] != 6 else 5
    bad_back = oracles.canonical({"rows": bad_rows, "shape": [4, 3, 1]}) + "\n"
    assert bad_back != back
    assert oracles.check_convert(text, rows, 6, gt, bad_back) is not None
    assert oracles.check_convert(text, rows, 6, gt.replace("1", "2", 1), back) is not None


def test_random_ssyt_is_semistandard():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 9)
        shape = sorted((rng.randint(1, 6) for _ in range(rng.randint(1, n))), reverse=True)
        rows = workloads.random_ssyt(rng, shape, n)
        MODS.tableaux.SSYT(rows)  # raises if a row or column is out of order
        assert all(1 <= e <= n for r in rows for e in r)


# -- tracing ----------------------------------------------------------------

def test_spans_self_time_and_uninstall():
    originals = {attr: MODS.posets.__dict__[attr] for attr in ("hasse", "to_dot")}
    tracer = spans.Tracer()
    undo = spans.install(tracer, MODS)
    try:
        out = cli(["hasse", "L", "4"])
    finally:
        spans.uninstall(undo)
    assert {attr: MODS.posets.__dict__[attr] for attr in originals} == originals
    metrics = spans.layer_metrics(tracer, {})
    assert metrics["posets.build_calls"] == 1
    assert metrics["posets.elements"] == 15
    assert metrics["posets.hasse_edges"] == out.count("->")
    assert metrics["cli.out_bytes"] == len(out.encode())
    total, _ = tracer.self_times({})
    main = next(i for i, nid in enumerate(tracer.name_id) if tracer.names[nid] == "cli.main")
    assert sum(total.values()) == pytest.approx(tracer.end[main] - tracer.start[main])
