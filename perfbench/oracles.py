"""Independent oracles for the benchmark's four workloads.

Nothing here imports hibilab: every check recomputes the expected answer
from first principles (family predicates, an entrywise comparator, the
Weyl product, exact integer determinants) and compares it with what the
program returned.  Each ``check_*`` function returns ``None`` when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

Column = tuple  # strictly increasing tuple of ints in 1..n


# -- columns and their order ------------------------------------------------

def col_geq(a: Column, b: Column) -> bool:
    """Tableau order: ``a >= b`` iff ``a`` is no deeper and dominates ``b``
    entrywise over its own depth."""
    return len(a) <= len(b) and all(x >= y for x, y in zip(a, b))


def comparable(a: Column, b: Column) -> bool:
    return col_geq(a, b) or col_geq(b, a)


def col_label(c: Column) -> str:
    return "[" + ",".join(str(e) for e in c) + "]"


def family_members(family: str, bounds: Sequence[int]) -> list[Column]:
    """All columns of a lattice family, from each family's defining
    predicate over every nonempty subset of ``1..n``."""
    family = family.upper()
    n = bounds[0]
    out = []
    for depth in range(1, n + 1):
        for c in combinations(range(1, n + 1), depth):
            if family == "L":
                ok = True
            elif family == "LM":
                ok = depth <= bounds[1]
            elif family == "G":
                ok = depth == bounds[1]
            elif family == "P":
                ok = depth <= n // 2 and all(e >= 2 * i + 1 for i, e in enumerate(c))
            elif family == "B":
                m, k = bounds[1], bounds[2]
                low = [e for e in c if e <= k]
                ok = depth <= m and low == list(range(1, len(low) + 1))
            else:
                raise ValueError(f"unknown family {family}")
            if ok:
                out.append(c)
    return out


def column_covers(members: Sequence[Column]) -> set[tuple[int, int]]:
    """Cover pairs ``(i, j)``, element ``i`` covering element ``j``.

    ``below[i]`` is a bitset of the elements strictly under ``i``, built
    from per-position threshold sets, so the cost is a few big-integer
    operations per element rather than a comparison per pair.
    """
    n_elems = len(members)
    max_depth = max(len(c) for c in members)
    max_entry = max(c[-1] for c in members)
    # deep[d]: elements of depth >= d;  le[p][v]: elements whose entry at
    # position p exists and is <= v.
    deep = [0] * (max_depth + 2)
    le = [[0] * (max_entry + 1) for _ in range(max_depth)]
    for idx, c in enumerate(members):
        bit = 1 << idx
        for d in range(len(c) + 1):
            deep[d] |= bit
        for p, e in enumerate(c):
            for v in range(e, max_entry + 1):
                le[p][v] |= bit
    below = []
    for idx, c in enumerate(members):
        s = deep[len(c)]
        for p, e in enumerate(c):
            s &= le[p][e]
        below.append(s & ~(1 << idx))
    covers = set()
    for i in range(n_elems):
        under = 0
        mask = below[i]
        while mask:
            low = mask & -mask
            under |= below[low.bit_length() - 1]
            mask ^= low
        mask = below[i] & ~under
        while mask:
            low = mask & -mask
            covers.add((i, low.bit_length() - 1))
            mask ^= low
    return covers


# -- GT nodes and the subposet a family sees --------------------------------

def gt_geq(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Betweenness order on nodes ``(level, index)``."""
    return a[1] <= b[1] and a[0] - a[1] >= b[0] - b[1]


def gt_label(x: tuple[int, int]) -> str:
    return f"z^({x[0]})_{x[1]}"


def indicator(c: Column, level: int, index: int) -> int:
    """Value of the column's indicator pattern at node ``z^(level)_index``."""
    return 1 if sum(1 for e in c if e <= level) >= index else 0


def associated_nodes(family: str, bounds: Sequence[int]) -> list[tuple[int, int]]:
    """GT nodes kept for a family: one maximal node per class of nodes with
    equal indicator vectors, all-zero classes dropped, all-one classes kept
    only at the top level (or dropped entirely for the Grassmannian)."""
    n = bounds[0]
    members = family_members(family, bounds)
    classes: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for level in range(1, n + 1):
        for index in range(1, level + 1):
            vec = tuple(indicator(c, level, index) for c in members)
            classes.setdefault(vec, []).append((level, index))
    kept = []
    for vec, nodes in classes.items():
        if not any(vec):
            continue
        maxima = [x for x in nodes if not any(y != x and gt_geq(y, x) for y in nodes)]
        if len(maxima) != 1:
            raise ValueError(f"class {nodes} has {len(maxima)} maximal nodes")
        rep = maxima[0]
        if all(vec) and (family.upper() == "G" or rep[0] != n):
            continue
        kept.append(rep)
    return kept


def gt_covers(nodes: Sequence[tuple[int, int]]) -> set[tuple[int, int]]:
    covers = set()
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if i == j or not gt_geq(a, b):
                continue
            if not any(k not in (i, j) and gt_geq(a, c) and gt_geq(c, b)
                       for k, c in enumerate(nodes)):
                covers.add((i, j))
    return covers


# -- lattice workload: DOT of a Hasse diagram -------------------------------

_NODE_RE = re.compile(r'^  "([^"]+)";$')
_EDGE_RE = re.compile(r'^  "([^"]+)" -> "([^"]+)";$')


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    lines = text.split("\n")
    if lines[0] != "digraph {" or lines[-2:] != ["}", ""]:
        raise ValueError("not a DOT digraph block")
    nodes, edges = [], []
    for line in lines[1:-2]:
        e = _EDGE_RE.match(line)
        if e:
            edges.append((e.group(1), e.group(2)))
            continue
        m = _NODE_RE.match(line)
        if not m or edges:
            raise ValueError(f"unexpected DOT line {line!r}")
        nodes.append(m.group(1))
    return nodes, edges


def check_hasse(argv: Sequence[str], out: str) -> Optional[str]:
    """``argv`` is ``["hasse", family, *bounds]`` or ``["hasse", "gt-sub",
    family, *bounds]``; ``out`` is what the command printed."""
    gt_sub = argv[1] == "gt-sub"
    family = argv[2] if gt_sub else argv[1]
    bounds = [int(b) for b in argv[3 if gt_sub else 2:]]
    try:
        nodes, edges = parse_dot(out)
    except ValueError as exc:
        return str(exc)
    if gt_sub:
        elems = associated_nodes(family, bounds)
        labels = [gt_label(x) for x in elems]
        covers = gt_covers(elems)
    else:
        elems = family_members(family, bounds)
        labels = [col_label(c) for c in elems]
        covers = column_covers(elems)
    if nodes != sorted(labels):
        return f"node set differs: {len(nodes)} printed, {len(labels)} expected"
    expected = sorted((labels[i], labels[j]) for i, j in covers)
    if edges != expected:
        missing = set(expected) - set(edges)
        extra = set(edges) - set(expected)
        return (f"edges differ: {len(missing)} missing, {len(extra)} extra "
                f"(e.g. {sorted(missing or extra)[:1]})")
    return None


# -- hibi workload: straightening normal form ------------------------------

def standard_form(factors: Sequence[Column]) -> tuple[Column, ...]:
    """The standard monomial a product of columns straightens to: row r of
    its tableau is the sorted multiset of the factors' r-th entries (join
    and meet preserve that multiset).  Listed deepest column first."""
    depth = max(len(c) for c in factors)
    rows = [sorted(c[r] for c in factors if len(c) > r) for r in range(depth)]
    cols = [tuple(row[j] for row in rows if len(row) > j) for j in range(len(rows[0]))]
    return tuple(sorted(cols, key=lambda c: (-len(c), c)))


def _term_key(factors: Sequence[Column]) -> list:
    return [(-len(c), c) for c in factors]


def format_hibi(terms: dict[tuple[Column, ...], Fraction]) -> str:
    """Text of a polynomial in the program's documented form: terms sorted
    by factor keys, unit coefficients implicit, ``+``/``-`` separators."""
    if not terms:
        return "0"
    parts = []
    for i, key in enumerate(sorted(terms, key=_term_key)):
        c = terms[key]
        body = "*".join("x" + col_label(f) for f in key) or "1"
        mag = abs(c)
        body = body if mag == 1 else f"{mag}*{body}"
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def hibi_expected(terms: Sequence[tuple[Fraction, Sequence[Column]]]) -> str:
    merged: dict[tuple[Column, ...], Fraction] = {}
    for coeff, factors in terms:
        key = standard_form(factors)
        merged[key] = merged.get(key, Fraction(0)) + coeff
    return format_hibi({k: c for k, c in merged.items() if c})


def check_hibi(terms: Sequence[tuple[Fraction, Sequence[Column]]], out: str) -> Optional[str]:
    expected = hibi_expected(terms)
    if out != expected:
        return f"normal form {out[:80]!r} != expected {expected[:80]!r}"
    return None


# -- flag workload: straightening relations --------------------------------

def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    a = [list(r) for r in rows]
    k = len(a)
    sign, prev = 1, 1
    for p in range(k - 1):
        if a[p][p] == 0:
            swap = next((r for r in range(p + 1, k) if a[r][p] != 0), None)
            if swap is None:
                return 0
            a[p], a[swap] = a[swap], a[p]
            sign = -sign
        for r in range(p + 1, k):
            for c in range(p + 1, k):
                a[r][c] = (a[r][c] * a[p][p] - a[r][p] * a[p][c]) // prev
        prev = a[p][p]
    return sign * a[k - 1][k - 1]


def minor_value(x: Sequence[Sequence[int]], c: Column) -> int:
    """Value of the minor on rows ``c`` and the leading columns of ``x``
    (rows 1-indexed)."""
    return det([x[r - 1][:len(c)] for r in c])


def check_relation(a: Column, b: Column, n: int, m: int,
                   terms: Sequence[tuple[Sequence[Column], Fraction]],
                   rng: random.Random, points: int = 3) -> Optional[str]:
    """``terms`` must be standard monomials of the product's shape whose
    combination equals ``d_a * d_b`` at several random integer matrices."""
    if not terms:
        return "empty expansion"
    want_depths = sorted((len(a), len(b)))
    seen = set()
    for chain, coeff in terms:
        if len(chain) != 2 or sorted(len(c) for c in chain) != want_depths:
            return f"term {chain} has the wrong shape"
        if any(len(c) > m or not all(1 <= e <= n for e in c) for c in chain):
            return f"term {chain} leaves the lattice"
        if not col_geq(chain[1], chain[0]):
            return f"term {chain} is not a multichain"
        if Fraction(coeff).denominator != 1:
            return f"non-integer coefficient {coeff}"
        if tuple(chain) in seen:
            return f"repeated term {chain}"
        seen.add(tuple(chain))
    for _ in range(points):
        x = [[rng.randint(-40, 40) for _ in range(m)] for _ in range(n)]
        lhs = minor_value(x, a) * minor_value(x, b)
        rhs = sum(Fraction(c) * minor_value(x, e) * minor_value(x, f) for (e, f), c in terms)
        if lhs != rhs:
            return f"relation for {col_label(a)}*{col_label(b)} fails at a sample point"
    return None


# -- patterns workload: dimensions and conversions -------------------------

def weyl_count(top: Sequence[int], n: int) -> int:
    """Number of GT patterns with top row ``top`` (padded to ``n``)."""
    lam = list(top) + [0] * (n - len(top))
    num, den = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def check_dim(top: Sequence[int], n: int, out: str) -> Optional[str]:
    want = weyl_count(top, n)
    if out != f"{want}\n":
        return f"dim {tuple(top)} {n}: printed {out.strip()!r}, Weyl gives {want}"
    return None


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def gt_of_ssyt(rows: Sequence[Sequence[int]], n: int) -> dict:
    """GT pattern of a tableau by counting: the value at ``z^(i)_j`` is the
    number of entries at most ``i`` in row ``j``."""
    pattern = []
    for level in range(n, 0, -1):
        pattern.append([
            sum(1 for e in (rows[j] if j < len(rows) else ()) if e <= level)
            for j in range(level)
        ])
    return {"n": n, "rows": pattern}


def check_convert(tableau_json: str, rows: Sequence[Sequence[int]], n: int,
                  gt_out: str, back_out: str) -> Optional[str]:
    want_gt = canonical(gt_of_ssyt(rows, n)) + "\n"
    if gt_out != want_gt:
        return f"ssyt->gt printed {gt_out.strip()[:80]!r}, counting gives {want_gt.strip()[:80]!r}"
    if back_out != tableau_json + "\n":
        return f"round trip changed {tableau_json!r} into {back_out.strip()!r}"
    return None
