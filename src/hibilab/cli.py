"""Command line front end.

Subcommands: hasse, convert, dim, straighten, enumerate, subposet (an
alias of ``hasse gt-sub``), skew, check.  All output is deterministic;
JSON is canonical (sorted keys, no extra whitespace).  Exit codes: 0
success, 1 failed check suite, 2 invalid usage or bounds, 3 invariant
violation in input data.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional, Sequence

from . import checks, flagalg, gtpatterns, hibi, posets
from .gtpatterns import GtPattern
from .posets import ConstantPolicy, GtPoset, TableauLattice
from .tableaux import SSYT, ColumnTableau, YoungDiagram, multichain_to_ssyt, to_skew

MAX_N = 32
MAX_ENUMERATE_LINES = 10_000
MAX_TRIALS = 10_000


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_shape(text: str) -> YoungDiagram:
    body = text.strip().strip("()[]")
    if not body:
        return YoungDiagram(())
    try:
        return YoungDiagram(int(part) for part in body.split(","))
    except ValueError as exc:
        raise UsageError(f"bad shape {text!r}: {exc}") from exc


def _check_n(n: int) -> int:
    if not 1 <= n <= MAX_N:
        raise UsageError(f"n must be in 1..{MAX_N}, got {n}")
    return n


def _build_lattice(family: str, params: list[int]) -> TableauLattice:
    family = family.upper()
    want = {"L": 1, "LM": 2, "G": 2, "P": 1, "B": 3}.get(family)
    if want is None:
        raise UsageError(f"unknown lattice family {family!r} (use L, Lm, G, P, B)")
    if len(params) != want:
        raise UsageError(f"family {family} takes {want} bound(s), got {len(params)}")
    _check_n(params[0])
    try:
        if family == "L":
            return TableauLattice.full(params[0])
        if family == "LM":
            return TableauLattice.bounded(params[0], params[1])
        if family == "G":
            return TableauLattice.grassmannian(params[0], params[1])
        if family == "P":
            return TableauLattice.symplectic(params[0])
        return TableauLattice.branching(params[0], params[1], params[2])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _build_poset(tokens: list[str], policy: Optional[str]):
    if not tokens:
        raise UsageError("missing family")
    head, rest = tokens[0], tokens[1:]
    if head.lower() == "gt-sub":
        if not rest:
            raise UsageError("gt-sub needs a lattice family")
        lattice = _build_lattice(rest[0], _ints(rest[1:]))
        chosen = ConstantPolicy(policy) if policy else None
        return posets.associated_gt_subposet(lattice, chosen)
    if policy is not None:
        raise UsageError("--policy only applies to gt-sub")
    params = _ints(rest)
    if head.upper() == "GT":
        if len(params) not in (1, 2):
            raise UsageError("GT takes n or n m")
        _check_n(params[0])
        try:
            return GtPoset(*params)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return _build_lattice(head, params)


def _ints(tokens: Sequence[str]) -> list[int]:
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError as exc:
            raise UsageError(f"expected an integer bound, got {t!r}") from exc
    return out


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------

def cmd_hasse(args) -> int:
    poset = _build_poset([args.family] + args.bounds, args.policy)
    _emit(posets.to_dot(poset), args.out)
    return 0


def cmd_subposet(args) -> int:
    args.family, args.bounds = "gt-sub", [args.family] + args.bounds
    return cmd_hasse(args)


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _read(kind: str, data):
    """The SSYT, GT pattern or chain of columns a JSON document describes."""
    try:
        if kind == "chain":
            n = int(data["n"])
            return tuple(ColumnTableau(col, n) for col in data["columns"])
        return (SSYT if kind == "ssyt" else GtPattern).from_dict(data)
    except (KeyError, TypeError, OverflowError) as exc:
        raise DataError(f"bad {kind}: {exc}") from exc


def _chain_to_dict(chain: Sequence[ColumnTableau], n: int) -> dict:
    return {"n": n, "columns": [list(c.entries) for c in chain]}


def cmd_convert(args) -> int:
    data = _load_json(args.file)
    n = args.n
    if n is not None:
        _check_n(n)
    try:
        if args.src == "ssyt":
            t = _read("ssyt", data)
            size = n if n is not None else max(t.max_entry, 1)
            if args.dst == "ssyt":
                result = t.to_dict()
            elif args.dst == "gt":
                result = gtpatterns.ssyt_to_gt(t, size).to_dict()
            else:
                from .tableaux import ssyt_to_multichain
                result = _chain_to_dict(ssyt_to_multichain(t, size), size)
        elif args.src == "gt":
            f = _read("gt", data)
            if args.dst == "gt":
                result = f.to_dict()
            elif args.dst == "ssyt":
                result = gtpatterns.gt_to_ssyt(f).to_dict()
            else:
                chain = []
                for coeff, ind in gtpatterns.decompose(f):
                    chain.extend([gtpatterns.indicator_to_column(ind)] * coeff)
                result = _chain_to_dict(chain, f.n)
        else:
            chain = _read("chain", data)
            size = chain[0].n if chain else (n if n is not None else 1)
            if args.dst == "chain":
                ordered = multichain_to_ssyt(chain)  # validates the multichain
                from .tableaux import ssyt_to_multichain
                result = _chain_to_dict(ssyt_to_multichain(ordered, size), size)
            elif args.dst == "ssyt":
                result = multichain_to_ssyt(chain).to_dict()
            else:
                total = GtPattern.zero(size)
                for col in chain:
                    total = total + gtpatterns.column_to_indicator(col)
                result = total.to_dict()
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    sys.stdout.write(_canonical_json(result) + "\n")
    return 0


def _pattern_count(args) -> tuple[YoungDiagram, int]:
    """The top row of ``dim``/``enumerate`` and its number of patterns."""
    shape = _parse_shape(args.shape)
    _check_n(args.n)
    if shape.depth > args.n:
        raise UsageError(f"shape {shape.rows} deeper than n={args.n}")
    if args.m is not None and shape.depth > args.m:
        raise UsageError(f"shape {shape.rows} deeper than m={args.m}")
    return shape, gtpatterns.weyl_dimension(shape, args.n)


def cmd_dim(args) -> int:
    sys.stdout.write(f"{_pattern_count(args)[1]}\n")
    return 0


def cmd_enumerate(args) -> int:
    shape, count = _pattern_count(args)
    if count > MAX_ENUMERATE_LINES:
        raise UsageError(f"{count} patterns, above the output guard of {MAX_ENUMERATE_LINES} lines")
    for f in gtpatterns.enumerate_patterns(shape, args.n, args.m):
        sys.stdout.write(_canonical_json(f.to_dict()) + "\n")
    return 0


def cmd_straighten(args) -> int:
    n = _check_n(args.n)
    m = args.m
    try:
        if args.mode == "hibi":
            lattice = _build_lattice("L", [n]) if m is None else _build_lattice("Lm", [n, m])
            poly = hibi.parse_polynomial(args.expression, lattice)
            sys.stdout.write(hibi.format_polynomial(hibi.straighten(poly)) + "\n")
            return 0
        chain = _parse_minor_product(args.expression, n)
        deepest = max(c.depth for c in chain)
        if deepest > flagalg.MAX_MINOR_DEPTH:
            raise UsageError(f"minor depth {deepest} above the guard {flagalg.MAX_MINOR_DEPTH}")
        lattice = _build_lattice("Lm", [n, m if m is not None else n])
        shape = YoungDiagram(
            sorted((c.depth for c in chain), reverse=True)
        ).transpose()
        product = flagalg.standard_monomial_poly(chain, n, lattice.column_bound)
        expansion = flagalg.expand_in_standard_basis(product, shape, lattice)
        sys.stdout.write(expansion.text + "\n")
        return 0
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _parse_minor_product(text: str, n: int) -> list[ColumnTableau]:
    import re

    chain = []
    for factor in text.strip().split("*"):
        m = re.fullmatch(r"d\[(\d+(?:,\d+)*)\]", factor.strip())
        if not m:
            raise UsageError(f"cannot parse minor {factor!r} (want d[i,j,...])")
        chain.append(ColumnTableau((int(x) for x in m.group(1).split(",")), n))
    return chain


def cmd_skew(args) -> int:
    data = _load_json(args.file)
    if args.n is not None:
        _check_n(args.n)
    try:
        t = _read("ssyt", data)
        sk = to_skew(t, args.k)
        if args.content:
            n = args.n if args.n is not None else max(t.max_entry, args.k + 1)
            result = list(sk.content(n - args.k))
        else:
            result = sk.to_dict()
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    sys.stdout.write(_canonical_json(result) + "\n")
    return 0


def cmd_check(args) -> int:
    suite = checks.SUITES.get(args.suite)
    if suite is None:
        raise UsageError(
            f"unknown suite {args.suite!r} (choose from {', '.join(sorted(checks.SUITES))})"
        )
    accepted = inspect.signature(suite).parameters
    kwargs = {}
    for name in ("n", "m", "seed", "trials", "max_size", "max_width"):
        value = getattr(args, name, None)
        if value is not None and name in accepted:
            kwargs[name] = value
    if args.n is not None:
        _check_n(args.n)
    if args.trials is not None and not 0 <= args.trials <= MAX_TRIALS:
        raise UsageError(f"trials must be in 0..{MAX_TRIALS}, got {args.trials}")
    try:
        cases, failures = suite(**kwargs)
    except ValueError as exc:
        # a suite lists its own failures; what escapes is a bound or guard
        # that its parameters break
        raise UsageError(str(exc)) from exc
    bounds = " ".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
    status = "PASS" if not failures else "FAIL"
    line = f"{status} suite={args.suite} cases={cases} failures={len(failures)}"
    if bounds:
        line += " " + bounds
    sys.stdout.write(line + "\n")
    for detail in failures[:10]:
        sys.stdout.write(f"counterexample: {detail}\n")
    return 0 if not failures else 1


# -- parser -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hibilab",
        description="Column tableau lattices, GT patterns, Hibi straightening, "
                    "and exact standard monomial expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hasse", help="DOT Hasse diagram of a lattice or GT poset")
    p.add_argument("family", help="L, Lm, G, P, B, GT, or gt-sub")
    p.add_argument("bounds", nargs="*", help="n [m] [k]")
    p.add_argument("--policy", choices=[c.value for c in ConstantPolicy])
    p.add_argument("--out")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("subposet", help="DOT of the associated GT subposet")
    p.add_argument("family", help="L, Lm, G, P, or B")
    p.add_argument("bounds", nargs="+", help="n [m] [k]")
    p.add_argument("--policy", choices=[c.value for c in ConstantPolicy])
    p.add_argument("--out")
    p.set_defaults(func=cmd_subposet)

    p = sub.add_parser("convert", help="convert between ssyt, gt, and chain JSON")
    p.add_argument("--from", dest="src", required=True, choices=["ssyt", "gt", "chain"])
    p.add_argument("--to", dest="dst", required=True, choices=["ssyt", "gt", "chain"])
    p.add_argument("--n", type=int, help="ambient bound (default: largest entry)")
    p.add_argument("file", help="input path or - for stdin")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("dim", help="number of patterns with a given top row")
    p.add_argument("shape", help="e.g. (2,1)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, nargs="?")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("enumerate", help="all patterns with a given top row, JSON lines")
    p.add_argument("shape")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, nargs="?")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("straighten", help="normal form of a lattice or minor product")
    p.add_argument("--mode", required=True, choices=["hibi", "flag"])
    p.add_argument("expression")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, nargs="?")
    p.set_defaults(func=cmd_straighten)

    p = sub.add_parser("skew", help="strip a branching tableau to its skew form")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--content", action="store_true", help="print the content vector instead")
    p.set_defaults(func=cmd_skew)

    p = sub.add_parser("check", help="run a named invariant suite")
    p.add_argument("suite")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--max-size", dest="max_size", type=int)
    p.add_argument("--max-width", dest="max_width", type=int)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
