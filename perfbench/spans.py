"""Spans around the calls into each hibilab module, for the traced run.

Wrappers are installed on the module and class objects of a loaded
program, and only for the traced run.  A name bound by ``from ... import``
is a separate binding, so it is wrapped where it is bound (``hibi.join``,
``gtpatterns.multichain_to_ssyt``).  Per-comparison hot paths
(``ColumnTableau.__ge__``, ``GlexOrder.key``, the join/meet calls of the
lattice closure check) are never wrapped.

Spans are kept in memory (name, start, end, parent) and written out when
the run ends.  A span's self time is its duration minus the durations of
its child spans; children never overlap because there is one thread.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans and work counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def top_name(self) -> str:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else ""

    def add_busy_span(self, name: str, start: float, busy: float, parent: int) -> None:
        """A span for work done in pieces (a generator's iteration); its end
        is its start plus the time actually spent inside it."""
        self.name_id.append(self._intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(start + busy)

    def self_times(self, scale: dict[int, float]) -> tuple[Counter, Counter]:
        """Total self time and number of spans, by span name.  ``scale``
        maps a root span to the factor that calibrates it and everything
        under it (roots it does not name keep their raw times)."""
        n = len(self.start)
        child = [0.0] * n
        factor = [1.0] * n
        for i in range(n):  # a parent's index is always below its children's
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                factor[i] = factor[p]
            else:
                factor[i] = scale.get(i, 1.0)
        total, calls = Counter(), Counter()
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            total[name] += (self.end[i] - self.start[i] - child[i]) * factor[i]
            calls[name] += 1
        return total, calls

    def write(self, path) -> None:
        """Spans as gzipped TSV: index, name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, nid in enumerate(self.name_id):
                fh.write(f"{i}\t{self.names[nid]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n")


def _wrap(tracer: Tracer, fn, name: str, on_result=None, skip_under: str = ""):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            it = fn(*args, **kwargs)
            first, busy, items = None, 0.0, 0
            try:
                while True:
                    t0 = perf_counter()
                    if first is None:
                        first = t0
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += perf_counter() - t0
                        return
                    busy += perf_counter() - t0
                    items += 1
                    yield item
            finally:
                if first is not None:
                    tracer.add_busy_span(name, first, busy, parent)
                if on_result is not None:
                    on_result(tracer, args, items)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip_under and tracer.top_name() == skip_under:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(tracer, args, result)
        return result
    return wrapper


def _count(key, measure):
    def hook(tracer, args, result):
        tracer.counts[key] += measure(args, result)
    return hook


def _built(tracer, args, lattice):
    size = len(lattice.elements)
    tracer.counts["posets.elements"] += size
    tracer.counts["posets.closure_pairs"] += size * (size - 1) // 2


def _minor(tracer, args, poly):
    tracer.counts["flagalg.minor_terms"] += len(poly.terms)
    tracer.distinct.setdefault("flagalg.minor", set()).add(
        (args[0].entries, *args[1:]))


def _terms(key):
    return _count(key, lambda args, result: len(result.terms))


def _straightened(tracer, args, result):
    p = args[0]
    tracer.counts["hibi.monomials"] += len(p.terms) if hasattr(p, "terms") else 1


def _cli_out(tracer, args, code):
    # cli.main writes to sys.stdout, which the benchmark holds in memory
    getvalue = getattr(sys.stdout, "getvalue", None)
    if getvalue is not None:
        tracer.counts["cli.out_bytes"] += len(getvalue().encode())


def _cells(key):
    return _count(key, lambda args, result: result.size)


# (module name, class name or "", attribute, span name, result hook, skip_under)
WRAPS = [
    ("posets", "TableauLattice", "full", "posets.build", _built, ""),
    ("posets", "TableauLattice", "bounded", "posets.build", _built, ""),
    ("posets", "TableauLattice", "grassmannian", "posets.build", _built, ""),
    ("posets", "TableauLattice", "symplectic", "posets.build", _built, ""),
    ("posets", "TableauLattice", "branching", "posets.build", _built, ""),
    ("posets", "TableauLattice", "__contains__", "posets.contains", None, ""),
    ("posets", "TableauLattice", "rank", "posets.rank", None, ""),
    ("posets", "TableauLattice", "count_multichains", "posets.count_multichains", None, ""),
    ("posets", "", "hasse", "posets.hasse", _count("posets.hasse_edges", lambda a, r: len(r)), ""),
    ("posets", "", "to_dot", "posets.dot", None, ""),
    ("posets", "", "associated_gt_subposet", "posets.subposet", None, ""),
    ("hibi", "", "join", "posets.join_meet", None, ""),
    ("hibi", "", "meet", "posets.join_meet", None, ""),
    ("flagalg", "", "join", "posets.join_meet", None, ""),
    ("flagalg", "", "meet", "posets.join_meet", None, ""),
    ("hibi", "", "parse_polynomial", "hibi.parse", None, ""),
    ("hibi", "", "straighten", "hibi.straighten", _straightened, ""),
    ("hibi", "", "format_polynomial", "hibi.format", None, ""),
    ("hibi", "HibiMonomial", "rewrite", "hibi.rewrite", None, ""),
    ("hibi", "HibiMonomial", "incomparable_pairs", "hibi.pairs",
     _count("hibi.pairs_listed", lambda a, r: len(r)), ""),
    ("flagalg", "", "straightening_relation", "flagalg.relation", None, ""),
    ("flagalg", "", "minor", "flagalg.minor", _minor, ""),
    ("flagalg", "MatrixPolynomial", "__mul__", "flagalg.product",
     _terms("flagalg.product_terms"), "flagalg.minor"),
    ("flagalg", "", "expand_in_standard_basis", "flagalg.expand", _terms("flagalg.reduction_iters"), ""),
    ("flagalg", "", "initial_monomial", "flagalg.initial", None, ""),
    ("gtpatterns", "", "enumerate_patterns", "gtpatterns.enumerate",
     _count("gtpatterns.patterns", lambda a, items: items), ""),
    ("gtpatterns", "", "ssyt_to_gt", "gtpatterns.bijection", None, ""),
    ("gtpatterns", "", "gt_to_ssyt", "gtpatterns.bijection", None, ""),
    ("tableaux", "SSYT", "from_dict", "tableaux.ssyt", _cells("tableaux.cells"), ""),
    ("tableaux", "SSYT", "to_dict", "tableaux.ssyt", None, ""),
    ("tableaux", "", "multichain_to_ssyt", "tableaux.chain", _cells("tableaux.cells"), ""),
    ("gtpatterns", "", "multichain_to_ssyt", "tableaux.chain", _cells("tableaux.cells"), ""),
    ("cli", "", "multichain_to_ssyt", "tableaux.chain", _cells("tableaux.cells"), ""),
    ("tableaux", "", "ssyt_to_multichain", "tableaux.chain", None, ""),
    ("cli", "", "main", "cli.main", _cli_out, ""),
]


def install(tracer: Tracer, mods) -> list:
    """Install every wrapper in ``WRAPS``; return what ``uninstall`` needs.
    An entry point the program no longer has is reported and skipped."""
    undo = []
    for module, cls, attr, name, hook, skip in WRAPS:
        owner = getattr(mods, module)
        if cls:
            owner = getattr(owner, cls, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            sys.stderr.write(f"trace: {module}.{cls + '.' if cls else ''}{attr} not found, not traced\n")
            continue
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(tracer, raw.__func__, name, hook, skip))
        else:
            new = _wrap(tracer, raw, name, hook, skip)
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


# Per-layer metric -> span names whose self times it sums.
SELF_TIME = {
    "posets.build_s": ["posets.build"],
    "posets.hasse_s": ["posets.hasse"],
    "posets.dot_s": ["posets.dot"],
    "posets.subposet_s": ["posets.subposet"],
    "posets.contains_s": ["posets.contains"],
    "posets.rank_s": ["posets.rank"],
    "posets.count_multichains_s": ["posets.count_multichains"],
    "posets.join_meet_s": ["posets.join_meet"],
    "hibi.parse_s": ["hibi.parse"],
    "hibi.straighten_s": ["hibi.straighten", "hibi.rewrite", "hibi.pairs"],
    "hibi.format_s": ["hibi.format"],
    "flagalg.relation_s": ["flagalg.relation"],
    "flagalg.minor_s": ["flagalg.minor"],
    "flagalg.product_s": ["flagalg.product"],
    "flagalg.expand_s": ["flagalg.expand"],
    "flagalg.initial_s": ["flagalg.initial"],
    "gtpatterns.enumerate_s": ["gtpatterns.enumerate"],
    "gtpatterns.bijection_s": ["gtpatterns.bijection"],
    "tableaux.ssyt_s": ["tableaux.ssyt"],
    "tableaux.chain_s": ["tableaux.chain"],
    "cli.self_s": ["cli.main"],
}

# Per-layer metric -> span name whose number of spans it reports.
CALLS = {
    "posets.build_calls": "posets.build",
    "posets.contains_calls": "posets.contains",
    "posets.join_meet_calls": "posets.join_meet",
    "hibi.rewrite_steps": "hibi.rewrite",
    "flagalg.minor_calls": "flagalg.minor",
    "flagalg.initial_calls": "flagalg.initial",
    "gtpatterns.bijection_calls": "gtpatterns.bijection",
}

COUNTS = [
    "posets.elements", "posets.closure_pairs", "posets.hasse_edges",
    "hibi.monomials", "hibi.pairs_listed", "flagalg.minor_terms",
    "flagalg.product_terms", "flagalg.reduction_iters", "gtpatterns.patterns",
    "tableaux.cells", "cli.out_bytes",
]


def layer_metrics(tracer: Tracer, scale: dict[int, float]) -> dict[str, float]:
    total, calls = tracer.self_times(scale)
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(total[n] for n in names)
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    for key in COUNTS:
        out[key] = tracer.counts[key]
    rewrites, listed = calls["hibi.rewrite"], tracer.counts["hibi.pairs_listed"]
    out["hibi.pair_use_ratio"] = rewrites / listed if listed else 0.0
    minors = calls["flagalg.minor"]
    distinct = len(tracer.distinct.get("flagalg.minor", ()))
    out["flagalg.minor_distinct_ratio"] = distinct / minors if minors else 0.0
    return out
