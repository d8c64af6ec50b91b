"""Run one hibilab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` next to this directory, so the
benchmark measures the checkout it sits in.  With ``--trace 0`` the run
sets the workload up several times (``setup_s`` is the median), then runs
whole rounds of ops until ``--seconds`` of op time have passed, checking
every output against the workload's oracle outside the timed region.
With ``--trace 1`` it runs a fixed block of rounds twice, each round
first untraced and then with spans around every call into the program's
modules, and reports the per-layer metrics of the traced pass (one traced
set-up plus one block) and the traced/untraced time ratio.

Every reported time is calibrated.  A timer signal interrupts the run
every ``SAMPLE_PERIOD_S`` to time a fixed piece of reference work, so
every op and set-up has samples of the machine's speed taken while it
ran.  Each measured time, less the interruptions, is scaled by
``REF_NOMINAL_S`` over the median reference time sampled during it.  On a
machine whose cores are shared with other tenants, speed can drop by 1.8x
and change within a second; the program and the reference slow down
together, so the calibrated times stay put while the raw ones, printed
alongside, do not.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from array import array
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

MODULES = ("cli", "posets", "hibi", "flagalg", "gtpatterns", "tableaux")
SETUP_REPEATS = 3
# Time of reference_work() on an idle core of the machine the baseline was
# recorded on (Python 3.11, Xeon VM at 2.1 GHz); calibrated times are what
# the run would have measured at that speed.
REF_NOMINAL_S = 0.00025
# The sampler's period (about 2% of the run goes to the reference work),
# and the fewest samples that judge the speed during one interval: an
# interval with fewer samples inside it borrows the nearest ones.
SAMPLE_PERIOD_S = 0.02
MIN_SAMPLES = 5
# Stop starting ops after this much wall time, so that a pathologically
# slow program still exits well within three minutes.
WALL_LIMIT_S = 150.0
# Oracle sample points are drawn from their own stream, so checking never
# changes the inputs a seed gives.
ORACLE_SEED_SALT = 0x5EED


class SetupError(Exception):
    pass


def load_program():
    """Import hibilab afresh from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "hibilab" / "__init__.py").is_file():
        raise SetupError(f"no hibilab package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "hibilab" or m.startswith("hibilab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = SimpleNamespace(**{
        name: importlib.import_module(f"hibilab.{name}") for name in MODULES
    })
    if not Path(mods.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"hibilab imported from {mods.cli.__file__}, not {src}")
    return mods


def set_up(wl, seed: int, mods=None):
    """One set-up: import (unless ``mods`` is given), session state, and
    the first round of inputs."""
    if mods is None:
        mods = load_program()
    rng = random.Random(seed)
    state = wl.prepare(mods, rng)
    return mods, state, rng, wl.round(state, rng)


def reference_work() -> int:
    """A fixed piece of pure-Python work (tuples, sorting, comparisons,
    dict updates, like the program's own), timed to measure how fast the
    machine runs at that moment."""
    seen: dict = {}
    total = 0
    for i in range(200):
        t = (i % 13, i % 7, i % 5, i)
        u = tuple(sorted(t))
        if all(a <= b for a, b in zip(u, t)):
            total += 1
        seen[u] = seen.get(u, 0) + i
    return total + len(seen)


class Sampler:
    """Times ``reference_work()`` from a timer signal every
    ``SAMPLE_PERIOD_S`` while active, and calibrates intervals with it."""

    def __init__(self):
        self.starts = array("d")
        self.costs = array("d")
        self.cost_sums = array("d", [0.0])
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        reference_work()  # warms the caches the interrupted op may have evicted
        t0 = perf_counter()
        reference_work()
        cost = perf_counter() - t0
        self.starts.append(t0)
        self.costs.append(cost)
        self.cost_sums.append(self.cost_sums[-1] + cost)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """Raw and calibrated time of the interval [t0, t1]: its length
        less the sampler's own time inside it, then scaled to nominal
        speed by the median reference time sampled during it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        raw = t1 - t0 - (self.cost_sums[hi] - self.cost_sums[lo])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            mid = (t0 + t1) / 2
            if hi == len(self.starts) or (lo > 0 and mid - self.starts[lo - 1] < self.starts[hi] - mid):
                lo -= 1
            else:
                hi += 1
        speed = statistics.median(self.costs[lo:hi]) if hi > lo else REF_NOMINAL_S
        return raw, raw * REF_NOMINAL_S / speed


class Loop:
    """Runs ops one after another, timing each call and checking its
    output afterwards."""

    def __init__(self, wl, mods, state, seed: int, sampler: Sampler, tracer=None):
        self.wl, self.mods, self.state = wl, mods, state
        self.sampler, self.tracer = sampler, tracer
        self.oracle_rng = random.Random(seed ^ ORACLE_SEED_SALT)
        self.intervals: list[tuple[float, float]] = []
        self.op_spans: list[int] = []
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run(self, ops) -> float:
        """Run ``ops``; return their total wall time."""
        busy = 0.0
        for op in ops:
            # Every op starts from an empty collector, as a fresh CLI process
            # would; otherwise when a full collection lands depends on the
            # ops before, and one can add 20% to a lattice build.
            gc.collect()
            if self.tracer:
                self.op_spans.append(self.tracer.open("bench.op"))
            t0 = perf_counter()
            try:
                out, error = self.wl.run(self.mods, self.state, op), None
            except Exception as exc:  # any failure of the program counts against it
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if self.tracer:
                self.tracer.close(self.op_spans[-1])
            if error is None:
                try:
                    error = self.wl.check(self.state, op, out, self.oracle_rng)
                except Exception as exc:  # malformed output the oracle cannot read
                    error = f"oracle could not read the output: {type(exc).__name__}: {exc}"
            self.attempted += 1
            self.intervals.append((t0, t1))
            busy += t1 - t0
            if error is not None:
                self.failed += 1
                self.failures.append(error)
        return busy

    def latencies(self) -> tuple[list[float], list[float]]:
        """Raw and calibrated latency of every op run so far."""
        pairs = [self.sampler.measure(t0, t1) for t0, t1 in self.intervals]
        return [raw for raw, _ in pairs], [cal for _, cal in pairs]


def environment() -> str:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    try:
        ref = head.read_text().strip()
        sha = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass
    return (f"env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
            f"git_sha={sha}")


def timed_set_ups(wl, seed: int, sampler: Sampler):
    """Set up ``SETUP_REPEATS`` times; return the last set-up and the raw
    and calibrated time of each."""
    raw, cal = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        result = set_up(wl, seed)
        r, c = sampler.measure(t0, perf_counter())
        raw.append(r)
        cal.append(c)
    return result, raw, cal


def percentiles(values: list[float]) -> tuple[float, float]:
    pct = statistics.quantiles(values, n=100, method="inclusive") if len(values) > 1 else values * 99
    return statistics.median(values), pct[89]


def untraced(wl, seed: int, seconds: float) -> dict:
    wall0 = perf_counter()
    with Sampler() as sampler:
        (mods, state, rng, ops), setup_raw, setup_cal = timed_set_ups(wl, seed, sampler)
        gc.collect()
        loop = Loop(wl, mods, state, seed, sampler)
        timed = 0.0
        while True:
            timed += loop.run(ops)
            if timed >= seconds or perf_counter() - wall0 > WALL_LIMIT_S:
                break
            ops = wl.round(state, rng)
    ok = loop.attempted - loop.failed
    raw, lat = loop.latencies()
    p50, p90 = percentiles(lat)
    raw50, raw90 = percentiles(raw)
    metrics = {
        "setup_s": (statistics.median(setup_cal), "s"),
        "ops_per_s": (ok / sum(lat), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload={wl.name} seed={seed} ops={loop.attempted} op_wall_s={timed:.3f} "
          f"speed_samples={len(sampler.costs)} "
          f"reference_median_ms={statistics.median(sampler.costs) * 1e3:.4f} "
          f"(nominal {REF_NOMINAL_S * 1e3:g})")
    print(f"raw: setup_s={statistics.median(setup_raw):.6g} ops_per_s={ok / sum(raw):.6g} "
          f"op_p50_ms={raw50 * 1e3:.6g} op_p90_ms={raw90 * 1e3:.6g}")
    for name, (value, unit) in metrics.items():
        extra = f" over {len(lat)} samples" if name.startswith("op_p") else ""
        print(f"{name} = {value:.6g} {unit}{extra}")
    print(f"fail_ratio = {loop.failed}/{loop.attempted} = {loop.failed / loop.attempted:.6g}")
    return {"loop": loop, "metrics": metrics}


def traced(wl, seed: int) -> dict:
    """Run the block of rounds twice over, a round untraced and then the
    same round traced, so that both passes see the same machine."""
    with Sampler() as sampler:
        mods, plain_state, plain_rng, plain_ops = set_up(wl, seed)
        tracer = spans.Tracer()
        undo = spans.install(tracer, mods)
        try:
            setup_span = tracer.open("bench.setup")
            _, state, rng, ops = set_up(wl, seed, mods)
            tracer.close(setup_span)
        finally:
            spans.uninstall(undo)
        gc.collect()
        plain = Loop(wl, mods, plain_state, seed, sampler)
        loop = Loop(wl, mods, state, seed, sampler, tracer)
        for r in range(wl.block_rounds):
            if r:
                plain_ops, ops = wl.round(plain_state, plain_rng), wl.round(state, rng)
            plain.run(plain_ops)
            undo = spans.install(tracer, mods)
            try:
                loop.run(ops)
            finally:
                spans.uninstall(undo)
    # Each root span's times are calibrated like the op or set-up it wraps.
    def factor(span):
        raw, cal = sampler.measure(tracer.start[span], tracer.end[span])
        return cal / raw if raw > 0 else 1.0
    scale = {span: factor(span) for span in [setup_span, *loop.op_spans]}
    metrics = {k: (v, unit_of(k)) for k, v in spans.layer_metrics(tracer, scale).items()}
    plain_raw, plain_cal = plain.latencies()
    traced_raw, traced_cal = loop.latencies()
    metrics["trace_overhead"] = (sum(traced_cal) / sum(plain_cal), "ratio")
    print(f"workload={wl.name} seed={seed} block_rounds={wl.block_rounds} "
          f"ops_per_pass={loop.attempted} raw_untraced_s={sum(plain_raw):.3f} "
          f"raw_traced_s={sum(traced_raw):.3f} spans={len(tracer.start)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    out_dir = ROOT / ".perfbench_out"
    try:
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{wl.name}-seed{seed}.tsv.gz")
    except OSError as exc:
        print(f"spans not written: {exc}", file=sys.stderr)
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.failures += plain.failures
    return {"loop": loop, "metrics": metrics}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "cli.out_bytes":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    try:
        result = traced(wl, args.seed) if args.trace else untraced(wl, args.seed, args.seconds)
    except (SetupError, ImportError) as exc:
        print(f"error: cannot set up the program: {exc}", file=sys.stderr)
        return 2
    loop = result["loop"]
    for detail in loop.failures[:5]:
        print(f"failure: {detail}", file=sys.stderr)
    print(environment())
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
