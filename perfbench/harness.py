"""Shared pieces of a workload run: the outcome tally, the closed loop and
the statistics every workload reports."""

from __future__ import annotations

import contextlib
import io
import math
import re
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from time import perf_counter

from perfbench import inputs
from perfbench.tracing import Tracer

IMPORTTIME_PACKAGES = ("scipy", "numpy", "mpmath")
# BLAS/OpenMP thread caps set to 1 for every process the benchmark starts
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# One calibration unit takes this long on the reference machine; every
# duration the benchmark reports is restated at that speed (see SpeedGauge).
CALIBRATION_UNIT_REF_S = 1.5e-3
CALIBRATION_INTERVAL_S = 0.02
CALIBRATION_WINDOW = 4   # units averaged into the current scale


def calibration_unit() -> int:
    """Fixed interpreter-bound work timed by SpeedGauge: float arithmetic
    and math calls like the solvers', small-integer work like the
    bookkeeping, and ~300-bit integer products like mpmath's at 90 digits.
    It allocates no containers, so it never triggers the garbage collector."""
    acc = 0.0
    for i in range(1, 3001):
        t = math.tan(i * 1e-3)
        acc += (i * t - acc * 1e-3) / (1.0 + t * t)
        q, r = divmod(i, 7)
        acc += math.sqrt(q) * 1e-9 - abs(-r) * 1e-12
    big = 3 ** 190
    for i in range(1500):
        big = (big * 0x9E3779B97F4A7C15 + i) & ((1 << 320) - 1)
    return big ^ int(acc)


class SpeedGauge:
    """Tracks how fast this machine runs while the benchmark measures.

    On a shared machine the same work can run twice as slow from one minute
    to the next, and tens of percent slower from one 10 ms to the next,
    which no amount of work per run averages out.  `tick()` is called
    between operations, outside every timed region; every
    CALIBRATION_INTERVAL_S it times one calibration unit.  `scale` is the
    reference time of a unit over the mean of the last CALIBRATION_WINDOW
    measured, so a duration measured now, times `scale`, is what it would
    have taken at the reference speed.  On a shared 2-core x86-64 machine,
    restating each sample this way took the process-to-process spread of a
    median eval_series latency from 5-40% down to ~1.5%.
    """

    def __init__(self):
        self.units = 0
        self.busy_s = 0.0
        self.scale = 1.0
        self._recent = []
        self._next = 0.0

    def tick(self) -> None:
        if perf_counter() >= self._next:
            self.measure()

    def measure(self, units: int = 1) -> None:
        for _ in range(units):
            t0 = perf_counter()
            calibration_unit()
            dt = perf_counter() - t0
            self._recent = self._recent[1 - CALIBRATION_WINDOW:] + [dt]
            self.units += 1
            self.busy_s += dt
        self.scale = CALIBRATION_UNIT_REF_S * len(self._recent) / sum(self._recent)
        self._next = perf_counter() + CALIBRATION_INTERVAL_S

    def restate(self, dt: float, scale_before: float) -> float:
        """dt measured since `scale_before` was current, at the reference
        speed.  A call longer than the interval is bracketed: the gauge is
        read afresh after it and the two scales are averaged."""
        if dt > CALIBRATION_INTERVAL_S:
            self.measure(CALIBRATION_WINDOW)
            return dt * 0.5 * (scale_before + self.scale)
        return dt * scale_before


# A bare interpreter launch takes this long on the reference machine; the
# durations of whole processes are restated at that speed (see LaunchGauge).
LAUNCH_REF_S = 0.012
LAUNCH_COMMAND = (sys.executable, "-I", "-S", "-c", "pass")


class LaunchGauge:
    """How fast this machine starts processes, for the durations of whole
    processes (CLI calls, set-up probes, import-time probes).

    SpeedGauge does not track those: on the same machine, restating each
    process by the compute calibration doubled their spread, as a launch is
    mostly loading code and mapping libraries.  Instead `sample()` times bare interpreter
    launches between the measured processes, and `scale`, the reference
    launch time over the median of all samples, restates the whole run.  A
    median over the run follows the slow drift between runs without adding
    per-process noise.
    """

    def __init__(self):
        self.samples = []

    def sample(self, launches: int = 2) -> None:
        for _ in range(launches):
            t0 = perf_counter()
            subprocess.run(LAUNCH_COMMAND, check=True, capture_output=True)
            self.samples.append(perf_counter() - t0)

    @property
    def scale(self) -> float:
        return LAUNCH_REF_S / statistics.median(self.samples)


class Run:
    """State of one workload run.

    `check` tallies one checked operation of the measured workload; these
    counts become the result's `attempted` and `failed`.  Known-defect
    inputs are tallied separately in `census` and never reach `check`.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 part: int = 0):
        self.part = part            # worker index within the run; part 0 runs the census
        self.seconds = seconds
        self.rng = inputs.rng_for(workload, seed)
        self.gauge = SpeedGauge()
        self.launch_scale = None    # set by workloads that time whole processes
        self.tracer = Tracer(self.gauge) if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()   # "<operation>:<reason>" -> count
        self.census = {}            # band -> {"attempted": n, "<outcome>": n}
        self.e2e = {}               # end-to-end metrics, by BENCHMARK.json name
        self.layers = {}            # per-layer metrics, by BENCHMARK.json name
        self.named = {}             # the workload's own metrics: name -> [value, unit]
        self.detail = {}

    def check(self, op: str, ok, reason: str = "wrong") -> bool:
        ok = bool(ok)
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[f"{op}:{reason}"] += 1
        return ok

    def timed(self, call, *args, **kwargs):
        """(result, seconds at the reference speed) of one call; the gauge
        may run just before it."""
        self.gauge.tick()
        scale = self.gauge.scale
        t0 = perf_counter()
        out = call(*args, **kwargs)
        return out, self.gauge.restate(perf_counter() - t0, scale)

    def census_record(self, band: str, outcome: str) -> None:
        counts = self.census.setdefault(band, Counter())
        counts["attempted"] += 1
        counts[outcome] += 1


class Loop:
    """Result of `closed_loop`: per-call latencies in seconds (index i is
    pool[i % len(pool)]), the good-result flags, and per-item probe deltas
    over the first pass."""

    def __init__(self, pool):
        self.pool = pool
        self.latency = array("d")
        self.good = bytearray()
        self.first_pass_probe = []

    def items(self):
        n = len(self.pool)
        for i, dt in enumerate(self.latency):
            yield self.pool[i % n], dt, self.good[i]


def closed_loop(run: Run, op: str, pool, call, ok, seconds: float, probe=None) -> Loop:
    """One client, closed loop: call(item) over `pool` cyclically, each call
    issued when the previous one returned, until `seconds` have passed and
    at least one full pass is done.  Only the call is timed (and restated at
    the reference speed); its output is checked right after, outside the
    timed region.  Any exception counts as a failed operation of its type;
    the loop keeps going.

    `probe()` (traced runs) returns a counter read before and after each
    call of the first pass, so per-call counts are deterministic.
    """
    loop = Loop(pool)
    n = len(pool)
    i = 0
    deadline = perf_counter() + seconds
    while i < n or perf_counter() < deadline:
        item = pool[i % n]
        run.gauge.tick()
        scale = run.gauge.scale
        before = probe() if probe is not None and i < n else 0
        t0 = perf_counter()
        try:
            out = call(item)
            err = None
        except Exception as exc:  # a failed operation, tallied below
            out, err = None, type(exc).__name__
        dt = run.gauge.restate(perf_counter() - t0, scale)
        if probe is not None and i < n:
            loop.first_pass_probe.append(probe() - before)
        loop.latency.append(dt)
        good = err is None and ok(item, out)
        loop.good.append(run.check(op, good, err or "wrong"))
        i += 1
    return loop


def run_cli_inprocess(run: Run, main, argv) -> tuple[int, str, float]:
    """wtan.cli.main(argv) with stdout captured: (exit code, stdout, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code, dt = run.timed(main, list(argv))
    return code, buf.getvalue(), dt


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples (a layer that did no work)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_s(count: int, busy_s: float) -> float:
    return count / busy_s if busy_s > 0.0 else 0.0


def set_loop_metrics(run: Run, latencies, good: int, pass_times) -> None:
    """The end-to-end metrics every workload reports, from its closed loop
    (latencies in seconds, count of good results) and its fixed passes."""
    busy = math.fsum(latencies)
    run.e2e.update({
        "results_per_s": per_s(good, busy),
        "p50_ms": 1e3 * quantile(latencies, 0.50),
        "pass_s": median(pass_times),
    })
    # a tail percentile does not repeat within any bound on a shared machine
    run.layers["bench.loop.p99_ms"] = 1e3 * quantile(latencies, 0.99)
    run.detail["samples"] = {"loop_calls": len(latencies), "passes": len(pass_times)}


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def import_times() -> dict[str, float]:
    """Cumulative import seconds of wtan and of the outermost import of each
    dependency in a fresh `python -X importtime -c 'import wtan'`, as
    measured.  A package imported inside another is counted in both."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wtan"],
                          capture_output=True, text=True, timeout=60.0)
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1)) * 1e-6))
    out = {"total": 0.0, **{p: 0.0 for p in IMPORTTIME_PACKAGES}}
    stack = []  # enclosing imports; importtime lists children before parents
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "wtan":
            out["total"] = cum
        for pkg in IMPORTTIME_PACKAGES:
            if _within(name, pkg) and not any(_within(a, pkg) for _, a in stack):
                out[pkg] += cum
        stack.append((depth, name))
    return out
