"""The wtan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every process it starts uses the
checkout's src/ (nothing is installed), one BLAS thread and one process at
a time.  With --trace 0 it measures setup_s (median of several fresh
interpreters) and then the workload in a fresh worker interpreter, and
prints the end-to-end metrics of BENCHMARK.json; with --trace 1 the worker
wraps the package's cross-module calls in memory and the per-layer metrics
are printed instead.  The line before the result holds the details: the
workload's own metrics, failures and the known-defect census by band and
exception type, the input hash and the environment.

Exits 2 without a result if the checkout has no program or no
BENCHMARK.json, and 3 if the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

ROOT = os.getcwd()
sys.path.insert(0, ROOT)

from perfbench import layers  # noqa: E402
from perfbench.harness import THREAD_VARS, LaunchGauge  # noqa: E402

SETUP_PROBES = 5
WORKER_PARTS = 3
RUN_BUDGET_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WT_PRECISION", None)  # the CLI checks expect the default 12 digits
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_process(cmd, env, timeout) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return subprocess.CompletedProcess(cmd, -signal.SIGKILL, out, err)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_command(workload: str) -> list[str]:
    if workload == "cli_session":
        return [sys.executable, "-m", "wtan", "--version"]
    return [sys.executable, os.path.join("perfbench", "worker.py"),
            "--workload", workload, "--setup-only"]


def measure_setup(workload: str, env) -> float | str:
    """Median wall time of SETUP_PROBES fresh set-ups, restated at the
    reference launch speed; or the error output of a failed set-up."""
    warm = run_process(setup_command(workload), env, 60.0)  # fills .pyc and disk caches
    if warm.returncode != 0:
        return warm.stderr
    probes = []
    launch = LaunchGauge()
    for _ in range(SETUP_PROBES):
        launch.sample(3)
        t0 = time.perf_counter()
        probe = run_process(setup_command(workload), env, 60.0)
        probes.append(time.perf_counter() - t0)
        if probe.returncode != 0:
            return probe.stderr
    return statistics.median(probes) * launch.scale


def merge(per_worker: list[dict]) -> dict:
    """Median across workers of each value (the only value for one worker)."""
    return {name: statistics.median(w[name] for w in per_worker) for name in per_worker[0]}


def fail(msg: str, code: int) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(layers.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    start = time.monotonic()
    # Every process of the run, and the calibration that restates their
    # times, shares one CPU: the two CPUs of a shared machine can run at
    # different speeds, so a child timed from a parent on the other CPU
    # would not be tracked by the parent's calibration.  Children inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(ROOT, "src", "wtan", "__init__.py")):
        return fail("no program: src/wtan is missing from the current directory", 2)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}", 2)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env()

    setup_s = None
    if not args.trace:
        setup_s = measure_setup(args.workload, env)
        if isinstance(setup_s, str):
            return fail(f"set-up failed:\n{setup_s}", 3)

    # Untraced runs split the time over WORKER_PARTS fresh workers and report
    # the median across them: each interpreter's memory layout makes it a few
    # percent faster or slower than the next.  The CLI workload starts a new
    # process per call anyway, and traced runs need a single worker for
    # counts that repeat exactly.
    parts = 1 if args.trace or args.workload == "cli_session" else WORKER_PARTS
    raws = []
    for part in range(parts):
        cmd = [sys.executable, os.path.join("perfbench", "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / parts), "--trace", str(args.trace),
               "--part", str(part)]
        worker = run_process(cmd, env, RUN_BUDGET_S - (time.monotonic() - start))
        lines = worker.stdout.strip().splitlines()
        if worker.returncode != 0 or not lines:
            return fail(f"worker exited {worker.returncode}:\n{worker.stderr[-4000:]}", 3)
        raws.append(json.loads(lines[-1]))
    if len({r["detail"]["inputs_sha256"] for r in raws}) != 1:
        return fail("workers generated different inputs", 3)

    values = merge([r["layers" if args.trace else "e2e"] for r in raws])
    if setup_s is not None:
        values["setup_s"] = setup_s
    names = {m["name"] for m in wanted}
    unknown = set(values) - names
    if unknown:
        return fail(f"metrics not in BENCHMARK.json: {sorted(unknown)}", 3)
    if not args.trace and names - set(values):
        return fail(f"end-to-end metrics not measured: {sorted(names - set(values))}", 3)
    # a layer the workload does not exercise did no work there: it reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    attempted = sum(r["attempted"] for r in raws)
    failed = sum(r["failed"] for r in raws)
    failures = Counter()
    for r in raws:
        failures.update(r["failures"])
    census = raws[0]["census"]
    census_attempted = sum(c["attempted"] for c in census.values())
    census_failed = sum(c["attempted"] - c.get("ok", 0) for c in census.values())
    named = {name: [v, raws[0]["named"][name][1]] for name, v in merge(
        [{name: v for name, (v, _) in r["named"].items()} for r in raws]).items()}
    if setup_s is not None:
        named["setup_s"] = [setup_s, "s"]
    named["failed_frac"] = [(failed + census_failed)
                            / max(1, attempted + census_attempted), "1"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": raws[0]["detail"]["inputs_sha256"],
        "named": named,
        "failed_frac": {
            "measured": [failed, attempted],
            "census": [census_failed, census_attempted],
            "measured_by_reason": dict(failures),
            "census_by_band_and_outcome": census,
        },
        "absent": raws[0]["absent"],
        "samples": [r["detail"]["samples"] for r in raws],
        "per_worker": [r["layers" if args.trace else "e2e"] for r in raws],
        "calibration": [r["speed"] for r in raws],
        "environment": raws[0]["environment"],
        "workload_shape": layers.WORKLOADS[args.workload],
        "layer_map": layers.rows_for(args.workload),
        "wall_s": time.monotonic() - start,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
