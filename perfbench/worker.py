"""Run one workload in this (fresh) interpreter and print its raw result.

Started by run.py from the root of a checkout, with PYTHONPATH pointing at
the checkout's src/.  `--setup-only` performs the workload's set-up and
exits; run.py times that from outside as setup_s.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import sys

ROOT = os.getcwd()
sys.path.insert(0, ROOT)

from perfbench.harness import THREAD_VARS, LaunchGauge, Run, import_times, median  # noqa: E402
from perfbench.layers import WORKLOADS  # noqa: E402


def environment() -> dict:
    import mpmath
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    module = importlib.import_module(f"perfbench.{args.workload}")
    state = module.setup()
    wtan = sys.modules.get("wtan")
    src = os.path.join(ROOT, "src", "wtan")
    if wtan is not None and not os.path.abspath(wtan.__file__).startswith(src + os.sep):
        print(f"wtan imported from {wtan.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.part)
    module.measure(run, *state)
    if run.tracer is not None:
        launch = LaunchGauge()
        imports = []
        for _ in range(3):
            launch.sample(3)
            imports.append(import_times())
        for key in imports[0]:
            run.layers[f"cli.import.{key}_s"] = median([t[key] for t in imports]) * launch.scale
    print(json.dumps({
        "attempted": run.attempted,
        "failed": run.failed,
        "e2e": run.e2e,
        "layers": run.layers,
        "named": run.named,
        "failures": dict(run.failures),
        "census": {band: dict(c) for band, c in run.census.items()},
        "absent": run.tracer.absent if run.tracer is not None else [],
        "detail": run.detail,
        "speed": {"calibration_units": run.gauge.units, "calibration_s": run.gauge.busy_s,
                  "launch_scale": run.launch_scale},
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
