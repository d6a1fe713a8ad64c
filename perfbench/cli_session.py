"""cli_session: a fixed script of `python -m wtan ...` processes, one at a time.

Every subcommand of the README runs with its documented arguments
(inputs.cli_script).  Each process's wall time, restated at the reference
launch speed (harness.LaunchGauge), is one latency sample and the whole
script is one pass; every output is parsed and checked.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from perfbench import checks, inputs
from perfbench.harness import LaunchGauge, median, run_cli_inprocess, set_loop_metrics

PROCESS_TIMEOUT_S = 60.0
# sessions per run: --seconds over this rough duration of one script
SESSION_ESTIMATE_S = 8.0
SUBCOMMANDS = ("eval", "series", "cheb", "branch-points", "qm", "integrals",
               "dispersion", "grid")


def wtan_command(*argv: str) -> list[str]:
    return [sys.executable, "-m", "wtan", *argv]


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


# printed floats carry 12 significant digits
PRINTED = 2e-11


def _check_eval(argv, text) -> bool:
    n = int(_arg(argv, "--branch", "1"))
    if "--z" in argv:
        (rec,) = json.loads(text)
        z = complex(*map(float, _arg(argv, "--z").split(",")))
        y = complex(rec["y_re"], rec["y_im"])
        # the value is printed, so the floor grows by the print rounding
        slack = PRINTED / checks.EPS
        return checks.complex_ok(z, n, y, far=True, slack=slack)
    (rec,) = _rows(text)
    x = float(_arg(argv, "--x"))
    y = float(rec["y_re"])
    if x == 0.0:
        want = n * math.pi if _arg(argv, "--side") == "neg" else \
            math.copysign((abs(n) - 1) * math.pi, n)
        return checks.close(y, want, PRINTED)
    ok = checks.close(y, checks.real_oracle(x, n), PRINTED)
    if "--derivative" in argv:
        dy = y / (x + x * x + y * y)
        ok = ok and checks.close(float(rec["dy_re"]), dy, 1e-9)
    if "--check" in argv:
        ok = ok and rec["check"] == "ok"
    return ok


def _check_series(argv, text) -> bool:
    rows = _rows(text)
    got = [float(r["coefficient"]) for r in rows[:5]]
    exact = checks.SMALL_X_EXACT if _arg(argv, "--kind") == "small" else checks.LARGE_X_EXACT
    return (len(rows) == int(_arg(argv, "--order")) + 1
            and checks.leading_coefficients_ok(got, exact, 1e-11))


def _check_cheb(argv, text) -> bool:
    rows = _rows(text)
    a = float(_arg(argv, "--split", "3.5"))
    coeffs = [[float(r[c]) for r in rows] for c in ("alpha", "beta", "gamma")]
    return all(checks.close(checks.chebyshev_value(x, a, *coeffs),
                            checks.real_oracle(x, 1), 1e-7)
               for x in (-30.0, -3.0, -0.4, 0.2, 1.7, 3.3, 4.1, 60.0))


def _check_branch_points(argv, text) -> bool:
    rows = _rows(text)
    return len(rows) == int(_arg(argv, "--count", "6")) and all(
        checks.branch_point_ok(int(r["n"]), complex(float(r["x_re"]), float(r["x_im"])),
                               complex(float(r["y_re"]), float(r["y_im"])))
        for r in rows)


def _check_qm(argv, text) -> bool:
    rows = _rows(text)
    a = float(_arg(argv, "--width"))
    if "--wavefunction" in argv:
        psi = [float(r["psi"]) for r in rows]
        # the ground state is even about the centre and vanishes at the walls
        return (len(rows) == int(_arg(argv, "--points")) and abs(psi[0]) < 1e-12
                and all(abs(p - q) <= 1e-9 for p, q in zip(psi, reversed(psi))))
    lam = float(_arg(argv, "--lambda"))
    ks = [float(r["k"]) for r in rows]
    ok = len(rows) == int(_arg(argv, "--levels")) and ks == sorted(ks)
    for r, k in zip(rows, ks):
        ok = ok and checks.close(float(r["E"]), k * k, PRINTED)
        if r["parity"] == "even":
            ok = ok and checks.close(0.5 * k * a, checks.real_oracle(a / lam, int(r["branch"])),
                                     PRINTED)
        else:
            m = k * a / (2.0 * math.pi)
            ok = ok and abs(m - round(m)) <= PRINTED * m
    return ok


def _check_integrals(argv, text) -> bool:
    v = {r["name"]: float(r["value"]) for r in _rows(text)}
    return (abs(v["definite_lnsin"] - checks.LNSIN_TOTAL) <= 1e-6
            and abs(v["definite_catalan"] - checks.CATALAN_COMBINATION) <= 1e-8
            and v["indefinite_log_residual"] < 1e-9
            and v["indefinite_logsin_residual"] < 1e-9)


def _check_dispersion(argv, text) -> bool:
    (r,) = _rows(text)
    return float(r["abs_diff"]) <= 1e-4


def _check_grid(argv, text) -> bool:
    rows = _rows(text)
    n = int(_arg(argv, "--branch"))
    if len(rows) != int(_arg(argv, "--points")):
        return False
    for r in rows:
        x = float(r["x"])
        if x == 0.0:
            if r["y"]:
                return False
        elif not checks.close(float(r["y"]), checks.real_oracle(x, n), PRINTED):
            return False
    return True


CHECKS = {
    "eval": _check_eval, "series": _check_series, "cheb": _check_cheb,
    "branch-points": _check_branch_points, "qm": _check_qm,
    "integrals": _check_integrals, "dispersion": _check_dispersion,
    "grid": _check_grid,
}


def output_ok(argv, code: int, text: str) -> bool:
    try:
        return code == 0 and CHECKS[argv[0]](argv, text)
    except (ValueError, KeyError, IndexError, TypeError):
        return False


def setup():
    """Nothing in-process: the set-up probe is `python -m wtan --version`."""
    return ()


def measure(run) -> None:
    script = inputs.cli_script(run.rng)
    run.detail["inputs_sha256"] = inputs.digest(script)
    latency, sessions = [], []
    per_sub = defaultdict(list)
    launch = LaunchGauge()
    for _ in range(max(1, round(run.seconds / SESSION_ESTIMATE_S))):
        session = 0.0
        for argv in script:
            launch.sample()
            t0 = perf_counter()
            proc = subprocess.run(wtan_command(*argv), capture_output=True, text=True,
                                  timeout=PROCESS_TIMEOUT_S)
            dt = perf_counter() - t0
            session += dt
            latency.append(dt)
            per_sub[argv[0]].append(dt)
            reason = "wrong" if proc.returncode == 0 else f"exit_{proc.returncode}"
            run.check(f"cli.{argv[0]}", output_ok(argv, proc.returncode, proc.stdout),
                      reason)
        sessions.append(session)
    scale = launch.scale
    latency = [dt * scale for dt in latency]
    sessions = [s * scale for s in sessions]
    run.launch_scale = scale

    good = run.attempted - run.failed
    set_loop_metrics(run, latency, good, sessions)
    run.named.update({
        "cli_p50_s": [statistics.median(latency), "s"],
        "cli_session_s": [median(sessions), "s"],
    })
    for sub in SUBCOMMANDS:
        run.layers[f"cli.{sub}.s"] = median(per_sub[sub]) * scale

    if run.tracer is None:
        return
    # The traced run adds the script's in-process cost per subcommand, after
    # the measured sessions; it installs no wrappers, so it has no overhead.
    import wtan.cli
    inproc = defaultdict(list)
    for rep in range(2):  # the first repetition fills the package's lazy caches
        for argv in script:
            code, text, dt = run_cli_inprocess(run, wtan.cli.main, argv)
            run.check(f"cli.inproc.{argv[0]}", output_ok(argv, code, text))
            if rep:
                inproc[argv[0]].append(dt)
    for sub in SUBCOMMANDS:
        run.layers[f"cli.{sub}.inproc_ms"] = 1e3 * median(inproc[sub])
