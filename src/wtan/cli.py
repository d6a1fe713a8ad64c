"""Deterministic command-line interface.

Subcommands expose evaluation (real and finite-cuts complex), series
tables, the piecewise Chebyshev coefficients, branch points, the square
well spectrum, the integral checks, the dispersion reconstruction, and
grid sampling.  Identical invocations produce byte-identical output: no
timestamps, fixed column orders, and floats rendered with a shortest
round-trip representation capped at the requested number of significant
digits (default 12, overridable with --precision).

Exit codes: 0 success, 2 domain/usage error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable

from . import __version__
from .core import (
    CutScheme,
    defining_residual,
    derivative as dw_dx,
    eval_real,
)
from .errors import WtanError

__all__ = ["main"]


def _usage_error(msg: str) -> "SystemExit":
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _checked(convert: Callable[[str], object], rule: str,
             ok: Callable) -> Callable[[str], object]:
    """argparse type: convert(text) (int, float or a range) satisfying `ok`,
    else a usage error stating `rule`."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise _usage_error(f"{rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse's message: "invalid int value"
    return parse


_BRANCH = _checked(int, "--branch must be nonzero", lambda n: n != 0)
_ORDER = _checked(int, "--order must be >= 0", lambda k: k >= 0)
_POINTS = _checked(int, "--points must be >= 2", lambda k: k >= 2)
_PRECISION = _checked(int, "--precision must be in [1, 30]", lambda p: 1 <= p <= 30)
_COUNT = _checked(int, "--count must be >= 1", lambda k: k >= 1)
_LEVELS = _checked(int, "--levels must be >= 1", lambda k: k >= 1)
_CHEB_ORDER = _checked(int, "--order must be >= 4", lambda k: k >= 4)
_SPLIT = _checked(float, "--split must be positive and finite", lambda a: 0.0 < a < math.inf)
_WIDTH = _checked(float, "--width must be positive and finite", lambda a: 0.0 < a < math.inf)


def fmt(v: float, precision: int) -> str:
    """Shortest representation of v capped at `precision` significant digits."""
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.{precision}g}"


def _emit(records: list[dict], columns: list[str], args) -> None:
    p = args.precision

    def render(v):
        if isinstance(v, float):
            return fmt(v, p)
        return "" if v is None else str(v)

    if args.format == "csv":
        lines = [",".join(columns)]
        for r in records:
            lines.append(",".join(render(r[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        import json

        out = []
        for r in records:
            item = {}
            for c in columns:
                v = r[c]
                item[c] = float(fmt(v, p)) if isinstance(v, float) else v
            out.append(item)
        text = json.dumps(out, indent=None, separators=(",", ":")) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--precision", type=_PRECISION, default=12,
                   help="significant digits for floats (default 12)")
    p.add_argument("--output", default="-", metavar="PATH",
                   help="output file, '-' for stdout")


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise _usage_error(f"expected 're,im', got {text!r}")


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        return float(lo_s), float(hi_s)
    except ValueError:
        raise _usage_error(f"expected 'lo:hi', got {text!r}")


# grid spaces its points by (hi - lo)/(points - 1): that must be finite
_GRID_RANGE = _checked(_parse_range, "--range needs finite lo, hi and hi - lo",
                       lambda r: math.isfinite(r[1] - r[0]))
_QUAD_RANGE = _checked(_parse_range, "--range needs 0 < lo <= hi < inf",
                       lambda r: 0.0 < r[0] <= r[1] < math.inf)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    scheme = CutScheme.REAL_AXIS if args.scheme == "real" else CutScheme.FINITE_CUTS
    if args.z is not None:
        z = _parse_complex(args.z)
        if scheme is CutScheme.REAL_AXIS:
            raise _usage_error("--z requires --scheme finite-cuts")
        from .complex_plane import SheetAtlas, eval_complex

        bv = eval_complex(z, args.branch, SheetAtlas())
        x, y = bv.x, bv.y
        residual = bv.residual
    else:
        if scheme is CutScheme.FINITE_CUTS:
            raise _usage_error("--x requires --scheme real")
        side = {"pos": 1, "neg": -1, None: None}[args.side]
        y_r = eval_real(args.x, args.branch, side=side)
        x, y = complex(args.x, 0.0), complex(y_r, 0.0)
        residual = defining_residual(args.x, y_r) if args.x != 0.0 else 0.0
    rec = {
        "x_re": x.real, "x_im": x.imag,
        "y_re": y.real, "y_im": y.imag,
        "branch": args.branch, "scheme": scheme.value,
        "residual": residual,
    }
    cols = ["x_re", "x_im", "y_re", "y_im", "branch", "scheme", "residual"]
    if args.derivative:
        d = dw_dx(x, y)
        rec["dy_re"], rec["dy_im"] = d.real, d.imag
        cols += ["dy_re", "dy_im"]
    if args.check:
        # re-parse the printed value and verify it still identifies the root
        y_back = complex(float(fmt(y.real, args.precision)),
                         float(fmt(y.imag, args.precision)))
        drift = abs(y_back - y) / (1.0 + abs(y))
        if drift > 10.0 ** (1 - args.precision):
            raise _usage_error("printed value does not round-trip")
        rec["check"] = "ok"
        cols.append("check")
    _emit([rec], cols, args)
    return 0


def cmd_series(args) -> int:
    from .series import SeriesKind, large_x_coeffs, radius_estimates, small_x_coeffs

    kind = SeriesKind.SMALL_X if args.kind == "small" else SeriesKind.LARGE_X
    table = (small_x_coeffs if kind is SeriesKind.SMALL_X else large_x_coeffs)(
        args.order)
    rho = {r.k: r.rho for r in radius_estimates(table)} if args.order >= 1 else {}
    records = []
    for k in range(args.order + 1):
        records.append({
            "k": k,
            "coefficient": float(table.primary[k]),
            "radius_estimate": rho.get(k),
        })
    _emit(records, ["k", "coefficient", "radius_estimate"], args)
    return 0


def cmd_cheb(args) -> int:
    from .chebyshev import fit

    model = fit(args.split, args.order)
    records = []
    for k in range(model.order):
        records.append({
            "k": k,
            "alpha": model.alpha[k],
            "beta": model.beta[k],
            "gamma": model.gamma[k],
        })
    _emit(records, ["k", "alpha", "beta", "gamma"], args)
    return 0


def cmd_branch_points(args) -> int:
    from .branch_points import find_branch_point

    records = []
    for n in range(1, args.count + 1):
        bp = find_branch_point(n)
        records.append({
            "n": n,
            "x_re": bp.x.real, "x_im": bp.x.imag, "abs_x": abs(bp.x),
            "y_re": bp.y.real, "y_im": bp.y.imag,
        })
    _emit(records, ["n", "x_re", "x_im", "abs_x", "y_re", "y_im"], args)
    return 0


def cmd_qm(args) -> int:
    from .quantum import WellModel, spectrum, wavefunction

    model = WellModel(width_a=args.width, lam=getattr(args, "lambda"))
    levels = spectrum(model, args.levels)
    if args.wavefunction is not None:
        if not 0 <= args.wavefunction < len(levels):
            raise _usage_error(
                f"--wavefunction index must be in [0, {len(levels) - 1}]"
            )
        entry = levels[args.wavefunction]
        psi = wavefunction(model, entry)
        records = [{"xi": xi, "psi": psi(xi)}
                   for xi in _linspace(0.0, args.width, args.points)]
        _emit(records, ["xi", "psi"], args)
        return 0
    records = []
    for e in levels:
        records.append({
            "index": e.index,
            "parity": e.parity.value,
            "branch": e.branch,
            "k": e.k,
            "E": e.E,
        })
    _emit(records, ["index", "parity", "branch", "k", "E"], args)
    return 0


def cmd_integrals(args) -> int:
    from .integrals import (
        CATALAN_COMBINATION,
        LOG_SIN_TOTAL,
        check_indefinite_log,
        check_indefinite_logsin,
        definite_catalan,
        definite_lnsin,
    )

    lo, hi = args.range
    lnsin = definite_lnsin()
    catalan = definite_catalan()
    r_log = check_indefinite_log(lo, hi)
    r_logsin = check_indefinite_logsin(lo, hi)
    records = [
        {"name": "definite_lnsin", "value": lnsin,
         "reference": LOG_SIN_TOTAL, "abs_error": abs(lnsin - LOG_SIN_TOTAL)},
        {"name": "definite_catalan", "value": catalan,
         "reference": CATALAN_COMBINATION,
         "abs_error": abs(catalan - CATALAN_COMBINATION)},
        {"name": "indefinite_log_residual",
         "value": r_log, "reference": 0.0, "abs_error": r_log},
        {"name": "indefinite_logsin_residual",
         "value": r_logsin, "reference": 0.0, "abs_error": r_logsin},
    ]
    _emit(records, ["name", "value", "reference", "abs_error"], args)
    return 0


def cmd_dispersion(args) -> int:
    z = _parse_complex(args.at)
    from .complex_plane import SheetAtlas, dispersion_eval, eval_complex

    atlas = SheetAtlas()
    d = dispersion_eval(z, atlas)
    e = eval_complex(z, 1, atlas).y
    rec = {
        "z_re": z.real, "z_im": z.imag,
        "disp_re": d.real, "disp_im": d.imag,
        "direct_re": e.real, "direct_im": e.imag,
        "abs_diff": abs(d - e),
    }
    _emit([rec], ["z_re", "z_im", "disp_re", "disp_im",
                  "direct_re", "direct_im", "abs_diff"], args)
    return 0


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def cmd_grid(args) -> int:
    lo, hi = args.range
    records = []
    for x in _linspace(lo, hi, args.points):
        if x == 0.0:
            y = None
        else:
            try:
                y = eval_real(x, args.branch)
            except WtanError:
                y = None
        records.append({"x": x, "y": y})
    _emit(records, ["x", "y"], args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wtan",
        description="Branch-aware evaluation of the solution of w*tan(w) = x.",
    )
    ap.add_argument("--version", action="version", version=f"wtan {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one branch at a point")
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--x", type=float)
    where.add_argument("--z", metavar="RE,IM")
    p.add_argument("--branch", type=_BRANCH, default=1)
    p.add_argument("--scheme", choices=("real", "finite-cuts"), default="real")
    p.add_argument("--side", choices=("pos", "neg"), default=None,
                   help="limit side for x = 0 exactly")
    p.add_argument("--derivative", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="verify the printed value round-trips")
    _add_output_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("series", help="expansion coefficient tables")
    p.add_argument("--kind", choices=("small", "large"), required=True)
    p.add_argument("--order", type=_ORDER, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("cheb", help="piecewise Chebyshev coefficients")
    p.add_argument("--split", type=_SPLIT, default=3.5)
    p.add_argument("--order", type=_CHEB_ORDER, default=15)
    _add_output_flags(p)
    p.set_defaults(func=cmd_cheb)

    p = sub.add_parser("branch-points", help="branch point table")
    p.add_argument("--count", type=_COUNT, default=6)
    _add_output_flags(p)
    p.set_defaults(func=cmd_branch_points)

    p = sub.add_parser("qm", help="square-well spectrum / wavefunctions")
    p.add_argument("--width", type=_WIDTH, default=math.pi)
    p.add_argument("--lambda", type=float, required=True, dest="lambda")
    p.add_argument("--levels", type=_LEVELS, default=6)
    p.add_argument("--wavefunction", type=int, default=None, metavar="INDEX",
                   help="emit samples of one eigenfunction instead")
    p.add_argument("--points", type=_POINTS, default=101)
    _add_output_flags(p)
    p.set_defaults(func=cmd_qm)

    p = sub.add_parser("integrals", help="integral identity checks")
    p.add_argument("--range", type=_QUAD_RANGE, default=(0.5, 2.0),
                   help="interval lo:hi for the indefinite checks")
    _add_output_flags(p)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("dispersion", help="cut-reconstruction vs direct value")
    p.add_argument("--at", required=True, metavar="RE,IM")
    _add_output_flags(p)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("grid", help="sample one real branch on a range")
    p.add_argument("--branch", type=_BRANCH, default=1)
    p.add_argument("--range", type=_GRID_RANGE, required=True)
    p.add_argument("--points", type=_POINTS, default=101)
    _add_output_flags(p)
    p.set_defaults(func=cmd_grid)

    return ap


# value-taking flags whose arguments can begin with '-': argparse only
# accepts such values in '--flag=value' form, so merge the pairs up front
_NEGATIVE_VALUE_FLAGS = {"--x", "--z", "--at", "--range", "--lambda",
                         "--width", "--split"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _NEGATIVE_VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")
                and not argv[i + 1].startswith("--")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = ap.parse_args(_merge_negative_values(raw))
    try:
        return args.func(args)
    except WtanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
