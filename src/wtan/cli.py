"""Deterministic command-line interface.

Subcommands expose evaluation (real and finite-cuts complex), series
tables, the piecewise Chebyshev coefficients, branch points, the square
well spectrum, the integral checks, the dispersion reconstruction, and
grid sampling.

Each subcommand returns one table, `(columns, rows)`: a tuple naming each
column once and an iterable of row tuples in that order.  `main` hands it
to `_emit`, which writes a CSV header line and one line per row, or a JSON
list holding `dict(zip(columns, row))` for each row.  Identical
invocations produce byte-identical output: no timestamps, fixed column
orders, and floats rendered with a shortest round-trip representation
capped at the requested number of significant digits (default 12,
overridable with --precision); None is an empty CSV cell or JSON null,
and JSON holds a non-finite float as the CSV's text: "inf", "-inf" or
"nan", so the output is strict JSON.

Exit codes: 0 success, 2 domain/usage error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable

from . import __version__
from .core import (
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
_LAMBDA = _checked(float, "--lambda must be finite", math.isfinite)


def _emit(columns: tuple[str, ...], rows, args) -> None:
    """Write one table: CSV with a header line, or a JSON list of objects.
    Each float is rendered with `args.precision` significant digits, from
    one format spec per table."""
    spec = f".{args.precision}g"
    if args.format == "csv":
        def render(v):
            if isinstance(v, float):
                return format(v + 0.0, spec)   # + 0.0 turns -0.0 into 0.0
            return "" if v is None else str(v)

        text = "".join(",".join(map(render, row)) + "\n" for row in (columns, *rows))
    else:
        import json

        def cell(v):
            if isinstance(v, float):
                text = format(v + 0.0, spec)
                # JSON has no token for inf or nan: those, and a finite v
                # whose text rounds past the float range, are the CSV's text
                number = float(text)
                return number if math.isfinite(number) else text
            return v

        text = json.dumps([{c: cell(v) for c, v in zip(columns, row)} for row in rows],
                          separators=(",", ":"), allow_nan=False) + "\n"
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

def cmd_eval(args):
    if args.z is not None:
        z = _parse_complex(args.z)
        if args.scheme == "real":
            raise _usage_error("--z requires --scheme finite-cuts")
        from .complex_plane import eval_complex

        bv = eval_complex(z, args.branch)
        x, y, residual = bv.x, bv.y, bv.residual
    else:
        if args.scheme == "finite-cuts":
            raise _usage_error("--x requires --scheme real")
        side = {"pos": 1, "neg": -1, None: None}[args.side]
        y_r = eval_real(args.x, args.branch, side=side)
        x, y = complex(args.x, 0.0), complex(y_r, 0.0)
        residual = defining_residual(args.x, y_r) if args.x != 0.0 else 0.0
    columns = ("x_re", "x_im", "y_re", "y_im", "branch", "scheme", "residual")
    row = (x.real, x.imag, y.real, y.imag, args.branch, args.scheme, residual)
    if args.derivative:
        d = dw_dx(x, y)
        columns += ("dy_re", "dy_im")
        row += (d.real, d.imag)
    if args.check:
        # the printed y always re-parses to within 10^(1-p)*(1 + |y|) of y
        # (README), so the check column only states it
        columns += ("check",)
        row += ("ok",)
    return columns, [row]


def cmd_series(args):
    from .series import large_x_coeffs, radius_estimates, small_x_coeffs

    table = (small_x_coeffs if args.kind == "small" else large_x_coeffs)(args.order)
    rho = {r.k: r.rho for r in radius_estimates(table)} if args.order >= 1 else {}
    return ("k", "coefficient", "radius_estimate"), (
        (k, c, rho.get(k)) for k, c in enumerate(table.primary_floats()))


def cmd_cheb(args):
    from .chebyshev import fit

    model = fit(args.split, args.order)
    return ("k", "alpha", "beta", "gamma"), zip(
        range(model.order), model.alpha, model.beta, model.gamma)


def cmd_branch_points(args):
    from .branch_points import find_branch_point

    return ("n", "x_re", "x_im", "abs_x", "y_re", "y_im"), (
        (bp.n, bp.x.real, bp.x.imag, abs(bp.x), bp.y.real, bp.y.imag)
        for bp in map(find_branch_point, range(1, args.count + 1)))


def cmd_qm(args):
    from .quantum import WellModel, spectrum, wavefunction

    model = WellModel(width_a=args.width, lam=getattr(args, "lambda"))
    levels = spectrum(model, args.levels)
    if args.wavefunction is None:
        return ("index", "parity", "branch", "k", "E"), (
            (e.index, e.parity.value, e.branch, e.k, e.E) for e in levels)
    if not 0 <= args.wavefunction < len(levels):
        raise _usage_error(f"--wavefunction index must be in [0, {len(levels) - 1}]")
    psi = wavefunction(model, levels[args.wavefunction])
    return ("xi", "psi"), ((xi, psi(xi)) for xi in _linspace(0.0, args.width, args.points))


def cmd_integrals(args):
    from .integrals import (
        CATALAN_COMBINATION,
        LOG_SIN_TOTAL,
        check_indefinite_log,
        check_indefinite_logsin,
        definite_catalan,
        definite_lnsin,
    )

    lo, hi = args.range
    checks = (
        ("definite_lnsin", definite_lnsin(), LOG_SIN_TOTAL),
        ("definite_catalan", definite_catalan(), CATALAN_COMBINATION),
        ("indefinite_log_residual", check_indefinite_log(lo, hi), 0.0),
        ("indefinite_logsin_residual", check_indefinite_logsin(lo, hi), 0.0),
    )
    return ("name", "value", "reference", "abs_error"), (
        (name, value, ref, abs(value - ref)) for name, value, ref in checks)


def cmd_dispersion(args):
    z = _parse_complex(args.at)
    from .complex_plane import SheetAtlas, dispersion_eval, eval_complex

    d = dispersion_eval(z, SheetAtlas())
    e = eval_complex(z, 1).y
    return ("z_re", "z_im", "disp_re", "disp_im", "direct_re", "direct_im", "abs_diff"), [
        (z.real, z.imag, d.real, d.imag, e.real, e.imag, abs(d - e))]


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _grid_value(x: float, branch: int) -> float | None:
    """eval_real(x, branch), or None (an empty cell) at 0 and on a domain error."""
    if x == 0.0:
        return None
    try:
        return eval_real(x, branch)
    except WtanError:
        return None


def cmd_grid(args):
    lo, hi = args.range
    return ("x", "y"), (
        (x, _grid_value(x, args.branch)) for x in _linspace(lo, hi, args.points))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `wtan` argument parser, built once per process: parsing keeps no
    state in it, so every `main` call in a process shares it."""
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
                   help="add a column stating the printed value round-trips")
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
    p.add_argument("--lambda", type=_LAMBDA, required=True, dest="lambda")
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
    """Run one `wtan` command on `argv` (default: the process's arguments)
    with the process's one parser; returns the exit code, and usage errors
    raise SystemExit(2)."""
    ap = build_parser()
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = ap.parse_args(_merge_negative_values(raw))
    try:
        _emit(*args.func(args), args)
        return 0
    except WtanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
