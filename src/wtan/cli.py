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

The command line is read from one table, `_COMMANDS`: each command's
function, help line and flags, and each flag's converter (a `_checked`
rule, a range parser or a list of choices), default or required mark and
help line; every command also takes the output flags.  A short loop reads
it, with no argparse: `--flag value` and `--flag=value`, switches, unique
prefixes of a flag, the last of a repeated flag winning.  A value-taking
flag takes the next token as its value whatever it begins with, so
`--x -1e-3` and `--range -3.5:3.5` need no '=' form.  Each usage error
writes one `error: ...` line to stderr, nothing to stdout, and raises
SystemExit(2); -h/--help (at the top level and per command) and
--version print to stdout and raise SystemExit(0).

Exit codes: 0 success, 2 domain/usage error, 1 internal failure.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

from . import __version__
from .core import defining_residual, derivative as dw_dx, eval_real
from .errors import WtanError

__all__ = ["main"]


def _usage_error(msg: str) -> "SystemExit":
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _checked(convert, rule: str, ok):
    """A flag's converter: convert(text) (int, float or a range) satisfying
    `ok`, else a usage error stating `rule`."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise _usage_error(f"{rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # for the message "invalid int value"
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
    one %-template per table, whose text is format(v, f".{p}g")'s, byte for
    byte, and quicker to apply."""
    spec = f"%.{args.precision}g"
    if args.format == "csv":
        def render(v):
            if isinstance(v, float):
                return spec % (v + 0.0)   # + 0.0 turns -0.0 into 0.0
            return "" if v is None else str(v)

        text = "".join(",".join(map(render, row)) + "\n" for row in (columns, *rows))
    else:
        import json

        def cell(v):
            if isinstance(v, float):
                text = spec % (v + 0.0)
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


def _parse_pair(text: str, form: str = "lo:hi") -> tuple[float, float]:
    """The two floats of `text` written as `form` ('lo:hi' or 're,im'), else
    a usage error."""
    try:
        a, b = text.split(form[2])
        return float(a), float(b)
    except ValueError:
        raise _usage_error(f"expected {form!r}, got {text!r}") from None


# grid spaces its points by (hi - lo)/(points - 1): that must be finite
_GRID_RANGE = _checked(_parse_pair, "--range needs finite lo, hi and hi - lo",
                       lambda r: math.isfinite(r[1] - r[0]))
_QUAD_RANGE = _checked(_parse_pair, "--range needs 0 < lo <= hi < inf",
                       lambda r: 0.0 < r[0] <= r[1] < math.inf)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args):
    if args.z is not None:
        z = complex(*_parse_pair(args.z, "re,im"))
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
    from .integrals import (CATALAN_COMBINATION, LOG_SIN_TOTAL, check_indefinite_log,
                            check_indefinite_logsin, definite_catalan, definite_lnsin)

    lo, hi = args.range
    checks = (
        ("definite_lnsin", definite_lnsin(), LOG_SIN_TOTAL),
        ("definite_catalan", definite_catalan(), CATALAN_COMBINATION),
        ("indefinite_log_residual", check_indefinite_log(lo, hi), 0.0),
        ("indefinite_logsin_residual", check_indefinite_logsin(lo, hi), 0.0))
    return ("name", "value", "reference", "abs_error"), (
        (name, value, ref, abs(value - ref)) for name, value, ref in checks)


def cmd_dispersion(args):
    z = complex(*_parse_pair(args.at, "re,im"))
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
    try:
        return eval_real(x, branch) if x != 0.0 else None
    except WtanError:
        return None


def cmd_grid(args):
    lo, hi = args.range
    return ("x", "y"), (
        (x, _grid_value(x, args.branch)) for x in _linspace(lo, hi, args.points))


# ---------------------------------------------------------------------------
# the command table and its parser
# ---------------------------------------------------------------------------

# flag -> (converter, default, help).  A tuple converter lists the choices,
# None makes a switch (default False), and any other maps the value text to
# the attribute, raising ValueError or a usage error.  A default of ... marks
# a flag that must be given.
_OUTPUT_FLAGS = {
    "--format": (("csv", "json"), "csv", "csv or json (default csv)"),
    "--precision": (_PRECISION, 12, "significant digits of floats, 1..30 (default 12)"),
    "--output": (str, "-", "output file, '-' for stdout (default)")}

# command -> (function, help, the flags of which exactly one must be given,
# flags); every command also takes the output flags, and -h/--help
_COMMANDS = {
    "eval": (cmd_eval, "evaluate one branch at a point", ("--x", "--z"), {
        "--x": (float, None, "real point"),
        "--z": (str, None, "complex point re,im (with --scheme finite-cuts)"),
        "--branch": (_BRANCH, 1, "nonzero branch index (default 1)"),
        "--scheme": (("real", "finite-cuts"), "real", "real or finite-cuts (default real)"),
        "--side": (("pos", "neg"), None, "pos or neg: limit side for x = 0 exactly"),
        "--derivative": (None, False, "add the columns of dy/dx"),
        "--check": (None, False, "add a column stating the printed value round-trips")}),
    "series": (cmd_series, "expansion coefficient tables", (), {
        "--kind": (("small", "large"), ..., "small or large: expansion at 0 or infinity"),
        "--order": (_ORDER, ..., "highest order, >= 0")}),
    "cheb": (cmd_cheb, "piecewise Chebyshev coefficients", (), {
        "--split": (_SPLIT, 3.5, "split point a of the regions (default 3.5)"),
        "--order": (_CHEB_ORDER, 15, "coefficients per region, >= 4 (default 15)")}),
    "branch-points": (cmd_branch_points, "branch point table", (), {
        "--count": (_COUNT, 6, "rows x_1 .. x_count (default 6)")}),
    "qm": (cmd_qm, "square-well spectrum / wavefunctions", (), {
        "--width": (_WIDTH, math.pi, "well width a (default pi)"),
        "--lambda": (_LAMBDA, ..., "contact strength"),
        "--levels": (_LEVELS, 6, "levels, >= 1 (default 6)"),
        "--wavefunction": (int, None, "emit samples of eigenfunction INDEX instead"),
        "--points": (_POINTS, 101, "wavefunction samples, >= 2 (default 101)")}),
    "integrals": (cmd_integrals, "integral identity checks", (), {
        "--range": (_QUAD_RANGE, (0.5, 2.0), "lo:hi of the indefinite checks (default 0.5:2)")}),
    "dispersion": (cmd_dispersion, "cut-reconstruction vs direct value", (), {
        "--at": (str, ..., "complex point re,im")}),
    "grid": (cmd_grid, "sample one real branch on a range", (), {
        "--branch": (_BRANCH, 1, "nonzero branch index (default 1)"),
        "--range": (_GRID_RANGE, ..., "lo:hi"),
        "--points": (_POINTS, 101, "samples, >= 2 (default 101)")}),
}


def _help(command: str | None, flags: dict) -> str:
    """The help text of the top level (command None) or of one command."""
    rows = [] if command else [(name, spec[1]) for name, spec in _COMMANDS.items()]
    rows += [(flag, text + " (required)" * (d is ...)) for flag, (_, d, text) in flags.items()]
    head = (f"wtan {command} [FLAGS]\n\n{_COMMANDS[command][1]}\n\nflags:" if command else
            "wtan [-h] [--version] COMMAND [FLAGS]\n\nBranch-aware evaluation of the solution"
            " of w*tan(w) = x.\n\ncommands and flags:")
    return "\n".join([f"usage: {head}", *(f"  {left:<16}{text}" for left, text in rows),
                      "  -h, --help      print this help and exit\n"])


def _resolve(token: str, names) -> str | None:
    """The flag `token` names: itself, or the one flag it abbreviates; None
    for no flag, and a usage error for the prefix of several."""
    found = [token] if token in names else [
        name for name in names if name.startswith(token)] if token[:2] == "--" else []
    if len(found) > 1:
        raise _usage_error(f"ambiguous option: {token} could match {', '.join(found)}")
    return found[0] if found else None


def _convert(flag: str, convert, text: str):
    """One value from its text: a choice of the tuple `convert`, or convert(text)."""
    if type(convert) is tuple:
        if text not in convert:
            raise _usage_error(f"argument {flag}: invalid choice: {text!r} "
                               f"(choose from {', '.join(map(repr, convert))})")
        return text
    try:
        return convert(text)
    except ValueError:
        raise _usage_error(f"argument {flag}: invalid {convert.__name__} value: {text!r}") from None


def _read(tokens, flags: dict, one_of, command: str | None, stray: list) -> dict:
    """One level's attributes from its tokens, in two passes.  The first
    pairs each flag with its value text: a value-taking flag takes the next
    token, whatever it begins with, and what names no flag goes to `stray`.
    The second converts the pairs in order, the last of a repeated flag
    winning; -h, --help and --version print to stdout and raise
    SystemExit(0) when their turn comes."""
    names, pairs, tokens = (*flags, "-h", "--help"), [], iter(tokens)
    for token in tokens:
        name, eq, text = token.partition("=")
        flag = _resolve(name, names) if name[:1] == "-" else None
        if flag is None:
            stray.append(token)
            continue
        convert = flags.get(flag, (None,))[0]
        pairs.append((flag, convert, eq, text if eq or convert is None else next(tokens, None)))
    values = {flag[2:]: spec[1] for flag, spec in flags.items()}
    for flag, convert, eq, text in pairs:
        if convert is None and eq:
            raise _usage_error(f"argument {flag}: ignored explicit argument {text!r}")
        if flag not in flags or flag == "--version":
            sys.stdout.write(f"wtan {__version__}\n" if flag == "--version" else
                             _help(command, flags))
            raise SystemExit(0)
        if text is None:
            raise _usage_error(f"argument {flag}: expected one argument")
        value = True if convert is None else _convert(flag, convert, text)
        other = [f for f in one_of if f != flag and values[f[2:]] is not None]
        if flag in one_of and other:
            raise _usage_error(f"argument {flag}: not allowed with argument {other[0]}")
        values[flag[2:]] = value
    missing = [flag for flag in flags if values[flag[2:]] is ...]
    if missing:
        raise _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if one_of and all(values[flag[2:]] is None for flag in one_of):
        raise _usage_error(f"one of the arguments {' '.join(one_of)} is required")
    return values


def _parse(argv) -> SimpleNamespace:
    """The attributes of one command line: the top level's flags, up to the
    first token not beginning with "-", then the command's.  A usage error
    raises SystemExit(2); so do tokens naming no flag, once all else parsed."""
    stray = []
    top = next((i for i, token in enumerate(argv) if token[:1] != "-"), len(argv))
    _read(argv[:top], {"--version": (None, False, "print the version and exit")}, (), None, stray)
    if top == len(argv):
        raise _usage_error("the following arguments are required: command")
    command = _convert("command", tuple(_COMMANDS), argv[top])
    func, _, one_of, flags = _COMMANDS[command]
    values = _read(argv[top + 1:], {**flags, **_OUTPUT_FLAGS}, one_of, command, stray)
    if stray:
        raise _usage_error(f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(command=command, func=func, **values)


def main(argv: list[str] | None = None) -> int:
    """Run one `wtan` command on `argv` (default: the process's arguments):
    returns the exit code; a usage error raises SystemExit(2), and -h,
    --help and --version SystemExit(0)."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        _emit(*args.func(args), args)
        return 0
    except WtanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
