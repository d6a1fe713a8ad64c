import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import os
import random
import shlex
import struct
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import compare_trees
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtan import __version__, cli
from wtan.cli import _emit, main

CMD = [sys.executable, "-m", "wtan"]
ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def child_env():
    """The test process's environment with the source tree importable."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*args):
    """`wtan <args>` run by `main` in this process: its exit code, stdout and
    stderr, as a fresh `python -m wtan` prints them (TestOneParserPerProcess
    checks that)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


class TestEval:
    def test_special_value(self):
        cp = run_cli("eval", "--x", "0.7853981633974483", "--branch", "1")
        assert cp.returncode == 0, cp.stderr
        assert "0.785398163397" in cp.stdout

    def test_unit_argument(self):
        cp = run_cli("eval", "--x", "1", "--branch", "1")
        assert cp.returncode == 0
        assert "0.860333589019" in cp.stdout

    def test_branch_point_proximity_is_domain_error(self):
        cp = run_cli("eval", "--z", "-1.650611,2.059981", "--branch", "1",
                     "--scheme", "finite-cuts")
        assert cp.returncode == 2
        assert "branch point" in cp.stderr.lower()

    def test_negative_arguments_in_space_form(self):
        cp = run_cli("eval", "--x", "-1", "--branch", "1")
        assert cp.returncode == 0
        assert "2.79838604578" in cp.stdout
        cp = run_cli("grid", "--range", "-2:-1", "--points", "3")
        assert cp.returncode == 0
        assert cp.stdout.splitlines()[1].startswith("-2,")
        cp = run_cli("qm", "--width", "1", "--lambda", "-1e8", "--levels", "3")
        assert cp.returncode == 0

    def test_complex_eval(self):
        cp = run_cli("eval", "--z", "2,2", "--branch", "1",
                     "--scheme", "finite-cuts", "--format", "json")
        assert cp.returncode == 0, cp.stderr
        rec = json.loads(cp.stdout)[0]
        assert rec["y_re"] == pytest.approx(1.2094213503, abs=1e-9)
        assert rec["y_im"] == pytest.approx(0.2211773875, abs=1e-9)
        assert rec["scheme"] == "finite-cuts"

    def test_complex_eval_builds_no_atlas(self, monkeypatch):
        from wtan import complex_plane

        def refuse(self):
            raise AssertionError("an atlas was built")

        monkeypatch.setattr(complex_plane.SheetAtlas, "__init__", refuse)
        cp = run_cli("eval", "--z", "2,2", "--branch", "1", "--scheme", "finite-cuts")
        assert cp.returncode == 0, cp.stderr

    def test_derivative_flag(self):
        cp = run_cli("eval", "--x", "2", "--branch", "1", "--derivative",
                     "--format", "json")
        rec = json.loads(cp.stdout)[0]
        assert "dy_re" in rec and "dy_im" in rec

    def test_check_flag(self):
        cp = run_cli("eval", "--x", "5", "--branch", "2", "--check")
        assert cp.returncode == 0
        assert "ok" in cp.stdout
        cp = run_cli("eval", "--x", "1e308", "--branch", "-7", "--check",
                     "--format", "json")
        assert cp.returncode == 0, cp.stderr
        assert json.loads(cp.stdout)[0]["check"] == "ok"

    def test_check_column_states_a_proved_round_trip(self):
        # --check re-parses nothing: each printed part is within half a unit
        # of its last digit and float() adds at most 2^-53, so the re-parsed
        # y is within 10^(1-p)*(1 + |y|) of y for every |y| < 4e307 (README)
        rng = random.Random(1)
        for precision in range(1, 31):
            spec = f".{precision}g"
            for _ in range(300):
                y = complex(*(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 307.6)
                              for _ in range(2)))
                back = complex(*(float(format(v + 0.0, spec)) for v in (y.real, y.imag)))
                assert abs(back - y) <= 10.0 ** (1 - precision) * (1.0 + abs(y)), (precision, y)

    def test_zero_needs_side(self):
        cp = run_cli("eval", "--x", "0", "--branch", "1")
        assert cp.returncode == 2
        cp = run_cli("eval", "--x", "0", "--branch", "1", "--side", "neg")
        assert cp.returncode == 0
        assert "3.14159265359" in cp.stdout

    def test_usage_error(self):
        cp = run_cli("eval", "--branch", "1")
        assert cp.returncode == 2

    def test_zero_branch_is_usage_error(self):
        cp = run_cli("eval", "--x", "1", "--branch", "0")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "--branch must be nonzero" in cp.stderr

    def test_x_and_z_are_exclusive(self):
        cp = run_cli("eval", "--x", "1", "--z", "2,2", "--scheme", "finite-cuts")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "not allowed with argument" in cp.stderr

    def test_real_argument_rejects_finite_cuts(self):
        cp = run_cli("eval", "--x", "-1", "--branch", "1",
                     "--scheme", "finite-cuts")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "--x requires --scheme real" in cp.stderr

    def test_complex_argument_rejects_real(self):
        cp = run_cli("eval", "--z", "1,1")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr == "error: --z requires --scheme finite-cuts\n"

    def test_complex_argument_needs_two_parts(self):
        cp = run_cli("eval", "--z", "1")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr == "error: expected 're,im', got '1'\n"


class TestTables:
    def test_series_row_values(self):
        cp = run_cli("series", "--kind", "large", "--order", "4")
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "k,coefficient,radius_estimate"
        coeffs = [float(line.split(",")[1]) for line in lines[1:]]
        assert coeffs[0] == 1 and coeffs[1] == -1 and coeffs[2] == 1
        assert coeffs[3] == pytest.approx(-0.177532966576, abs=1e-10)
        assert coeffs[4] == pytest.approx(-2.289868133696, abs=1e-10)

    def test_series_past_the_float_range(self):
        # b_k leaves float64's range at k = 744: printed as +-inf, as
        # rounding to nearest gives, not an internal error
        cp = run_cli("series", "--kind", "large", "--order", "800")
        assert cp.returncode == 0 and cp.stderr == ""
        rows = [line.split(",") for line in cp.stdout.splitlines()[1:]]
        assert len(rows) == 801
        assert [abs(float(r[1])) == float("inf") for r in rows] == [k >= 744 for k in range(801)]
        assert {r[1] for r in rows[744:]} == {"inf", "-inf"}
        assert all(2.5 < float(r[2]) < 2.7 for r in rows[744:])

    def test_series_past_the_float_range_is_strict_json(self):
        # JSON has no infinity: the coefficients past float64's range are
        # the CSV's strings, and the output parses with no non-finite token
        cp = run_cli("series", "--kind", "large", "--order", "800", "--format", "json")
        assert cp.returncode == 0 and cp.stderr == ""

        def refuse(token):
            raise ValueError(f"non-finite JSON token {token}")

        recs = json.loads(cp.stdout, parse_constant=refuse)
        assert len(recs) == 801
        assert [isinstance(r["coefficient"], str) for r in recs] == [k >= 744 for k in range(801)]
        assert {r["coefficient"] for r in recs[744:]} == {"inf", "-inf"}
        assert all(isinstance(r["radius_estimate"], float) for r in recs[744:])

    def test_cheb_table_layout(self):
        cp = run_cli("cheb", "--split", "3.5", "--order", "15")
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "k,alpha,beta,gamma"
        assert len(lines) == 16
        row0 = lines[1].split(",")
        assert float(row0[1]) == pytest.approx(0.80600536, abs=5e-8)

    def test_branch_points_table(self):
        cp = run_cli("branch-points", "--count", "6")
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "n,x_re,x_im,abs_x,y_re,y_im"
        last = lines[6].split(",")
        assert float(last[1]) == pytest.approx(-2.642706, abs=1e-6)
        assert float(last[2]) == pytest.approx(17.99809, abs=1e-5)

    def test_qm_spectrum(self):
        cp = run_cli("qm", "--width", "1", "--lambda", "1e-8", "--levels", "4")
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "index,parity,branch,k,E"
        first = lines[1].split(",")
        assert first[1] == "even"
        assert float(first[3]) == pytest.approx(3.14159265, abs=1e-6)

    def test_qm_lambda_too_small_to_divide(self):
        # a/lambda overflows: the levels of the unperturbed well, as at 0
        cp = run_cli("qm", "--width", "1", "--lambda", "1e-320", "--levels", "3")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == run_cli("qm", "--width", "1", "--lambda", "0",
                                    "--levels", "3").stdout

    def test_qm_width_outside_the_float_range(self):
        # the levels' k and E overflow: no rows of inf
        cp = run_cli("qm", "--width", "1e-320", "--lambda", "1", "--levels", "2")
        assert cp.returncode == 2, cp.stderr
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: "), cp.stderr

    def test_qm_wavefunction(self):
        cp = run_cli("qm", "--width", "1", "--lambda", "0.5",
                     "--levels", "2", "--wavefunction", "0", "--points", "11")
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "xi,psi"
        assert len(lines) == 12

    def test_grid(self):
        cp = run_cli("grid", "--branch", "1", "--range", "0.5:2.0",
                     "--points", "4")
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 5
        x, y = lines[1].split(",")
        assert float(y) == pytest.approx(0.6532711871, abs=1e-9)

    def test_grid_leaves_zero_empty(self):
        cp = run_cli("grid", "--range", "-1:1", "--points", "3")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.splitlines() == [
            "x,y", "-1,2.79838604578", "0,", "1,0.860333589019"]

    def test_series_negative_order_is_usage_error(self):
        cp = run_cli("series", "--kind", "small", "--order", "-1")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "--order must be >= 0" in cp.stderr

    @pytest.mark.parametrize("args", [
        ("grid", "--range", "0.5:2", "--points", "0"),
        ("grid", "--range", "0.5:2", "--points", "-5"),
        ("grid", "--range", "0.5:2", "--points", "1"),
        ("qm", "--width", "1", "--lambda", "0.5", "--wavefunction", "0", "--points", "1"),
    ])
    def test_fewer_than_two_points_is_usage_error(self, args):
        cp = run_cli(*args)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "--points must be >= 2" in cp.stderr

    @pytest.mark.parametrize("args, message", [
        (("cheb", "--order", "0"), "--order must be >= 4"),
        (("cheb", "--split", "-1"), "--split must be positive and finite"),
        (("qm", "--lambda", "1", "--levels", "0"), "--levels must be >= 1"),
        (("qm", "--lambda", "1", "--width", "0"), "--width must be positive and finite"),
        (("qm", "--lambda", "1", "--width", "nan"), "--width must be positive and finite"),
        (("integrals", "--range", "0:1"), "--range needs 0 < lo <= hi < inf"),
        (("integrals", "--range", "2:1"), "--range needs 0 < lo <= hi < inf"),
        (("integrals", "--range", "1:nan"), "--range needs 0 < lo <= hi < inf"),
        (("grid", "--range", "0:inf"), "--range needs finite lo, hi and hi - lo"),
        (("grid", "--range", "nan:1"), "--range needs finite lo, hi and hi - lo"),
        (("grid", "--range", "-1e308:1e308"), "--range needs finite lo, hi and hi - lo"),
        (("branch-points", "--count", "-1"), "--count must be >= 1"),
        (("qm", "--lambda", "nan"), "--lambda must be finite"),
        (("qm", "--lambda", "inf"), "--lambda must be finite"),
        (("qm", "--lambda", "-inf"), "--lambda must be finite"),
    ])
    def test_bad_argument_is_usage_error(self, args, message):
        # checked when the arguments are parsed: no internal error, and no
        # rows of nan or empty table
        cp = run_cli(*args)
        assert cp.returncode == 2, cp.stderr
        assert cp.stdout == ""
        assert cp.stderr.startswith(f"error: {message}, got "), cp.stderr

    def test_range_needs_two_parts(self):
        cp = run_cli("grid", "--range", "1")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr == "error: expected 'lo:hi', got '1'\n"

    def test_wavefunction_index_out_of_range(self):
        cp = run_cli("qm", "--lambda", "0.5", "--levels", "2", "--wavefunction", "5")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr == "error: --wavefunction index must be in [0, 1]\n"

    def test_grid_leaves_domain_errors_empty(self):
        # branch 2**1021 is past eval_real's limit: every cell is empty
        cp = run_cli("grid", "--branch", str(2 ** 1021), "--range", "1:2", "--points", "3")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.splitlines() == ["x,y", "1,", "1.5,", "2,"]

    def test_cheb_node_past_the_float_range(self):
        cp = run_cli("cheb", "--split", "1e308")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: solver failed at a fit node"), cp.stderr

    def test_grid_zero_branch_is_usage_error(self):
        cp = run_cli("grid", "--branch", "0", "--range", "0.5:2")
        assert cp.returncode == 2
        assert "--branch must be nonzero" in cp.stderr

    def test_dispersion(self):
        cp = run_cli("dispersion", "--at", "5,0")
        lines = cp.stdout.strip().splitlines()
        rec = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(rec["abs_diff"]) < 1e-4


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("series", "--kind", "small", "--order", "12"),
        ("cheb", "--order", "8"),
        ("branch-points", "--count", "3"),
        ("eval", "--x", "2.5", "--branch", "2", "--format", "json"),
        ("qm", "--width", "3.14159", "--lambda", "-0.7", "--levels", "5"),
    ])
    def test_byte_identical_repeats(self, args):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_file_output(self, tmp_path: Path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_cli("series", "--kind", "large", "--order", "6",
                "--output", str(out1))
        run_cli("series", "--kind", "large", "--order", "6",
                "--output", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_output_is_an_internal_error(self, tmp_path: Path):
        cp = run_cli("eval", "--x", "1", "--output", str(tmp_path / "missing" / "out.csv"))
        assert cp.returncode == 1
        assert cp.stderr.startswith("internal error: [Errno 2] ")
        assert cp.stdout == ""

    def test_precision_flag(self):
        cp = run_cli("eval", "--x", "1", "--branch", "1", "--precision", "15")
        assert "0.86033358901938" in cp.stdout

    def test_json_schema(self):
        cp = run_cli("eval", "--x", "1", "--branch", "1", "--format", "json")
        rec = json.loads(cp.stdout)[0]
        assert list(rec.keys()) == ["x_re", "x_im", "y_re", "y_im",
                                    "branch", "scheme", "residual"]


def _cells(seed):
    """Signed zeros, infinities, nan, subnormals and random floats."""
    rng = random.Random(seed)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308 / 3, 1.7976931348623157e308, 0.5, 1.0, 123456789.0]
    drawn = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0) for _ in range(60)]
    drawn += [struct.unpack("d", rng.getrandbits(64).to_bytes(8, "little"))[0]
              for _ in range(60)]
    return specials + drawn


def _emitted(columns, rows, fmt_, precision):
    out = io.StringIO()
    args = argparse.Namespace(format=fmt_, precision=precision, output="-")
    with contextlib.redirect_stdout(out):
        _emit(columns, rows, args)
    return out.getvalue()


class TestCellRendering:
    # each float cell is f"{v:.{p}g}" with -0.0 printed as 0; JSON holds
    # that text as a number, or as a string where it is not finite
    @staticmethod
    def _text(v, p):
        return f"{0.0 if v == 0.0 else v:.{p}g}"

    @pytest.mark.parametrize("precision", range(1, 31))
    def test_csv_cells(self, precision):
        values = _cells(precision)
        rows = [(v, i, None, "s") for i, v in enumerate(values)]
        expected = "a,b,c,d\n" + "".join(
            f"{self._text(v, precision)},{i},,s\n" for i, v in enumerate(values))
        assert _emitted(("a", "b", "c", "d"), rows, "csv", precision) == expected

    @pytest.mark.parametrize("precision", range(1, 31))
    def test_json_cells(self, precision):
        for i, v in enumerate(_cells(100 + precision)):
            text = self._text(v, precision)
            # inf, nan and a finite float whose text rounds past the float
            # range (1.8e+308) have no strict JSON number: the CSV's text
            cell = float(text) if math.isfinite(float(text)) else text
            expected = json.dumps([{"a": cell, "b": i, "c": None}],
                                  separators=(",", ":"), allow_nan=False) + "\n"
            assert _emitted(("a", "b", "c"), [(v, i, None)], "json", precision) == expected, v


class TestTemplate:
    # _emit renders a float v as "%.<p>g" % (v + 0.0): the same text as
    # format(v + 0.0, ".<p>g"), which the README pins were written with
    @pytest.mark.parametrize("precision", range(1, 31))
    def test_percent_template_is_formats_text(self, precision):
        import numpy as np

        rng = random.Random(300 + precision)
        values = _cells(200 + precision) + [np.float64(1.0) / 3.0, np.float64(-0.0),
                                            np.float64(5e-324), np.float64(math.nan)]
        values += [struct.unpack("d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                   for _ in range(2000)]
        spec = f"%.{precision}g"
        for v in values:
            assert spec % (v + 0.0) == format(v + 0.0, f".{precision}g"), v

    def test_numpy_float_cell(self):
        import numpy as np

        rows = [(np.float64(-0.0), np.float64(2.0) / 3.0, np.float64(-math.inf))]
        assert _emitted(("a", "b", "c"), rows, "csv", 12) == "a,b,c\n0,0.666666666667,-inf\n"
        assert _emitted(("a", "b", "c"), rows, "json", 12) == \
            '[{"a":0.0,"b":0.666666666667,"c":"-inf"}]\n'


class TestOneParserPerProcess:
    # one call per subcommand, a usage error and a domain error; the grid
    # call comes again last, after every other command has used the parser
    CALLS = [
        ["grid", "--branch", "-2", "--range", "-1.5:2.5", "--points", "9", "--precision", "3"],
        ["eval", "--x", "2.5", "--branch", "2", "--format", "json"],
        ["eval", "--z", "2,2", "--branch", "1", "--scheme", "finite-cuts", "--derivative"],
        ["series", "--kind", "small", "--order", "12"],
        ["cheb", "--split", "3.5", "--order", "8", "--format", "json"],
        ["branch-points", "--count", "3"],
        ["qm", "--width", "1", "--lambda", "-0.7", "--levels", "4"],
        ["integrals", "--range", "0.5:3"],
        ["dispersion", "--at", "5,0.5"],
        ["grid", "--points", "9"],   # no --range: a usage error
        ["eval", "--z", "-1.650611,2.059981", "--branch", "1",
         "--scheme", "finite-cuts"],   # at a branch point: a domain error
        ["grid", "--branch", "-2", "--range", "-1.5:2.5", "--points", "9", "--precision", "3"],
    ]

    def test_calls_in_one_process_print_what_fresh_processes_print(self):
        # the fresh processes run while this one makes the same calls
        with contextlib.ExitStack() as stack:
            children = [stack.enter_context(subprocess.Popen(
                CMD + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()))
                for argv in self.CALLS]
            got = [run_cli(*argv) for argv in self.CALLS]
            fresh = [(*child.communicate(), child.returncode) for child in children]
        assert [r.returncode for r in got] == [0] * 9 + [2, 2, 0]
        for argv, r, (out, err, code) in zip(self.CALLS, got, fresh):
            assert (r.returncode, r.stdout.encode(), r.stderr.encode()) == (code, out, err), argv
        assert got[0] == got[-1]
        assert {argv[0] for argv in self.CALLS} == {
            "eval", "series", "cheb", "branch-points", "qm", "integrals",
            "dispersion", "grid"}


# The argparse parser `wtan` had before its command table, kept as the
# reference of TestParserParity: build_parser and _merge_negative_values as
# they were, reading the converters and subcommands from wtan.cli.

@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--precision", type=cli._PRECISION, default=12,
                       help="significant digits for floats (default 12)")
        p.add_argument("--output", default="-", metavar="PATH",
                       help="output file, '-' for stdout")

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
    p.add_argument("--branch", type=cli._BRANCH, default=1)
    p.add_argument("--scheme", choices=("real", "finite-cuts"), default="real")
    p.add_argument("--side", choices=("pos", "neg"), default=None,
                   help="limit side for x = 0 exactly")
    p.add_argument("--derivative", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="add a column stating the printed value round-trips")
    add_output_flags(p)
    p.set_defaults(func=cli.cmd_eval)

    p = sub.add_parser("series", help="expansion coefficient tables")
    p.add_argument("--kind", choices=("small", "large"), required=True)
    p.add_argument("--order", type=cli._ORDER, required=True)
    add_output_flags(p)
    p.set_defaults(func=cli.cmd_series)

    p = sub.add_parser("cheb", help="piecewise Chebyshev coefficients")
    p.add_argument("--split", type=cli._SPLIT, default=3.5)
    p.add_argument("--order", type=cli._CHEB_ORDER, default=15)
    add_output_flags(p)
    p.set_defaults(func=cli.cmd_cheb)

    p = sub.add_parser("branch-points", help="branch point table")
    p.add_argument("--count", type=cli._COUNT, default=6)
    add_output_flags(p)
    p.set_defaults(func=cli.cmd_branch_points)

    p = sub.add_parser("qm", help="square-well spectrum / wavefunctions")
    p.add_argument("--width", type=cli._WIDTH, default=math.pi)
    p.add_argument("--lambda", type=cli._LAMBDA, required=True, dest="lambda")
    p.add_argument("--levels", type=cli._LEVELS, default=6)
    p.add_argument("--wavefunction", type=int, default=None, metavar="INDEX",
                   help="emit samples of one eigenfunction instead")
    p.add_argument("--points", type=cli._POINTS, default=101)
    add_output_flags(p)
    p.set_defaults(func=cli.cmd_qm)

    p = sub.add_parser("integrals", help="integral identity checks")
    p.add_argument("--range", type=cli._QUAD_RANGE, default=(0.5, 2.0),
                   help="interval lo:hi for the indefinite checks")
    add_output_flags(p)
    p.set_defaults(func=cli.cmd_integrals)

    p = sub.add_parser("dispersion", help="cut-reconstruction vs direct value")
    p.add_argument("--at", required=True, metavar="RE,IM")
    add_output_flags(p)
    p.set_defaults(func=cli.cmd_dispersion)

    p = sub.add_parser("grid", help="sample one real branch on a range")
    p.add_argument("--branch", type=cli._BRANCH, default=1)
    p.add_argument("--range", type=cli._GRID_RANGE, required=True)
    p.add_argument("--points", type=cli._POINTS, default=101)
    add_output_flags(p)
    p.set_defaults(func=cli.cmd_grid)

    return ap


# value-taking flags whose arguments can begin with '-': argparse only
# accepts such values in '--flag=value' form, so merge the pairs up front
NEGATIVE_VALUE_FLAGS = {"--x", "--z", "--at", "--range", "--lambda", "--width", "--split"}


def merge_negative_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in NEGATIVE_VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")
                and not argv[i + 1].startswith("--")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def reference_subparsers() -> dict[str, argparse.ArgumentParser]:
    return reference_parser()._subparsers._group_actions[0].choices


def _attributes(ns) -> str:
    # repr, so that nan equals nan and -0.0 differs from 0.0
    return repr(sorted(vars(ns).items()))


def reference_outcome(argv: list[str]) -> tuple:
    """The reference's parse of argv: ("values", its attributes), or ("exit",
    code) for a usage error (2) or a help or version text (0)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = reference_parser().parse_args(merge_negative_values(argv))
        except SystemExit as exc:
            return "exit", exc.code
    return "values", _attributes(ns)


def table_outcome(argv: list[str]) -> tuple:
    """cli._parse's outcome in the form of reference_outcome; a usage error
    writes one "error: " line to stderr and nothing to stdout, and help and
    version texts go to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = "values", _attributes(cli._parse(argv))
        except SystemExit as exc:
            outcome = "exit", exc.code
    out, err = out.getvalue(), err.getvalue()
    if outcome == ("exit", 2):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    elif outcome == ("exit", 0):
        assert out.endswith("\n") and err == "", argv
    else:
        assert out == err == "", argv
    return outcome


def joined(argv: list[str]) -> list[str]:
    """argv with every value-taking flag of its command, named in full or by
    a unique prefix, written in '=' form with a next token that begins with
    '-': the form in which the reference takes any value."""
    top = next((i for i, token in enumerate(argv) if token[:1] != "-"), len(argv))
    sub = reference_subparsers().get(argv[top] if top < len(argv) else None)
    if sub is None:
        return argv
    takes = {name: action.nargs != 0 for name, action in sub._option_string_actions.items()}
    out, rest = argv[:top + 1], iter(argv[top + 1:])
    for token in rest:
        found = [token] if token in takes else [
            name for name in takes if name.startswith(token) and token[:2] == "--"]
        value = next(rest, None) if len(found) == 1 and takes[found[0]] else None
        if value is not None and value[:1] == "-":
            out.append(f"{token}={value}")
        else:
            out += [token] if value is None else [token, value]
    return out


# Value texts for any flag: valid, negative, out of range, malformed and
# flag-like ones.
VALUE_TEXTS = ["1", "0", "-0", "2", "-2", "7", "-1", "2.5", "-0.5", "1e-8", "-1e-3", "3.5",
               "15", "101", "nan", "inf", "-inf", "abc", "", "1,1", "-1,2", "2,-2.5", "0.5:2",
               "-3.5:3.5", "-1:1", "1:nan", "2:1", "csv", "json", "xml", "small", "large",
               "real", "finite-cuts", "pos", "neg", "-", "-x", "--x", "--derivative", "-h",
               "a=b", "2 3"]
# and valid ones, by flag
VALID_TEXTS = {
    "--x": ["1", "-1", "2.5", "-1e-3", "0", "1e300"], "--z": ["1,1", "-1,2", "2,-2"],
    "--branch": ["1", "-2", "3"], "--scheme": ["real", "finite-cuts"], "--side": ["pos", "neg"],
    "--kind": ["small", "large"], "--order": ["0", "4", "12"], "--split": ["3.5", "1"],
    "--count": ["1", "6"], "--width": ["1", "3.14"], "--lambda": ["0.5", "-0.5", "1e-8", "0"],
    "--levels": ["2", "6"], "--wavefunction": ["0", "1", "-1"], "--points": ["2", "11"],
    "--range": ["0.5:2", "-3.5:3.5", "-1:1"], "--at": ["5,0", "-1,2"],
    "--format": ["csv", "json"], "--precision": ["1", "12", "30"],
    "--output": ["-", "out.csv", "-out"],
}


@st.composite
def command_lines(draw) -> list[str]:
    """A `wtan` argv: now and then a top-level flag, a command (rarely none
    or a wrong one), then flags in any order (in half the lines the
    required ones among them), named in full or by a prefix, in '=' or
    spaced form, with valid and invalid values, repeats, switches given a
    value, values left out, unknown flags and stray tokens, -h and
    --version."""
    subs = reference_subparsers()
    top = draw(st.sampled_from(["--version", "-h", "--vers", "--bogus"] + [None] * 20))
    command = draw(st.sampled_from([*subs] * 4 + ["evl", None]))
    argv = [top] * (top is not None) + [command] * (command is not None)
    if command is None:
        return argv
    actions = [a for a in subs.get(command, subs["eval"])._actions
               if a.option_strings and a.dest != "help"]
    names = [a.option_strings[-1] for a in actions]
    items = []
    if draw(st.booleans()):   # the required flags, or one of --x and --z
        items += [[name, draw(st.sampled_from(VALID_TEXTS[name]))] for name, a in
                  zip(names, actions) if a.required or a.dest == draw(st.sampled_from("xz"))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 29))
        if kind == 0:
            items.append([draw(st.sampled_from(["-h", "--help", "--he", "--version", "--bogus",
                                                "stray", "-1"]))])
            continue
        name = draw(st.sampled_from(names))
        form = name[:draw(st.integers(3, len(name)))] if kind % 3 == 0 else name
        if name not in VALID_TEXTS:   # a switch
            items.append([form + "=1" * (kind == 1)])
            continue
        value = draw(st.sampled_from(VALID_TEXTS[name] if kind > 6 else VALUE_TEXTS))
        items.append([form] if kind == 2 else [f"{form}={value}"] if kind % 2 else [form, value])
    return argv + [token for item in draw(st.permutations(items)) for token in item]


class TestParserParity:
    # the table's parser against the argparse reference: the same attribute
    # values where the reference accepts, the same help or version exit, a
    # usage error (exit 2, one "error: " line, empty stdout) where it
    # refuses.  The one difference allowed: a value that begins with "-",
    # which the reference took only in '=' form for most flags.

    @settings(max_examples=2000)
    @given(command_lines())
    @example(["eval", "--x", "1", "--output", "-out"])
    @example(["eval", "--x", "1", "--output", "--derivative", "-h"])
    @example(["grid", "--ra", "-3.5:3.5", "--p", "5"])
    @example(["eval", "--x", "1", "--z", "1,1"])
    @example(["eval", "--z", "1,1", "--x", "abc"])
    @example(["eval", "--s", "pos", "--x", "1"])
    @example(["--bogus", "eval", "-h"])
    @example(["eval", "-h", "--x"])
    @example(["qm", "--lambda", "-1", "--lambda=2", "--width", "-1"])
    @example(["series", "--order", "3", "--kind"])
    def test_same_attributes_as_the_argparse_reference(self, argv):
        got, ref = table_outcome(argv), reference_outcome(argv)
        if got != ref:
            both = joined(argv)
            assert both != argv and got == reference_outcome(both), (argv, got, ref)

    @pytest.mark.parametrize("argv, name, value", [
        (["eval", "--x", "1", "--output", "-out"], "output", "-out"),
        (["eval", "--x", "1", "--output", "--derivative"], "output", "--derivative"),
        (["grid", "--ra", "-3.5:3.5"], "range", (-3.5, 3.5)),
        (["dispersion", "--a", "-1,2"], "at", "-1,2"),
        (["qm", "--lam", "-1e-8"], "lambda", -1e-8),
    ])
    def test_a_value_may_begin_with_a_dash(self, argv, name, value):
        # the reference refused these; the table takes the next token
        assert reference_outcome(argv) == ("exit", 2)
        assert getattr(cli._parse(argv), name) == value

    @pytest.mark.parametrize("argv", compare_trees.CLI_USAGE_ERRORS)
    def test_the_census_usage_errors_are_usage_errors(self, argv):
        # tests/compare_trees.py's CLI pool runs these against a parent tree
        cp = run_cli(*argv)
        assert (cp.returncode, cp.stdout) == (2, ""), argv
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1, cp.stderr

    @pytest.mark.parametrize("argv", [[], ["eval"], ["qm"]])
    def test_help_lists_every_flag_of_the_table(self, argv):
        cp = run_cli(*argv, "--help")
        assert (cp.returncode, cp.stderr) == (0, "")
        assert cp.stdout.startswith(f"usage: wtan {argv[0] if argv else '[-h]'}")
        flags = (cli._COMMANDS[argv[0]][3] | cli._OUTPUT_FLAGS) if argv else cli._COMMANDS
        assert all(f"\n  {name} " in cp.stdout for name in flags)
        assert cp.stdout.endswith("  -h, --help      print this help and exit\n")

    def test_version(self):
        assert run_cli("--version") == (0, f"wtan {__version__}\n", "")


# The README's CLI examples, by the name of the file in tests/data/readme_cli
# that holds the stdout each printed when it was recorded; <name>.json.out
# holds the stdout with --format json added, for those not already in JSON.
README_EXAMPLES = {
    "eval_x": "eval --x 1 --branch 1",
    "eval_z": "eval --z 2,2 --branch 1 --scheme finite-cuts --format json",
    "eval_side": "eval --x 0 --branch 1 --side neg",
    "series": "series --kind large --order 12",
    "cheb": "cheb --split 3.5 --order 15",
    "branch_points": "branch-points --count 6",
    "qm": "qm --width 1 --lambda 1e-8 --levels 6",
    "qm_wavefunction": "qm --width 1 --lambda 0.5 --levels 2 --wavefunction 0 --points 101",
    "integrals": "integrals",
    "dispersion": "dispersion --at 5,0",
    "grid": "grid --branch 1 --range -3.5:3.5 --points 201",
}


class TestReadmeExamples:
    def test_the_readme_lists_these_examples(self):
        text = (ROOT / "README.md").read_text()
        block = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
        listed = [line.split("#", 1)[0].split(None, 1)[1].strip()
                  for line in block.splitlines() if line.startswith("wtan ")]
        assert listed == list(README_EXAMPLES.values())

    @pytest.mark.parametrize("name", list(README_EXAMPLES))
    def test_stdout_is_byte_identical(self, name):
        expected = (ROOT / "tests" / "data" / "readme_cli" / f"{name}.out").read_bytes()
        cp = run_cli(*shlex.split(README_EXAMPLES[name]))
        assert (cp.returncode, cp.stdout.encode()) == (0, expected), cp.stderr

    @pytest.mark.parametrize("name", [name for name, cmd in README_EXAMPLES.items()
                                      if "--format json" not in cmd])
    def test_json_stdout_is_byte_identical(self, name):
        expected = (ROOT / "tests" / "data" / "readme_cli" / f"{name}.json.out").read_bytes()
        cp = run_cli(*shlex.split(README_EXAMPLES[name]), "--format", "json")
        assert (cp.returncode, cp.stdout.encode()) == (0, expected), cp.stderr


class TestIntegralsCommand:
    def test_reports_all_four_checks(self):
        cp = run_cli("integrals", "--format", "json")
        recs = json.loads(cp.stdout)
        names = {r["name"] for r in recs}
        assert names == {"definite_lnsin", "definite_catalan",
                         "indefinite_log_residual", "indefinite_logsin_residual"}
        by_name = {r["name"]: r for r in recs}
        assert abs(by_name["definite_lnsin"]["abs_error"]) < 1e-6
        assert abs(by_name["definite_catalan"]["abs_error"]) < 1e-6

    def test_long_range_is_not_a_silent_wrong_value(self):
        # the ln w integral over [1, 1e300] is ~4.5e299: no 1e-9 estimate
        cp = run_cli("integrals", "--range", "1:1e300")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: estimated error "), cp.stderr


# The wtan modules each README example loads besides wtan, wtan.cli,
# wtan.core and wtan.errors.
OWN_MODULES = {
    "eval_z": ("wtan.complex_plane", "wtan.branch_points"),
    "series": ("wtan.series",),
    "cheb": ("wtan.chebyshev",),
    "branch_points": ("wtan.branch_points",),
    "qm": ("wtan.quantum",),
    "qm_wavefunction": ("wtan.quantum",),
    "integrals": ("wtan.integrals",),
    "dispersion": ("wtan.complex_plane", "wtan.branch_points"),
}


# Both order-300 tables with their residuals, radius estimates and fit, and
# lagrange_b(1..30), as plain floats in `out`.
SERIES_BUNDLE = (
    "from wtan import series as s\n"
    "out = {}\n"
    "for make in (s.small_x_coeffs, s.large_x_coeffs):\n"
    "    t = make(300)\n"
    "    out[t.kind.value] = [t.recursion_residuals(),\n"
    "                         [r.rho for r in s.radius_estimates(t)],\n"
    "                         s.fit_asymptotic(t, 50, 300)._asdict(), t.primary_floats()]\n"
    "out['lagrange'] = [s.lagrange_b(k) for k in range(1, 31)]\n"
)


class TestImport:
    # what a fresh process loads and does: these tests launch one each

    @staticmethod
    def _loaded(*args):
        """The names in sys.modules of a fresh interpreter after it ran
        `-c CODE` or `-m MODULE ARGS...` (args), read at exit.  This sees
        what importlib.import_module loads (wtan's lazy attributes), which
        `-X importtime` does not log.  A bare interpreter runs the same
        prelude, so its imports cancel."""
        option, target, *argv = args
        run = (f"exec(compile({target!r}, '<string>', 'exec'), {{'__name__': '__main__'}})"
               if option == "-c" else
               f"import runpy; sys.argv[1:] = {argv!r}; "
               f"runpy.run_module({target!r}, run_name='__main__', alter_sys=True)")
        code = ("import atexit, sys\n"
                "atexit.register(lambda: print('\\0', *sys.modules, file=sys.stderr))\n"
                + run)
        cp = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=child_env())
        assert cp.returncode == 0, cp.stderr
        return set(cp.stderr.rsplit("\0", 1)[1].split())

    @staticmethod
    @functools.cache
    def _bare_interpreter_modules():
        """What `python -c pass` imports, found once per test session."""
        return frozenset(TestImport._loaded("-c", "pass"))

    def test_import_loads_no_scipy(self):
        cp = subprocess.run(
            [sys.executable, "-c",
             "import sys, wtan; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=child_env())
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "False"

    def test_import_loads_neither_numpy_nor_mpmath(self):
        loaded = self._loaded("-c", "import wtan")
        assert {m for m in loaded if m.startswith("wtan")} == {"wtan"}   # no submodule
        assert not {"numpy", "mpmath"} & loaded

    def test_a_lazy_attribute_counts_as_a_load(self):
        # wtan's __getattr__ imports through importlib.import_module, which
        # `-X importtime` does not log; sys.modules holds it all the same
        assert "wtan.integrals" in self._loaded("-c", "import wtan; wtan.integrals")

    def test_complex_plane_loads_on_first_use(self):
        code = ("import sys, wtan; print('wtan.complex_plane' in sys.modules); "
                "wtan.SheetAtlas; print('wtan.complex_plane' in sys.modules)")
        cp = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=child_env())
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.split() == ["False", "True"]

    @pytest.mark.parametrize("name", list(README_EXAMPLES))
    def test_each_command_loads_only_what_it_runs(self, name):
        # beyond what a bare interpreter loads: wtan, its cli, core and
        # errors, plus the command's own modules; none loads numpy, mpmath,
        # dataclasses, inspect, argparse, gettext or locale, and only
        # --format json loads json
        argv = shlex.split(README_EXAMPLES[name])
        loaded = self._loaded("-m", "wtan", *argv)
        assert not {"numpy", "mpmath", "dataclasses", "inspect"} & loaded
        loaded -= self._bare_interpreter_modules()
        assert not {"argparse", "gettext", "locale"} & loaded
        assert {m for m in loaded if m.startswith("wtan")} == {
            "wtan", "wtan.cli", "wtan.core", "wtan.errors", *OWN_MODULES.get(name, ())}
        assert ("json" in loaded) == ("--format json" in README_EXAMPLES[name])

    def test_every_scripted_command_runs_without_numpy(self):
        # with sys.modules["numpy"] = None any numpy import raises, so a zero
        # exit for every command shows the runtime never needs numpy, and
        # likewise mpmath
        code = (
            "import contextlib, io, sys\n"
            "sys.modules['numpy'] = sys.modules['mpmath'] = None\n"
            "from perfbench import inputs\n"
            "from wtan.cli import main\n"
            "for seed in range(3):\n"
            "    for argv in inputs.cli_script(inputs.rng_for('cli_session', seed)):\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            rc = main(argv)\n"
            "        print(argv[0], rc)\n"
        )
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env(), cwd=Path(SRC).parent)
        assert cp.returncode == 0, cp.stderr
        results = [line.split() for line in cp.stdout.splitlines()]
        assert {cmd for cmd, _ in results} == {
            "eval", "series", "cheb", "branch-points", "qm", "integrals",
            "dispersion", "grid"}
        assert all(rc == "0" for _, rc in results), results

    def test_series_bundle_runs_without_mpmath(self):
        # the order-300 analysis of the tables benchmark gives the same
        # floats when any mpmath import raises
        code = "import json, sys\nsys.modules['mpmath'] = None\n" + SERIES_BUNDLE + \
            "print(json.dumps(out))\n"
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=child_env()) as child:
            ns = {}
            exec(SERIES_BUNDLE, ns)   # while the child computes the same
            stdout, stderr = child.communicate()
        out = ns["out"]
        assert child.returncode == 0, stderr
        assert json.loads(stdout) == json.loads(json.dumps(out))
        for kind in ("small", "large"):
            residual, radii, fit, _ = out[kind]
            assert residual < 1e-100
            assert 2.3 <= radii[-1] <= 3.0
            assert abs(fit["rho"] - 2.6397) <= 1e-2
        b = out["large"][3]
        assert all(abs(got - b[k]) <= 1e-10 * abs(b[k])
                   for k, got in enumerate(out["lagrange"], start=1))


# Every name `from wtan import *` yielded while the package imported all of
# its modules eagerly, less `CutScheme`, since removed.
PUBLIC_NAMES = [
    "AsymptoticFit", "BranchIndex", "BranchPoint", "BranchedValue",
    "ChebyshevModel", "ContinuationPath", "Cut", "CutKind",
    "Parity", "RadiusEstimate", "SeriesKind", "SeriesTable", "SheetAtlas",
    "Side", "SpectrumEntry", "Wavefunction", "WellModel",
    "asymptotic_branch_point", "boundary_value", "branch_identity_residual",
    "branch_points", "chebyshev", "check_indefinite_log",
    "check_indefinite_logsin", "complex_plane", "core", "defining_residual",
    "definite_catalan", "definite_lnsin", "derivative", "discontinuity_delta0",
    "discontinuity_delta1", "dispersion_eval", "errors", "eval_cheb",
    "eval_complex", "eval_real", "eval_series", "find_branch_point", "fit",
    "fit_asymptotic", "halley_step", "integrals", "lagrange_b",
    "large_x_coeffs", "local_expansion_check", "quantum", "radius_estimates",
    "rayleigh_quotient", "second_derivative", "series", "small_x_coeffs",
    "spectrum", "trace_path", "validate_branch", "variational_bound_1",
    "variational_bound_2", "wavefunction",
]


class TestPublicNames:
    def test_attribute_access(self):
        import wtan
        for name in PUBLIC_NAMES:
            assert getattr(wtan, name) is not None, name
        assert wtan.fit_asymptotic is wtan.series.fit_asymptotic
        assert wtan.definite_lnsin is wtan.integrals.definite_lnsin
        with pytest.raises(AttributeError):
            wtan.no_such_name

    def test_each_lazy_entry_is_its_modules_all(self):
        # every name a module exports is a name of the package, and no other
        import wtan
        for module, names in wtan._LAZY.items():
            exported = getattr(importlib.import_module(f"wtan.{module}"), "__all__", ())
            assert sorted(names) == sorted(exported), module

    def test_submodule_loads_on_attribute_access(self, monkeypatch):
        import wtan
        import wtan.integrals
        monkeypatch.delattr(wtan, "integrals")
        assert wtan.integrals is sys.modules["wtan.integrals"]

    def test_star_import(self):
        ns = {}
        exec("from wtan import *", ns)
        assert set(PUBLIC_NAMES) <= set(ns)
