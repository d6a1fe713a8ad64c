import argparse
import contextlib
import functools
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

import pytest

from wtan.cli import _emit, build_parser, main

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
            assert build_parser() is build_parser()
            got = [run_cli(*argv) for argv in self.CALLS]
            fresh = [(*child.communicate(), child.returncode) for child in children]
        assert [r.returncode for r in got] == [0] * 9 + [2, 2, 0]
        for argv, r, (out, err, code) in zip(self.CALLS, got, fresh):
            assert (r.returncode, r.stdout.encode(), r.stderr.encode()) == (code, out, err), argv
        assert got[0] == got[-1]
        assert {argv[0] for argv in self.CALLS} == {
            "eval", "series", "cheb", "branch-points", "qm", "integrals",
            "dispersion", "grid"}


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
        """Top-level modules a fresh `python -X importtime <args>` imported."""
        cp = subprocess.run([sys.executable, "-X", "importtime", *args],
                            capture_output=True, text=True, env=child_env())
        assert cp.returncode == 0, cp.stderr
        return {line.rsplit("|", 1)[1].strip() for line in cp.stderr.splitlines()
                if line.startswith("import time:")}

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
        # dataclasses or inspect, and only --format json loads json
        argv = shlex.split(README_EXAMPLES[name])
        loaded = self._loaded("-m", "wtan", *argv)
        assert not {"numpy", "mpmath", "dataclasses", "inspect"} & loaded
        loaded -= self._bare_interpreter_modules()
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

    def test_submodule_loads_on_attribute_access(self, monkeypatch):
        import wtan
        import wtan.integrals
        monkeypatch.delattr(wtan, "integrals")
        assert wtan.integrals is sys.modules["wtan.integrals"]

    def test_star_import(self):
        ns = {}
        exec("from wtan import *", ns)
        assert set(PUBLIC_NAMES) <= set(ns)
