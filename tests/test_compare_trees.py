"""Smoke tests of tests/compare_trees.py, the parent-against-change probe,
on a small share of its census."""

import os
import shutil

import pytest

import compare_trees

SRC = os.path.join(compare_trees.ROOT, "src")


def _operation(line: str) -> str:
    """A difference line as its operation shows it: a surface-pool line,
    surface('name', slot, value): ..., as name(..."""
    if line.startswith("surface('"):
        return line[len("surface('"):].split("'", 1)[0] + "("
    return line


def test_the_tree_against_itself_reports_nothing():
    change = compare_trees.load(SRC, "wtan_smoke_change")
    parent = compare_trees.load(SRC, "wtan_smoke_parent")
    assert change.complex_plane is not parent.complex_plane
    calls, differences = compare_trees.compare(change, parent, scale=0.02)
    assert calls > 2000
    assert differences == []


def test_a_reassociated_newton_operation_reports_differences(tmp_path):
    # w - c - atan(x/w) as w - (c + atan(x/w)) in the window form: the
    # same value in exact arithmetic, other roundings
    shutil.copytree(os.path.join(SRC, "wtan"), tmp_path / "wtan")
    path = tmp_path / "wtan" / "complex_plane.py"
    text = path.read_text()
    assert text.count("w - c - cmath.atan(x / w)") == 1
    path.write_text(text.replace("w - c - cmath.atan(x / w)", "w - (c + cmath.atan(x / w))"))
    change = compare_trees.load(SRC, "wtan_smoke_change")
    mutated = compare_trees.load(str(tmp_path), "wtan_smoke_mutated")
    assert mutated.complex_plane.__file__ == str(path)
    calls, differences = compare_trees.compare(change, mutated, scale=0.02)
    assert differences
    assert all(_operation(line).startswith(("eval_complex(", "continue_from_anchor(",
                                            "trace_path(", "boundary_value(", "dispersion_",
                                            "discontinuity_", "local_expansion_check("))
               for line in differences)



@pytest.mark.parametrize("old, new, operations", [
    # Miller's weights (k+1) j - n off by one: every lagrange_b past k = 1
    ("range(k + 1 - n, k * n + 1, k + 1)", "range(k + 2 - n, k * n + 2, k + 1)",
     ("lagrange_b(",)),
    # 20 bits of m^k: corrections off by up to ~2^35 units; `wtan series`
    # prints the radius estimates too, and eval_series' bound is a root test
    ("_TOP_BITS = 160", "_TOP_BITS = 20",
     ("radius_estimates(", "cli('series',", "eval_series(")),
])
def test_a_mutated_series_step_reports_its_differences(tmp_path, old, new, operations):
    shutil.copytree(os.path.join(SRC, "wtan"), tmp_path / "wtan")
    path = tmp_path / "wtan" / "series.py"
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    change = compare_trees.load(SRC, "wtan_smoke_change")
    mutated = compare_trees.load(str(tmp_path), "wtan_smoke_mutated")
    calls, differences = compare_trees.compare(change, mutated, scale=0.02)
    assert differences
    assert all(_operation(line).startswith(operations) for line in differences)


def test_a_mutated_spectrum_margin_reports_its_differences(tmp_path):
    # no level past half solved: odd counts lose their top even level, and
    # even counts theirs wherever an even level ties its odd neighbour
    shutil.copytree(os.path.join(SRC, "wtan"), tmp_path / "wtan")
    path = tmp_path / "wtan" / "quantum.py"
    text = path.read_text()
    assert text.count("count // 2 + 2") == 1
    path.write_text(text.replace("count // 2 + 2", "count // 2"))
    change = compare_trees.load(SRC, "wtan_smoke_change")
    mutated = compare_trees.load(str(tmp_path), "wtan_smoke_mutated")
    assert mutated.quantum.__file__ == str(path)
    calls, differences = compare_trees.compare(change, mutated, scale=0.02)
    assert differences
    assert all(_operation(line).startswith("spectrum(") for line in differences)
    # and the ties, at even counts, are among them
    assert any(line.startswith("spectrum(1.0, 1e+300, 4):") for line in differences)


@pytest.mark.parametrize("module, old, new, operation", [
    # sqrt(x) by exp and log: the small-argument prefactor, other roundings
    ("series.py", "t, q, scale = x, x / bound, math.sqrt(x)",
     "t, q, scale = x, x / bound, math.exp(0.5 * math.log(x))", "eval_series("),
    # Clenshaw's step reassociated: the same sum in exact arithmetic
    ("chebyshev.py", "d1, d2 = s2 * d1 - d2 + ck, d1", "d1, d2 = s2 * d1 + (ck - d2), d1",
     "eval_cheb("),
])
def test_a_mutated_table_evaluator_reports_its_differences(tmp_path, module, old, new,
                                                           operation):
    shutil.copytree(os.path.join(SRC, "wtan"), tmp_path / "wtan")
    path = tmp_path / "wtan" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    change = compare_trees.load(SRC, "wtan_smoke_change")
    mutated = compare_trees.load(str(tmp_path), "wtan_smoke_mutated")
    calls, differences = compare_trees.compare(change, mutated, scale=0.02)
    assert differences
    assert all(_operation(line).startswith(operation) for line in differences)


def test_the_surface_pool_reports_a_bare_overflow_error(tmp_path):
    # Wavefunction's point compared raw, not as its nearest float: an int
    # past float64's range reaches math.isnan and raises OverflowError
    shutil.copytree(os.path.join(SRC, "wtan"), tmp_path / "wtan")
    path = tmp_path / "wtan" / "quantum.py"
    text = path.read_text()
    assert text.count("a, xi = self.width_a, _float(xi)") == 1
    path.write_text(text.replace("a, xi = self.width_a, _float(xi)", "a = self.width_a"))
    change = compare_trees.load(SRC, "wtan_smoke_change")
    mutated = compare_trees.load(str(tmp_path), "wtan_smoke_mutated")
    calls, differences = compare_trees.compare(change, mutated, scale=0.02)
    assert differences == [
        f"surface('Wavefunction', 0, '{value}'): change float 0.0 | parent OverflowError"
        for value in ("10**400", "-10**400")]
