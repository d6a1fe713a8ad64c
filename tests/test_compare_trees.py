"""Smoke tests of tests/compare_trees.py, the parent-against-change probe,
on a small share of its census."""

import os
import shutil

import compare_trees

SRC = os.path.join(compare_trees.ROOT, "src")


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
    assert all(line.startswith(("eval_complex(", "continue_from_anchor(", "trace_path(",
                                "boundary_value(", "dispersion_", "discontinuity_",
                                "local_expansion_check("))
               for line in differences)

