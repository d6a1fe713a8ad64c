"""Branch-aware numerics for the transcendental equation w * tan(w) = x.

The package covers real-axis evaluation of every branch, complex-plane
continuation on the finite-cuts sheet convention, small- and
large-argument series with their recursion and inversion routes, a
piecewise Chebyshev approximation of the principal branch, branch-point
location, cut discontinuities with the dispersion reconstruction, integral
identities, and the square-well eigenvalue problem the function solves.
"""

import importlib

__version__ = "0.1.0"

# Every submodule, and every public name by the module that defines it,
# loads on first use (PEP 562), so `import wtan` and each CLI command load
# only the modules they run: series alone needs fractions, and
# complex_plane is big.
_LAZY = {
    "errors": (),
    "core": (
        "BranchedValue", "BranchIndex", "branch_identity_residual",
        "defining_residual", "derivative", "eval_real", "halley_step",
        "second_derivative", "validate_branch"),
    "branch_points": (
        "BranchPoint", "asymptotic_branch_point", "find_branch_point",
        "local_expansion_check"),
    "chebyshev": ("ChebyshevModel", "eval_cheb", "fit"),
    "quantum": (
        "Parity", "SpectrumEntry", "Wavefunction", "WellModel",
        "rayleigh_quotient", "spectrum", "variational_bound_1",
        "variational_bound_2", "wavefunction"),
    "complex_plane": (
        "ContinuationPath", "Cut", "CutKind", "SheetAtlas", "Side",
        "boundary_value", "continue_from_anchor", "cuts_for",
        "discontinuity_delta0", "discontinuity_delta1", "dispersion_eval",
        "distance_to_cuts", "eval_complex", "trace_path"),
    "series": (
        "AsymptoticFit", "RadiusEstimate", "SeriesEval", "SeriesKind",
        "SeriesTable", "eval_series", "fit_asymptotic", "lagrange_b",
        "large_x_coeffs", "radius_estimates", "small_x_coeffs"),
    "integrals": (
        "CATALAN", "CATALAN_COMBINATION", "LOG_SIN_TOTAL",
        "check_indefinite_log", "check_indefinite_logsin", "definite_catalan",
        "definite_lnsin", "lnsin_tail"),
}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    for module, names in _LAZY.items():
        if name in names:
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [*_LAZY, *(name for names in _LAZY.values() for name in names)]
