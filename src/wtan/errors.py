"""Exception hierarchy for the wtan package.

Everything derives from :class:`WtanError` so callers can catch the whole
family at once.  The CLI maps these to exit code 2 (domain error) while
anything else escaping is an internal failure (exit code 1).
"""


class WtanError(Exception):
    """Base class for all wtan errors."""


class NonFiniteArgument(WtanError):
    """Argument is NaN or infinite where a finite value is required."""


class SignedZeroRequired(WtanError):
    """x = 0 is a branch point; the caller must pick a side of the limit."""


class NoConvergence(WtanError):
    """Iteration failed to reach the residual tolerance."""


class PoleProximity(WtanError):
    """Iterate too close to a pole of tan; re-seed or bisect instead."""


class AtBranchPoint(WtanError):
    """Derivative denominator w^2 + x^2 + x vanishes; derivatives diverge."""


class BracketFailure(WtanError):
    """A root was not found in the interval known to contain it."""


class OutsideConvergence(WtanError):
    """Evaluation point violates the series convergence-radius bound."""


class FitDiverged(WtanError):
    """Least-squares fit of the coefficient law failed to produce a result."""


class SamplingFailure(WtanError):
    """Underlying function evaluation failed at an approximation node."""


class OnCut(WtanError):
    """Point lies on, or within guard distance of, a branch cut."""


class NotOnCut(WtanError):
    """Point expected on a cut does not lie on one."""


class StepTooLarge(WtanError):
    """Adaptive continuation could not shrink the step below its floor."""


class OutOfCutRange(WtanError):
    """Requested discontinuity argument lies outside the cut."""


class QuadratureFailure(WtanError):
    """Adaptive quadrature could not reach the requested tolerance."""


class ContinuationFailure(WtanError):
    """Analytic continuation near a branch point failed."""


class DomainViolation(WtanError):
    """Argument outside the stated validity domain."""


class NonPositiveNorm(WtanError):
    """Generalized norm denominator is not positive."""
