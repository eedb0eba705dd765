"""Exception types shared across the package."""

from __future__ import annotations


class CoupledRicciError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedDimension(CoupledRicciError):
    """Raised when a dimension outside the supported range is requested."""


class ParseError(CoupledRicciError):
    """Raised for malformed field files, configs, or density expressions."""


class ValidationError(CoupledRicciError, ValueError):
    """Raised when configuration data is well-formed but invalid.

    Carries the full list of violations so callers can report every
    problem at once instead of stopping at the first one.  It is a
    ValueError too, so callers that catch the builtin still see it.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NonAdmissible(CoupledRicciError):
    """Raised when a potential leaves the discrete positivity cone."""


class NonAdmissibleStep(CoupledRicciError):
    """Raised when damping cannot keep a Newton iterate admissible."""


class NoConvergence(CoupledRicciError):
    """Raised when an iterative solver fails to reach its tolerance: an
    exhausted Newton or descent budget, a line search that cannot reduce
    the residual, an unconverged GMRES solve, or a slice residual above
    tol_inner."""


class ContinuityBreakdown(CoupledRicciError):
    """Raised when the continuity path cannot be continued to t = 1.

    Attributes
    ----------
    last_good_t : float
        Largest parameter value at which a solve succeeded.
    trace : list
        The (t, newton_iterations) pairs of the successful rungs.
    """

    def __init__(self, message, last_good_t, trace=None):
        super().__init__(message)
        self.last_good_t = float(last_good_t)
        self.trace = list(trace) if trace is not None else []


class OracleIntractable(CoupledRicciError):
    """Raised when a problem is too large for the dense reference solver."""
