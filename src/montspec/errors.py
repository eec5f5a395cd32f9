"""Exception types shared across the package."""


class SolverFailure(RuntimeError):
    """Raised when an eigenvalue computation cannot reach the requested accuracy.

    Every solver fault is one, LAPACK faults included: tridiag and
    spectral call scipy's LAPACK wrappers directly and raise this type
    on a fault they report (for stebz, with its info code), never scipy.linalg's
    LinAlgError, which is a ValueError; so a ValueError means bad input.
    Carries whatever partial information is available so callers can
    report a best estimate instead of nothing.
    """

    def __init__(self, message, best_estimate=None, residual=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.residual = residual


class CertificationError(RuntimeError):
    """Raised when a closed-form inequality that the certification pipeline
    relies on fails, which would contradict the certified result."""
