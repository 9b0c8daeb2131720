"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid input: unknown labels, shape mismatches, bad parameters."""


class DegenerateSliceError(DomainError):
    """A tensor slice carries zero total weight; its mean is undefined."""


class UnsupportedTreeError(DomainError):
    """A tree splits on more than three distinct features."""


class NonConvergenceError(RuntimeError):
    """Purification exhausted its pass budget with mass above tolerance.

    Carries the convergence report accumulated so far in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
