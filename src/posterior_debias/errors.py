"""Exceptions shared across the package."""


class _StoppedRunError(RuntimeError):
    """A run stopped part-way. ``rows`` holds the rows finished before it
    stopped, and ``info`` what the run knows about itself, including the
    point that stopped it, so a caller can still write out the finished work.
    """

    def __init__(self, message: str, rows: list[dict] | None = None, info: dict | None = None):
        super().__init__(message)
        self.rows = [] if rows is None else rows
        self.info = {} if info is None else info


class CapExceededError(_StoppedRunError):
    """An exact computation would exceed a configured size cap.

    No caller retries or falls back to Monte Carlo: the error names the
    offending size, and the CLI exits 3.
    """


class DegenerateError(ArithmeticError):
    """A normalizing denominator underflowed to zero."""


class DegeneratePointError(_StoppedRunError, DegenerateError):
    """A DegenerateError raised at one point of a sweep, carrying the rows
    finished before that point; the CLI writes them and exits 2."""


class SupportError(ValueError):
    """A target distribution puts mass where the proposal has none."""


class IterationCapError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


class UnderpoweredRunError(_StoppedRunError):
    """A Monte Carlo run's standard error is too large to resolve the bias."""
