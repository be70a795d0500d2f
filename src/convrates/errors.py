"""Exception types shared across the package, and the input rules they guard.

The CLI maps these onto exit codes: ConfigError -> 2, PreconditionError -> 3,
PropertyFailure -> 4.  Library code raises PreconditionError (a ValueError)
whenever a documented precondition is violated, with a message that names the
failing requirement.

Three rules hold on several modules' inputs and are written once here:
`check_size` (a count within the size guard, by default 1 to `SIZE_LIMIT`),
`check_finite` (a real array without NaN or inf) and `check_budget` (a norm
budget M that is finite and at least 1).
"""

import math

import numpy as np

# largest count the lab allocates: the shipped rate studies stop at 8192
# points and `verify-compile` defaults to 10^4, 10^7 points in d = 2 take
# 160 MB, and a larger count would otherwise ask for terabytes or overflow
# float64 arithmetic on the count
SIZE_LIMIT = 10_000_000


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class ShapeError(PreconditionError):
    """Array shapes are inconsistent with the declared architecture."""


class PropertyFailure(RuntimeError):
    """A verified mathematical property did not hold at runtime."""


class TrainingFailure(RuntimeError):
    """Training diverged (non-finite loss); carries the partial trace and, in
    a rate experiment, the rows of the cells completed before the failure."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
        self.partial_rows = []  # filled in by learnlab.run_rate_experiment


def check_size(name, count, low=1, limit=SIZE_LIMIT, error=PreconditionError):
    """Raise `error` unless low <= count <= limit.

    `count` is what the caller allocates or loops over; NaN, inf and a Python
    int of any size are refused without an OverflowError.
    """
    if not low <= count <= limit:
        # a product of config values may have more digits than str() converts
        big = not isinstance(count, float) and abs(count) >= 10**30
        shown = "a number of more than 30 digits" if big else count
        raise error(f"{name} must be between {low} and {limit} (size guard), not {shown}")


def check_finite(x, name):
    """x as a float64 array, after checking that it is real and every entry is
    finite.  A complex x is refused, not cast: the cast would drop the
    imaginary parts with only a warning."""
    arr = np.asarray(x)
    if arr.dtype.kind == "c":
        raise PreconditionError(f"{name} must be real")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise PreconditionError(f"{name} must be finite")
    return arr


def check_budget(M):
    """Refuse a norm budget M that is not finite and at least 1."""
    if not 1 <= M < math.inf:
        raise PreconditionError(f"norm budget M={M} must be finite and at least 1")
