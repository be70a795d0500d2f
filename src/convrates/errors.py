"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, PreconditionError -> 3,
PropertyFailure -> 4.  Library code raises PreconditionError (a ValueError)
whenever a documented precondition is violated, with a message that names the
failing requirement.
"""


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
