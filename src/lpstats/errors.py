"""Exception types shared across the package.

Two families matter to callers: `InputError` covers everything wrong with
user-supplied data (empty input, bad columns, mismatched lengths) and maps
to exit code 2 in the CLI; the remaining `LPStatsError` subclasses signal
conditions arising during computation (degenerate scales, failed solves)
and map to exit code 3.
"""


class LPStatsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LPStatsError, ValueError):
    """Invalid user input (data, columns, lengths)."""


class EmptyInput(InputError):
    pass


class NonFiniteValue(InputError):
    """A NaN or infinity in the input; carries the offending index."""

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"non-finite value at index {self.index}")


class LengthMismatch(InputError):
    def __init__(self, n_x, n_y):
        super().__init__(f"paired inputs differ in length: {n_x} vs {n_y}")


class SingleGroup(InputError):
    """A grouping variable with fewer than two distinct labels, or an
    empty group."""


class FileNotFound(InputError):
    pass


class MissingColumn(InputError):
    def __init__(self, name, available):
        self.name = name
        self.available = list(available)
        super().__init__(
            f"column {name!r} not found; available: {', '.join(self.available)}"
        )


class EmptyAfterFilter(InputError):
    """No rows survived the numeric filter."""


class DomainError(LPStatsError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateScale(LPStatsError):
    """A required scale (sd, quartile deviation, pooled variance) is zero."""


class DegenerateSample(LPStatsError):
    """The sample has too few distinct values for the operation."""


class NonConvergence(LPStatsError):
    """Iterative solver hit its iteration cap; carries the last residual."""

    def __init__(self, residual, iterations):
        self.residual = float(residual)
        self.iterations = int(iterations)
        super().__init__(
            f"no convergence after {self.iterations} iterations "
            f"(residual {self.residual:.3e})"
        )


class FloatingPointFault(LPStatsError):
    """A floating-point overflow, division by zero or invalid operation in
    a CLI command; the message names the numpy operation, if numpy's."""


class IllConditioned(LPStatsError):
    """Linear algebra inside a solver failed beyond recovery."""


class FlavorNotFitted(LPStatsError):
    """Density evaluation requested for a flavor that was never fitted."""


class UnboundedDensity(LPStatsError):
    """Accept-reject envelope could not be bounded."""
