"""Exception hierarchy.

Input/validation problems (bad parameters, malformed specs, dimension
mismatches, broken invariants) derive from ``ValueError`` so they map to
exit code 2 in the CLI; numerical/runtime failures map to exit code 1.
"""


class TlurkitError(Exception):
    """Base class for all package-specific errors.

    ``state`` is the index of the offending state when a check on a stack of
    states failed, else None.
    """

    def __init__(self, *args, state: int | None = None):
        super().__init__(*args)
        self.state = state


class DimensionMismatchError(TlurkitError, ValueError):
    """Operands act on incompatible Hilbert-space dimensions."""


class ParameterRangeError(TlurkitError, ValueError):
    """A parameter is outside its documented range."""


class ValidationError(TlurkitError, ValueError):
    """A constructed object violates one of its invariants."""


class UnphysicalStateError(ValidationError):
    """A Gaussian covariance matrix violates the uncertainty principle."""


class SpecParseError(TlurkitError, ValueError):
    """A JSON spec could not be parsed; ``field`` names the offending key."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class InvalidBoundError(TlurkitError):
    """A declared uncertainty bound is beaten by an actual state."""


class DegenerateDecompositionError(TlurkitError):
    """A state's operator Schmidt coefficient matrix is not real, so its
    factors could not be made Hermitian."""


class NumericalFailureError(TlurkitError):
    """An iterative numerical routine failed to converge.

    ``best_value`` carries the best iterate found so far, when available.
    """

    def __init__(self, message, best_value=None):
        super().__init__(message)
        self.best_value = best_value


class NoCrossingError(TlurkitError):
    """Bisection endpoints share the same verdict."""


class NonMonotonicMarginError(TlurkitError):
    """The sampled verdict pattern has more than one crossing."""


def shown(value, form=str) -> str:
    """``form(value)`` (``str`` or ``repr``) for an error message, or, where
    that fails on an int past Python's limit on the digits of an int-to-str
    conversion, the value's type and size: showing a value never fails."""
    try:
        return form(value)
    except ValueError:
        size = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"<{type(value).__name__}{size}>"


def raise_first(bad, error, message) -> None:
    """Raise ``error(message(k), state=k)`` for the first k with ``bad[k]``, a
    boolean per state of a stack (a single boolean for one state); the
    message names k when the stack holds more than one state."""
    if bad.any():
        bad = bad.reshape(-1)
        k = int(bad.argmax())
        raise error(message(k) if len(bad) == 1 else f"state {k}: {message(k)}", state=k)
