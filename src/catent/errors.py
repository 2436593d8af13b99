"""Error taxonomy shared by all engine modules.

The CLI maps these onto process exit codes: input errors exit 1, numeric
errors exit 2, contract violations exit 3.
"""


def is_int(x) -> bool:
    """The integer test of the engine and its config schema: a plain int."""
    return type(x) is int


def shown(value) -> str:
    """``repr(value)`` for an error message that echoes a caller's value.

    An int with more digits than the interpreter converts to str, or a
    container holding one, has no repr; it is then named by its size, so the
    message is still made and its error still raised.
    """
    try:
        return repr(value)
    except ValueError:
        if is_int(value):
            sign = "a negative" if value < 0 else "an"
            return f"{sign} int of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an int too long to print"


class EngineError(Exception):
    """Base class for all errors raised by the engine."""


class InputError(EngineError):
    """Invalid argument, configuration, or model data."""


class NumericError(EngineError):
    """A numeric refinement failed to converge within its budget."""


class ContractError(EngineError):
    """An internal guarantee failed (bug or invalid model)."""


class CollapseError(ContractError):
    """An interval that is guaranteed to collapse to an exact value did not.

    ``degree`` names the first non-collapsing cohomological degree.
    """

    def __init__(self, message, degree):
        super().__init__(message)
        self.degree = degree
