"""Error taxonomy shared by all engine modules.

The CLI maps these onto process exit codes: input errors exit 1, numeric
errors exit 2, contract violations exit 3.
"""


def is_int(x) -> bool:
    """The integer test of the engine and its config schema: a plain int."""
    return type(x) is int


class EngineError(Exception):
    """Base class for all errors raised by the engine."""


class InputError(EngineError):
    """Invalid argument, configuration, or model data.

    May carry a list of individual violations (one per offending field).
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else [message]


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
