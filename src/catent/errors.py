"""Error taxonomy shared by all engine modules, and the two value rules.

The CLI maps these onto process exit codes: input errors exit 1, numeric
errors exit 2, contract violations exit 3.

The integer rule (``int_problem``, raised by ``require_int``) and the number
rule (``real_problem``) are worded here once, for the config schema and the
engine's entry points alike.
"""

import math


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


def bound_problem(value, lo=None, hi=None) -> str | None:
    """Why ``value`` lies outside [lo, hi], or None; a None end is open."""
    if lo is not None and value < lo:
        return f"must be >= {lo}, got {shown(value)}"
    if hi is not None and value > hi:
        return f"must be <= {hi}, got {shown(value)}"
    return None


def int_problem(value, lo=None, hi=None) -> str | None:
    """Why ``value`` breaks the integer rule, an int in [lo, hi], or None."""
    if not is_int(value):
        return f"must be an integer, got {shown(value)}"
    return bound_problem(value, lo, hi)


def require_int(value, name: str, lo=None):
    """``value`` if it is an int >= lo, else an ``InputError`` naming it."""
    if is_int(value) and (lo is None or value >= lo):
        return value
    raise InputError(f"{name}: {int_problem(value, lo)}")


def real_problem(value, lo=None) -> str | None:
    """Why ``value`` breaks the number rule, a finite non-bool int or float
    > lo (an int past the float range is infinite), or None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"must be a number, got {shown(value)}"
    try:
        f = float(value)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        return f"must be finite, got {f}"
    if lo is not None and not f > lo:
        return f"must be > {lo}, got {shown(value)}"
    return None


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
