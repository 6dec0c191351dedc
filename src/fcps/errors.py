"""Shared exception types, and the integer check configs run on counts."""

from numbers import Integral


class ContractError(ValueError):
    """An argument violated a documented precondition."""


class NumericalError(RuntimeError):
    """A numerical routine failed after exhausting its fallbacks.

    ``jitters`` records the diagonal jitter levels attempted before giving up,
    in the order they were tried; a failure that tries none lists none.
    """

    def __init__(self, message: str, jitters):
        super().__init__(message)
        self.jitters = list(jitters)


def require_integers(**counts) -> None:
    """Raise ContractError unless every value is an integer, Python's or
    numpy's; a bool is not a count."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ContractError(f"{name} must be an integer, not {value!r}")
