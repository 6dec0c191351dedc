"""Shared exception types, and the number checks configs run on their
settings."""

from numbers import Integral, Real


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
    _require(Integral, "an integer", counts)


def require_reals(**values) -> None:
    """Raise ContractError unless every value is a real number, an integer
    or a float, Python's or numpy's; a bool is not one."""
    _require(Real, "a real number", values)


def _require(kind, noun: str, values: dict) -> None:
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ContractError(f"{name} must be {noun}, not {value!r}")
