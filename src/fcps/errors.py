"""Shared exception types."""


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
