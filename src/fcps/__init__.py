"""Contextual policy search with factored-context Bayesian optimization.

The package provides a Gaussian-process toolkit (:mod:`fcps.gp`), a
deterministic global optimizer (:mod:`fcps.optim`), acquisition functions
including entropy search over representer contexts (:mod:`fcps.acquisition`),
an append-only experience store with landing re-evaluation
(:mod:`fcps.experience`), contextual policy-search algorithms
(:mod:`fcps.algorithms`), self-contained simulators (:mod:`fcps.sim`), and an
experiment harness with a command-line entry point (:mod:`fcps.harness`,
:mod:`fcps.cli`).
"""

from .errors import ContractError, NumericalError

__all__ = ["ContractError", "NumericalError"]

__version__ = "0.1.0"
