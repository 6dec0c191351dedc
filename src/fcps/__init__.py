"""Contextual policy search with factored-context Bayesian optimization.

The package provides a Gaussian-process toolkit (:mod:`fcps.gp`), a
deterministic global optimizer (:mod:`fcps.optim`), acquisition functions
including entropy search over representer contexts (:mod:`fcps.acquisition`),
an append-only experience store with landing re-evaluation
(:mod:`fcps.experience`), contextual policy-search algorithms
(:mod:`fcps.algorithms`), self-contained simulators (:mod:`fcps.sim`), and an
experiment harness with a command-line entry point (:mod:`fcps.harness`,
:mod:`fcps.cli`).  Importing it pins BLAS to one thread unless the caller
set a count, since result bits depend on that count and numpy reads it once.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in THREAD_VARS):
    import warnings
    warnings.warn("numpy was imported before fcps, so this process keeps numpy's "
                  "thread pool and its bits may differ from the cache's", RuntimeWarning, 2)
for _name in THREAD_VARS:
    os.environ.setdefault(_name, "1")

from .errors import ContractError, NumericalError  # noqa: E402

__all__ = ["ContractError", "NumericalError"]

__version__ = "0.1.0"
