"""Shared pytest setup: BLAS runs on one thread, and property tests draw the
same examples on every run.

Also the test helpers more than one module uses.
"""

import fcps  # noqa: F401  first, so its one-thread BLAS pin precedes numpy
import numpy as np
from hypothesis import settings

from fcps.algorithms import LearnerConfig
from fcps.gp import GpModel
from fcps.harness import ExperimentConfig
from fcps.optim import SearchSpace

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# a bo-fcps learner small enough for a run of a few episodes
TINY_LEARNER = dict(
    n_candidates=6, n_function_draws=100, n_fantasies=2,
    refit_warmup=2, refit_period=5, refit_restarts=1, direct_evals=20,
    refine_starts=1, refine_iters=4)


def tiny_config(**kw):
    base = dict(episodes=4, evaluation_period=2, seeds=(0,), grid_shape=(3, 3),
                learner=LearnerConfig(algorithm="bo-fcps", **TINY_LEARNER))
    base.update(kw)
    return ExperimentConfig(**base)


def unit_box(dim: int) -> SearchSpace:
    """[0, 1]^dim: a model fitted on it sees its inputs exactly as given,
    since ``(x - 0.0) / 1.0`` is ``x`` bit for bit."""
    return SearchSpace(np.zeros(dim), np.ones(dim))


def ensemble_branch_model(ens, branch: int):
    """One column of a shared-input ensemble as a standalone model."""
    return GpModel(ens.hyperparams, ens.xt, ens.yt[:, branch], ens.input_space,
                   float(ens.y_shift[branch]), float(ens.y_scale[branch]),
                   ens.chol, ens.weights[:, branch], ens.jitter)


def rowwise(f):
    """A scalar function of one point as the batch objective ``fcps.optim``
    takes: each row of an (m, d) array scored alone, as an (m,) array."""
    return lambda pts: np.array([float(f(p)) for p in pts])
