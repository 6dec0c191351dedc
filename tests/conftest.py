"""Shared pytest setup: property tests draw the same examples on every run.

Also the test helpers more than one module uses.
"""

import numpy as np
from hypothesis import settings

from fcps.gp import GpModel
from fcps.optim import SearchSpace

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


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
