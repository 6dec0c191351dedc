"""Shared pytest setup: property tests draw the same examples on every run.

Also the test helpers more than one module uses.
"""

from hypothesis import settings

from fcps.gp import GpModel

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def ensemble_branch_model(ens, branch: int):
    """One column of a shared-input ensemble as a standalone model."""
    return GpModel(ens.inputs, ens.targets[:, branch], ens.hyperparams,
                   ens.x_lo, ens.x_span, float(ens.y_shift[branch]),
                   float(ens.y_scale[branch]), ens.xt,
                   (ens.targets[:, branch] - ens.y_shift[branch]) / ens.y_scale[branch],
                   ens.chol, ens.weights[:, branch], ens.jitter)
