"""Gaussian-process regression with a squared-exponential ARD kernel.

Models use a zero-mean prior over transformed coordinates: every model
carries its input box, a :class:`~fcps.optim.SearchSpace`, and maps inputs
to the unit box through it, and targets may be standardized at fit time,
per column.  A model holds one target or C targets over the same inputs
(one weight column each, from one Cholesky factor; Rasmussen & Williams
2006, ch. 2).  Hyperparameters always refer to the transformed coordinates;
predictions are reported in the original units.

The marginal-likelihood gradient follows the standard trace identity
d(nlml)/dt = -0.5 tr((alpha alpha^T - K^{-1}) dK/dt) over log-hyperparameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import fmin_l_bfgs_b

from .errors import ContractError, NumericalError
from .optim import SearchSpace

# The LAPACK routines behind scipy.linalg's cholesky, cho_solve and
# solve_triangular, fetched once: at the model sizes here the wrappers'
# batching and validation cost more than the call itself.
_POTRF, _POTRS, _TRTRS = lapack.dpotrf, lapack.dpotrs, lapack.dtrtrs


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelHyperparams:
    """Squared-exponential kernel settings; every entry strictly positive."""

    signal_variance: float
    lengthscales: np.ndarray
    noise_variance: float

    def __post_init__(self):
        ell = np.atleast_1d(np.asarray(self.lengthscales, dtype=float)).copy()
        sf2 = float(self.signal_variance)
        sn2 = float(self.noise_variance)
        if ell.ndim != 1:
            raise ContractError("lengthscales must be a 1-d array")
        # checked on Python floats: a MAP search builds one per objective
        # call.  A NaN lengthscale makes both extremes NaN
        ell_lo, ell_hi = (float(ell.min()), float(ell.max())) if ell.size else (1.0, 1.0)
        if not all(map(math.isfinite, (ell_lo, ell_hi, sf2, sn2))):
            raise ContractError("hyperparameters must be finite")
        if sf2 <= 0 or sn2 <= 0 or ell_lo <= 0:
            raise ContractError("hyperparameters must be strictly positive")
        ell.flags.writeable = False
        object.__setattr__(self, "signal_variance", sf2)
        object.__setattr__(self, "lengthscales", ell)
        object.__setattr__(self, "noise_variance", sn2)

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def as_log_vector(self) -> np.ndarray:
        return np.concatenate([
            [np.log(self.signal_variance)],
            np.log(self.lengthscales),
            [np.log(self.noise_variance)],
        ])

    @classmethod
    def from_log_vector(cls, v) -> "KernelHyperparams":
        v = np.asarray(v, dtype=float)
        return cls(np.exp(v[0]), np.exp(v[1:-1]), np.exp(v[-1]))


@dataclass(frozen=True)
class GpModel:
    """Fitted GP: the data as the kernel sees it (transformed inputs ``xt``
    and targets ``yt``), the input box and target transform, and the
    Cholesky/weights cache.

    ``chol`` is the lower factor of K + noise*I (+ jitter) over ``xt``,
    F-ordered as LAPACK's ``potrf`` returns it; ``weights`` solves that
    system against ``yt``.  ``yt`` and ``weights`` are (N,) for one target
    and (N, C) for C targets over the same inputs; ``y_shift`` and
    ``y_scale`` are then Python floats or (C,) arrays.
    """

    hyperparams: KernelHyperparams
    xt: np.ndarray
    yt: np.ndarray
    input_space: SearchSpace
    y_shift: float | np.ndarray
    y_scale: float | np.ndarray
    chol: np.ndarray
    weights: np.ndarray
    jitter: float

    def __len__(self) -> int:
        return self.xt.shape[0]

    def transform_inputs(self, x: np.ndarray) -> np.ndarray:
        box = self.input_space
        return (np.asarray(x, dtype=float) - box.lower) / box.span

    @cached_property
    def scaled_xt(self) -> tuple[np.ndarray, np.ndarray]:
        """Length-scaled training rows and their squared norms, computed on
        first use and kept with the model (not a dataclass field, so
        equality and ``repr`` ignore it)."""
        return _scaled_rows(self.xt, self.hyperparams)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def _scaled_rows(x: np.ndarray, h: KernelHyperparams) -> tuple[np.ndarray, np.ndarray]:
    s = x / h.lengthscales
    return s, np.add.reduce(np.square(s), axis=-1)


def _kernel_scaled(a, b, h: KernelHyperparams) -> np.ndarray:
    """Kernel matrix from two ``_scaled_rows`` pairs."""
    (sa, sa_sq), (sb, sb_sq) = a, b
    sq = sa_sq[..., None] + sb_sq[..., None, :]
    sq -= 2.0 * (sa @ sb.swapaxes(-1, -2))
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= h.signal_variance
    return sq


def kernel_eval(a, b, h: KernelHyperparams) -> np.ndarray:
    """Kernel matrix between row sets ``a`` (m, d) and ``b`` (n, d), or
    between stacks of them, (..., m, d) and (..., n, d), per stack entry."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[-1] != h.dim or b.shape[-1] != h.dim:
        raise ContractError("input dimension does not match kernel lengthscales")
    return _kernel_scaled(_scaled_rows(a, h), _scaled_rows(b, h), h)


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _check_info(info: int, routine: str) -> None:
    """Raise as scipy does on a LAPACK status: ``LinAlgError`` when the
    matrix is not positive definite (potrf) or singular (trtrs)."""
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed at diagonal {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _cholesky(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cholesky(a, lower=True)`` on a float64 matrix."""
    _check_finite(a)
    c, info = _POTRF(a, lower=1)
    _check_info(info, "potrf")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve((c, True), b)`` on float64 arrays."""
    _check_finite(c, b)
    x, info = _POTRS(c, b, lower=1)
    _check_info(info, "potrs")
    return x


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_triangular(L, b, lower=True, check_finite=False)``
    on float64 arrays and an F-ordered factor, the layout every model's
    factor has."""
    x, info = _TRTRS(L, b, lower=1)
    _check_info(info, "trtrs")
    return x


def factor_with_jitter(factor, a: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """``(factor(a + jitter * I), jitter)`` at the first jitter that factors:
    none, then 1e-10 * ``scale`` rising tenfold, capped at exactly 1e-4 *
    ``scale``.  A stack ``a`` shares one jitter.  Past the cap it raises
    :class:`NumericalError` with every jitter tried, 0.0 first.  A fit passes
    ``_cholesky`` and the entropy engine ``np.linalg.cholesky``: the two
    round differently, so each keeps its own."""
    eye = np.eye(a.shape[-1])
    cap = 1e-4 * scale
    tried = []
    jitter = 0.0
    while True:
        try:
            return factor(a + jitter * eye), jitter
        except np.linalg.LinAlgError:
            tried.append(jitter)
        if jitter == cap:
            raise NumericalError(
                f"Cholesky factorization failed after jitter up to {cap:.3e}",
                jitters=tried)
        jitter = min(1e-10 * scale if jitter == 0.0 else jitter * 10.0, cap)


# ---------------------------------------------------------------------------
# fitting and prediction
# ---------------------------------------------------------------------------


def _weights(chol: np.ndarray, yt: np.ndarray) -> np.ndarray:
    return _cho_solve(chol, yt) if len(yt) else np.zeros(yt.shape)


def _assemble(h, xt, yt, input_space, y_shift, y_scale) -> GpModel:
    K = kernel_eval(xt, xt, h) + h.noise_variance * np.eye(len(xt))
    # jitter in units of one observation's prior variance, as in the engine
    L, jitter = factor_with_jitter(_cholesky, K, h.signal_variance + h.noise_variance)
    return GpModel(h, xt, yt, input_space, y_shift, y_scale, L, _weights(L, yt), jitter)


def _standardization(targets: np.ndarray, standardize: bool):
    """Per-column target shift and scale: mean and standard deviation (1
    where below 1e-12) if ``standardize`` and there are targets, else 0 and
    1; Python floats for (n,) targets, (C,) arrays for (n, C)."""
    if standardize and len(targets):
        shift, sd = targets.mean(axis=0), targets.std(axis=0)
        scale = np.where(sd > 1e-12, sd, 1.0)
    else:
        shift, scale = np.zeros(targets.shape[1:]), np.ones(targets.shape[1:])
    if targets.ndim == 1:
        return float(shift), float(scale)
    return shift, scale


def _checked_targets(targets, n: int) -> np.ndarray:
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if targets.ndim > 2 or targets.shape[0] != n:
        raise ContractError("targets must be one value or row per input row")
    if targets.size and not np.all(np.isfinite(targets)):
        raise ContractError("targets must be finite")
    return targets


def _prepared(inputs, targets, dim: int, input_space: SearchSpace, standardize: bool):
    """The checked data as the kernel sees it, ``(xt, yt)``, followed by the
    transforms that map it there, ``(input_space, y_shift, y_scale)``."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.size == 0:
        inputs = inputs.reshape(0, dim)
    if inputs.ndim != 2 or inputs.shape[1] != dim:
        raise ContractError("inputs must be (n, d) with d matching the kernel")
    targets = _checked_targets(targets, inputs.shape[0])
    if inputs.size and not np.all(np.isfinite(inputs)):
        raise ContractError("inputs must be finite")

    if input_space.dim != dim:
        raise ContractError("input_space dimension does not match the kernel")
    y_shift, y_scale = _standardization(targets, standardize)
    xt = (inputs - input_space.lower) / input_space.span
    return xt, (targets - y_shift) / y_scale, input_space, y_shift, y_scale


def fit(inputs, targets, h: KernelHyperparams, *, input_space: SearchSpace,
        standardize: bool = False) -> GpModel:
    """Build a model from (possibly empty) data under fixed hyperparameters:
    targets (n,) for one target, (n, C) for C targets over the inputs, and
    inputs mapped to the unit box through ``input_space``."""
    return _assemble(h, *_prepared(inputs, targets, h.dim, input_space, standardize))


def fit_shared_inputs(inputs, target_matrix, h: KernelHyperparams, *,
                      input_space: SearchSpace) -> GpModel:
    """``fit(..., standardize=True)`` with one target column per branch, as
    faces fits its representers; a function of its own, so that a trace
    tells it from ``fit``."""
    return _assemble(h, *_prepared(inputs, target_matrix, h.dim, input_space, True))


def fit_targets(m: GpModel, targets) -> GpModel:
    """``fit(..., standardize=True)`` on ``m``'s inputs, hyperparameters and
    input transform with other targets, bit for bit, from ``m``'s Cholesky
    factor: only the target standardization and the weights are computed.
    The targets are always standardized, as the learners fit them."""
    targets = _checked_targets(targets, len(m))
    y_shift, y_scale = _standardization(targets, True)
    yt = (targets - y_shift) / y_scale
    return GpModel(m.hyperparams, m.xt, yt, m.input_space, y_shift, y_scale,
                   m.chol, _weights(m.chol, yt), m.jitter)


def kernel_rows(m: GpModel, xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model conditioned on transformed query rows ``xt`` (q, d): the
    (q, n) kernel rows ``k`` against the training rows, and ``v`` (n, q),
    the same rows whitened by the factor.  The posterior mean of query j is
    ``k[j] @ weights`` and its latent variance ``signal_variance -
    sum(v[:, j]**2)``.  An empty model gives zero-width arrays."""
    if len(m) == 0:  # LAPACK refuses a zero-sized solve
        return np.zeros((len(xt), 0)), np.zeros((0, len(xt)))
    h = m.hyperparams
    k = _kernel_scaled(_scaled_rows(xt, h), m.scaled_xt, h)
    return k, _solve_lower(m.chol, k.T)


def predict_batch(m: GpModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and (noise-free) variance at each row of ``x``, for a
    one-target model."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != m.hyperparams.dim:
        raise ContractError("query dimension does not match the model")
    if m.weights.ndim != 1:
        raise ContractError("predict_batch takes a one-target model")
    ks, v = kernel_rows(m, m.transform_inputs(x))
    mean_t = ks @ m.weights
    var_t = m.hyperparams.signal_variance - np.add.reduce(np.square(v, out=v), axis=0)
    np.maximum(var_t, 0.0, out=var_t)
    return m.y_shift + m.y_scale * mean_t, (m.y_scale**2) * var_t


# ---------------------------------------------------------------------------
# marginal likelihood
# ---------------------------------------------------------------------------


def _squared_differences(inputs) -> np.ndarray:
    """``(x_i - x_i^T)**2`` per input dimension, stacked as (d, n, n).

    Built from a C-ordered copy of the columns: from the transposed view
    the result is laid out transposed, which makes each product with it
    about twice as slow."""
    cols = np.ascontiguousarray(np.atleast_2d(np.asarray(inputs, dtype=float)).T)
    diff = cols[:, :, None] - cols[:, None, :]
    return np.square(diff, out=diff)


def nlml(inputs, targets, h: KernelHyperparams, *,
         sq_diffs: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and its gradient.

    The gradient is over log-hyperparameters ordered as
    [log signal_variance, log lengthscales..., log noise_variance].
    Data is used exactly as given; no transforms are applied here.
    ``sq_diffs`` holds the inputs' squared differences per dimension, as
    ``_squared_differences`` makes them; they do not depend on ``h``, so a
    caller scoring many hyperparameters on one dataset computes them once.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    n, d = inputs.shape
    if d != h.dim or targets.shape != (n,):
        raise ContractError("data shapes do not match the kernel")
    if n == 0:
        raise ContractError("nlml needs at least one observation")

    kf = kernel_eval(inputs, inputs, h)
    K = kf.copy()
    K.reshape(-1)[::n + 1] += h.noise_variance
    try:
        L = _cholesky(K)
    except np.linalg.LinAlgError:
        return np.inf, np.zeros(d + 2)
    alpha = _cho_solve(L, targets)
    value = (0.5 * targets @ alpha + np.sum(np.log(np.diag(L)))
             + 0.5 * n * np.log(2.0 * np.pi))

    # A = alpha alpha^T - K^{-1}, then A * kf, each in place and C-ordered:
    # the sums below must run in row order for the results to stay the same.
    # The factor was checked finite for alpha's solve, so the identity's
    # solve skips that.
    A = alpha[:, None] * alpha
    kinv, info = _POTRS(L, np.eye(n), lower=1)
    _check_info(info, "potrs")
    A -= kinv
    grad = np.empty(d + 2)
    grad[-1] = -0.5 * h.noise_variance * np.trace(A)
    A *= kf
    grad[0] = -0.5 * np.sum(A)
    if sq_diffs is None:
        sq_diffs = _squared_differences(inputs)
    # every lengthscale term in one pass over the table, each dimension's
    # square by numpy's scalar power: the array power (np.square) rounds
    # some of them differently
    scales = np.array([ell ** 2 for ell in h.lengthscales])
    terms = sq_diffs / scales[:, None, None]
    terms *= A
    grad[1:-1] = -0.5 * np.add.reduce(terms.reshape(d, -1), axis=1)
    return float(value), grad


def optimize_hyperparams(inputs, targets, init: KernelHyperparams, *,
                         restarts: int, rng: np.random.Generator,
                         bounds: list[tuple[float, float]],
                         prior: list[tuple[float, float]]) -> KernelHyperparams:
    """Bounded MAP search, warm-started plus random restarts.

    ``bounds`` is the log-space box and ``prior`` one (mean, width) Gaussian
    penalty per log-hyperparameter: the objective is the negative log
    marginal likelihood under independent lognormal priors, so small
    datasets stay near the prior means instead of committing to whatever
    extreme the likelihood surface rewards first.  The returned
    hyperparameters never score worse than ``init`` under that objective.
    With fewer than two observations the data says nothing useful, so
    ``init`` comes back unchanged.
    """
    if restarts < 1:
        raise ContractError("restarts must be positive")
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if len(targets) <= 1:
        return init
    if len(bounds) != init.dim + 2:
        raise ContractError("bounds must cover every log-hyperparameter")
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    if len(prior) != init.dim + 2:
        raise ContractError("prior must cover every log-hyperparameter")
    p_mu = np.array([p[0] for p in prior], dtype=float)
    p_sd = np.array([p[1] for p in prior], dtype=float)
    if np.any(p_sd <= 0.0):
        raise ContractError("prior widths must be positive")
    sq_diffs = _squared_differences(inputs)
    # nlml by the hyperparameters' bits: the init point, L-BFGS-B's first
    # call at the same point and the re-score of an end point would
    # otherwise repeat a call.  Log-vectors a bit apart can map to the same
    # hyperparameters, so the prior term is added per call.
    scores: dict[tuple, tuple[float, np.ndarray]] = {}

    def objective(logv):
        h = KernelHyperparams.from_log_vector(logv)
        key = (h.signal_variance, h.lengthscales.tobytes(), h.noise_variance)
        if key not in scores:
            scores[key] = nlml(inputs, targets, h, sq_diffs=sq_diffs)
        value, grad = scores[key]
        if not np.isfinite(value):
            return value, grad.copy()
        z = (logv - p_mu) / p_sd
        return value + 0.5 * float(z @ z), grad + z / p_sd

    starts = [np.clip(init.as_log_vector(), lo, hi)]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(lo, hi))

    best_val, _ = objective(init.as_log_vector())
    best = init
    for s in starts:
        # the objective returns (value, gradient), as minimize's jac=True
        x, _, _ = fmin_l_bfgs_b(objective, s, bounds=bounds, m=10, maxiter=200)
        cand = KernelHyperparams.from_log_vector(np.clip(x, lo, hi))
        val, _ = objective(cand.as_log_vector())
        if val < best_val:
            best_val, best = val, cand
    return best


def refit(inputs, targets, init: KernelHyperparams, *, input_space: SearchSpace,
          restarts: int, rng: np.random.Generator,
          bounds: list[tuple[float, float]],
          prior: list[tuple[float, float]]) -> KernelHyperparams:
    """MAP hyperparameters from ``init`` on the data as ``fit(...,
    standardize=True)`` transforms it.  The search scores the transformed
    data alone, so no kernel matrix or factor is built here."""
    xt, yt = _prepared(inputs, targets, init.dim, input_space, True)[:2]
    return optimize_hyperparams(xt, yt, init, restarts=restarts, rng=rng,
                                bounds=bounds, prior=prior)


# ---------------------------------------------------------------------------
# incremental update
# ---------------------------------------------------------------------------


def fantasize(m: GpModel, x, y: float) -> GpModel:
    """Model extended by one observation via a rank-1 Cholesky update.

    Transforms are carried over unchanged, so the result equals a refit on
    the extended dataset under the same transforms.  An empty model, or a
    numerically unusable pivot, takes a full factorization instead.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if x.shape[1] != m.hyperparams.dim:
        raise ContractError("query dimension does not match the model")
    if m.weights.ndim != 1:
        raise ContractError("fantasize takes a one-target model")
    _check_finite(x)
    h = m.hyperparams
    x_new = m.transform_inputs(x)
    xt = np.vstack([m.xt, x_new])
    yt = np.append(m.yt, (float(y) - m.y_shift) / m.y_scale)
    n = len(m)
    if n:
        b = kernel_rows(m, x_new)[1][:, 0]
        k_ss = h.signal_variance + h.noise_variance + m.jitter
        c_sq = k_ss - b @ b
        if c_sq > 1e-12 * k_ss:
            L = np.zeros((n + 1, n + 1), order="F")
            L[:n, :n] = m.chol
            L[n, :n] = b
            L[n, n] = np.sqrt(c_sq)
            return GpModel(h, xt, yt, m.input_space, m.y_shift, m.y_scale,
                           L, _cho_solve(L, yt), m.jitter)
    return _assemble(h, xt, yt, m.input_space, m.y_shift, m.y_scale)
