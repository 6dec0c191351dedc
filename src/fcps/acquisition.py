"""Acquisition functions: GP-UCB and entropy search over representer contexts.

Entropy search scores a hypothetical query by how much it is expected to
shrink the entropy of the argmax distribution over a fixed candidate set,
averaged over fantasy observations.  All Monte-Carlo draws are made once per
evaluation context and shared across fantasy branches and representers
(common random numbers), which keeps objectives deterministic for the
optimizer and makes a duplicated representer contribute exactly twice.

Both engines hand the queries of a ``gains`` call together to one entropy
kernel over grouped blocks: ``base`` (G, L, M) of fantasy-shifted candidate
means and ``draws`` (G, M, K) of posterior draws.  The factored engine passes
one group of C x L rows per query; the joint engine one group of L rows per
(query, branch), and only as many queries per call as one block holds, so
it never keeps more than that many queries' draws.  For each row and draw
the kernel keeps a running maximum over the M candidates in cache-sized row
blocks, updated on strict ``>``, so ties go to the lowest candidate index
exactly as with ``np.argmax`` (which it uses directly on a block small
enough to fit in one piece).  A non-finite block raises
:class:`NumericalError` instead of being ranked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import gp
from .errors import ContractError, NumericalError
from .optim import SearchSpace

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcqConfig:
    """Monte-Carlo fidelity settings for acquisition evaluation.

    ``n_candidates`` is the size of the per-context candidate set the argmax
    distribution lives on, ``n_function_draws`` the number of joint posterior draws,
    ``n_fantasies`` the number of fantasy observations per query.
    """

    kappa: float = 0.1
    n_candidates: int = 20
    n_function_draws: int = 150
    n_fantasies: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        if self.kappa < 0:
            raise ContractError("kappa must be nonnegative")
        if self.n_candidates < 2:
            raise ContractError("need at least 2 candidates")
        if self.n_function_draws < 100:
            raise ContractError("need at least 100 posterior draws")
        if self.n_fantasies < 1:
            raise ContractError("need at least 1 fantasy branch")


@dataclass(frozen=True)
class RepresenterSet:
    """Contexts at which information gain is accounted, with candidate sets.

    ``contexts`` is (C, d_ctx) where the trailing ``env_dim`` columns are
    environment context; ``candidates`` is (C, M, d_theta).
    """

    contexts: np.ndarray
    candidates: np.ndarray
    env_dim: int = 0

    def __post_init__(self):
        ctx = np.atleast_2d(np.asarray(self.contexts, dtype=float))
        cand = np.asarray(self.candidates, dtype=float)
        if cand.ndim != 3 or cand.shape[0] != ctx.shape[0]:
            raise ContractError("candidates must be (C, M, d_theta) matching contexts")
        if cand.shape[1] < 2:
            raise ContractError("need at least 2 candidates per context")
        if not (0 <= self.env_dim <= ctx.shape[1]):
            raise ContractError("env_dim out of range")
        object.__setattr__(self, "contexts", ctx)
        object.__setattr__(self, "candidates", cand)

    @property
    def n_contexts(self) -> int:
        return self.contexts.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.candidates.shape[1]

    @property
    def env_contexts(self) -> np.ndarray:
        return self.contexts[:, self.contexts.shape[1] - self.env_dim:]

    @property
    def target_contexts(self) -> np.ndarray:
        return self.contexts[:, : self.contexts.shape[1] - self.env_dim]

    def shared_candidates(self) -> np.ndarray | None:
        """The single candidate matrix if all contexts share one, else None."""
        first = self.candidates[0]
        if np.array_equal(self.candidates, np.broadcast_to(first, self.candidates.shape)):
            return first
        return None

    @classmethod
    def sample(cls, context_space: SearchSpace, theta_space: SearchSpace,
               n_contexts: int, n_candidates: int, rng: np.random.Generator,
               env_dim: int = 0) -> "RepresenterSet":
        """Uniform contexts plus one Latin-hypercube candidate set shared by all."""
        ctx = context_space.sample_uniform(n_contexts, rng)
        cand = theta_space.sample_latin(n_candidates, rng)
        return cls(ctx, np.broadcast_to(cand, (n_contexts,) + cand.shape).copy(), env_dim)


# ---------------------------------------------------------------------------
# simple acquisitions
# ---------------------------------------------------------------------------


def gp_ucb(mean, std, kappa: float):
    """Upper confidence bound mean + kappa * std (elementwise)."""
    if kappa < 0:
        raise ContractError("kappa must be nonnegative")
    std = np.asarray(std, dtype=float)
    if np.any(std < 0):
        raise ContractError("std must be nonnegative")
    return np.asarray(mean, dtype=float) + kappa * std


# ---------------------------------------------------------------------------
# entropy-search engine
# ---------------------------------------------------------------------------

# float64 entries (256 KiB) the entropy kernel works on at a time: a block
# this size stays in a core's L2 cache
_BLOCK = 1 << 15


def _argmax_entropies(base: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Entropy of the Monte-Carlo argmax distribution per group and row.

    ``base`` is (G, L, M) and ``draws`` (G, M, K): in draw k, row l of group
    g scores candidate m as ``base[g, l, m] + draws[g, m, k]``.  Returns the
    (G, L) entropies of the best candidate's distribution over the K draws,
    with ties going to the lowest candidate index.  A block that fits in
    ``_BLOCK`` whole is argmaxed in one piece; a larger one keeps a running
    maximum over candidates in reused row-block buffers, updated on strict
    ``>``, which picks the same index as ``np.argmax``.
    """
    g_n, l_n, m = base.shape
    k = draws.shape[2]
    if not (np.isfinite(base).all() and np.isfinite(draws).all()):
        raise NumericalError("non-finite value in an entropy-search block")
    if g_n * l_n * m * k <= _BLOCK:
        idx = np.argmax(base[:, :, :, None] + draws[:, None], axis=2)
    else:
        idx_type = np.min_scalar_type(m - 1)
        idx = np.zeros((g_n, l_n, k), dtype=idx_type)
        l_blk = min(l_n, max(1, _BLOCK // k))
        g_blk = min(g_n, max(1, _BLOCK // (k * l_blk)))
        best = np.empty((g_blk, l_blk, k))
        val = np.empty_like(best)
        moved = np.empty(best.shape, dtype=idx_type)
        base_m = base.transpose(2, 0, 1)[..., None]     # (M, G, L, 1)
        draws_m = draws.transpose(1, 0, 2)[:, :, None]  # (M, G, 1, K)
        for g0 in range(0, g_n, g_blk):
            for l0 in range(0, l_n, l_blk):
                b = base_m[:, g0:g0 + g_blk, l0:l0 + l_blk]
                d = draws_m[:, g0:g0 + g_blk]
                gs, ls = b.shape[1:3]
                top, v, up = best[:gs, :ls], val[:gs, :ls], moved[:gs, :ls]
                arg = idx[g0:g0 + gs, l0:l0 + ls]
                np.add(b[0], d[0], out=top)
                for j in range(1, m):
                    np.add(b[j], d[j], out=v)
                    np.greater(v, top, out=up)
                    np.maximum(top, v, out=top)
                    # the running index only grows, so max(arg, j * up)
                    # moves it to j exactly where the maximum did
                    np.multiply(up, j, out=up)
                    np.maximum(arg, up, out=arg)
    rows = g_n * l_n
    offset = idx.reshape(rows, k) + (np.arange(rows) * m)[:, None]
    counts = np.bincount(offset.ravel(), minlength=rows * m)
    p = counts.reshape(rows, m) / k
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log(np.clip(p, 1e-300, None)), 0.0)
    return -(p * logp).sum(axis=1).reshape(g_n, l_n)


def _summed_gains(h0: np.ndarray, ent: np.ndarray, per_branch: bool) -> np.ndarray:
    """Gains from prior entropies h0 (C,) and fantasy entropies (B, C, L)."""
    branch_gains = h0 - ent.mean(axis=2)
    return branch_gains if per_branch else branch_gains.sum(axis=1)


def _stacked_cholesky(sigma: np.ndarray, scale: float) -> np.ndarray:
    """Batched lower Cholesky with escalating jitter shared across the stack.

    The jitter climbs from 1e-10 to the fit-time ceiling of 1e-4 (both times
    ``scale``); past the ceiling it raises :class:`NumericalError`.
    """
    eye = np.eye(sigma.shape[-1])
    cap = 1e-4 * scale
    tried = []
    jitter = 0.0
    while True:
        try:
            return np.linalg.cholesky(sigma + jitter * eye)
        except np.linalg.LinAlgError:
            tried.append(jitter)
        if jitter == cap:
            raise NumericalError(
                f"stacked Cholesky failed after jitter up to {cap:.3e}",
                jitters=tried)
        jitter = min(1e-10 * scale if jitter == 0.0 else jitter * 10.0, cap)


class JointEsEngine:
    """Entropy-search gains under one joint model, many representer branches.

    Draws (the candidate-draw matrix and the fantasy normals) are made once at
    construction, so :meth:`gains` is a deterministic function of the query.
    """

    def __init__(self, model: gp.GpModel, reps: RepresenterSet, cfg: AcqConfig,
                 rng: np.random.Generator | None = None,
                 draws: tuple[np.ndarray, np.ndarray] | None = None):
        h = model.hyperparams
        c_n = reps.n_contexts
        m = reps.n_candidates
        if draws is not None:
            self.z, self.u = draws
        else:
            if rng is None:
                rng = np.random.default_rng(cfg.rng_seed)
            self.z = rng.standard_normal((m, cfg.n_function_draws))
            self.u = rng.standard_normal(cfg.n_fantasies)
        self.model = model
        self.cfg = cfg
        self.c_n, self.m = c_n, m

        points = np.concatenate(
            [np.repeat(reps.contexts, m, axis=0),
             reps.candidates.reshape(c_n * m, -1)], axis=1)
        pt = model.transform_inputs(points)
        self._pt = pt
        pts3 = pt.reshape(c_n, m, -1)
        scaled = pts3 / h.lengthscales
        sq = (np.sum(scaled**2, axis=2)[:, :, None]
              + np.sum(scaled**2, axis=2)[:, None, :]
              - 2.0 * np.einsum("cmd,cnd->cmn", scaled, scaled))
        np.maximum(sq, 0.0, out=sq)
        prior = h.signal_variance * np.exp(-0.5 * sq)

        if len(model):
            ks = gp.kernel_eval(pt, model.xt, h)
            self._v = solve_triangular(model.chol, ks.T, lower=True)
            mu0 = (ks @ model.weights).reshape(c_n, m)
            v3 = self._v.reshape(-1, c_n, m)
            sigma = prior - np.einsum("ncm,ncl->cml", v3, v3)
        else:
            self._v = None
            mu0 = np.zeros((c_n, m))
            sigma = prior
        self.mu0 = mu0
        self.sigma = sigma
        self._scale = h.signal_variance + h.noise_variance
        l0 = _stacked_cholesky(sigma, self._scale)
        s0 = np.einsum("cml,lk->cmk", l0, self.z)
        self.h0 = _argmax_entropies(mu0[:, None, :], s0)[:, 0]

    def gains(self, queries: np.ndarray, per_branch: bool = False) -> np.ndarray:
        """Summed information gain for each query row."""
        model, h = self.model, self.model.hyperparams
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        b_n = len(q)
        qt = model.transform_inputs(q)
        # The fantasy y = mu_q + sd*u shifts candidate means by cross*(y-mu_q)
        # / s2_obs = cross*u/sd, so the predictive mean itself cancels and only
        # the standardized fantasy normal u enters.
        if len(model):
            kq = gp.kernel_eval(qt, model.xt, h)
            wq = solve_triangular(model.chol, kq.T, lower=True)
            s2_lat = np.maximum(h.signal_variance - np.sum(wq**2, axis=0), 0.0)
            cross = (gp.kernel_eval(self._pt, qt, h) - self._v.T @ wq)
        else:
            s2_lat = np.full(b_n, h.signal_variance)
            cross = gp.kernel_eval(self._pt, qt, h)
        cross = cross.reshape(self.c_n, self.m, b_n)
        s2_obs = np.maximum(s2_lat + h.noise_variance, 1e-12 * self._scale)
        sd_obs = np.sqrt(s2_obs)

        c_n, m, l_n = self.c_n, self.m, self.cfg.n_fantasies
        k = self.z.shape[1]
        shift = ((self.u[None, None, :, None] / sd_obs[:, None, None, None])
                 * cross.transpose(2, 0, 1)[:, :, None, :])  # (B, C, L, M)
        base = (self.mu0[None, :, None, :] + shift).reshape(b_n, c_n * l_n, m)
        ent = np.empty((b_n, c_n * l_n))
        # queries per kernel call: as many as one block holds, at least one;
        # few-branch engines batch a whole call, many-branch ones hold one
        # query's C draw matrices at a time
        step = max(1, _BLOCK // (c_n * l_n * k))
        for lo in range(0, b_n, step):
            hi = min(lo + step, b_n)
            draws = np.empty((hi - lo, c_n, m, k))
            for b in range(lo, hi):
                cb = cross[:, :, b]
                sig_plus = self.sigma - np.einsum("cm,cn->cmn", cb, cb) / s2_obs[b]
                l_plus = _stacked_cholesky(sig_plus, self._scale)
                draws[b - lo] = np.einsum("cml,lk->cmk", l_plus, self.z)
            ent[lo:hi] = _argmax_entropies(
                base[lo:hi].reshape(-1, l_n, m), draws.reshape(-1, m, k)
            ).reshape(hi - lo, -1)
        return _summed_gains(self.h0, ent.reshape(b_n, c_n, l_n), per_branch)


class EnsembleEsEngine:
    """Entropy-search gains for per-branch targets over shared inputs.

    All branches share training inputs, hyperparameters, and one candidate
    matrix; only the target columns differ.  Kernel quantities are therefore
    computed once and reused, which is what makes per-episode evaluation with
    hundreds of representer contexts affordable.
    """

    def __init__(self, ensemble: "gp.GpEnsemble", candidates: np.ndarray,
                 cfg: AcqConfig, rng: np.random.Generator | None = None,
                 draws: tuple[np.ndarray, np.ndarray] | None = None):
        h = ensemble.hyperparams
        cand = np.atleast_2d(np.asarray(candidates, dtype=float))
        m = len(cand)
        if draws is not None:
            self.z, self.u = draws
        else:
            if rng is None:
                rng = np.random.default_rng(cfg.rng_seed)
            self.z = rng.standard_normal((m, cfg.n_function_draws))
            self.u = rng.standard_normal(cfg.n_fantasies)
        self.ensemble = ensemble
        self.cfg = cfg
        self.m = m

        pt = ensemble.transform_inputs(cand)
        self._pt = pt
        prior = gp.kernel_eval(pt, pt, h)
        if ensemble.n_points:
            ks = gp.kernel_eval(pt, ensemble.xt, h)
            self._v = solve_triangular(ensemble.chol, ks.T, lower=True)
            self.mu0 = (ks @ ensemble.alphas).T  # (C, M)
            self.sigma = prior - self._v.T @ self._v
        else:
            self._v = None
            self.mu0 = np.zeros((ensemble.n_branches, m))
            self.sigma = prior
        self._scale = h.signal_variance + h.noise_variance
        l0 = _stacked_cholesky(self.sigma[None], self._scale)[0]
        s0 = l0 @ self.z
        self.h0 = _argmax_entropies(self.mu0[None], s0[None])[0]

    def gains(self, queries: np.ndarray, per_branch: bool = False) -> np.ndarray:
        ens = self.ensemble
        h = ens.hyperparams
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        b_n = len(q)
        c_n = ens.n_branches
        qt = ens.transform_inputs(q)
        # Per-branch fantasies y_c = mu_q_c + sd*u share the standardized shift
        # u/sd, so branch predictive means cancel just as in JointEsEngine.
        if ens.n_points:
            kq = gp.kernel_eval(qt, ens.xt, h)
            wq = solve_triangular(ens.chol, kq.T, lower=True)
            s2_lat = np.maximum(h.signal_variance - np.sum(wq**2, axis=0), 0.0)
            cross = gp.kernel_eval(self._pt, qt, h) - self._v.T @ wq  # (M, B)
        else:
            s2_lat = np.full(b_n, h.signal_variance)
            cross = gp.kernel_eval(self._pt, qt, h)
        s2_obs = np.maximum(s2_lat + h.noise_variance, 1e-12 * self._scale)
        sd_obs = np.sqrt(s2_obs)

        l_n = self.cfg.n_fantasies
        draws = np.empty((b_n, self.m, self.z.shape[1]))
        for b in range(b_n):
            cb = cross[:, b]
            sig_plus = self.sigma - np.outer(cb, cb) / s2_obs[b]
            l_plus = _stacked_cholesky(sig_plus[None], self._scale)[0]
            draws[b] = l_plus @ self.z
        shift = ((self.u[None, :, None] / sd_obs[:, None, None])
                 * cross.T[:, None, :])  # (B, L, M)
        base = self.mu0[None, :, None, :] + shift[:, None]  # (B, C, L, M)
        ent = _argmax_entropies(base.reshape(b_n, c_n * l_n, self.m), draws)
        return _summed_gains(self.h0, ent.reshape(b_n, c_n, l_n), per_branch)
