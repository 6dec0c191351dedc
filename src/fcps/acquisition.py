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
:class:`NumericalError` instead of being ranked.  First, candidates that
cannot win are dropped: ``fl(b + d)`` is monotone in ``d``, so candidate m
stays strictly below row r's maximum in every draw, and cannot even tie, when
``base[r, m] + max_k draws[m, k] < max_m' (base[r, m'] + min_k draws[m', k])``.
A row with one survivor is decided (entropy -0.0) and never scored.  Groups
under ``_PRUNE_ROWS`` rows, where the test costs too much, stay dense, and so
do groups whose first rows keep most candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    if (std < 0).any():
        raise ContractError("std must be nonnegative")
    return np.asarray(mean, dtype=float) + kappa * std


# ---------------------------------------------------------------------------
# entropy-search engine
# ---------------------------------------------------------------------------

# float64 entries (256 KiB) the entropy kernel works on at a time: a block
# this size stays in a core's L2 cache
_BLOCK = 1 << 15
_PRUNE_ROWS = 32


def _survivors(base: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the candidates a draw in [lo, hi] (G, 1, M) can make their row's maximum."""
    return base + hi >= (base + lo).max(axis=2, keepdims=True)


def _entropies(idx: np.ndarray, m: int) -> np.ndarray:
    """Entropy of the candidate indices along the last axis of ``idx``.  The
    counts stay M wide: the pairwise row sum gives each column a fixed lane."""
    lead, k = idx.shape[:-1], idx.shape[-1]
    lanes = np.arange(idx.size // k).reshape(lead + (1,)) * m
    p = np.bincount((idx + lanes).ravel(), minlength=lanes.size * m) / k
    plogp = p * np.log(p, out=np.zeros_like(p), where=p > 0)
    return -plogp.reshape(lead + (m,)).sum(axis=-1)


def _step(top, v, up, arg, j):
    """Running-maximum step on strict ``>``; max(arg, j * up) holds as ``j`` grows."""
    np.greater(v, top, out=up)
    np.maximum(top, v, out=top)
    np.multiply(up, j, out=up)
    np.maximum(arg, up, out=arg)


def _argmax_entropies(base: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Entropy of the Monte-Carlo argmax distribution per group and row.

    ``base`` is (G, L, M) and ``draws`` (G, M, K): in draw k, row l of group
    g scores candidate m as ``base[g, l, m] + draws[g, m, k]``.  Returns the
    (G, L) entropies of the best candidate's distribution over the K draws,
    with ties going to the lowest candidate index.  The pruned running-maximum
    loop gathers each row's draws; the dense one, kept for blocks that do not
    prune, broadcasts one candidate's draws over a block, costing less each.
    """
    g_n, l_n, m = base.shape
    k = draws.shape[2]
    if not (np.isfinite(base).all() and np.isfinite(draws).all()):
        raise NumericalError("non-finite value in an entropy-search block")
    rows = g_n * l_n
    idx_type = np.min_scalar_type(m - 1)
    ent = np.empty((g_n, l_n))
    if rows * m * k <= _BLOCK:
        ent = _entropies(np.argmax(base[:, :, :, None] + draws[:, None], axis=2), m)
    elif l_n >= _PRUNE_ROWS and 2 * np.count_nonzero(_survivors(  # most survive: dense
            base[:, :_PRUNE_ROWS], lo := draws.min(axis=2)[:, None],
            hi := draws.max(axis=2)[:, None])) <= g_n * _PRUNE_ROWS * m:
        alive = _survivors(base, lo, hi).reshape(rows, m)
        n_alive = np.count_nonzero(alive, axis=1)
        # most survivors first, so each step updates a prefix of the row block
        order = np.argsort(-n_alive, kind="stable")
        n_live = np.count_nonzero(n_alive > 1)
        row, decided = order[:n_live], order[n_live:]
        ent.reshape(rows)[decided] = -0.0
        n_surv = n_alive[row]
        at, cand = np.nonzero(alive[row])
        rank = np.arange(len(at)) - np.repeat(np.cumsum(n_surv) - n_surv, n_surv)
        sidx = np.zeros((n_live, n_surv[0] if n_live else 0), dtype=idx_type)
        sidx[at, rank] = cand  # survivors in index order, zero-padded
        bval = np.take_along_axis(base.reshape(rows, m)[row], sidx, axis=1)
        flat = (row // l_n)[:, None] * m + sidx
        draws_flat = draws.reshape(g_n * m, k)
        best, val = np.empty((2, max(1, min(_BLOCK // k, n_live)), k))
        moved, args = np.empty((2,) + best.shape, dtype=idx_type)
        for r0 in range(0, n_live, len(best)):
            r1 = min(r0 + len(best), n_live)
            top, arg = best[:r1 - r0], args[:r1 - r0]
            np.add(np.take(draws_flat, flat[r0:r1, 0], axis=0), bval[r0:r1, :1], out=top)
            arg[...] = sidx[r0:r1, :1]
            for j in range(1, n_surv[r0]):
                n = np.count_nonzero(n_surv[r0:r1] > j)
                v = val[:n]
                np.take(draws_flat, flat[r0:r0 + n, j], axis=0, out=v, mode="clip")
                np.add(v, bval[r0:r0 + n, j:j + 1], out=v)
                _step(top[:n], v, moved[:n], arg[:n], sidx[r0:r0 + n, j:j + 1])
            ent.reshape(rows)[row[r0:r1]] = _entropies(arg, m)
    else:
        l_blk = min(l_n, max(1, _BLOCK // k))
        g_blk = min(g_n, max(1, _BLOCK // (k * l_blk)))
        best = np.empty((g_blk, l_blk, k))
        val = np.empty_like(best)
        moved = np.empty(best.shape, dtype=idx_type)
        base_m = base.transpose(2, 0, 1)[..., None]     # (M, G, L, 1)
        draws_m = draws.transpose(1, 0, 2)[:, :, None]  # (M, G, 1, K)
        for g0 in range(0, g_n, g_blk):
            args = np.zeros((min(g_blk, g_n - g0), l_n, k), dtype=idx_type)
            for l0 in range(0, l_n, l_blk):
                b = base_m[:, g0:g0 + g_blk, l0:l0 + l_blk]
                d = draws_m[:, g0:g0 + g_blk]
                gs, ls = b.shape[1:3]
                top, v, up = best[:gs, :ls], val[:gs, :ls], moved[:gs, :ls]
                arg = args[:, l0:l0 + ls]
                np.add(b[0], d[0], out=top)
                for j in range(1, m):
                    np.add(b[j], d[j], out=v)
                    _step(top, v, up, arg, j)
            ent[g0:g0 + len(args)] = _entropies(args, m)
    return ent


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
            self._v = gp._solve_lower(model.chol, ks.T)
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
            wq = gp._solve_lower(model.chol, kq.T)
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
            self._v = gp._solve_lower(ensemble.chol, ks.T)
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
            wq = gp._solve_lower(ens.chol, kq.T)
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
