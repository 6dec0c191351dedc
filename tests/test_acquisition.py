"""Acquisition tests.

The two-candidate information-gain oracle is computed from bivariate-normal
algebra plus Gauss-Hermite quadrature, independently of the Monte-Carlo
engine under test, over the dense joint posterior kept here as
``posterior_joint``.  The ``np.argmax`` entropy kernels, the per-query gain
loops and the objective wrappers the engine replaced are kept here as
oracles, and so are the joint and the ensemble engine that the one engine
over (branch, candidate) blocks replaced, with faces' loop of per-branch
joint engines: the engine must reproduce them bit for bit.
"""

from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import norm

from fcps import acquisition, gp
from fcps.acquisition import EnsembleEsEngine
from fcps.algorithms import LearnerConfig, _prefixed
from fcps.errors import ContractError, NumericalError
from fcps.optim import SearchSpace

from conftest import ensemble_branch_model, unit_box


class Reps(NamedTuple):
    """Representer contexts (C, d_ctx) with their candidate sets (C, M, d_theta)."""

    contexts: np.ndarray
    candidates: np.ndarray


def sample_reps(context_space: SearchSpace, theta_space: SearchSpace,
                n_contexts: int, n_candidates: int, rng) -> Reps:
    """Uniform contexts, then one Latin-hypercube candidate set they share:
    the active learners' draw order."""
    ctx = context_space.sample_uniform(n_contexts, rng)
    cand = theta_space.sample_latin(n_candidates, rng)
    return Reps(ctx, np.broadcast_to(cand, (n_contexts,) + cand.shape))


def posterior_joint(m: gp.GpModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Joint posterior mean vector and covariance matrix at ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    h = m.hyperparams
    pt = m.transform_inputs(points)
    if len(m) == 0:
        mean_t = np.zeros(len(points))
        cov_t = gp.kernel_eval(pt, pt, h)
    else:
        ks = gp.kernel_eval(pt, m.xt, h)
        mean_t = ks @ m.weights
        v = solve_triangular(m.chol, ks.T, lower=True)
        cov_t = gp.kernel_eval(pt, pt, h) - v.T @ v
    return m.y_shift + m.y_scale * mean_t, (m.y_scale**2) * cov_t


# ---------------------------------------------------------------------------
# oracles: the np.argmax kernels and per-query loops the engines replaced
# ---------------------------------------------------------------------------

_CHUNK_ENTRIES = 4_000_000


def _entropies_shared(base: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Entropy of the argmax distribution of base[g] + s per row g."""
    g_total, m = base.shape
    k = s.shape[1]
    out = np.empty(g_total)
    step = max(1, _CHUNK_ENTRIES // (m * k))
    for lo in range(0, g_total, step):
        hi = min(lo + step, g_total)
        vals = base[lo:hi, :, None] + s[None, :, :]
        idx = np.argmax(vals, axis=1)
        offset = idx + (np.arange(hi - lo) * m)[:, None]
        counts = np.bincount(offset.ravel(), minlength=(hi - lo) * m)
        p = counts.reshape(hi - lo, m) / k
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(p > 0, np.log(np.clip(p, 1e-300, None)), 0.0)
        out[lo:hi] = -(p * logp).sum(axis=1)
    return out


def _entropies_stacked(base: np.ndarray, s: np.ndarray, branch_of: np.ndarray) -> np.ndarray:
    """Like :func:`_entropies_shared` but with a per-row draw tensor."""
    g_total, m = base.shape
    k = s.shape[2]
    out = np.empty(g_total)
    step = max(1, _CHUNK_ENTRIES // (m * k))
    for lo in range(0, g_total, step):
        hi = min(lo + step, g_total)
        vals = base[lo:hi, :, None] + s[branch_of[lo:hi]]
        idx = np.argmax(vals, axis=1)
        offset = idx + (np.arange(hi - lo) * m)[:, None]
        counts = np.bincount(offset.ravel(), minlength=(hi - lo) * m)
        p = counts.reshape(hi - lo, m) / k
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(p > 0, np.log(np.clip(p, 1e-300, None)), 0.0)
        out[lo:hi] = -(p * logp).sum(axis=1)
    return out


def _stacked_cholesky_oracle(sigma: np.ndarray, scale: float) -> np.ndarray:
    """Batched lower Cholesky with escalating jitter shared across the stack."""
    jitter = 0.0
    eye = np.eye(sigma.shape[-1])
    while True:
        try:
            return np.linalg.cholesky(sigma + jitter * eye)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * scale if jitter == 0.0 else jitter * 10.0
            if jitter > 1e-4 * scale:
                # final attempt with the cap; matches the fit-time policy ceiling
                return np.linalg.cholesky(sigma + 1e-4 * scale * eye)


def _query_terms(engine, model, queries):
    """Cross-covariances (P, B), observation variances and sds of queries."""
    h = model.hyperparams
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    qt = model.transform_inputs(q)
    if len(model):
        kq = gp.kernel_eval(qt, model.xt, h)
        wq = solve_triangular(model.chol, kq.T, lower=True)
        s2_lat = np.maximum(h.signal_variance - np.sum(wq**2, axis=0), 0.0)
        cross = gp.kernel_eval(engine._pt, qt, h) - engine._v.T @ wq
    else:
        s2_lat = np.full(len(q), h.signal_variance)
        cross = gp.kernel_eval(engine._pt, qt, h)
    s2_obs = np.maximum(s2_lat + h.noise_variance, 1e-12 * engine._scale)
    return cross, s2_obs, np.sqrt(s2_obs)


def joint_gains_oracle(engine: EnsembleEsEngine, queries):
    """The per-query loop of the joint engine's ``gains`` over the argmax
    kernel, for an engine with one block per branch."""
    cross, s2_obs, sd_obs = _query_terms(engine, engine.model, queries)
    b_n = len(s2_obs)
    c_n, m = engine.mu0.shape
    cross = cross.reshape(c_n, m, b_n)
    l_n = len(engine.u)
    branch_of = np.repeat(np.arange(c_n), l_n)
    out = np.empty(b_n)
    for b in range(b_n):
        cb = cross[:, :, b]
        sig_plus = engine.sigma - np.einsum("cm,cn->cmn", cb, cb) / s2_obs[b]
        l_plus = _stacked_cholesky_oracle(sig_plus, engine._scale)
        s_plus = np.einsum("cml,lk->cmk", l_plus, engine.z)
        shift = (engine.u[None, :, None] / sd_obs[b]) * cb[:, None, :]
        base = (engine.mu0[:, None, :] + shift).reshape(c_n * l_n, m)
        ent = _entropies_stacked(base, s_plus, branch_of).reshape(c_n, l_n)
        out[b] = (engine.h0 - ent.mean(axis=1)).sum()
    return out


def ensemble_gains_oracle(engine: EnsembleEsEngine, queries):
    """The per-query loop of the ensemble engine's ``gains`` over the argmax
    kernel, for an engine whose branches share one block."""
    cross, s2_obs, sd_obs = _query_terms(engine, engine.model, queries)
    b_n = len(s2_obs)
    c_n, m = engine.mu0.shape
    l_n = len(engine.u)
    out = np.empty(b_n)
    for b in range(b_n):
        cb = cross[:, b]
        sig_plus = engine.sigma[0] - np.outer(cb, cb) / s2_obs[b]
        l_plus = _stacked_cholesky_oracle(sig_plus[None], engine._scale)[0]
        s_plus = l_plus @ engine.z
        shift = (engine.u[:, None] / sd_obs[b]) * cb[None, :]  # (L, M)
        base = (engine.mu0[:, None, :] + shift[None, :, :]).reshape(c_n * l_n, m)
        ent = _entropies_shared(base, s_plus).reshape(c_n, l_n)
        out[b] = (engine.h0 - ent.mean(axis=1)).sum()
    return out


class JointEsOracle:
    """The joint engine before the merge (aces, es and, one per branch with
    shared draws, faces with an environment context), kept verbatim but for
    the representer set's shape properties, the generator it must be given
    unless given the draws, and its per-branch gains as ``branch_gains``,
    which ``gains`` sums.

    Entropy-search gains under one joint model, many representer branches.

    Draws (the candidate-draw matrix and the fantasy normals) are made once at
    construction, so :meth:`gains` is a deterministic function of the query.
    """

    def __init__(self, model: gp.GpModel, reps: Reps, cfg: LearnerConfig,
                 rng: np.random.Generator | None = None,
                 draws: tuple[np.ndarray, np.ndarray] | None = None):
        h = model.hyperparams
        c_n, m = reps.candidates.shape[:2]
        if draws is not None:
            self.z, self.u = draws
        else:
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
        l0 = gp.factor_with_jitter(np.linalg.cholesky, sigma, self._scale)[0]
        s0 = np.einsum("cml,lk->cmk", l0, self.z)
        self.h0 = acquisition._argmax_entropies(mu0[:, None, :], s0)[:, 0]

    def gains(self, queries: np.ndarray) -> np.ndarray:
        """Summed information gain for each query row."""
        return self.branch_gains(queries).sum(axis=1)

    def branch_gains(self, queries: np.ndarray) -> np.ndarray:
        """(B, C) information gain of each query row on each branch."""
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
        step = max(1, acquisition._BLOCK // (c_n * l_n * k))
        for lo in range(0, b_n, step):
            hi = min(lo + step, b_n)
            draws = np.empty((hi - lo, c_n, m, k))
            for b in range(lo, hi):
                cb = cross[:, :, b]
                sig_plus = self.sigma - np.einsum("cm,cn->cmn", cb, cb) / s2_obs[b]
                l_plus = gp.factor_with_jitter(np.linalg.cholesky, sig_plus, self._scale)[0]
                draws[b - lo] = np.einsum("cml,lk->cmk", l_plus, self.z)
            ent[lo:hi] = acquisition._argmax_entropies(
                base[lo:hi].reshape(-1, l_n, m), draws.reshape(-1, m, k)
            ).reshape(hi - lo, -1)
        return self.h0 - ent.reshape(b_n, c_n, l_n).mean(axis=2)


class EnsembleEsOracle:
    """The ensemble engine before the merge (faces without an environment
    context), kept verbatim but for the ensemble's field names, the
    generator it must be given unless given the draws, and its per-branch
    gains as ``branch_gains``, which ``gains`` sums.

    Entropy-search gains for per-branch targets over shared inputs.

    All branches share training inputs, hyperparameters, and one candidate
    matrix; only the target columns differ.  Kernel quantities are therefore
    computed once and reused, which is what makes per-episode evaluation with
    hundreds of representer contexts affordable.
    """

    def __init__(self, ensemble: "gp.GpModel", candidates: np.ndarray,
                 cfg: LearnerConfig, rng: np.random.Generator | None = None,
                 draws: tuple[np.ndarray, np.ndarray] | None = None):
        h = ensemble.hyperparams
        cand = np.atleast_2d(np.asarray(candidates, dtype=float))
        m = len(cand)
        if draws is not None:
            self.z, self.u = draws
        else:
            self.z = rng.standard_normal((m, cfg.n_function_draws))
            self.u = rng.standard_normal(cfg.n_fantasies)
        self.ensemble = ensemble
        self.cfg = cfg
        self.m = m

        pt = ensemble.transform_inputs(cand)
        self._pt = pt
        prior = gp.kernel_eval(pt, pt, h)
        if len(ensemble.xt):
            ks = gp.kernel_eval(pt, ensemble.xt, h)
            self._v = gp._solve_lower(ensemble.chol, ks.T)
            self.mu0 = (ks @ ensemble.weights).T  # (C, M)
            self.sigma = prior - self._v.T @ self._v
        else:
            self._v = None
            self.mu0 = np.zeros((ensemble.yt.shape[1], m))
            self.sigma = prior
        self._scale = h.signal_variance + h.noise_variance
        l0 = gp.factor_with_jitter(np.linalg.cholesky, self.sigma[None], self._scale)[0][0]
        s0 = l0 @ self.z
        self.h0 = acquisition._argmax_entropies(self.mu0[None], s0[None])[0]

    def gains(self, queries: np.ndarray) -> np.ndarray:
        return self.branch_gains(queries).sum(axis=1)

    def branch_gains(self, queries: np.ndarray) -> np.ndarray:
        ens = self.ensemble
        h = ens.hyperparams
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        b_n = len(q)
        c_n = ens.yt.shape[1]
        qt = ens.transform_inputs(q)
        # Per-branch fantasies y_c = mu_q_c + sd*u share the standardized shift
        # u/sd, so branch predictive means cancel just as in JointEsEngine.
        if len(ens.xt):
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
            l_plus = gp.factor_with_jitter(np.linalg.cholesky, sig_plus[None], self._scale)[0][0]
            draws[b] = l_plus @ self.z
        shift = ((self.u[None, :, None] / sd_obs[:, None, None])
                 * cross.T[:, None, :])  # (B, L, M)
        base = self.mu0[None, :, None, :] + shift[:, None]  # (B, C, L, M)
        ent = acquisition._argmax_entropies(base.reshape(b_n, c_n * l_n, self.m), draws)
        return self.h0 - ent.reshape(b_n, c_n, l_n).mean(axis=2)


def info_gain(model: gp.GpModel, query, rep_context, candidates, cfg: LearnerConfig,
              rng: np.random.Generator) -> float:
    """Expected entropy reduction of the argmax belief at one context.

    ``query`` is a point in the model's input space; ``rep_context`` plus each
    candidate row forms the evaluation set the belief lives on.
    """
    rep_context = np.atleast_1d(np.asarray(rep_context, dtype=float))
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    engine = EnsembleEsEngine(model, _prefixed(rep_context, candidates[None]),
                              cfg.n_function_draws, cfg.n_fantasies, rng)
    return float(engine.gains(np.asarray(query, dtype=float)[None, :])[0])


def aces_objective(model: gp.GpModel, query, reps: Reps, cfg: LearnerConfig,
                   seed: int) -> float:
    """Total information gain across representer contexts under a joint model."""
    engine = EnsembleEsEngine(model, _prefixed(reps.contexts, reps.candidates),
                              cfg.n_function_draws, cfg.n_fantasies,
                              np.random.default_rng(seed))
    return float(engine.gains(np.asarray(query, dtype=float)[None, :])[0])


def faces_objective(models, query, reps: Reps, cfg: LearnerConfig, seed: int) -> float:
    """Total information gain with one specialized model per representer.

    ``models`` has one fitted model per representer context, each over the
    (environment-context, parameter) input space, and the representer
    contexts are their environment contexts.  The query lives in that same
    space.  Draws are shared across representers.
    """
    models = list(models)
    if len(models) != len(reps.contexts):
        raise ContractError("need exactly one model per representer context")
    rng = np.random.default_rng(seed)
    m = reps.candidates.shape[1]
    z = rng.standard_normal((m, cfg.n_function_draws))
    u = rng.standard_normal(cfg.n_fantasies)
    total = 0.0
    q = np.asarray(query, dtype=float)[None, :]
    for c, model in enumerate(models):
        single = Reps(reps.contexts[c][None, :], reps.candidates[c][None, :, :])
        engine = JointEsOracle(model, single, cfg, draws=(z, u))
        total += float(engine.gains(q)[0])
    return total


def small_model(rng=None, n=6, noise=1e-3):
    rng = rng or np.random.default_rng(0)
    x = np.linspace(0.05, 0.95, n)[:, None]
    y = np.sin(3 * x[:, 0]) + 0.05 * rng.standard_normal(n)
    h = gp.KernelHyperparams(1.0, np.array([0.15]), noise)
    return gp.fit(x, y, h, input_space=unit_box(h.dim))


# ---------------------------------------------------------------------------
# config and simple functions
# ---------------------------------------------------------------------------


def test_acq_config_validation():
    """The learner's acquisition settings refuse out-of-range values."""
    LearnerConfig()  # defaults are legal
    with pytest.raises(ContractError):
        LearnerConfig(kappa=-0.1)
    with pytest.raises(ContractError):
        LearnerConfig(n_candidates=1)
    with pytest.raises(ContractError):
        LearnerConfig(n_function_draws=99)
    with pytest.raises(ContractError):
        LearnerConfig(n_fantasies=0)


# ---------------------------------------------------------------------------
# information gain
# ---------------------------------------------------------------------------


def two_candidate_oracle(model, cand, query, noise):
    """Closed-form gain for M=2 via bivariate algebra and quadrature."""
    pts = np.vstack([cand, query[None, :]])
    mean, cov = posterior_joint(model, pts)
    mu_a, mu_b, _ = mean
    s_aa, s_bb, s_ab = cov[0, 0], cov[1, 1], cov[0, 1]
    s_aq, s_bq = cov[0, 2], cov[1, 2]
    s2_obs = cov[2, 2] + noise

    def h2(p):
        p = np.clip(p, 1e-12, 1 - 1e-12)
        return -(p * np.log(p) + (1 - p) * np.log(1 - p))

    def p_a_greater(d_mu, var):
        return norm.cdf(d_mu / np.sqrt(max(var, 1e-300)))

    var0 = s_aa + s_bb - 2 * s_ab
    h0 = h2(p_a_greater(mu_a - mu_b, var0))
    # posterior after observing y at the query
    var_plus = (s_aa - s_aq**2 / s2_obs) + (s_bb - s_bq**2 / s2_obs) \
        - 2 * (s_ab - s_aq * s_bq / s2_obs)
    nodes, weights = np.polynomial.hermite.hermgauss(120)
    total = 0.0
    for t, w in zip(nodes, weights):
        shift = np.sqrt(2 * s2_obs) * t
        d_mu_plus = (mu_a - mu_b) + (s_aq - s_bq) * shift / s2_obs
        total += w * h2(p_a_greater(d_mu_plus, var_plus))
    return h0 - total / np.sqrt(np.pi)


def test_info_gain_matches_two_candidate_oracle():
    model = small_model(noise=0.05)
    cand = np.array([[0.3], [0.6]])
    query = np.array([0.45])
    noise = model.hyperparams.noise_variance
    exact = two_candidate_oracle(model, cand, query, noise)

    cfg = LearnerConfig(n_candidates=2, n_function_draws=3000, n_fantasies=60)
    vals = [info_gain(model, query, np.zeros(0), cand, cfg,
                      np.random.default_rng(1000 + i)) for i in range(12)]
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 3 * se + 5e-4


def test_info_gain_far_query_is_tiny():
    model = small_model()
    cand = np.linspace(0, 1, 10)[:, None]
    cfg = LearnerConfig(n_candidates=10, n_function_draws=500, n_fantasies=10)
    far = info_gain(model, np.array([50.0]), np.zeros(0), cand, cfg,
                    np.random.default_rng(2))
    assert abs(far) <= 0.02 * np.log(10)


def test_info_gain_uncertain_candidate_beats_far_query():
    model = small_model()
    cand = np.linspace(0, 1, 10)[:, None]
    cfg = LearnerConfig(n_candidates=10, n_function_draws=2000, n_fantasies=20)
    _, var = gp.predict_batch(model, cand)
    best = cand[np.argmax(var)]
    near = info_gain(model, best, np.zeros(0), cand, cfg, np.random.default_rng(4))
    far = info_gain(model, np.array([50.0]), np.zeros(0), cand, cfg,
                    np.random.default_rng(4))
    assert near >= 5 * abs(far)
    assert near > 0


def test_info_gain_requery_known_point_is_zero():
    # nearly deterministic model queried at one of its own training points
    h = gp.KernelHyperparams(1.0, np.array([0.3]), 1e-9)
    x = np.linspace(0, 1, 5)[:, None]
    y = np.cos(2 * x[:, 0])
    model = gp.fit(x, y, h, input_space=unit_box(h.dim))
    cand = np.linspace(0, 1, 6)[:, None]
    cfg = LearnerConfig(n_candidates=6, n_function_draws=800, n_fantasies=10)
    g = info_gain(model, x[2], np.zeros(0), cand, cfg, np.random.default_rng(6))
    assert abs(g) <= 5e-3


# ---------------------------------------------------------------------------
# summed objectives
# ---------------------------------------------------------------------------


def joint_model_2d(rng):
    x = rng.uniform(0, 1, size=(12, 2))  # columns: context, parameter
    y = np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1])
    h = gp.KernelHyperparams(1.0, np.array([0.4, 0.4]), 1e-3)
    return gp.fit(x, y, h, input_space=unit_box(h.dim))


def test_aces_duplicated_representer_counts_twice():
    rng = np.random.default_rng(8)
    model = joint_model_2d(rng)
    cand = np.linspace(0, 1, 5)[:, None]
    single = Reps(np.array([[0.4]]), cand[None, :, :])
    double = Reps(np.array([[0.4], [0.4]]), np.broadcast_to(cand, (2, 5, 1)))
    cfg = LearnerConfig(n_candidates=5, n_function_draws=400, n_fantasies=5)
    q = np.array([0.4, 0.7])
    one = aces_objective(model, q, single, cfg, seed=9)
    two = aces_objective(model, q, double, cfg, seed=9)
    assert two == pytest.approx(2 * one, rel=1e-12, abs=1e-12)


def test_aces_objective_deterministic_across_calls():
    rng = np.random.default_rng(10)
    model = joint_model_2d(rng)
    reps = sample_reps(SearchSpace([0.0], [1.0]), SearchSpace([0.0], [1.0]),
                       4, 5, np.random.default_rng(1))
    cfg = LearnerConfig(n_candidates=5, n_function_draws=300, n_fantasies=4)
    q = np.array([0.5, 0.5])
    assert aces_objective(model, q, reps, cfg, seed=2) \
        == aces_objective(model, q, reps, cfg, seed=2)


def test_joint_engine_batch_matches_single_queries():
    rng = np.random.default_rng(13)
    model = joint_model_2d(rng)
    reps = sample_reps(SearchSpace([0.0], [1.0]), SearchSpace([0.0], [1.0]),
                       3, 6, np.random.default_rng(2))
    cfg = LearnerConfig(n_candidates=6, n_function_draws=300, n_fantasies=4)
    engine = EnsembleEsEngine(model, _prefixed(reps.contexts, reps.candidates),
                              cfg.n_function_draws, cfg.n_fantasies,
                              np.random.default_rng(3))
    queries = rng.uniform(0, 1, size=(5, 2))
    batch = engine.gains(queries)
    singles = np.array([engine.gains(q[None, :])[0] for q in queries])
    assert np.array_equal(batch, singles)


def test_faces_objective_matches_ensemble_engine():
    rng = np.random.default_rng(14)
    n, c_n = 14, 5
    theta = rng.uniform(0, 1, size=(n, 1))
    targets = np.column_stack([np.sin(3 * theta[:, 0] + 0.3 * c) for c in range(c_n)])
    h = gp.KernelHyperparams(1.0, np.array([0.3]), 1e-3)
    ens = gp.fit_shared_inputs(theta, targets, h, input_space=SearchSpace([0.0], [1.0]))
    models = [ensemble_branch_model(ens, c) for c in range(c_n)]

    cand = np.linspace(0.05, 0.95, 6)[:, None]
    reps = Reps(np.zeros((c_n, 0)), np.broadcast_to(cand, (c_n, 6, 1)))
    cfg = LearnerConfig(n_candidates=6, n_function_draws=400, n_fantasies=5)
    q = np.array([0.52])

    via_list = faces_objective(models, q, reps, cfg, seed=21)
    engine = EnsembleEsEngine(ens, cand[None], cfg.n_function_draws,
                              cfg.n_fantasies, np.random.default_rng(21))
    via_engine = float(engine.gains(q[None, :])[0])
    assert via_list == pytest.approx(via_engine, rel=1e-8, abs=1e-10)


def test_faces_objective_needs_one_model_per_context():
    h = gp.KernelHyperparams(1.0, np.array([0.3]), 1e-3)
    m = gp.fit(np.array([[0.5]]), np.array([0.0]), h, input_space=unit_box(h.dim))
    cand = np.array([[0.1], [0.9]])
    reps = Reps(np.zeros((2, 0)), np.broadcast_to(cand, (2, 2, 1)))
    cfg = LearnerConfig(n_candidates=2, n_function_draws=100, n_fantasies=1)
    with pytest.raises(ContractError):
        faces_objective([m], np.array([0.5]), reps, cfg, seed=0)


def test_empty_model_engine_runs():
    h = gp.KernelHyperparams(1.0, np.array([0.5, 0.5]), 1e-4)
    model = gp.fit(np.zeros((0, 2)), np.zeros(0), h, input_space=unit_box(h.dim))
    reps = sample_reps(SearchSpace([0.0], [1.0]), SearchSpace([0.0], [1.0]),
                       3, 4, np.random.default_rng(0))
    cfg = LearnerConfig(n_candidates=4, n_function_draws=200, n_fantasies=3)
    engine = EnsembleEsEngine(model, _prefixed(reps.contexts, reps.candidates),
                              cfg.n_function_draws, cfg.n_fantasies,
                              np.random.default_rng(0))
    g = engine.gains(np.array([[0.5, 0.5]]))
    assert np.all(np.isfinite(g))


def test_conditional_update_matches_literal_fantasy():
    # the engine's rank-1 covariance downdate must agree with actually
    # appending the fantasy observation and recomputing the posterior
    rng = np.random.default_rng(17)
    model = joint_model_2d(rng)
    pts = rng.uniform(0, 1, size=(4, 2))
    query = rng.uniform(0, 1, size=2)

    mean0, cov0 = posterior_joint(model, np.vstack([pts, query[None, :]]))
    cross = cov0[:4, 4]
    # the noise variance is in the standardized units the kernel sees
    s2_obs = cov0[4, 4] + model.y_scale**2 * model.hyperparams.noise_variance
    shortcut = cov0[:4, :4] - np.outer(cross, cross) / s2_obs

    y_fantasy = mean0[4] + 0.37 * np.sqrt(s2_obs)
    fant = gp.fantasize(model, query, y_fantasy)
    mean1, cov1 = posterior_joint(fant, pts)

    assert np.allclose(cov1, shortcut, atol=1e-8)
    expected_mean = mean0[:4] + cross * (y_fantasy - mean0[4]) / s2_obs
    assert np.allclose(mean1, expected_mean, atol=1e-8)


# ---------------------------------------------------------------------------
# the entropy kernel against its np.argmax oracle
# ---------------------------------------------------------------------------


def _oracle_entropies(base, draws):
    g_n, l_n, m = base.shape
    flat = base.reshape(g_n * l_n, m)
    return _entropies_stacked(flat, draws, np.repeat(np.arange(g_n), l_n)).reshape(g_n, l_n)


@settings(max_examples=60)
@given(g_n=st.integers(1, 4), l_n=st.integers(1, 5), m=st.integers(2, 300),
       k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       coarse=st.booleans(), block=st.sampled_from([1, 37, 4096, None]))
def test_kernel_matches_argmax_oracle(g_n, l_n, m, k, seed, coarse, block):
    # m crosses the 8-bit index boundary; coarse integer values and
    # duplicated candidate columns make exact ties, which must go to the
    # lowest index; block=1 forces single-row blocks
    rng = np.random.default_rng(seed)
    if coarse:
        base = rng.integers(-2, 3, size=(g_n, l_n, m)).astype(float)
        draws = rng.integers(-2, 3, size=(g_n, m, k)).astype(float)
    else:
        base = rng.standard_normal((g_n, l_n, m))
        draws = rng.standard_normal((g_n, m, k))
    dup = rng.integers(0, m, size=(m // 3, 2))
    base[:, :, dup[:, 1]] = base[:, :, dup[:, 0]]
    draws[:, dup[:, 1]] = draws[:, dup[:, 0]]
    expected = _oracle_entropies(base, draws)
    with mock.patch.object(acquisition, "_BLOCK", block or acquisition._BLOCK):
        got = acquisition._argmax_entropies(base, draws)
    assert got.shape == (g_n, l_n)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


# (2, 31, 20, 2000): a dense group of more than _BLOCK entries
@pytest.mark.parametrize("shape", [(1, 600, 20, 150), (200, 3, 20, 150),
                                   (1, 1, 300, 200), (3, 3, 20, 150),
                                   (2, 31, 20, 2000)])
def test_kernel_matches_oracle_at_engine_sizes(shape):
    g_n, l_n, m, k = shape
    rng = np.random.default_rng(sum(shape))
    base = rng.standard_normal((g_n, l_n, m))
    draws = rng.standard_normal((g_n, m, k))
    assert np.array_equal(acquisition._argmax_entropies(base, draws).view(np.uint64),
                          _oracle_entropies(base, draws).view(np.uint64))


def _survivors(base, draws):
    """Per-row count of candidates some draw could make the row's maximum."""
    floor = (base + draws.min(axis=2)[:, None]).max(axis=2, keepdims=True)
    return np.count_nonzero(base + draws.max(axis=2)[:, None] >= floor, axis=2)


@settings(max_examples=60)
@given(g_n=st.integers(1, 3), l_n=st.integers(32, 90), m=st.integers(3, 40),
       k=st.integers(3, 60), seed=st.integers(0, 2**32 - 1),
       coarse=st.booleans(), spread=st.sampled_from([2, 10, 100]),
       block=st.sampled_from([1, 37, 4096, None]))
def test_kernel_prunes_dominated_candidates_exactly(g_n, l_n, m, k, seed, coarse,
                                                    spread, block):
    # means spread wider than the draws leave few survivors per row; the
    # draws lie in [-2, 2], and draws 0 and 1 put every candidate at both ends
    rng = np.random.default_rng(seed)
    if coarse:
        base = rng.integers(-spread, spread + 1, size=(g_n, l_n, m)).astype(float)
        draws = rng.integers(-2, 3, size=(g_n, m, k)).astype(float)
    else:
        base = spread * rng.standard_normal((g_n, l_n, m))
        draws = np.clip(rng.standard_normal((g_n, m, k)), -2.0, 2.0)
    draws[:, :, 0], draws[:, :, 1] = 2.0, -2.0
    # row 0: one survivor; row 1: equal means, so every candidate survives
    base[:, 0] = -1e3
    base[:, 0, m // 2] = 0.0
    base[:, 1] = 0.0
    # row 2: candidate 0 reaches the bound exactly (0 + 2 == 4 - 2) and ties
    # candidate 1 in draw 2, which it must win as the lower index
    base[:, 2] = -1e3
    base[:, 2, :2] = 0.0, 4.0
    draws[:, :2, 2] = 2.0, -2.0
    survivors = _survivors(base, draws)
    assert (survivors[:, :3] == [1, m, 2]).all()
    expected = _oracle_entropies(base, draws)
    with mock.patch.object(acquisition, "_BLOCK", block or acquisition._BLOCK):
        got = acquisition._argmax_entropies(base, draws)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("block", [1, 37, None])
@pytest.mark.parametrize("shape", [(1, 200, 20, 150), (3, 40, 7, 60)])
def test_kernel_with_every_row_decided(shape, block):
    # one candidate per row leads the rest by more than the draws' spread, as
    # at engine construction once the posterior means settle
    g_n, l_n, m, k = shape
    rng = np.random.default_rng(sum(shape))
    base = 10.0 * rng.standard_normal((g_n, l_n, m))
    lead = rng.integers(0, m, size=(g_n, l_n, 1))
    np.put_along_axis(base, lead, 100.0, axis=2)
    draws = rng.uniform(-1.0, 1.0, size=(g_n, m, k))
    assert (_survivors(base, draws) == 1).all()
    expected = _oracle_entropies(base, draws)
    with mock.patch.object(acquisition, "_BLOCK", block or acquisition._BLOCK):
        got = acquisition._argmax_entropies(base, draws)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), np.full((g_n, l_n), -0.0).view(np.uint64))


def test_faces_size_engine_prunes_and_matches_oracle_loop():
    # the active-cannon shape: 200 representer targets over 3-d inputs, 20
    # Latin-hypercube candidates, 150 draws and 3 fantasies per query
    rng = np.random.default_rng(17)
    inputs = rng.uniform(0, 1, size=(12, 3))
    phase = rng.uniform(0, 2 * np.pi, size=200)
    targets = np.sin(3 * inputs[:, :1] + phase) + inputs[:, 1:2] * np.cos(phase)
    h = gp.KernelHyperparams(1.0, np.array([0.4, 0.5, 0.6]), 1e-3)
    unit = SearchSpace([0.0] * 3, [1.0] * 3)
    ens = gp.fit_shared_inputs(inputs, targets, h, input_space=unit)
    cand = unit.sample_latin(20, rng)
    cfg = LearnerConfig(n_candidates=20, n_function_draws=150, n_fantasies=3)
    engine = EnsembleEsEngine(ens, cand[None], cfg.n_function_draws,
                              cfg.n_fantasies, np.random.default_rng(5))
    counts = []
    kernel = acquisition._argmax_entropies

    def spy(base, draws):
        counts.append(_survivors(base, draws).ravel())
        return kernel(base, draws)

    queries = rng.uniform(0, 1, size=(6, 3))
    with mock.patch.object(acquisition, "_argmax_entropies", spy):
        got = engine.gains(queries)
        expected = ensemble_gains_oracle(engine, queries)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    counts = np.concatenate(counts)
    assert (counts == 1).any() and (counts > 2).any()
    assert 2 * counts.sum() < counts.size * 20  # the pruned path ran


@pytest.mark.parametrize("where", ["base", "draws"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_rejects_non_finite_blocks(where, bad):
    rng = np.random.default_rng(3)
    base = rng.standard_normal((2, 3, 40))
    draws = rng.standard_normal((2, 40, 150))
    (base if where == "base" else draws)[1, 2, 5] = bad
    with pytest.raises(NumericalError) as exc:
        acquisition._argmax_entropies(base, draws)
    assert exc.value.jitters == []  # no factorization was tried


# ---------------------------------------------------------------------------
# engines against the per-query oracle loops
# ---------------------------------------------------------------------------


def shared_input_ensemble(rng, n=14, c_n=5):
    theta = rng.uniform(0, 1, size=(n, 1))
    targets = np.column_stack([np.sin(3 * theta[:, 0] + 0.3 * c) for c in range(c_n)])
    h = gp.KernelHyperparams(1.0, np.array([0.3]), 1e-3)
    return gp.fit_shared_inputs(theta, targets, h, input_space=SearchSpace([0.0], [1.0]))


@pytest.mark.parametrize("c_n", [1, 5, 200])
def test_ensemble_engine_matches_oracle_loop(c_n):
    rng = np.random.default_rng(c_n)
    ens = shared_input_ensemble(rng, c_n=c_n)
    cand = np.linspace(0.05, 0.95, 20)[:, None]
    cfg = LearnerConfig(n_candidates=20, n_function_draws=150, n_fantasies=3)
    engine = EnsembleEsEngine(ens, cand[None], cfg.n_function_draws,
                              cfg.n_fantasies, np.random.default_rng(7))
    s0 = _stacked_cholesky_oracle(engine.sigma, engine._scale)[0] @ engine.z
    assert np.array_equal(engine.h0, _entropies_shared(engine.mu0, s0))
    for b_n in (1, 3, 14):
        queries = rng.uniform(0, 1, size=(b_n, 1))
        assert np.array_equal(engine.gains(queries),
                              ensemble_gains_oracle(engine, queries))


@pytest.mark.parametrize("c_n", [1, 4, 20, 200])
def test_joint_engine_matches_oracle_loop(c_n):
    rng = np.random.default_rng(30 + c_n)
    model = joint_model_2d(rng)
    reps = sample_reps(SearchSpace([0.0], [1.0]), SearchSpace([0.0], [1.0]),
                       c_n, 20, np.random.default_rng(c_n))
    cfg = LearnerConfig(n_candidates=20, n_function_draws=150, n_fantasies=3)
    engine = EnsembleEsEngine(model, _prefixed(reps.contexts, reps.candidates),
                              cfg.n_function_draws, cfg.n_fantasies,
                              np.random.default_rng(5))
    s0 = np.einsum("cml,lk->cmk",
                   _stacked_cholesky_oracle(engine.sigma, engine._scale), engine.z)
    assert np.array_equal(engine.h0, _entropies_stacked(engine.mu0, s0, np.arange(c_n)))
    for b_n in (1, 3, 14):
        queries = rng.uniform(0, 1, size=(b_n, 2))
        assert np.array_equal(engine.gains(queries),
                              joint_gains_oracle(engine, queries))


def test_engine_with_non_finite_mean_raises():
    rng = np.random.default_rng(2)
    engine = EnsembleEsEngine(shared_input_ensemble(rng), np.linspace(0, 1, 6)[None, :, None],
                              100, 3, rng)
    engine.mu0[1, 2] = np.nan
    with pytest.raises(NumericalError):
        engine.gains(np.array([[0.5]]))


@pytest.mark.parametrize("where", ["candidate", "query"])
def test_engine_with_a_non_finite_row_raises(where):
    # the model's factor solves run unchecked; a NaN row reaches the
    # entropy kernel's check (or the stacked Cholesky's) as NumericalError
    rng = np.random.default_rng(4)
    cand = np.linspace(0, 1, 6)[None, :, None]
    query = np.array([[0.5]])
    (cand[0, 2] if where == "candidate" else query[0])[0] = np.nan
    with pytest.raises(NumericalError):
        EnsembleEsEngine(shared_input_ensemble(rng), cand, 100, 3, rng).gains(query)


# ---------------------------------------------------------------------------
# the one engine against the engines it replaced
# ---------------------------------------------------------------------------


class FacesLoopOracle:
    """faces' path with an environment context before the merge: one joint
    engine per branch, all on the same draws, their gains summed.

    The loop summed the branches left to right; the engine sums them with
    numpy's pairwise sum, which only agrees below eight branches, so this
    oracle sums as the engine does.  The order on a run is pinned in
    ``tests/test_learner_pins.py``.
    """

    def __init__(self, ens, env, cand, cfg, rng):
        z = rng.standard_normal((len(cand), cfg.n_function_draws))
        u = rng.standard_normal(cfg.n_fantasies)
        self.engines = [
            JointEsOracle(ensemble_branch_model(ens, c),
                          Reps(env[c][None, :], cand[None, :, :]), cfg,
                          draws=(z, u))
            for c in range(len(env))]
        self.h0 = np.concatenate([e.h0 for e in self.engines])

    def gains(self, queries):
        return self.branch_gains(queries).sum(axis=1)

    def branch_gains(self, queries):
        return np.column_stack([e.gains(queries) for e in self.engines])


MERGE_CFG = LearnerConfig(n_candidates=20, n_function_draws=150, n_fantasies=3)
MERGE_SEED = 6


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _fitted_data(rng, d, n_targets, empty):
    """Inputs in the unit box and ``n_targets`` smooth target columns."""
    n = 0 if empty else 18
    x = rng.uniform(0, 1, size=(n, d))
    phase = rng.uniform(0, 2 * np.pi, size=n_targets)
    y = np.sin(3 * x[:, :1] + phase) * np.cos(2 * x[:, 1:].sum(axis=1, keepdims=True))
    h = gp.KernelHyperparams(1.3, rng.uniform(0.3, 0.6, size=d), 1e-3)
    return x, y, h, SearchSpace(np.zeros(d), np.ones(d))


def replaced_engines(kind, c_n, empty, rng):
    """The engine and the engine or loop it replaced, on the same draws, for
    one acquisition path, with the queries' fixed prefix and free width."""
    cfg, m, seed = MERGE_CFG, MERGE_CFG.n_candidates, MERGE_SEED
    if kind in ("joint", "prefixed"):
        ctx_dim = 1 if kind == "joint" else 2
        x, y, h, space = _fitted_data(rng, ctx_dim + 1, 1, empty)
        model = gp.fit(x, y[:, 0], h, input_space=space)
        if kind == "joint":  # aces: one block per representer context
            reps = sample_reps(SearchSpace([0.0], [1.0]), SearchSpace([0.0], [1.0]),
                               c_n, m, rng)
            prefix = np.zeros(0)
        else:  # es: the query prefix before the candidates
            prefix = rng.uniform(0, 1, size=2)
            cand = SearchSpace([0.0], [1.0]).sample_latin(m, rng)
            reps = Reps(prefix[None, :], cand[None, :, :])
        engine = EnsembleEsEngine(model, _prefixed(reps.contexts, reps.candidates),
                                  cfg.n_function_draws, cfg.n_fantasies,
                                  np.random.default_rng(seed))
        old = JointEsOracle(model, reps, cfg, rng=np.random.default_rng(seed))
        return engine, old, prefix, ctx_dim + 1 - len(prefix)
    env_dim = 0 if kind == "shared" else int(kind[3:])
    x, y, h, space = _fitted_data(rng, env_dim + 2, c_n, empty)
    ens = gp.fit_shared_inputs(x, y, h, input_space=space)
    cand = SearchSpace([0.0, 0.0], [1.0, 1.0]).sample_latin(m, rng)
    if kind == "shared":  # faces, no env context: every branch on one block
        engine = EnsembleEsEngine(ens, cand[None], cfg.n_function_draws,
                                  cfg.n_fantasies, np.random.default_rng(seed))
        old = EnsembleEsOracle(ens, cand, cfg, rng=np.random.default_rng(seed))
    else:  # faces: one env-context block per branch
        env = rng.uniform(0, 1, size=(c_n, env_dim))
        engine = EnsembleEsEngine(ens, _prefixed(env, np.broadcast_to(cand, (c_n, m, 2))),
                                  cfg.n_function_draws, cfg.n_fantasies,
                                  np.random.default_rng(seed))
        old = FacesLoopOracle(ens, env, cand, cfg, np.random.default_rng(seed))
    return engine, old, np.zeros(0), env_dim + 2


@pytest.mark.parametrize("empty", [False, True], ids=["fitted", "empty"])
@pytest.mark.parametrize("kind,c_n", [
    ("joint", 1), ("joint", 4), ("joint", 20), ("joint", 200), ("prefixed", 1),
    ("shared", 1), ("shared", 5), ("shared", 200), ("env1", 12), ("env3", 12)])
def test_engine_matches_the_engines_it_replaced(kind, c_n, empty):
    rng = np.random.default_rng([c_n, len(kind), empty])
    engine, old, prefix, width = replaced_engines(kind, c_n, empty, rng)
    assert engine.mu0.shape == (c_n, MERGE_CFG.n_candidates)
    assert _bits(engine.h0) == _bits(old.h0)
    if kind == "shared":
        assert _bits(engine.mu0) == _bits(old.mu0)
        assert _bits(engine.sigma[0]) == _bits(old.sigma)
    for b_n in (1, 3, 14):
        q = _prefixed(prefix, rng.uniform(0, 1, size=(b_n, width)))
        assert _bits(engine.gains(q)) == _bits(old.gains(q))


def test_engine_rejects_unpaired_blocks_and_columns():
    rng = np.random.default_rng(3)
    ens = shared_input_ensemble(rng, c_n=3)
    with pytest.raises(ContractError):
        EnsembleEsEngine(ens, rng.uniform(0, 1, size=(2, 4, 1)),
                         MERGE_CFG.n_function_draws, MERGE_CFG.n_fantasies, rng)


# ---------------------------------------------------------------------------
# stacked Cholesky
# ---------------------------------------------------------------------------


def test_stacked_cholesky_non_psd_member_raises_with_jitters():
    good = np.array([[2.0, 0.5], [0.5, 1.0]])
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    scale = 1.5
    with pytest.raises(NumericalError) as exc:
        gp.factor_with_jitter(np.linalg.cholesky, np.stack([good, indefinite]), scale)
    jitters = exc.value.jitters
    assert jitters[0] == 0.0
    assert jitters[1] == 1e-10 * scale
    assert jitters[-1] == 1e-4 * scale
    assert all(a < b for a, b in zip(jitters, jitters[1:]))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 7.3])
def test_stacked_cholesky_factors_match_old_policy(scale):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4))
    spd = a @ a.T + np.eye(4)
    rank_one = np.outer(a[0], a[0])  # PSD but singular: needs jitter
    near_cap = rank_one - 5e-5 * scale * np.eye(4)  # succeeds only at the cap
    for stack in (spd[None], np.stack([spd, rank_one]), near_cap[None]):
        assert np.array_equal(gp.factor_with_jitter(np.linalg.cholesky, stack, scale)[0],
                              _stacked_cholesky_oracle(stack, scale))


# ---------------------------------------------------------------------------
# one jitter ladder for the model fit and the engine
# ---------------------------------------------------------------------------


def _singular_pair(sf2):
    """Hyperparameters whose noise vanishes beside ``sf2``, so that a fit of
    three repeated rows and an empty model's prior covariance over them are
    both ``sf2 * ones``: singular.  Returns them, the rows and the empty
    model."""
    h = gp.KernelHyperparams(sf2, np.array([1.0]), 1e-300)
    rows = np.full((3, 1), 0.5)
    return h, rows, gp.fit(np.zeros((0, 1)), np.zeros(0), h, input_space=unit_box(h.dim))


@pytest.mark.parametrize("sf2", [1.0, 2.5, 0.3])
def test_a_fit_and_an_engine_stack_take_the_same_jitter(monkeypatch, sf2):
    h, rows, empty = _singular_pair(sf2)
    ladder, took = gp.factor_with_jitter, []

    def recorded(factor, a, scale):
        L, jitter = ladder(factor, a, scale)
        took.append((factor, scale, jitter))
        return L, jitter

    monkeypatch.setattr(gp, "factor_with_jitter", recorded)
    model = gp.fit(rows, np.zeros(3), h, input_space=unit_box(h.dim))
    EnsembleEsEngine(empty, rows[None], 8, 2, np.random.default_rng(0))
    assert took == [(gp._cholesky, sf2, 1e-10 * sf2),
                    (np.linalg.cholesky, sf2, 1e-10 * sf2)]
    assert model.jitter == 1e-10 * sf2


@pytest.mark.parametrize("sf2", [1.0, 2.5, 0.3])
def test_a_fit_and_an_engine_stack_that_never_factor_report_the_same_jitters(
        monkeypatch, sf2):
    h, rows, empty = _singular_pair(sf2)

    def never(a):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(gp, "_cholesky", never)
    monkeypatch.setattr(np.linalg, "cholesky", never)
    with pytest.raises(NumericalError) as fit_err:
        gp.fit(rows, np.zeros(3), h, input_space=unit_box(h.dim))
    with pytest.raises(NumericalError) as engine_err:
        EnsembleEsEngine(empty, rows[None], 8, 2, np.random.default_rng(0))
    jitters = fit_err.value.jitters
    assert jitters == engine_err.value.jitters
    assert jitters[0] == 0.0 and jitters[-1] == 1e-4 * sf2
    assert str(fit_err.value) == str(engine_err.value)
