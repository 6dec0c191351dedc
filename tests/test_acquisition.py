"""Acquisition tests.

The two-candidate information-gain oracle is computed from bivariate-normal
algebra plus Gauss-Hermite quadrature, independently of the Monte-Carlo
engine under test.  The ``np.argmax`` entropy kernels, the per-query gain
loops and the objective wrappers the engines replaced are kept here as
oracles: the engines must reproduce them bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import norm

from fcps import acquisition, gp
from fcps.acquisition import (
    AcqConfig,
    EnsembleEsEngine,
    JointEsEngine,
    RepresenterSet,
    entropy,
    gp_ucb,
    pmin_estimate,
)
from fcps.errors import ContractError, NumericalError
from fcps.optim import SearchSpace

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
    if engine._v is not None:
        kq = gp.kernel_eval(qt, model.xt, h)
        wq = solve_triangular(model.chol, kq.T, lower=True)
        s2_lat = np.maximum(h.signal_variance - np.sum(wq**2, axis=0), 0.0)
        cross = gp.kernel_eval(engine._pt, qt, h) - engine._v.T @ wq
    else:
        s2_lat = np.full(len(q), h.signal_variance)
        cross = gp.kernel_eval(engine._pt, qt, h)
    s2_obs = np.maximum(s2_lat + h.noise_variance, 1e-12 * engine._scale)
    return cross, s2_obs, np.sqrt(s2_obs)


def joint_gains_oracle(engine: JointEsEngine, queries, per_branch=False):
    """The per-query loop of ``JointEsEngine.gains`` over the argmax kernel."""
    cross, s2_obs, sd_obs = _query_terms(engine, engine.model, queries)
    b_n = len(s2_obs)
    cross = cross.reshape(engine.c_n, engine.m, b_n)
    l_n = engine.cfg.n_fantasies
    branch_of = np.repeat(np.arange(engine.c_n), l_n)
    out = np.empty((b_n, engine.c_n)) if per_branch else np.empty(b_n)
    for b in range(b_n):
        cb = cross[:, :, b]
        sig_plus = engine.sigma - np.einsum("cm,cn->cmn", cb, cb) / s2_obs[b]
        l_plus = _stacked_cholesky_oracle(sig_plus, engine._scale)
        s_plus = np.einsum("cml,lk->cmk", l_plus, engine.z)
        shift = (engine.u[None, :, None] / sd_obs[b]) * cb[:, None, :]
        base = (engine.mu0[:, None, :] + shift).reshape(engine.c_n * l_n, engine.m)
        ent = _entropies_stacked(base, s_plus, branch_of).reshape(engine.c_n, l_n)
        branch_gains = engine.h0 - ent.mean(axis=1)
        if per_branch:
            out[b] = branch_gains
        else:
            out[b] = branch_gains.sum()
    return out


def ensemble_gains_oracle(engine: EnsembleEsEngine, queries, per_branch=False):
    """The per-query loop of ``EnsembleEsEngine.gains`` over the argmax kernel."""
    ens = engine.ensemble
    cross, s2_obs, sd_obs = _query_terms(engine, ens, queries)
    b_n, c_n = len(s2_obs), ens.n_branches
    l_n = engine.cfg.n_fantasies
    out = np.empty((b_n, c_n)) if per_branch else np.empty(b_n)
    for b in range(b_n):
        cb = cross[:, b]
        sig_plus = engine.sigma - np.outer(cb, cb) / s2_obs[b]
        l_plus = _stacked_cholesky_oracle(sig_plus[None], engine._scale)[0]
        s_plus = l_plus @ engine.z
        shift = (engine.u[:, None] / sd_obs[b]) * cb[None, :]  # (L, M)
        base = (engine.mu0[:, None, :] + shift[None, :, :]).reshape(c_n * l_n, engine.m)
        ent = _entropies_shared(base, s_plus).reshape(c_n, l_n)
        branch_gains = engine.h0 - ent.mean(axis=1)
        if per_branch:
            out[b] = branch_gains
        else:
            out[b] = branch_gains.sum()
    return out


def info_gain(model: gp.GpModel, query, rep_context, candidates, cfg: AcqConfig,
              rng: np.random.Generator) -> float:
    """Expected entropy reduction of the argmax belief at one context.

    ``query`` is a point in the model's input space; ``rep_context`` plus each
    candidate row forms the evaluation set the belief lives on.
    """
    rep_context = np.atleast_1d(np.asarray(rep_context, dtype=float))
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    reps = RepresenterSet(rep_context[None, :], candidates[None, :, :],
                          env_dim=0)
    engine = JointEsEngine(model, reps, cfg, rng=rng)
    return float(engine.gains(np.asarray(query, dtype=float)[None, :])[0])


def aces_objective(model: gp.GpModel, query, reps: RepresenterSet,
                   cfg: AcqConfig) -> float:
    """Total information gain across representer contexts under a joint model."""
    engine = JointEsEngine(model, reps, cfg)
    return float(engine.gains(np.asarray(query, dtype=float)[None, :])[0])


def faces_objective(models, query, reps: RepresenterSet, cfg: AcqConfig) -> float:
    """Total information gain with one specialized model per representer.

    ``models`` has one fitted model per representer context, each over the
    (environment-context, parameter) input space.  The query lives in that
    same space.  Draws are shared across representers.
    """
    models = list(models)
    if len(models) != reps.n_contexts:
        raise ContractError("need exactly one model per representer context")
    rng = np.random.default_rng(cfg.rng_seed)
    m = reps.n_candidates
    z = rng.standard_normal((m, cfg.n_function_draws))
    u = rng.standard_normal(cfg.n_fantasies)
    env = reps.env_contexts
    total = 0.0
    q = np.asarray(query, dtype=float)[None, :]
    for c, model in enumerate(models):
        single = RepresenterSet(env[c][None, :], reps.candidates[c][None, :, :],
                                env_dim=env.shape[1])
        engine = JointEsEngine(model, single, cfg, draws=(z, u))
        total += float(engine.gains(q)[0])
    return total


def small_model(rng=None, n=6, noise=1e-3):
    rng = rng or np.random.default_rng(0)
    x = np.linspace(0.05, 0.95, n)[:, None]
    y = np.sin(3 * x[:, 0]) + 0.05 * rng.standard_normal(n)
    h = gp.KernelHyperparams(1.0, np.array([0.15]), noise)
    return gp.fit(x, y, h)


# ---------------------------------------------------------------------------
# config and simple functions
# ---------------------------------------------------------------------------


def test_acq_config_validation():
    AcqConfig()  # defaults are legal
    with pytest.raises(ContractError):
        AcqConfig(kappa=-0.1)
    with pytest.raises(ContractError):
        AcqConfig(n_candidates=1)
    with pytest.raises(ContractError):
        AcqConfig(n_function_draws=99)
    with pytest.raises(ContractError):
        AcqConfig(n_fantasies=0)


def test_gp_ucb_values():
    out = gp_ucb(np.array([1.0, -2.0]), np.array([0.5, 1.0]), 2.0)
    assert np.allclose(out, [2.0, 0.0])
    assert gp_ucb(3.0, 10.0, 0.0) == 3.0
    with pytest.raises(ContractError):
        gp_ucb(0.0, -1.0, 1.0)
    with pytest.raises(ContractError):
        gp_ucb(0.0, 1.0, -1.0)


def test_entropy_range_and_edges():
    m = 7
    assert entropy(np.full(m, 1 / m)) == pytest.approx(np.log(m))
    one_hot = np.zeros(m)
    one_hot[2] = 1.0
    assert entropy(one_hot) == 0.0
    with pytest.raises(ContractError):
        entropy(np.array([0.5, 0.4]))
    with pytest.raises(ContractError):
        entropy(np.array([1.2, -0.2]))


# ---------------------------------------------------------------------------
# pmin
# ---------------------------------------------------------------------------


def test_pmin_is_distribution_and_deterministic():
    m = small_model()
    cand = np.linspace(0, 1, 8)[:, None]
    p1 = pmin_estimate(m, np.zeros(0), cand, 600, np.random.default_rng(5))
    p2 = pmin_estimate(m, np.zeros(0), cand, 600, np.random.default_rng(5))
    assert np.array_equal(p1, p2)
    assert np.all(p1 >= 0)
    assert abs(p1.sum() - 1.0) <= 1e-12


def test_pmin_symmetric_posterior_is_even():
    # two candidates with identical, exchangeable posteriors
    h = gp.KernelHyperparams(1.0, np.array([0.5]), 1e-4)
    m = gp.fit(np.array([[0.5]]), np.array([0.0]), h)
    cand = np.array([[0.2], [0.8]])
    n = 40_000
    p = pmin_estimate(m, np.zeros(0), cand, n, np.random.default_rng(7))
    se = np.sqrt(0.25 / n)
    assert abs(p[0] - 0.5) <= 4 * se


def test_pmin_prior_only_near_uniform():
    h = gp.KernelHyperparams(1.0, np.array([10.0]), 1e-6)
    m = gp.fit(np.zeros((0, 1)), np.zeros(0), h)
    cand = np.array([[0.0], [100.0], [200.0], [300.0]])
    n = 40_000
    p = pmin_estimate(m, np.zeros(0), cand, n, np.random.default_rng(11))
    assert np.all(np.abs(p - 0.25) <= 5 * np.sqrt(0.25 * 0.75 / n))


def test_pmin_exact_ties_split_uniformly():
    # deterministic posterior with two equal-mean candidates: every draw ties
    h = gp.KernelHyperparams(1.0, np.array([1.0]), 1e-10)
    m = gp.fit(np.array([[0.3], [0.7]]), np.array([2.0, 2.0]), h)
    cand = np.array([[0.3], [0.7]])
    p = pmin_estimate(m, np.zeros(0), cand, 2000, np.random.default_rng(3))
    assert abs(p[0] - 0.5) <= 0.06
    assert abs(p.sum() - 1.0) <= 1e-12


def test_pmin_with_context_prefix():
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 1, size=(10, 3))
    y = x[:, 0] + x[:, 2]
    h = gp.KernelHyperparams(1.0, np.array([0.5, 0.5, 0.5]), 1e-4)
    m = gp.fit(x, y, h)
    cand = rng.uniform(0, 1, size=(5, 2))
    p = pmin_estimate(m, np.array([0.5]), cand, 500, rng)
    assert p.shape == (5,)
    assert abs(p.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# information gain
# ---------------------------------------------------------------------------


def two_candidate_oracle(model, cand, query, noise):
    """Closed-form gain for M=2 via bivariate algebra and quadrature."""
    pts = np.vstack([cand, query[None, :]])
    mean, cov = gp.posterior_joint(model, pts)
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

    cfg = AcqConfig(n_candidates=2, n_function_draws=3000, n_fantasies=60)
    vals = [info_gain(model, query, np.zeros(0), cand, cfg,
                      np.random.default_rng(1000 + i)) for i in range(12)]
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 3 * se + 5e-4


def test_info_gain_far_query_is_tiny():
    model = small_model()
    cand = np.linspace(0, 1, 10)[:, None]
    cfg = AcqConfig(n_candidates=10, n_function_draws=500, n_fantasies=10)
    far = info_gain(model, np.array([50.0]), np.zeros(0), cand, cfg,
                    np.random.default_rng(2))
    assert abs(far) <= 0.02 * np.log(10)


def test_info_gain_uncertain_candidate_beats_far_query():
    model = small_model()
    cand = np.linspace(0, 1, 10)[:, None]
    cfg = AcqConfig(n_candidates=10, n_function_draws=2000, n_fantasies=20)
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
    model = gp.fit(x, y, h)
    cand = np.linspace(0, 1, 6)[:, None]
    cfg = AcqConfig(n_candidates=6, n_function_draws=800, n_fantasies=10)
    g = info_gain(model, x[2], np.zeros(0), cand, cfg, np.random.default_rng(6))
    assert abs(g) <= 5e-3


# ---------------------------------------------------------------------------
# summed objectives
# ---------------------------------------------------------------------------


def joint_model_2d(rng):
    x = rng.uniform(0, 1, size=(12, 2))  # columns: context, parameter
    y = np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1])
    h = gp.KernelHyperparams(1.0, np.array([0.4, 0.4]), 1e-3)
    return gp.fit(x, y, h)


def test_aces_duplicated_representer_counts_twice():
    rng = np.random.default_rng(8)
    model = joint_model_2d(rng)
    cand = np.linspace(0, 1, 5)[:, None]
    single = RepresenterSet(np.array([[0.4]]), cand[None, :, :])
    double = RepresenterSet(np.array([[0.4], [0.4]]),
                            np.broadcast_to(cand, (2, 5, 1)).copy())
    cfg = AcqConfig(n_candidates=5, n_function_draws=400, n_fantasies=5, rng_seed=9)
    q = np.array([0.4, 0.7])
    one = aces_objective(model, q, single, cfg)
    two = aces_objective(model, q, double, cfg)
    assert two == pytest.approx(2 * one, rel=1e-12, abs=1e-12)


def test_aces_objective_deterministic_across_calls():
    rng = np.random.default_rng(10)
    model = joint_model_2d(rng)
    reps = RepresenterSet.sample(SearchSpace([0.0], [1.0]), SearchSpace([0.0], [1.0]),
                                 4, 5, np.random.default_rng(1))
    cfg = AcqConfig(n_candidates=5, n_function_draws=300, n_fantasies=4, rng_seed=2)
    q = np.array([0.5, 0.5])
    assert aces_objective(model, q, reps, cfg) == aces_objective(model, q, reps, cfg)


def test_joint_engine_batch_matches_single_queries():
    rng = np.random.default_rng(13)
    model = joint_model_2d(rng)
    reps = RepresenterSet.sample(SearchSpace([0.0], [1.0]), SearchSpace([0.0], [1.0]),
                                 3, 6, np.random.default_rng(2))
    cfg = AcqConfig(n_candidates=6, n_function_draws=300, n_fantasies=4, rng_seed=3)
    engine = JointEsEngine(model, reps, cfg)
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
    ens = gp.fit_shared_inputs(theta, targets, h, standardize=True)
    models = [gp.ensemble_branch_model(ens, c) for c in range(c_n)]

    cand = np.linspace(0.05, 0.95, 6)[:, None]
    reps = RepresenterSet(np.zeros((c_n, 0)), np.broadcast_to(cand, (c_n, 6, 1)).copy(),
                          env_dim=0)
    cfg = AcqConfig(n_candidates=6, n_function_draws=400, n_fantasies=5, rng_seed=21)
    q = np.array([0.52])

    via_list = faces_objective(models, q, reps, cfg)
    engine = EnsembleEsEngine(ens, cand, cfg, rng=np.random.default_rng(cfg.rng_seed))
    via_engine = float(engine.gains(q[None, :])[0])
    assert via_list == pytest.approx(via_engine, rel=1e-8, abs=1e-10)


def test_faces_objective_needs_one_model_per_context():
    h = gp.KernelHyperparams(1.0, np.array([0.3]), 1e-3)
    m = gp.fit(np.array([[0.5]]), np.array([0.0]), h)
    cand = np.array([[0.1], [0.9]])
    reps = RepresenterSet(np.zeros((2, 0)), np.broadcast_to(cand, (2, 2, 1)).copy())
    cfg = AcqConfig(n_candidates=2, n_function_draws=100, n_fantasies=1)
    with pytest.raises(ContractError):
        faces_objective([m], np.array([0.5]), reps, cfg)


def test_empty_model_engine_runs():
    h = gp.KernelHyperparams(1.0, np.array([0.5, 0.5]), 1e-4)
    model = gp.fit(np.zeros((0, 2)), np.zeros(0), h)
    reps = RepresenterSet.sample(SearchSpace([0.0], [1.0]), SearchSpace([0.0], [1.0]),
                                 3, 4, np.random.default_rng(0))
    cfg = AcqConfig(n_candidates=4, n_function_draws=200, n_fantasies=3)
    engine = JointEsEngine(model, reps, cfg)
    g = engine.gains(np.array([[0.5, 0.5]]))
    assert np.all(np.isfinite(g))


def test_conditional_update_matches_literal_fantasy():
    # the engine's rank-1 covariance downdate must agree with actually
    # appending the fantasy observation and recomputing the posterior
    rng = np.random.default_rng(17)
    model = joint_model_2d(rng)
    pts = rng.uniform(0, 1, size=(4, 2))
    query = rng.uniform(0, 1, size=2)

    mean0, cov0 = gp.posterior_joint(model, np.vstack([pts, query[None, :]]))
    cross = cov0[:4, 4]
    s2_obs = cov0[4, 4] + model.hyperparams.noise_variance
    shortcut = cov0[:4, :4] - np.outer(cross, cross) / s2_obs

    y_fantasy = mean0[4] + 0.37 * np.sqrt(s2_obs)
    fant = gp.fantasize(model, query, y_fantasy)
    mean1, cov1 = gp.posterior_joint(fant, pts)

    assert np.allclose(cov1, shortcut, atol=1e-8)
    expected_mean = mean0[:4] + cross * (y_fantasy - mean0[4]) / s2_obs
    assert np.allclose(mean1, expected_mean, atol=1e-8)


def test_representer_set_validation_and_sampling():
    with pytest.raises(ContractError):
        RepresenterSet(np.zeros((2, 1)), np.zeros((3, 4, 1)))
    with pytest.raises(ContractError):
        RepresenterSet(np.zeros((2, 1)), np.zeros((2, 1, 1)))
    rng = np.random.default_rng(1)
    reps = RepresenterSet.sample(SearchSpace([0.0, -1.0], [1.0, 1.0]),
                                 SearchSpace([2.0], [3.0]), 7, 5, rng, env_dim=1)
    assert reps.contexts.shape == (7, 2)
    assert reps.candidates.shape == (7, 5, 1)
    assert reps.env_contexts.shape == (7, 1)
    assert reps.target_contexts.shape == (7, 1)
    assert reps.shared_candidates() is not None
    assert np.all(reps.candidates >= 2.0) and np.all(reps.candidates <= 3.0)


# ---------------------------------------------------------------------------
# the entropy kernel against its np.argmax oracle
# ---------------------------------------------------------------------------


def _oracle_entropies(base, draws):
    g_n, l_n, m = base.shape
    flat = base.reshape(g_n * l_n, m)
    return _entropies_stacked(flat, draws, np.repeat(np.arange(g_n), l_n)).reshape(g_n, l_n)


@settings(max_examples=60, deadline=None)
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
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("shape", [(1, 600, 20, 150), (200, 3, 20, 150),
                                   (1, 1, 300, 200), (3, 3, 20, 150)])
def test_kernel_matches_oracle_at_engine_sizes(shape):
    g_n, l_n, m, k = shape
    rng = np.random.default_rng(sum(shape))
    base = rng.standard_normal((g_n, l_n, m))
    draws = rng.standard_normal((g_n, m, k))
    assert np.array_equal(acquisition._argmax_entropies(base, draws),
                          _oracle_entropies(base, draws))


@pytest.mark.parametrize("where", ["base", "draws"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_rejects_non_finite_blocks(where, bad):
    rng = np.random.default_rng(3)
    base = rng.standard_normal((2, 3, 40))
    draws = rng.standard_normal((2, 40, 150))
    (base if where == "base" else draws)[1, 2, 5] = bad
    with pytest.raises(NumericalError):
        acquisition._argmax_entropies(base, draws)


# ---------------------------------------------------------------------------
# engines against the per-query oracle loops
# ---------------------------------------------------------------------------


def shared_input_ensemble(rng, n=14, c_n=5):
    theta = rng.uniform(0, 1, size=(n, 1))
    targets = np.column_stack([np.sin(3 * theta[:, 0] + 0.3 * c) for c in range(c_n)])
    h = gp.KernelHyperparams(1.0, np.array([0.3]), 1e-3)
    return gp.fit_shared_inputs(theta, targets, h, standardize=True)


@pytest.mark.parametrize("c_n", [1, 5, 200])
def test_ensemble_engine_matches_oracle_loop(c_n):
    rng = np.random.default_rng(c_n)
    ens = shared_input_ensemble(rng, c_n=c_n)
    cand = np.linspace(0.05, 0.95, 20)[:, None]
    cfg = AcqConfig(n_candidates=20, n_function_draws=150, n_fantasies=3, rng_seed=4)
    engine = EnsembleEsEngine(ens, cand, cfg, rng=np.random.default_rng(7))
    s0 = _stacked_cholesky_oracle(engine.sigma[None], engine._scale)[0] @ engine.z
    assert np.array_equal(engine.h0, _entropies_shared(engine.mu0, s0))
    for b_n in (1, 3, 14):
        queries = rng.uniform(0, 1, size=(b_n, 1))
        for per_branch in (False, True):
            assert np.array_equal(engine.gains(queries, per_branch=per_branch),
                                  ensemble_gains_oracle(engine, queries, per_branch))


@pytest.mark.parametrize("c_n", [1, 4, 20, 200])
def test_joint_engine_matches_oracle_loop(c_n):
    rng = np.random.default_rng(30 + c_n)
    model = joint_model_2d(rng)
    reps = RepresenterSet.sample(SearchSpace([0.0], [1.0]), SearchSpace([0.0], [1.0]),
                                 c_n, 20, np.random.default_rng(c_n))
    cfg = AcqConfig(n_candidates=20, n_function_draws=150, n_fantasies=3, rng_seed=5)
    engine = JointEsEngine(model, reps, cfg)
    s0 = np.einsum("cml,lk->cmk",
                   _stacked_cholesky_oracle(engine.sigma, engine._scale), engine.z)
    assert np.array_equal(engine.h0, _entropies_stacked(engine.mu0, s0, np.arange(c_n)))
    for b_n in (1, 3, 14):
        queries = rng.uniform(0, 1, size=(b_n, 2))
        assert np.array_equal(engine.gains(queries, per_branch=True),
                              joint_gains_oracle(engine, queries, per_branch=True))
        assert np.array_equal(engine.gains(queries),
                              joint_gains_oracle(engine, queries))


def test_engine_with_non_finite_mean_raises():
    rng = np.random.default_rng(2)
    engine = EnsembleEsEngine(shared_input_ensemble(rng), np.linspace(0, 1, 6)[:, None],
                              AcqConfig(n_candidates=6, n_function_draws=100))
    engine.mu0[1, 2] = np.nan
    with pytest.raises(NumericalError):
        engine.gains(np.array([[0.5]]))


# ---------------------------------------------------------------------------
# stacked Cholesky
# ---------------------------------------------------------------------------


def test_stacked_cholesky_non_psd_member_raises_with_jitters():
    good = np.array([[2.0, 0.5], [0.5, 1.0]])
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    scale = 1.5
    with pytest.raises(NumericalError) as exc:
        acquisition._stacked_cholesky(np.stack([good, indefinite]), scale)
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
        assert np.array_equal(acquisition._stacked_cholesky(stack, scale),
                              _stacked_cholesky_oracle(stack, scale))
