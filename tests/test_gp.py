"""GP regression tests.

The two-point predictive oracle and the nlml values were computed with an
independent dense linear-algebra script (plain numpy solves, no Cholesky
caching) and frozen here.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize as _scipy_minimize

from fcps import gp
from fcps.algorithms import _hyperparam_bounds as learner_bounds
from fcps.algorithms import _hyperparam_prior as learner_prior
from fcps.errors import ContractError, NumericalError
from fcps.gp import (
    GpModel,
    KernelHyperparams,
    factor_with_jitter,
    fantasize,
    fit,
    fit_shared_inputs,
    fit_targets,
    kernel_eval,
    nlml,
    optimize_hyperparams,
    predict_batch,
    refit,
)
from fcps.optim import SearchSpace

from conftest import ensemble_branch_model, unit_box

# dense-oracle values for inputs {0, 1}, targets {0, 1}, ell=1, sf2=1, sn2=1e-6
ORACLE_MEAN_AT_HALF = 0.5493180898423446
ORACLE_VAR_AT_HALF = 0.03045697436088879
ORACLE_NLML = 2.3995277174676795
ORACLE_NLML_SINGLE = 1.3770838991417502  # N=1, y=0, sf2=2, sn2=0.5


def two_point_model():
    h = KernelHyperparams(1.0, np.array([1.0]), 1e-6)
    return fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), h,
               input_space=unit_box(h.dim))


def default_hyperparam_bounds(inputs, targets) -> list[tuple[float, float]]:
    """Log-space box for hyperparameter search, derived from the data.

    Lengthscales range over [1e-3, 10] times the observed input span per
    dimension; noise variance over [1e-8, observed target variance]; signal
    variance over [1e-4, 1e2] times the observed target variance.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    spans = inputs.max(axis=0) - inputs.min(axis=0)
    spans = np.where(spans > 1e-12, spans, 1.0)
    vy = float(np.var(targets))
    vy = max(vy, 1e-8)
    bounds = [(np.log(1e-4 * vy), np.log(1e2 * vy))]
    bounds += [(np.log(1e-3 * s), np.log(10.0 * s)) for s in spans]
    bounds.append((np.log(1e-8), np.log(max(vy, 1e-7))))
    return bounds


def map_objective(x, y, h, prior):
    """``optimize_hyperparams``' objective: nlml plus the prior penalty."""
    value, _ = nlml(x, y, h)
    mu, sd = np.array(prior).T
    z = (h.as_log_vector() - mu) / sd
    return value + 0.5 * float(z @ z)


def random_instance(rng, n=None, d=None):
    n = n or int(rng.integers(3, 20))
    d = d or int(rng.integers(1, 6))
    x = rng.uniform(-2, 2, size=(n, d))
    y = rng.normal(size=n)
    h = KernelHyperparams(
        float(rng.uniform(0.3, 3.0)),
        rng.uniform(0.3, 2.0, size=d),
        float(rng.uniform(1e-4, 0.3)),
    )
    return x, y, h


# ---------------------------------------------------------------------------
# hyperparameters and kernel
# ---------------------------------------------------------------------------


def test_hyperparams_must_be_positive():
    with pytest.raises(ContractError):
        KernelHyperparams(0.0, np.array([1.0]), 1e-6)
    with pytest.raises(ContractError):
        KernelHyperparams(1.0, np.array([1.0, -1.0]), 1e-6)
    with pytest.raises(ContractError):
        KernelHyperparams(1.0, np.array([1.0]), 0.0)


def _hyperparams_refusal_oracle(sf2, ell, sn2) -> str | None:
    """The message ``KernelHyperparams`` refused with when it checked its
    values with numpy's elementwise tests, or None if it accepted them."""
    ell = np.atleast_1d(np.asarray(ell, dtype=float))
    sf2, sn2 = float(sf2), float(sn2)
    if ell.ndim != 1:
        return "lengthscales must be a 1-d array"
    if not (np.all(np.isfinite(ell)) and np.isfinite(sf2) and np.isfinite(sn2)):
        return "hyperparameters must be finite"
    if sf2 <= 0 or sn2 <= 0 or np.any(ell <= 0):
        return "hyperparameters must be strictly positive"
    return None


_ODD_VALUES = [1.0, 0.0, -0.0, -1.0, 5e-324, 1e308, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("ell", [[v] for v in _ODD_VALUES]
                         + [[0.5, v] for v in _ODD_VALUES]
                         + [[-1.0, np.nan], [np.inf, 0.0], [], 2.0, [[1.0]]])
def test_hyperparams_refuse_what_they_refused_with_the_same_message(ell):
    for sf2, sn2 in [(1.0, 1e-6)] + [(v, 1e-6) for v in _ODD_VALUES] \
            + [(1.0, v) for v in _ODD_VALUES] + [(-1.0, np.nan)]:
        want = _hyperparams_refusal_oracle(sf2, ell, sn2)
        if want is None:
            h = KernelHyperparams(sf2, ell, sn2)
            assert (h.signal_variance, h.noise_variance) == (sf2, sn2)
            assert h.lengthscales.tobytes() == np.atleast_1d(np.asarray(ell, float)).tobytes()
        else:
            with pytest.raises(ContractError, match=f"^{want}$"):
                KernelHyperparams(sf2, ell, sn2)


def test_hyperparams_log_round_trip():
    h = KernelHyperparams(2.5, np.array([0.3, 1.7]), 1e-3)
    back = KernelHyperparams.from_log_vector(h.as_log_vector())
    assert np.allclose(back.lengthscales, h.lengthscales)
    assert back.signal_variance == pytest.approx(h.signal_variance)
    assert back.noise_variance == pytest.approx(h.noise_variance)


def test_kernel_diagonal_and_symmetry():
    rng = np.random.default_rng(1)
    x, _, h = random_instance(rng, n=12, d=3)
    K = kernel_eval(x, x, h)
    assert np.allclose(np.diag(K), h.signal_variance)
    assert np.allclose(K, K.T)
    # strictly positive and bounded by the signal variance
    assert np.all(K > 0)
    assert np.all(K <= h.signal_variance + 1e-12)


def test_kernel_ard_anisotropy():
    h = KernelHyperparams(1.0, np.array([0.1, 10.0]), 1e-6)
    a = np.array([[0.0, 0.0]])
    near_long_axis = np.array([[0.0, 1.0]])
    near_short_axis = np.array([[1.0, 0.0]])
    assert kernel_eval(a, near_long_axis, h)[0, 0] > kernel_eval(a, near_short_axis, h)[0, 0]


# ---------------------------------------------------------------------------
# fit / predict
# ---------------------------------------------------------------------------


def test_predict_matches_dense_oracle():
    m = two_point_model()
    (mean,), (var,) = predict_batch(m, [[0.5]])
    assert mean == pytest.approx(ORACLE_MEAN_AT_HALF, abs=1e-8)
    assert var == pytest.approx(ORACLE_VAR_AT_HALF, abs=1e-8)


def test_predict_interpolates_training_points():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(8, 2))
    y = rng.normal(size=8)
    h = KernelHyperparams(1.0, np.array([0.8, 0.8]), 1e-10)
    m = fit(x, y, h, input_space=unit_box(h.dim))
    mean, var = predict_batch(m, x)
    assert np.allclose(mean, y, atol=1e-4)
    assert np.all(var < 1e-4)
    assert np.all(var >= 0)


def test_predict_far_from_data_reverts_to_prior():
    m = two_point_model()
    (mean,), (var,) = predict_batch(m, [[500.0]])
    assert abs(mean) <= 1e-12
    assert var == pytest.approx(1.0, abs=1e-12)


def test_kernel_rows_of_an_empty_model_are_zero_width():
    h = KernelHyperparams(3.0, np.array([1.0, 1.0]), 1e-6)
    empty = fit(np.zeros((0, 2)), np.zeros(0), h, input_space=unit_box(h.dim))
    k, v = gp.kernel_rows(empty, np.ones((4, 2)))
    assert k.shape == (4, 0) and v.shape == (0, 4)


def test_empty_model_is_prior_only():
    h = KernelHyperparams(3.0, np.array([1.0, 1.0]), 1e-6)
    m = fit(np.zeros((0, 2)), np.zeros(0), h, input_space=unit_box(h.dim))
    assert m.chol.shape == (0, 0) and m.jitter == 0.0  # potrf factors a 0 x 0 matrix
    (mean,), (var,) = predict_batch(m, [[0.3, -0.4]])
    assert mean == 0.0
    assert var == pytest.approx(3.0)


def test_fit_shape_validation():
    h = KernelHyperparams(1.0, np.array([1.0]), 1e-6)
    with pytest.raises(ContractError):
        fit(np.zeros((3, 2)), np.zeros(3), h, input_space=unit_box(h.dim))
    with pytest.raises(ContractError):
        fit(np.zeros((3, 1)), np.zeros(4), h, input_space=unit_box(h.dim))
    with pytest.raises(ContractError):
        fit(np.array([[np.nan]]), np.zeros(1), h, input_space=unit_box(h.dim))


def test_input_space_scaling_equivalence():
    rng = np.random.default_rng(5)
    space = SearchSpace([-4.0, 10.0], [2.0, 30.0])
    x = space.sample_uniform(10, rng)
    y = rng.normal(size=10)
    h = KernelHyperparams(1.2, np.array([0.5, 0.5]), 1e-4)
    scaled = fit(x, y, h, input_space=space)
    manual = fit((x - space.lower) / space.span, y, h, input_space=unit_box(h.dim))
    q = space.sample_uniform(5, rng)
    ms, vs = predict_batch(scaled, q)
    mm, vm = predict_batch(manual, (q - space.lower) / space.span)
    assert np.allclose(ms, mm, atol=1e-10)
    assert np.allclose(vs, vm, atol=1e-10)


def test_a_unit_box_maps_inputs_to_themselves_bit_for_bit():
    # signed zeros, subnormals and points outside [0, 1] as training rows;
    # queries may be huge too, where the kernel itself would overflow
    odd = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, -3.5, 0.5,
                    1.0 + 2**-52, 7.25e3])
    x = np.column_stack([odd, odd[::-1]])
    h = KernelHyperparams(1.0, np.array([1.0, 1.0]), 1e-6)
    m = fit(x, np.arange(len(x), dtype=float), h, input_space=unit_box(2))
    assert m.xt.tobytes() == x.tobytes() and np.signbit(m.xt[0, 0])
    huge = np.array([1e300, -1e300, 1.7976931348623157e308, -0.0])
    q = np.column_stack([np.concatenate([odd, huge]), np.concatenate([huge, odd])])
    assert m.transform_inputs(q).tobytes() == q.tobytes()


def test_standardize_round_trip():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 1, size=(12, 1))
    y = 50.0 + 3.0 * rng.normal(size=12)
    h = KernelHyperparams(1.0, np.array([0.3]), 1e-3)
    m = fit(x, y, h, standardize=True, input_space=unit_box(h.dim))
    shift, scale = m.y_shift, m.y_scale
    manual = fit(x, (y - shift) / scale, h, input_space=unit_box(h.dim))
    q = rng.uniform(0, 1, size=(4, 1))
    ms, vs = predict_batch(m, q)
    mm, vm = predict_batch(manual, q)
    assert np.allclose(ms, shift + scale * mm, atol=1e-10)
    assert np.allclose(vs, scale**2 * vm, atol=1e-10)
    # far from data the standardized model reverts to the target mean
    (far_mean,), _ = predict_batch(m, [[1e6]])
    assert far_mean == pytest.approx(shift, abs=1e-9)


# ---------------------------------------------------------------------------
# marginal likelihood
# ---------------------------------------------------------------------------


def test_nlml_matches_dense_oracle():
    h = KernelHyperparams(1.0, np.array([1.0]), 1e-6)
    val, _ = nlml(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), h)
    assert val == pytest.approx(ORACLE_NLML, abs=1e-10)


def test_nlml_single_point_closed_form():
    h = KernelHyperparams(2.0, np.array([1.0]), 0.5)
    val, _ = nlml(np.array([[0.7]]), np.array([0.0]), h)
    assert val == pytest.approx(ORACLE_NLML_SINGLE, abs=1e-12)


def test_nlml_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-5
    for _ in range(8):
        x, y, h = random_instance(rng)
        _, grad = nlml(x, y, h)
        logv = h.as_log_vector()
        fd = np.empty_like(grad)
        for j in range(logv.size):
            up, dn = logv.copy(), logv.copy()
            up[j] += step
            dn[j] -= step
            vu, _ = nlml(x, y, KernelHyperparams.from_log_vector(up))
            vd, _ = nlml(x, y, KernelHyperparams.from_log_vector(dn))
            fd[j] = (vu - vd) / (2 * step)
        scale = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(grad - fd) / scale) <= 1e-4


def test_optimize_hyperparams_never_worse_than_init():
    rng = np.random.default_rng(8)
    x, y, _ = random_instance(rng, n=15, d=2)
    prior = learner_prior(2)
    for init in (KernelHyperparams(1.0, np.array([1.0, 1.0]), 0.01),
                 # an init outside the box, which the search starts clipped
                 KernelHyperparams(1e3, np.array([1e-4, 50.0]), 1e-9)):
        out = optimize_hyperparams(x, y, init, restarts=3, rng=rng,
                                   bounds=default_hyperparam_bounds(x, y), prior=prior)
        assert map_objective(x, y, out, prior) <= map_objective(x, y, init, prior) + 1e-12


def test_optimize_hyperparams_recovers_lengthscale():
    # data drawn from a known GP; the fitted lengthscale should land within 2x
    rng = np.random.default_rng(9)
    true_ell = 0.5
    x = np.sort(rng.uniform(0, 5, size=60))[:, None]
    h_true = KernelHyperparams(1.0, np.array([true_ell]), 1e-4)
    K = kernel_eval(x, x, h_true) + 1e-4 * np.eye(60)
    y = np.linalg.cholesky(K) @ rng.standard_normal(60)
    init = KernelHyperparams(1.0, np.array([2.5]), 1e-2)
    # a prior this wide leaves the likelihood to decide
    out = optimize_hyperparams(x, y, init, restarts=3, rng=rng,
                               bounds=default_hyperparam_bounds(x, y),
                               prior=[(0.0, 10.0)] * 3)
    assert true_ell / 2 <= out.lengthscales[0] <= true_ell * 2


def test_optimize_hyperparams_degenerate_dataset():
    init = KernelHyperparams(1.0, np.array([1.0]), 0.01)
    out = optimize_hyperparams(np.array([[0.0]]), np.array([1.0]), init, restarts=3,
                               rng=np.random.default_rng(0), bounds=learner_bounds(1),
                               prior=learner_prior(1))
    assert out is init


# -- nlml against the per-dimension gradient it replaced --------------------


def _nlml_per_dimension(inputs, targets, h):
    """``nlml`` as it was before ``A * kf`` and the squared differences were
    computed once: the oracle for the value and gradient bits."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    n, d = inputs.shape
    if d != h.dim or targets.shape != (n,):
        raise ContractError("data shapes do not match the kernel")
    if n == 0:
        raise ContractError("nlml needs at least one observation")

    kf = kernel_eval(inputs, inputs, h)
    K = kf + h.noise_variance * np.eye(n)
    try:
        L = cholesky(K, lower=True)
    except np.linalg.LinAlgError:
        return np.inf, np.zeros(d + 2)
    alpha = cho_solve((L, True), targets)
    value = (0.5 * targets @ alpha + np.sum(np.log(np.diag(L)))
             + 0.5 * n * np.log(2.0 * np.pi))

    kinv = cho_solve((L, True), np.eye(n))
    A = np.outer(alpha, alpha) - kinv
    grad = np.empty(d + 2)
    grad[0] = -0.5 * np.sum(A * kf)
    for i in range(d):
        diff = inputs[:, i][:, None] - inputs[:, i][None, :]
        grad[1 + i] = -0.5 * np.sum(A * kf * (diff**2 / h.lengthscales[i] ** 2))
    grad[-1] = -0.5 * h.noise_variance * np.trace(A)
    return float(value), grad


# a lengthscale whose square numpy's scalar power (libm's pow) and its array
# power (np.square) round differently: 35.41945108059337 against ...376
_POW_ROUNDS = 5.951424290083288


@settings(max_examples=60)
@given(n=st.integers(1, 150), d=st.integers(1, 11),
       kind=st.sampled_from(["spread", "repeated rows", "singular"]),
       first_ell=st.sampled_from([None, _POW_ROUNDS]),
       seed=st.integers(0, 2**32 - 1))
@example(n=150, d=11, kind="spread", first_ell=None, seed=0)
@example(n=150, d=11, kind="singular", first_ell=None, seed=1)
@example(n=1, d=3, kind="spread", first_ell=_POW_ROUNDS, seed=2)
@example(n=150, d=11, kind="spread", first_ell=_POW_ROUNDS, seed=3)
def test_nlml_equals_the_per_dimension_gradient_bit_for_bit(n, d, kind, first_ell, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    y = rng.normal(size=n)
    logv = rng.uniform(-4.0, 2.0, d + 2)
    if kind == "repeated rows":
        x = x[rng.integers(0, n, n)]
    if kind == "singular":
        # identical rows, unit signal and negligible noise: an exactly
        # singular K, so the Cholesky factorization fails for n > 1
        x = np.zeros((n, d))
        logv[0], logv[-1] = 0.0, np.log(1e-300)
    h = KernelHyperparams.from_log_vector(logv)
    if first_ell is not None:
        h = dataclasses.replace(h, lengthscales=np.r_[first_ell, h.lengthscales[1:]])
    ref_value, ref_grad = _nlml_per_dimension(x, y, h)
    for value, grad in (nlml(x, y, h),
                        nlml(x, y, h, sq_diffs=gp._squared_differences(x))):
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
    if kind == "singular" and n > 1:
        assert ref_value == np.inf and not np.any(ref_grad)


@pytest.mark.parametrize("learner_box", [False, True])
def test_optimize_hyperparams_equals_it_over_the_per_dimension_nlml(monkeypatch,
                                                                    learner_box):
    fast = gp.nlml
    rng = np.random.default_rng(12)
    for n, d in ((2, 1), (30, 3), (80, 11)):
        x, y, init = random_instance(rng, n=n, d=d)
        kw = {"restarts": 2, "prior": [(0.0, 1.0)] * (d + 2),
              "bounds": learner_bounds(d) if learner_box
              else default_hyperparam_bounds(x, y)}
        runs = {}
        for name in ("fast", "oracle"):
            calls = []

            def recorded(inputs, targets, h, sq_diffs=None):
                calls.append((h.as_log_vector(), sq_diffs))
                if name == "oracle":
                    return _nlml_per_dimension(inputs, targets, h)
                return fast(inputs, targets, h, sq_diffs=sq_diffs)

            monkeypatch.setattr(gp, "nlml", recorded)
            result = optimize_hyperparams(x, y, init, rng=np.random.default_rng(n), **kw)
            runs[name] = result.as_log_vector(), calls
        (got, fast_calls), (want, oracle_calls) = runs["fast"], runs["oracle"]
        assert np.array_equal(got, want)
        assert len(fast_calls) == len(oracle_calls) > 1
        for (a, sq), (b, _) in zip(fast_calls, oracle_calls):
            assert np.array_equal(a, b)
            # the squared differences are made once per refit and shared
            assert sq is fast_calls[0][1] is not None


# -- the refit's L-BFGS entry against minimize ------------------------------


def _optimize_hyperparams_minimize(inputs, targets, init: KernelHyperparams, *,
                                   restarts: int = 3,
                                   rng: np.random.Generator | None = None,
                                   bounds: list[tuple[float, float]] | None = None,
                                   prior: list[tuple[float, float]] | None = None
                                   ) -> KernelHyperparams:
    """``optimize_hyperparams`` as it was when it called
    ``minimize(method="L-BFGS-B")``, verbatim: the oracle for its bits."""
    if restarts < 1:
        raise ContractError("restarts must be positive")
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if len(targets) <= 1:
        return init
    if bounds is None:
        bounds = default_hyperparam_bounds(inputs, targets)
    if len(bounds) != init.dim + 2:
        raise ContractError("bounds must cover every log-hyperparameter")
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    if prior is not None:
        if len(prior) != init.dim + 2:
            raise ContractError("prior must cover every log-hyperparameter")
        p_mu = np.array([p[0] for p in prior], dtype=float)
        p_sd = np.array([p[1] for p in prior], dtype=float)
        if np.any(p_sd <= 0.0):
            raise ContractError("prior widths must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    sq_diffs = gp._squared_differences(inputs)

    def objective(logv):
        value, grad = nlml(inputs, targets, KernelHyperparams.from_log_vector(logv),
                           sq_diffs=sq_diffs)
        if prior is not None and np.isfinite(value):
            z = (logv - p_mu) / p_sd
            value += 0.5 * float(z @ z)
            grad = grad + z / p_sd
        return value, grad

    starts = [np.clip(init.as_log_vector(), lo, hi)]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(lo, hi))

    best_val, _ = objective(init.as_log_vector())
    best = init
    for s in starts:
        res = _scipy_minimize(objective, s, jac=True, method="L-BFGS-B",
                              bounds=bounds, options={"maxiter": 200, "maxcor": 10})
        cand = KernelHyperparams.from_log_vector(np.clip(res.x, lo, hi))
        val, _ = objective(cand.as_log_vector())
        if val < best_val:
            best_val, best = val, cand
    return best


@settings(max_examples=30)
@given(n=st.integers(1, 40), d=st.integers(1, 6),
       kind=st.sampled_from(["spread", "repeated rows", "constant targets"]),
       box=st.sampled_from(["data", "learner"]),
       restarts=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(n=40, d=6, kind="spread", box="learner", restarts=3, seed=0)
def test_optimize_hyperparams_equals_the_minimize_version_bit_for_bit(
        n, d, kind, box, restarts, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    if kind == "repeated rows":
        x = x[rng.integers(0, n, n)]
    y = np.full(n, 0.25) if kind == "constant targets" else rng.normal(size=n)
    init = KernelHyperparams.from_log_vector(rng.uniform(-3.0, 1.0, d + 2))
    kw = {"restarts": restarts, "prior": learner_prior(d),
          "bounds": learner_bounds(d) if box == "learner" else default_hyperparam_bounds(x, y)}
    got = optimize_hyperparams(x, y, init, rng=np.random.default_rng(seed), **kw)
    want = _optimize_hyperparams_minimize(x, y, init, rng=np.random.default_rng(seed),
                                          **kw)
    assert got.as_log_vector().tobytes() == want.as_log_vector().tobytes()
    assert (got is init) == (want is init)


@pytest.mark.parametrize("n, d, box, seed", [(2, 1, "data", 0), (15, 2, "learner", 1),
                                             (40, 6, "learner", 2), (60, 11, "data", 3)])
def test_optimize_hyperparams_scores_each_point_once(monkeypatch, n, d, box, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    y = rng.normal(size=n)
    # in the box, so the first start is the init point itself
    init = KernelHyperparams(1.0, np.full(d, 0.5), 0.01)
    kw = {"restarts": 3, "prior": learner_prior(d),
          "bounds": learner_bounds(d) if box == "learner" else default_hyperparam_bounds(x, y)}
    scored = []

    def recorded(inputs, targets, h, sq_diffs=None):
        scored.append(np.r_[h.signal_variance, h.lengthscales, h.noise_variance].tobytes())
        return nlml(inputs, targets, h, sq_diffs=sq_diffs)

    lbfgs = gp.fmin_l_bfgs_b
    repeats = []

    def vandalized(func, x0, **options):
        # every gradient the objective hands out is overwritten once read;
        # asking again at the same point must still give the true one
        def objective(logv):
            value, grad = func(logv)
            kept = grad.copy()
            grad[:] = np.nan
            again_value, again = func(logv)
            repeats.append(again_value == value and again.tobytes() == kept.tobytes())
            return again_value, again
        return lbfgs(objective, x0, **options)

    monkeypatch.setattr(gp, "nlml", recorded)
    monkeypatch.setattr(gp, "fmin_l_bfgs_b", vandalized)
    got = optimize_hyperparams(x, y, init, rng=np.random.default_rng(seed), **kw)
    want = _optimize_hyperparams_minimize(x, y, init, rng=np.random.default_rng(seed), **kw)
    assert got.as_log_vector().tobytes() == want.as_log_vector().tobytes()
    assert len(scored) == len(set(scored)) > 1
    assert repeats and all(repeats)


# -- a fit's factor reused for other targets --------------------------------


def _assert_same_model(a: GpModel, b: GpModel) -> None:
    for field in dataclasses.fields(GpModel):
        u, v = getattr(a, field.name), getattr(b, field.name)
        if isinstance(u, SearchSpace):  # the arrays the input transform reads
            u, v = np.stack([u.lower, u.span]), np.stack([v.lower, v.span])
        if isinstance(u, np.ndarray):
            assert u.dtype == v.dtype and u.shape == v.shape, field.name
            assert u.tobytes() == v.tobytes(), field.name
        else:
            assert type(u) is type(v) and u == v, field.name


@pytest.mark.parametrize("case", ["random", "constant", "one row", "empty"])
def test_fit_targets_equals_fit_bit_for_bit(case):
    rng = np.random.default_rng(21)
    x, y, h = random_instance(rng, n=1 if case == "one row" else 25, d=3)
    if case == "empty":
        x, y = np.zeros((0, 3)), np.zeros(0)
    space = SearchSpace([-2.0] * 3, [2.0] * 3)
    base = fit(x, y, h, input_space=space, standardize=True)
    for _ in range(3):
        other = rng.normal(size=len(y)) * rng.uniform(0.1, 10.0)
        if case == "constant":  # standard deviation 0: the scale stays 1
            other = np.full(len(y), other[0])
        got = fit_targets(base, other)
        want = fit(x, other, h, input_space=space, standardize=True)
        _assert_same_model(got, want)
        assert got.chol is base.chol and got.xt is base.xt  # the factor is kept
        if case == "constant":
            assert got.y_scale == 1.0
        q = rng.uniform(-2.0, 2.0, (7, 3))
        for a, b in zip(predict_batch(got, q), predict_batch(want, q)):
            assert a.tobytes() == b.tobytes()


def test_fit_targets_rejects_targets_that_do_not_fit_the_model():
    rng = np.random.default_rng(22)
    x, y, h = random_instance(rng, n=6, d=2)
    m = fit(x, y, h, input_space=unit_box(h.dim))
    with pytest.raises(ContractError):
        fit_targets(m, y[:-1])
    with pytest.raises(ContractError):
        fit_targets(m, np.where(np.arange(6) == 2, np.nan, y))


# -- one model type against the shared-input ensemble it absorbed ----------


@dataclasses.dataclass(frozen=True)
class GpEnsembleOracle:
    """``gp.GpEnsemble`` as it was before ``GpModel`` took (n, C) targets."""

    inputs: np.ndarray
    targets: np.ndarray  # (N, C)
    hyperparams: KernelHyperparams
    input_space: SearchSpace | None
    y_shift: np.ndarray  # (C,)
    y_scale: np.ndarray  # (C,)
    xt: np.ndarray
    chol: np.ndarray
    weights: np.ndarray  # (N, C)
    jitter: float


def fit_shared_inputs_oracle(inputs, target_matrix, h: KernelHyperparams, *,
                             input_space: SearchSpace | None = None,
                             standardize: bool = True) -> GpEnsembleOracle:
    """``gp.fit_shared_inputs`` as it was before the merge, verbatim."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(target_matrix, dtype=float))
    if inputs.size == 0:
        inputs = inputs.reshape(0, h.dim)
        if targets.size == 0:
            keep = targets.shape[1] if targets.ndim == 2 and targets.shape[1] else 1
            targets = targets.reshape(0, keep)
    if inputs.shape[1] != h.dim or targets.shape[0] != inputs.shape[0]:
        raise ContractError("target matrix must have one row per input")
    x_lo = x_span = None
    if input_space is not None:
        if input_space.dim != h.dim:
            raise ContractError("input_space dimension does not match the kernel")
        x_lo, x_span = input_space.lower, input_space.span
    n, c = targets.shape if targets.size else (0, targets.shape[1])
    if standardize and n:
        y_shift = targets.mean(axis=0)
        sd = targets.std(axis=0)
        y_scale = np.where(sd > 1e-12, sd, 1.0)
    else:
        y_shift = np.zeros(c)
        y_scale = np.ones(c)
    xt = inputs if x_lo is None else (inputs - x_lo) / x_span
    yt = (targets - y_shift) / y_scale
    if n:
        K = kernel_eval(xt, xt, h) + h.noise_variance * np.eye(n)
        L, jitter = factor_with_jitter(gp._cholesky, K, h.signal_variance + h.noise_variance)
        weights = gp._cho_solve(L, yt)
    else:
        L = np.zeros((0, 0))
        weights = np.zeros((0, c))
        jitter = 0.0
    return GpEnsembleOracle(inputs, targets, h, input_space, y_shift, y_scale,
                            xt, L, weights, jitter)


def _standardization_oracle(targets, standardize):
    """``gp._standardization`` of one target as it was before the merge."""
    if not (standardize and len(targets)):
        return 0.0, 1.0
    sd = float(np.std(targets))
    return float(np.mean(targets)), sd if sd > 1e-12 else 1.0


def _same_bits(u, v) -> bool:
    if isinstance(u, np.ndarray):
        return (isinstance(v, np.ndarray) and u.dtype == v.dtype
                and u.shape == v.shape and u.tobytes() == v.tobytes())
    return type(u) is type(v) and np.float64(u).tobytes() == np.float64(v).tobytes()


def _merge_case(n, c_n, d, constant, box, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (n, d))
    y = rng.normal(size=(n, c_n)) * rng.uniform(0.1, 10.0, c_n) + rng.uniform(-5, 5, c_n)
    if constant:  # every other column constant: standard deviation below 1e-12
        y[:, ::2] = rng.normal(size=(1, len(range(0, c_n, 2))))
    h = KernelHyperparams(float(rng.uniform(0.3, 3.0)), rng.uniform(0.2, 2.0, d),
                          float(rng.uniform(1e-6, 0.3)))
    space = (SearchSpace(np.zeros(d), np.ones(d)) if box == "unit"
             else SearchSpace(np.full(d, -2.5), np.full(d, 3.0)))
    return x, y, h, space


@settings(max_examples=40)
@given(n=st.sampled_from([0, 1, 30]), c_n=st.sampled_from([1, 2, 200]),
       d=st.integers(1, 4), constant=st.booleans(),
       box=st.sampled_from(["unit", "wide"]), seed=st.integers(0, 2**16))
@example(n=30, c_n=200, d=3, constant=True, box="wide", seed=0)
@example(n=0, c_n=2, d=1, constant=False, box="unit", seed=0)
@example(n=1, c_n=1, d=2, constant=True, box="unit", seed=1)
def test_fit_shared_inputs_equals_the_ensemble_it_replaced_bit_for_bit(
        n, c_n, d, constant, box, seed):
    x, y, h, space = _merge_case(n, c_n, d, constant, box, seed)
    got = fit_shared_inputs(x, y, h, input_space=space)
    want = fit_shared_inputs_oracle(x, y, h, input_space=space)
    assert isinstance(got, GpModel)
    for name in ("xt", "chol", "jitter", "weights", "y_shift", "y_scale"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert got.hyperparams is want.hyperparams
    assert got.input_space is want.input_space
    assert _same_bits(got.yt, (want.targets - want.y_shift) / want.y_scale)
    if constant and n:
        assert got.y_scale[0] == 1.0
    # no claim that a column fitted alone has the same shift: numpy sums a
    # vector pairwise but a matrix's columns row by row, so the last bits
    # of the two means can differ (they do at the n=30, C=200 example)


@settings(max_examples=30)
@given(n=st.sampled_from([0, 1, 2, 30]), constant=st.booleans(),
       standardize=st.booleans(), seed=st.integers(0, 2**16))
def test_one_target_standardization_keeps_python_floats_and_bits(
        n, constant, standardize, seed):
    x, y, h, space = _merge_case(n, 1, 2, constant, "wide", seed)
    m = fit(x, y[:, 0], h, input_space=space, standardize=standardize)
    shift, scale = _standardization_oracle(y[:, 0], standardize)
    assert type(m.y_shift) is float and type(m.y_scale) is float
    assert _same_bits(m.y_shift, shift) and _same_bits(m.y_scale, scale)
    assert _same_bits(m.yt, (y[:, 0] - shift) / scale)
    assert m.weights.shape == (n,)


def test_prediction_and_fantasies_take_one_target_models_only():
    x, y, h, space = _merge_case(20, 5, 2, False, "wide", 3)
    m = fit_shared_inputs(x, y, h, input_space=space)
    empty = fit_shared_inputs(np.zeros((0, 2)), np.zeros((0, 5)), h, input_space=space)
    for model in (m, empty):
        with pytest.raises(ContractError, match="one-target"):
            predict_batch(model, x[:3])
        with pytest.raises(ContractError, match="one-target"):
            fantasize(model, x[0], 0.0)
    with pytest.raises(ContractError):
        fit(x, np.zeros((20, 2, 2)), h, input_space=unit_box(h.dim))


# ---------------------------------------------------------------------------
# incremental update and sampling
# ---------------------------------------------------------------------------


def test_fantasize_equals_refit():
    rng = np.random.default_rng(10)
    for _ in range(6):
        x, y, h = random_instance(rng)
        m = fit(x, y, h, input_space=unit_box(h.dim))
        x_new = rng.uniform(-2, 2, size=x.shape[1])
        y_new = float(rng.normal())
        fast = fantasize(m, x_new, y_new)
        slow = fit(np.vstack([x, x_new]), np.append(y, y_new), h,
                   input_space=unit_box(h.dim))
        q = rng.uniform(-2, 2, size=(6, x.shape[1]))
        mf, vf = predict_batch(fast, q)
        ms, vs = predict_batch(slow, q)
        assert np.allclose(mf, ms, atol=1e-8)
        assert np.allclose(vf, vs, atol=1e-8)


def test_fantasize_on_empty_model():
    h = KernelHyperparams(1.0, np.array([1.0]), 1e-6)
    m = fit(np.zeros((0, 1)), np.zeros(0), h, input_space=unit_box(h.dim))
    m2 = fantasize(m, np.array([0.5]), 2.0)
    (mean,), _ = predict_batch(m2, [[0.5]])
    assert mean == pytest.approx(2.0, abs=1e-4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n", [0, 3])
def test_fantasize_rejects_a_non_finite_point(n, bad):
    h = KernelHyperparams(1.0, np.array([1.0, 0.5]), 1e-6)
    m = fit(np.linspace(0.0, 1.0, 2 * n).reshape(n, 2), np.arange(n, dtype=float), h,
            input_space=unit_box(h.dim))
    with pytest.raises(ValueError):
        fantasize(m, np.array([0.5, bad]), 1.0)


def test_every_model_origin_keeps_an_f_ordered_factor(monkeypatch):
    """``gp._solve_lower`` hands a factor to trtrs as it is, the way scipy
    treats an F-ordered one, so every way of making a model leaves ``chol``
    F-contiguous: ``fantasize`` on its rank-1 path and on its refit
    fallback included."""
    refits = []
    assemble = gp._assemble
    monkeypatch.setattr(gp, "_assemble", lambda *a: refits.append(a) or assemble(*a))
    rng = np.random.default_rng(7)
    x, y, h = random_instance(rng, n=12, d=3)
    m = fit(x, y, h, input_space=unit_box(h.dim))
    # a repeated input under a tiny noise leaves no usable pivot
    near = fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]),
               KernelHyperparams(1.0, np.array([1.0]), 1e-14), input_space=unit_box(1))
    models = {"fit": m, "fit_targets": fit_targets(m, 1.0 - y),
              "fit_shared_inputs": fit_shared_inputs(
                  x, np.column_stack([y, -y]), h,
                  input_space=SearchSpace(np.full(3, -2.0), np.full(3, 2.0))),
              "empty": fit(np.zeros((0, 3)), np.zeros(0), h, input_space=unit_box(h.dim))}
    refits.clear()
    models["fantasize, rank-1"] = fantasize(m, rng.uniform(-2, 2, 3), 0.4)
    assert not refits
    models["fantasize, refit"] = fantasize(near, np.array([1.0]), 1.0)
    assert len(refits) == 1
    for name, model in models.items():
        assert model.chol.flags.f_contiguous, name


def _fantasy_and_refits(monkeypatch, noise, x_new):
    """``fantasize`` on two points at ``noise``, the refit on the three, and
    how many factorizations ``fantasize`` made."""
    refits = []
    assemble = gp._assemble
    monkeypatch.setattr(gp, "_assemble", lambda *a: refits.append(a) or assemble(*a))
    h = KernelHyperparams(1.0, np.array([1.0]), noise)
    x = np.array([[0.0], [1.0]])
    m = fit(x, np.array([0.0, 1.0]), h, input_space=unit_box(h.dim))
    refits.clear()
    fast = fantasize(m, np.array([x_new]), 1.0)
    made = len(refits)
    slow = fit(np.vstack([x, [[x_new]]]), np.array([0.0, 1.0, 1.0]), h,
               input_space=unit_box(h.dim))
    return fast, slow, made


def test_fantasize_near_duplicate_takes_the_rank_1_path(monkeypatch):
    # at noise 1e-10 the pivot c_sq is about 2e-10, above the 1e-12 cut
    fast, slow, made = _fantasy_and_refits(monkeypatch, 1e-10, 1.0 + 1e-13)
    assert made == 0
    q = np.array([[0.3], [0.9]])
    assert np.allclose(predict_batch(fast, q)[0], predict_batch(slow, q)[0], atol=1e-6)


def test_fantasize_repeated_input_refactorizes(monkeypatch):
    # at noise 1e-14 a repeated input leaves a pivot of about 2e-14, below
    # the cut: the fallback factorizes the three points as a refit does
    fast, slow, made = _fantasy_and_refits(monkeypatch, 1e-14, 1.0)
    assert made == 1
    for name in ("xt", "yt", "chol", "weights", "jitter"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------


def test_jitter_handles_duplicate_rows():
    h = KernelHyperparams(1.0, np.array([1.0]), 1e-9)
    x = np.array([[0.5], [0.5], [0.5], [1.5]])
    y = np.array([1.0, 1.0, 1.0, 0.0])
    m = fit(x, y, h, input_space=unit_box(h.dim))
    (mean,), _ = predict_batch(m, [[0.5]])
    assert mean == pytest.approx(1.0, abs=1e-3)


def test_chol_with_jitter_gives_up_eventually():
    # indefinite at every scale: no jitter up to the cap makes it factor
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    for scale in (1.0, 7.3, 1e-3, 0.123456789, 3e5):
        with pytest.raises(NumericalError,
                           match="Cholesky factorization failed after jitter up to") as exc:
            factor_with_jitter(gp._cholesky, scale * bad, scale)
        # none, then 1e-10 * scale rising tenfold to exactly the cap
        jitters = exc.value.jitters
        assert jitters[:2] == [0.0, 1e-10 * scale] and jitters[-1] == 1e-4 * scale
        assert all(a < b <= 10.0 * a for a, b in zip(jitters[1:], jitters[2:]))


# -- the LAPACK helpers against scipy's wrappers -----------------------------


def _factor_and_rhs(n, rhs, order, seed):
    rng = np.random.default_rng(seed)
    h = KernelHyperparams(1.0, rng.uniform(0.05, 2.0, 2), 10.0 ** rng.uniform(-8, -1))
    x = rng.uniform(0.0, 1.0, (n, 2))
    K = kernel_eval(x, x, h) + (h.noise_variance + 1e-8) * np.eye(n)
    k = {"1-d": None, "(n, 1)": 1, "(n, k)": int(rng.integers(2, 9))}[rhs]
    b = rng.normal(size=n if k is None else (k, n))
    if k is not None:
        b = b.T  # F-ordered, as ks.T in predict_batch
        if order == "C":
            b = np.ascontiguousarray(b)
    return K, b


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 200), rhs=st.sampled_from(["1-d", "(n, 1)", "(n, k)"]),
       order=st.sampled_from(["F", "C"]), seed=st.integers(0, 2**32 - 1))
@example(n=200, rhs="(n, k)", order="C", seed=0)
@example(n=1, rhs="1-d", order="C", seed=0)
def test_lapack_helpers_equal_scipys_wrappers_bit_for_bit(n, rhs, order, seed):
    """``order`` is the layout of the right-hand sides and of the factor
    ``_cho_solve`` gets; ``_solve_lower`` gets the factor as ``potrf`` makes
    it, F-ordered, as every model's factor is."""
    K, b = _factor_and_rhs(n, rhs, order, seed)
    L = gp._cholesky(K)
    assert np.array_equal(L, cholesky(K, lower=True)) and L.flags.f_contiguous
    x = gp._solve_lower(L, b)
    ref = solve_triangular(L, b, lower=True, check_finite=False)
    assert x.shape == b.shape and np.array_equal(x, ref)
    L = np.asfortranarray(L) if order == "F" else np.ascontiguousarray(L)
    x = gp._cho_solve(L, b)
    assert x.shape == b.shape and np.array_equal(x, cho_solve((L, True), b))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lapack_helpers_reject_non_finite_input_as_scipy_does(bad):
    """``_cholesky`` and ``_cho_solve`` check their input, as scipy does by
    default; ``_solve_lower`` never does, as scipy with ``check_finite=False``."""
    K, b = _factor_and_rhs(4, "1-d", "F", 0)
    L = gp._cholesky(K)
    K_bad, L_bad, b_bad = K.copy(), L.copy(order="F"), b.copy()
    K_bad[3, 0] = K_bad[0, 3] = bad
    L_bad[3, 0] = bad
    b_bad[3] = bad
    for call in (lambda: cholesky(K_bad, lower=True), lambda: gp._cholesky(K_bad)):
        with pytest.raises(ValueError):
            call()
    for c, rhs in ((L_bad, b), (L, b_bad)):
        for call in (lambda: cho_solve((c, True), rhs), lambda: gp._cho_solve(c, rhs)):
            with pytest.raises(ValueError):
                call()
        assert np.array_equal(gp._solve_lower(c, rhs),
                              solve_triangular(c, rhs, lower=True, check_finite=False),
                              equal_nan=True)


def test_lapack_helpers_raise_linalg_error_as_scipy_does():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    for call in (lambda: cholesky(indefinite, lower=True),
                 lambda: gp._cholesky(indefinite)):
        with pytest.raises(np.linalg.LinAlgError):
            call()
    singular = np.array([[1.0, 0.0], [3.0, 0.0]])
    for factor in (singular, np.asfortranarray(singular)):
        for call in (lambda: solve_triangular(factor, np.ones(2), lower=True),
                     lambda: gp._solve_lower(factor, np.ones(2))):
            with pytest.raises(np.linalg.LinAlgError):
                call()


@pytest.mark.parametrize("K", [
    np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite: gives up
    np.ones((3, 3)),  # singular: factors after a jitter
])
def test_chol_with_jitter_tries_the_jitters_it_tried_through_scipy(monkeypatch, K):
    def outcome():
        try:
            L, jitter = factor_with_jitter(gp._cholesky, K, 1.0)
        except NumericalError as err:
            return err.jitters
        return L, jitter

    direct = outcome()
    monkeypatch.setattr(gp, "_cholesky", lambda a: cholesky(a, lower=True))
    wrapped = outcome()
    if isinstance(wrapped, list):
        # 0, seven tenfold rungs from 1e-10, whose last falls short of 1e-4,
        # and the cap itself
        assert direct == wrapped and len(wrapped) == 9 and wrapped[0] == 0.0
    else:
        assert np.array_equal(direct[0], wrapped[0]) and direct[1] == wrapped[1] > 0


def test_refit_improves_or_keeps_nlml():
    rng = np.random.default_rng(11)
    x, y, _ = random_instance(rng, n=18, d=2)
    init = KernelHyperparams(1.0, np.array([1.0, 1.0]), 0.05)
    space = SearchSpace([-2.0, -2.0], [2.0, 2.0])
    prior = learner_prior(2)
    h2 = refit(x, y, init, input_space=space, restarts=2, rng=rng,
               bounds=learner_bounds(2), prior=prior)
    m = fit(x, y, init, input_space=space, standardize=True)
    v1 = map_objective(m.xt, m.yt, init, prior)
    v2 = map_objective(m.xt, m.yt, h2, prior)
    assert v2 <= v1 + 1e-12
    assert isinstance(h2, KernelHyperparams)


@pytest.mark.parametrize("seed", range(6))
def test_refit_on_data_equals_the_search_on_a_fitted_models_data(seed, monkeypatch):
    # the oracle is the refit as it was: fit a whole model, then search on
    # its transformed inputs and standardized targets; the refit takes the
    # same transform and builds no factor
    rng = np.random.default_rng(seed)
    x, y, init = random_instance(rng, n=40)
    n = [0, 1, 2, 9, 25, 40][seed]
    x, y = x[:n], y[:n]
    if seed == 3:
        y[:] = 0.7  # a constant column keeps a scale of 1
    d = x.shape[1]
    space = SearchSpace(np.full(d, -2.0), np.full(d, 2.0))
    kw = dict(restarts=2, bounds=learner_bounds(d), prior=learner_prior(d))
    m = fit(x, y, init, input_space=space, standardize=True)
    expected = optimize_hyperparams(m.xt, m.yt, m.hyperparams,
                                    rng=np.random.default_rng(seed), **kw)
    monkeypatch.setattr(gp, "factor_with_jitter", None)
    got = refit(x, y, init, input_space=space, rng=np.random.default_rng(seed), **kw)
    assert got.as_log_vector().tobytes() == expected.as_log_vector().tobytes()
    assert (got is init) == (expected is init)


# -- predict_batch against the per-call kernel computation ------------------


def _kernel_per_call(a, b, h):
    """``kernel_eval`` as it was before its scaled-row helpers; the oracle."""
    sa = a / h.lengthscales
    sb = b / h.lengthscales
    sq = (
        np.sum(sa**2, axis=1)[:, None]
        + np.sum(sb**2, axis=1)[None, :]
        - 2.0 * (sa @ sb.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return h.signal_variance * np.exp(-0.5 * sq)


def _predict_batch_per_call(m, x):
    """Prediction as it was before the model kept its scaled training rows:
    the oracle for ``predict_batch``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h = m.hyperparams
    if len(m) == 0:
        return np.zeros(len(x)), np.full(len(x), h.signal_variance)
    ks = _kernel_per_call(m.transform_inputs(x), m.xt, h)
    mean_t = ks @ m.weights
    v = solve_triangular(m.chol, ks.T, lower=True)
    var_t = h.signal_variance - np.sum(v**2, axis=0)
    np.maximum(var_t, 0.0, out=var_t)
    return m.y_shift + m.y_scale * mean_t, (m.y_scale**2) * var_t


def _models_of_every_origin(seed):
    rng = np.random.default_rng(seed)
    x, y, h = random_instance(rng, n=int(rng.integers(2, 40)),
                              d=int(rng.integers(1, 5)))
    space = SearchSpace(x.min(axis=0) - 0.5, x.max(axis=0) + 0.5)
    fitted = fit(x, y, h, input_space=space, standardize=True)
    ens = fit_shared_inputs(x, np.column_stack([y, -2.0 * y + 1.0]), h,
                            input_space=space)
    empty = fit(np.zeros((0, h.dim)), np.zeros(0), h, input_space=unit_box(h.dim))
    return {
        "fit": fit(x, y, h, input_space=unit_box(h.dim)),
        "fit scaled": fitted,
        "fantasize": fantasize(fitted, x[0] + 0.1, 0.3),
        "ensemble branch": ensemble_branch_model(ens, 1),
        "empty": empty,
        "fantasized empty": fantasize(empty, x[0], 1.0),
    }, x, rng


@pytest.mark.parametrize("seed", range(6))
def test_predict_batch_equals_the_per_call_kernel_bit_for_bit(seed):
    models, x, rng = _models_of_every_origin(seed)
    for name, m in models.items():
        for rows in (1, 2, 5, 17, 150):
            q = x[rng.integers(0, len(x), rows)] + rng.normal(0, 0.3, (rows, x.shape[1]))
            for _ in range(2):  # the second call reads the kept rows
                mean, var = predict_batch(m, q)
                ref_mean, ref_var = _predict_batch_per_call(m, q)
                assert np.array_equal(mean, ref_mean), name
                assert np.array_equal(var, ref_var), name
            if len(m):
                qt = m.transform_inputs(q)
                assert np.array_equal(kernel_eval(qt, m.xt, m.hyperparams),
                                      _kernel_per_call(qt, m.xt, m.hyperparams))


def test_kept_scaled_rows_leave_model_equality_and_repr_alone():
    models, x, _ = _models_of_every_origin(0)
    m = models["fit scaled"]
    twin = dataclasses.replace(m)
    text = repr(m)
    assert "scaled_xt" not in {f.name for f in dataclasses.fields(GpModel)}
    assert m == twin
    predict_batch(m, x[:3])
    assert "scaled_xt" in vars(m) and "scaled_xt" not in vars(twin)
    assert m == twin and twin == m
    assert repr(m) == text
    sb, sb_sq = m.scaled_xt
    assert np.array_equal(sb, m.xt / m.hyperparams.lengthscales)
    assert np.array_equal(sb_sq, np.sum(sb**2, axis=1))


# -- the in-place predict path against the allocating one ------------------


def _allocating_scaled_rows(x, h):
    """``gp._scaled_rows`` as it was before it reduced with ``np.add``."""
    s = x / h.lengthscales
    return s, np.sum(s**2, axis=1)


def _allocating_kernel_scaled(a, b, h):
    """``gp._kernel_scaled`` as it was before it worked in place, verbatim."""
    (sa, sa_sq), (sb, sb_sq) = a, b
    sq = sa_sq[:, None] + sb_sq[None, :] - 2.0 * (sa @ sb.T)
    np.maximum(sq, 0.0, out=sq)
    return h.signal_variance * np.exp(-0.5 * sq)


def _allocating_predict_batch(m, x):
    """``predict_batch`` as it was before it squared in place, verbatim but
    for scaling the training rows with the oracle's helper instead of
    reading the model's kept ones."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != m.hyperparams.dim:
        raise ContractError("query dimension does not match the model")
    h = m.hyperparams
    if len(m) == 0:
        mean_t = np.zeros(len(x))
        var_t = np.full(len(x), h.signal_variance)
    else:
        ks = _allocating_kernel_scaled(_allocating_scaled_rows(m.transform_inputs(x), h),
                                       _allocating_scaled_rows(m.xt, h), h)
        mean_t = ks @ m.weights
        v = gp._solve_lower(m.chol, ks.T)
        var_t = h.signal_variance - np.sum(v**2, axis=0)
        np.maximum(var_t, 0.0, out=var_t)
    return m.y_shift + m.y_scale * mean_t, (m.y_scale**2) * var_t


@settings(max_examples=80)
@given(n=st.integers(0, 150), m=st.integers(1, 8), d=st.integers(1, 5),
       origin=st.sampled_from(["fit", "fit scaled", "fantasize", "ensemble branch"]),
       seed=st.integers(0, 2**16))
@example(n=0, m=1, d=1, origin="fit", seed=0)
@example(n=150, m=8, d=5, origin="fit scaled", seed=1)
def test_predict_batch_equals_the_allocating_path_bit_for_bit(n, m, d, origin, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, d))
    y = rng.normal(size=n)
    h = KernelHyperparams(float(rng.uniform(0.3, 3.0)), rng.uniform(0.05, 2.0, size=d),
                          float(rng.uniform(1e-6, 0.3)))
    space = SearchSpace(np.full(d, -2.5), np.full(d, 2.5))
    if origin == "fit":
        model = fit(x, y, h, input_space=unit_box(h.dim))
    elif origin == "fit scaled":
        model = fit(x, y, h, input_space=space, standardize=True)
    elif origin == "fantasize":
        model = fantasize(fit(x, y, h, input_space=space, standardize=True),
                          rng.uniform(-2, 2, size=d), 0.3)
    else:
        ens = fit_shared_inputs(x, np.column_stack([y, 1.0 - 2.0 * y]), h,
                                input_space=space)
        model = ensemble_branch_model(ens, 1)
    # queries near the data, far from it, and on a training row
    q = rng.uniform(-3, 3, size=(m, d))
    if n:
        q[0] = x[0]
    for _ in range(2):  # the second call reads the kept training rows
        mean, var = predict_batch(model, q)
        ref_mean, ref_var = _allocating_predict_batch(model, q)
        assert mean.tobytes() == ref_mean.tobytes() and var.tobytes() == ref_var.tobytes()
    rows = model.scaled_xt
    ref_rows = _allocating_scaled_rows(model.xt, h)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(rows, ref_rows))
    qt = model.transform_inputs(q)
    for a, b in ((qt, model.xt), (model.xt, model.xt), (qt, qt)):
        assert (kernel_eval(a, b, h).tobytes()
                == _allocating_kernel_scaled(_allocating_scaled_rows(a, h),
                                             _allocating_scaled_rows(b, h), h).tobytes())
