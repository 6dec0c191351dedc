"""Optimizer tests: DIRECT search, L-BFGS refinement, and their composition.

Expected values come from closed forms (Branin's optimum, quadratic peaks,
boundary projections), not from the implementation under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as _scipy_minimize

from fcps import gp, optim
from fcps.errors import ContractError
from fcps.optim import SearchSpace, direct_maximize, global_then_local, lbfgs_refine

BRANIN_MAX = -0.397887  # negated Branin global minimum


def neg_branin(x):
    a, b, c = 1.0, 5.1 / (4 * np.pi**2), 5.0 / np.pi
    r, s, t = 6.0, 10.0, 1.0 / (8 * np.pi)
    x1, x2 = x[0], x[1]
    return -(a * (x2 - b * x1**2 + c * x1 - r) ** 2 + s * (1 - t) * np.cos(x1) + s)


# ---------------------------------------------------------------------------
# SearchSpace
# ---------------------------------------------------------------------------


def test_space_rejects_bad_bounds():
    with pytest.raises(ContractError):
        SearchSpace([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ContractError):
        SearchSpace([0.0], [np.inf])
    with pytest.raises(ContractError):
        SearchSpace([0.0, 0.0], [1.0])


def test_space_unit_round_trip():
    rng = np.random.default_rng(0)
    space = SearchSpace([-3.0, 2.0, 0.1], [4.0, 7.0, 0.2])
    x = space.sample_uniform(50, rng)
    assert np.all(space.contains(x))
    back = space.from_unit((x - space.lower) / space.span)
    assert np.allclose(back, x, atol=1e-12)


def test_space_latin_sample_stratified():
    rng = np.random.default_rng(3)
    space = SearchSpace([0.0, -1.0], [1.0, 1.0])
    pts = space.sample_latin(20, rng)
    assert np.all(space.contains(pts))
    # exactly one point per stratum along each axis
    for j in range(2):
        u = (pts[:, j] - space.lower[j]) / space.span[j]
        counts = np.bincount(np.floor(u * 20).astype(int), minlength=20)
        assert np.all(counts == 1)


def test_space_concat():
    a = SearchSpace([0.0], [1.0])
    b = SearchSpace([-2.0, 5.0], [2.0, 6.0])
    ab = a.concat(b)
    assert ab.dim == 3
    assert np.allclose(ab.lower, [0.0, -2.0, 5.0])
    assert np.allclose(ab.upper, [1.0, 2.0, 6.0])


# ---------------------------------------------------------------------------
# DIRECT
# ---------------------------------------------------------------------------


def test_direct_requires_budget():
    space = SearchSpace([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ContractError):
        direct_maximize(lambda x: 0.0, space, max_evals=4)


def test_direct_1d_quadratic():
    space = SearchSpace([0.0], [1.0])
    x, val = direct_maximize(lambda p: -((p[0] - 0.3) ** 2), space, max_evals=200)
    assert abs(x[0] - 0.3) <= 1e-3
    assert val <= 0.0


def test_direct_constant_objective_returns_center():
    space = SearchSpace([-2.0, 1.0], [4.0, 3.0])
    calls = []

    def f(x):
        calls.append(1)
        return 7.5

    x, val = direct_maximize(f, space, max_evals=40)
    assert len(calls) <= 40
    assert np.allclose(x, [1.0, 2.0], atol=1e-12)
    assert val == 7.5


def test_direct_budget_respected():
    space = SearchSpace([0.0, 0.0], [1.0, 1.0])
    count = {"n": 0}

    def f(x):
        count["n"] += 1
        return float(np.sin(5 * x[0]) + x[1])

    direct_maximize(f, space, max_evals=123)
    assert count["n"] <= 123


def test_direct_non_finite_treated_as_minus_inf():
    space = SearchSpace([0.0], [1.0])

    def f(x):
        if x[0] > 0.6:
            return np.nan
        return -((x[0] - 0.3) ** 2)

    x, _ = direct_maximize(f, space, max_evals=150)
    assert abs(x[0] - 0.3) <= 5e-3


def test_direct_branin():
    space = SearchSpace([-5.0, 0.0], [10.0, 15.0])
    count = {"n": 0}

    def f(x):
        count["n"] += 1
        return neg_branin(x)

    x, val = direct_maximize(f, space, max_evals=2000)
    assert count["n"] <= 2000
    assert abs(val - BRANIN_MAX) <= 1e-2


def test_direct_deterministic():
    space = SearchSpace([-5.0, 0.0], [10.0, 15.0])
    r1 = direct_maximize(neg_branin, space, max_evals=600)
    r2 = direct_maximize(neg_branin, space, max_evals=600)
    assert np.array_equal(r1[0], r2[0])
    assert r1[1] == r2[1]


def test_direct_vectorized_matches_scalar():
    space = SearchSpace([-5.0, 0.0], [10.0, 15.0])

    def fvec(pts):
        return np.array([neg_branin(p) for p in pts])

    r1 = direct_maximize(neg_branin, space, max_evals=500)
    r2 = direct_maximize(fvec, space, max_evals=500, vectorized=True)
    assert np.array_equal(r1[0], r2[0])
    assert r1[1] == r2[1]


# ---------------------------------------------------------------------------
# L-BFGS refinement
# ---------------------------------------------------------------------------


def test_lbfgs_concave_quadratic_gradient_norm():
    # smooth concave objective; optimum strictly inside the box
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    c = np.array([0.2, -0.4])
    space = SearchSpace([-1.0, -1.0], [1.0, 1.0])

    def f(x):
        d = x - c
        return -float(d @ A @ d)

    def grad(x):
        return -2.0 * (A @ (x - c))

    x, val = lbfgs_refine(f, space, np.array([0.9, 0.9]), max_iters=50, grad=grad)
    assert np.max(np.abs(grad(x))) <= 1e-6
    assert abs(val) <= 1e-10


def test_lbfgs_finite_difference_route():
    c = np.array([0.1, 0.3, -0.2])
    space = SearchSpace([-1.0] * 3, [1.0] * 3)

    def f(x):
        return -float(np.sum((x - c) ** 2))

    x, val = lbfgs_refine(f, space, np.array([0.8, -0.8, 0.5]), max_iters=100)
    assert np.allclose(x, c, atol=1e-4)
    assert val >= -1e-7


def test_lbfgs_never_worse_than_start():
    # adversarial objective with a kink; start at its maximum
    space = SearchSpace([0.0], [1.0])

    def f(x):
        return -abs(x[0] - 0.5)

    x, val = lbfgs_refine(f, space, np.array([0.5]), max_iters=30)
    assert val >= f(np.array([0.5])) - 1e-12


def test_lbfgs_boundary_projection():
    # peak outside the box: constrained maximizer is the clipped peak
    c = np.array([2.0, -3.0])
    space = SearchSpace([-1.0, -1.0], [1.0, 1.0])

    def f(x):
        return -float(np.sum((x - c) ** 2))

    x, val = lbfgs_refine(f, space, np.array([0.0, 0.0]), max_iters=100)
    expected = space.clip(c)
    assert np.allclose(x, expected, atol=1e-6)
    assert abs(val - f(expected)) <= 1e-8


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_global_then_local_beats_direct_alone():
    space = SearchSpace([-5.0, 0.0], [10.0, 15.0])
    _, direct_val = direct_maximize(neg_branin, space, max_evals=400)
    _, combined_val = global_then_local(neg_branin, space, direct_evals=400,
                                        refine_starts=3, refine_iters=60)
    assert combined_val >= direct_val
    assert abs(combined_val - BRANIN_MAX) <= 1e-4


def test_global_then_local_multimodal_1d():
    # two peaks; the refined result must find the higher one
    space = SearchSpace([0.0], [1.0])

    def f(x):
        t = x[0]
        return float(np.exp(-200 * (t - 0.2) ** 2) + 1.4 * np.exp(-200 * (t - 0.8) ** 2))

    x, val = global_then_local(f, space, direct_evals=300, refine_starts=3,
                               refine_iters=50)
    assert abs(x[0] - 0.8) <= 1e-3
    assert abs(val - 1.4) <= 1e-6


# ---------------------------------------------------------------------------
# DIRECT against the list-based search it replaced
# ---------------------------------------------------------------------------


class _ListDirectState:
    """The list-based DIRECT bookkeeping, kept verbatim as the oracle."""

    def __init__(self, dim: int):
        self.dim = dim
        self.centers: list[np.ndarray] = []
        self.levels: list[np.ndarray] = []  # trisection counts per dimension
        self.values: list[float] = []
        self.evals = 0
        self.best_index = 0

    @property
    def best_value(self) -> float:
        return self.values[self.best_index]

    @property
    def best_center(self) -> np.ndarray:
        return self.centers[self.best_index]

    def measures(self) -> np.ndarray:
        lev = np.array(self.levels)
        return 0.5 * np.sqrt(np.sum(9.0 ** (-lev.astype(float)), axis=1))

    def ranked_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Centers and values ordered by decreasing value (stable)."""
        vals = np.array(self.values)
        order = np.argsort(-vals, kind="stable")
        return np.array(self.centers)[order], vals[order]


def _list_potentially_optimal(state: _ListDirectState) -> list[int]:
    d = state.measures()
    vals = np.array(state.values)
    lev = np.array(state.levels)
    splittable = lev.min(axis=1) < optim._MIN_LEVEL
    if not splittable.any():
        return []

    keys = np.round(d, 14)
    reps: dict[float, int] = {}
    for i in np.flatnonzero(splittable):
        k = keys[i]
        j = reps.get(k)
        if j is None or vals[i] > vals[j]:
            reps[k] = int(i)
    sizes = sorted(reps)
    idx = [reps[k] for k in sizes]
    f = vals[idx]
    dd = d[idx]
    f_max = vals.max()
    threshold = f_max + optim._PO_EPSILON * abs(f_max) if np.isfinite(f_max) else f_max

    chosen = []
    for j in range(len(idx)):
        k_lo = 0.0
        for i in range(j):
            k_lo = max(k_lo, (f[i] - f[j]) / (dd[j] - dd[i]))
        k_hi = np.inf
        for i in range(j + 1, len(idx)):
            k_hi = min(k_hi, (f[j] - f[i]) / (dd[i] - dd[j]))
        if k_hi < k_lo or k_hi <= 0.0:
            continue
        bound = f[j] + k_hi * dd[j] if np.isfinite(k_hi) else np.inf
        if bound >= threshold:
            chosen.append(idx[j])
    return chosen


def _list_direct_search(f_batch, dim: int, max_evals: int) -> _ListDirectState:
    state = _ListDirectState(dim)
    center = np.full(dim, 0.5)
    v = f_batch(center[None, :])[0]
    if not np.isfinite(v):
        v = -np.inf
    state.centers.append(center)
    state.levels.append(np.zeros(dim, dtype=np.int64))
    state.values.append(float(v))
    state.evals = 1

    while state.evals + 2 <= max_evals:
        chosen = _list_potentially_optimal(state)
        if not chosen:
            break
        budget_pairs = (max_evals - state.evals) // 2
        chosen = chosen[:budget_pairs]

        new_points = []
        split_dims = []
        for i in chosen:
            lev = state.levels[i]
            side_dim = int(np.argmin(lev))  # longest side; ties -> lowest index
            delta = 3.0 ** (-(lev[side_dim] + 1))
            c = state.centers[i]
            lo_pt = c.copy()
            lo_pt[side_dim] -= delta
            hi_pt = c.copy()
            hi_pt[side_dim] += delta
            new_points.extend([lo_pt, hi_pt])
            split_dims.append(side_dim)

        vals = f_batch(np.array(new_points))
        bad = ~np.isfinite(vals)
        if bad.any():
            vals = np.where(bad, -np.inf, vals)

        for pair, (i, side_dim) in enumerate(zip(chosen, split_dims)):
            new_level = state.levels[i].copy()
            new_level[side_dim] += 1
            state.levels[i] = new_level
            for k in range(2):
                state.centers.append(new_points[2 * pair + k])
                state.levels.append(new_level.copy())
                state.values.append(float(vals[2 * pair + k]))
                state.evals += 1
                if state.values[-1] > state.best_value:
                    state.best_index = len(state.values) - 1
    return state


def _objective(kind: str, dim: int, seed: int):
    """Deterministic (m, dim) -> (m,) test objectives on the unit cube."""
    rng = np.random.default_rng(seed)
    freq = rng.uniform(1.0, 9.0, size=(3, dim))
    phase = rng.uniform(0.0, 2 * np.pi, size=3)
    weight = rng.normal(size=3)

    def smooth(u):
        return np.cos(u @ freq.T + phase) @ weight

    if kind == "smooth":
        return smooth
    if kind == "coarse":  # few integer levels: many exact ties
        return lambda u: np.floor(2.0 * smooth(u))
    if kind == "constant":
        value = float(rng.integers(-3, 4))
        return lambda u: np.full(len(u), value)
    if kind == "holes":  # -inf and NaN regions around a smooth landscape
        cut = rng.uniform(0.2, 0.8, size=2)

        def holes(u):
            out = np.floor(4.0 * smooth(u)) / 4.0
            out[u[:, 0] > cut[0]] = -np.inf
            out[u[:, -1] < cut[1] - 0.5] = np.nan
            return out
        return holes
    if kind == "mostly_inf":  # finite only inside a small box
        lo = rng.uniform(0.0, 0.7, size=dim)

        def mostly_inf(u):
            inside = np.all((u >= lo) & (u <= lo + 0.3), axis=1)
            return np.where(inside, smooth(u), -np.inf)
        return mostly_inf
    raise ValueError(kind)


def _recorded(f):
    calls = []

    def f_batch(u):
        calls.append(np.array(u, copy=True))
        return f(u)
    return f_batch, calls


def _canonical_levels(counts, dim: int) -> np.ndarray:
    """Trisection levels per dimension after each number of splits, each
    split taking the lowest level, lowest dimension first, as the
    list-based search splits."""
    counts = np.asarray(counts)
    table = np.zeros((int(counts.max(initial=0)) + 1, dim), dtype=np.int64)
    for t in range(1, len(table)):
        table[t] = table[t - 1]
        table[t, np.argmin(table[t])] += 1
    return table[counts]


def _assert_same_search(f, dim: int, budget: int):
    new_batch, new_calls = _recorded(f)
    old_batch, old_calls = _recorded(f)
    new = optim._direct_search(new_batch, dim, budget)
    old = _list_direct_search(old_batch, dim, budget)
    assert len(new_calls) == len(old_calls)
    for a, b in zip(new_calls, old_calls):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert new.n == old.evals <= budget
    assert new.best_index == old.best_index
    assert new.best_value == old.best_value or (
        np.isneginf(new.best_value) and np.isneginf(old.best_value))
    assert np.array_equal(new.best_center, old.best_center)
    for a, b in zip(new.ranked_centers(), old.ranked_centers()):
        assert np.array_equal(a, b)
    old_levels = np.array(old.levels)
    # every level vector the oracle makes is the one its split count implies
    assert np.array_equal(old_levels, _canonical_levels(old_levels.sum(axis=1), dim))
    assert np.array_equal(_canonical_levels(new.counts[:new.n], dim), old_levels)
    assert np.array_equal(new.measure_of[new.counts[:new.n]], old.measures())
    return new


@settings(max_examples=120)
@given(dim=st.integers(1, 4),
       budget=st.integers(1, 199).map(lambda k: 2 * k + 1),
       kind=st.sampled_from(["smooth", "coarse", "constant", "holes",
                             "mostly_inf"]),
       seed=st.integers(0, 2**16))
def test_direct_search_matches_the_list_based_search(dim, budget, kind, seed):
    _assert_same_search(_objective(kind, dim, seed), dim, budget)


@pytest.mark.parametrize("kind", ["smooth", "coarse", "holes"])
def test_direct_search_matches_in_six_dimensions(kind):
    _assert_same_search(_objective(kind, 6, 7), 6, 601)


def test_direct_search_matches_when_a_rectangle_reaches_the_minimum_size():
    state = _assert_same_search(lambda u: -np.abs(u[:, 0] - 0.5), 1, 399)
    assert state.counts[:state.n].max() == optim._MIN_LEVEL  # one dimension
    assert not state.splittable_of[state.counts[state.best_index]]


def test_direct_search_matches_with_a_non_finite_center():
    # every value -inf: the search still spends its budget
    state = _assert_same_search(lambda u: np.full(len(u), np.nan), 2, 41)
    assert state.n == 41


def test_direct_search_recovers_from_a_non_finite_center_alone():
    smooth = _objective("smooth", 2, 3)

    def f(u):
        out = smooth(u)
        out[np.all(u == 0.5, axis=1)] = np.nan
        return out

    state = _assert_same_search(f, 2, 41)
    assert state.n == 41
    assert np.isfinite(state.best_value)
    assert state.best_index > 0


@pytest.mark.parametrize("dim", range(1, 13))
def test_count_tables_equal_the_per_row_formula(dim):
    measures, keys, splittable = optim._count_tables(dim)
    counts = np.arange(optim._MIN_LEVEL * dim + 1)
    levels = _canonical_levels(counts, dim)

    def formula(lev):  # the per-row expression the tables replaced
        return 0.5 * np.sqrt(np.sum(9.0 ** (-lev.astype(float)), axis=1))

    whole = formula(levels)
    assert np.array_equal(measures, whole)
    assert all(formula(levels[t:t + 1])[0] == measures[t] for t in counts)
    assert np.array_equal(keys, np.round(whole, 14))
    assert np.array_equal(splittable, levels.min(axis=1) < optim._MIN_LEVEL)
    # the last count is the first that is never split, so none lies beyond
    assert splittable[:-1].all() and not splittable[-1]


def test_trisection_offsets_equal_the_scalar_powers():
    for level in range(optim._MIN_LEVEL + 1):
        assert optim._THIRDS[level] == 3.0 ** (-(np.int64(level) + 1))


# ---------------------------------------------------------------------------
# L-BFGS refinement against the version that scored points more than once
# ---------------------------------------------------------------------------


def _lbfgs_refine_rescoring(f, space: SearchSpace, x0, max_iters: int = 100, *,
                            grad=None, vectorized: bool = False):
    """``lbfgs_refine`` as it was before it kept its single-point scores,
    verbatim: the oracle for its bits."""
    if max_iters < 1:
        raise ContractError("max_iters must be positive")
    batch = optim._as_batch(f, vectorized)
    x0 = space.clip(x0)
    if x0.shape != (space.dim,):
        raise ContractError("x0 dimension does not match the search space")
    f0 = float(batch(x0[None, :])[0])

    if grad is None:
        jac = lambda x: -optim._central_gradient(batch, x, space)
    else:
        jac = lambda x: -np.asarray(grad(x), dtype=float)

    res = _scipy_minimize(
        lambda x: -float(batch(x[None, :])[0]),
        x0,
        jac=jac,
        method="L-BFGS-B",
        bounds=list(zip(space.lower, space.upper)),
        options={"maxiter": max_iters, "maxcor": 10},
    )
    x = space.clip(res.x)
    val = float(batch(x[None, :])[0])
    if not np.isfinite(val) or val < f0:
        return x0, f0
    return x, val


def _ucb_on_a_model(seed: int):
    """A GP-UCB objective on a fitted model, as the learners maximize."""
    rng = np.random.default_rng(seed)
    space = SearchSpace([-1.0, 0.0, 2.0], [1.0, 3.0, 2.5])
    x = space.sample_uniform(25, rng)
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2]
    model = gp.fit(x, y, gp.KernelHyperparams(1.0, [0.5, 1.0, 0.3], 1e-3),
                   input_space=space, standardize=True)

    def ucb(pts):
        mean, var = gp.predict_batch(model, pts)
        return mean + 2.0 * np.sqrt(var)
    return ucb, space, space.sample_uniform(1, rng)[0]


def _refine_cases():
    """``(f, space, x0, vectorized, keywords)`` for each refinement case."""
    quad_c = np.array([0.1, 0.3, -0.2])
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    box2 = SearchSpace([-1.0] * 2, [1.0] * 2)

    def holes(x):  # NaN past x[0] = 0.4, where the ascent heads
        return np.nan if x[0] > 0.4 else -float((x[0] - 0.7) ** 2 + x[1] ** 2)

    cases = [(*_ucb_on_a_model(seed), True, {}) for seed in range(3)]
    cases += [
        (lambda x: -float(np.sum((x - quad_c) ** 2)), SearchSpace([-1.0] * 3, [1.0] * 3),
         np.array([0.8, -0.8, 0.5]), False, {}),
        (lambda x: -float(np.sum((x - [2.0, -3.0]) ** 2)), box2, np.zeros(2), False, {}),
        (lambda x: -abs(x[0] - 0.5), SearchSpace([0.0], [1.0]), np.array([0.5]), False,
         {"max_iters": 30}),
        (holes, SearchSpace([0.0, -1.0], [1.0, 1.0]), np.array([0.3, 0.6]), False, {}),
        (lambda x: -float((x - 0.2) @ A @ (x - 0.2)), box2, np.array([0.9, 0.9]), False,
         {"grad": lambda x: -2.0 * (A @ (x - 0.2))}),
    ]
    return cases


def _single_points(batch):
    """``batch``, recording the bytes of every point scored alone (the
    finite-difference gradient's rows come 2 * dim at a time)."""
    seen = []

    def recorded(pts):
        if len(pts) == 1:
            seen.append(pts[0].tobytes())
        return batch(pts)
    return recorded, seen


@pytest.mark.parametrize("case", range(8))
def test_lbfgs_refine_equals_the_rescoring_version_and_scores_each_point_once(case):
    f, space, x0, vectorized, kw = _refine_cases()[case]
    batch = optim._as_batch(f, vectorized)
    new_f, new_seen = _single_points(batch)
    old_f, old_seen = _single_points(batch)
    x, val = lbfgs_refine(new_f, space, x0, vectorized=True, **kw)
    ref_x, ref_val = _lbfgs_refine_rescoring(old_f, space, x0, vectorized=True, **kw)
    assert np.array_equal(x, ref_x) and val == ref_val
    assert len(set(new_seen)) == len(new_seen)
    assert set(new_seen) == set(old_seen) and len(new_seen) < len(old_seen)
    x, val = lbfgs_refine(f, space, x0, vectorized=vectorized, **kw)
    assert np.array_equal(x, ref_x) and val == ref_val
