"""Optimizer tests: DIRECT search, L-BFGS refinement, and their composition.

Expected values come from closed forms (Branin's optimum, quadratic peaks,
boundary projections), not from the implementation under test.
"""

import heapq
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as _scipy_minimize

from fcps import gp, optim
from fcps.errors import ContractError
from fcps.optim import SearchSpace, direct_maximize, global_then_local, lbfgs_refine

from conftest import rowwise

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
    assert np.array_equal(space.clip(x), x)
    back = space.from_unit((x - space.lower) / space.span)
    assert np.allclose(back, x, atol=1e-12)


def test_space_contains_points_a_rounding_error_outside():
    space = SearchSpace([0.0, -1.0], [1.0, 1.0])
    assert space.contains([1.0 + 1e-10, -1.0 - 1e-10])
    assert not space.contains([1.0 + 1e-8, 0.0])
    assert list(space.contains([[0.5, 0.0], [0.5, -1.0 - 1e-8]])) == [True, False]


def test_space_latin_sample_stratified():
    rng = np.random.default_rng(3)
    space = SearchSpace([0.0, -1.0], [1.0, 1.0])
    pts = space.sample_latin(20, rng)
    assert np.array_equal(space.clip(pts), pts)
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
        direct_maximize(rowwise(lambda x: 0.0), space, max_evals=4)


def test_direct_1d_quadratic():
    space = SearchSpace([0.0], [1.0])
    x, val = direct_maximize(rowwise(lambda p: -((p[0] - 0.3) ** 2)), space, max_evals=200)
    assert abs(x[0] - 0.3) <= 1e-3
    assert val <= 0.0


def test_direct_constant_objective_returns_center():
    space = SearchSpace([-2.0, 1.0], [4.0, 3.0])
    calls = []

    def f(x):
        calls.append(1)
        return 7.5

    x, val = direct_maximize(rowwise(f), space, max_evals=40)
    assert len(calls) <= 40
    assert np.allclose(x, [1.0, 2.0], atol=1e-12)
    assert val == 7.5


def test_direct_budget_respected():
    space = SearchSpace([0.0, 0.0], [1.0, 1.0])
    count = {"n": 0}

    def f(x):
        count["n"] += 1
        return float(np.sin(5 * x[0]) + x[1])

    direct_maximize(rowwise(f), space, max_evals=123)
    assert count["n"] <= 123


def test_direct_non_finite_treated_as_minus_inf():
    space = SearchSpace([0.0], [1.0])

    def f(x):
        if x[0] > 0.6:
            return np.nan
        return -((x[0] - 0.3) ** 2)

    x, _ = direct_maximize(rowwise(f), space, max_evals=150)
    assert abs(x[0] - 0.3) <= 5e-3


def test_direct_branin():
    space = SearchSpace([-5.0, 0.0], [10.0, 15.0])
    count = {"n": 0}

    def f(x):
        count["n"] += 1
        return neg_branin(x)

    x, val = direct_maximize(rowwise(f), space, max_evals=2000)
    assert count["n"] <= 2000
    assert abs(val - BRANIN_MAX) <= 1e-2


def test_direct_deterministic():
    space = SearchSpace([-5.0, 0.0], [10.0, 15.0])
    r1 = direct_maximize(rowwise(neg_branin), space, max_evals=600)
    r2 = direct_maximize(rowwise(neg_branin), space, max_evals=600)
    assert np.array_equal(r1[0], r2[0])
    assert r1[1] == r2[1]


# ---------------------------------------------------------------------------
# L-BFGS refinement
# ---------------------------------------------------------------------------


def test_lbfgs_concave_quadratic_gradient_norm():
    # smooth concave objective; optimum strictly inside the box, reached by
    # central differences
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    c = np.array([0.2, -0.4])
    space = SearchSpace([-1.0, -1.0], [1.0, 1.0])

    def f(x):
        d = x - c
        return -float(d @ A @ d)

    def grad(x):
        return -2.0 * (A @ (x - c))

    x, val = lbfgs_refine(rowwise(f), space, np.array([0.9, 0.9]), max_iters=50)
    assert np.max(np.abs(grad(x))) <= 1e-6
    assert abs(val) <= 1e-10


def test_lbfgs_finite_difference_route():
    c = np.array([0.1, 0.3, -0.2])
    space = SearchSpace([-1.0] * 3, [1.0] * 3)

    def f(x):
        return -float(np.sum((x - c) ** 2))

    x, val = lbfgs_refine(rowwise(f), space, np.array([0.8, -0.8, 0.5]), max_iters=100)
    assert np.allclose(x, c, atol=1e-4)
    assert val >= -1e-7


def test_lbfgs_never_worse_than_start():
    # adversarial objective with a kink; start at its maximum
    space = SearchSpace([0.0], [1.0])

    def f(x):
        return -abs(x[0] - 0.5)

    x, val = lbfgs_refine(rowwise(f), space, np.array([0.5]), max_iters=30)
    assert val >= f(np.array([0.5])) - 1e-12


def test_lbfgs_boundary_projection():
    # peak outside the box: constrained maximizer is the clipped peak
    c = np.array([2.0, -3.0])
    space = SearchSpace([-1.0, -1.0], [1.0, 1.0])

    def f(x):
        return -float(np.sum((x - c) ** 2))

    x, val = lbfgs_refine(rowwise(f), space, np.array([0.0, 0.0]), max_iters=100)
    expected = space.clip(c)
    assert np.allclose(x, expected, atol=1e-6)
    assert abs(val - f(expected)) <= 1e-8


def test_lbfgs_checks_the_start_shape_before_clipping():
    # clipping broadcasts a 1-vector over the box and rejects a 2-vector
    # with numpy's own error, so the start is checked as given
    space = SearchSpace([0.0] * 3, [1.0] * 3)
    calls = []

    def f(x):
        calls.append(x)
        return -float(np.sum(x ** 2))

    for x0 in ([0.5], [0.5, 0.5], [[0.5, 0.5, 0.5]]):
        with pytest.raises(ContractError):
            lbfgs_refine(rowwise(f), space, x0, max_iters=100)
    assert not calls
    x, _ = lbfgs_refine(rowwise(f), space, [0.5, 0.5, 2.0], max_iters=5)
    assert x.shape == (3,)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_global_then_local_beats_direct_alone():
    space = SearchSpace([-5.0, 0.0], [10.0, 15.0])
    _, direct_val = direct_maximize(rowwise(neg_branin), space, max_evals=400)
    _, combined_val = global_then_local(rowwise(neg_branin), space, direct_evals=400,
                                        refine_starts=3, refine_iters=60)
    assert combined_val >= direct_val
    assert abs(combined_val - BRANIN_MAX) <= 1e-4


def test_global_then_local_multimodal_1d():
    # two peaks; the refined result must find the higher one
    space = SearchSpace([0.0], [1.0])

    def f(x):
        t = x[0]
        return float(np.exp(-200 * (t - 0.2) ** 2) + 1.4 * np.exp(-200 * (t - 0.8) ** 2))

    x, val = global_then_local(rowwise(f), space, direct_evals=300, refine_starts=3,
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
    assert np.array_equal(np.array(new.centers), np.array(old.centers))
    assert np.array_equal(np.array(new.values), np.array(old.values))
    for count in range(1, 5):
        assert np.array_equal(np.array(optim._refine_starts(new, count)),
                              np.array(_argsort_refine_starts(old, count)))
    old_levels = np.array(old.levels)
    # every level vector the oracle makes is the one its split count implies
    assert np.array_equal(old_levels, _canonical_levels(old_levels.sum(axis=1), dim))
    assert np.array_equal(_canonical_levels(new.counts, dim), old_levels)
    assert np.array_equal(np.asarray(new.measures)[new.counts], old.measures())
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
    assert max(state.counts) == optim._MIN_LEVEL  # one dimension
    assert not state.splittable[state.counts[state.best_index]]


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
    measures, keys, splittable = map(np.asarray, optim._count_tables(dim))
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
# DIRECT's class heaps against the sort-based selection they replaced
# ---------------------------------------------------------------------------


def _lexsort_potentially_optimal(state) -> np.ndarray:
    """``optim._potentially_optimal`` as it was before the size classes were
    kept in heaps, verbatim but for wrapping the count tables and the state's
    lists as arrays: the oracle for the selection on a state."""
    _PO_EPSILON = optim._PO_EPSILON
    n = state.n
    counts = np.asarray(state.counts[:n])
    measure_of, key_of, splittable_of = map(np.asarray, (
        state.measures, state.keys, state.splittable))
    candidates = np.flatnonzero(splittable_of[counts])
    if candidates.size == 0:
        return candidates
    vals = np.asarray(state.values[:n])
    keys = key_of[counts[candidates]]
    # by size class, then best value first; the stable sort keeps the
    # lowest index first among equal values
    order = np.lexsort((-vals[candidates], keys))
    sorted_keys = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    idx = candidates[order[first]]
    f = vals[idx]
    dd = measure_of[counts[idx]]
    f_max = vals.max()
    # every value so far -inf: the margin would make the threshold NaN
    threshold = f_max + _PO_EPSILON * abs(f_max) if np.isfinite(f_max) else f_max

    with np.errstate(divide="ignore", invalid="ignore"):
        # slope[j, i] = (f[i] - f[j]) / (dd[j] - dd[i]); its transpose holds
        # the slopes toward larger classes
        slope = (f[None, :] - f[:, None]) / (dd[:, None] - dd[None, :])
        smaller = np.tri(idx.size, k=-1, dtype=bool)  # [j, i]: i < j
        k_lo = np.fmax.reduce(np.where(smaller, slope, 0.0), axis=1)
        k_hi = np.fmin.reduce(np.where(smaller, slope, np.inf), axis=0)
        bound = np.where(np.isfinite(k_hi), f + k_hi * dd, np.inf)
    keep = (k_hi >= k_lo) & (k_hi > 0.0) & (bound >= threshold)
    return idx[keep]


def _checked_selections(monkeypatch, f, dim: int, budget: int):
    """Run the search with every selection compared to the oracle's on the
    same state; returns the final state and the selections made."""
    heap_select = optim._potentially_optimal
    selections = []

    def compared(state):
        chosen = heap_select(state)
        assert chosen == _lexsort_potentially_optimal(state).tolist()
        # the heaps hold exactly the splittable rows, each under its key
        filed = sorted(row for heap in state.heaps.values() for _, row in heap)
        assert filed == [row for row in range(state.n)
                         if state.splittable[state.counts[row]]]
        for key, heap in state.heaps.items():
            assert heap and all(state.keys[state.counts[row]] == key
                                and -neg == state.values[row] for neg, row in heap)
        selections.append((state.n, chosen))
        return chosen

    monkeypatch.setattr(optim, "_potentially_optimal", compared)
    return optim._direct_search(f, dim, budget), selections


def _truncated(selections, budget: int) -> bool:
    return any(len(chosen) > (budget - n) // 2 for n, chosen in selections)


@settings(max_examples=80)
@given(dim=st.integers(1, 4),
       budget=st.integers(1, 199).map(lambda k: 2 * k + 1),
       kind=st.sampled_from(["smooth", "coarse", "constant", "holes",
                             "mostly_inf"]),
       seed=st.integers(0, 2**16))
def test_heap_selection_equals_the_lexsort_selection(dim, budget, kind, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _checked_selections(monkeypatch, _objective(kind, dim, seed), dim, budget)


def test_heap_selection_equals_it_when_choices_are_truncated(monkeypatch):
    # a coarse landscape picks many classes at once; the budget cuts them
    budget = 41
    _, selections = _checked_selections(monkeypatch, _objective("coarse", 3, 5), 3,
                                        budget)
    assert _truncated(selections, budget)


def test_heap_selection_equals_it_on_merged_size_classes(monkeypatch):
    # rounding the half-diagonals to 3 decimals puts every count from 7 on
    # in one 1-d size class, so a class holds rectangles of several sizes
    tables = optim._count_tables(1)
    merged = (tables[0], tuple(np.round(tables[0], 3).tolist()), tables[2])
    monkeypatch.setattr(optim, "_count_tables", lambda dim: merged)
    state, selections = _checked_selections(
        monkeypatch, lambda u: -np.abs(u[:, 0] - 0.5), 1, 399)
    counts = np.asarray(state.counts)
    assert counts.max() == optim._MIN_LEVEL
    assert len(set(counts[np.asarray(merged[1])[counts] == 0.0].tolist())) > 1
    assert len(state.heaps[0.0]) > 1


# ---------------------------------------------------------------------------
# DIRECT on Python lists against the array-based state it replaced
# ---------------------------------------------------------------------------

# the oracle's trisection offsets, as the array-based state indexed them
_ARRAY_THIRDS = np.array([3.0 ** -(np.int64(level) + 1)
                          for level in range(optim._MIN_LEVEL + 1)])


class _ArrayDirectState:
    """``optim._DirectState`` as it was when it kept numpy arrays
    preallocated to the evaluation budget, verbatim: the oracle for the
    list-based state."""

    def __init__(self, dim: int, capacity: int):
        self.n = 0
        self.dim = dim
        self.centers = np.empty((capacity, dim))
        self.counts = np.empty(capacity, dtype=np.int64)
        self.values = np.empty(capacity)
        self.best_index = 0
        self.measures, self.keys, self.splittable = optim._count_tables(dim)
        self.heaps: dict[float, list[tuple[float, int]]] = {}

    @property
    def best_value(self) -> float:
        return float(self.values[self.best_index])

    @property
    def best_center(self) -> np.ndarray:
        return self.centers[self.best_index]

    def _push(self, rows, counts, neg_values) -> None:
        """File rectangles under the size class of their split counts."""
        keys, splittable = self.keys, self.splittable
        for row, count, neg in zip(rows, counts, neg_values):
            if splittable[count]:
                heapq.heappush(self.heaps.setdefault(keys[count], []), (neg, row))

    def add(self, centers: np.ndarray, counts: np.ndarray, values: np.ndarray) -> None:
        """Append rectangles; the incumbent moves only on strict improvement,
        to the first of equal best values."""
        start, m = self.n, len(values)
        rows = slice(start, start + m)
        self.centers[rows] = centers
        self.counts[rows] = counts
        self.values[rows] = values
        self.n = start + m
        j = int(np.argmax(values))
        if start == 0 or values[j] > self.values[self.best_index]:
            self.best_index = start + j
        self._push(range(start, start + m), counts.tolist(), (-values).tolist())

    def split(self, chosen: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Trisect each chosen rectangle, the top of its class's heap, along
        its longest side (lowest dimension on ties); returns the two new
        centers per rectangle, low side first, and their split counts.

        Every chosen rectangle leaves its heap before any goes back under
        its new count: a split one may move to the class of another chosen
        rectangle and outrank it there.
        """
        counts = self.counts[chosen]
        neg_values = []
        for count in counts.tolist():
            key = self.keys[count]
            heap = self.heaps[key]
            neg_values.append(heapq.heappop(heap)[0])
            if not heap:
                del self.heaps[key]
        side = counts % self.dim
        delta = _ARRAY_THIRDS[counts // self.dim]
        counts += 1
        self.counts[chosen] = counts
        self._push(chosen, counts.tolist(), neg_values)
        rows = np.arange(len(chosen))
        points = np.repeat(self.centers[chosen], 2, axis=0)
        points[2 * rows, side] -= delta
        points[2 * rows + 1, side] += delta
        return points, np.repeat(counts, 2)

    def ranked_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Centers and values ordered by decreasing value (stable)."""
        vals = self.values[:self.n]
        order = np.argsort(-vals, kind="stable")
        return self.centers[:self.n][order], vals[order]


def _array_potentially_optimal(state: _ArrayDirectState) -> list[int]:
    """``optim._potentially_optimal`` on the array-based state, verbatim."""
    tops = [heap[0] for _, heap in sorted(state.heaps.items())]
    rows = [row for _, row in tops]
    f = [-neg for neg, _ in tops]
    dd = [state.measures[c] for c in state.counts[rows].tolist()]
    f_max = state.best_value
    # every value so far -inf: the margin would make the threshold NaN
    threshold = f_max + optim._PO_EPSILON * abs(f_max) if math.isfinite(f_max) else f_max

    # the slope between a smaller class i and a larger class j bounds K from
    # above for i and from below for j; a NaN slope fails both comparisons
    m = len(rows)
    k_lo = [0.0] * m
    k_hi = [math.inf] * m
    for j in range(1, m):
        for i in range(j):
            slope = (f[i] - f[j]) / (dd[j] - dd[i])
            if slope > k_lo[j]:
                k_lo[j] = slope
            if slope < k_hi[i]:
                k_hi[i] = slope
    chosen = []
    for j in range(m):
        k = k_hi[j]
        if k >= k_lo[j] and k > 0.0 and (
                not math.isfinite(k) or f[j] + k * dd[j] >= threshold):
            chosen.append(rows[j])
    return chosen


def _array_direct_search(f_batch, dim: int, max_evals: int) -> _ArrayDirectState:
    """``optim._direct_search`` on the array-based state, verbatim."""
    state = _ArrayDirectState(dim, max_evals)
    center = np.full((1, dim), 0.5)
    v = f_batch(center)[0]
    if not np.isfinite(v):
        v = -np.inf
    state.add(center, np.zeros(1, dtype=np.int64), np.array([v], dtype=float))

    while state.n + 2 <= max_evals:
        chosen = _array_potentially_optimal(state)
        if not chosen:
            break
        chosen = chosen[:(max_evals - state.n) // 2]
        points, counts = state.split(chosen)
        vals = f_batch(points)
        bad = ~np.isfinite(vals)
        if bad.any():
            vals = np.where(bad, -np.inf, vals)
        state.add(points, counts, vals)
    return state


def _argsort_refine_starts(state, refine_starts: int) -> list[np.ndarray]:
    """The refine starts as ``global_then_local`` picked them from
    ``ranked_centers``, verbatim: the oracle for ``optim._refine_starts``."""
    starts = [state.best_center]
    ranked_centers, _ = state.ranked_centers()
    for c in ranked_centers:
        if len(starts) >= refine_starts:
            break
        if all(np.max(np.abs(c - s)) > 1e-12 for s in starts):
            starts.append(c)
    return starts


def _state_bytes(state) -> tuple:
    """Everything a DIRECT state holds, as bytes and Python values; the list
    and the array states of the same search give equal tuples."""
    n = state.n
    return (
        n,
        np.asarray(state.centers[:n], dtype=float).tobytes(),
        np.asarray(state.values[:n], dtype=float).tobytes(),
        np.asarray(state.counts[:n], dtype=np.int64).tobytes(),
        state.best_index,
        {key: (np.array([neg for neg, _ in heap]).tobytes(), [row for _, row in heap])
         for key, heap in state.heaps.items()},
    )


def _snapshots(monkeypatch, owner, name: str, search, f, dim: int, budget: int):
    """Run ``search`` with its selection function (``owner.name``) wrapped to
    record the state before and the rows chosen at every iteration."""
    select = getattr(owner, name)
    steps = []

    def recorded(state):
        before = _state_bytes(state)
        chosen = select(state)
        steps.append((before, list(chosen)))
        return chosen

    monkeypatch.setattr(owner, name, recorded)
    return search(f, dim, budget), steps


def _assert_same_as_the_array_state(f, dim: int, budget: int):
    new_batch, new_calls = _recorded(f)
    old_batch, old_calls = _recorded(f)
    with pytest.MonkeyPatch.context() as monkeypatch:
        new, new_steps = _snapshots(monkeypatch, optim, "_potentially_optimal",
                                    optim._direct_search, new_batch, dim, budget)
        old, old_steps = _snapshots(monkeypatch, sys.modules[__name__],
                                    "_array_potentially_optimal", _array_direct_search,
                                    old_batch, dim, budget)
    assert len(new_steps) == len(old_steps)
    for step, (a, b) in enumerate(zip(new_steps, old_steps)):
        assert a == b, step
    assert [c.tobytes() for c in new_calls] == [c.tobytes() for c in old_calls]
    assert _state_bytes(new) == _state_bytes(old)
    assert new.best_value == old.best_value or (
        np.isneginf(new.best_value) and np.isneginf(old.best_value))
    assert new.best_center.tobytes() == old.best_center.tobytes()
    for count in range(1, 7):
        assert (np.array(optim._refine_starts(new, count)).tobytes()
                == np.array(_argsort_refine_starts(old, count)).tobytes())
    return new, new_steps


def _signed_zeros(dim: int, seed: int):
    """0.0 and -0.0 by the sign of a smooth landscape: every value ties."""
    smooth = _objective("smooth", dim, seed)
    return lambda u: np.copysign(0.0, smooth(u))


@settings(max_examples=120)
@given(dim=st.integers(1, 4),
       budget=st.integers(1, 199).map(lambda k: 2 * k + 1),
       kind=st.sampled_from(["smooth", "coarse", "constant", "holes",
                             "mostly_inf", "signed_zeros"]),
       seed=st.integers(0, 2**16))
def test_list_state_equals_the_array_state_at_every_iteration(dim, budget, kind, seed):
    f = _signed_zeros(dim, seed) if kind == "signed_zeros" else _objective(kind, dim, seed)
    _assert_same_as_the_array_state(f, dim, budget)


@pytest.mark.parametrize("budget", [41, 42, 97])
def test_list_state_equals_it_when_choices_are_truncated(budget):
    _, steps = _assert_same_as_the_array_state(_objective("coarse", 3, 5), 3, budget)
    assert _truncated([(before[0], chosen) for before, chosen in steps], budget)


def test_list_state_equals_it_down_to_the_minimum_size():
    state, _ = _assert_same_as_the_array_state(lambda u: -np.abs(u[:, 0] - 0.5), 1, 399)
    assert max(state.counts) == optim._MIN_LEVEL
    assert not state.splittable[state.counts[state.best_index]]


@pytest.mark.parametrize("dim, budget", [(2, 41), (3, 7)])
def test_list_state_equals_it_on_non_finite_centers(dim, budget):
    smooth = _objective("smooth", dim, 3)

    def center_nan(u):
        out = smooth(u)
        out[np.all(u == 0.5, axis=1)] = np.nan
        return out

    _assert_same_as_the_array_state(lambda u: np.full(len(u), np.nan), dim, budget)
    _assert_same_as_the_array_state(center_nan, dim, budget)


_NEAR = [0.0, 5e-13, 1e-12, 1.0000000000000002e-12, 1.5e-12, 3e-12, 0.25]


@settings(max_examples=150)
@given(dim=st.integers(1, 3),
       base=st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0),
                     min_size=3, max_size=3),
       rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                               st.sampled_from(_NEAR), st.sampled_from([1.0, -1.0]),
                               st.sampled_from([0.0, -1.0, 2.0, -np.inf])),
                     min_size=1, max_size=12),
       count=st.integers(1, 6))
def test_refine_starts_equal_the_argsort_selection_on_near_duplicates(dim, base, rows,
                                                                      count):
    # centers a few 1e-12 apart along one axis, with tied and -inf values
    centers, values = [], []
    for origin, axis, offset, sign, value in rows:
        c = [base[(origin + j) % 3] for j in range(dim)]
        c[axis % dim] += sign * offset
        centers.append(c)
        values.append(value)
    counts = [0] * len(rows)
    new = optim._DirectState(dim)
    new.add(centers, counts, values)
    old = _ArrayDirectState(dim, len(rows))
    old.add(np.array(centers), np.array(counts, dtype=np.int64), np.array(values))
    assert new.best_index == old.best_index
    assert (np.array(optim._refine_starts(new, count)).tobytes()
            == np.array(_argsort_refine_starts(old, count)).tobytes())


def test_refine_starts_keep_only_centers_more_than_1e_12_apart():
    # from 0.0 the offsets are exact: 1e-12 is a duplicate, the next float up is not
    centers = [[0.0], [1e-12], [1.0000000000000002e-12], [5e-13]]
    new = optim._DirectState(1)
    new.add(centers, [0] * 4, [1.0, 1.0, 1.0, 1.0])
    starts = optim._refine_starts(new, 4)
    assert starts == [[0.0], [1.0000000000000002e-12]]
    old = _ArrayDirectState(1, 4)
    old.add(np.array(centers), np.zeros(4, dtype=np.int64), np.ones(4))
    assert np.array(starts).tobytes() == np.array(_argsort_refine_starts(old, 4)).tobytes()


# ---------------------------------------------------------------------------
# L-BFGS refinement against the version that scored points more than once
# ---------------------------------------------------------------------------


def _lbfgs_refine_rescoring(batch, space: SearchSpace, x0, max_iters: int = 100):
    """``lbfgs_refine`` as it was before it kept its single-point scores,
    verbatim but for taking the batch objective itself and for the analytic
    gradient option it no longer has: the oracle for its bits."""
    if max_iters < 1:
        raise ContractError("max_iters must be positive")
    x0 = space.clip(x0)
    if x0.shape != (space.dim,):
        raise ContractError("x0 dimension does not match the search space")
    f0 = float(batch(x0[None, :])[0])

    res = _scipy_minimize(
        lambda x: -float(batch(x[None, :])[0]),
        x0,
        jac=lambda x: -optim._central_gradient(batch, x, space),
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
    """``(f, space, x0, keywords)`` for each refinement case, ``f`` a batch
    objective."""
    quad_c = np.array([0.1, 0.3, -0.2])
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    box2 = SearchSpace([-1.0] * 2, [1.0] * 2)

    def holes(x):  # NaN past x[0] = 0.4, where the ascent heads
        return np.nan if x[0] > 0.4 else -float((x[0] - 0.7) ** 2 + x[1] ** 2)

    full = {"max_iters": 100}
    cases = [(*_ucb_on_a_model(seed), full) for seed in range(3)]
    cases += [
        (rowwise(lambda x: -float(np.sum((x - quad_c) ** 2))),
         SearchSpace([-1.0] * 3, [1.0] * 3), np.array([0.8, -0.8, 0.5]), full),
        (rowwise(lambda x: -float(np.sum((x - [2.0, -3.0]) ** 2))), box2, np.zeros(2), full),
        (rowwise(lambda x: -abs(x[0] - 0.5)), SearchSpace([0.0], [1.0]), np.array([0.5]),
         {"max_iters": 30}),
        (rowwise(holes), SearchSpace([0.0, -1.0], [1.0, 1.0]), np.array([0.3, 0.6]), full),
        (rowwise(lambda x: -float((x - 0.2) @ A @ (x - 0.2))), box2, np.array([0.9, 0.9]),
         full),
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
    f, space, x0, kw = _refine_cases()[case]
    new_f, new_seen = _single_points(f)
    old_f, old_seen = _single_points(f)
    x, val = lbfgs_refine(new_f, space, x0, **kw)
    ref_x, ref_val = _lbfgs_refine_rescoring(old_f, space, x0, **kw)
    assert np.array_equal(x, ref_x) and val == ref_val
    assert len(set(new_seen)) == len(new_seen)
    assert set(new_seen) == set(old_seen) and len(new_seen) < len(old_seen)


# ---------------------------------------------------------------------------
# central differences from Python floats against the numpy version
# ---------------------------------------------------------------------------


def _numpy_central_gradient(batch_f, x: np.ndarray, space: SearchSpace) -> np.ndarray:
    """``optim._central_gradient`` as it was when it built its step rows with
    numpy, verbatim: the oracle for its bits."""
    h = 1e-6 * space.span
    d = space.dim
    diag = np.arange(d)
    steps = np.repeat(x[None, :], 2 * d, axis=0)  # forward rows, then backward
    steps[diag, diag] = np.minimum(x + h, space.upper)
    steps[d + diag, diag] = np.maximum(x - h, space.lower)
    vals = batch_f(steps)
    denom = steps[diag, diag] - steps[d + diag, diag]
    grad = np.zeros(d)
    ok = denom > 0
    grad[ok] = (vals[:d][ok] - vals[d:][ok]) / denom[ok]
    return grad


def _assert_same_gradient(f, x, space):
    new_batch, new_calls = _recorded(f)
    old_batch, old_calls = _recorded(f)
    grad = optim._central_gradient(new_batch, np.asarray(x, dtype=float), space)
    ref = _numpy_central_gradient(old_batch, np.asarray(x, dtype=float), space)
    assert grad.dtype == ref.dtype and grad.shape == ref.shape
    assert grad.tobytes() == ref.tobytes()
    assert [c.tobytes() for c in new_calls] == [c.tobytes() for c in old_calls]


# where a coordinate sits: inside, on a bound, or within one step of one
_PLACES = ["inside", "lower", "upper", "near lower", "near upper", "one step in"]


def _place(where: str, frac: float, lo: float, hi: float) -> float:
    h = 1e-6 * (hi - lo)
    return {"inside": lo + frac * (hi - lo), "lower": lo, "upper": hi,
            "near lower": lo + frac * h, "near upper": hi - frac * h,
            "one step in": lo + h if frac < 0.5 else hi - h}[where]


@settings(max_examples=200)
@given(dim=st.integers(1, 4),
       box=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(1e-3, 10.0)),
                    min_size=4, max_size=4),
       places=st.lists(st.tuples(st.sampled_from(_PLACES), st.floats(0.0, 1.0)),
                       min_size=4, max_size=4),
       values=st.sampled_from(["smooth", "nan", "inf", "mixed", "signed_zeros"]),
       seed=st.integers(0, 2**16))
def test_central_gradient_equals_the_numpy_version(dim, box, places, values, seed):
    lower = [lo for lo, _ in box[:dim]]
    upper = [lo + width for lo, width in box[:dim]]
    space = SearchSpace(lower, upper)
    x = [_place(where, frac, lo, hi)
         for (where, frac), lo, hi in zip(places, space.lower.tolist(),
                                          space.upper.tolist())]
    smooth = _objective("smooth", dim, seed)

    def f(pts):
        out = smooth(pts)
        if values == "nan":
            out[0] = np.nan
        elif values == "inf":
            out[-1] = np.inf
        elif values == "mixed":
            out[::2] = -np.inf
            out[1::3] = np.nan
        elif values == "signed_zeros":
            out = np.copysign(0.0, out)
        return out

    _assert_same_gradient(f, x, space)


@pytest.mark.parametrize("lower, upper, x", [
    ([-0.0], [1.0], [1e-6]),  # x - h ties the -0.0 bound at 0.0
    ([-1.0], [-0.0], [-1e-6]),  # x + h ties the -0.0 bound
    ([-0.0, 0.0], [1.0, 1.0], [-0.0, 1.0]),  # on both bounds
    ([0.0, 0.0], [1.0, 1.0], [np.nan, 0.5]),  # NaN stays NaN, as numpy keeps it
])
def test_central_gradient_equals_it_on_signed_zero_and_nan_ties(lower, upper, x):
    def f(pts):
        return 1.0 / np.where(pts[:, 0] == 0.0, np.copysign(1.0, pts[:, 0]), 1.0) + pts[:, -1]

    _assert_same_gradient(f, x, SearchSpace(lower, upper))
