"""Box-constrained maximization: deterministic DIRECT search plus L-BFGS refinement.

The global stage is a DIRECT-style rectangle subdivision on the unit cube
with trisection along the longest side only (ties broken by the lowest
dimension index), which keeps the search fully deterministic.  Its state is
a set of arrays preallocated to the evaluation budget, one row per
rectangle: center, value and split count; a row changes only when its
rectangle is split.  Since every split takes the lowest trisection level,
lowest dimension first, the split count fixes a rectangle's levels, so its
half-diagonal, size-class key and whether it can still be split are read
from tables by count, built once per dimension.  Each iteration picks the
potentially optimal rectangles with one sort by size class and value and
one slope matrix over the class representatives.  The local stage wraps
scipy's bounded L-BFGS with central finite differences when no analytic
gradient is supplied, and scores each point it visits once.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .errors import ContractError

_log = logging.getLogger(__name__)

# Rectangles thinner than 3**-26 along every side are never subdivided
# further; at that scale trisection is below float resolution of the box.
_MIN_LEVEL = 26
_PO_EPSILON = 1e-4


# ---------------------------------------------------------------------------
# search space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box of valid inputs with strictly ordered bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ContractError("bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ContractError("bounds must be finite")
        if not np.all(lo < hi):
            raise ContractError("every lower bound must lie strictly below its upper bound")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x, atol: float = 0.0):
        """True where points lie inside the box (per row for 2-d input)."""
        x = np.asarray(x, dtype=float)
        lo_ok = x >= self.lower - atol
        hi_ok = x <= self.upper + atol
        return np.logical_and(lo_ok, hi_ok).all(axis=-1)

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def from_unit(self, u) -> np.ndarray:
        return self.lower + np.asarray(u, dtype=float) * self.span

    def sample_uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def sample_latin(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Latin hypercube sample: one point per stratum along every axis."""
        if n < 1:
            raise ContractError("latin hypercube sample needs n >= 1")
        u = np.empty((n, self.dim))
        for j in range(self.dim):
            strata = rng.permutation(n) + rng.uniform(size=n)
            u[:, j] = strata / n
        return self.from_unit(u)

    def concat(self, other: "SearchSpace") -> "SearchSpace":
        """Product box: this space's axes followed by the other's."""
        return SearchSpace(
            np.concatenate([self.lower, other.lower]),
            np.concatenate([self.upper, other.upper]),
        )


# ---------------------------------------------------------------------------
# DIRECT global stage
# ---------------------------------------------------------------------------


def _as_batch(f, vectorized: bool):
    """Adapt an objective to the (m, d) -> (m,) batch protocol."""
    if vectorized:
        return lambda pts: np.asarray(f(pts), dtype=float).reshape(len(pts))
    return lambda pts: np.array([float(f(p)) for p in pts])


# trisection offsets 3**-(level + 1) by level, each from numpy's int64
# scalar power: at level 20 it rounds differently from Python's float power
_THIRDS = np.array([3.0 ** -(np.int64(level) + 1) for level in range(_MIN_LEVEL + 1)])


@functools.cache
def _count_tables(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-diagonal, size-class key and splittability by split count.

    After ``t`` splits a rectangle in ``dim`` dimensions has trisection
    level ``t // dim`` on every side, plus one on the first ``t % dim``;
    the tables cover every count up to ``_MIN_LEVEL * dim``, the first one
    that is not split again.
    """
    counts = np.arange(_MIN_LEVEL * dim + 1)[:, None]
    levels = counts // dim + (np.arange(dim) < counts % dim)
    measures = 0.5 * np.sqrt(np.sum(9.0 ** (-levels.astype(float)), axis=1))
    tables = (measures, np.round(measures, 14), levels.min(axis=1) < _MIN_LEVEL)
    for table in tables:
        table.flags.writeable = False
    return tables


class _DirectState:
    """Rectangle bookkeeping for one DIRECT run, in unit-cube coordinates.

    Rows ``[0, n)`` hold the rectangles made so far; a size class is the
    half-diagonal (``measure_of`` by split count) rounded to 14 decimals
    (``key_of``).
    """

    def __init__(self, dim: int, capacity: int):
        self.n = 0
        self.dim = dim
        self.centers = np.empty((capacity, dim))
        self.counts = np.empty(capacity, dtype=np.int64)
        self.values = np.empty(capacity)
        self.best_index = 0
        self.measure_of, self.key_of, self.splittable_of = _count_tables(dim)

    @property
    def best_value(self) -> float:
        return float(self.values[self.best_index])

    @property
    def best_center(self) -> np.ndarray:
        return self.centers[self.best_index]

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

    def split(self, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Trisect each chosen rectangle along its longest side (lowest
        dimension on ties); returns the two new centers per rectangle, low
        side first, and their split counts."""
        counts = self.counts[chosen]
        side = counts % self.dim
        delta = _THIRDS[counts // self.dim]
        counts += 1
        self.counts[chosen] = counts
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


def _potentially_optimal(state: _DirectState) -> np.ndarray:
    """Indices of rectangles to subdivide this iteration, by increasing size.

    A rectangle is potentially optimal when some slope K > 0 makes its
    value-plus-K-times-size bound dominate every other rectangle and clear
    the current best by the usual epsilon margin.  Only the best (lowest
    creation index) rectangle of each size class is considered.  Slopes
    that come out NaN (between two -inf values) constrain nothing.
    """
    n = state.n
    counts = state.counts[:n]
    candidates = np.flatnonzero(state.splittable_of[counts])
    if candidates.size == 0:
        return candidates
    vals = state.values[:n]
    keys = state.key_of[counts[candidates]]
    # by size class, then best value first; the stable sort keeps the
    # lowest index first among equal values
    order = np.lexsort((-vals[candidates], keys))
    sorted_keys = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    idx = candidates[order[first]]
    f = vals[idx]
    dd = state.measure_of[counts[idx]]
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


def _direct_search(f_batch, dim: int, max_evals: int) -> _DirectState:
    state = _DirectState(dim, max_evals)
    center = np.full((1, dim), 0.5)
    v = f_batch(center)[0]
    if not np.isfinite(v):
        _log.warning("objective returned non-finite value at the box center")
        v = -np.inf
    state.add(center, np.zeros(1, dtype=np.int64), np.array([v], dtype=float))

    while state.n + 2 <= max_evals:
        chosen = _potentially_optimal(state)
        if not chosen.size:
            break
        chosen = chosen[:(max_evals - state.n) // 2]
        points, counts = state.split(chosen)
        vals = f_batch(points)
        bad = ~np.isfinite(vals)
        if bad.any():
            _log.warning("objective returned %d non-finite values; treated as -inf", int(bad.sum()))
            vals = np.where(bad, -np.inf, vals)
        state.add(points, counts, vals)
    return state


def direct_maximize(f, space: SearchSpace, max_evals: int, *, vectorized: bool = False):
    """Deterministic DIRECT maximization of ``f`` over ``space``.

    Returns ``(x, value)``.  Uses at most ``max_evals`` objective
    evaluations; with a constant objective the box center is returned because
    the incumbent only moves on strict improvement.
    """
    if max_evals < 2 * space.dim + 1:
        raise ContractError(f"max_evals must be at least 2*dim+1 = {2 * space.dim + 1}")
    batch = _as_batch(f, vectorized)
    state = _direct_search(lambda u: batch(space.from_unit(u)), space.dim, max_evals)
    return space.from_unit(state.best_center), state.best_value


# ---------------------------------------------------------------------------
# L-BFGS local stage
# ---------------------------------------------------------------------------


def _central_gradient(batch_f, x: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Central finite differences with step 1e-6 * span, one-sided at bounds."""
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


def lbfgs_refine(f, space: SearchSpace, x0, max_iters: int = 100, *, grad=None,
                 vectorized: bool = False):
    """Bounded L-BFGS ascent from ``x0``; never returns a worse point.

    Returns ``(x, value)`` with ``x`` inside the box and
    ``value >= f(x0) - 1e-12``.
    """
    if max_iters < 1:
        raise ContractError("max_iters must be positive")
    batch = _as_batch(f, vectorized)
    x0 = space.clip(x0)
    if x0.shape != (space.dim,):
        raise ContractError("x0 dimension does not match the search space")
    # single-point scores by the point's bytes: f0, scipy's first call at
    # x0 and the re-score of its end point would otherwise repeat a call
    scores: dict[bytes, float] = {}

    def score(x: np.ndarray) -> float:
        key = x.tobytes()
        if key not in scores:
            scores[key] = float(batch(x[None, :])[0])
        return scores[key]

    f0 = score(x0)

    if grad is None:
        jac = lambda x: -_central_gradient(batch, x, space)
    else:
        jac = lambda x: -np.asarray(grad(x), dtype=float)

    res = _scipy_minimize(
        lambda x: -score(x),
        x0,
        jac=jac,
        method="L-BFGS-B",
        bounds=list(zip(space.lower, space.upper)),
        options={"maxiter": max_iters, "maxcor": 10},
    )
    x = space.clip(res.x)
    val = score(x)
    if not np.isfinite(val) or val < f0:
        return x0, f0
    return x, val


def check_direct_evals(direct_evals: int | None, space: SearchSpace) -> None:
    """Raise unless DIRECT can start in ``space`` on ``direct_evals`` (None: default)."""
    if direct_evals is not None and direct_evals < 2 * space.dim + 1:
        raise ContractError(f"direct_evals must be at least 2*dim+1 = {2 * space.dim + 1}")


def global_then_local(f, space: SearchSpace, *, direct_evals: int | None = None,
                      refine_starts: int = 3, refine_iters: int = 100,
                      grad=None, vectorized: bool = False):
    """DIRECT followed by L-BFGS restarts from the best distinct rectangles.

    Returns ``(x, value)`` with value at least the DIRECT incumbent's.
    """
    if refine_starts < 1:
        raise ContractError("refine_starts must be positive")
    if direct_evals is None:
        direct_evals = 500 * space.dim
    check_direct_evals(direct_evals, space)

    batch = _as_batch(f, vectorized)
    state = _direct_search(lambda u: batch(space.from_unit(u)), space.dim, direct_evals)

    starts = [state.best_center]
    ranked_centers, _ = state.ranked_centers()
    for c in ranked_centers:
        if len(starts) >= refine_starts:
            break
        if all(np.max(np.abs(c - s)) > 1e-12 for s in starts):
            starts.append(c)

    best_x = space.from_unit(state.best_center)
    best_val = state.best_value
    for u in starts:
        x, val = lbfgs_refine(f, space, space.from_unit(u), refine_iters,
                              grad=grad, vectorized=vectorized)
        if val > best_val:
            best_x, best_val = x, val
    return best_x, best_val
