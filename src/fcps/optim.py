"""Box-constrained maximization: deterministic DIRECT search plus L-BFGS refinement.

The global stage is a DIRECT-style rectangle subdivision on the unit cube
with trisection along the longest side only (ties broken by the lowest
dimension index), which keeps the search fully deterministic.  Its state is
kept in Python lists, one row per rectangle: center, value and split count;
a row changes only when its rectangle is split, and the lists meet numpy
only where the objective is called.  Since every split takes the lowest
trisection level, lowest dimension first, the split count fixes a
rectangle's levels, so its half-diagonal, size-class key and whether it can
still be split are read from tables by count, built once per dimension.
Each iteration scans the rows once for every size class's best splittable
rectangle, reads the classes in size order and runs the slope test over
those few.  The local stage runs ``lbfgs_minimize`` with central finite
differences (step rows built from Python floats).  Both stages take one
kind of objective, a batch: it maps an (m, d) array of points to an (m,)
float array.  ``lbfgs_minimize``, the package's one bounded L-BFGS-B, and
``bisect``, its one bracket bisection, serve the other modules too.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import fmin_l_bfgs_b

from .errors import ContractError

_log = logging.getLogger(__name__)

# Rectangles thinner than 3**-26 along every side are never subdivided
# further; at that scale trisection is below float resolution of the box.
_MIN_LEVEL = 26
_PO_EPSILON = 1e-4
_BOX_ATOL = 1e-9  # a point this far outside its box, by rounding, counts as inside


# ---------------------------------------------------------------------------
# search space
# ---------------------------------------------------------------------------


# eq=False: ndarray bounds; a box equals itself only
@dataclass(frozen=True, eq=False)
class SearchSpace:
    """Axis-aligned box of valid inputs with strictly ordered bounds.

    ``span`` (``upper - lower``) is computed once here and, like the bounds,
    is read-only."""

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
        span = hi - lo
        for a in (lo, hi, span):
            a.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "span", span)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x):
        """True where points lie inside the box up to ``_BOX_ATOL`` (per row for 2-d input)."""
        x = np.asarray(x, dtype=float)
        lo_ok = x >= self.lower - _BOX_ATOL
        hi_ok = x <= self.upper + _BOX_ATOL
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


# trisection offsets 3**-(level + 1) by level, each from numpy's int64
# scalar power (at level 20 it rounds differently from Python's float
# power), kept as Python floats for the per-rectangle loops
_THIRDS = tuple(float(3.0 ** -(np.int64(level) + 1)) for level in range(_MIN_LEVEL + 1))


@functools.cache
def _count_tables(dim: int) -> tuple[tuple[float, ...], tuple[float, ...],
                                     tuple[bool, ...]]:
    """Half-diagonal, size-class key and splittability by split count, as
    Python values for the per-rectangle loops.

    After ``t`` splits a rectangle in ``dim`` dimensions has trisection
    level ``t // dim`` on every side, plus one on the first ``t % dim``;
    the tables cover every count up to ``_MIN_LEVEL * dim``, the first one
    that is not split again.
    """
    counts = np.arange(_MIN_LEVEL * dim + 1)[:, None]
    levels = counts // dim + (np.arange(dim) < counts % dim)
    measures = 0.5 * np.sqrt(np.sum(9.0 ** (-levels.astype(float)), axis=1))
    return tuple(tuple(t.tolist()) for t in (
        measures, np.round(measures, 14), levels.min(axis=1) < _MIN_LEVEL))


class _DirectState:
    """Rectangle bookkeeping for one DIRECT run, in unit-cube coordinates.

    Row ``i`` of the Python lists ``centers`` (each a list of floats),
    ``counts`` (split counts) and ``values`` is the ``i``-th rectangle made;
    a row changes only when its rectangle is split.  A size class is the
    half-diagonal (``measures`` by split count) rounded to 14 decimals
    (``keys``).  The incumbent is the first row holding the best value.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.centers: list[list[float]] = []
        self.counts: list[int] = []
        self.values: list[float] = []
        self.measures, self.keys, self.splittable = _count_tables(dim)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def best_index(self) -> int:
        return self.values.index(max(self.values))

    @property
    def best_value(self) -> float:
        return self.values[self.best_index]

    @property
    def best_center(self) -> np.ndarray:
        return np.array(self.centers[self.best_index])

    def add(self, centers: list[list[float]], counts: list[int],
            values: list[float]) -> None:
        self.centers += centers
        self.counts += counts
        self.values += values

    def split(self, chosen: list[int]) -> tuple[list[list[float]], list[int]]:
        """Trisect each chosen rectangle along its longest side (lowest
        dimension on ties); returns the two new centers per rectangle, low
        side first, and their split counts."""
        counts = self.counts
        points, new_counts = [], []
        for row in chosen:
            count = counts[row]
            side = count % self.dim
            delta = _THIRDS[count // self.dim]
            count += 1
            counts[row] = count
            center = self.centers[row]
            low, high = center.copy(), center.copy()
            low[side] = center[side] - delta
            high[side] = center[side] + delta
            points += (low, high)
            new_counts += (count, count)
        return points, new_counts


def _potentially_optimal(state: _DirectState) -> list[int]:
    """Rows of the rectangles to subdivide this iteration, by increasing size.

    A rectangle is potentially optimal when some slope K > 0 makes its
    value-plus-K-times-size bound dominate every other rectangle and clear
    the current best by the usual epsilon margin.  Only the best (lowest
    row) splittable rectangle of each size class is considered.  Slopes
    that come out NaN (between two -inf values) constrain nothing.
    """
    keys, splittable, values = state.keys, state.splittable, state.values
    best: dict[float, int] = {}  # size-class key -> its representative row
    for row, count in enumerate(state.counts):
        if splittable[count]:
            key = keys[count]
            if values[row] > values[best.setdefault(key, row)]:
                best[key] = row
    rows = [best[key] for key in sorted(best)]
    f = [values[row] for row in rows]
    dd = [state.measures[state.counts[row]] for row in rows]
    f_max = state.best_value
    # every value so far -inf: the margin would make the threshold NaN
    threshold = f_max + _PO_EPSILON * abs(f_max) if math.isfinite(f_max) else f_max

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


def _direct_search(f_batch, dim: int, max_evals: int) -> _DirectState:
    state = _DirectState(dim)
    points, counts = [[0.5] * dim], [0]  # the box center is the first batch
    while True:
        vals = f_batch(np.array(points))
        bad = ~np.isfinite(vals)
        if bad.any():
            _log.warning("objective returned %d non-finite values; treated as -inf", int(bad.sum()))
            vals = np.where(bad, -np.inf, vals)
        state.add(points, counts, vals.tolist())
        if state.n + 2 > max_evals:
            return state
        chosen = _potentially_optimal(state)
        if not chosen:
            return state
        points, counts = state.split(chosen[:(max_evals - state.n) // 2])


def _refine_starts(state: _DirectState, count: int) -> list[list[float]]:
    """Up to ``count`` centers to refine from: the incumbent's, then the
    others by decreasing value (stable), each more than 1e-12 away from
    every one taken along some axis."""
    centers, values = state.centers, state.values
    starts = [centers[state.best_index]]
    for row in sorted(range(len(values)), key=values.__getitem__, reverse=True):
        if len(starts) >= count:
            break
        c = centers[row]
        if all(max(abs(a - b) for a, b in zip(c, s)) > 1e-12 for s in starts):
            starts.append(c)
    return starts


def direct_maximize(f, space: SearchSpace, max_evals: int):
    """Deterministic DIRECT maximization of ``f`` over ``space``.

    Returns ``(x, value)``.  Uses at most ``max_evals`` objective
    evaluations; with a constant objective the box center is returned because
    the incumbent is the first row holding the best value.
    """
    check_direct_evals(max_evals, space)
    state = _direct_search(lambda u: f(space.from_unit(u)), space.dim, max_evals)
    return space.from_unit(state.best_center), state.best_value


# ---------------------------------------------------------------------------
# L-BFGS local stage
# ---------------------------------------------------------------------------


def _central_gradient(batch_f, x: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Central finite differences with step 1e-6 * span, one-sided at bounds."""
    xs = x.tolist()
    ahead, behind, denoms = [], [], []
    for i, (xi, lo, hi) in enumerate(zip(xs, space.lower.tolist(), space.upper.tolist())):
        h = 1e-6 * (hi - lo)
        up, down = xi + h, xi - h
        # np.minimum and np.maximum: the bound wins a tie, NaN stays NaN
        up = hi if up >= hi else up
        down = lo if down <= lo else down
        ahead.append(xs[:i] + [up] + xs[i + 1:])
        behind.append(xs[:i] + [down] + xs[i + 1:])
        denoms.append(up - down)
    vals = batch_f(np.array(ahead + behind)).tolist()  # forward rows, then backward
    d = len(xs)
    return np.array([(vals[i] - vals[d + i]) / denom if denom > 0 else 0.0
                     for i, denom in enumerate(denoms)])


def lbfgs_minimize(fun, x0, lower, upper, *, max_iters: int):
    """scipy's bounded L-BFGS-B (m=10) from ``x0`` on ``fun``, which maps a
    point to ``(value, gradient)`` and is called once per point.  Returns
    ``(x, value)``: the end point clipped to the box, or ``x0`` where the
    end scores worse than it or not finite."""
    scores: dict[bytes, tuple[float, np.ndarray]] = {}

    def scored(x):
        key = x.tobytes()
        if key not in scores:
            scores[key] = fun(x)
        return scores[key]

    f0 = scored(x0)[0]
    # value and gradient apart: scipy wraps a function returning both at more cost
    end, _, _ = fmin_l_bfgs_b(lambda x: scored(x)[0], x0, fprime=lambda x: scored(x)[1].copy(),
                              bounds=list(zip(lower.tolist(), upper.tolist())),
                              m=10, maxiter=max_iters)
    end = np.clip(end, lower, upper)
    value = scored(end)[0]
    if not np.isfinite(value) or value > f0:
        return x0, f0
    return end, value


def bisect(below, lo: float, hi: float) -> tuple[float, float]:
    """The bracket ``(lo, hi)`` halved, at most 100 times, until a step would
    leave it unchanged: a midpoint where ``below`` holds becomes ``lo``,
    any other ``hi``."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        side = below(mid)
        if mid == (lo if side else hi):
            break
        lo, hi = (mid, hi) if side else (lo, mid)
    return lo, hi


def lbfgs_refine(f, space: SearchSpace, x0, *, max_iters: int):
    """Bounded L-BFGS ascent from ``x0`` on the batch objective ``f``, its
    gradient by central differences; never returns a worse point.

    Returns ``(x, value)`` with ``x`` inside the box and ``value`` never
    below ``f(x0)``, for ``x0`` clipped to the box.
    """
    if max_iters < 1:
        raise ContractError("max_iters must be positive")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (space.dim,):
        raise ContractError("x0 dimension does not match the search space")
    x, value = lbfgs_minimize(
        lambda x: (-float(f(x[None, :])[0]), -_central_gradient(f, x, space)),
        space.clip(x0), space.lower, space.upper, max_iters=max_iters)
    return x, -value


def check_direct_evals(direct_evals: int, space: SearchSpace) -> None:
    """Raise unless DIRECT can start in ``space`` on ``direct_evals``."""
    if direct_evals is None or direct_evals < 2 * space.dim + 1:
        raise ContractError(f"direct_evals must be at least 2*dim+1 = {2 * space.dim + 1}")


def global_then_local(f, space: SearchSpace, *, direct_evals: int,
                      refine_starts: int, refine_iters: int):
    """DIRECT followed by L-BFGS restarts from the best distinct rectangles.

    Returns ``(x, value)`` with value at least the DIRECT incumbent's.
    """
    if refine_starts < 1:
        raise ContractError("refine_starts must be positive")
    check_direct_evals(direct_evals, space)
    state = _direct_search(lambda u: f(space.from_unit(u)), space.dim, direct_evals)

    best_x = space.from_unit(state.best_center)
    best_val = state.best_value
    for u in _refine_starts(state, refine_starts):
        x, val = lbfgs_refine(f, space, space.from_unit(u), max_iters=refine_iters)
        if val > best_val:
            best_x, best_val = x, val
    return best_x, best_val
