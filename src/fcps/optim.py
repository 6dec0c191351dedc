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
The splittable rectangles of each size class sit in a heap ordered by
value, and the class keys in a list kept ascending as classes open and
empty, so each iteration reads the class representatives off the heap tops
in size order and runs the slope test over those few.  The local stage
calls scipy's bounded L-BFGS with central finite differences (step rows
built from Python floats) and scores each point it visits once.  Both
stages take one kind of objective, a batch: it maps an (m, d) array of
points to an (m,) float array.
"""

from __future__ import annotations

import bisect
import functools
import heapq
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


@dataclass(frozen=True)
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
    (``keys``).  ``heaps`` maps each size-class key to a heap of
    ``(-value, row)`` over its splittable rectangles, so a heap's top is its
    class's best value, lowest row first among equal values; ``classes``
    lists the keys of ``heaps`` in ascending order.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.centers: list[list[float]] = []
        self.counts: list[int] = []
        self.values: list[float] = []
        self.best_index = 0
        self.measures, self.keys, self.splittable = _count_tables(dim)
        self.heaps: dict[float, list[tuple[float, int]]] = {}
        self.classes: list[float] = []

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def best_value(self) -> float:
        return self.values[self.best_index]

    @property
    def best_center(self) -> np.ndarray:
        return np.array(self.centers[self.best_index])

    def add(self, centers: list[list[float]], counts: list[int],
            values: list[float]) -> None:
        """Append rectangles and file the splittable ones under their size
        class; the incumbent moves only on strict improvement, to the first
        of equal best values."""
        keys, splittable = self.keys, self.splittable
        start = self.n
        best = self.values[self.best_index] if start else -math.inf
        self.centers += centers
        self.counts += counts
        self.values += values
        for row, (count, value) in enumerate(zip(counts, values), start):
            if value > best:
                best, self.best_index = value, row
            if splittable[count]:
                self._file(keys[count], (-value, row))

    def _file(self, key: float, item: tuple[float, int]) -> None:
        """Push ``item`` on the heap of size class ``key``, opening the
        class in its place among ``classes`` if it has none."""
        heap = self.heaps.get(key)
        if heap is None:
            heap = self.heaps[key] = []
            bisect.insort(self.classes, key)
        heapq.heappush(heap, item)

    def split(self, chosen: list[int]) -> tuple[list[list[float]], list[int]]:
        """Trisect each chosen rectangle, the top of its class's heap, along
        its longest side (lowest dimension on ties); returns the two new
        centers per rectangle, low side first, and their split counts.

        Every chosen rectangle leaves its heap before any goes back under
        its new count: a split one may move to the class of another chosen
        rectangle and outrank it there.
        """
        counts, keys, heaps = self.counts, self.keys, self.heaps
        neg_values = []
        for row in chosen:
            key = keys[counts[row]]
            heap = heaps[key]
            neg_values.append(heapq.heappop(heap)[0])
            if not heap:
                del heaps[key]
                del self.classes[bisect.bisect_left(self.classes, key)]
        points, new_counts = [], []
        for row, neg in zip(chosen, neg_values):
            count = counts[row]
            side = count % self.dim
            delta = _THIRDS[count // self.dim]
            count += 1
            counts[row] = count
            if self.splittable[count]:
                self._file(keys[count], (neg, row))
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
    row) rectangle of each size class is considered.  Slopes that come out
    NaN (between two -inf values) constrain nothing.
    """
    tops = [state.heaps[key][0] for key in state.classes]
    rows = [row for _, row in tops]
    f = [-neg for neg, _ in tops]
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
    center = [0.5] * dim
    v = float(f_batch(np.array([center]))[0])
    if not math.isfinite(v):
        _log.warning("objective returned non-finite value at the box center")
        v = -math.inf
    state.add([center], [0], [v])

    while state.n + 2 <= max_evals:
        chosen = _potentially_optimal(state)
        if not chosen:
            break
        chosen = chosen[:(max_evals - state.n) // 2]
        points, counts = state.split(chosen)
        vals = f_batch(np.array(points))
        bad = ~np.isfinite(vals)
        if bad.any():
            _log.warning("objective returned %d non-finite values; treated as -inf", int(bad.sum()))
            vals = np.where(bad, -np.inf, vals)
        state.add(points, counts, vals.tolist())
    return state


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
    the incumbent only moves on strict improvement.
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
    x0 = space.clip(x0)
    # single-point scores by the point's bytes: f0, scipy's first call at
    # x0 and the re-score of its end point would otherwise repeat a call
    scores: dict[bytes, float] = {}

    def score(x: np.ndarray) -> float:
        key = x.tobytes()
        if key not in scores:
            scores[key] = float(f(x[None, :])[0])
        return scores[key]

    f0 = score(x0)

    # scipy's direct entry to the solver that minimize(method="L-BFGS-B")
    # runs, with the same defaults and without minimize's bound conversions
    res_x, _, _ = fmin_l_bfgs_b(lambda x: -score(x), x0,
                                fprime=lambda x: -_central_gradient(f, x, space),
                                bounds=list(zip(space.lower.tolist(), space.upper.tolist())),
                                m=10, maxiter=max_iters)
    x = space.clip(res_x)
    val = score(x)
    if not np.isfinite(val) or val < f0:
        return x0, f0
    return x, val


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
