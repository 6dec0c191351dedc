"""Entropy search over representer contexts.

Entropy search scores a hypothetical query by how much it is expected to
shrink the entropy of the argmax distribution over a fixed candidate set,
averaged over fantasy observations.  All Monte-Carlo draws are made once per
evaluation context and shared across fantasy branches and representers
(common random numbers), which keeps objectives deterministic for the
optimizer and makes a duplicated representer contribute exactly twice.

One engine serves every entropy-search learner, through
``algorithms.es_select``; the learner draws the representer contexts and
candidates and builds the blocks.  The engine's branches score blocks of
candidate rows: one block per branch (aces' representer contexts, es'
query prefix, faces' environment contexts), or one block that all of
faces' branches share when there is no environment context.  It hands the
queries of a ``gains`` call to one entropy kernel over grouped rows:
``base`` (G, L, M) of fantasy-shifted candidate means and ``draws``
(G, M, K) of posterior draws.  Each (query, block) pair is one group, with
L rows for each branch on the block, and a call passes only as many queries
as ``_BLOCK`` holds, so the engine never keeps more than that many queries'
draws.  For each row and draw the kernel keeps a running maximum over the M
candidates in cache-sized row blocks, updated on strict ``>``, so ties go
to the lowest candidate index exactly as with ``np.argmax``.  A non-finite
block raises :class:`NumericalError` instead of being ranked.  In groups of
``_PRUNE_ROWS`` rows or more, candidates that cannot win are dropped first:
``fl(b + d)`` is monotone in ``d``, so candidate m stays strictly below row
r's maximum in every draw, and cannot even tie, when
``base[r, m] + max_k draws[m, k] < max_m' (base[r, m'] + min_k draws[m', k])``.
A row with one survivor is decided (entropy -0.0) and never scored.  Smaller
groups, where the test costs more than it saves, stay dense.
"""

from __future__ import annotations

import numpy as np

from . import gp
from .errors import ContractError, NumericalError

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
    with ties going to the lowest candidate index.  Groups of ``_PRUNE_ROWS``
    rows or more take the pruned running-maximum loop, which gathers each
    row's draws; smaller groups, where the survivor test costs more than it
    saves, take the dense one, which broadcasts one candidate's draws over a
    block and costs less per candidate.
    """
    g_n, l_n, m = base.shape
    k = draws.shape[2]
    if not (np.isfinite(base).all() and np.isfinite(draws).all()):
        raise NumericalError("non-finite value in an entropy-search block")
    rows = g_n * l_n
    idx_type = np.min_scalar_type(m - 1)
    ent = np.empty((g_n, l_n))
    if l_n >= _PRUNE_ROWS:
        alive = _survivors(base, draws.min(axis=2)[:, None],
                           draws.max(axis=2)[:, None]).reshape(rows, m)
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


class EnsembleEsEngine:
    """Entropy-search gains over (branch, candidate) blocks.

    ``points`` (P, M, d) holds P blocks of M candidate rows in the model's
    input space, and the :class:`gp.GpModel` gives the weight columns: one
    for a one-target model, one per branch for a model with a target column
    per branch.  Branch c scores block c under column c, and a single block
    or a single column serves every branch, so there are C = max(P, columns)
    branches.  aces gives one block per representer context and es one
    prefixed block under a joint one-target model; faces gives one shared
    block, or one env-context block per branch, under a model with one
    target column per representer.  Kernel quantities are computed once per
    block; the branches are the ensemble the name refers to.

    Draws (``n_function_draws`` columns of the candidate-draw matrix and
    ``n_fantasies`` fantasy normals) are made once at construction and
    shared by every branch, so :meth:`gains` is a deterministic function of
    the query.
    """

    def __init__(self, model: gp.GpModel, points: np.ndarray,
                 n_function_draws: int, n_fantasies: int,
                 rng: np.random.Generator):
        h = model.hyperparams
        pts = np.asarray(points, dtype=float)
        p_n, m = pts.shape[:2]
        n = len(model)
        columns = np.atleast_2d(model.weights.T)  # (W, N)
        c_n = max(p_n, len(columns))
        if p_n not in (1, c_n) or len(columns) not in (1, c_n):
            raise ContractError("blocks and weight columns must pair up, or one be single")
        self.z = rng.standard_normal((m, n_function_draws))
        self.u = rng.standard_normal(n_fantasies)
        self.model = model

        self._pt = model.transform_inputs(pts.reshape(p_n * m, -1))
        pt3 = self._pt.reshape(p_n, m, -1)
        ks, self._v = gp.kernel_rows(model, self._pt)
        # one product per pairing: a column shared by every block, or a
        # block shared by every column, is one product; paired blocks and
        # columns are one product each.  Sizes are explicit, so that an
        # empty model's zero-width products give zero means
        g_n = p_n if p_n == len(columns) else 1
        mu0 = (ks.reshape(g_n, p_n * m // g_n, n)
               @ columns.reshape(g_n, len(columns) // g_n, n).transpose(0, 2, 1))
        self.mu0 = mu0.transpose(0, 2, 1).reshape(c_n, m)
        v3 = self._v.T.reshape(p_n, m, n)
        self.sigma = gp.kernel_eval(pt3, pt3, h) - v3 @ v3.transpose(0, 2, 1)
        # one observation's prior variance: the floor of s2_obs and the jitter unit
        self._scale = h.signal_variance + h.noise_variance
        s0 = gp.factor_with_jitter(np.linalg.cholesky, self.sigma, self._scale)[0] @ self.z
        self.h0 = _argmax_entropies(self.mu0.reshape(p_n, -1, m), s0).reshape(c_n)

    def gains(self, queries: np.ndarray) -> np.ndarray:
        """Information gain for each query row, summed over the branches:
        each branch's prior entropy less its mean over the fantasies."""
        model, h = self.model, self.model.hyperparams
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        b_n = len(q)
        qt = model.transform_inputs(q)
        # The fantasy y = mu_q + sd*u shifts candidate means by cross*(y-mu_q)
        # / s2_obs = cross*u/sd, so the predictive mean itself cancels and only
        # the standardized fantasy normal u enters; every branch's fantasy
        # shares it.
        wq = gp.kernel_rows(model, qt)[1]
        s2_lat = np.maximum(h.signal_variance - np.sum(wq**2, axis=0), 0.0)
        cross = gp.kernel_eval(self._pt, qt, h) - self._v.T @ wq
        p_n, m, _ = self.sigma.shape
        cross = cross.reshape(p_n, m, b_n)
        s2_obs = np.maximum(s2_lat + h.noise_variance, 1e-12 * self._scale)
        sd_obs = np.sqrt(s2_obs)

        c_n, l_n, k = len(self.h0), len(self.u), self.z.shape[1]
        shift = ((self.u[None, None, :, None] / sd_obs[:, None, None, None])
                 * cross.transpose(2, 0, 1)[:, :, None, :])  # (B, P, L, M)
        # one kernel group per (query, block): the block's branches x L rows
        base = (self.mu0.reshape(p_n, -1, 1, m) + shift[:, :, None]).reshape(
            b_n * p_n, -1, m)
        ent = np.empty(base.shape[:2])
        # queries per kernel call: as many as _BLOCK holds at P x L rows of
        # K draws each, at least one; one-block engines batch a call's
        # queries, many-block ones hold one query's P draw matrices at a time
        step = max(1, _BLOCK // (p_n * l_n * k))
        for lo in range(0, b_n, step):
            hi = min(lo + step, b_n)
            draws = np.empty((hi - lo, p_n, m, k))
            for b in range(lo, hi):
                cb = cross[:, :, b]
                sig_plus = self.sigma - cb[:, :, None] * cb[:, None, :] / s2_obs[b]
                draws[b - lo] = gp.factor_with_jitter(
                    np.linalg.cholesky, sig_plus, self._scale)[0] @ self.z
            ent[lo * p_n:hi * p_n] = _argmax_entropies(
                base[lo * p_n:hi * p_n], draws.reshape(-1, m, k))
        return (self.h0 - ent.reshape(b_n, c_n, l_n).mean(axis=2)).sum(axis=1)
