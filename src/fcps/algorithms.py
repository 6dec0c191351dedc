"""Upper-level policy learners with a uniform episode-loop interface.

Passive learners receive a context and pick controller parameters; active
learners pick the context too.  The selection rules are pure functions so
they can be tested in isolation: ``ucb_select`` maximizes the confidence
bound and ``es_select`` the entropy-search gain, the one query path of the
es variant and the active learners.  Those learners draw the blocks the
engine scores themselves: es one block of candidates behind its query
prefix, aces and faces representer contexts and one candidate set they
share.  One GP learner class, ``BoLearner``, serves the five model-based
tags and adds data bookkeeping and the hyperparameter refit schedule on
top; its tag picks one of three training sets:

* bo-fcps and faces: the store re-scored at the query target, with rows on
  (env context, theta), so a query fixes the env context only;
* bo-cps and aces: the (context, theta) rows with collection-time rewards;
* bo-fcps-her: those rows with one hindsight relabel after each.

``CrepsLearner`` is the model-free policy-search baseline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import fmin_l_bfgs_b
from scipy.special import logsumexp, softmax

from . import gp, optim
from .acquisition import EnsembleEsEngine
from .errors import ContractError
from .experience import Context, ExperienceStore, RolloutRecord, \
    her_augment, reevaluate, reevaluate_targets
from .optim import SearchSpace

ALGORITHMS = ("bo-cps", "bo-fcps", "bo-fcps-her", "aces", "faces", "c-reps")
# learners that pick their own context, and the ones that train on the store
# re-scored at the query target
ACTIVE_ALGORITHMS = ("aces", "faces")
FACTORED_ALGORITHMS = ("bo-fcps", "faces")

# initial space-filling rollouts before the acquisition takes over, used when
# the config leaves init_episodes unset; scaled to each model's input
# dimensionality, since a joint model over (context, theta) needs far more
# coverage to become identifiable than a factored model over theta alone
DEFAULT_INIT_EPISODES = {"bo-cps": 20, "bo-fcps-her": 20, "aces": 20,
                         "bo-fcps": 10, "faces": 10, "c-reps": 0}
ACQUISITION_KINDS = ("ucb", "es", "random")


@dataclass(frozen=True)
class LearnerConfig:
    """A learner's settings.  ``kappa`` weighs the confidence bound's
    spread; entropy search draws ``n_candidates`` candidate thetas per
    context, ``n_function_draws`` joint posterior draws and ``n_fantasies``
    fantasy observations per query."""

    algorithm: str = "bo-fcps"
    acquisition_kind: str = "ucb"
    kappa: float = 0.1
    n_candidates: int = 20
    n_function_draws: int = 150
    n_fantasies: int = 3
    n_representers: int = 200
    init_episodes: int | None = None
    refit_warmup: int = 20
    refit_period: int = 5
    refit_restarts: int = 2
    creps_epsilon: float = 0.5
    creps_period: int = 30
    direct_evals: int = 150
    refine_starts: int = 2
    refine_iters: int = 25
    # harness.run replaces this on every seed with the learner seed from
    # derive_rng_streams, so the value runs.json records is the config's,
    # not the seed that was used
    rng_seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ContractError(f"unknown algorithm tag {self.algorithm!r}")
        if self.acquisition_kind not in ACQUISITION_KINDS:
            raise ContractError(
                f"unknown acquisition kind {self.acquisition_kind!r}")
        if self.acquisition_kind != "ucb" and self.algorithm != "bo-fcps":
            raise ContractError(
                f"acquisition kind {self.acquisition_kind!r} is only "
                f"implemented for bo-fcps, not {self.algorithm!r}")
        if self.kappa < 0:
            raise ContractError("kappa must be nonnegative")
        if self.n_candidates < 2:
            raise ContractError("need at least 2 candidates")
        if self.n_function_draws < 100:
            raise ContractError("need at least 100 posterior draws")
        if self.n_fantasies < 1:
            raise ContractError("need at least 1 fantasy branch")
        if self.creps_epsilon <= 0:
            raise ContractError("creps_epsilon must be positive")
        if self.creps_period < 2:
            raise ContractError("creps_period must be at least 2")
        if self.n_representers < 1:
            raise ContractError("n_representers must be at least 1")
        if self.init_episodes is not None and self.init_episodes < 0:
            raise ContractError("init_episodes must be non-negative")
        if self.refit_warmup < 0 or self.refit_period < 1:
            raise ContractError("refit schedule must be non-negative/positive")
        if self.refit_restarts < 1:
            raise ContractError("refit_restarts must be at least 1")
        if self.refine_starts < 1 or self.refine_iters < 1:
            raise ContractError("refine_starts and refine_iters must be at "
                                "least 1")


# ---------------------------------------------------------------------------
# shared GP selection machinery
# ---------------------------------------------------------------------------


def _initial_hyperparams(dim: int) -> gp.KernelHyperparams:
    # inputs are scaled to the unit box and targets standardized before the
    # kernel sees them, so these are sane generic starting points
    return gp.KernelHyperparams(
        signal_variance=1.0,
        lengthscales=np.full(dim, 0.3),
        noise_variance=1e-2,
    )


def _hyperparam_bounds(dim: int) -> list[tuple[float, float]]:
    # log-space search box for refits, in unit-scaled input and standardized
    # target coordinates; the lengthscale floor keeps the marginal likelihood
    # away from noise-free memorization basins, which rollout noise rules out
    signal = (np.log(1e-2), np.log(1e2))
    lengthscale = (np.log(0.03), np.log(10.0))
    # noise floor inside the band of reward jitter the actuation noise
    # produces (roughly 5e-4 to 3e-3 in standardized units, varying with
    # terrain slope and shot speed); exact-interpolation basins sit below it
    # and stay unreachable, which matters for hindsight relabels whose
    # synthetic rows are noise-free by construction
    noise = (np.log(1.5e-3), np.log(1.0))
    return [signal] + [lengthscale] * dim + [noise]


def _hyperparam_prior(dim: int) -> list[tuple[float, float]]:
    # weak lognormal pulls on the same log coordinates, turning refits into
    # MAP fits; small early datasets then keep every lengthscale moderate,
    # so the acquisition retains a gradient in all directions instead of
    # writing one off as irrelevant and collapsing exploration onto a slice.
    # The noise center sits at the reward jitter actuation noise produces.
    signal = (np.log(1.0), 2.0)
    lengthscale = (np.log(0.4), 1.0)
    noise = (np.log(3e-3), 1.5)
    return [signal] + [lengthscale] * dim + [noise]


def _maximize(objective, space: SearchSpace, cfg: LearnerConfig) -> np.ndarray:
    best, _ = optim.global_then_local(
        objective, space,
        direct_evals=cfg.direct_evals,
        refine_starts=cfg.refine_starts,
        refine_iters=cfg.refine_iters,
    )
    return best


def _prefixed(prefix: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Rows of the prefix columns, then each row of thetas: one prefix (p,)
    over thetas (B, d), or a stack of them, (..., p) over (..., M, d)."""
    n_prefix = prefix.shape[-1]
    pts = np.empty(thetas.shape[:-1] + (n_prefix + thetas.shape[-1],))
    pts[..., :n_prefix] = prefix[..., None, :]
    pts[..., n_prefix:] = thetas
    return pts


def ucb_select(model: gp.GpModel, prefix, theta_space: SearchSpace,
               cfg: LearnerConfig, *, kappa: float) -> np.ndarray:
    """GP-UCB over theta with the query prefix held fixed; ``kappa`` weighs
    the standard deviation, and 0 makes the search greedy.

    The model's inputs are the prefix columns followed by theta:
    (context, theta) for a joint model, (env context, theta) for a
    target-specific one.
    """
    prefix = np.asarray(prefix, dtype=float)

    def objective(thetas):
        mean, var = gp.predict_batch(model, _prefixed(prefix, thetas))
        return mean + kappa * np.sqrt(var)

    return _maximize(objective, theta_space, cfg)


def es_select(model: gp.GpModel, blocks: np.ndarray, prefix,
              space: SearchSpace, cfg: LearnerConfig,
              rng: np.random.Generator) -> np.ndarray:
    """Entropy search over ``space`` with the query prefix held fixed.

    The engine scores the (P, M, d) candidate ``blocks`` in the model's
    input space; a query is the prefix columns followed by a point of
    ``space``: es' context prefix over theta, or, with an empty prefix, an
    active learner's whole query.
    """
    engine = EnsembleEsEngine(model, blocks, cfg.n_function_draws,
                              cfg.n_fantasies, rng)
    return _maximize(lambda x: engine.gains(_prefixed(prefix, x)), space, cfg)


# ---------------------------------------------------------------------------
# C-REPS
# ---------------------------------------------------------------------------


def creps_features(contexts) -> np.ndarray:
    """Feature map [1, s, s*s] applied row-wise."""
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    ones = np.ones((contexts.shape[0], 1))
    return np.hstack([ones, contexts, contexts * contexts])


def creps_feature_dim(context_dim: int) -> int:
    return 1 + 2 * context_dim


@dataclass(frozen=True)
class CrepsPolicy:
    """Linear-Gaussian policy over squared context features."""

    weights: np.ndarray  # (feature dim, theta dim)
    cov: np.ndarray      # (theta dim, theta dim)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        c = np.array(self.cov, dtype=float)
        if w.ndim != 2 or c.shape != (w.shape[1], w.shape[1]):
            raise ContractError("weights must be (features, dims) and cov square")
        if not np.allclose(c, c.T, atol=1e-9):
            raise ContractError("policy covariance must be symmetric")
        if np.linalg.eigvalsh(c)[0] <= 0:
            raise ContractError("policy covariance must be positive definite")
        w.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cov", c)

    @classmethod
    def initial(cls, context_dim: int, theta_space: SearchSpace) -> "CrepsPolicy":
        # context-independent start centered in the box: zero weights in
        # box-normalized coordinates, which keeps the initial mean free of
        # the box's position relative to the origin. One standard deviation
        # spans half the box, so early rollouts probe well beyond any single
        # mode and the entropy-bounded updates have real coverage to
        # contract from.
        weights = np.zeros((creps_feature_dim(context_dim), theta_space.dim))
        weights[0] = theta_space.center
        cov = np.diag((theta_space.span / 2.0) ** 2)
        return cls(weights=weights, cov=cov)

    def mean_params(self, context_full) -> np.ndarray:
        return creps_features(context_full)[0] @ self.weights

    def sample(self, context_full, rng: np.random.Generator) -> np.ndarray:
        mean = self.mean_params(context_full)
        chol = np.linalg.cholesky(self.cov)
        return mean + chol @ rng.standard_normal(mean.shape[0])


_ETA_BOUNDS = (1e-6, 1e6)
_V_BOUND = 1e4


def creps_dual(eta: float, v: np.ndarray, features: np.ndarray,
               rewards: np.ndarray, epsilon: float) -> tuple[float, np.ndarray]:
    """Dual value and its gradient with respect to (eta, v)."""
    advantages = (rewards - features @ v) / eta
    log_z = logsumexp(advantages) - np.log(len(rewards))
    weights = softmax(advantages)
    mean_features = features.mean(axis=0)
    value = eta * epsilon + v @ mean_features + eta * log_z
    grad_eta = epsilon + log_z - weights @ advantages
    grad_v = mean_features - features.T @ weights
    return float(value), np.concatenate([[grad_eta], grad_v])


def _dual_weights(eta, v, features, rewards):
    return softmax((rewards - features @ v) / eta)


def _empirical_kl(weights: np.ndarray) -> float:
    # KL of the weight distribution from uniform over the batch
    n = weights.shape[0]
    positive = weights[weights > 0]
    return float(np.sum(positive * np.log(n * positive)))


def creps_update(contexts, params, rewards, policy: CrepsPolicy,
                 epsilon: float) -> tuple[CrepsPolicy, dict]:
    """One relative-entropy-constrained weighted-ML policy update.

    Returns the new policy plus diagnostics including the empirical KL of
    the sample weights, which is forced under ``epsilon`` by raising the
    temperature if the dual solution overshoots numerically.
    """
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    params = np.atleast_2d(np.asarray(params, dtype=float))
    rewards = np.asarray(rewards, dtype=float)
    n = rewards.shape[0]
    features = creps_features(contexts)
    if n < features.shape[1] + 1:
        raise ContractError("batch smaller than feature dimension + 1")
    if epsilon <= 0:
        raise ContractError("epsilon must be positive")

    lo, hi = _ETA_BOUNDS
    bounds = [(np.log(lo), np.log(hi))] + [(-_V_BOUND, _V_BOUND)] * features.shape[1]
    solved = {}  # the dual over (log eta, v) by the point's bytes: one solve each

    def dual(x):
        key = x.tobytes()
        if key not in solved:
            eta = np.exp(x[0])
            value, grad = creps_dual(eta, x[1:], features, rewards, epsilon)
            grad[0] *= eta  # chain rule through the log parameterization
            solved[key] = value, grad
        return solved[key]

    # L-BFGS-B from x0, its end point clipped to the box and kept only if it
    # is finite and no worse than x0
    x0 = np.concatenate([[np.log(np.clip(np.std(rewards), 1.0, hi / 10))],
                         np.zeros(features.shape[1])])
    end, _, _ = fmin_l_bfgs_b(dual, x0, bounds=bounds, m=10, maxiter=200)
    end = np.clip(end, *zip(*bounds))
    end_value = dual(end)[0]
    best = end if np.isfinite(end_value) and end_value <= dual(x0)[0] else x0
    eta, v = float(np.exp(best[0])), best[1:]
    weights = _dual_weights(eta, v, features, rewards)

    if not np.all(np.isfinite(weights)) or eta >= hi / 2:
        warnings.warn("relative-entropy dual diverged; keeping previous policy")
        return policy, {"eta": eta, "v": v, "kl": np.nan, "applied": False}

    # numerical dual solutions can overshoot the bound slightly; raising the
    # temperature with v fixed restores it (weights flatten as eta grows)
    if _empirical_kl(weights) > epsilon:
        eta_hi = eta
        while _empirical_kl(_dual_weights(eta_hi, v, features, rewards)) > epsilon:
            eta_hi *= 2.0
            if eta_hi > hi:
                break
        eta_lo = eta_hi / 2.0
        for _ in range(60):
            mid = 0.5 * (eta_lo + eta_hi)
            if _empirical_kl(_dual_weights(mid, v, features, rewards)) > epsilon:
                eta_lo = mid
            else:
                eta_hi = mid
        eta = eta_hi
        weights = _dual_weights(eta, v, features, rewards)

    # weighted maximum-likelihood refit of the linear-Gaussian policy
    wf = features * weights[:, None]
    gram = features.T @ wf + 1e-9 * np.eye(features.shape[1])
    gains = np.linalg.solve(gram, wf.T @ params)
    residuals = params - features @ gains
    cov = (residuals * weights[:, None]).T @ residuals
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    cov = (eigvecs * np.maximum(eigvals, 1e-6)) @ eigvecs.T
    new_policy = CrepsPolicy(weights=gains, cov=cov)
    return new_policy, {"eta": eta, "v": v, "kl": _empirical_kl(weights),
                        "weights": weights, "applied": True}


# ---------------------------------------------------------------------------
# learner classes
# ---------------------------------------------------------------------------


def _append(store: ExperienceStore, context: Context, theta, landing,
            reward: float) -> RolloutRecord:
    """Record one rollout in the store, which checks it against its boxes."""
    record = RolloutRecord(target=context.target, env_context=context.env,
                           params=theta, landing=landing, actual_reward=reward)
    store.append(record)
    return record


class BoLearner:
    """GP-based learner for every model-based tag; the tag picks the
    training set, the query prefix, and whether the learner is active.

    The factored tags (bo-fcps, faces) train on the store re-scored at the
    query target, with rows on (env context, theta); the others train on
    the (context, theta) rows with their collection-time rewards, and
    bo-fcps-her interleaves one hindsight relabel after each of them.
    Active learners (aces, faces) also pick their own context through
    ``select_query``; passive learners have no such method.
    """

    def __init__(self, target_space: SearchSpace, env_space: SearchSpace,
                 theta_space: SearchSpace, reward_fn, cfg: LearnerConfig):
        self.target_space = target_space
        self.env_space = env_space
        self.theta_space = theta_space
        self.context_space = target_space.concat(env_space)
        self.reward_fn = reward_fn
        self.cfg = cfg
        self.factored = cfg.algorithm in FACTORED_ALGORITHMS
        self.input_space = (env_space if self.factored
                            else self.context_space).concat(theta_space)
        self.requires_context = cfg.algorithm not in ACTIVE_ALGORITHMS
        optim.check_direct_evals(cfg.direct_evals, theta_space if self.requires_context
                                 else self.input_space)
        if not self.requires_context:
            self.select_query = (self._factored_query if self.factored
                                 else self._joint_query)
        self.store = ExperienceStore(target_space, env_space, theta_space)
        self._relabel_rewards: list[float] | None = (
            [] if cfg.algorithm == "bo-fcps-her" else None)
        self._rng = np.random.default_rng(cfg.rng_seed)
        n_init = cfg.init_episodes
        if n_init is None:
            n_init = DEFAULT_INIT_EPISODES[cfg.algorithm]
        self._init_plan = (theta_space.sample_latin(n_init, self._rng)
                           if n_init > 0 else np.zeros((0, theta_space.dim)))
        self._hyperparams = _initial_hyperparams(self.input_space.dim)
        self._last_refit = 0
        # (store size, hyperparameter object, model) of the last fit
        self._kept: tuple[int, gp.KernelHyperparams, gp.GpModel] | None = None

    def observe(self, context: Context, theta, landing,
                reward: float) -> RolloutRecord:
        record = _append(self.store, context, theta, landing, reward)
        if self._relabel_rewards is not None:
            self._relabel_rewards.append(her_augment(record, self.reward_fn))
        return record

    def dataset(self, target) -> tuple[np.ndarray, np.ndarray]:
        """The (inputs, rewards) training set for a query at ``target``."""
        store = self.store
        if self.factored:
            return reevaluate(store, self.reward_fn, target)
        inputs = np.hstack([store.targets(), store.reduced_inputs()])
        rewards = store.actual_rewards()
        if self._relabel_rewards is None:
            return inputs, rewards
        # each relabel follows the rollout it came from, with the landing in
        # place of the commanded target
        relabeled = np.hstack([store.landings(), store.reduced_inputs()])
        return (np.stack([inputs, relabeled], axis=1).reshape(-1, inputs.shape[1]),
                np.stack([rewards, self._relabel_rewards], axis=1).ravel())

    def _prefix(self, context: Context) -> np.ndarray:
        return context.env if self.factored else context.full

    def _init_theta(self) -> np.ndarray | None:
        # space-filling warm start: until every plan row has been spent, the
        # acquisition has never seen some directions varied and cannot rank
        # them, so letting it choose would collapse exploration onto the
        # slice the model happens to call relevant first
        i = len(self.store)
        if i < len(self._init_plan):
            return self._init_plan[i].copy()
        return None

    def _refit_if_due(self, target) -> tuple[np.ndarray, np.ndarray] | None:
        """Refit on the training set at ``target`` when due (at each store size
        of the warm-up from 2 on, then once a period) and return it, else None."""
        n = len(self.store)
        if n < 2 or (n > self.cfg.refit_warmup
                     and n - self._last_refit < self.cfg.refit_period):
            return None
        # the factored tags tune on the store re-scored at a concrete query
        # target; a fixed reference point would bias the relevance estimates
        # toward whatever directions that one target ignores
        dataset = self.dataset(target)
        dim = self.input_space.dim
        self._hyperparams = gp.refit(
            *dataset, self._hyperparams, input_space=self.input_space,
            restarts=self.cfg.refit_restarts, rng=self._rng,
            bounds=_hyperparam_bounds(dim), prior=_hyperparam_prior(dim))
        self._last_refit = len(self.store)
        return dataset

    def _model(self, target, dataset) -> gp.GpModel:
        """The GP at ``target`` under the current hyperparameters, on the
        training set there: ``dataset``, or built here if None.  The fit is
        kept until the store grows or a refit replaces the hyperparameter
        object, as an evaluation grid asks for many targets in between; the
        joint tags' model ignores the target, and the factored tags compute
        the target's standardization and weights on the kept factor."""
        kept = self._kept
        reuse = (kept is not None and kept[0] == len(self.store)
                 and kept[1] is self._hyperparams)
        if reuse and not self.factored:
            return kept[2]
        inputs, rewards = self.dataset(target) if dataset is None else dataset
        if reuse:
            return gp.fit_targets(kept[2], rewards)
        model = gp.fit(inputs, rewards, self._hyperparams,
                       input_space=self.input_space, standardize=True)
        self._kept = (len(self.store), self._hyperparams, model)
        return model

    def select(self, context: Context) -> np.ndarray:
        dataset = self._refit_if_due(context.target)
        planned = self._init_theta()
        if planned is not None:
            return planned
        kind = self.cfg.acquisition_kind
        if kind == "random":
            return self.theta_space.sample_uniform(1, self._rng)[0]
        prefix = self._prefix(context)
        model = self._model(context.target, dataset)
        if kind == "es":
            candidates = self.theta_space.sample_latin(
                self.cfg.n_candidates, self._rng)
            return es_select(model, _prefixed(prefix, candidates[None]), prefix,
                             self.theta_space, self.cfg, self._rng)
        return ucb_select(model, prefix, self.theta_space, self.cfg,
                          kappa=self.cfg.kappa)

    def select_greedy(self, context: Context) -> np.ndarray:
        return ucb_select(self._model(context.target, None),
                          self._prefix(context), self.theta_space, self.cfg,
                          kappa=0.0)

    def _representers(self) -> tuple[np.ndarray, np.ndarray]:
        """The active learners' representer contexts (C, d_ctx), env columns
        trailing, uniform over the context box, and one Latin-hypercube
        candidate set that every context shares, broadcast to (C, M, d_theta)."""
        n = self.cfg.n_representers
        contexts = self.context_space.sample_uniform(n, self._rng)
        candidates = self.theta_space.sample_latin(
            self.cfg.n_candidates, self._rng)
        return contexts, np.broadcast_to(candidates, (n,) + candidates.shape)

    def _joint_query(self) -> tuple[Context, np.ndarray]:
        # aces: a (context, theta) query maximizing the information gain
        # summed over the representer contexts, under the joint model
        dataset = self._refit_if_due(None)
        theta = self._init_theta()
        if theta is not None:
            ctx_vec = self.context_space.sample_uniform(1, self._rng)[0]
        else:
            model = self._model(None, dataset)
            contexts, candidates = self._representers()
            best = es_select(model, _prefixed(contexts, candidates), np.zeros(0),
                             self.input_space, self.cfg, self._rng)
            ctx_vec, theta = np.split(best, [self.context_space.dim])
        d = self.target_space.dim
        return Context(target=ctx_vec[:d], env=ctx_vec[d:]), theta

    def _factored_query(self) -> tuple[Context, np.ndarray]:
        # faces: an (env context, theta) query; the commanded target is
        # indifferent for learning and drawn uniformly for logging, and
        # refits rotate over uniformly drawn targets, matching the
        # distribution of representer branches the faces model fits; the
        # target is drawn on every query, refit or not, which keeps the
        # learner's random stream fixed, and the store is re-scored at it
        # only for a refit
        self._refit_if_due(self.target_space.sample_uniform(1, self._rng)[0])
        theta = self._init_theta()
        if theta is not None:
            env_q = self.env_space.sample_uniform(1, self._rng)[0]
        else:
            # one model with a target column per representer context: the
            # store re-scored at that context's target; each branch scores
            # its env context's block, and with no env context every branch
            # scores the same one
            contexts, candidates = self._representers()
            d = self.target_space.dim
            rewards = reevaluate_targets(self.store, self.reward_fn, contexts[:, :d])
            model = gp.fit_shared_inputs(self.store.reduced_inputs(), rewards.T,
                                         self._hyperparams,
                                         input_space=self.input_space)
            blocks = _prefixed(contexts[:, d:], candidates)
            if self.env_space.dim == 0:
                blocks = blocks[:1]
            best = es_select(model, blocks, np.zeros(0), self.input_space,
                             self.cfg, self._rng)
            env_q, theta = np.split(best, [self.env_space.dim])
        target = self.target_space.sample_uniform(1, self._rng)[0]
        return Context(target=target, env=env_q), theta


class CrepsLearner:
    """Episodic relative-entropy policy search baseline; the reward function
    is unused, as the policy learns from the collection-time rewards."""

    requires_context = True

    def __init__(self, target_space: SearchSpace, env_space: SearchSpace,
                 theta_space: SearchSpace, reward_fn, cfg: LearnerConfig):
        self.theta_space = theta_space
        self.cfg = cfg
        context_dim = target_space.dim + env_space.dim
        feature_dim = creps_feature_dim(context_dim)
        if cfg.creps_period < feature_dim + 1:
            raise ContractError(
                f"creps_period must be at least {feature_dim + 1} for "
                f"{context_dim}-dimensional contexts")
        self.store = ExperienceStore(target_space, env_space, theta_space)
        self.policy = CrepsPolicy.initial(context_dim, theta_space)
        self.kl_history: list[float] = []
        self._rng = np.random.default_rng(cfg.rng_seed)

    def select(self, context: Context) -> np.ndarray:
        theta = self.policy.sample(context.full, self._rng)
        return self.theta_space.clip(theta)

    def select_greedy(self, context: Context) -> np.ndarray:
        return self.theta_space.clip(self.policy.mean_params(context.full))

    def observe(self, context: Context, theta, landing,
                reward: float) -> RolloutRecord:
        record = _append(self.store, context, theta, landing, reward)
        store, k = self.store, self.cfg.creps_period
        if len(store) % k == 0:
            # the batch is the last k rollouts, each context target then env
            contexts = np.hstack([store.targets()[-k:], store.env_contexts()[-k:]])
            self.policy, info = creps_update(contexts, store.params()[-k:],
                                             store.actual_rewards()[-k:],
                                             self.policy,
                                             self.cfg.creps_epsilon)
            if info.get("applied", False):
                self.kl_history.append(info["kl"])
        return record


def make_learner(cfg: LearnerConfig, target_space: SearchSpace,
                 env_space: SearchSpace, theta_space: SearchSpace, reward_fn):
    """Instantiate the learner named by the config's algorithm tag."""
    cls = CrepsLearner if cfg.algorithm == "c-reps" else BoLearner
    return cls(target_space, env_space, theta_space, reward_fn, cfg)


def run_episode(learner, environment, context: Context | None,
                rng: np.random.Generator) -> RolloutRecord:
    """One learning episode: select, roll out with the rng's noise, record.

    Passive learners require the harness-sampled context; active learners
    are handed None and choose their own query.
    """
    if context is None:
        if learner.requires_context:
            raise ContractError("passive learner needs a harness context")
        context, theta = learner.select_query()
    else:
        theta = learner.select(context)
    theta = np.asarray(theta, dtype=float)
    if not learner.theta_space.contains(theta):
        raise ContractError("selected parameters left their box")
    landing = environment.rollout(context.env, theta, rng)
    reward = environment.reward_fn(context.target, landing, theta)
    return learner.observe(context, theta, landing, float(reward))
