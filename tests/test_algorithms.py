"""Selection rules, learner bookkeeping, and the policy-search baseline."""

import numpy as np
import pytest
from scipy.optimize import fmin_l_bfgs_b

from fcps import algorithms, gp, harness
from fcps.algorithms import (
    ACTIVE_ALGORITHMS,
    ALGORITHMS,
    BoLearner,
    CrepsLearner,
    CrepsPolicy,
    LearnerConfig,
    creps_dual,
    creps_features,
    creps_update,
    make_learner,
    run_episode,
    ucb_select,
)
from fcps.errors import ContractError
from fcps.experience import Context, her_augment
from fcps.optim import SearchSpace

TARGET2 = SearchSpace([-1.0, -1.0], [1.0, 1.0])
THETA2 = SearchSpace([0.0, 0.0], [1.0, 1.0])
ENV0 = SearchSpace(np.zeros(0), np.zeros(0))
ENV1 = SearchSpace([-1.0], [1.0])

def small_config(**kw):
    base = dict(kappa=2.0, n_candidates=6, n_function_draws=100,
                n_fantasies=2, refit_warmup=3, refit_period=5,
                refit_restarts=1, direct_evals=40, refine_starts=1,
                refine_iters=8, rng_seed=0)
    base.update(kw)
    return LearnerConfig(**base)


class TargetDistanceReward:
    """R = -||target - landing||; batched and scalar calls agree bitwise."""

    def __call__(self, target, landing, params=None):
        target = np.asarray(target, dtype=float)
        return float(self.batch(target[None, :], landing[None, :])[0])

    def batch(self, targets, landings, params=None):
        delta = np.asarray(targets, float) - np.asarray(landings, float)
        return -np.sqrt(np.sum(delta * delta, axis=1))


class EchoEnv:
    """Rollout that lands on the parameter vector itself, no env state."""

    reward_fn = TargetDistanceReward()

    def rollout(self, env_context, params, rng):
        return np.array(params, dtype=float)


def seeded_echo_learner(algorithm, **kw):
    return make_learner(small_config(algorithm=algorithm, **kw),
                        TARGET2, ENV0, THETA2, TargetDistanceReward())


def feed_latin_rollouts(learner, n, seed=2):
    """Observe n latin-sampled echo rollouts; returns their records."""
    rng = np.random.default_rng(seed)
    reward = TargetDistanceReward()
    records = []
    for p in THETA2.sample_latin(n, rng):
        ctx = Context(target=TARGET2.sample_uniform(1, rng)[0], env=np.zeros(0))
        out = p.copy()
        records.append(learner.observe(ctx, p, out, reward(ctx.target, out)))
    return records


# -- config and dispatch ----------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ContractError):
        LearnerConfig(algorithm="gradient-descent")
    with pytest.raises(ContractError):
        LearnerConfig(acquisition_kind="thompson")
    # only bo-fcps implements the es and random acquisitions
    for tag in set(ALGORITHMS) - {"bo-fcps"}:
        for kind in ("es", "random"):
            with pytest.raises(ContractError):
                LearnerConfig(algorithm=tag, acquisition_kind=kind)
    with pytest.raises(ContractError):
        LearnerConfig(creps_epsilon=0.0)
    with pytest.raises(ContractError):
        LearnerConfig(creps_period=1)
    with pytest.raises(ContractError):
        LearnerConfig(n_representers=0)
    with pytest.raises(ContractError):
        LearnerConfig(refit_period=0)
    with pytest.raises(ContractError):
        LearnerConfig(init_episodes=-1)
    # the refinement and the refit need at least one step or restart; zero
    # would otherwise fail only after the warm start, inside optim or gp
    for field in ("refine_starts", "refine_iters", "refit_restarts"):
        with pytest.raises(ContractError, match=field):
            LearnerConfig(**{field: 0})


def test_make_learner_rejects_too_few_direct_evals_for_its_search_space():
    # aces searches the thrower's joint (context, theta) space, 2 + 3 + 6
    # dimensions, so DIRECT needs 2 * 11 + 1 = 23 evaluations; the learner
    # must refuse 20 before any episode runs, not after its warm start
    env = harness.build_environment(harness.ExperimentConfig(environment="thrower"))
    spaces = (env.target_space, env.env_space, env.theta_space, env.reward_fn)
    with pytest.raises(ContractError, match="23"):
        make_learner(LearnerConfig(algorithm="aces", direct_evals=20), *spaces)
    # faces searches (env context, theta), 9 dimensions, and the passive
    # learners theta alone: 20 is enough for both
    for tag in ("faces", "bo-cps", "bo-fcps"):
        make_learner(LearnerConfig(algorithm=tag, direct_evals=20), *spaces)


def test_direct_evals_must_be_set():
    # a config file can give null; the learner refuses it before any episode
    with pytest.raises(ContractError, match="direct_evals"):
        seeded_echo_learner("bo-fcps", direct_evals=None)


def test_make_learner_dispatch():
    for tag in ALGORITHMS:
        learner = seeded_echo_learner(tag)
        assert type(learner) is (CrepsLearner if tag == "c-reps" else BoLearner)
        assert hasattr(learner, "select_greedy")
        active = tag in ACTIVE_ALGORITHMS
        assert learner.requires_context == (not active)
        assert hasattr(learner, "select_query") == active


# -- joint-model selection --------------------------------------------------


def test_empty_dataset_selects_box_center():
    # constant prior acquisition leaves the space splitter at its start point
    h = gp.KernelHyperparams(1.0, np.full(4, 0.3), 1e-2)
    dataset = (np.zeros((0, 4)), np.zeros(0))
    query = Context(target=np.array([0.2, -0.3]), env=np.zeros(0))
    model = gp.fit(*dataset, h, input_space=TARGET2.concat(THETA2))
    cfg = small_config()
    theta = ucb_select(model, query.full, THETA2, cfg, kappa=cfg.kappa)
    assert np.array_equal(theta, THETA2.center)


def test_selected_ucb_beats_dense_grid():
    """The two-stage maximizer should not lose to a coarse exhaustive grid."""
    rng = np.random.default_rng(0)
    contexts = TARGET2.sample_uniform(12, rng)
    thetas = THETA2.sample_latin(12, rng)
    rewards = -np.sum((thetas - 0.5 * (contexts + 1.0) / 2.0) ** 2, axis=1)
    inputs = np.hstack([contexts, thetas])
    h = gp.KernelHyperparams(1.0, np.full(4, 0.3), 1e-2)
    cfg = small_config(direct_evals=300, refine_starts=2, refine_iters=40)
    query = Context(target=np.array([0.1, 0.5]), env=np.zeros(0))
    model = gp.fit(inputs, rewards, h, input_space=TARGET2.concat(THETA2))
    theta = ucb_select(model, query.full, THETA2, cfg, kappa=cfg.kappa)

    axis = np.linspace(0.0, 1.0, 41)
    gx, gy = np.meshgrid(axis, axis)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    pts = np.hstack([np.broadcast_to(query.full, (len(grid), 2)), grid])
    mean, var = gp.predict_batch(model, pts)
    grid_best = np.max(mean + 2.0 * np.sqrt(var))
    m_sel, v_sel = gp.predict_batch(model, np.concatenate([query.full, theta])[None, :])
    assert m_sel[0] + 2.0 * np.sqrt(v_sel[0]) >= grid_best - 1e-3


def test_factored_greedy_recovers_query_target():
    """With landing == params, the re-scored model peaks at theta == target."""
    for qt in ([0.3, 0.4], [0.7, 0.2], [0.5, 0.8]):
        learner = seeded_echo_learner(
            "bo-fcps", refit_warmup=25, refit_restarts=2,
            direct_evals=120, refine_starts=2, refine_iters=20, rng_seed=1)
        feed_latin_rollouts(learner, 25)
        query = Context(target=np.array(qt), env=np.zeros(0))
        learner.select(query)  # advances the refit schedule
        greedy = learner.select_greedy(query)
        assert np.linalg.norm(greedy - np.array(qt)) < 0.12


def test_factored_inputs_ignore_collection_targets():
    # two learners fed identical rollouts under different commanded targets
    # must produce identical selections: only (env, theta, landing) matter
    learners = []
    for target_seed in (10, 20):
        learner = seeded_echo_learner("bo-fcps", rng_seed=5, init_episodes=0)
        rng = np.random.default_rng(3)
        targets = np.random.default_rng(target_seed).uniform(-1, 1, (8, 2))
        reward = TargetDistanceReward()
        for p, t in zip(THETA2.sample_latin(8, rng), targets):
            out = p.copy()
            learner.observe(Context(target=t, env=np.zeros(0)), p, out,
                            reward(t, out))
        learners.append(learner)
    query = Context(target=np.array([0.6, 0.6]), env=np.zeros(0))
    assert np.array_equal(learners[0].select(query), learners[1].select(query))


def test_factored_select_rescores_the_store_once(monkeypatch):
    # the refit and the selection share one re-scored training set
    learner = seeded_echo_learner("bo-fcps", init_episodes=0)
    records = feed_latin_rollouts(learner, 6)
    targets = []
    rescore = algorithms.reevaluate

    def counted(store, reward_fn, target):
        targets.append(target)
        return rescore(store, reward_fn, target)

    monkeypatch.setattr(algorithms, "reevaluate", counted)
    query = Context(target=np.array([0.3, -0.2]), env=np.zeros(0))
    learner.select(query)
    assert len(targets) == 1 and np.array_equal(targets[0], query.target)
    inputs, rewards = learner.dataset(query.target)
    assert np.array_equal(inputs, learner.store.reduced_inputs())
    reward = TargetDistanceReward()
    assert np.array_equal(rewards, [reward(query.target, r.landing)
                                    for r in records])


# -- hindsight relabeling ---------------------------------------------------


def test_relabel_disabled_matches_plain_select():
    """The relabeling learner selects by plain joint-model selection; only
    its dataset differs, carrying one relabeled row per rollout."""
    learner = seeded_echo_learner("bo-fcps-her", init_episodes=0)
    feed_latin_rollouts(learner, 6)
    learner.select(Context(target=np.array([0.5, -0.5]), env=np.zeros(0)))
    query = Context(target=np.array([0.0, 0.0]), env=np.zeros(0))
    dataset = learner.dataset(query.target)
    h = learner._hyperparams
    assert h is not None
    model = gp.fit(*dataset, h, input_space=TARGET2.concat(THETA2))
    expected = ucb_select(model, query.full, THETA2, learner.cfg, kappa=0.0)
    assert np.array_equal(learner.select_greedy(query), expected)
    expected = ucb_select(model, query.full, THETA2, learner.cfg,
                          kappa=learner.cfg.kappa)
    assert np.array_equal(learner.select(query), expected)


def test_relabeled_dataset_layout():
    learner = seeded_echo_learner("bo-fcps-her")
    records = feed_latin_rollouts(learner, 6)
    inputs, rewards = learner.dataset(np.zeros(2))
    assert inputs.shape == (12, 4)
    assert rewards.shape == (12,)
    for i, record in enumerate(records):
        original = inputs[2 * i]
        relabeled = inputs[2 * i + 1]
        assert np.array_equal(original[2:], record.params)
        assert np.array_equal(relabeled[2:], record.params)
        # the relabeled context is the landing; reward is then the control
        # cost alone since the distance term vanishes
        assert np.array_equal(relabeled[:2], record.landing)
        assert rewards[2 * i + 1] == pytest.approx(0.0, abs=1e-12)
        assert rewards[2 * i] == record.actual_reward


def test_relabeled_dataset_layout_with_env_context():
    # rows 2i and 2i+1 are [target, env, theta] and [landing, env, theta],
    # with the record's reward and the relabel reward
    learner = make_learner(small_config(algorithm="bo-fcps-her"), TARGET2,
                           ENV1, THETA2, TargetDistanceReward())
    assert learner.dataset(np.zeros(2))[0].shape == (0, 5)
    rng = np.random.default_rng(4)
    records = []
    for p, e in zip(THETA2.sample_latin(5, rng), ENV1.sample_uniform(5, rng)):
        ctx = Context(target=TARGET2.sample_uniform(1, rng)[0], env=e)
        out = p[::-1].copy()
        records.append(learner.observe(ctx, p, out,
                                       learner.reward_fn(ctx.target, out)))
    inputs, rewards = learner.dataset(np.zeros(2))
    assert inputs.shape == (10, 5) and rewards.shape == (10,)
    for i, r in enumerate(records):
        assert inputs[2 * i].tobytes() == np.concatenate(
            [r.target, r.env_context, r.params]).tobytes()
        assert inputs[2 * i + 1].tobytes() == np.concatenate(
            [r.landing, r.env_context, r.params]).tobytes()
        assert rewards[2 * i] == r.actual_reward
        assert rewards[2 * i + 1] == her_augment(r, learner.reward_fn)


# -- refit scheduling and greedy isolation ----------------------------------


def test_refit_schedule_warmup_then_period():
    learner = seeded_echo_learner("bo-fcps", refit_warmup=3, refit_period=4)
    env = EchoEnv()
    rng = np.random.default_rng(0)
    refit_counts = []
    for _ in range(9):
        ctx = Context(target=TARGET2.sample_uniform(1, rng)[0], env=np.zeros(0))
        run_episode(learner, env, ctx, rng)
        refit_counts.append(learner._last_refit)
    # warmup refits at n=2,3 then periodic at 7 (select happens before
    # observe, so the nth episode's select sees n-1 records)
    assert refit_counts == [0, 0, 2, 3, 3, 3, 3, 7, 7]


def test_init_plan_covers_box_then_hands_off():
    """First episodes spend a latin plan; greedy never consults it."""
    learner = seeded_echo_learner("bo-fcps", init_episodes=4)
    env = EchoEnv()
    rng = np.random.default_rng(5)
    plan = learner._init_plan.copy()
    for _ in range(6):
        ctx = Context(target=TARGET2.sample_uniform(1, rng)[0], env=np.zeros(0))
        run_episode(learner, env, ctx, rng)
    chosen = learner.store.params()
    assert np.array_equal(chosen[:4], plan)
    for d in range(2):
        strata = np.floor(plan[:, d] * 4).astype(int)
        assert sorted(strata) == [0, 1, 2, 3]

    fresh = seeded_echo_learner("bo-fcps", init_episodes=4)
    greedy = fresh.select_greedy(Context(target=np.zeros(2), env=np.zeros(0)))
    assert np.array_equal(greedy, THETA2.center)


def test_active_init_uses_plan_and_uniform_context():
    learner = active_learner("faces", init_episodes=2)
    ctx, theta = learner.select_query()
    assert np.array_equal(theta, learner._init_plan[0])
    assert np.array_equal(learner.target_space.clip(ctx.target), ctx.target)


def test_greedy_select_leaves_state_untouched():
    learner = seeded_echo_learner("bo-fcps")
    feed_latin_rollouts(learner, 6)
    learner.select(Context(target=np.zeros(2), env=np.zeros(0)))
    h_before = learner._hyperparams
    rng_before = learner._rng.bit_generator.state
    n_before = len(learner.store)
    for _ in range(3):
        learner.select_greedy(Context(target=np.array([0.4, 0.1]), env=np.zeros(0)))
    assert learner._hyperparams is h_before
    assert learner._rng.bit_generator.state == rng_before
    assert len(learner.store) == n_before


@pytest.mark.parametrize("tag", ["bo-cps", "bo-fcps-her", "bo-fcps"])
def test_select_on_a_refit_step_factors_once(tag, monkeypatch):
    # the selection's fit under the refitted hyperparameters; the refit
    # scores the transformed data and builds no factor
    learner = seeded_echo_learner(tag, init_episodes=2)
    feed_latin_rollouts(learner, 3)  # the warm-up's last step: a refit is due
    factored = []
    ladder = gp.factor_with_jitter

    def counted(factor, K, scale):
        factored.append(len(K))
        return ladder(factor, K, scale)

    monkeypatch.setattr(gp, "factor_with_jitter", counted)
    h_before = learner._hyperparams
    learner.select(Context(target=np.array([0.2, -0.4]), env=np.zeros(0)))
    assert learner._last_refit == 3 and learner._hyperparams is not h_before
    rows = 6 if tag == "bo-fcps-her" else 3
    assert factored == [rows]


def test_random_variant_rescores_the_store_only_on_refit_steps(monkeypatch):
    # the random draw reads no model, so only a refit reads the store
    # re-scored at the query target
    learner = seeded_echo_learner("bo-fcps", acquisition_kind="random",
                                  refit_warmup=3, refit_period=3,
                                  init_episodes=2)
    rescored = []
    rescore = algorithms.reevaluate
    monkeypatch.setattr(algorithms, "reevaluate",
                        lambda *args: rescored.append(args[2]) or rescore(*args))
    env, rng = EchoEnv(), np.random.default_rng(6)
    refits = []
    for n in range(12):
        context = Context(target=TARGET2.sample_uniform(1, rng)[0], env=np.zeros(0))
        last, before = learner._last_refit, len(rescored)
        run_episode(learner, env, context, rng)
        refitted = learner._last_refit != last
        assert len(rescored) - before == int(refitted)
        if refitted:
            refits.append(n)
            assert rescored[-1] is context.target
    # every store size of the warm-up from 2 on, then every third
    assert refits == [2, 3, 6, 9]


@pytest.mark.parametrize("tag", ["bo-cps", "bo-fcps-her", "bo-fcps"])
def test_select_from_a_kept_greedy_fit_equals_one_from_a_fresh_fit(tag, monkeypatch):
    # a greedy evaluation between two episodes keeps its fit; the next
    # select, at the same store size and hyperparameters when no refit is
    # due, reads that fit and returns the bits of a fresh fit
    env, rng = EchoEnv(), np.random.default_rng(8)
    learners = [seeded_echo_learner(tag, init_episodes=2, refit_warmup=3,
                                    refit_period=4) for _ in range(2)]
    fits = []
    fit = gp.fit
    monkeypatch.setattr(gp, "fit", lambda *a, **k: fits.append(1) or fit(*a, **k))
    kept_reads = 0
    for _ in range(9):
        context = Context(target=TARGET2.sample_uniform(1, rng)[0], env=np.zeros(0))
        greedy = Context(target=TARGET2.sample_uniform(1, rng)[0], env=np.zeros(0))
        learners[0].select_greedy(greedy)
        before = len(fits)
        picks = [learner.select(context) for learner in learners]
        assert picks[0].tobytes() == picks[1].tobytes()
        kept_reads += len(learners[0].store) >= 2 and len(fits) == before + 1
        landing = env.rollout(None, picks[0], rng)
        reward = env.reward_fn(context.target, landing)
        for learner in learners:
            learner.observe(context, picks[0], landing, reward)
    assert kept_reads >= 2


def test_faces_rescores_the_store_at_its_refit_target_only_to_refit(monkeypatch):
    # past the warm-up (3) and 4 rows after the last refit, under a period
    # of 5, the refit target is drawn but the store is not re-scored at it;
    # one row later the refit re-scores it once
    learner = active_learner("faces", refit_warmup=3, refit_period=5)
    reward = TargetDistanceReward3()
    rng = np.random.default_rng(4)
    rescored = []
    rescore = algorithms.reevaluate
    monkeypatch.setattr(algorithms, "reevaluate",
                        lambda *args: rescored.append(args[2]) or rescore(*args))
    for n, theta in enumerate(THETA2.sample_latin(5, rng), start=1):
        target = learner.target_space.sample_uniform(1, rng)[0]
        out = theta.copy()
        learner.observe(Context(target=target, env=np.zeros(0)), theta, out,
                        reward(target, out))
        if n >= 4:
            last = learner._last_refit
            learner.select_query()
            refitted = learner._last_refit != last
            assert refitted == (n == 5) and len(rescored) == int(refitted)


# -- the greedy fit kept across an evaluation grid --------------------------

GREEDY_TINY = dict(n_candidates=4, n_function_draws=100, n_fantasies=2,
                   n_representers=3, init_episodes=2, refit_restarts=1,
                   direct_evals=30, refine_starts=1, refine_iters=4)


def _fresh_greedy(learner, context) -> np.ndarray:
    """Greedy selection from a model fitted for this call alone."""
    model = gp.fit(*learner.dataset(context.target), learner._hyperparams,
                   input_space=learner.input_space)
    return ucb_select(model, learner._prefix(context), learner.theta_space,
                      learner.cfg, kappa=0.0)


@pytest.mark.parametrize("environment, tag", [
    ("cannon", "bo-cps"), ("cannon", "bo-fcps-her"), ("cannon", "bo-fcps"),
    ("thrower", "bo-fcps"), ("active-cannon", "aces"),
    ("active-cannon", "faces")])
def test_greedy_fit_reuse_equals_a_fresh_fit_between_refits_and_appends(
        environment, tag):
    config = harness.ExperimentConfig(environment=environment, grid_shape=(2, 2),
                                      learner=LearnerConfig(algorithm=tag,
                                                            **GREEDY_TINY))
    env = harness.build_environment(config)
    grid = harness.evaluation_grid(env, config.grid_shape)
    learner = make_learner(config.learner, env.target_space, env.env_space,
                           env.theta_space, env.reward_fn)
    rng = np.random.default_rng(3)
    moved_in_place = 0

    def sweep():
        for context in grid:
            assert learner.select_greedy(context).tobytes() == \
                _fresh_greedy(learner, context).tobytes()

    sweep()  # empty store, initial hyperparameters
    for _ in range(6):
        before = learner._hyperparams, len(learner.store)
        # a selection refits without adding a row
        context = harness.sample_context(env, rng, [env.target_space]) \
            if learner.requires_context else None
        if context is None:
            learner.select_query()
        else:
            learner.select(context)
        after = learner._hyperparams
        if before[0] is not None and not np.array_equal(
                before[0].as_log_vector(), after.as_log_vector()):
            moved_in_place += 1
        assert len(learner.store) == before[1]
        sweep()
        run_episode(learner, env, context, rng)
        sweep()
    # refits moved the hyperparameters between two sweeps on one store size
    assert moved_in_place >= 2


# -- acquisition variants ---------------------------------------------------


def test_random_variant_stays_in_box_and_reproduces():
    thetas = []
    for _ in range(2):
        learner = seeded_echo_learner("bo-fcps", acquisition_kind="random",
                                      rng_seed=9, init_episodes=0)
        feed_latin_rollouts(learner, 4)
        picks = [learner.select(Context(target=np.zeros(2), env=np.zeros(0)))
                 for _ in range(5)]
        thetas.append(np.array(picks))
    assert np.array_equal(thetas[0], thetas[1])
    assert np.array_equal(THETA2.clip(thetas[0]), thetas[0])


def test_es_variant_runs_and_reproduces():
    thetas = []
    for _ in range(2):
        learner = seeded_echo_learner("bo-fcps", acquisition_kind="es",
                                      rng_seed=7, direct_evals=20,
                                      refine_iters=4, init_episodes=0)
        feed_latin_rollouts(learner, 5)
        thetas.append(learner.select(Context(target=np.array([0.2, 0.2]),
                                             env=np.zeros(0))))
    assert np.array_equal(thetas[0], thetas[1])
    assert np.array_equal(THETA2.clip(thetas[0]), thetas[0])


# -- active learners --------------------------------------------------------


def active_learner(tag, **kw):
    target3 = SearchSpace([-1.0, -1.0, 0.0], [1.0, 1.0, 1.0])
    kw.setdefault("init_episodes", 0)
    return make_learner(small_config(algorithm=tag, n_representers=4,
                                     direct_evals=30, **kw),
                        target3, ENV0, THETA2, TargetDistanceReward3())


class TargetDistanceReward3:
    """Distance on the first two target columns; third column is inert."""

    def __call__(self, target, landing, params=None):
        target = np.asarray(target, dtype=float)
        return float(self.batch(target[None, :], landing[None, :])[0])

    def batch(self, targets, landings, params=None):
        delta = np.asarray(targets, float)[:, :2] - np.asarray(landings, float)
        return -np.sqrt(np.sum(delta * delta, axis=1))


def test_active_queries_deterministic_and_in_box():
    for tag in ("aces", "faces"):
        picks = []
        for _ in range(2):
            learner = active_learner(tag, rng_seed=4)
            env = EchoEnv()
            env.reward_fn = TargetDistanceReward3()
            rng = np.random.default_rng(1)
            for _ in range(3):
                run_episode(learner, env, None, rng)
            ctx, theta = learner.select_query()
            picks.append((ctx.full, theta))
            assert np.array_equal(learner.target_space.clip(ctx.target), ctx.target)
            assert np.array_equal(THETA2.clip(theta), theta)
        assert np.array_equal(picks[0][0], picks[1][0])
        assert np.array_equal(picks[0][1], picks[1][1])


def test_faces_query_works_on_empty_store():
    learner = active_learner("faces")
    ctx, theta = learner.select_query()
    assert np.array_equal(THETA2.clip(theta), theta)
    assert np.array_equal(learner.target_space.clip(ctx.target), ctx.target)
    assert len(learner.store) == 0


def env_faces_learner(**kw):
    """A faces learner on a task with a 1-d env context, fed six rollouts."""
    learner = make_learner(small_config(algorithm="faces", n_representers=3,
                                        direct_evals=30, init_episodes=0, **kw),
                           TARGET2, ENV1, THETA2, TargetDistanceReward())
    rng = np.random.default_rng(6)
    for p, e in zip(THETA2.sample_latin(6, rng), ENV1.sample_uniform(6, rng)):
        out = p.copy()
        learner.observe(Context(target=np.zeros(2), env=e), p, out,
                        learner.reward_fn(np.zeros(2), out, p))
    return learner


def test_faces_select_with_env_dimension(monkeypatch):
    """The per-branch path (nonzero env dim) returns valid, repeatable picks,
    each branch scoring its own env-context block."""
    blocks = []
    es_select = algorithms.es_select

    def recording(model, points, *args):
        blocks.append(points.shape)
        return es_select(model, points, *args)

    monkeypatch.setattr(algorithms, "es_select", recording)
    picks = []
    for _ in range(2):
        ctx, theta = env_faces_learner(rng_seed=3).select_query()
        assert np.array_equal(TARGET2.clip(ctx.target), ctx.target)
        assert np.array_equal(ENV1.clip(ctx.env), ctx.env)
        assert np.array_equal(THETA2.clip(theta), theta)
        picks.append(np.concatenate([ctx.full, theta]))
    assert np.array_equal(picks[0], picks[1])
    assert blocks == [(3, 6, 3)] * 2


def test_representers_draw_contexts_then_one_shared_candidate_set():
    learner = env_faces_learner(rng_seed=5)
    rng = np.random.default_rng()
    rng.bit_generator.state = learner._rng.bit_generator.state
    contexts, candidates = learner._representers()
    assert np.array_equal(contexts, learner.context_space.sample_uniform(3, rng))
    shared = THETA2.sample_latin(learner.cfg.n_candidates, rng)
    assert np.array_equal(candidates, np.broadcast_to(shared, (3,) + shared.shape))


def test_aces_query_splits_its_vector_into_target_env_and_theta(monkeypatch):
    # the thrower: a 2-d target, a 3-d env context and a 6-d theta
    env = harness.build_environment(harness.ExperimentConfig(environment="thrower"))
    learner = make_learner(small_config(algorithm="aces", n_representers=3,
                                        direct_evals=30, init_episodes=0),
                           env.target_space, env.env_space, env.theta_space,
                           env.reward_fn)
    v = np.arange(11.0) / 10.0
    calls = []

    def fixed(model, blocks, prefix, space, cfg, rng):
        calls.append((blocks.shape, prefix.shape, space.dim))
        return v.copy()

    monkeypatch.setattr(algorithms, "es_select", fixed)
    ctx, theta = learner.select_query()
    assert calls == [((3, learner.cfg.n_candidates, 11), (0,), 11)]
    assert np.array_equal(ctx.target, v[:2]) and np.array_equal(ctx.env, v[2:5])
    assert np.array_equal(theta, v[5:])


# -- episode loop -----------------------------------------------------------


def test_passive_learner_requires_context():
    learner = seeded_echo_learner("bo-fcps")
    with pytest.raises(ContractError):
        run_episode(learner, EchoEnv(), None, np.random.default_rng(0))


def test_run_episode_records_consistent_reward():
    learner = seeded_echo_learner("bo-cps")
    env = EchoEnv()
    rng = np.random.default_rng(0)
    ctx = Context(target=np.array([0.5, -0.5]), env=np.zeros(0))
    record = run_episode(learner, env, ctx, rng)
    assert len(learner.store) == 1
    expected = env.reward_fn(ctx.target, record.landing, record.params)
    assert record.actual_reward == expected


def test_episode_loop_reproducible_bitwise():
    # init_episodes=3 makes the loop cross from the planned phase into
    # acquisition-driven selection, so both regimes are covered
    stores = []
    for _ in range(2):
        learner = seeded_echo_learner("bo-fcps", rng_seed=3, init_episodes=3)
        env = EchoEnv()
        rng = np.random.default_rng(12)
        for _ in range(8):
            ctx = Context(target=TARGET2.sample_uniform(1, rng)[0],
                          env=np.zeros(0))
            run_episode(learner, env, ctx, rng)
        stores.append(learner.store)
    assert np.array_equal(stores[0].params(), stores[1].params())
    assert np.array_equal(stores[0].actual_rewards(), stores[1].actual_rewards())


# -- relative-entropy policy search -----------------------------------------


def random_batch(n, context_dim, theta_dim, seed):
    rng = np.random.default_rng(seed)
    contexts = rng.uniform(-1, 1, (n, context_dim))
    params = rng.uniform(0, 1, (n, theta_dim))
    rewards = rng.normal(0, 1, n)
    return contexts, params, rewards


def test_dual_gradient_matches_finite_differences():
    contexts, _, rewards = random_batch(8, 1, 2, 11)
    features = creps_features(contexts)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = np.concatenate([[np.exp(rng.uniform(-1, 1))],
                            rng.normal(0, 1, features.shape[1])])
        _, grad = creps_dual(x[0], x[1:], features, rewards, 0.5)
        numeric = np.zeros_like(x)
        for i in range(len(x)):
            step = np.zeros_like(x)
            step[i] = 1e-6
            up, _ = creps_dual(*(x + step)[:1], (x + step)[1:], features,
                               rewards, 0.5)
            down, _ = creps_dual(*(x - step)[:1], (x - step)[1:], features,
                                 rewards, 0.5)
            numeric[i] = (up - down) / 2e-6
        assert np.abs(grad - numeric).max() < 1e-6


def test_dual_is_midpoint_convex():
    contexts, _, rewards = random_batch(8, 1, 2, 11)
    features = creps_features(contexts)
    rng = np.random.default_rng(1)
    for _ in range(200):
        eta_a, eta_b = np.exp(rng.uniform(-4, 4, 2))
        v_a, v_b = rng.uniform(-5, 5, (2, features.shape[1]))
        ga, _ = creps_dual(eta_a, v_a, features, rewards, 0.5)
        gb, _ = creps_dual(eta_b, v_b, features, rewards, 0.5)
        gm, _ = creps_dual(0.5 * (eta_a + eta_b), 0.5 * (v_a + v_b),
                           features, rewards, 0.5)
        assert gm <= 0.5 * (ga + gb) + 1e-9


def test_dual_optimum_beats_random_search():
    contexts, params, rewards = random_batch(8, 1, 2, 11)
    features = creps_features(contexts)
    policy = CrepsPolicy.initial(1, THETA2)
    _, info = creps_update(contexts, params, rewards, policy, 0.5)
    achieved, _ = creps_dual(info["eta"], info["v"], features, rewards, 0.5)
    rng = np.random.default_rng(0)
    best = np.inf
    for _ in range(20000):
        eta = np.exp(rng.uniform(np.log(1e-6), np.log(1e6)))
        v = rng.uniform(-20, 20, features.shape[1])
        value, _ = creps_dual(eta, v, features, rewards, 0.5)
        best = min(best, value)
    assert achieved <= best + 1e-6


def _creps_dual_solution_as_before(contexts, rewards, epsilon):
    """The ``(eta, v)`` that ``creps_update`` solved for when it went through
    ``optim.lbfgs_refine``'s analytic-gradient option: L-BFGS-B on separate
    value and gradient functions of the negated dual, the end point clipped
    to the box and kept only if it is finite and no worse than the start.
    The oracle for its bits."""
    features = creps_features(contexts)
    lo, hi = algorithms._ETA_BOUNDS
    k = features.shape[1]
    lower = np.concatenate([[np.log(lo)], np.full(k, -algorithms._V_BOUND)])
    upper = np.concatenate([[np.log(hi)], np.full(k, algorithms._V_BOUND)])

    def score(x):  # the negated dual, as the batch objective gave it
        neg = np.array([-creps_dual(np.exp(x[0]), x[1:], features, rewards, epsilon)[0]])
        return float(neg[0])

    def neg_grad(x):
        eta = np.exp(x[0])
        grad = creps_dual(eta, x[1:], features, rewards, epsilon)[1].copy()
        grad[0] *= eta
        return -grad

    x0 = np.clip(np.concatenate([[np.log(np.clip(np.std(rewards), 1.0, hi / 10))],
                                 np.zeros(k)]), lower, upper)
    f0 = score(x0)
    res_x, _, _ = fmin_l_bfgs_b(lambda x: -score(x), x0,
                                fprime=lambda x: -np.asarray(neg_grad(x), dtype=float),
                                bounds=list(zip(lower.tolist(), upper.tolist())),
                                m=10, maxiter=200)
    x = np.clip(res_x, lower, upper)
    val = score(x)
    best = x0 if not np.isfinite(val) or val < f0 else x
    return float(np.exp(best[0])), best[1:]


@pytest.mark.parametrize("seed", range(12))
def test_creps_update_solves_the_dual_as_before_with_one_solve_per_point(
        seed, monkeypatch):
    rng = np.random.default_rng(seed)
    context_dim, theta_dim = int(rng.integers(0, 3)), int(rng.integers(1, 4))
    n = algorithms.creps_feature_dim(context_dim) + 1 + int(rng.integers(0, 30))
    contexts, params, rewards = random_batch(n, context_dim, theta_dim, seed)
    rewards *= rng.uniform(0.1, 10.0)
    epsilon = float(rng.choice([0.1, 0.5, 2.0]))
    want_eta, want_v = _creps_dual_solution_as_before(contexts, rewards, epsilon)

    solved, solutions = [], []
    dual, weights = algorithms.creps_dual, algorithms._dual_weights

    def counted(eta, v, *rest):
        solved.append((float(eta), v.tobytes()))
        return dual(eta, v, *rest)

    def first_weights(eta, v, *rest):
        solutions.append((eta, v))
        return weights(eta, v, *rest)

    monkeypatch.setattr(algorithms, "creps_dual", counted)
    monkeypatch.setattr(algorithms, "_dual_weights", first_weights)
    policy = CrepsPolicy.initial(context_dim, SearchSpace(np.zeros(theta_dim),
                                                           np.ones(theta_dim)))
    creps_update(contexts, params, rewards, policy, epsilon)
    eta, v = solutions[0]
    assert eta == want_eta and v.tobytes() == want_v.tobytes()
    assert len(set(solved)) == len(solved) > 1


def _kl_repair_as_before(eta, v, features, rewards, epsilon):
    """``creps_update``'s KL repair as it was with a fixed 60 bisection
    steps, verbatim: the oracle for its bits."""
    hi = algorithms._ETA_BOUNDS[1]
    _dual_weights, _empirical_kl = algorithms._dual_weights, algorithms._empirical_kl
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
    return eta_hi


def test_kl_repair_equals_the_sixty_step_loop(monkeypatch):
    solve, solutions, repaired = algorithms.optim.lbfgs_minimize, [], 0

    def recorded(*args, **kwargs):
        x, value = solve(*args, **kwargs)
        solutions.append(x)
        return x, value

    monkeypatch.setattr(algorithms.optim, "lbfgs_minimize", recorded)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        context_dim, theta_dim = int(rng.integers(0, 3)), int(rng.integers(1, 4))
        n = algorithms.creps_feature_dim(context_dim) + 1 + int(rng.integers(0, 30))
        contexts, params, rewards = random_batch(n, context_dim, theta_dim, seed)
        rewards *= rng.uniform(0.1, 10.0)
        epsilon = float(rng.choice([0.1, 0.5, 2.0]))
        policy = CrepsPolicy.initial(context_dim, SearchSpace(np.zeros(theta_dim),
                                                               np.ones(theta_dim)))
        _, info = creps_update(contexts, params, rewards, policy, epsilon)
        eta, v = float(np.exp(solutions[-1][0])), solutions[-1][1:]
        features = creps_features(contexts)
        if algorithms._empirical_kl(algorithms._dual_weights(eta, v, features, rewards)) \
                > epsilon:
            repaired += 1
            assert info["eta"] == _kl_repair_as_before(eta, v, features, rewards, epsilon)
        else:
            assert info["eta"] == eta
    assert repaired >= 10


def test_equal_rewards_give_uniform_weights_and_ols_fit():
    rng = np.random.default_rng(5)
    contexts = rng.uniform(-1, 1, (12, 2))
    params = rng.uniform(0, 1, (12, 3))
    policy = CrepsPolicy.initial(2, SearchSpace(np.zeros(3), np.ones(3)))
    new, info = creps_update(contexts, params, np.full(12, 2.5), policy, 0.5)
    assert info["kl"] < 1e-4
    weights = info["weights"]
    assert weights.max() / weights.min() < 1.02
    features = creps_features(contexts)
    ols = np.linalg.lstsq(features, params, rcond=None)[0]
    assert np.abs(new.weights - ols).max() < 1e-2


def test_large_epsilon_concentrates_on_best_sample():
    # with the bound effectively removed the optimal weighting is a point
    # mass on the highest-reward rollout
    params = np.array([[0.2, 0.2], [0.8, 0.4], [0.5, 0.9]])
    rewards = np.array([1.0, 3.0, 2.0])
    policy = CrepsPolicy.initial(0, THETA2)
    new, info = creps_update(np.zeros((3, 0)), params, rewards, policy, 100.0)
    assert info["weights"][1] > 0.999
    assert np.abs(new.mean_params(np.zeros(0)) - params[1]).max() < 1e-4


def test_update_respects_kl_bound():
    for seed in range(6):
        for epsilon in (0.1, 0.5, 2.0):
            contexts, params, rewards = random_batch(10, 1, 2, seed)
            policy = CrepsPolicy.initial(1, THETA2)
            _, info = creps_update(contexts, params, rewards, policy, epsilon)
            if info.get("applied", True):
                assert info["kl"] <= epsilon + 1e-3


def test_update_rejects_small_batches():
    contexts, params, rewards = random_batch(3, 1, 2, 0)
    with pytest.raises(ContractError):
        creps_update(contexts, params, rewards, CrepsPolicy.initial(1, THETA2), 0.5)


def test_policy_validation_and_clipped_sampling():
    with pytest.raises(ContractError):
        CrepsPolicy(weights=np.zeros((3, 2)), cov=np.array([[1.0, 0.5],
                                                            [0.4, 1.0]]))
    with pytest.raises(ContractError):
        CrepsPolicy(weights=np.zeros((3, 2)), cov=np.diag([1.0, -0.1]))
    learner = seeded_echo_learner("c-reps")
    wide = CrepsPolicy(weights=np.zeros((5, 2)), cov=np.eye(2) * 100.0)
    learner.policy = wide
    theta = learner.select(Context(target=np.array([0.9, -0.9]), env=np.zeros(0)))
    assert np.array_equal(THETA2.clip(theta), theta)


def test_creps_learner_update_cadence():
    learner = seeded_echo_learner("c-reps", creps_period=7)
    env = EchoEnv()
    rng = np.random.default_rng(0)
    initial = learner.policy
    for episode in range(1, 22):
        ctx = Context(target=TARGET2.sample_uniform(1, rng)[0], env=np.zeros(0))
        run_episode(learner, env, ctx, rng)
        assert len(learner.kl_history) == episode // 7
    assert learner.policy is not initial
    assert all(k <= learner.cfg.creps_epsilon + 1e-3 for k in learner.kl_history)


def test_creps_update_reads_the_last_period_of_records(monkeypatch):
    # a 3-d context makes 7 features, so 8 is the smallest period
    learner = make_learner(small_config(algorithm="c-reps", creps_period=8),
                           TARGET2, ENV1, THETA2, TargetDistanceReward())
    batches = []
    update = algorithms.creps_update

    def recorded(contexts, params, rewards, policy, epsilon):
        batches.append((contexts.copy(), params.copy(), rewards.copy()))
        return update(contexts, params, rewards, policy, epsilon)

    monkeypatch.setattr(algorithms, "creps_update", recorded)
    env = EchoEnv()
    rng = np.random.default_rng(5)
    records = []
    for _ in range(17):
        ctx = Context(target=TARGET2.sample_uniform(1, rng)[0],
                      env=ENV1.sample_uniform(1, rng)[0])
        records.append(run_episode(learner, env, ctx, rng))
    assert len(batches) == 2
    for j, (contexts, params, rewards) in enumerate(batches):
        batch = records[8 * j:8 * (j + 1)]
        want = (np.array([np.concatenate([r.target, r.env_context])
                          for r in batch]),
                np.array([r.params for r in batch]),
                np.array([r.actual_reward for r in batch]))
        for got, expected in zip((contexts, params, rewards), want):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("algorithm", ["bo-cps", "bo-fcps", "c-reps"])
def test_observe_rejects_out_of_box_contexts(algorithm):
    learner = make_learner(small_config(algorithm=algorithm), TARGET2, ENV1,
                           THETA2, TargetDistanceReward())
    theta = THETA2.center
    out = theta.copy()
    learner.observe(Context(target=np.zeros(2), env=np.zeros(1)), theta, out,
                    0.0)
    for ctx in (Context(target=np.array([0.0, 1.5]), env=np.zeros(1)),
                Context(target=np.zeros(2), env=np.array([-1.5]))):
        with pytest.raises(ContractError, match="outside"):
            learner.observe(ctx, theta, out, 0.0)
        assert len(learner.store) == 1


def test_creps_period_must_cover_features():
    # 2-d context makes 5 features, so a period of 5 cannot fit the dual
    with pytest.raises(ContractError):
        seeded_echo_learner("c-reps", creps_period=5)
