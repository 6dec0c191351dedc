"""Factored experience store tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcps import sim
from fcps.errors import ContractError
from fcps.experience import (
    Context,
    ExperienceStore,
    RolloutRecord,
    her_augment,
    reevaluate,
    reevaluate_targets,
)
from fcps.optim import SearchSpace


class DistanceReward:
    """-||target - landing|| - 0.05 v^2 with v the last parameter."""

    def __call__(self, target, landing, params):
        return float(self.batch(np.asarray(target)[None, :],
                                landing[None, :], params[None, :])[0])

    def batch(self, targets, landings, params):
        delta = targets - landings
        dist = np.sqrt(np.sum(delta * delta, axis=1))
        return -dist - 0.05 * params[:, 2] * params[:, 2]


TARGET2 = SearchSpace([-5.0, -5.0], [5.0, 5.0])
ENV0 = SearchSpace(np.zeros(0), np.zeros(0))
ENV1 = SearchSpace([0.0], [1.0])
PARAMS3 = SearchSpace([0.0] * 3, [1.0] * 3)


def make_record(i):
    landing = np.array([1.0 + i, 2.0])
    params = np.array([0.3, 0.4, 0.5 + 0.1 * i])
    reward = DistanceReward()(np.array([0.0, 0.0]), landing, params)
    return RolloutRecord(target=[0.0, 0.1 * i], env_context=[0.2 * i],
                         params=params, landing=landing, actual_reward=reward)


def plain_record(target=(0.0, 0.0), env=(0.0,), params=(0.0, 0.0, 0.0),
                 landing=(0.0, 0.0)):
    return RolloutRecord(target=target, env_context=env, params=params,
                         landing=landing, actual_reward=0.0)


def make_store(n):
    store = ExperienceStore(TARGET2, ENV1, PARAMS3)
    for i in range(n):
        store.append(make_record(i))
    return store


def test_context_split_and_round_trip():
    c = Context(target=[1.0, 2.0], env=[3.0])
    assert np.array_equal(c.full, [1.0, 2.0, 3.0])
    empty_env = Context(target=[1.0, 2.0], env=np.zeros(0))
    assert empty_env.full.shape == (2,)
    with pytest.raises(ContractError):
        Context(target=[np.nan], env=[])


def test_context_validate_against_boxes():
    """The store checks a rollout's target and env context against its boxes,
    and a refused append leaves it empty."""
    record = plain_record(target=[0.5, 0.5], env=[2.0])
    unit2 = SearchSpace([0.0, 0.0], [1.0, 1.0])
    store = ExperienceStore(unit2, SearchSpace([0.0], [3.0]), PARAMS3)
    store.append(record)
    assert len(store) == 1
    for target_space, env_space, name in (
            (SearchSpace([0.0, 0.0], [0.4, 1.0]), SearchSpace([0.0], [3.0]),
             "target"),
            (unit2, SearchSpace([0.0], [1.0]), "env context")):
        store = ExperienceStore(target_space, env_space, PARAMS3)
        with pytest.raises(ContractError, match=f"^{name} outside"):
            store.append(record)
        assert len(store) == 0


def test_record_validation_and_immutability():
    r = make_record(0)
    assert not r.params.flags.writeable
    assert not r.landing.flags.writeable
    assert not r.target.flags.writeable
    with pytest.raises(ContractError, match="actual_reward"):
        RolloutRecord(target=[0.0], env_context=[0.0], params=[0.0],
                      landing=[0.0], actual_reward=np.nan)
    with pytest.raises(ContractError):
        RolloutRecord(target=[np.inf], env_context=[0.0], params=[0.0],
                      landing=[0.0], actual_reward=0.0)
    # the landing is checked as the outcome statistics were: finite and 1-d
    for bad in ([0.0, np.nan], [np.inf, 0.0], [[0.0, 0.0]], 0.0):
        with pytest.raises(ContractError, match="landing"):
            RolloutRecord(target=[0.0], env_context=[0.0], params=[0.0],
                          landing=bad, actual_reward=0.0)
    raw = np.array([1.0, 2.0])
    rec = RolloutRecord(target=raw, env_context=raw, params=[0.0],
                        landing=raw, actual_reward=0.0)
    raw[0] = 99.0
    assert rec.env_context[0] == 1.0 and rec.target[0] == 1.0
    assert rec.landing[0] == 1.0 and not rec.landing.flags.writeable
    assert raw.flags.writeable


def test_store_append_order_and_views():
    store = make_store(4)
    assert len(store) == 4
    assert store.env_contexts().shape == (4, 1)
    assert store.params().shape == (4, 3)
    assert store.targets().shape == (4, 2)
    assert store.landings().shape == (4, 2)
    assert store.reduced_inputs().shape == (4, 4)
    assert np.allclose(store.targets()[:, 1], [0.0, 0.1, 0.2, 0.3])
    assert np.array_equal(store.reduced_inputs()[:, 0], store.env_contexts()[:, 0])
    assert np.allclose(store.env_contexts()[:, 0], [0.0, 0.2, 0.4, 0.6])


def test_store_views_are_read_only_and_never_overwritten():
    # 40 appends cross the initial capacity at least once
    store = ExperienceStore(TARGET2, ENV1, PARAMS3)
    records = [make_record(i % 6) for i in range(40)]
    store.append(records[0])
    names = ("targets", "reduced_inputs", "env_contexts", "params",
             "landings", "actual_rewards")
    old = {name: getattr(store, name)() for name in names}
    old_bytes = {name: view.tobytes() for name, view in old.items()}
    for record in records[1:]:
        store.append(record)
    fresh = {
        "targets": np.array([r.target for r in records]),
        "landings": np.array([r.landing for r in records]),
        "env_contexts": np.array([r.env_context for r in records]),
        "params": np.array([r.params for r in records]),
        "actual_rewards": np.array([r.actual_reward for r in records]),
    }
    fresh["reduced_inputs"] = np.hstack([fresh["env_contexts"], fresh["params"]])
    for name in names:
        assert old[name].tobytes() == old_bytes[name]
        new = getattr(store, name)()
        assert new.shape == fresh[name].shape
        assert new.tobytes() == fresh[name].tobytes()
        for view in (old[name], new):
            with pytest.raises(ValueError):
                view[0] = 0.0


def test_store_space_validation():
    store = make_store(0)
    store.append(make_record(1))
    before = store.targets().tobytes(), store.reduced_inputs().tobytes()
    for bad in (plain_record(target=[0.0, 6.0]), plain_record(env=[2.0]),
                plain_record(params=[0.0, 0.0, 7.0])):
        with pytest.raises(ContractError, match="outside the store's box"):
            store.append(bad)
    assert len(store) == 1
    assert (store.targets().tobytes(), store.reduced_inputs().tobytes()) == before


def test_store_rejects_dimension_drift():
    store = make_store(1)
    for bad in (plain_record(target=[0.0]), plain_record(env=[0.0, 0.0])):
        with pytest.raises(ContractError):
            store.append(bad)
    for landing in ([0.0], [0.0] * 3):
        with pytest.raises(ContractError, match="landing dimension changed"):
            store.append(plain_record(landing=landing))
    assert len(store) == 1
    assert store.landings().shape == (1, 2)


def test_store_landing_column_takes_its_width_from_the_first_append():
    # before any append it is as wide as the target box, so an empty
    # relabeled dataset keeps its (0, d) shape; active-cannon then lands
    # a 2-d point under a 3-d commanded target
    target3 = SearchSpace([0.0] * 3, [1.0] * 3)
    store = ExperienceStore(target3, ENV0, PARAMS3)
    assert store.landings().shape == (0, 3)
    assert store.targets().shape == (0, 3)
    store.append(plain_record(target=[0.5] * 3, env=[], landing=[4.0, 5.0]))
    assert store.landings().tobytes() == np.array([[4.0, 5.0]]).tobytes()
    assert store.targets().shape == (1, 3)


def test_reevaluate_batched_matches_naive_loop_bitwise():
    store = make_store(6)
    fn = DistanceReward()
    target = np.array([1.5, 2.5])
    inputs, batched = reevaluate(store, fn, target)
    naive = np.array([fn(target, r.landing, r.params)
                      for r in map(make_record, range(6))])
    assert np.array_equal(batched, naive)
    assert inputs.shape == (6, 4)


def test_reevaluate_inputs_do_not_depend_on_target():
    store = make_store(5)
    fn = DistanceReward()
    in1, r1 = reevaluate(store, fn, [0.0, 0.0])
    in2, r2 = reevaluate(store, fn, [5.0, -3.0])
    assert np.array_equal(in1, in2)
    assert not np.array_equal(r1, r2)


def test_reevaluate_at_collection_target_recovers_actual_reward():
    store = make_store(4)
    _, rewards = reevaluate(store, DistanceReward(), [0.0, 0.0])
    assert np.array_equal(rewards, store.actual_rewards())


def test_reevaluate_known_arithmetic():
    # landing (1,1), v = 1, query target (1,2): distance 1 plus 0.05
    store = ExperienceStore(TARGET2, ENV0, PARAMS3)
    store.append(RolloutRecord(target=[1.0, 1.0], env_context=[],
                               params=[0.0, 0.0, 1.0], landing=[1.0, 1.0],
                               actual_reward=-0.05))
    _, rewards = reevaluate(store, DistanceReward(), [1.0, 2.0])
    assert rewards[0] == pytest.approx(-1.05, abs=1e-12)


def test_reevaluate_targets_grid():
    store = make_store(4)
    fn = DistanceReward()
    calls = []

    def counted(*args):
        calls.append(args)
        return DistanceReward.batch(fn, *args)

    fn.batch = counted
    grid = np.array([[0.0, 0.0], [1.0, 2.0]])
    out = reevaluate_targets(store, fn, grid)
    assert out.shape == (2, 4)
    # one batched call over every (target, record) pair
    assert len(calls) == 1 and calls[0][0].shape == (8, 2)
    for j, t in enumerate(grid):
        assert np.array_equal(out[j], reevaluate(store, fn, t)[1])
    with pytest.raises(ContractError):
        reevaluate_targets(store, fn, np.zeros(2))
    with pytest.raises(ContractError):
        reevaluate_targets(store, fn, np.array([[0.0, np.nan]]))


# (reward, target space, env space, param space) per task
TASK_REWARDS = {
    "cannon": (sim.CannonReward(), sim.CANNON_TARGET_SPACE, ENV0,
               sim.CANNON_PARAM_SPACE),
    "active-cannon": (sim.ActiveCannonReward(), sim.ACTIVE_CANNON_TARGET_SPACE,
                      ENV0, sim.CANNON_PARAM_SPACE),
    "thrower": (sim.ThrowerReward(), sim.THROWER_TARGET_SPACE,
                sim.THROWER_START_SPACE, sim.THROWER_PARAM_SPACE),
}


@settings(max_examples=60)
@given(task=st.sampled_from(sorted(TASK_REWARDS)), n=st.integers(0, 40),
       n_targets=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_batched_rescoring_matches_per_record_scalar_reward(task, n, n_targets,
                                                            seed):
    reward_fn, target_space, env_space, param_space = TASK_REWARDS[task]
    rng = np.random.default_rng(seed)
    store = ExperienceStore(target_space, env_space, param_space)
    records = []
    for _ in range(n):
        landing = rng.uniform(-12.0, 12.0, 2)
        record = RolloutRecord(target=target_space.center,
                               env_context=env_space.sample_uniform(1, rng)[0],
                               params=param_space.sample_uniform(1, rng)[0],
                               landing=landing,
                               actual_reward=float(rng.standard_normal()))
        store.append(record)
        records.append(record)
    targets = target_space.sample_uniform(n_targets, rng)
    if task == "active-cannon":
        # shoot indicators on both sides of the threshold, and on it
        targets[:, 2] = rng.choice([0.0, 0.05, 0.1, 0.1000001, 0.5, 1.0],
                                   n_targets)
    oracle = np.array([[reward_fn(t, r.landing, r.params) for r in records]
                       for t in targets]).reshape(n_targets, n)
    batched = reevaluate_targets(store, reward_fn, targets)
    assert batched.shape == oracle.shape and batched.dtype == oracle.dtype
    assert batched.tobytes() == oracle.tobytes()
    _, first = reevaluate(store, reward_fn, targets[0])
    assert first.tobytes() == oracle[0].tobytes()


def test_empty_store_reevaluate():
    inputs, rewards = reevaluate(make_store(0), DistanceReward(), [0.0, 0.0])
    assert inputs.shape == (0, 4) and rewards.shape == (0,)


def test_her_augment_uses_achieved_target():
    # the achieved target is the landing
    record = make_record(2)
    fn = DistanceReward()
    reward = her_augment(record, fn)
    assert type(reward) is float
    assert reward == fn(record.landing, record.landing, record.params)
    # distance term vanishes, only the speed penalty remains
    v = record.params[2]
    assert reward == pytest.approx(-0.05 * v * v, abs=1e-12)
    # source record untouched
    assert record.landing[0] == 3.0


def test_her_augment_refuses_an_achieved_target_of_another_shape():
    # the active cannon's landing is (x, y); its target adds the shoot
    # indicator, so the landing cannot stand in for it
    record = RolloutRecord(target=[1.0, 2.0, 0.0], env_context=[],
                           params=[0.3, 0.4, 0.5], landing=[1.0, 2.0],
                           actual_reward=0.0)
    with pytest.raises(ContractError, match="shape"):
        her_augment(record, sim.ActiveCannonReward())
