"""Pinned reward digests: every learner path, end to end, on tiny settings.

Each case in ``PINS`` is one single-seed ``harness.run`` of 8 episodes (3
of them the space-filling warm start) with one greedy evaluation on a 2x2
grid; the cases in ``LONGER_PINS`` run longer or evaluate more often, and
those in ``REPRESENTER_PINS`` score more representer contexts.  The digest
covers the online and the offline reward bits, so a change to the training
set, the query prefix, the refit schedule or the order of a learner's rng
draws shows up here.  ``PINS`` was recorded before the BO
learners were merged into one class, ``LONGER_PINS`` before the greedy
evaluation kept its fit across a grid, ``REPRESENTER_PINS`` before the
entropy-search engines were merged into one; a refactor keeps them, a
change that moves result bits re-records them and says so.
"""

import hashlib

import numpy as np
import pytest

from fcps import harness
from fcps.algorithms import ALGORITHMS, LearnerConfig
from fcps.errors import ContractError

TINY_LEARNER = dict(n_candidates=4, n_function_draws=100, n_fantasies=2,
                    n_representers=3, init_episodes=3, refit_restarts=1,
                    direct_evals=30, refine_starts=1, refine_iters=4)

# (environment, algorithm, acquisition kind, creps_period) -> digest
PINS = {
    ("cannon", "bo-cps", "ucb", 30): "1917a74122723255",
    ("cannon", "bo-fcps", "ucb", 30): "9b927d34e6eda49b",
    ("cannon", "bo-fcps-her", "ucb", 30): "bb9ff50c5e204def",
    ("cannon", "c-reps", "ucb", 6): "644d8c8c3f034aa6",
    ("cannon", "bo-fcps", "es", 30): "4bb08c3d46569c79",
    ("cannon", "bo-fcps", "random", 30): "faf2c583eac1967e",
    ("thrower", "bo-cps", "ucb", 30): "d1ebea106ec8cd12",
    ("thrower", "bo-fcps", "ucb", 30): "d0f380311db045f3",
    ("thrower", "bo-fcps-her", "ucb", 30): "f729aad28f06aa3a",
    ("thrower", "c-reps", "ucb", 12): "632ca4ef50d85275",
    ("thrower", "bo-fcps", "es", 30): "ce155334885854af",
    ("thrower", "bo-fcps", "random", 30): "725409b78f1f9673",
    ("active-cannon", "aces", "ucb", 30): "0fd065a41ac4cb6e",
    ("active-cannon", "faces", "ucb", 30): "c1cacb086f8c9db1",
    ("thrower", "aces", "ucb", 30): "2286057629ffc01c",
    ("thrower", "faces", "ucb", 30): "f8abe58458720d9d",
}


# longer runs: (environment, algorithm, acquisition kind, creps_period,
# episodes, evaluation_period) -> digest.  The thrower's C-REPS case spans
# two policy updates over 5-d contexts (target and env context), each
# followed by a greedy evaluation; the BO cases evaluate twice, with four
# refits and four appends between the two sweeps.
LONGER_PINS = {
    ("thrower", "c-reps", "ucb", 12, 24, 12): "4be9c78f11b874c4",
    ("cannon", "bo-fcps-her", "ucb", 30, 8, 4): "1c3e5946b44d0f67",
    ("thrower", "bo-fcps", "ucb", 30, 8, 4): "9ae67d60b3d9092e",
}


# many representers: (environment, algorithm, acquisition kind, creps_period,
# episodes, evaluation_period, n_representers) -> digest.  faces on the
# thrower sums one information gain per representer for every query, and
# numpy's pairwise sum orders more than eight terms differently from a
# left-to-right sum, so this case tells the two apart where three
# representers cannot.
REPRESENTER_PINS = {
    ("thrower", "faces", "ucb", 30, 12, 12, 20): "b80e7d0672b69a28",
}


def reward_digest(environment, algorithm, kind, creps_period, episodes=8,
                  evaluation_period=8, n_representers=3) -> str:
    learner = LearnerConfig(algorithm=algorithm, acquisition_kind=kind,
                            creps_period=creps_period,
                            **dict(TINY_LEARNER, n_representers=n_representers))
    config = harness.ExperimentConfig(
        environment=environment, seeds=(0,), episodes=episodes,
        evaluation_period=evaluation_period, grid_shape=(2, 2), learner=learner)
    result = harness.run(config)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.online_rewards).tobytes())
    h.update(np.ascontiguousarray(result.offline_rewards).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", list(PINS),
                         ids=lambda c: "-".join(map(str, c)))
def test_learner_rewards_match_their_pinned_digest(case):
    assert reward_digest(*case) == PINS[case]


@pytest.mark.parametrize("case", list(LONGER_PINS),
                         ids=lambda c: "-".join(map(str, c)))
def test_longer_runs_match_their_pinned_digest(case):
    assert reward_digest(*case) == LONGER_PINS[case]


@pytest.mark.parametrize("case", list(REPRESENTER_PINS),
                         ids=lambda c: "-".join(map(str, c)))
def test_many_representer_runs_match_their_pinned_digest(case):
    assert reward_digest(*case) == REPRESENTER_PINS[case]


# the one pair refused: bo-fcps-her relabels with the achieved landing,
# which has no shoot indicator to stand in for the active cannon's target
REFUSED = {("active-cannon", "bo-fcps-her")}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("environment", list(harness.ENVIRONMENTS))
def test_every_environment_and_algorithm_runs_or_is_refused(environment, algorithm):
    def build():
        return harness.ExperimentConfig(
            environment=environment, seeds=(0,), episodes=8,
            evaluation_period=8, grid_shape=(2, 2),
            learner=LearnerConfig(algorithm=algorithm, **TINY_LEARNER))

    if (environment, algorithm) in REFUSED:
        # refused where the environment and the tag meet: in the config
        with pytest.raises(ContractError):
            build()
        return
    config = build()
    result = harness.run(config)
    assert result.online_rewards.shape == (1, 8)
    assert np.isfinite(result.online_rewards).all()
    assert np.isfinite(result.offline_rewards).all()
