"""Factored experience store: rollout records, re-evaluation, relabeling.

A context splits into a target part (enters only the reward) and an
environment part (enters only the dynamics).  Because of that split the
environment context, the controller parameters and the rollout's landing
are enough to re-score the whole store under any query target without
touching the simulator.  The commanded target and the collection-time
reward are kept too: the joint learners train on them, hindsight
relabeling reads the landing as the achieved target, and online
performance accounting is unaffected by later re-evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .optim import SearchSpace
from .sim import Reward


def _clean_vector(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 1:
        raise ContractError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Context:
    """Task context: target part plus (possibly empty) environment part."""

    target: np.ndarray
    env: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", _clean_vector(self.target, "target"))
        object.__setattr__(self, "env", _clean_vector(self.env, "env"))

    @property
    def full(self) -> np.ndarray:
        """Concatenated (target, env) vector; env columns trail."""
        return np.concatenate([self.target, self.env])


@dataclass(frozen=True)
class RolloutRecord:
    """One executed rollout: what ran, what happened, what it earned."""

    target: np.ndarray
    env_context: np.ndarray
    params: np.ndarray
    landing: np.ndarray
    actual_reward: float

    def __post_init__(self):
        for name in ("target", "env_context", "params", "landing"):
            object.__setattr__(self, name, _clean_vector(getattr(self, name), name))
        if not np.isfinite(self.actual_reward):
            raise ContractError("actual_reward must be finite")
        object.__setattr__(self, "actual_reward", float(self.actual_reward))


class ExperienceStore:
    """Append-only rollout log kept as growing columns, in insertion order.

    Row i holds rollout i: its commanded target, its (env context, params)
    inputs, its landing and its collection-time reward.  The matrix views
    are read-only and cover the rows appended so far; a later append writes
    past them, or into a fresh buffer, never into them.
    """

    def __init__(self, target_space: SearchSpace, env_space: SearchSpace,
                 param_space: SearchSpace):
        self.target_space = target_space
        self.env_space = env_space
        self.param_space = param_space
        self._box = target_space.concat(env_space).concat(param_space)
        self._n = 0
        rows = 16  # doubled whenever the columns are full
        self._targets = np.empty((rows, target_space.dim))
        self._inputs = np.empty((rows, env_space.dim + param_space.dim))
        # the landing column takes its width from the first append, as a
        # landing can be narrower than the commanded target; until then it
        # is as wide as the target box, so that relabeled rows built from it
        # on an empty store have their full width
        self._landings = np.empty((rows, target_space.dim))
        self._rewards = np.empty(rows)

    def __len__(self) -> int:
        return self._n

    def append(self, record: RolloutRecord) -> None:
        parts = ((record.target, self.target_space, "target"),
                 (record.env_context, self.env_space, "env context"),
                 (record.params, self.param_space, "params"))
        for value, space, name in parts:
            if value.shape != (space.dim,):
                raise ContractError(f"{name} has shape {value.shape}, store "
                                    f"expects ({space.dim},)")
        row = np.concatenate([record.target, record.env_context, record.params])
        if not self._box.contains(row):
            name = next(name for value, space, name in parts
                        if not space.contains(value))
            raise ContractError(f"{name} outside the store's box")
        landing = record.landing
        n = self._n
        if n == 0:
            self._landings = np.empty((len(self._rewards), landing.size))
        elif landing.shape != self._landings.shape[1:]:
            raise ContractError("landing dimension changed mid-store")
        if n == len(self._rewards):
            self._targets, self._inputs, self._landings, self._rewards = (
                np.concatenate([column, np.empty_like(column)]) for column in
                (self._targets, self._inputs, self._landings, self._rewards))
        split = self.target_space.dim
        self._targets[n] = row[:split]
        self._inputs[n] = row[split:]
        self._landings[n] = landing
        self._rewards[n] = record.actual_reward
        self._n = n + 1

    def _view(self, column: np.ndarray) -> np.ndarray:
        view = column[:self._n]
        view.flags.writeable = False
        return view

    def reduced_inputs(self) -> np.ndarray:
        """The (env context, params) input matrix shared by all query targets."""
        return self._view(self._inputs)

    def env_contexts(self) -> np.ndarray:
        return self._view(self._inputs[:, :self.env_space.dim])

    def params(self) -> np.ndarray:
        return self._view(self._inputs[:, self.env_space.dim:])

    def targets(self) -> np.ndarray:
        return self._view(self._targets)

    def landings(self) -> np.ndarray:
        return self._view(self._landings)

    def actual_rewards(self) -> np.ndarray:
        return self._view(self._rewards)


# ---------------------------------------------------------------------------
# re-evaluation
# ---------------------------------------------------------------------------

def reevaluate(store: ExperienceStore, reward_fn: Reward,
               target) -> tuple[np.ndarray, np.ndarray]:
    """Score the whole store under a query target.

    Returns the (env context, params) input matrix and the per-record
    rewards, in insertion order.  Rollouts are never re-simulated; the
    inputs are identical whatever the target.
    """
    target = _clean_vector(target, "target")
    return (store.reduced_inputs(),
            reevaluate_targets(store, reward_fn, target[None, :])[0])


def reevaluate_targets(store: ExperienceStore, reward_fn: Reward,
                       targets) -> np.ndarray:
    """Reward matrix of shape (n_targets, n_records), one row per target,
    from one ``reward_fn.batch`` call over every (target, record) pair."""
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2:
        raise ContractError("targets must be a (n, d) matrix")
    if not np.all(np.isfinite(targets)):
        raise ContractError("targets contain non-finite entries")
    k, n = len(targets), len(store)
    if n == 0:
        return np.zeros((k, 0))
    rewards = reward_fn.batch(np.repeat(targets, n, axis=0),
                              np.tile(store.landings(), (k, 1)),
                              np.tile(store.params(), (k, 1)))
    return np.asarray(rewards, dtype=float).reshape(k, n)


# ---------------------------------------------------------------------------
# relabeling
# ---------------------------------------------------------------------------


def her_augment(record: RolloutRecord, reward_fn: Reward) -> float:
    """The rollout's reward had its landing been the commanded target.

    The relabeled row is (landing, env context, params); for a
    pure-distance reward the distance term vanishes.  The source record is
    not modified.  A landing shaped unlike the commanded target, such as
    the active cannon's 2-d landing against its (x, y, indicator) target,
    cannot stand in for it and raises :class:`ContractError`.
    """
    landing = record.landing
    if landing.shape != record.target.shape:
        raise ContractError(
            f"landing shape {landing.shape} cannot relabel the commanded "
            f"target shape {record.target.shape}")
    return float(reward_fn(landing, landing, record.params))
