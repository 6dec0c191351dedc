"""The benchmark's workloads: which learners run, on which task, how long.

Each workload runs one seed of every listed learner.  The workload seed
picks every learner's random streams, so the same seed gives the same
inputs and, the program being deterministic, the same rewards bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LearnerSpec:
    algorithm: str
    episodes: int
    evaluation_period: int

    @property
    def evaluations(self) -> int:
        return self.episodes // self.evaluation_period


@dataclass(frozen=True)
class Workload:
    name: str
    environment: str
    grid_shape: tuple[int, int]
    learners: tuple[LearnerSpec, ...]
    why: str
    # about how long one round takes at full speed on a 2-core x86-64 VM;
    # fixes how many rounds a run of a given length makes
    round_s: float

    @property
    def grid_size(self) -> int:
        return self.grid_shape[0] * self.grid_shape[1]


WORKLOADS = {w.name: w for w in (
    # Greedy offline evaluation dominates: every BO learner solves one
    # DIRECT + L-BFGS problem over gp.predict_batch per grid context, and the
    # factored learner re-scores its store for each one.  No entropy search.
    # The grid is 8x8 rather than the studies' 15x15 so that a round fits
    # twice in a run of 25 s; the work per context is the same.
    Workload(
        name="passive-cannon",
        environment="cannon",
        grid_shape=(8, 8),
        learners=(LearnerSpec("c-reps", 60, 30),
                  LearnerSpec("bo-cps", 60, 30),
                  LearnerSpec("bo-fcps-her", 60, 30),
                  LearnerSpec("bo-fcps", 60, 30)),
        why="read-heavy: greedy offline evaluation of four passive learners, "
            "twice each on an 8x8 grid; optim and gp.predict_batch dominate, "
            "no entropy search",
        round_s=9.5,
    ),
    # Past its warm start of 10 episodes faces picks eight queries by entropy
    # search, which outweighs everything else; it also re-scores the store
    # per representer and fits a shared ensemble.  aces is left out: the
    # time of one of its selections varies fourfold with the seed (the
    # L-BFGS refinement stops early or late), so no run that fits in the
    # benchmark's budget would give a steady figure.
    Workload(
        name="active-cannon",
        environment="active-cannon",
        grid_shape=(8, 8),
        learners=(LearnerSpec("faces", 18, 18),),
        why="entropy search: faces past its warm start picks eight queries "
            "by information gain; acquisition dominates, rollouts are "
            "negligible",
        round_s=16.0,
    ),
    # A long online horizon with one write and one selection per episode;
    # DMP rollouts and hyperparameter refits up to n = 150 share the time.
    # One small final evaluation keeps offline work to about a tenth.
    Workload(
        name="thrower-online",
        environment="thrower",
        grid_shape=(7, 7),
        learners=(LearnerSpec("bo-cps", 150, 150),
                  LearnerSpec("bo-fcps", 150, 150)),
        why="append-heavy: 150 online episodes per learner on the 3-d "
            "env-context thrower; DMP rollouts and refits up to n=150, "
            "little offline evaluation",
        round_s=11.0,
    ),
)}
