"""Run whole learners through ``fcps.harness.run`` and time them in pieces.

Each learner run of a workload is one single-seed ``harness.run`` call, the
loop ``fcps run`` executes.  While it runs, the names the harness looks up
as module globals are wrapped: ``run_episode`` and ``offline_eval``, to
count episodes and evaluation contexts, and ``make_learner``, to wrap the
learner's selections.  Every wrapped call, and every entropy-search
``gains`` call, marks the wall clock on entry and exit.  The marks cut the
run into pieces of a few milliseconds to a few hundred; each piece is
tagged with its phase (online episode, offline evaluation, or neither) and
the online selection it belongs to.  At a mark, at most every tenth of a
second, the machine's speed is sampled (see ``speed``), so that
``reference_times`` can give each piece in reference seconds.

A learner run that fails is counted and the workload goes on with the next
learner.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from fcps import acquisition, algorithms, harness
from fcps.errors import ContractError, NumericalError

import speed
from spans import patched
from workloads import LearnerSpec, Workload

# what a learner run may raise when its numerics or inputs give out
FAILURES = (ContractError, NumericalError, FloatingPointError,
            np.linalg.LinAlgError)
MODEL_FREE = frozenset({"c-reps"})
# the entropy-search engine of faces, the only one a workload runs
ES_ENGINES = (acquisition.EnsembleEsEngine,)
OTHER, ONLINE, EVAL = "other", "online", "eval"


def experiment_config(workload: Workload, spec: LearnerSpec,
                      seed: int) -> harness.ExperimentConfig:
    """The single-seed harness config one learner run of a workload is.

    Like the paper's studies, every seed runs on the default task world;
    the seed drives the learner, context and rollout-noise streams.
    """
    return harness.ExperimentConfig(
        environment=workload.environment,
        episodes=spec.episodes, evaluation_period=spec.evaluation_period,
        seeds=(seed,), grid_shape=workload.grid_shape,
        learner=algorithms.LearnerConfig(algorithm=spec.algorithm))


class Clock:
    """Wall-clock marks, each tagged with the phase and the selection the
    piece of the run that starts there belongs to, and speed samples."""

    def __init__(self):
        self.arrivals: list[float] = []  # when each mark was reached
        self.times: list[float] = []     # when the piece after it started
        self.phases: list[str] = []
        self.selections: list[int] = []
        self.n_selections = 0
        self.sample_times: list[float] = []
        self.speeds: list[float] = []
        self._phase = OTHER
        self._selection = -1

    def mark(self, force_sample: bool = False) -> None:
        now = time.perf_counter()
        self.arrivals.append(now)
        if force_sample or not self.sample_times or \
                now - self.sample_times[-1] >= speed.SAMPLE_INTERVAL_S:
            self.sample_times.append(now)
            self.speeds.append(speed.sample())
            now = time.perf_counter()
        self.phases.append(self._phase)
        self.selections.append(self._selection)
        self.times.append(now)

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end wall time of every piece, sampling left out."""
        return np.array(self.times[:-1]), np.array(self.arrivals[1:])

    def wrap(self, fn, phase: str | None = None, selection: bool = False):
        """``fn`` with a mark on entry and exit; the pieces inside belong to
        ``phase`` (if given) and, with ``selection``, to a new selection."""
        def marked(*args, **kwargs):
            outer = self._phase, self._selection
            if phase:
                self._phase = phase
            if selection:
                self._selection = self.n_selections
                self.n_selections += 1
            self.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self._phase, self._selection = outer
                self.mark()
        return marked


@dataclass
class LearnerRun:
    algorithm: str
    online: list[float] = field(default_factory=list)
    offline: list[float] = field(default_factory=list)
    clock: Clock = field(default_factory=Clock)
    episodes: int = 0
    contexts: int = 0
    attempted: int = 0
    failed: int = 0
    error: str | None = None

    @property
    def wall_s(self) -> float:
        return self.clock.arrivals[-1] - self.clock.times[0]

    @property
    def warm_start(self) -> int:
        """Selections before the model-based ones: the public warm-start
        budget, or all of them for a model-free learner."""
        if self.algorithm in MODEL_FREE:
            return self.clock.n_selections
        return algorithms.DEFAULT_INIT_EPISODES[self.algorithm]

    def digest(self) -> str:
        """Hash of the online and offline reward bits."""
        h = hashlib.sha256(np.array(self.online, dtype=float).tobytes())
        h.update(np.array(self.offline, dtype=float).tobytes())
        return h.hexdigest()[:16]


def run_learner(workload: Workload, spec: LearnerSpec,
                seed: int) -> LearnerRun:
    """One seed of one learner through ``harness.run``, marked."""
    result = LearnerRun(spec.algorithm)
    clock = result.clock
    # operations under way when a failure strikes: the episode, or every
    # context of the evaluation, since its mean reward is lost with it
    in_flight = [1]

    def make_learner(make):
        def marked(*args, **kwargs):
            learner = make(*args, **kwargs)
            select = "select" if learner.requires_context else "select_query"
            setattr(learner, select, clock.wrap(getattr(learner, select),
                                                selection=True))
            if hasattr(learner, "select_greedy"):
                learner.select_greedy = clock.wrap(learner.select_greedy)
            return learner
        return marked

    def run_episode(episode):
        def counted(*args, **kwargs):
            in_flight[0] = 1
            record = episode(*args, **kwargs)
            result.attempted += 1
            result.episodes += 1
            if not math.isfinite(record.actual_reward):
                result.failed += 1
            return record
        return clock.wrap(counted, phase=ONLINE)

    def offline_eval(evaluate):
        def counted(learner, contexts, environment):
            in_flight[0] = len(contexts)
            mean = evaluate(learner, contexts, environment)
            result.attempted += len(contexts)
            result.contexts += len(contexts)
            if not math.isfinite(mean):
                result.failed += len(contexts)
            in_flight[0] = 1
            return mean
        return clock.wrap(counted, phase=EVAL)

    sites = [(harness, "make_learner", make_learner),
             (harness, "run_episode", run_episode),
             (harness, "offline_eval", offline_eval)]
    sites += [(engine, "gains", clock.wrap) for engine in ES_ENGINES]
    clock.mark()
    try:
        with patched(sites):
            out = harness.run(experiment_config(workload, spec, seed))
        result.online = [float(v) for v in out.online_rewards[0]]
        result.offline = [float(v) for v in out.offline_rewards[0]]
    except FAILURES as err:
        result.attempted += in_flight[0]
        result.failed += in_flight[0]
        result.error = f"{type(err).__name__}: {err}"
    clock.mark(force_sample=True)
    return result


@dataclass
class Round:
    runs: list[LearnerRun]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.runs)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.runs)

    def digests(self) -> dict[str, str]:
        return {r.algorithm: r.digest() for r in self.runs}

    def pieces(self) -> list[tuple[list[str], list[int]]]:
        """The tags of every learner run's pieces, for comparing rounds."""
        return [(r.clock.phases, r.clock.selections) for r in self.runs]


def run_round(workload: Workload, seed: int) -> Round:
    """Every learner run of the workload, one after the other."""
    return Round([run_learner(workload, spec, seed)
                  for spec in workload.learners])


@dataclass
class Timed:
    """A round's figures in reference seconds."""
    run_s: float
    online_s: float
    eval_s: float
    episodes: int
    contexts: int
    # latencies of the model-based selections of each learner that makes any
    select_ms: dict[str, list[float]]


def reference_times(rnd: Round) -> Timed:
    """Every piece of the round in reference seconds, summed by phase and
    by model-based selection."""
    run_s = online_s = eval_s = 0.0
    select_ms: dict[str, list[float]] = {}
    for run in rnd.runs:
        clock = run.clock
        pieces = speed.reference_seconds(*clock.pieces(), clock.sample_times,
                                         clock.speeds)
        phases = np.array(clock.phases[:-1])
        run_s += pieces.sum()
        online_s += pieces[phases == ONLINE].sum()
        eval_s += pieces[phases == EVAL].sum()
        selection = np.array(clock.selections[:-1])
        inside = selection >= 0
        per_selection = np.bincount(selection[inside], weights=pieces[inside],
                                    minlength=clock.n_selections)
        if len(per_selection) > run.warm_start:
            select_ms[run.algorithm] = [
                1e3 * s for s in per_selection[run.warm_start:]]
    return Timed(run_s=float(run_s), online_s=float(online_s),
                 eval_s=float(eval_s),
                 episodes=sum(r.episodes for r in rnd.runs),
                 contexts=sum(r.contexts for r in rnd.runs),
                 select_ms=select_ms)
