"""Experiment runner: configs, context sampling, evaluation protocols, files.

A config binds an environment, a learner setup, and an episode budget; the
runner executes every seed in the seed list with rng streams derived from
(master seed, algorithm tag, run seed) so runs are reproducible regardless
of execution order.  Outputs are JSON plus two CSV shapes; bytes are
deterministic so re-emitting is idempotent.

An environment is one record per task: its world, its target, env and
theta boxes, its reward, and ``rollout(env context, theta, rng)``, which
calls the task's ``sim`` rollout and returns the landing.  An rng draws
the rollout's noise; ``None`` is the noise-free shot.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import sim
# ACTIVE_ALGORITHMS is unused here; only perfbench/layers.py reads it from harness
from .algorithms import ACTIVE_ALGORITHMS, LearnerConfig, make_learner, \
    run_episode
from .errors import ContractError, NumericalError
from .experience import Context
from .optim import SearchSpace

PASSIVE_EPISODES = 150
ACTIVE_EPISODES = 100
DEFAULT_SEEDS = tuple(range(10))


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


# eq=False: the boxes hold ndarrays; environments compare by
# replay_metadata()
@dataclass(frozen=True, eq=False)
class Environment:
    """One ``sim`` task over one world, as the runner sees it."""

    id: str
    seed: int
    world: sim.CannonWorld | sim.ThrowerWorld
    target_space: SearchSpace
    env_space: SearchSpace
    theta_space: SearchSpace
    reward_fn: sim.Reward

    def rollout(self, env_context, theta, rng):
        # looked up on sim per call, so that a wrapped rollout is the one run
        simulate = (sim.thrower_rollout if self.id == "thrower"
                    else sim.cannon_rollout)
        return simulate(self.world, env_context, theta, rng)

    def replay_metadata(self) -> dict:
        return {"id": self.id, "seed": self.seed,
                "world": self.world.replay_metadata()}


# perfbench's failure test wraps rollouts through this name
CannonEnvironment = Environment


def _cannon(env_id: str, seed: int, target_space: SearchSpace,
            reward_fn: sim.Reward) -> Environment:
    """The projectile task over one generated hilly world."""
    return Environment(env_id, seed, sim.CannonWorld.generate(seed=seed),
                       target_space, sim.CANNON_ENV_SPACE,
                       sim.CANNON_PARAM_SPACE, reward_fn)


# id -> builder from the environment seed; the active cannon's target
# carries the shoot indicator, and the thrower's env context is its start
# position
ENVIRONMENTS = {
    "cannon": lambda seed: _cannon("cannon", seed, sim.CANNON_TARGET_SPACE,
                                   sim.CannonReward()),
    "active-cannon": lambda seed: _cannon(
        "active-cannon", seed, sim.ACTIVE_CANNON_TARGET_SPACE,
        sim.ActiveCannonReward()),
    "thrower": lambda seed: Environment(
        "thrower", seed, sim.ThrowerWorld(), sim.THROWER_TARGET_SPACE,
        sim.THROWER_START_SPACE, sim.THROWER_PARAM_SPACE, sim.ThrowerReward()),
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    environment: str = "cannon"
    environment_seed: int = 0
    master_seed: int = 0
    episodes: int = PASSIVE_EPISODES
    evaluation_period: int = 10
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    grid_shape: tuple[int, int] = (15, 15)
    algorithms: tuple[str, ...] | None = None  # study-mode comparison set
    learner: LearnerConfig = field(default_factory=LearnerConfig)

    def __post_init__(self):
        if self.environment not in ENVIRONMENTS:
            raise ContractError(f"unknown environment id {self.environment!r}")
        if self.episodes < 1:
            raise ContractError("episode budget must be at least 1")
        if self.evaluation_period < 1:
            raise ContractError("evaluation period must be at least 1")
        if not self.seeds:
            raise ContractError("seed list must not be empty")
        if len(self.grid_shape) != 2 or min(self.grid_shape) < 1:
            raise ContractError("grid shape must be two positive integers")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        # numpy's seed sequences take no negative entropy
        if min(self.master_seed, self.environment_seed, *self.seeds) < 0:
            raise ContractError("master_seed, environment_seed and seeds must be non-negative")
        object.__setattr__(self, "grid_shape",
                           tuple(int(g) for g in self.grid_shape))
        if self.algorithms is not None:
            object.__setattr__(self, "algorithms",
                               tuple(str(a) for a in self.algorithms))
        # a hindsight relabel scores the achieved landing as the target, and
        # a landing has no shoot indicator to stand in for the active
        # cannon's (x, y, indicator) target
        if self.environment == "active-cannon" \
                and self.algorithm == "bo-fcps-her":
            raise ContractError("bo-fcps-her cannot run on active-cannon: its "
                                "relabels lack the shoot indicator")

    @property
    def algorithm(self) -> str:
        return self.learner.algorithm


def config_to_dict(config: ExperimentConfig) -> dict:
    raw = asdict(config)

    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, np.generic):
            return value.item()
        return value

    return plain(raw)


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config a JSON object describes; the learner settings are one
    flat block.  A key no config field has, such as an older file's nested
    learner ``acquisition`` block, raises a TypeError that names it."""
    data = dict(data)
    learner = LearnerConfig(**data.pop("learner", {}))
    return ExperimentConfig(learner=learner, **data)


def build_environment(config: ExperimentConfig):
    return ENVIRONMENTS[config.environment](int(config.environment_seed))


def sample_context(environment, rng: np.random.Generator,
                   boxes: list[SearchSpace] | None = None) -> Context:
    """One draw from the context distribution: uniform over the target box
    (or volume-weighted uniform over a box union) times the env box."""
    if boxes is None:
        boxes = [environment.target_space]
    if len(boxes) == 1:
        box = boxes[0]
    else:
        volumes = np.array([float(np.prod(b.span)) for b in boxes])
        box = boxes[rng.choice(len(boxes), p=volumes / volumes.sum())]
    target = box.sample_uniform(1, rng)[0]
    env = environment.env_space.sample_uniform(1, rng)[0]
    return Context(target=target, env=env)


def evaluation_grid(environment, shape: tuple[int, int]) -> list[Context]:
    """Evaluation contexts: a grid over the first two target dimensions.

    Any further target dimensions are pinned at their lower bound (for the
    indicator-extended task that fixes "shoot" mode); the environment
    context is pinned at its box center.
    """
    space = environment.target_space
    if space.dim < 2:
        raise ContractError("evaluation grid needs a 2-d (or wider) target box")
    xs = np.linspace(space.lower[0], space.upper[0], shape[0])
    ys = np.linspace(space.lower[1], space.upper[1], shape[1])
    rest = space.lower[2:]
    env = environment.env_space.center
    contexts = []
    for x in xs:
        for y in ys:
            target = np.concatenate([[x, y], rest])
            contexts.append(Context(target=target, env=env.copy()))
    return contexts


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    online_rewards: np.ndarray        # (n_seeds, episodes)
    offline_rewards: np.ndarray       # (n_seeds, n_evaluations)
    offline_episodes: tuple[int, ...]
    replay: dict

    def __post_init__(self):
        online = np.asarray(self.online_rewards, dtype=float)
        offline = np.asarray(self.offline_rewards, dtype=float)
        episodes = self.replay["config"]["episodes"]
        if online.ndim != 2 or online.shape[1] != episodes:
            raise ContractError("online reward rows must match the budget")
        if offline.ndim != 2 or offline.shape[1] != len(self.offline_episodes):
            raise ContractError("offline columns must match evaluation points")
        object.__setattr__(self, "online_rewards", online)
        object.__setattr__(self, "offline_rewards", offline)
        object.__setattr__(self, "offline_episodes",
                           tuple(int(e) for e in self.offline_episodes))


def derive_rng_streams(master_seed: int, algorithm: str, run_seed: int):
    """Deterministic (learner seed, context rng, rollout rng) for one run."""
    tag_digest = int.from_bytes(
        hashlib.blake2b(algorithm.encode(), digest_size=4).digest(), "little")
    root = np.random.SeedSequence([int(master_seed), tag_digest, int(run_seed)])
    learner_seq, context_seq, rollout_seq = root.spawn(3)
    learner_seed = int(learner_seq.generate_state(1)[0])
    return learner_seed, np.random.default_rng(context_seq), \
        np.random.default_rng(rollout_seq)


def offline_eval_per_context(learner, contexts, environment) -> np.ndarray:
    """Greedy, noise-free reward at each evaluation context."""
    rewards = np.zeros(len(contexts))
    for i, ctx in enumerate(contexts):
        theta = learner.select_greedy(ctx)
        landing = environment.rollout(ctx.env, theta, None)
        rewards[i] = environment.reward_fn(ctx.target, landing, theta)
    return rewards


def offline_eval(learner, contexts, environment) -> float:
    return float(offline_eval_per_context(learner, contexts, environment).mean())


def _run_one_seed(config: ExperimentConfig, environment, boxes, grid,
                  run_seed: int):
    learner_seed, context_rng, rollout_rng = derive_rng_streams(
        config.master_seed, config.algorithm, run_seed)
    learner_cfg = replace(config.learner, rng_seed=learner_seed)
    learner = make_learner(learner_cfg, environment.target_space,
                           environment.env_space, environment.theta_space,
                           environment.reward_fn)
    online, offline = [], []
    for episode in range(1, config.episodes + 1):
        if learner.requires_context:
            context = sample_context(environment, context_rng, boxes)
        else:
            context = None
        record = run_episode(learner, environment, context, rollout_rng)
        online.append(record.actual_reward)
        if episode % config.evaluation_period == 0:
            offline.append(offline_eval(learner, grid, environment))
    return learner, online, offline


def run(config: ExperimentConfig, *, partial_dir=None) -> RunResult:
    """Execute every seed in the config; abort serializes partial rows."""
    environment = build_environment(config)
    grid = evaluation_grid(environment, config.grid_shape)
    offline_episodes = tuple(
        e for e in range(config.evaluation_period, config.episodes + 1,
                         config.evaluation_period))
    replay = {
        "config": config_to_dict(config),
        "environment": environment.replay_metadata(),
    }
    online_rows, offline_rows = [], []
    try:
        for run_seed in config.seeds:
            _, online, offline = _run_one_seed(config, environment, None,
                                               grid, run_seed)
            online_rows.append(online)
            offline_rows.append(offline)
    except (ContractError, NumericalError, FloatingPointError) as err:
        if partial_dir is not None:
            path = Path(partial_dir) / "partial_result.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = {"replay": replay, "error": str(err),
                       "completed_seeds": list(config.seeds[:len(online_rows)]),
                       "online_rewards": online_rows,
                       "offline_rewards": offline_rows}
            path.write_text(json.dumps(payload, sort_keys=True, indent=2),
                            encoding="utf-8")
        raise
    return RunResult(
        online_rewards=np.array(online_rows),
        offline_rewards=np.array(offline_rows).reshape(len(config.seeds),
                                                       len(offline_episodes)),
        offline_episodes=offline_episodes,
        replay=replay,
    )


def cumulative_online(result: RunResult, t: int) -> float:
    """Mean over seeds of the summed first ``t`` online rewards."""
    budget = result.online_rewards.shape[1]
    if not 0 <= t <= budget:
        raise ContractError(f"t must lie in [0, {budget}]")
    if t == 0:
        return 0.0
    return float(result.online_rewards[:, :t].sum(axis=1).mean())


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def quadrant_boxes(target_space: SearchSpace) -> list[SearchSpace]:
    """The two closed training quadrants of a 2-d target box (x<=0, y>=0)
    and (x>=0, y<=0)."""
    lo, hi = target_space.lower, target_space.upper
    return [SearchSpace((lo[0], 0.0), (0.0, hi[1])),
            SearchSpace((0.0, lo[1]), (hi[0], 0.0))]


def in_seen_quadrant(target) -> bool:
    x, y = float(target[0]), float(target[1])
    return (x <= 0.0 and y >= 0.0) or (x >= 0.0 and y <= 0.0)


def generalization_study(config: ExperimentConfig) -> dict:
    """Train on the restricted quadrant union, evaluate on the full grid.

    Returns per-seed and mean rewards for the seen and unseen halves of the
    evaluation grid, plus their difference, for the config's algorithm.
    """
    environment = build_environment(config)
    boxes = quadrant_boxes(environment.target_space)
    grid = evaluation_grid(environment, config.grid_shape)
    seen_mask = np.array([in_seen_quadrant(c.target) for c in grid])
    # only the final grid is reported, so the seeds train without periodic
    # evaluations: greedy evaluation draws no learner randomness, and the
    # greedy fit a learner keeps equals a fresh fit bit for bit, so the
    # report is the same either way
    train = replace(config, evaluation_period=config.episodes + 1)
    seen_rows, unseen_rows = [], []
    for run_seed in config.seeds:
        learner, _, _ = _run_one_seed(train, environment, boxes, grid,
                                      run_seed)
        rewards = offline_eval_per_context(learner, grid, environment)
        seen_rows.append(float(rewards[seen_mask].mean()))
        unseen_rows.append(float(rewards[~seen_mask].mean()))
    seen_mean = float(np.mean(seen_rows))
    unseen_mean = float(np.mean(unseen_rows))
    return {
        "algorithm": config.algorithm,
        "seen_per_seed": seen_rows,
        "unseen_per_seed": unseen_rows,
        "seen_mean": seen_mean,
        "unseen_mean": unseen_mean,
        "difference": seen_mean - unseen_mean,
    }


def study(config: ExperimentConfig) -> list[tuple[ExperimentConfig, RunResult]]:
    """Run the comparison set (config.algorithms or the single tag).

    Every tag's config is built, and so checked, before any of them runs.
    """
    tags = config.algorithms or (config.algorithm,)
    tagged = [replace(config, learner=replace(config.learner, algorithm=tag),
                      algorithms=None) for tag in tags]
    return [(c, run(c)) for c in tagged]


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _format(value: float) -> str:
    return repr(float(value))


def emit(results, out_dir) -> list[Path]:
    """Write runs.json, long.csv, and summary.csv; byte-deterministic."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for config, result in results:
        entries.append({
            "config": config_to_dict(config),
            "replay": result.replay,
            "offline_episodes": list(result.offline_episodes),
            "online_rewards": [[float(v) for v in row]
                               for row in result.online_rewards],
            "offline_rewards": [[float(v) for v in row]
                                for row in result.offline_rewards],
        })
    runs_path = out / "runs.json"
    runs_path.write_text(json.dumps(entries, sort_keys=True, indent=2) + "\n",
                         encoding="utf-8")

    long_buf = io.StringIO()
    writer = csv.writer(long_buf, lineterminator="\n")
    writer.writerow(["episode", "seed", "algorithm", "online_reward",
                     "offline_reward_or_blank"])
    for config, result in results:
        eval_index = {e: i for i, e in enumerate(result.offline_episodes)}
        for row, seed in enumerate(config.seeds):
            for episode in range(1, config.episodes + 1):
                offline = ""
                if episode in eval_index:
                    offline = _format(
                        result.offline_rewards[row, eval_index[episode]])
                writer.writerow([episode, seed, config.algorithm,
                                 _format(result.online_rewards[row,
                                                               episode - 1]),
                                 offline])
    long_path = out / "long.csv"
    long_path.write_text(long_buf.getvalue(), encoding="utf-8")

    summary_buf = io.StringIO()
    writer = csv.writer(summary_buf, lineterminator="\n")
    writer.writerow(["algorithm", "episode", "offline_mean", "offline_std"])
    for config, result in results:
        for i, episode in enumerate(result.offline_episodes):
            column = result.offline_rewards[:, i]
            writer.writerow([config.algorithm, episode,
                             _format(column.mean()), _format(column.std())])
    summary_path = out / "summary.csv"
    summary_path.write_text(summary_buf.getvalue(), encoding="utf-8")
    return [runs_path, long_path, summary_path]


def load_results(path) -> list[tuple[ExperimentConfig, RunResult]]:
    """Inverse of :func:`emit` for the JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    results = []
    for entry in entries:
        config = config_from_dict(entry["config"])
        result = RunResult(
            online_rewards=np.array(entry["online_rewards"], dtype=float),
            offline_rewards=np.array(entry["offline_rewards"],
                                     dtype=float).reshape(
                len(config.seeds), len(entry["offline_episodes"])),
            offline_episodes=tuple(entry["offline_episodes"]),
            replay=entry["replay"],
        )
        results.append((config, result))
    return results
