"""Runner configs, evaluation protocols, studies, output files, CLI."""

import csv
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fcps import cli, harness
from fcps.algorithms import LearnerConfig
from fcps.errors import ContractError, NumericalError
from fcps.experience import Context
from fcps.harness import (
    RunResult,
    build_environment,
    config_from_dict,
    config_to_dict,
    derive_rng_streams,
    emit,
    evaluation_grid,
    generalization_study,
    in_seen_quadrant,
    load_results,
    offline_eval,
    quadrant_boxes,
    run,
    sample_context,
)

from conftest import TINY_LEARNER, tiny_config


# -- configuration ----------------------------------------------------------


def test_config_json_round_trip():
    # every learner field off its default in one of the two learners: an
    # acquisition other than ucb runs only on bo-fcps, the default tag
    shared = dict(kappa=0.7, n_candidates=9, n_function_draws=120,
                  n_fantasies=4, n_representers=17, init_episodes=5,
                  refit_warmup=7, refit_period=3, refit_restarts=4,
                  creps_epsilon=0.3, creps_period=40, direct_evals=33,
                  refine_starts=3, refine_iters=6, rng_seed=11)
    learners = [LearnerConfig(algorithm="bo-cps", **shared),
                LearnerConfig(acquisition_kind="es", **shared)]
    default = LearnerConfig()
    assert {f.name for learner in learners for f in fields(learner)
            if getattr(learner, f.name) != getattr(default, f.name)} \
        == {f.name for f in fields(LearnerConfig)}
    for learner in learners:
        config = tiny_config(seeds=(0, 3, 7), algorithms=("bo-cps", "bo-fcps"),
                             learner=learner)
        data = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(data) == config


@pytest.mark.parametrize("key", ["acquisition", "context_boxes"])
def test_old_format_configs_are_refused(key, tmp_path, monkeypatch, capsys):
    # the older format: the acquisition settings in a nested learner block,
    # and an optional union of target boxes to train on
    data = config_to_dict(tiny_config())
    if key == "acquisition":
        data["learner"]["acquisition"] = {"kappa": 0.1, "n_candidates": 20}
    else:
        data[key] = None
    with pytest.raises(TypeError, match=key):
        config_from_dict(data)
    ran = []
    monkeypatch.setattr(harness, "run", lambda config, **kw: ran.append(config))
    runs = tmp_path / "runs.json"
    runs.write_text(json.dumps([{"config": data, "offline_episodes": [2, 4],
                                 "online_rewards": [[0.0] * 4],
                                 "offline_rewards": [[0.0] * 2]}]))
    assert cli.main(["replay", "--config", str(runs)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "TypeError" and key in err["error"]
    assert ran == []


def test_config_validation():
    with pytest.raises(ContractError):
        tiny_config(environment="lunar-lander")
    with pytest.raises(ContractError, match="bo-fcps-her"):
        tiny_config(environment="active-cannon",
                    learner=LearnerConfig(algorithm="bo-fcps-her",
                                          **TINY_LEARNER))
    with pytest.raises(ContractError):
        tiny_config(episodes=0)
    with pytest.raises(ContractError):
        tiny_config(evaluation_period=0)
    with pytest.raises(ContractError):
        tiny_config(seeds=())
    with pytest.raises(ContractError):
        tiny_config(grid_shape=(0, 5))


@pytest.mark.parametrize("field, value", [
    ("master_seed", -1), ("environment_seed", -1), ("seeds", (0, -3)),
])
def test_negative_seeds_are_rejected(field, value):
    with pytest.raises(ContractError, match="non-negative"):
        tiny_config(**{field: value})
    tiny_config(**{field: 0 if field != "seeds" else (0, 3)})


def test_unknown_algorithm_fails_before_any_rollout():
    data = config_to_dict(tiny_config())
    data["learner"]["algorithm"] = "dqn"
    with pytest.raises(ContractError):
        config_from_dict(data)


# -- run protocol -----------------------------------------------------------


def test_budget_and_evaluation_counting():
    config = tiny_config(episodes=10, evaluation_period=5)
    result = run(config)
    assert result.online_rewards.shape == (1, 10)
    assert result.offline_rewards.shape == (1, 2)
    assert result.offline_episodes == (5, 10)


def test_identical_config_reruns_bit_identical():
    config = tiny_config(seeds=(0, 1))
    a, b = run(config), run(config)
    assert np.array_equal(a.online_rewards, b.online_rewards)
    assert np.array_equal(a.offline_rewards, b.offline_rewards)


def test_rng_streams_are_seed_and_tag_specific():
    base = derive_rng_streams(0, "bo-fcps", 0)
    assert derive_rng_streams(0, "bo-fcps", 0)[0] == base[0]
    assert derive_rng_streams(0, "bo-cps", 0)[0] != base[0]
    assert derive_rng_streams(0, "bo-fcps", 1)[0] != base[0]
    assert derive_rng_streams(1, "bo-fcps", 0)[0] != base[0]
    draws = base[1].uniform(size=3)
    again = derive_rng_streams(0, "bo-fcps", 0)[1].uniform(size=3)
    assert np.array_equal(draws, again)


def test_offline_eval_is_isolated_and_noise_free():
    config = tiny_config()
    environment = build_environment(config)
    grid = evaluation_grid(environment, (3, 3))
    from fcps.algorithms import make_learner
    learner = make_learner(config.learner, environment.target_space,
                           environment.env_space, environment.theta_space,
                           environment.reward_fn)
    rng = np.random.default_rng(0)
    for _ in range(3):
        ctx = sample_context(environment, rng, [environment.target_space])
        from fcps.algorithms import run_episode
        run_episode(learner, environment, ctx, rng)
    before = len(learner.store)
    first = offline_eval(learner, grid, environment)
    second = offline_eval(learner, grid, environment)
    assert first == second
    assert len(learner.store) == before


def test_evaluation_grid_sizes_match_protocol():
    passive = build_environment(tiny_config())
    assert len(evaluation_grid(passive, (15, 15))) == 225
    active = build_environment(tiny_config(environment="active-cannon"))
    grid = evaluation_grid(active, (8, 8))
    assert len(grid) == 64
    # the indicator is pinned to "shoot"; env context sits at the box center
    assert all(c.target[2] == 0.0 for c in grid)
    assert all(c.env.shape == (0,) for c in grid)


@pytest.mark.parametrize("rows, message", [
    (("offline_rewards",), "one row per seed"),
    (("online_rewards", "offline_rewards"), "match the seeds"),
])
def test_a_runs_file_missing_a_seeds_row_is_refused(rows, message, tmp_path, capsys):
    # a two-seed run whose file lost a row: the offline rewards alone, or
    # both reward tables, which then agree with each other but not with the
    # seeds.  emit of it would fail halfway through long.csv
    config = tiny_config(episodes=6, evaluation_period=3, seeds=(0, 1),
                         learner=LearnerConfig(algorithm="c-reps", creps_period=6))
    emit([(config, run(config))], tmp_path)
    runs = tmp_path / "runs.json"
    entries = json.loads(runs.read_text())
    for key in rows:
        del entries[0][key][1]
    runs.write_text(json.dumps(entries))
    with pytest.raises(ContractError, match=message):
        load_results(runs)
    assert cli.main(["replay", "--config", str(runs)]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "ContractError"


def test_partial_result_serialized_on_component_error(tmp_path, monkeypatch):
    calls = {"n": 0}
    rollout = harness.Environment.rollout

    def flaky(self, env_context, theta, rng):
        calls["n"] += 1
        if calls["n"] > 5:
            raise ContractError("synthetic failure")
        return rollout(self, env_context, theta, rng)

    monkeypatch.setattr(harness.Environment, "rollout", flaky)
    config = tiny_config(episodes=4, evaluation_period=10, seeds=(0, 1))
    with pytest.raises(ContractError):
        run(config, partial_dir=tmp_path)
    payload = json.loads((tmp_path / "partial_result.json").read_text())
    assert payload["error"] == "synthetic failure"
    assert payload["completed_seeds"] == [0]
    assert len(payload["online_rewards"]) == 1


def test_partial_result_serialized_on_entropy_search_failure(tmp_path, monkeypatch):
    # every factorization fails, so the stacked Cholesky in entropy search
    # runs out of jitter and the run must record a partial result
    def no_factor(a):
        raise np.linalg.LinAlgError("synthetic")

    learner = LearnerConfig(algorithm="bo-fcps", acquisition_kind="es",
                            init_episodes=1, **TINY_LEARNER)
    config = tiny_config(episodes=3, evaluation_period=10, learner=learner)
    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    with pytest.raises(NumericalError) as exc:
        run(config, partial_dir=tmp_path)
    assert exc.value.jitters[0] == 0.0
    payload = json.loads((tmp_path / "partial_result.json").read_text())
    assert "Cholesky" in payload["error"]
    assert payload["completed_seeds"] == []


# -- generalization study ---------------------------------------------------


def test_quadrant_membership_convention():
    assert in_seen_quadrant((-5.0, 5.0))
    assert not in_seen_quadrant((5.0, 5.0))
    assert in_seen_quadrant((0.0, 0.0))
    assert not in_seen_quadrant((-5.0, -5.0))


def test_training_contexts_stay_in_seen_union():
    environment = build_environment(tiny_config())
    boxes = quadrant_boxes(environment.target_space)
    rng = np.random.default_rng(0)
    for _ in range(500):
        ctx = sample_context(environment, rng, boxes)
        assert in_seen_quadrant(ctx.target)
        assert np.array_equal(environment.target_space.clip(ctx.target), ctx.target)


def test_generalization_report_shape():
    report = generalization_study(tiny_config(episodes=5, evaluation_period=5,
                                              grid_shape=(5, 5)))
    assert report["algorithm"] == "bo-fcps"
    assert len(report["seen_per_seed"]) == 1
    assert report["difference"] == pytest.approx(
        report["seen_mean"] - report["unseen_mean"], abs=1e-12)


def test_generalization_study_refuses_a_grid_with_an_empty_half(monkeypatch):
    # a 1x1 grid scored offline_eval over no contexts: NaN means, after
    # every seed had trained
    ran = []
    monkeypatch.setattr(harness, "_run_one_seed", lambda *args: ran.append(args))
    with pytest.raises(ContractError, match="empty"):
        generalization_study(tiny_config(episodes=5, evaluation_period=5,
                                         grid_shape=(1, 1)))
    assert ran == []


def _generalization_study_with_periodic_evaluations(config):
    """``generalization_study`` as it was when each seed also ran, and
    discarded, the periodic grid evaluations; the oracle for the study."""
    environment = build_environment(config)
    lo, hi = environment.target_space.lower, environment.target_space.upper
    boxes = [harness.SearchSpace([lo[0], 0.0], [0.0, hi[1]]),
             harness.SearchSpace([0.0, lo[1]], [hi[0], 0.0])]
    grid = evaluation_grid(environment, config.grid_shape)
    seen_mask = np.array([in_seen_quadrant(c.target) for c in grid])
    seen_rows, unseen_rows = [], []
    for run_seed in config.seeds:
        learner, _, _ = harness._run_one_seed(config, environment, boxes, grid,
                                              run_seed)
        rewards = np.zeros(len(grid))
        for i, ctx in enumerate(grid):
            theta = learner.select_greedy(ctx)
            landing = environment.rollout(ctx.env, theta, None)
            rewards[i] = environment.reward_fn(ctx.target, landing, theta)
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


@pytest.mark.parametrize("algorithm", ["bo-fcps", "bo-cps"])
def test_generalization_study_equals_the_loop_with_periodic_evaluations(
        algorithm, monkeypatch):
    config = tiny_config(seeds=(0, 1), episodes=12, evaluation_period=4,
                         grid_shape=(4, 4),
                         learner=LearnerConfig(algorithm=algorithm,
                                               **TINY_LEARNER))
    expected = _generalization_study_with_periodic_evaluations(config)
    calls = []
    original = harness.offline_eval

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(harness, "offline_eval", counted)
    report = generalization_study(config)
    # no periodic evaluation ran: each seed's greedy evaluation scores the
    # seen half of the grid, then the unseen half
    assert [[in_seen_quadrant(c.target) for c in contexts]
            for _, contexts, _ in calls] == [[True] * 8, [False] * 8] * 2
    assert json.dumps(report, sort_keys=True) \
        == json.dumps(expected, sort_keys=True)


# -- replay metadata ----------------------------------------------------------

CANNON_HILLS_AT_SEED = {
    0: [{"center": [3.0131571210719947, -5.064692297194853],
         "height": 0.5614602859042921, "width": 1.5247914532927935},
        {"center": [6.891945262405994, 9.080622700109878],
         "height": 1.4099536636507697, "width": 2.5942448414759975},
        {"center": [0.9597498122393038, 9.571593323330902],
         "height": 1.7237803311822981, "width": 1.5041077502552223},
        {"center": [7.862894084926527, -10.261117343279784],
         "height": 1.5944831696449162, "width": 1.7634834309038385}],
    3: [{"center": [-9.115718322840264, -5.790168854885806],
         "height": 1.7019116978095954, "width": 2.3732430540965517},
        {"center": [-8.929169870711217, -1.4712073147975762],
         "height": 1.218576947211251, "width": 1.739608371955618},
        {"center": [5.160697331002719, -8.499215561729125],
         "height": 1.0868422857434932, "width": 2.2751102739320457},
        {"center": [5.232431320427523, 10.037879606394167],
         "height": 0.9263017456231872, "width": 2.4728208106197376}],
}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("environment", list(harness.ENVIRONMENTS))
def test_replay_metadata_records_the_physics_constants(environment, seed):
    # the keys and values runs.json has always carried, gravity and launch
    # noise included, now that they are module constants
    if environment == "thrower":
        world = {"kind": "thrower", "gravity": 9.81, "duration": 1.0,
                 "dt": 0.01}
    else:
        world = {"kind": "cannon", "gravity": 1.0, "launch_noise_deg": 1.0,
                 "seed": seed, "hills": CANNON_HILLS_AT_SEED[seed]}
    expected = {"id": environment, "seed": seed, "world": world}
    metadata = harness.ENVIRONMENTS[environment](seed).replay_metadata()
    assert json.dumps(metadata, sort_keys=True) \
        == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("environment", list(harness.ENVIRONMENTS))
def test_every_environment_rollout_lands_and_checks_its_env_context(environment):
    # the one task contract: (env context, theta, rng) to a (2,) landing,
    # noise-free and so deterministic when no rng is given
    env = harness.ENVIRONMENTS[environment](0)
    context, theta = env.env_space.center, env.theta_space.center
    landing = env.rollout(context, theta, None)
    assert landing.shape == (2,) and np.all(np.isfinite(landing))
    assert env.rollout(context, theta, None).tobytes() == landing.tobytes()
    for wrong in (np.zeros(env.env_space.dim + 1),
                  np.zeros((1, env.env_space.dim))):
        with pytest.raises(ContractError):
            env.rollout(wrong, theta, None)


def test_readme_library_example_runs_as_written(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    example = re.search(r"## Library example\n\n```python\n(.*?)```",
                        readme.read_text(encoding="utf-8"), re.S)
    assert example is not None
    exec(compile(example.group(1), str(readme), "exec"), {})
    rewards = [float(line.rsplit(" ", 1)[1])
               for line in capsys.readouterr().out.splitlines()]
    assert len(rewards) > 1 and np.all(np.isfinite(rewards))


def test_representer_count_defaults_to_200():
    assert LearnerConfig().n_representers == 200


# -- outputs ----------------------------------------------------------------


def emitted(tmp_path, config=None):
    config = config or tiny_config(seeds=(0, 1))
    result = run(config)
    paths = emit([(config, result)], tmp_path)
    return config, result, paths


def test_emit_row_counts_and_idempotence(tmp_path):
    config, result, paths = emitted(tmp_path)
    rows = (tmp_path / "long.csv").read_text().splitlines()
    assert len(rows) == len(config.seeds) * config.episodes + 1
    assert rows[0] == "episode,seed,algorithm,online_reward,offline_reward_or_blank"
    first_bytes = [p.read_bytes() for p in paths]
    emit([(config, result)], tmp_path)
    assert [p.read_bytes() for p in paths] == first_bytes


def test_emitted_json_round_trips_through_config_parser(tmp_path):
    config, result, paths = emitted(tmp_path)
    entries = json.loads((tmp_path / "runs.json").read_text())
    assert config_from_dict(entries[0]["config"]) == config
    loaded = load_results(tmp_path / "runs.json")
    assert loaded[0][0] == config
    assert np.array_equal(loaded[0][1].online_rewards, result.online_rewards)


def test_load_results_refuses_flattened_offline_rewards(tmp_path):
    emitted(tmp_path)
    runs = tmp_path / "runs.json"
    entries = json.loads(runs.read_text())
    entries[0]["offline_rewards"] = sum(entries[0]["offline_rewards"], [])
    runs.write_text(json.dumps(entries))
    with pytest.raises(ContractError, match="offline"):
        load_results(runs)


def test_offline_column_blank_except_evaluation_episodes(tmp_path):
    config, result, _ = emitted(tmp_path)
    with open(tmp_path / "long.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        filled = row["offline_reward_or_blank"] != ""
        assert filled == (int(row["episode"]) % config.evaluation_period == 0)


def test_summary_matches_independent_recompute(tmp_path):
    config, result, _ = emitted(tmp_path)
    with open(tmp_path / "long.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_point: dict[tuple, list] = {}
    for row in rows:
        if row["offline_reward_or_blank"] == "":
            continue
        key = (row["algorithm"], int(row["episode"]))
        by_point.setdefault(key, []).append(float(row["offline_reward_or_blank"]))
    with open(tmp_path / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == len(by_point)
    for row in summary:
        values = np.array(by_point[(row["algorithm"], int(row["episode"]))])
        assert abs(float(row["offline_mean"]) - values.mean()) <= 1e-9
        assert abs(float(row["offline_std"]) - values.std()) <= 1e-9


# -- the whole study path ---------------------------------------------------


def test_study_covers_comparison_set(tmp_path):
    config = tiny_config(algorithms=("bo-cps", "bo-fcps"))
    results = harness.study(config)
    assert [c.algorithm for c, _ in results] == ["bo-cps", "bo-fcps"]
    paths = emit(results, tmp_path)
    rows = (tmp_path / "long.csv").read_text().splitlines()
    assert len(rows) == 2 * len(config.seeds) * config.episodes + 1


def test_thrower_environment_runs():
    config = tiny_config(environment="thrower", episodes=3,
                         evaluation_period=3)
    result = run(config)
    assert result.online_rewards.shape == (1, 3)
    again = run(config)
    assert np.array_equal(result.online_rewards, again.online_rewards)


# -- command line -----------------------------------------------------------


def write_cli_config(tmp_path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(tiny_config())))
    return path


def test_cli_run_and_replay(tmp_path, capsys):
    config_path = write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path),
                     "--out", str(out)]) == 0
    stdout = json.loads(capsys.readouterr().out)
    assert stdout["algorithm"] == "bo-fcps"
    assert (out / "runs.json").exists()
    assert cli.main(["replay", "--config", str(out / "runs.json")]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True


@pytest.mark.parametrize("stored, fresh, match", [
    (-0.0, 0.0, False),  # equal under ==, different bits
    (np.nan, np.nan, True),  # the same bits, unequal under ==
])
def test_cli_replay_compares_bits(tmp_path, capsys, monkeypatch, stored, fresh,
                                  match):
    config_path = write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    runs = out / "runs.json"
    entries = json.loads(runs.read_text())
    entries[0]["offline_rewards"][0][0] = stored
    runs.write_text(json.dumps(entries))
    (_, result), = harness.load_results(runs)
    offline = result.offline_rewards.copy()
    offline[0, 0] = fresh
    monkeypatch.setattr(harness, "run", lambda config: replace(
        result, offline_rewards=offline))
    assert cli.main(["replay", "--config", str(runs)]) == (0 if match else 1)
    report = json.loads(capsys.readouterr().out)
    assert report["match"] is match
    # a mismatch names the thread counts as this process saw them (conftest's
    # import of fcps set them); a match adds nothing
    assert report.get("threads") == (None if match else {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})


def test_cli_overrides(tmp_path, capsys):
    config_path = write_cli_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config_path), "--out", str(out),
                     "--algo", "bo-cps", "--episodes", "2", "--seed", "5"])
    assert code == 0
    entries = json.loads((out / "runs.json").read_text())
    assert entries[0]["config"]["learner"]["algorithm"] == "bo-cps"
    assert entries[0]["config"]["episodes"] == 2
    assert entries[0]["config"]["master_seed"] == 5
    capsys.readouterr()


def test_cli_refuses_hindsight_relabels_on_the_active_cannon(tmp_path, capsys):
    # its achieved landing has no shoot indicator to stand in for the target
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "environment": "active-cannon", "episodes": 4, "evaluation_period": 2,
        "seeds": [0], "grid_shape": [2, 2],
        "learner": {"algorithm": "bo-fcps-her", "init_episodes": 2}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ContractError" and "bo-fcps-her" in err["error"]
    # the config is refused as it is built, so nothing ran
    assert not out.exists()
    # --algo replaces the file's tag before the config is built
    ok = tmp_path / "ok"
    assert cli.main(["run", "--config", str(path), "--out", str(ok),
                     "--algo", "bo-fcps"]) == 0
    assert (ok / "runs.json").exists()


@pytest.mark.parametrize("algorithm, field", [("bo-fcps", "kappa"),
                                              ("c-reps", "creps_epsilon")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_learner_weights_are_refused(algorithm, field, value, tmp_path,
                                                capsys):
    # NaN fails every comparison, so a bare sign check lets it through
    with pytest.raises(ContractError, match=field):
        LearnerConfig(algorithm=algorithm, **{field: value})
    # json writes and reads the value as NaN or Infinity
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "episodes": 4, "evaluation_period": 2, "seeds": [0], "grid_shape": [2, 2],
        "learner": {"algorithm": algorithm, field: value}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ContractError" and field in err["error"]
    assert not (out / "runs.json").exists()


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("field", ["episodes", "evaluation_period", "master_seed",
                                   "environment_seed", "seeds", "grid_shape"])
def test_experiment_counts_must_be_integers(field, value):
    # a float seed or grid entry used to be truncated by int() and run
    bad = {"seeds": (0, value), "grid_shape": (3, value)}.get(field, value)
    with pytest.raises(ContractError, match=f"^{field}.* must be an integer"):
        tiny_config(**{field: bad})
    good = {"seeds": (np.int64(0), 3), "grid_shape": (3, np.int64(2))}
    config = tiny_config(**{field: good.get(field, np.int64(3))})
    if field in good:
        assert all(type(v) is int for v in getattr(config, field))


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("field", [
    "n_candidates", "n_function_draws", "n_fantasies", "n_representers",
    "init_episodes", "refit_warmup", "refit_period", "refit_restarts",
    "creps_period", "direct_evals", "refine_starts", "refine_iters", "rng_seed"])
def test_learner_counts_must_be_integers(field, value):
    # a float creps_period or direct_evals used to die mid-run on a slice
    with pytest.raises(ContractError, match=f"^{field} must be an integer"):
        LearnerConfig(**{field: value})
    LearnerConfig(**{field: np.int64(getattr(LearnerConfig(), field) or 3)})


def test_cli_refuses_a_float_seed_before_anything_runs(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "episodes": 12, "evaluation_period": 6, "seeds": [0.7],
        "grid_shape": [2.9, 2], "master_seed": 1.5,
        "learner": {"algorithm": "c-reps", "creps_period": 6}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ContractError" and "must be an integer" in err["error"]
    assert not out.exists()


@pytest.mark.parametrize("value", [True, False, "0.1", None, [0.1]])
@pytest.mark.parametrize("field", ["kappa", "creps_epsilon"])
def test_learner_weights_must_be_real_numbers(field, value):
    # a bool used to run as 0 or 1 and be written to runs.json as a bool,
    # and a string died on a bare TypeError
    with pytest.raises(ContractError, match=f"^{field} must be a real number"):
        LearnerConfig(**{field: value})
    for number in (2, 0.25, np.int64(2), np.float64(0.25), np.float32(0.5)):
        assert getattr(LearnerConfig(**{field: number}), field) is number


@pytest.mark.parametrize("algorithm, field", [("bo-fcps", "kappa"),
                                              ("c-reps", "creps_epsilon")])
def test_cli_refuses_a_bool_learner_weight_before_anything_runs(
        algorithm, field, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "episodes": 12, "evaluation_period": 6, "seeds": [0], "grid_shape": [2, 2],
        "learner": {"algorithm": algorithm, "creps_period": 6, field: True}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ContractError" and f"{field} must be a real number" in err["error"]
    assert not out.exists()


@pytest.mark.parametrize("field, entries, named", [
    ("seeds", (0, 0), "0"), ("seeds", (3, 1, np.int64(3)), "3"),
    ("algorithms", ("c-reps", "bo-cps", "c-reps"), "'c-reps'")])
def test_a_repeated_seed_or_tag_is_refused(field, entries, named):
    # a repeated seed ran twice and counted as two seeds in summary.csv, and
    # a repeated tag wrote two runs.json entries for one tag
    with pytest.raises(ContractError, match=f"^{field} repeats {named}$"):
        tiny_config(**{field: entries})


@pytest.mark.parametrize("command, key, entries", [
    ("run", "seeds", [0, 0]), ("study", "algorithms", ["c-reps", "c-reps"])])
def test_cli_refuses_a_repeated_seed_or_tag_before_anything_runs(
        command, key, entries, tmp_path, capsys):
    config = {"episodes": 12, "evaluation_period": 6, "seeds": [0],
              "grid_shape": [2, 2], "learner": {"algorithm": "c-reps", "creps_period": 6}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, **{key: entries})))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ContractError" and f"{key} repeats" in err["error"]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("algorithms", []), ("seeds", 5), ("grid_shape", 3), ("environment", ["cannon"]),
    ("algorithms", "c-reps")])
def test_cli_refuses_an_empty_or_untyped_list_before_anything_runs(
        key, value, tmp_path, capsys):
    # an empty comparison set ran the learner's own tag alone, and a number
    # or list where the other type belongs died on a bare TypeError
    config = {"episodes": 12, "evaluation_period": 6, "seeds": [0],
              "grid_shape": [2, 2], "learner": {"algorithm": "c-reps", "creps_period": 6}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, **{key: value})))
    out = tmp_path / "out"
    assert cli.main(["study", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ContractError" and key in err["error"]
    assert not out.exists()


def test_cli_bare_study_on_the_active_cannon_compares_the_active_pair(tmp_path, capsys):
    # the passive default set holds bo-fcps-her, which the active cannon
    # refuses; a bare study there compares aces and faces
    path = tmp_path / "config.json"
    learner = dict(TINY_LEARNER, n_candidates=4, n_function_draws=100,
                   n_fantasies=1, init_episodes=2, n_representers=2)
    path.write_text(json.dumps({
        "environment": "active-cannon", "episodes": 3, "evaluation_period": 3,
        "seeds": [0], "grid_shape": [1, 1], "learner": learner}))
    out = tmp_path / "out"
    assert cli.main(["study", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["algorithms"] == ["aces", "faces"]
    assert [e["config"]["learner"]["algorithm"] for e in
            json.loads((out / "runs.json").read_text())] == ["aces", "faces"]


def test_study_refuses_before_any_tag_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run", lambda config, **kw: ran.append(config))
    config = tiny_config(environment="active-cannon",
                         algorithms=("bo-fcps", "bo-fcps-her"))
    with pytest.raises(ContractError, match="bo-fcps-her"):
        harness.study(config)
    assert ran == []


# c-reps needs creps_period >= 6 on the cannon, and aces direct_evals >= 13
# on the active cannon's joint inputs; the first tag builds at either setting
@pytest.mark.parametrize("environment, tags, setting, least", [
    ("cannon", ("bo-fcps", "c-reps"), "creps_period", 6),
    ("active-cannon", ("faces", "aces"), "direct_evals", 13),
])
def test_study_builds_every_learner_before_any_tag_runs(monkeypatch, environment,
                                                        tags, setting, least):
    ran = []
    monkeypatch.setattr(harness, "run", lambda config, **kw: ran.append(config))

    def config(value):
        learner = LearnerConfig(**dict(TINY_LEARNER, **{setting: value}))
        return tiny_config(environment=environment, algorithms=tags,
                           learner=learner)

    with pytest.raises(ContractError, match=setting):
        harness.study(config(least - 1))
    assert ran == []
    harness.study(config(least))
    assert [c.algorithm for c in ran] == list(tags)


def test_cli_error_paths(tmp_path, capsys):
    config_path = write_cli_config(tmp_path)
    code = cli.main(["run", "--config", str(config_path),
                     "--out", str(tmp_path / "o1"), "--algo", "no-such"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ContractError"
    code = cli.main(["run", "--config", str(config_path),
                     "--out", str(tmp_path / "o3"), "--seed", "-1"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "ContractError"
    assert not (tmp_path / "o3").exists()
    code = cli.main(["run", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o2")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["kind"] == "FileNotFoundError"
