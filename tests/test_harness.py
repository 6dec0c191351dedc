"""Runner configs, evaluation protocols, studies, output files, CLI."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fcps import cli, harness
from fcps.acquisition import AcqConfig
from fcps.algorithms import LearnerConfig
from fcps.errors import ContractError, NumericalError
from fcps.experience import Context
from fcps.harness import (
    ExperimentConfig,
    RunResult,
    build_environment,
    config_from_dict,
    config_to_dict,
    cumulative_online,
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

TINY_LEARNER = dict(
    acquisition=AcqConfig(n_candidates=6, n_function_draws=100, n_fantasies=2),
    refit_warmup=2, refit_period=5, refit_restarts=1, direct_evals=20,
    refine_starts=1, refine_iters=4)


def tiny_config(**kw):
    base = dict(episodes=4, evaluation_period=2, seeds=(0,), grid_shape=(3, 3),
                learner=LearnerConfig(algorithm="bo-fcps", **TINY_LEARNER))
    base.update(kw)
    return ExperimentConfig(**base)


# -- configuration ----------------------------------------------------------


def test_config_json_round_trip():
    config = tiny_config(
        seeds=(0, 3, 7),
        context_boxes=(((-11.0, 0.0), (0.0, 11.0)), ((0.0, -11.0), (11.0, 0.0))),
        algorithms=("bo-cps", "bo-fcps"))
    data = json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(data) == config


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


def test_context_box_must_stay_inside_target_bounds():
    config = tiny_config(context_boxes=(((-20.0, 0.0), (0.0, 11.0)),))
    with pytest.raises(ContractError):
        run(config)


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
        ctx = sample_context(environment, rng)
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


def test_cumulative_online_bounds_and_monotonicity():
    config = tiny_config(episodes=6, evaluation_period=3)
    result = run(config)
    assert cumulative_online(result, 0) == 0.0
    total = float(result.online_rewards.sum(axis=1).mean())
    assert cumulative_online(result, 6) == pytest.approx(total, rel=1e-12)
    values = [cumulative_online(result, t) for t in range(7)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    with pytest.raises(ContractError):
        cumulative_online(result, 7)


def test_partial_result_serialized_on_component_error(tmp_path, monkeypatch):
    calls = {"n": 0}
    real = harness.CannonEnvironment

    class Flaky(real):
        def rollout(self, env_context, theta, train_mode, rng):
            calls["n"] += 1
            if calls["n"] > 5:
                raise ContractError("synthetic failure")
            return super().rollout(env_context, theta, train_mode, rng)

    monkeypatch.setitem(harness.ENVIRONMENTS, "cannon", Flaky)
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
    boxes = [harness.SearchSpace(lo, hi)
             for lo, hi in quadrant_boxes(environment.target_space)]
    rng = np.random.default_rng(0)
    for _ in range(500):
        ctx = sample_context(environment, rng, boxes)
        assert in_seen_quadrant(ctx.target)
        assert environment.target_space.contains(ctx.target)


def test_generalization_report_shape():
    report = generalization_study(tiny_config(episodes=5, evaluation_period=5,
                                              grid_shape=(5, 5)))
    assert report["algorithm"] == "bo-fcps"
    assert len(report["seen_per_seed"]) == 1
    assert report["difference"] == pytest.approx(
        report["seen_mean"] - report["unseen_mean"], abs=1e-12)


def _generalization_study_with_periodic_evaluations(config):
    """``generalization_study`` as it was when each seed also ran, and
    discarded, the periodic grid evaluations; the oracle for the study."""
    environment = build_environment(config)
    config = replace(config, context_boxes=quadrant_boxes(
        environment.target_space))
    boxes = harness._target_boxes(config, environment)
    grid = evaluation_grid(environment, config.grid_shape)
    seen_mask = np.array([in_seen_quadrant(c.target) for c in grid])
    seen_rows, unseen_rows = [], []
    for run_seed in config.seeds:
        learner, _, _ = harness._run_one_seed(config, environment, boxes, grid,
                                              run_seed)
        rewards = harness.offline_eval_per_context(learner, grid, environment)
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
    assert calls == []  # no periodic evaluation ran
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
    assert json.loads(capsys.readouterr().out)["match"] is match


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


def test_study_refuses_before_any_tag_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run", lambda config, **kw: ran.append(config))
    config = tiny_config(environment="active-cannon",
                         algorithms=("bo-fcps", "bo-fcps-her"))
    with pytest.raises(ContractError, match="bo-fcps-her"):
        harness.study(config)
    assert ran == []


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
