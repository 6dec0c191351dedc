"""End-to-end acceptance checks: benchmark orderings plus module oracles.

The first five checks compare learning algorithms on the cannon benchmark and
need full multi-seed studies.  Their results cache under ``_acceptance_cache/``
keyed by the exact study configuration, so only the first run is slow; delete
that directory to force recomputation.  The remaining checks are fast,
self-contained correctness oracles.  Every check prints one PASS/FAIL line
with the measured quantities and the tolerance it was judged against.
"""

import json
import os
import platform
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from fcps import gp
from fcps.algorithms import LearnerConfig, make_learner, run_episode
from fcps.errors import ContractError
from fcps.experience import reevaluate
from fcps.harness import (ACTIVE_EPISODES, ExperimentConfig, build_environment,
                          config_to_dict, emit, generalization_study,
                          load_results, run, sample_context, study)
from fcps.optim import SearchSpace, direct_maximize, global_then_local, \
    lbfgs_refine
from fcps.sim import (CannonWorld, DmpParams, cannon_rollout, dmp_integrate,
                      imitate_params, _minimum_jerk)

from conftest import rowwise, tiny_config, unit_box

CACHE_DIR = Path(__file__).resolve().parent / "_acceptance_cache"

PASSIVE_STUDY = ExperimentConfig(
    algorithms=("c-reps", "bo-cps", "bo-fcps-her", "bo-fcps"))
GENERALIZATION_STUDY = ExperimentConfig(algorithms=("bo-fcps", "bo-cps"))
ACTIVE_STUDY = ExperimentConfig(environment="active-cannon",
                                episodes=ACTIVE_EPISODES, grid_shape=(8, 8),
                                algorithms=("aces", "faces"))
# the factored learner's acquisition variants of criterion 5
ACQUISITION_STUDIES = {kind: ExperimentConfig(learner=LearnerConfig(
    algorithm="bo-fcps", acquisition_kind=kind)) for kind in ("es", "random")}


@pytest.fixture
def announce(capfd):
    def _announce(name: str, ok: bool, detail: str):
        with capfd.disabled():
            print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
        assert ok, f"{name}: {detail}"
    return _announce


# ---------------------------------------------------------------------------
# cached studies
# ---------------------------------------------------------------------------


def _expanded_dicts(config: ExperimentConfig) -> list[dict]:
    tags = config.algorithms or (config.learner.algorithm,)
    return [config_to_dict(replace(config,
                                   learner=replace(config.learner, algorithm=t),
                                   algorithms=None)) for t in tags]


def _cached_study(study_id: str, config: ExperimentConfig):
    """Load the study from the cache, or run it and cache the outputs.

    The stored per-run configs are the cache key: any config drift triggers
    a recomputation instead of silently reusing stale numbers.
    """
    runs_path = CACHE_DIR / study_id / "runs.json"
    if runs_path.exists():
        # the raw dicts, before parsing: a cache in a retired config format
        # is stale, not an error
        entries = json.loads(runs_path.read_text(encoding="utf-8"))
        if [entry["config"] for entry in entries] == _expanded_dicts(config):
            return {c.algorithm: r for c, r in load_results(runs_path)}, "cached"
    started = time.perf_counter()
    results = study(config)
    emit(results, CACHE_DIR / study_id)
    elapsed = time.perf_counter() - started
    return {c.algorithm: r for c, r in results}, f"computed in {elapsed:.0f}s"


def _cached_generalization(study_id: str, config: ExperimentConfig):
    path = CACHE_DIR / study_id / "generalization.json"
    key = [config_to_dict(config)]
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("key") == key:
            return data["results"], "cached"
    started = time.perf_counter()
    results = {}
    for tag in config.algorithms:
        tagged = replace(config, learner=replace(config.learner, algorithm=tag),
                         algorithms=None)
        results[tag] = generalization_study(tagged)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"key": key, "results": results}, indent=1,
                               sort_keys=True), encoding="utf-8")
    elapsed = time.perf_counter() - started
    return results, f"computed in {elapsed:.0f}s"


def test_a_cache_in_a_retired_config_format_counts_as_stale(tmp_path, monkeypatch):
    """``_cached_study`` recomputes a runs.json whose configs are in an older
    format, here the learner's acquisition settings in a nested block, and
    reuses one in the current format; ``study`` and ``emit`` are stubs."""
    config = replace(ExperimentConfig(),
                     learner=LearnerConfig(algorithm="bo-fcps", acquisition_kind="es"))
    entries = json.loads((CACHE_DIR / "study-fcps-es" / "runs.json").read_text(
        encoding="utf-8"))
    retired = json.loads(json.dumps(entries))
    learner = retired[0]["config"]["learner"]
    learner["acquisition"] = {key: learner.pop(key) for key in ("kappa", "n_candidates")}
    for study_id, data in (("current", entries), ("retired", retired)):
        (tmp_path / study_id).mkdir()
        (tmp_path / study_id / "runs.json").write_text(json.dumps(data), encoding="utf-8")
    ran, emitted = [], []
    monkeypatch.setitem(globals(), "CACHE_DIR", tmp_path)
    monkeypatch.setitem(globals(), "study",
                        lambda cfg: ran.append(cfg) or [(cfg, "recomputed")])
    monkeypatch.setitem(globals(), "emit", lambda results, out: emitted.append(out))
    results, provenance = _cached_study("current", config)
    assert provenance == "cached" and list(results) == ["bo-fcps"] and not ran
    results, provenance = _cached_study("retired", config)
    assert provenance.startswith("computed") and results == {"bo-fcps": "recomputed"}
    assert ran == [config] and emitted == [tmp_path / "retired"]


def _this_machine() -> dict:
    """This machine in the terms of ``PROVENANCE.json``'s ``machine``; the
    tier-1 workflow prints it beside the cache's too."""
    def build(show_config, kind):
        try:
            d = show_config(mode="dicts")["Build Dependencies"][kind]
            return f"{d['name']} {d.get('version', '')} " \
                   f"{d.get('openblas configuration', '')}".strip()
        except (TypeError, KeyError):
            return "unknown"

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "cpu": cpu,
            "nproc": os.cpu_count(), "numpy": np.__version__,
            "numpy_blas": build(np.show_config, "blas"),
            "python": platform.python_version(), "scipy": scipy.__version__,
            "scipy_lapack": build(scipy.show_config, "lapack")}


# the cached runs.json studies, each with the last episodes seed 0 replays
# to per tag where they are not just the study's end: the passive studies
# behind criteria 1, 2 and 5 replay in full, and bo-fcps also to episode 60,
# the evaluation criterion 1 reads; the active study behind criterion 4
# replays a prefix, as its aces seeds take minutes, and aces' prefix holds
# two entropy-search selections past its 20-episode warm start
FRESHNESS_STUDIES = {"study-default-150x10": (PASSIVE_STUDY, {"bo-fcps": (60, 150)}),
                     "study-fcps-es": (ACQUISITION_STUDIES["es"], {}),
                     "study-fcps-random": (ACQUISITION_STUDIES["random"], {}),
                     "study-active-100x10": (ACTIVE_STUDY, {"faces": (20,), "aces": (22,)})}


def _stale(drifted: list[str]) -> str:
    machine = json.loads((CACHE_DIR / "PROVENANCE.json").read_text(
        encoding="utf-8"))["machine"]
    return (f"stale cache, regenerate: {'; '.join(drifted)}; cache made on "
            f"{machine}, this machine {_this_machine()}")


@pytest.mark.parametrize("study_id", FRESHNESS_STUDIES)
def test_cached_study_is_fresh(study_id, announce):
    """Seed 0 of every tag in the cached study, run again through
    ``harness.run`` up to each of its replayed last episodes with one greedy
    evaluation, at the last evaluation point up to there, must repeat the
    cached online rewards up to there and that offline reward bit for bit.
    The check only reads the cache: a mismatch fails and names both
    machines, this one's BLAS thread count included."""
    runs_path = CACHE_DIR / study_id / "runs.json"
    entries = json.loads(runs_path.read_text(encoding="utf-8"))
    config, lasts = FRESHNESS_STUDIES[study_id]
    keyed = [entry["config"] for entry in entries] == _expanded_dicts(config)
    drifted = [] if keyed else ["its configs are not the study's"]
    replayed, short = [], False
    for cached_config, cached in load_results(runs_path) if keyed else ():
        tag = cached_config.algorithm
        ends = lasts.get(tag, (cached_config.episodes,))
        short |= max(ends) < cached_config.episodes
        row = cached_config.seeds.index(0)
        for last in ends:
            evaluated = max(e for e in cached.offline_episodes if e <= last)
            fresh = run(replace(cached_config, seeds=(0,), episodes=last,
                                evaluation_period=evaluated))
            column = [cached.offline_episodes.index(evaluated)]
            if (fresh.online_rewards[0].tobytes()
                    != cached.online_rewards[row, :last].tobytes()
                    or fresh.offline_rewards[0].tobytes()
                    != cached.offline_rewards[row, column].tobytes()):
                drifted.append(f"{tag} to episode {last} differs at seed 0")
            replayed.append(f"{tag} to episode {last} with its evaluation at "
                            f"{evaluated}")
    if drifted:
        detail = _stale(drifted)
    else:
        episodes = entries[0]["offline_episodes"]
        others = [seed for seed in entries[0]["config"]["seeds"] if seed != 0]
        past = "the online rewards past those episodes, " if short else ""
        detail = (f"seed 0 repeats the cached online and offline rewards bit for "
                  f"bit: {', '.join(replayed)}; not compared: {past}the offline "
                  f"rewards at the other evaluation points of "
                  f"{episodes[0]}-{episodes[-1]} and seeds {min(others)}-{max(others)}")
    announce(f"freshness of {study_id}", not drifted, detail)


def test_cached_generalization_is_fresh(announce):
    """Seed 0 of each tag's generalization study, run again, must repeat
    the cached seen and unseen rewards bit for bit; like the check above,
    it only reads the cache."""
    data = json.loads((CACHE_DIR / "study-generalization" / "generalization.json")
                      .read_text(encoding="utf-8"))
    config = GENERALIZATION_STUDY
    keyed = data["key"] == [config_to_dict(config)]
    drifted = [] if keyed else ["its key is not the study's"]
    halves, row = ("seen_per_seed", "unseen_per_seed"), config.seeds.index(0)
    for tag in config.algorithms if keyed else ():
        fresh = generalization_study(replace(
            config, seeds=(0,), algorithms=None,
            learner=replace(config.learner, algorithm=tag)))
        cached = data["results"][tag]
        if (np.array([fresh[h][0] for h in halves]).tobytes()
                != np.array([cached[h][row] for h in halves]).tobytes()):
            drifted.append(f"{tag} differs at seed 0")
    others = [seed for seed in config.seeds if seed != 0]
    detail = _stale(drifted) if drifted else (
        f"seed 0 of {', '.join(config.algorithms)} repeats the cached seen and "
        f"unseen rewards bit for bit; not compared: seeds {min(others)}-{max(others)}")
    announce("freshness of study-generalization", not drifted, detail)


@pytest.fixture(scope="module")
def passive_results():
    return _cached_study("study-default-150x10", PASSIVE_STUDY)


# ---------------------------------------------------------------------------
# paired per-seed evidence
# ---------------------------------------------------------------------------

BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def paired_evidence(a, b) -> dict:
    """Per-seed evidence that ``a`` is ahead of ``b``.

    ``a`` and ``b`` hold one value per seed, in seed order.  Returns the
    differences ``a - b`` by seed index, the number of seeds where ``a`` is
    strictly ahead, the mean difference and a percentile bootstrap 95%
    interval of it, resampling seeds with a fixed generator so that the
    interval repeats.  Seed i of two tags shares the world and the master
    seed, as every seed of a study does, but no random stream: the
    learner, context and rollout streams are keyed by the tag.  So a pair
    is two independent runs, and the interval is one of the difference of
    the means; the win count says how often one run beat the other.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or not len(a):
        raise ValueError("need two equal-length, non-empty per-seed arrays")
    diff = a - b
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(0, len(diff), size=(BOOTSTRAP_RESAMPLES, len(diff)))
    lo, hi = np.percentile(diff[picks].mean(axis=1), [2.5, 97.5])
    return {"diff": diff, "wins": int(np.count_nonzero(diff > 0)),
            "seeds": len(diff), "mean": float(diff.mean()),
            "ci": (float(lo), float(hi))}


def _paired_text(label: str, a, b, digits: int) -> str:
    e = paired_evidence(a, b)
    lo, hi = e["ci"]
    return (f"{label} ahead {e['wins']}/{e['seeds']} seeds, mean "
            f"{e['mean']:+.{digits}f} [{lo:+.{digits}f}, {hi:+.{digits}f}]")


def _online_per_seed(result, t: int) -> np.ndarray:
    """Each seed's summed first ``t`` online rewards."""
    return result.online_rewards[:, :t].sum(axis=1)


def cumulative_online(result, t: int) -> float:
    """Mean over seeds of the summed first ``t`` online rewards, for ``t``
    from 0 to the budget."""
    budget = result.online_rewards.shape[1]
    if not 0 <= t <= budget:
        raise ContractError(f"t must lie in [0, {budget}]")
    return float(_online_per_seed(result, t).mean())


def test_cumulative_online_bounds_and_monotonicity():
    result = run(tiny_config(episodes=6, evaluation_period=3))
    assert cumulative_online(result, 0) == 0.0
    total = float(result.online_rewards.sum(axis=1).mean())
    assert cumulative_online(result, 6) == pytest.approx(total, rel=1e-12)
    values = [cumulative_online(result, t) for t in range(7)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    with pytest.raises(ContractError):
        cumulative_online(result, 7)


@pytest.mark.parametrize("a, b, wins, mean, ci", [
    ([3.0, 5.0, 9.0], [1.0, 3.0, 7.0], 3, 2.0, (2.0, 2.0)),  # constant gap
    ([1.0, -1.0], [0.0, 0.0], 1, 0.0, (-1.0, 1.0)),  # each mean has weight >= 1/4
    ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], 0, 0.0, (0.0, 0.0)),  # ties never win
    ([-4.0], [0.0], 0, -4.0, (-4.0, -4.0)),
])
def test_paired_evidence_on_known_cases(a, b, wins, mean, ci):
    e = paired_evidence(a, b)
    assert e["diff"].tolist() == (np.array(a) - np.array(b)).tolist()
    assert (e["wins"], e["seeds"], e["mean"], e["ci"]) == (wins, len(a), mean, ci)


def test_paired_evidence_is_deterministic_and_brackets_the_mean():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=10), rng.normal(size=10)
    first, second = paired_evidence(a, b), paired_evidence(a, b)
    assert first["ci"] == second["ci"] and first["mean"] == second["mean"]
    lo, hi = first["ci"]
    assert lo < first["mean"] < hi
    # swapping the pair mirrors the differences and the interval
    swapped = paired_evidence(b, a)
    assert swapped["diff"].tolist() == (-first["diff"]).tolist()
    assert swapped["wins"] == 10 - first["wins"]
    assert swapped["ci"][0] == pytest.approx(-hi) and swapped["ci"][1] == pytest.approx(-lo)
    with pytest.raises(ValueError):
        paired_evidence(a, b[:9])
    with pytest.raises(ValueError):
        paired_evidence([], [])


# ---------------------------------------------------------------------------
# benchmark criteria
# ---------------------------------------------------------------------------


def test_criterion_1_factored_dominance(passive_results, announce):
    """The factored learner at episode 60 must match the joint learner's
    full-budget offline quality (15x15 grid, 10 seeds)."""
    results, provenance = passive_results
    fcps, cps = results["bo-fcps"], results["bo-cps"]
    at60 = float(fcps.offline_rewards.mean(axis=0)[
        fcps.offline_episodes.index(60)])
    at150 = float(cps.offline_rewards.mean(axis=0)[
        cps.offline_episodes.index(150)])
    paired = _paired_text(
        "factored@60 vs joint@150:",
        fcps.offline_rewards[:, fcps.offline_episodes.index(60)],
        cps.offline_rewards[:, cps.offline_episodes.index(150)], 3)
    announce("criterion 1, factored dominance", at60 >= at150,
             f"factored@60 {at60:.3f} >= joint@150 {at150:.3f}; {paired} "
             f"({provenance})")


def test_criterion_2_online_reward_ordering(passive_results, announce):
    """Cumulative online reward must order factored > relabeling > joint >
    policy-search baseline at t in {50,100,150}, with the factored-vs-joint
    gap at least 20% of the joint learner's magnitude at every t."""
    results, provenance = passive_results
    rows, ok = [], True
    for t in (50, 100, 150):
        f, h, c, r = (cumulative_online(results[tag], t)
                      for tag in ("bo-fcps", "bo-fcps-her", "bo-cps", "c-reps"))
        ordered = f > h > c > r
        gap = abs(f) <= 0.8 * abs(c)
        ok = ok and ordered and gap
        tags = ("bo-fcps", "bo-fcps-her", "bo-cps", "c-reps")
        paired = ", ".join(
            _paired_text(f"{x} vs {y}:", _online_per_seed(results[x], t),
                         _online_per_seed(results[y], t), 0)
            for x, y in zip(tags, tags[1:]))
        rows.append(f"t={t}: {f:.0f} > {h:.0f} > {c:.0f} > {r:.0f}"
                    f" ordered={ordered} gap>=20%={gap} ({paired})")
    announce("criterion 2, online ordering", ok,
             "; ".join(rows) + f" ({provenance})")


def test_criterion_3_generalization_transfer(announce):
    """Training restricted to two quadrants: the factored learner's advantage
    over the joint learner must be positive on seen contexts and larger on
    unseen ones (10 seeds)."""
    results, provenance = _cached_generalization("study-generalization",
                                                 GENERALIZATION_STUDY)
    seen_gain = results["bo-fcps"]["seen_mean"] - results["bo-cps"]["seen_mean"]
    unseen_gain = (results["bo-fcps"]["unseen_mean"]
                   - results["bo-cps"]["unseen_mean"])
    ok = unseen_gain > seen_gain > 0.0
    fcps, cps = results["bo-fcps"], results["bo-cps"]
    gains = {half: np.subtract(fcps[f"{half}_per_seed"], cps[f"{half}_per_seed"])
             for half in ("seen", "unseen")}
    paired = "; ".join([
        _paired_text("factored vs joint, seen:", fcps["seen_per_seed"],
                     cps["seen_per_seed"], 3),
        _paired_text("unseen:", fcps["unseen_per_seed"], cps["unseen_per_seed"], 3),
        _paired_text("unseen gain vs seen gain:", gains["unseen"], gains["seen"], 3)])
    announce("criterion 3, generalization transfer", ok,
             f"unseen gain {unseen_gain:.3f} > seen gain {seen_gain:.3f} > 0; "
             f"{paired} ({provenance})")


def test_criterion_4_active_factored_learning(announce):
    """With chooseable contexts, the factored active learner must dominate
    the joint active learner at every evaluation from episode 40 on
    (8x8 grid with the shoot indicator fixed to zero, 10 seeds)."""
    results, provenance = _cached_study("study-active-100x10", ACTIVE_STUDY)
    faces, aces = results["faces"], results["aces"]
    episodes = np.array(faces.offline_episodes)
    tail = episodes >= 40
    f_curve = faces.offline_rewards.mean(axis=0)[tail]
    a_curve = aces.offline_rewards.mean(axis=0)[tail]
    margins = f_curve - a_curve
    ok = bool(np.all(margins >= 0.0))
    # the per-seed pairs at the evaluation with the smallest margin
    col = int(np.flatnonzero(tail)[np.argmin(margins)])
    paired = _paired_text(f"faces vs aces at ep{episodes[col]}:",
                          faces.offline_rewards[:, col], aces.offline_rewards[:, col], 3)
    announce("criterion 4, active factored learning", ok,
             f"min margin from ep40 {margins.min():.3f} over "
             f"{tail.sum()} eval points; {paired}; seeds unmatched (faces and aces "
             f"share no random stream): the interval is that of a difference of "
             f"means of independent runs ({provenance})")


def test_criterion_5_acquisition_ablation(passive_results, announce):
    """The confidence-bound acquisition must reach every offline-reward
    threshold no later (in mean evaluation episodes, 10 seeds) than the
    entropy-search or random variants; equivalent to running-max curve
    dominance at every evaluation point."""
    results, provenance = passive_results
    per_seed, notes = {"ucb": results["bo-fcps"].offline_rewards}, [provenance]
    for kind in ("es", "random"):
        variant, prov = _cached_study(f"study-fcps-{kind}", ACQUISITION_STUDIES[kind])
        per_seed[kind] = variant["bo-fcps"].offline_rewards
        notes.append(f"{kind} {prov}")
    curves = {k: v.mean(axis=0) for k, v in per_seed.items()}
    running = {k: np.maximum.accumulate(v) for k, v in curves.items()}
    episodes = results["bo-fcps"].offline_episodes
    margin_es = float(np.min(running["ucb"] - running["es"]))
    margin_rand = float(np.min(running["ucb"] - running["random"]))
    ok = margin_es >= -1e-9 and margin_rand >= -1e-9
    # at the evaluation with the smallest running-max margin, each side's
    # per-seed rewards at the evaluation its running maximum comes from.
    # The variants run one tag, so seed i of each draws the same contexts
    # and launch noise, and all agree through the warm start, where the
    # margin is exactly 0: the smallest margin is taken where they differ
    paired = []
    for kind in ("es", "random"):
        margin = running["ucb"] - running[kind]
        apart = np.flatnonzero(margin != 0.0)
        at = int(apart[np.argmin(margin[apart])]) if len(apart) else 0
        u, v = (int(np.argmax(curves[k][:at + 1])) for k in ("ucb", kind))
        paired.append(_paired_text(
            f"ucb@ep{episodes[u]} vs {kind}@ep{episodes[v]}:",
            per_seed["ucb"][:, u], per_seed[kind][:, v], 3))
    announce("criterion 5, acquisition ablation", ok,
             f"running-max margin vs es {margin_es:.3f}, vs random "
             f"{margin_rand:.3f}; {'; '.join(paired)}; seeds matched (one tag, "
             f"so the same context and rollout streams) ({'; '.join(notes)})")


# ---------------------------------------------------------------------------
# module oracles
# ---------------------------------------------------------------------------


def test_criterion_6_gp_suite(announce):
    """Marginal-likelihood gradients vs central differences (50 random
    instances, rel err <= 1e-4), incremental conditioning == refit (1e-8),
    noiseless interpolation (1e-6), variance non-negativity and shrinkage
    under new data (1e-8); all within one minute."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)

    worst_rel = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        n = int(rng.integers(3, 12))
        x = rng.uniform(size=(n, dim))
        y = rng.normal(size=n)
        h = gp.KernelHyperparams(
            signal_variance=float(np.exp(rng.uniform(-1, 1))),
            lengthscales=np.exp(rng.uniform(-1.5, 0.5, size=dim)),
            noise_variance=float(np.exp(rng.uniform(-7, -2))))
        sq_diffs = gp._squared_differences(x)
        _, grad = gp.nlml(x, y, h, sq_diffs=sq_diffs)
        logv = h.as_log_vector()
        fd = np.zeros_like(grad)
        for j in range(len(logv)):
            step = np.zeros_like(logv)
            step[j] = 1e-5
            hi, _ = gp.nlml(x, y, gp.KernelHyperparams.from_log_vector(
                logv + step), sq_diffs=sq_diffs)
            lo, _ = gp.nlml(x, y, gp.KernelHyperparams.from_log_vector(
                logv - step), sq_diffs=sq_diffs)
            fd[j] = (hi - lo) / 2e-5
        denom = max(1.0, float(np.linalg.norm(fd)))
        worst_rel = max(worst_rel, float(np.linalg.norm(grad - fd)) / denom)
    grad_ok = worst_rel <= 1e-4

    # incremental conditioning must equal a from-scratch factorization at
    # fixed hyperparameters and fixed target scaling: the 12 rows under the
    # 11-row model's shift and scale
    x = rng.uniform(size=(12, 3))
    y = rng.normal(size=12)
    h = gp.KernelHyperparams(1.0, np.full(3, 0.4), 1e-3)
    base = gp.fit(x[:11], y[:11], h, input_space=unit_box(h.dim))
    fant = gp.fantasize(base, x[11], float(y[11]))
    refit_model = gp._assemble(h, base.transform_inputs(x),
                               (y - base.y_shift) / base.y_scale, base.input_space,
                               base.y_shift, base.y_scale)
    probes = rng.uniform(size=(40, 3))
    fm, fv = gp.predict_batch(fant, probes)
    rm, rv = gp.predict_batch(refit_model, probes)
    fant_err = float(max(np.abs(fm - rm).max(), np.abs(fv - rv).max()))
    fant_ok = fant_err <= 1e-8

    clean = gp.fit(x, y, gp.KernelHyperparams(1.0, np.full(3, 0.4), 1e-10),
                   input_space=unit_box(3))
    mean_at_train, _ = gp.predict_batch(clean, x)
    interp_err = float(np.abs(mean_at_train - y).max())
    interp_ok = interp_err <= 1e-6

    _, var = gp.predict_batch(base, probes)
    nonneg_ok = bool(np.all(var >= -1e-8))
    _, var_after = gp.predict_batch(fant, probes)
    _, var_before = gp.predict_batch(base, probes)
    shrink = float(np.max(var_after - var_before))
    shrink_ok = shrink <= 1e-8

    elapsed = time.perf_counter() - started
    ok = (grad_ok and fant_ok and interp_ok and nonneg_ok and shrink_ok
          and elapsed <= 60.0)
    announce("criterion 6, reward-model suite", ok,
             f"grad rel err {worst_rel:.2e}<=1e-4, update-vs-refit "
             f"{fant_err:.2e}<=1e-8, interpolation {interp_err:.2e}<=1e-6, "
             f"var floor ok={nonneg_ok}, shrinkage {shrink:.2e}<=1e-8, "
             f"{elapsed:.1f}s<=60s")


def _neg_branin(x):
    a, b, c = 1.0, 5.1 / (4 * np.pi**2), 5.0 / np.pi
    r, s, t = 6.0, 10.0, 1.0 / (8 * np.pi)
    x1, x2 = x[0], x[1]
    return -(a * (x2 - b * x1**2 + c * x1 - r) ** 2
             + s * (1 - t) * np.cos(x1) + s)


def test_criterion_7_optimizer_oracles(announce):
    """Global search within 1e-2 of the Branin optimum in <= 2000 evals;
    the two-stage maximizer never loses to global search alone; bounded
    quasi-Newton refinement solves a quadratic to 1e-6 in <= 50 iters."""
    branin_space = SearchSpace([-5.0, 0.0], [10.0, 15.0])
    _, val = direct_maximize(rowwise(_neg_branin), branin_space, max_evals=2000)
    branin_err = abs(val - (-0.397887))
    branin_ok = branin_err <= 1e-2

    def bump(x):
        return float(np.exp(-200 * (x[0] - 0.2) ** 2)
                     + 1.4 * np.exp(-200 * (x[0] - 0.8) ** 2))

    def quad3(x):
        c = np.array([0.3, -0.2, 0.7])
        return float(-np.sum((x - c) ** 2))

    suite = [
        (_neg_branin, branin_space, 400),
        (bump, SearchSpace([0.0], [1.0]), 300),
        (quad3, SearchSpace([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), 350),
    ]
    two_stage_ok = True
    worst_margin = np.inf
    for f, space, budget in suite:
        f = rowwise(f)
        _, direct_val = direct_maximize(f, space, max_evals=budget)
        _, combined = global_then_local(f, space, direct_evals=budget,
                                        refine_starts=3, refine_iters=60)
        worst_margin = min(worst_margin, combined - direct_val)
        two_stage_ok = two_stage_ok and combined >= direct_val - 1e-12

    centre = np.array([0.4, -0.3, 0.25, 0.6])
    scales = np.array([1.0, 4.0, 0.5, 2.0])

    def quad(x):
        return float(-np.sum(scales * (x - centre) ** 2))

    qspace = SearchSpace([-1.0] * 4, [1.0] * 4)
    _, q_val = lbfgs_refine(rowwise(quad), qspace, np.array([-1.0, 1.0, -1.0, 1.0]),
                            max_iters=50)
    quad_err = abs(q_val)  # the maximum is exactly zero
    quad_ok = quad_err <= 1e-6

    ok = branin_ok and two_stage_ok and quad_ok
    announce("criterion 7, optimizer oracles", ok,
             f"branin err {branin_err:.2e}<=1e-2 in 2000 evals, two-stage "
             f"worst margin {worst_margin:.2e}>=0, quadratic gap "
             f"{quad_err:.2e}<=1e-6 in 50 iters")


def test_criterion_8_replay_premise(announce):
    """Trajectories cannot depend on the commanded target: replaying 100
    random (world seed, launch) pairs must give bit-identical landings, and
    batch re-scoring must equal the per-record oracle bit-for-bit."""
    rng = np.random.default_rng(11)
    config = ExperimentConfig()
    environment = build_environment(config)
    identical = 0
    store_env = None
    for k in range(100):
        world = CannonWorld.generate(seed=int(rng.integers(1 << 30)))
        theta = environment.theta_space.sample_uniform(1, rng)[0]
        first = cannon_rollout(world, np.zeros(0), theta,
                               np.random.default_rng(k))
        second = cannon_rollout(world, np.zeros(0), theta,
                                np.random.default_rng(k))
        if first.tobytes() == second.tobytes():
            identical += 1
    premise_ok = identical == 100

    learner = make_learner(LearnerConfig(algorithm="bo-fcps", rng_seed=3),
                           environment.target_space, environment.env_space,
                           environment.theta_space, environment.reward_fn)
    ctx_rng = np.random.default_rng(5)
    records = [run_episode(learner, environment,
                           sample_context(environment, ctx_rng,
                                          [environment.target_space]),
                           ctx_rng)
               for _ in range(40)]
    target = np.array([4.0, -7.5])
    _, batch_rewards = reevaluate(learner.store, environment.reward_fn, target)
    naive = np.array([environment.reward_fn(target, rec.landing, rec.params)
                      for rec in records])
    rescore_ok = batch_rewards.tobytes() == naive.tobytes()

    ok = premise_ok and rescore_ok
    announce("criterion 8, replay premise", ok,
             f"bit-identical replays {identical}/100, batch==oracle "
             f"bitwise {rescore_ok}")


def test_criterion_9_trajectory_generator_suite(announce):
    """Zero forcing converges to the goal (1e-3 of the span); imitation of a
    smooth demo replays within 1e-2 of the span; rescaling duration and step
    together leaves the path unchanged (1e-6)."""
    y0 = np.array([0.0, 0.0])
    goal = np.array([1.0, 2.0])
    span = float(np.linalg.norm(goal - y0))
    p = DmpParams(shape_weights=np.zeros((8, 2)), goal=goal,
                  goal_velocity=np.zeros(2), duration=1.0)
    path, _ = dmp_integrate(p, y0, dt=1.0 / 400, n_steps=400)
    converge_err = float(np.linalg.norm(path[-1] - goal))
    converge_ok = converge_err <= 1e-3 * span

    demo = _minimum_jerk(np.array([0.0, 0.0]), np.array([1.0, -0.5]), 101)
    demo_span = float(np.linalg.norm(demo[-1] - demo[0]))
    fitted = imitate_params(demo, basis_count=10, duration=1.0)
    replay, _ = dmp_integrate(fitted, demo[0], dt=1.0 / 100, n_steps=100)
    rmse = float(np.sqrt(np.mean(np.sum((replay - demo) ** 2, axis=1))))
    imitate_ok = rmse <= 1e-2 * demo_span

    w = np.random.default_rng(2).normal(size=(10, 2)) * 3.0
    base = DmpParams(shape_weights=w, goal=goal, goal_velocity=np.zeros(2),
                     duration=1.0)
    slow = DmpParams(shape_weights=w, goal=goal, goal_velocity=np.zeros(2),
                     duration=2.0)
    path_a, _ = dmp_integrate(base, y0, dt=1.0 / 200, n_steps=200)
    path_b, _ = dmp_integrate(slow, y0, dt=2.0 / 200, n_steps=200)
    scale_err = float(np.abs(path_a - path_b).max())
    scale_ok = scale_err <= 1e-6

    ok = converge_ok and imitate_ok and scale_ok
    announce("criterion 9, trajectory generator suite", ok,
             f"goal err {converge_err:.2e}<={1e-3 * span:.2e}, imitation rmse "
             f"{rmse:.2e}<={1e-2 * demo_span:.2e}, rescale err "
             f"{scale_err:.2e}<=1e-6")


def test_criterion_10_policy_search_kl_bound(announce):
    """Every policy update across a full 150-episode run must respect the
    relative-entropy trust region (empirical KL <= epsilon + 1e-3)."""
    config = ExperimentConfig()
    environment = build_environment(config)
    cfg = LearnerConfig(algorithm="c-reps", rng_seed=0)
    learner = make_learner(cfg, environment.target_space, environment.env_space,
                           environment.theta_space, environment.reward_fn)
    rng = np.random.default_rng(17)
    for _ in range(config.episodes):
        context = sample_context(environment, rng, [environment.target_space])
        run_episode(learner, environment, context, rng)
    kls = np.array(learner.kl_history)
    bound = cfg.creps_epsilon + 1e-3
    ok = len(kls) >= 3 and bool(np.all(kls <= bound))
    announce("criterion 10, trust-region bound", ok,
             f"{len(kls)} updates, max KL {kls.max() if len(kls) else np.nan:.4f}"
             f" <= {bound:.4f}")
