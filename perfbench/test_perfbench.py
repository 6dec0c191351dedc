"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import learner_runs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from fcps import algorithms, harness  # noqa: E402
from spans import Span, Tracer, patched, self_times, summarize  # noqa: E402
from stats import percentile, ratio, tail_percentile  # noqa: E402
from workloads import WORKLOADS, LearnerSpec, Workload  # noqa: E402

TINY = Workload(name="passive-cannon", environment="cannon",
                grid_shape=(2, 2),
                learners=(LearnerSpec("c-reps", 6, 3),
                          LearnerSpec("bo-fcps", 12, 6),
                          LearnerSpec("bo-fcps-her", 4, 4)),
                why="test", round_s=1.0)


# -- percentiles --------------------------------------------------------------

def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    xs = rng.exponential(size=37)
    for pct in (0, 12.5, 50, 90, 99.9, 100):
        assert percentile(xs, pct) == pytest.approx(np.percentile(xs, pct))


@pytest.mark.parametrize("n, pct", [(20, 50.0), (99, 50.0), (100, 90.0),
                                    (999, 90.0), (1000, 99.0),
                                    (9999, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    xs = np.arange(n, dtype=float)
    chosen, value, count = tail_percentile(xs)
    assert (chosen, count) == (pct, n)
    assert value == pytest.approx(np.percentile(xs, pct))
    assert np.sum(xs > value) >= 10


def test_tail_falls_back_to_median_and_reports_count():
    chosen, value, count = tail_percentile([5.0, 1.0, 3.0])
    assert (chosen, value, count) == (50.0, 3.0, 3)


# -- ratios -----------------------------------------------------------------

def test_ratio_of_empty_base_is_zero():
    assert ratio(0, 0) == 0.0
    assert ratio(3, 4) == 0.75


def test_layer_ratios_use_their_bases():
    spans = [Span("optim.global_then_local", 0.0, 10.0, -1),
             Span("gp.predict_batch", 1.0, 2.0, 0, rows=6),
             Span("gp.predict_batch", 2.0, 3.0, 0, rows=8),
             Span("optim.lbfgs_refine", 4.0, 8.0, 0),
             Span("optim.lbfgs_refine", 11.0, 12.0, -1),
             Span("gp.refit", 13.0, 14.0, -1),
             Span("gp.nlml", 13.1, 13.2, 5),
             Span("gp.nlml", 13.3, 13.4, 5),
             Span("gp.nlml", 13.5, 13.6, 5)]
    m = layers.layer_metrics(summarize(spans), spans, traced_s=20.0,
                             overhead_s=2.0)
    assert m["gp.predict_batch.rows_per_call"] == 7.0
    # only the refinements inside the global search count toward its share
    assert m["optim.lbfgs_share"] == pytest.approx(4.0 / 10.0)
    assert m["gp.nlml.calls_per_refit"] == 3.0
    assert m["acquisition.gains.ms_per_query"] == 0.0  # no queries
    assert m["trace.overhead_s"] == pytest.approx(2.0)
    # global search 10 - 6 of children, refinements 4 + 1
    assert m["layer.optim.self_share"] == pytest.approx(9 / 20)
    assert m["layer.untraced.self_share"] == pytest.approx(1 - 12 / 20)
    assert set(m) == {name for name, _ in layers.PER_LAYER}


# -- spans ------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 4.0, 0),
             Span("a.child", 2.0, 3.0, 1),
             Span("b", 5.0, 9.0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 5.0, 0),
             Span("b", 3.0, 7.0, 0),
             Span("c", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_busy_time_counts_nested_same_name_once():
    spans = [Span("f", 0.0, 4.0, -1),
             Span("f", 1.0, 2.0, 0),
             Span("g", 5.0, 6.0, -1)]
    stats = summarize(spans)
    assert stats["f"].calls == 2
    assert stats["f"].busy_s == pytest.approx(4.0)
    assert stats["f"].self_s == pytest.approx(4.0)


def test_tracer_records_parents_rows_and_closes_on_error():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def boom():
        raise KeyError("x")

    outer = tracer.wrap("outer", lambda f: f(), rows=lambda f: 7)
    inner = tracer.wrap("inner", boom)
    with pytest.raises(KeyError):
        outer(inner)
    tracer.wrap("after", lambda: None)()
    spans = tracer.spans()
    assert [(s.name, s.parent, s.rows) for s in spans] == [
        ("outer", -1, 7), ("inner", 0, 0), ("after", -1, 0)]
    assert all(s.end > s.start for s in spans)


def test_patched_restores_originals():
    class Owner:
        def method(self):
            return 1

    original = Owner.__dict__["method"]
    tracer = Tracer()
    with patched([(Owner, "method",
                   lambda fn: tracer.wrap("Owner.method", fn))]):
        assert Owner().method() == 1
        assert Owner.__dict__["method"] is not original
    assert Owner.__dict__["method"] is original
    assert [s.name for s in tracer.spans()] == ["Owner.method"]


# -- learner runs, tracing and coverage on a tiny workload -------------------

def test_learner_runs_report_what_harness_run_returns():
    rnd = learner_runs.run_round(TINY, 3)
    for spec, run_ in zip(TINY.learners, rnd.runs):
        want = harness.run(learner_runs.experiment_config(TINY, spec, 3))
        assert np.array(run_.online).tobytes() \
            == want.online_rewards[0].tobytes()
        assert np.array(run_.offline).tobytes() \
            == want.offline_rewards[0].tobytes()
        assert (run_.episodes, run_.contexts) \
            == (spec.episodes, spec.evaluations * 4)
        assert run_.clock.n_selections == spec.episodes
    assert rnd.failed == 0
    assert rnd.attempted == sum(s.episodes + s.evaluations * 4
                                for s in TINY.learners)
    # the wrappers are gone once the runs end
    assert harness.run_episode is algorithms.run_episode
    assert harness.make_learner is algorithms.make_learner


def test_traced_round_matches_untraced_and_the_expected_counts():
    plain = learner_runs.run_round(TINY, 1)
    traced, spans = run.traced_round(TINY, 1)
    assert traced.digests() == plain.digests()
    summary = summarize(spans)
    assert layers.coverage_problems(TINY, summary) == []
    assert summary["sim.cannon_rollout"].calls == 6 + 12 + 4 + (2 + 2 + 1) * 4


def test_coverage_check_flags_a_call_site_it_no_longer_sees(monkeypatch):
    sites = [s for s in layers.call_sites() if s[2] != "sim.cannon_rollout"]
    monkeypatch.setattr(layers, "call_sites", lambda: sites)
    _, spans = run.traced_round(TINY, 1)
    problems = layers.coverage_problems(TINY, summarize(spans))
    assert problems and all("sim.cannon_rollout" in p for p in problems)


def test_reference_seconds_scale_each_piece_by_the_speed_around_it():
    # samples at 0, 1 and 3 s; speeds 1, 0.5 and 0.25
    times, speeds = [0.0, 1.0, 3.0], [1.0, 0.5, 0.25]
    got = speed.reference_seconds([0.0, 1.5, 3.0, 0.5], [1.0, 2.5, 4.0, 0.6],
                                  times, speeds)
    # [0, 1]: samples at 0 and 1; [1.5, 2.5]: at 1 and 3; beyond the last
    # sample its speed holds; [0.5, 0.6]: at 0 and 1
    assert got == pytest.approx([0.75, 0.375, 0.25, 0.075])


def test_speed_sample_is_geometric_mean_of_the_kernels_speeds():
    interpreter = 10.0 + 2 * speed.INTERPRETER_REF_S  # half speed
    memory = interpreter + 8 * speed.PAGE_FAULT_REF_S  # an eighth
    ticks = iter([10.0, interpreter, memory])
    assert speed.sample(clock=lambda: next(ticks)) == pytest.approx(0.25)


def test_reference_times_sum_pieces_by_phase_and_selection(monkeypatch):
    O, E, X = learner_runs.ONLINE, learner_runs.EVAL, learner_runs.OTHER
    run_ = learner_runs.LearnerRun("bo-cps")
    clock = run_.clock
    # one piece of setup, two episodes with a selection each, one evaluation
    clock.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    clock.arrivals = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    clock.phases = [X, O, O, O, O, E, X, X]
    clock.selections = [-1, -1, 0, -1, 1, -1, -1, -1]
    clock.n_selections = 2
    # the machine runs at half speed throughout
    clock.sample_times, clock.speeds = [0.0, 7.0], [0.5, 0.5]
    timed = learner_runs.reference_times(learner_runs.Round([run_]))
    assert timed.run_s == pytest.approx(3.5)
    assert timed.online_s == pytest.approx(2.0)
    assert timed.eval_s == pytest.approx(0.5)
    # the warm start of bo-cps covers both selections
    assert timed.select_ms == {}
    monkeypatch.setitem(algorithms.DEFAULT_INIT_EPISODES, "bo-cps", 1)
    assert learner_runs.reference_times(learner_runs.Round([run_])) \
        .select_ms == {"bo-cps": pytest.approx([500.0])}


def test_selection_latency_averages_each_learners_own_percentiles():
    fast, slow = [1.0, 2.0, 3.0], list(range(100, 220))
    p50, tail, note = run.selection_latency({"a": fast, "b": slow})
    assert p50 == pytest.approx((2.0 + 159.5) / 2)
    # a has too few selections for a tail beyond its median; b has p90
    assert tail == pytest.approx((2.0 + np.percentile(slow, 90)) / 2)
    assert note == "a: p50 of 3, b: p90 of 120"
    assert run.selection_latency({})[:2] == (0.0, 0.0)


def test_round_count_is_fixed_by_the_nominal_round_time():
    workload = WORKLOADS["passive-cannon"]
    assert run.round_count(workload, 0.1) == run.MIN_ROUNDS
    assert run.round_count(workload, 10 * workload.round_s) == 10


def test_rounds_of_a_workload_cut_into_the_same_pieces():
    first, second = (learner_runs.run_round(TINY, 5) for _ in range(2))
    assert first.pieces() == second.pieces()
    assert first.digests() == second.digests()
    timed = learner_runs.reference_times(first)
    assert 0 < timed.online_s + timed.eval_s <= timed.run_s
    # bo-fcps makes 2 model-based selections, bo-fcps-her none, c-reps none
    assert list(timed.select_ms) == ["bo-fcps"]
    assert len(timed.select_ms["bo-fcps"]) \
        == 12 - algorithms.DEFAULT_INIT_EPISODES["bo-fcps"]
    for run_ in first.runs:
        clock = run_.clock
        # speed is sampled at the start and end of every run, and in between
        # at most every SAMPLE_INTERVAL_S
        assert clock.sample_times[0] == clock.arrivals[0]
        assert clock.sample_times[-1] == clock.arrivals[-1]
        assert all(b - a >= speed.SAMPLE_INTERVAL_S for a, b in
                   zip(clock.sample_times[:-2], clock.sample_times[1:-1]))


def test_a_failing_learner_is_counted_and_the_next_one_runs(monkeypatch):
    calls = {"n": 0}
    rollout = harness.CannonEnvironment.rollout

    def flaky(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 12:  # second context of c-reps' second evaluation
            raise np.linalg.LinAlgError("not positive definite")
        return rollout(self, *args, **kwargs)

    monkeypatch.setattr(harness.CannonEnvironment, "rollout", flaky)
    rnd = learner_runs.run_round(TINY, 2)
    first, second, third = rnd.runs
    assert first.error.startswith("LinAlgError")
    assert (first.attempted, first.failed) == (6 + 4 + 4, 4)
    assert second.error is None and third.error is None
    assert len(second.offline) == 2
    assert rnd.failed == 4


def test_reference_check_compares_recorded_digests(tmp_path, monkeypatch):
    rnd = learner_runs.Round([learner_runs.LearnerRun("c-reps", [-1.0],
                                                      [-2.0])])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(
        {"passive-cannon": {"4": rnd.digests(), "5": {"c-reps": "0" * 16}}}))
    monkeypatch.setattr(run, "REFERENCE", path)
    outcomes = []
    for seed in (4, 5, 6):
        checks, report = {}, []
        run.check_reference(TINY, seed, [rnd], checks, report)
        outcomes.append((list(checks.values()), len(report)))
    assert outcomes == [([True], 0), ([False], 0), ([], 1)]


def test_recorded_reference_names_known_workloads_and_learners():
    recorded = json.loads(run.REFERENCE.read_text())
    for name, seeds in recorded.items():
        algos = [spec.algorithm for spec in WORKLOADS[name].learners]
        assert all(list(d) == algos for d in seeds.values())


# -- the benchmark definition -----------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
