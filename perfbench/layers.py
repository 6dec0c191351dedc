"""Which fcps functions the traced run wraps, and what it derives from them.

Each name is patched where the caller looks it up: a module attribute for
calls through ``gp.``, ``optim.`` and ``sim.``, the importing module's
global for names imported with ``from``, the class for methods, and the
learner instance, as ``harness.make_learner`` returns it, for the learner
methods the episode loop calls.  The coverage
check then compares the traced call counts with counts that follow from
the workload alone, so a call site that moves fails the run instead of
leaving a layer reading zero.
"""

from __future__ import annotations

import functools

import numpy as np

from fcps import acquisition, algorithms, experience, gp, harness, optim, sim

from spans import NameStats, Span, Tracer
from stats import percentile, ratio
from workloads import Workload

LAYERS = ("sim", "experience", "gp", "optim", "acquisition", "algorithms",
          "harness")
# the engine faces uses on a task without an environment context; no
# workload runs aces, so JointEsEngine is not traced
ES_ENGINES = ("EnsembleEsEngine",)
CREPS_PERIOD = algorithms.LearnerConfig().creps_period
LEARNER_METHODS = ("select", "select_query", "select_greedy", "observe")


def _rows(x) -> int:
    return np.shape(np.atleast_2d(x))[0]


def call_sites():
    """``(owner, attribute, span name, rows)`` for every traced function."""
    sites = [
        (sim, "cannon_rollout", "sim.cannon_rollout", None),
        (sim, "thrower_rollout", "sim.thrower_rollout", None),
        (gp, "fit", "gp.fit", lambda inputs, *a, **k: len(inputs)),
        (gp, "refit", "gp.refit", None),
        (gp, "nlml", "gp.nlml", None),
        (gp, "predict_batch", "gp.predict_batch",
         lambda model, x: _rows(x)),
        (gp, "fit_shared_inputs", "gp.fit_shared_inputs", None),
        (optim, "global_then_local", "optim.global_then_local", None),
        (optim, "lbfgs_refine", "optim.lbfgs_refine", None),
        (algorithms, "reevaluate", "experience.reevaluate",
         lambda store, *a, **k: len(store)),
        (algorithms, "reevaluate_targets", "experience.reevaluate_targets",
         lambda store, fn, targets: len(store) * len(targets)),
        (algorithms, "her_augment", "experience.her_augment", None),
        (experience.ExperienceStore, "append",
         "experience.ExperienceStore.append", None),
        (algorithms, "creps_update", "algorithms.creps_update", None),
        (harness, "run_episode", "algorithms.run_episode", None),
        (harness, "offline_eval", "harness.offline_eval", None),
    ]
    for engine in ES_ENGINES:
        cls = getattr(acquisition, engine)
        sites.append((cls, "__init__", f"acquisition.{engine}.init", None))
        sites.append((cls, "gains", f"acquisition.{engine}.gains",
                      lambda self, queries, *a, **k: _rows(queries)))
    return sites


def traced_sites(tracer: Tracer):
    """``spans.patched`` sites that trace every call site, the learner
    methods included."""
    def traced_learners(make):
        def make_learner(*args, **kwargs):
            learner = make(*args, **kwargs)
            for method in LEARNER_METHODS:
                if hasattr(learner, method):
                    setattr(learner, method, tracer.wrap(
                        f"algorithms.{method}", getattr(learner, method)))
            return learner
        return make_learner

    sites = [(owner, attr, functools.partial(tracer.wrap, name, rows=rows))
             for owner, attr, name, rows in call_sites()]
    return sites + [(harness, "make_learner", traced_learners)]


# The span names whose summed self time shows each workload's reason to
# exist; the traced run reports all three on every workload.
FOCUS = {
    "optim_predict": ("optim.global_then_local", "optim.lbfgs_refine",
                      "gp.predict_batch"),
    "acquisition": tuple(f"acquisition.{e}.{p}" for e in ES_ENGINES
                         for p in ("init", "gains")),
    "thrower_refit": ("sim.thrower_rollout", "gp.refit", "gp.nlml"),
}
WORKLOAD_FOCUS = {"passive-cannon": "optim_predict",
                  "active-cannon": "acquisition",
                  "thrower-online": "thrower_refit"}


TIMES = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
WORK = (("calls", "count"), ("rows", "count"), ("self_s", "s"))
SELF = (("calls", "count"), ("self_s", "s"))


def _per_layer() -> list[tuple[str, str]]:
    groups = [
        ("optim.global_then_local", TIMES), ("optim.lbfgs_refine", TIMES),
        ("gp.predict_batch", WORK), ("experience.reevaluate", WORK),
        ("experience.reevaluate_targets", WORK),
        ("experience.ExperienceStore.append", SELF),
        ("experience.her_augment", SELF), ("gp.fit_shared_inputs", SELF),
        ("gp.refit", SELF), ("gp.nlml", SELF),
        ("sim.cannon_rollout", SELF + (("us_p50", "us"),)),
        ("sim.thrower_rollout", SELF + (("us_p50", "us"),)),
        ("gp.fit", SELF + (("rows_max", "count"),)),
    ]
    for engine in ES_ENGINES:
        groups += [(f"acquisition.{engine}.init", SELF),
                   (f"acquisition.{engine}.gains", SELF + (("queries", "count"),))]
    groups += [(f"algorithms.{m}", TIMES) for m in
               ("select", "select_greedy", "select_query", "observe",
                "creps_update")]
    groups.append(("harness.offline_eval", TIMES))
    metrics = [(f"{base}.{field}", unit) for base, fields in groups
               for field, unit in fields]
    metrics += [("optim.lbfgs_share", "share"),
                ("gp.predict_batch.rows_per_call", "rows/call"),
                ("gp.nlml.calls_per_refit", "calls/refit"),
                ("acquisition.gains.ms_per_query", "ms")]
    metrics += [(f"layer.{layer}.self_share", "share")
                for layer in LAYERS + ("untraced",)]
    metrics += [(f"focus.{f}.self_share", "share") for f in FOCUS]
    return metrics + [("trace.overhead_s", "s"), ("trace.spans", "count")]


# every per-layer metric, in report order, with its unit
PER_LAYER = _per_layer()


def layer_metrics(summary: dict[str, NameStats], spans: list[Span],
                  traced_s: float, overhead_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the spans of one traced round that
    took ``traced_s`` wall seconds."""
    def get(name: str) -> NameStats:
        return summary.get(name, NameStats())

    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("calls", "busy_s", "self_s", "rows", "rows_max"):
            out[name] = getattr(get(base), field)

    durations: dict[str, list[float]] = {}
    lbfgs_in_search = 0.0
    for span in spans:
        if span.name.startswith("sim."):
            durations.setdefault(span.name, []).append(span.duration)
        elif span.name == "optim.lbfgs_refine" and span.parent >= 0 \
                and spans[span.parent].name == "optim.global_then_local":
            lbfgs_in_search += span.duration
    for name in ("sim.cannon_rollout", "sim.thrower_rollout"):
        samples = durations.get(name)
        out[f"{name}.us_p50"] = 1e6 * percentile(samples, 50) if samples else 0.0

    out["optim.lbfgs_share"] = ratio(lbfgs_in_search,
                                     get("optim.global_then_local").busy_s)
    predict = get("gp.predict_batch")
    out["gp.predict_batch.rows_per_call"] = ratio(predict.rows, predict.calls)
    out["gp.nlml.calls_per_refit"] = ratio(get("gp.nlml").calls,
                                           get("gp.refit").calls)
    gains = [get(f"acquisition.{e}.gains") for e in ES_ENGINES]
    for engine, stats in zip(ES_ENGINES, gains):
        out[f"acquisition.{engine}.gains.queries"] = stats.rows
    out["acquisition.gains.ms_per_query"] = 1e3 * ratio(
        sum(g.busy_s for g in gains), sum(g.rows for g in gains))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, stats in summary.items():
        layer_self[name.partition(".")[0]] += stats.self_s
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = ratio(layer_self[layer], traced_s)
    out["layer.untraced.self_share"] = ratio(
        traced_s - sum(layer_self.values()), traced_s)
    for focus, names in FOCUS.items():
        out[f"focus.{focus}.self_share"] = ratio(
            sum(get(n).self_s for n in names), traced_s)
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(spans)
    return out


def focus_check(workload: Workload, metrics: dict[str, float]) -> tuple[bool, str]:
    """Whether the layer group the workload was chosen for takes the largest
    self-time share of the three groups, with the shares as text."""
    shares = {f: metrics[f"focus.{f}.self_share"] for f in FOCUS}
    chosen = WORKLOAD_FOCUS[workload.name]
    text = ", ".join(f"{f} {s:.3f}" for f, s in shares.items())
    return max(shares, key=shares.get) == chosen, text


def expected_calls(workload: Workload) -> dict[str, int]:
    """Call counts that follow from the workload config alone."""
    rollout = ("sim.thrower_rollout" if workload.environment == "thrower"
               else "sim.cannon_rollout")
    counts = dict.fromkeys(
        (rollout, "harness.offline_eval", "algorithms.select",
         "algorithms.select_query", "algorithms.select_greedy",
         "algorithms.observe", "algorithms.run_episode",
         "experience.ExperienceStore.append", "experience.her_augment",
         "algorithms.creps_update"), 0)
    for spec in workload.learners:
        active = spec.algorithm in harness.ACTIVE_ALGORITHMS
        contexts = spec.evaluations * workload.grid_size
        counts[rollout] += spec.episodes + contexts
        counts["harness.offline_eval"] += spec.evaluations
        counts["algorithms.select_greedy"] += contexts
        counts["algorithms.select_query" if active
               else "algorithms.select"] += spec.episodes
        for name in ("algorithms.observe", "algorithms.run_episode",
                     "experience.ExperienceStore.append"):
            counts[name] += spec.episodes
        if spec.algorithm == "bo-fcps-her":
            counts["experience.her_augment"] += spec.episodes
        if spec.algorithm == "c-reps":
            counts["algorithms.creps_update"] += spec.episodes // CREPS_PERIOD
    return counts


def exercised(workload: Workload) -> set[str]:
    """Span names the workload's learners must reach at least once."""
    algos = {spec.algorithm for spec in workload.learners}
    names = set()
    if algos - {"c-reps"}:
        names |= {"gp.fit", "gp.refit", "gp.nlml", "gp.predict_batch",
                  "optim.global_then_local", "optim.lbfgs_refine"}
    if algos & {"bo-fcps", "faces"}:
        names.add("experience.reevaluate")
    if "faces" in algos:
        names |= {"experience.reevaluate_targets", "gp.fit_shared_inputs",
                  "acquisition.EnsembleEsEngine.init",
                  "acquisition.EnsembleEsEngine.gains"}
    return names


def coverage_problems(workload: Workload,
                      summary: dict[str, NameStats]) -> list[str]:
    """Mismatches between traced counts and what the workload implies."""
    problems = []
    for name, want in expected_calls(workload).items():
        got = summary[name].calls if name in summary else 0
        if got != want:
            problems.append(f"{name}: traced {got} calls, workload implies "
                            f"{want}")
    for name in sorted(exercised(workload)):
        if name not in summary:
            problems.append(f"{name}: never traced, but the workload runs it")
    return problems
