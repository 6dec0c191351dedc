"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload passive-cannon --seed 0 \\
        --seconds 25 --trace 0

Run from the root of a source checkout: the program under test is imported
from ``src/`` there, and nothing else is read.  With ``--trace 0`` the run
makes one or more identical rounds of the workload and reports the
end-to-end metrics, each the median over the rounds; with ``--trace 1`` it
runs the workload once untraced and once traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the rewards, the checks and the
provenance.  Details and the spans of a traced run go to ``.bench_out/`` in
the checkout.

The end-to-end times of a round are reference seconds: wall time with the
machine's speed swings taken out (see ``speed``).  The wall times are
printed beside them.  ``setup_s`` and the per-layer times are wall seconds.

``reference.json`` beside this file holds, for some seeds, a digest of the
reward bits of every learner run; a run at one of those seeds is correct
only if its rewards repeat them exactly.  A change that alters result bits
on purpose replaces those entries with the digests its runs print.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

# Modules that import numpy or fcps are imported inside the functions, after
# load_program() has pinned the BLAS threads and put src/ on the path.

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# one BLAS thread: steadier timings, and the figure every result records
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
MIN_ROUNDS = 1

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("episodes_per_s", "1/s"),
    ("eval_contexts_per_s", "1/s"),
    ("select_ms.p50", "ms"),
    ("select_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure about this long: one round per "
                             "nominal round time of the workload, at "
                             f"least {MIN_ROUNDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Make the checkout's ``src/fcps`` importable, or exit with an error."""
    src = ROOT / "src"
    if not (src / "fcps" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fcps sources under {src}; run from a "
                 f"checkout of the repository")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import fcps
    if Path(fcps.__file__).resolve().parent != src / "fcps":
        sys.exit(f"perfbench: imported fcps from {fcps.__file__}, not {src}")


def setup_probe(workload, seed: int) -> None:
    """Import, build the task and grid, construct every learner: the work a
    run does before its first episode."""
    import learner_runs
    from fcps import harness
    for spec in workload.learners:
        config = learner_runs.experiment_config(workload, spec, seed)
        environment = harness.build_environment(config)
        harness.evaluation_grid(environment, config.grid_shape)
        harness.make_learner(config.learner, environment.target_space,
                             environment.env_space, environment.theta_space,
                             environment.reward_fn)


def measure_setup(args) -> list[float]:
    """Wall seconds of fresh processes that set up and stop."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                       timeout=120)
        times.append(time.perf_counter() - started)
    return times


def run_rounds(workload, seed: int, count: int):
    """``count`` rounds of the workload, one after the other."""
    import learner_runs
    return [learner_runs.run_round(workload, seed) for _ in range(count)]


def round_count(workload, seconds: float) -> int:
    """Rounds a run of ``seconds`` makes: fixed by the workload's nominal
    round time, not by how fast this run happens to go."""
    return max(MIN_ROUNDS, int(seconds // workload.round_s))


def rewards_in_range(rnd) -> bool:
    """Every reward the tasks define is a negated distance or norm, minus a
    speed penalty, so none can be positive."""
    return all(v <= 0.0 for r in rnd.runs for v in r.online + r.offline
               if not math.isnan(v))


def selection_latency(select_ms: dict[str, list[float]]):
    """The median and tail selection latency, each the mean over the
    learners of that learner's own figure, and notes naming what was used.

    Each learner's latencies cluster around its own level, so a percentile
    of all learners' latencies pooled would jump between the clusters."""
    from statistics import mean
    from stats import percentile, tail_percentile
    if not select_ms:  # every learner run failed before its warm start ended
        return 0.0, 0.0, "no model-based selections"
    tails = {a: tail_percentile(ms) for a, ms in select_ms.items()}
    note = ", ".join(f"{a}: p{pct:g} of {n}" for a, (pct, _, n)
                     in tails.items())
    return (mean(percentile(ms, 50) for ms in select_ms.values()),
            mean(t[1] for t in tails.values()), note)


def end_to_end_metrics(rounds, setup_times):
    from statistics import median
    from learner_runs import reference_times
    from stats import ratio
    timed = [reference_times(r) for r in rounds]
    latency = [selection_latency(t.select_ms) for t in timed]
    metrics = {
        "setup_s": median(setup_times),
        "run_s": median(t.run_s for t in timed),
        "episodes_per_s": median(ratio(t.episodes, t.online_s)
                                 for t in timed),
        "eval_contexts_per_s": median(ratio(t.contexts, t.eval_s)
                                      for t in timed),
        "select_ms.p50": median(p50 for p50, _, _ in latency),
        "select_ms.tail": median(tail for _, tail, _ in latency),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"select_ms.tail": "mean over learners of the highest percentile "
                               "with >=10 selections beyond it ("
                               + latency[0][2] + ")",
             "select_ms.p50": "mean over learners of the median selection",
             "run_s": "wall time of the rounds: " + ", ".join(
                 f"{r.wall_s:.3f} s" for r in rounds)}
    return metrics, notes


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_round(workload, seed):
    """One round with every call site traced."""
    import learner_runs
    import layers
    from spans import Tracer, patched
    tracer = Tracer()
    with patched(layers.traced_sites(tracer)):
        rnd = learner_runs.run_round(workload, seed)
    return rnd, tracer.spans()


def check_reference(workload, seed: int, rounds, checks, report) -> None:
    """Compare every round's reward digests with the recorded ones."""
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8")) \
        .get(workload.name, {}).get(str(seed))
    if recorded is None:
        report.append(f"reference: seed {seed} is not recorded for "
                      f"{workload.name}; the exact-reward check does not "
                      f"apply")
        return
    checks[f"rewards repeat the recorded reference (seed {seed})"] = all(
        r.digests() == recorded for r in rounds)


def provenance(workload, seed: int) -> dict:
    import hashlib
    import platform
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy without the dict form
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    return {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(), "platform": platform.platform(),
        "git_sha": git_sha, "src_sha256": digest.hexdigest(),
    }


def trace_layers(workload, seed, rounds, checks, report):
    """Run one traced round after the untraced ones; add its checks and
    report lines, and return the per-layer metrics."""
    import layers
    from spans import summarize, write_spans
    rnd, spans = traced_round(workload, seed)
    summary = summarize(spans)
    metrics = layers.layer_metrics(summary, spans, rnd.wall_s,
                                   rnd.wall_s - rounds[0].wall_s)
    checks["trace equivalence (traced rewards == untraced)"] = \
        rnd.digests() == rounds[0].digests()
    rounds.append(rnd)
    if rnd.failed:
        report.append("  coverage: not checked, a learner run failed")
    else:
        problems = layers.coverage_problems(workload, summary)
        checks["tracer coverage (counts match the workload)"] = not problems
        report += [f"  coverage: {p}" for p in problems]
    focused, shares = layers.focus_check(workload, metrics)
    report.append(f"focus: {layers.WORKLOAD_FOCUS[workload.name]} "
                  f"{'takes' if focused else 'does NOT take'} the largest "
                  f"self-time share ({shares})")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz"
    write_spans(spans, path)
    report.append(f"spans: {len(spans)} written to {path}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    load_program()
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    import layers
    from stats import ratio

    setup_times = [] if args.trace else measure_setup(args)
    count = 1 if args.trace else round_count(workload, args.seconds)
    rounds = run_rounds(workload, args.seed, count)
    checks = {"rewards within their range":
              all(rewards_in_range(r) for r in rounds)}
    if count > 1:
        checks["rounds repeat (same rewards, same pieces)"] = all(
            r.digests() == rounds[0].digests()
            and r.pieces() == rounds[0].pieces() for r in rounds[1:])
    report = [f"perfbench {workload.name} seed {args.seed}: "
              f"{count} untraced round(s)"]
    detail = {"provenance": provenance(workload, args.seed),
              "rounds_s": [r.wall_s for r in rounds]}
    if args.trace:
        metrics = trace_layers(workload, args.seed, rounds, checks, report)
        units = dict(layers.PER_LAYER)
        notes = {}
    else:
        metrics, notes = end_to_end_metrics(rounds, setup_times)
        units = dict(END_TO_END)
        detail["setup_probes_s"] = setup_times

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    report += [f"  {name:<48} {metrics[name]:.6g} {unit}"
               for name, unit in units.items()]
    report += [f"    ({name}: {note})" for name, note in notes.items()]
    report.append(f"  {'ops_failed_ratio':<48} "
                  f"{ratio(failed, attempted):.6g} ({failed} failed of "
                  f"{attempted} episodes + evaluation contexts)")
    offline = {}
    for run in rounds[0].runs:
        final = run.offline[-1] if run.offline and not run.error else None
        offline[f"offline_reward.{run.algorithm}"] = final
        report.append(f"  {'offline_reward.' + run.algorithm:<48} "
                      f"{final!r} reward"
                      + (f"  [failed: {run.error}]" if run.error else ""))
    check_reference(workload, args.seed, rounds, checks, report)
    report += [f"  digest.{name:<41} {value}"
               for name, value in rounds[0].digests().items()]
    report += [f"check {name}: {'ok' if ok else 'FAILED'}"
               for name, ok in checks.items()]

    detail.update(metrics=metrics, units=units, notes=notes, checks=checks,
                  offline_rewards=offline, attempted=attempted, failed=failed,
                  digests=rounds[0].digests(),
                  rewards={r.algorithm: {"online": r.online,
                                         "offline": r.offline}
                           for r in rounds[0].runs})
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = (OUT_DIR / f"result-{workload.name}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    detail_path.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    report.append(f"provenance: {json.dumps(detail['provenance'])}")
    report.append(f"detail: {detail_path}")
    print("\n".join(report))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
