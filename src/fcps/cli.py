"""Command line front end: run experiments, compare algorithms, replay runs."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import algorithms, harness
from .errors import ContractError, NumericalError


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON experiment config (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory")
    parser.add_argument("--algo", type=str, default=None,
                        help="override the algorithm tag")
    parser.add_argument("--episodes", type=int, default=None,
                        help="override the episode budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcps",
        description="Contextual policy search experiments on simulated tasks.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one algorithm over all seeds")
    study_p = sub.add_parser("study", help="run the comparison set")
    replay_p = sub.add_parser("replay",
                              help="re-execute a runs.json and verify it")
    _add_common_flags(run_p)
    _add_common_flags(study_p)
    replay_p.add_argument("--config", type=Path, required=True,
                          help="path to a previously emitted runs.json")
    return parser


def _load_with_overrides(args) -> harness.ExperimentConfig:
    # the overrides go into the config's fields before it is built, so a
    # file whose own tag is refused on its environment runs under --algo
    data = {}
    if args.config is not None:
        data = json.loads(args.config.read_text(encoding="utf-8"))
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.episodes is not None:
        data["episodes"] = args.episodes
    if args.algo is not None:
        data["learner"] = {**data.get("learner", {}), "algorithm": args.algo}
    return harness.config_from_dict(data)


def _cmd_run(args) -> int:
    config = _load_with_overrides(args)
    result = harness.run(config, partial_dir=args.out)
    paths = harness.emit([(config, result)], args.out)
    print(json.dumps({"command": "run", "algorithm": config.algorithm,
                      "episodes": config.episodes,
                      "seeds": list(config.seeds),
                      "files": [str(p) for p in paths]}))
    return 0


def _cmd_study(args) -> int:
    config = _load_with_overrides(args)
    if config.algorithms is None:
        # bare study invocations compare the full passive set, or the active
        # pair on the active cannon, which refuses hindsight relabels
        passive = ("c-reps", "bo-cps", "bo-fcps-her", "bo-fcps")
        config = replace(config, algorithms=algorithms.ACTIVE_ALGORITHMS if
                         config.environment == "active-cannon" else passive)
    results = harness.study(config)
    paths = harness.emit(results, args.out)
    print(json.dumps({"command": "study",
                      "algorithms": [c.algorithm for c, _ in results],
                      "episodes": config.episodes,
                      "files": [str(p) for p in paths]}))
    return 0


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two arrays hold the same values bit for bit: unlike ``==``,
    -0.0 differs from 0.0 and NaN matches NaN."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _cmd_replay(args) -> int:
    saved = harness.load_results(args.config)
    all_match = True
    report = []
    for config, stored in saved:
        fresh = harness.run(config)
        match = (_same_bits(fresh.online_rewards, stored.online_rewards)
                 and _same_bits(fresh.offline_rewards, stored.offline_rewards))
        all_match &= match
        report.append({"algorithm": config.algorithm, "match": match})
    print(json.dumps({"command": "replay", "match": all_match,
                      "runs": report}))
    return 0 if all_match else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "study": _cmd_study, "replay": _cmd_replay}
    try:
        return handlers[args.command](args)
    except (ContractError, NumericalError) as err:
        print(json.dumps({"error": str(err), "kind": type(err).__name__}),
              file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as err:
        print(json.dumps({"error": str(err), "kind": type(err).__name__}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
