"""BLAS runs on one thread, as the acceptance cache and the learner pins were
made with: ``import fcps`` sets the three thread counts before numpy loads,
keeps a count the caller set, and warns when numpy loaded first.  The
shared setup in ``conftest.py`` imports ``fcps`` before numpy for that."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcps
from fcps.algorithms import LearnerConfig
from fcps.harness import ExperimentConfig, emit, run

SRC = Path(fcps.__file__).resolve().parent.parent


def unpinned_python(args, env=None):
    """Run a fresh interpreter on ``args`` with ``fcps`` importable and none
    of the three thread counts in its environment but those in ``env``."""
    clean = {k: v for k, v in os.environ.items() if k not in fcps.THREAD_VARS}
    clean["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), clean.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env={**clean, **(env or {})},
                          capture_output=True, text=True, timeout=300)


def test_blas_thread_counts_are_pinned_to_one_before_numpy_loads():
    # sys.modules keeps import order: a count set after numpy loaded goes unread
    loaded = list(sys.modules)
    assert loaded.index("fcps") < loaded.index("numpy")
    assert {name: os.environ.get(name) for name in fcps.THREAD_VARS} \
        == dict.fromkeys(fcps.THREAD_VARS, "1")


@pytest.mark.parametrize("imports, env, warned, counts", [
    ("import numpy; import fcps", {}, ["<string>"], ["1", "1", "1"]),
    ("import fcps; import numpy", {}, [], ["1", "1", "1"]),
    ("import fcps", {"OPENBLAS_NUM_THREADS": "2"}, [], ["2", "1", "1"]),
])
def test_import_pins_one_thread_keeps_a_chosen_count_and_warns_after_numpy(
        imports, env, warned, counts):
    code = ("import json, os, warnings\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            f"    {imports}\n"
            "print(json.dumps({'warned': [w.filename for w in caught\n"
            "                             if w.category is RuntimeWarning],\n"
            "                  'counts': [os.environ.get(v) for v in fcps.THREAD_VARS]}))")
    done = unpinned_python(["-c", code], env)
    assert done.returncode == 0, done.stderr
    # the one warning points at the line that imported fcps
    assert json.loads(done.stdout) == {"warned": warned, "counts": counts}


def test_replay_from_a_shell_without_thread_counts_repeats_the_bits(tmp_path):
    # made here, at one thread; 70 episodes of bo-fcps-her reach far enough
    # that a multi-core BLAS pool changes an online reward
    config = ExperimentConfig(environment="cannon", episodes=70,
                              evaluation_period=71, seeds=(0,),
                              learner=LearnerConfig(algorithm="bo-fcps-her"))
    emit([(config, run(config))], tmp_path)
    done = unpinned_python(["-m", "fcps.cli", "replay", "--config",
                            str(tmp_path / "runs.json")])
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout)["match"] is True
