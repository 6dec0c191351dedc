"""How fast the machine runs right now, and times rescaled by it.

The benchmark shares its CPU with work it does not control, and on a small
virtual machine that CPU's speed swings by a factor of two or three within
seconds and drifts over minutes.  Wall time of the same run then varies far
more than any program change worth measuring.  So the benchmark measures
the swing and takes it out:

- Between two calls of the program, at most every ``SAMPLE_INTERVAL_S``, it
  times two fixed kernels: a loop of dictionary lookups and float
  arithmetic over a few hundred small objects, the interpreter work that
  dominates the program, and a fresh 2 MB anonymous mapping with one write
  per page, which feels what page faults cost right now (the program's
  large numpy temporaries fault in fresh pages too).  The mapping is made
  and dropped with ``mmap`` directly, so neither kernel goes through the
  allocator or the garbage collector the program uses, and their working
  sets are small.
- A sample's speed is the geometric mean of each kernel's reference time
  over its measured time.
- A piece of the run lasting ``d`` wall seconds between samples of speeds
  ``v0`` and ``v1`` counts ``d * (v0 + v1) / 2`` reference seconds: the
  time it would have taken with the machine at the speed where the
  kernels take their reference times.

The kernels' own time is left out of every piece.  Wall times are reported
beside the reference times.

The two kernels were picked by how well their speed follows the program's:
with the same pieces run twice in one process, the ratio of their times in
one-second windows correlated 0.89 (passive-cannon) and 0.90
(active-cannon) with the ratio of this pair's speeds, against 0.80 and
0.76 for the interpreter loop alone and 0.51 and 0.88 for a pass over an
8 MB array.  Rescaling is a product with the machine's speed, so a program
change that adds or removes work moves reference seconds as much as wall
seconds.
"""

from __future__ import annotations

import math
import mmap
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.1
# about each kernel's time between program calls at full speed on a 2-core
# x86-64 VM, so that reference seconds there read about as wall seconds
INTERPRETER_REF_S = 0.25e-3
PAGE_FAULT_REF_S = 1.2e-3
MAPPING_BYTES = 1 << 21

_OBJECTS = [{"index": i, "value": float(i)} for i in range(400)]


def interpreter_kernel() -> float:
    acc = 0.0
    for _ in range(8):
        for obj in _OBJECTS:
            acc += obj["value"] * 2.0 + len(obj)
    return acc


def page_fault_kernel() -> None:
    mapping = mmap.mmap(-1, MAPPING_BYTES)
    for offset in range(0, MAPPING_BYTES, mmap.PAGESIZE):
        mapping[offset] = 1
    mapping.close()


def sample(clock=time.perf_counter) -> float:
    """The machine's speed now, from both kernels' times."""
    started = clock()
    interpreter_kernel()
    between = clock()
    page_fault_kernel()
    ended = clock()
    return math.sqrt(INTERPRETER_REF_S / (between - started)
                     * PAGE_FAULT_REF_S / (ended - between))


def reference_seconds(starts, ends, sample_times, speeds) -> np.ndarray:
    """Reference seconds of each piece ``[starts[i], ends[i]]``, from the
    speed samples taken at ``sample_times`` (sorted) around it.

    A piece takes the mean of the last sample at or before its start and
    the first at or after its end; pieces beyond the first or last sample
    take that sample's speed.
    """
    starts, ends = np.asarray(starts, float), np.asarray(ends, float)
    sample_times = np.asarray(sample_times, float)
    speeds = np.asarray(speeds, float)
    last = len(speeds) - 1
    before = np.clip(np.searchsorted(sample_times, starts, "right") - 1,
                     0, last)
    after = np.clip(np.searchsorted(sample_times, ends, "left"), 0, last)
    return (ends - starts) * 0.5 * (speeds[before] + speeds[after])
