"""The shared setup in ``conftest.py`` takes effect: BLAS runs on one
thread, as the acceptance cache and the learner pins were made with."""

import os

import conftest


def test_blas_thread_counts_are_pinned_to_one_before_numpy_loads():
    # a count set after numpy loaded would go unread
    assert not conftest.NUMPY_PRELOADED
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    assert {name: os.environ.get(name) for name in names} == dict.fromkeys(names, "1")
