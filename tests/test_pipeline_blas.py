"""One BLAS thread per solve, and no scipy on the solve path.

`nessfold.pipeline.solve` pins numpy's OpenBLAS to one thread while it runs and
restores the count it found. Cases that read the count skip when numpy does not
link an OpenBLAS whose get/set functions the pipeline could find.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import nessfold
from nessfold import pipeline
from nessfold.exceptions import NonUniqueNess
from nessfold.model import EndBathParams, KitaevParams
from nessfold.pipeline import one_blas_thread, solve_end_bath

BATHS = EndBathParams(gamma11=0.0, gamma21=1.0, gamma12=0.0, gamma22=1.0)
POINT = KitaevParams(N=4, w=0.5, mu=2.0, delta=1.0)


@pytest.fixture
def blas():
    """(get, set) of numpy's OpenBLAS thread count, restored after the test."""
    if pipeline._BLAS_THREADS is None:
        pytest.skip("numpy.linalg does not link an OpenBLAS with get/set_num_threads")
    get, put = pipeline._BLAS_THREADS
    found = get()
    yield get, put
    put(found)


@pytest.mark.parametrize("before", [1, 2])
def test_solve_runs_on_one_thread_and_restores_the_count(blas, monkeypatch, before):
    get, put = blas
    put(before)
    fold, seen = pipeline.fold, []

    def recording(*args, **kwargs):
        seen.append(get())
        return fold(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fold", recording)
    solve_end_bath(POINT, BATHS)
    assert seen == [1]
    assert get() == before


def test_raising_solve_restores_the_count(blas):
    get, put = blas
    put(2)
    with pytest.raises(NonUniqueNess):
        solve_end_bath(KitaevParams(N=4, w=1.0, mu=0.0, delta=1.0), BATHS)
    assert get() == 2


def test_nested_pins_restore_the_outer_count(blas):
    get, put = blas
    put(2)
    with one_blas_thread():
        with one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_concurrent_pins_restore_the_outer_count(blas):
    """More threads than cores enter and leave the pin; a lost depth update would
    let one thread restore the count while another is still inside."""
    get, put = blas
    put(2)
    inside_counts, start = [], threading.Barrier(4)

    def worker():
        start.wait(timeout=10)
        for _ in range(200):
            with one_blas_thread():
                time.sleep(0)  # let another thread enter or leave while this one is inside
                inside_counts.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(inside_counts) == 800
    assert set(inside_counts) == {1}
    assert pipeline._pin_depth == 0
    assert get() == 2


def test_solve_without_an_openblas_handle(monkeypatch):
    pinned = solve_end_bath(POINT, BATHS).report
    monkeypatch.setattr(pipeline, "_BLAS_THREADS", None)
    unpinned = solve_end_bath(POINT, BATHS).report
    np.testing.assert_allclose(unpinned.eec, pinned.eec, rtol=1e-12)
    np.testing.assert_allclose(unpinned.occupancy, pinned.occupancy, rtol=0, atol=1e-13)


_SOLVES = {
    "library": (
        "from nessfold import EndBathParams, KitaevParams, solve_end_bath\n"
        "solve_end_bath(KitaevParams(N=2, w=0.5, mu=2.0, delta=1.0),\n"
        "               EndBathParams(gamma11=0.0, gamma21=1.0, gamma12=0.0, gamma22=1.0))\n"
    ),
    "cli": "from nessfold.cli import main\nassert main(['ness', '--N', '3']) == 0\n",
}


@pytest.mark.parametrize("solve", _SOLVES.values(), ids=_SOLVES.keys())
def test_solving_loads_no_scipy(solve):
    src = str(Path(nessfold.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = solve + (
        "import sys\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
