import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from bergman11 import parts


def test_parts_are_capped_at_the_measured_count(monkeypatch):
    # a 64-CPU host still runs two parts: one helper thread per call
    monkeypatch.setattr(parts.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert parts.workers() == parts.MAX_PARTS == 2
    seen = []
    parts.run(lambda start, stop: seen.append((start, stop)), 100, 100)
    assert sorted(seen) == [(0, 50), (50, 100)]
    monkeypatch.setattr(parts.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parts.workers() == 1
    monkeypatch.delattr(parts.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(parts.os, "cpu_count", lambda: 64)
    assert parts.workers() == 2


# (n, most): fewer rows than workers, a cap of zero (one part), a cap below,
# at and above the workers, and ragged splits of 100 and 1000 rows
@pytest.mark.parametrize("n, most", [(1, 5), (2, 5), (10, 0), (10, 1), (10, 2), (100, 3), (1000, 7), (37, 100)])
def test_parts_are_contiguous_ranges_and_the_first_runs_in_the_caller(n, most, pin_workers):
    # the thread objects, not their idents, which a later helper may reuse
    caller = threading.current_thread()
    for workers in (1, 2, 3, 7):
        pin_workers(workers)
        count = max(1, min(workers, most, n))
        seen = {}
        parts.run(lambda start, stop: seen.setdefault((start, stop), threading.current_thread()), n, most)
        assert sorted(seen) == [(k * n // count, (k + 1) * n // count) for k in range(count)]
        threads = [seen[bounds] for bounds in sorted(seen)]
        assert threads[0] is caller and len(set(threads)) == count


class Failure(Exception):
    pass


@pytest.mark.parametrize(
    "delays, failing",
    [((0.0, 0.06, 0.03), (1, 2)), ((0.06, 0.0, 0.03), (0, 1, 2)), ((0.0, 0.06, 0.03), (0,))],
    ids=["helpers_fail_the_later_part_first", "the_caller_fails_last", "the_caller_fails_first"],
)
def test_errors_are_raised_in_part_order_after_every_join(delays, failing, pin_workers):
    # three parts of one row each, part k after delays[k]: the first error in
    # part order is raised, not the first to happen, and only once every
    # part has finished and no helper thread is left
    pin_workers(3)
    finished = []

    def work(start, stop):
        time.sleep(delays[start])
        finished.append(start)
        if start in failing:
            raise Failure(start)

    before = threading.active_count()
    with pytest.raises(Failure) as err:
        parts.run(work, 3, 3)
    assert err.value.args == (failing[0],)
    assert sorted(finished) == [0, 1, 2] and threading.active_count() == before


def test_helpers_run_under_the_callers_errstate(pin_workers):
    # tier-1 turns RuntimeWarnings into errors, so a helper that ignored the
    # caller's np.errstate would raise on the division
    pin_workers(3)
    seen = []

    def divide(start, stop):
        seen.append(np.geterr()["divide"])
        np.divide(1.0, np.zeros(stop - start))

    with np.errstate(divide="ignore"):
        parts.run(divide, 3, 3)
    assert seen == ["ignore"] * 3
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        parts.run(divide, 3, 3)


def test_walk_imports_no_executor():
    # concurrent.futures costs milliseconds of import (logging); the runner
    # uses threading, which numpy has loaded already.  Both callers split:
    # the grid has several blocks, and the 1101 x 1101 matrix (19 MB) is two
    # parts of at least PART_BYTES
    code = (
        "import sys, numpy as np; from bergman11 import operators as o, parts, quadrature as q; "
        "from bergman11.weights import WeightParam; parts.workers = lambda: 2; "
        "q.integrate(lambda z: np.ones_like(z), q.QuadratureGrid(WeightParam(0.0), 100, 1000)); "
        "o.gram_matrix(o.FirstOrderOp([1.0, 2.0], [0.5]), WeightParam(0.0), 1100); "
        "print('concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
