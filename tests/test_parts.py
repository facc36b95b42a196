import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from bergman11 import parts


def test_parts_are_capped_at_the_measured_count(monkeypatch):
    # 64 CPUs run two halves and one CPU one part; without the affinity call
    # the CPUs are counted
    for cpus, expected in ((range(64), [(0, 50), (50, 100)]), ({0}, [(0, 100)])):
        monkeypatch.setattr(parts.os, "sched_getaffinity", lambda pid, cpus=cpus: set(cpus), raising=False)
        seen = []
        parts.run(lambda start, stop: seen.append((start, stop)), 100, True)
        assert parts.workers() == len(cpus) and sorted(seen) == expected
    monkeypatch.delattr(parts.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(parts.os, "cpu_count", lambda: 64)
    assert parts.workers() == 64


# (n, split): one row, which never splits, the smallest split, no split, an
# even and a ragged split; the ids are the (n, most) of the part-count runner
@pytest.mark.parametrize(
    "n, split", [(1, True), (2, True), (10, False), (10, True), (37, True)], ids=["1-5", "2-5", "10-0", "10-2", "37-100"]
)
def test_parts_are_contiguous_ranges_and_the_first_runs_in_the_caller(n, split, pin_workers, thread_starts):
    # the thread objects, not their idents, which a later helper may reuse
    caller = threading.current_thread()
    for workers in (1, 2, 64):
        pin_workers(workers)
        halves = split and n > 1 and workers > 1
        seen = {}
        thread_starts.clear()
        parts.run(lambda start, stop: seen.setdefault((start, stop), threading.current_thread()), n, split)
        assert sorted(seen) == ([(0, n // 2), (n // 2, n)] if halves else [(0, n)])
        assert [seen[bounds] for bounds in sorted(seen)] == [caller, *thread_starts] and len(thread_starts) == halves


class Failure(Exception):
    pass


# half k is row k, run after delays[k]; the ids are those of the three-part cases
@pytest.mark.parametrize(
    "delays, failing",
    [((0.06, 0.0), (1,)), ((0.06, 0.0), (0, 1)), ((0.0, 0.06), (0,))],
    ids=["helpers_fail_the_later_part_first", "the_caller_fails_last", "the_caller_fails_first"],
)
def test_errors_are_raised_in_part_order_after_every_join(delays, failing, pin_workers):
    # only the helper fails; the helper fails first and the caller's later
    # error wins; only the caller fails, first.  Each is raised once both
    # halves have finished and no helper is left
    pin_workers(2)
    finished = []

    def work(start, stop):
        time.sleep(delays[start])
        finished.append(start)
        if start in failing:
            raise Failure(start)

    before = threading.active_count()
    with pytest.raises(Failure) as err:
        parts.run(work, 2, True)
    assert err.value.args == (failing[0],)
    assert sorted(finished) == [0, 1] and threading.active_count() == before


def test_helpers_run_under_the_callers_errstate(pin_workers):
    # tier-1 turns RuntimeWarnings into errors, so a helper that ignored the
    # caller's np.errstate would raise on the division
    pin_workers(2)
    seen = []

    def divide(start, stop):
        seen.append(np.geterr()["divide"])
        np.divide(1.0, np.zeros(stop - start))

    with np.errstate(divide="ignore"):
        parts.run(divide, 2, True)
    assert seen == ["ignore"] * 2
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        parts.run(divide, 2, True)


def test_parts_is_the_one_thread_runner():
    pattern = re.compile(r"\b(threading|concurrent\.futures|multiprocessing)\b")
    modules = sorted(Path(parts.__file__).parent.glob("*.py"))
    assert [path.name for path in modules if pattern.search(path.read_text())] == ["parts.py"]


def test_walk_imports_no_executor():
    # concurrent.futures costs milliseconds of import (logging); the runner
    # uses threading, which numpy has loaded already.  Both callers split:
    # the grid has several blocks, and the 1101 x 1101 matrix (19 MB) is at
    # least twice PART_BYTES
    code = (
        "import sys, numpy as np; from bergman11 import operators as o, parts, quadrature as q; "
        "from bergman11.weights import WeightParam; parts.workers = lambda: 2; "
        "q.integrate(lambda z: np.ones_like(z), q.QuadratureGrid(WeightParam(0.0), 100, 1000)); "
        "o.gram_matrix(o.FirstOrderOp([1.0, 2.0], [0.5]), WeightParam(0.0), 1100); "
        "print('concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
