import subprocess
import sys
import threading

import numpy as np
import pytest

from bergman11 import operators, parts, quadrature
from bergman11.quadrature import QuadratureGrid, integrate
from bergman11.weights import WeightParam


def test_parts_are_capped_at_the_measured_count(monkeypatch):
    # a 64-CPU host still walks a grid, and fills a large matrix, in two
    # parts: one helper thread per call
    monkeypatch.setattr(parts.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert parts.workers() == parts.MAX_PARTS == 2
    grid = QuadratureGrid(WeightParam(0.0), 1024, 4096)
    before = threading.active_count()
    seen = []

    def record(z):
        seen.append(threading.active_count())
        return np.ones_like(z)

    assert integrate(record, grid) == pytest.approx(1.0, abs=1e-12)
    assert len(seen) == len(quadrature._blocks(grid, grid.angular_points)) > 2
    assert max(seen) <= before + 1
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(parts.threading, "Thread", Counted)
    n = 2048
    dense = operators.TriDiag(np.ones(n, complex), np.ones(n + 1), np.ones(n, complex)).to_dense()
    assert dense.nbytes // operators.PART_BYTES > 2 and len(started) == 1
    monkeypatch.setattr(parts.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parts.workers() == 1
    monkeypatch.delattr(parts.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(parts.os, "cpu_count", lambda: 64)
    assert parts.workers() == 2


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
