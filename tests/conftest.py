import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from bergman11 import parts

REFERENCE = Path(__file__).with_name("log_norms_reference.json")


@pytest.fixture(scope="session")
def log_norms_ref():
    """xi -> (k, L_k): the 40-digit table of L_k = log k! - log (xi+2)_k
    written by make_reference.py, rounded to doubles."""
    table = json.loads(REFERENCE.read_text())["log_norms"]
    return {float(xi): (np.array(row["k"]), np.array([float(v) for v in row["L"]])) for xi, row in table.items()}


@pytest.fixture
def pin_workers(monkeypatch):
    """pin_workers(count) has ``parts.run`` see ``count`` CPUs."""

    def pin(count):
        monkeypatch.setattr(parts, "workers", lambda: count)

    return pin


@pytest.fixture
def switch_often():
    """Hand the interpreter lock between threads as often as it allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.fixture
def thread_starts(monkeypatch):
    """The list of threads that ``parts.run`` starts from now on."""
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(parts.threading, "Thread", Counted)
    return starts
