"""The three benchmark workloads: inputs drawn from a seed, one op, its gate.

Each workload is a closed loop with one client: the next op starts only after
the previous one has returned and been checked.  An op's outcome is one of

* ``OK``     -- the op returned and passed its correctness gate;
* ``FAILED`` -- the program reported a failure itself (non-zero exit code, a
  report with ``passed: false``, or a raised exception);
* ``WRONG``  -- the program handed back an output that it presents as good but
  that the gate shows to be wrong (or a report that contradicts its exit code).

``FAILED`` and ``WRONG`` both count in ``failed``; only ``WRONG`` makes a run
``correct: false``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

OK, FAILED, WRONG = "ok", "failed", "wrong"

OPERATOR_REL_TOL = 1e-10  # commutator vs bracket Gram, tridiagonal vs Gram, Hermiticity
DISC_REL_TOL = 1e-6  # the default tol_quad of ``verify``
VERIFY_TIMEOUT_S = 120.0
XI_LO, XI_HI = -0.5, 3.0  # xi is drawn from (XI_LO, XI_HI]
WARMUP_INDEX = 2**31 - 1  # op index whose input is reserved for the warm-up op


def _op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _draw_xi(rng) -> float:
    return XI_HI - (XI_HI - XI_LO) * float(rng.random())


class _Workload:
    sizes = (None,)

    @property
    def cycle(self) -> int:
        return len(self.sizes)

    def _size(self, index: int):
        """Sizes cycle with the op index; the warm-up op takes the smallest."""
        return self.sizes[0 if index == WARMUP_INDEX else index % self.cycle]

    def setup(self, seed: int) -> None:
        """One untimed warm-up op; its first call also imports the program."""
        self.run(self.make_input(seed, WARMUP_INDEX))


class VerifyCli(_Workload):
    """``python -m bergman11.cli verify`` at its defaults, as a subprocess per op.

    Every timed op is the same command, the one a user types: all 7 suites at
    the default seed, xi, trunc and quad.  With a random ``--seed`` about one
    ``verify`` in seven fails today (see ``bench/NOTES.md``); those seeds are
    counted by ``survey``, which draws its seeds from the workload seed.
    """

    name = "verify_cli"
    survey_size = 20

    def __init__(self, root: Path, child_env: dict):
        self.root = root
        self.child_env = child_env

    def make_input(self, seed: int, index: int) -> tuple:
        return ("verify",)

    def survey_input(self, seed: int, index: int) -> tuple:
        return ("verify", "--seed", str(int(_op_rng(seed, index).integers(0, 2**31))))

    def run(self, argv: tuple):
        """Return (exit code, stdout, stderr); exit code None on a timeout."""
        try:
            p = subprocess.run(
                [sys.executable, "-m", "bergman11.cli", *argv],
                cwd=self.root,
                env=self.child_env,
                capture_output=True,
                timeout=VERIFY_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, b"", b""
        return p.returncode, p.stdout, p.stderr

    def run_inprocess(self, argv: tuple):
        """The same op through ``bergman11.cli.main`` in this process."""
        import bergman11.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bergman11.cli.main(list(argv))
        return code, out.getvalue().encode(), err.getvalue().encode()

    def survey(self, seed: int) -> list:
        """Gate outcomes of ``verify --seed s_j`` in this process for
        ``survey_size`` seeds drawn from ``seed``; none is skipped."""
        argvs = [self.survey_input(seed, j) for j in range(self.survey_size)]
        return [self.gate(a, self.run_inprocess(a)) for a in argvs]

    @staticmethod
    def gate(argv: tuple, output) -> tuple:
        """Pass iff exit 0, the report parses and says ``passed: true``.

        A failure's detail names the failed checks, or the error line with its
        numbers masked, so that failures of one kind count together.
        """
        code, stdout, stderr = output
        try:
            report = json.loads(stdout)
            passed = report["passed"]
        except (ValueError, KeyError, TypeError):
            report, passed = None, None
        if code == 0:
            return (OK, "") if passed is True else (WRONG, "exit 0 without a passing report")
        if code == 1 and passed is not False:
            return WRONG, "exit 1 without a failing report"
        if code is None:
            return FAILED, "timeout"
        if report is not None:
            # a check's ``passed`` is written as the string "True"/"False" when
            # the check computed a numpy bool
            failed = [
                f"{suite}/{c['name']}"
                for suite, checks in report["suites"].items()
                for c in checks
                if c["passed"] not in (True, "True")
            ]
            return FAILED, f"exit {code}: {' '.join(failed)}"
        line = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return FAILED, f"exit {code}: " + re.sub(r"\d[\d.e+-]*", "N", line[0])


def _blockwise_max_abs(a, b=None, rows: int = 256) -> float:
    """max|a - b| (or max|a|) in row blocks, so the gate adds little memory."""
    worst = 0.0
    for i in range(0, a.shape[0], rows):
        block = a[i : i + rows] if b is None else a[i : i + rows] - b[i : i + rows]
        worst = max(worst, float(np.max(np.abs(block))))
    return worst


def _hermiticity_defect(m, rows: int = 256) -> float:
    worst = 0.0
    for i in range(0, m.shape[0], rows):
        worst = max(worst, float(np.max(np.abs(m[i : i + rows] - m[:, i : i + rows].conj().T))))
    return worst


class OperatorScale(_Workload):
    """Commutator, bracket Gram and tridiagonal-vs-Gram jobs at large N."""

    name = "operator_scale"
    sizes = (128, 512, 2048)

    def make_input(self, seed: int, index: int) -> dict:
        rng = _op_rng(seed, index)
        n = self._size(index)
        xi = _draw_xi(rng)
        u, v = [(float(rng.normal()), complex(rng.normal(), rng.normal())) for _ in range(2)]
        form = (complex(rng.normal(), rng.normal()), float(rng.normal()), float(rng.normal()))
        return {"n": n, "xi": xi, "u": u, "v": v, "form": form}

    @staticmethod
    def run(inp: dict):
        from bergman11 import operators as ops
        from bergman11.su11 import LieElement
        from bergman11.weights import WeightParam

        wp = WeightParam(inp["xi"])
        n = inp["n"]
        u, v = LieElement(*inp["u"]), LieElement(*inp["v"])
        comm = ops.commutator_matrix(ops.derived_op(u, wp), ops.derived_op(v, wp), wp, n)
        bracket = ops.gram_matrix(ops.bracket_op(u, v, wp), wp, n)
        form = ops.SymmetricForm(*inp["form"], wp)
        tri = ops.symmetric_tridiagonal(form, n).to_dense()
        gram = ops.gram_matrix(form.to_operator(), wp, n)
        return comm, bracket, tri, gram

    @staticmethod
    def gate(inp: dict, output) -> tuple:
        comm, bracket, tri, gram = output
        n = inp["n"] + 1
        if any(m.shape != (n, n) for m in output):
            return WRONG, "matrix shape"
        scale_b = _blockwise_max_abs(bracket)
        scale_g = _blockwise_max_abs(gram)
        margins = {
            "commutator": _blockwise_max_abs(comm, bracket) / scale_b,
            "tridiagonal": _blockwise_max_abs(tri, gram) / scale_g,
            "hermiticity": _hermiticity_defect(gram) / scale_g,
        }
        bad = [k for k, m in margins.items() if not m <= OPERATOR_REL_TOL]
        return (WRONG, f"{bad} {margins}") if bad else (OK, "")


class DiscOracleScale(_Workload):
    """A fresh Gauss-Jacobi disc grid per op, |f|^2 integral and reproduce."""

    name = "disc_oracle_scale"
    sizes = ((128, 512), (512, 2048), (1024, 4096))
    degree = 24
    w_radius = 0.9

    def make_input(self, seed: int, index: int) -> dict:
        rng = _op_rng(seed, index)
        r, m = self._size(index)
        xi = _draw_xi(rng)
        f = rng.normal(size=self.degree + 1) + 1j * rng.normal(size=self.degree + 1)
        w = self.w_radius * math.sqrt(float(rng.random())) * np.exp(2j * np.pi * float(rng.random()))
        return {"r": r, "m": m, "xi": xi, "f": f, "w": complex(w)}

    @staticmethod
    def run(inp: dict):
        from bergman11 import quadrature as quad
        from bergman11.weights import CoeffVector, WeightParam

        wp = WeightParam(inp["xi"])
        f = CoeffVector(inp["f"])
        grid = quad.QuadratureGrid(wp, inp["r"], inp["m"])
        norm_sq = quad.integrate(lambda z: np.abs(f(z)) ** 2, grid)
        value = quad.reproduce(f, quad.KernelPoint(inp["w"]), wp, grid)
        return norm_sq, value

    @staticmethod
    def gate(inp: dict, output) -> tuple:
        from bergman11.weights import CoeffVector, WeightParam, bergman_norm_sq

        norm_sq, value = output
        exact_norm = bergman_norm_sq(CoeffVector(inp["f"]), WeightParam(inp["xi"]))
        exact_value = complex(np.polyval(inp["f"][::-1], inp["w"]))
        margins = {
            "integrate": abs(complex(norm_sq) - exact_norm) / exact_norm,
            "reproduce": abs(complex(value) - exact_value) / abs(exact_value),
        }
        bad = [k for k, m in margins.items() if not m <= DISC_REL_TOL]
        return (WRONG, f"{bad} {margins}") if bad else (OK, "")


def child_env(root: Path) -> dict:
    """This process's environment (threads already pinned), checkout sources first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_workload(name: str, root: Path):
    if name == VerifyCli.name:
        return VerifyCli(root, child_env(root))
    return {OperatorScale.name: OperatorScale, DiscOracleScale.name: DiscOracleScale}[name]()
