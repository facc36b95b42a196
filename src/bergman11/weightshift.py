"""The weight-shift operator z d/dz + c as an isomorphism between the
weight-xi and weight-(xi+2) Bergman spaces.

On coefficients the operator is the diagonal map a_k -> (k+c) a_k, so the
forward/inverse maps are exact; the norm equivalence is certified by scanning
the explicit frame ratio.  A separate step-one identity maps the weight-xi
reproducing kernel to the weight-(xi+1) kernel via (1/(xi+2)) z d/dz + 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import KernelPoint
from .weights import CoeffVector, WeightParam, _coeffs, _log_norms_sq

SINGULAR_DISTANCE = 1e-12


def _distance_to_forbidden(c: complex) -> float:
    """Distance from c to the set {0, -1, -2, ...}."""
    k = max(0, round(-c.real))
    return min(abs(c + k), abs(c + max(0, k - 1)), abs(c + k + 1))


@dataclass(frozen=True)
class ShiftOp:
    """The diagonal coefficient map a_k -> (k+c) a_k.

    c = 0 or a negative integer makes the map non-invertible; construction
    rejects those unless ``allow_singular`` is set (used to reproduce the
    surjectivity-only statement for z d/dz).
    """

    c: complex
    allow_singular: bool = False

    def __post_init__(self):
        c = complex(self.c)
        if not cmath.isfinite(c):
            raise ValueError(f"shift constant must be finite, got {c}")
        if not self.allow_singular and _distance_to_forbidden(c) <= SINGULAR_DISTANCE:
            raise ValueError(
                f"shift constant {c} within {SINGULAR_DISTANCE} of 0 or a negative integer"
            )


def shift_apply(op: ShiftOp, f):
    """a_k -> (k+c) a_k over the last axis of a CoeffVector (giving one) or
    a coefficient batch (giving an array)."""
    a = _coeffs(f)
    out = (np.arange(a.shape[-1]) + complex(op.c)) * a
    return CoeffVector(out) if isinstance(f, CoeffVector) else out


def shift_invert(op: ShiftOp, f):
    """a_k -> a_k / (k+c), over the last axis as ``shift_apply``."""
    a = _coeffs(f)
    factors = np.arange(a.shape[-1]) + complex(op.c)
    if np.any(np.abs(factors) <= SINGULAR_DISTANCE):
        raise ZeroDivisionError(f"shift constant {op.c} makes a mode non-invertible")
    out = a / factors
    return CoeffVector(out) if isinstance(f, CoeffVector) else out


@dataclass(frozen=True)
class FrameConstants:
    """Two-sided norm-equivalence bounds for the shift operator."""

    m: float
    M: float
    k_range: int

    def __post_init__(self):
        if not (0.0 < self.m <= self.M):
            raise ValueError(f"frame constants must satisfy 0 < m <= M, got {self.m}, {self.M}")


def frame_ratio(op: ShiftOp, xi: WeightParam, k) -> np.ndarray:
    """r_k = (xi+3)(xi+2) |k+c|^2 / ((k+xi+3)(k+xi+2)); the weight ratio
    relating ||L f||^2 in the shifted space to ||f||^2."""
    k = np.asarray(k, dtype=float)
    x = xi.xi
    return (x + 3.0) * (x + 2.0) * np.abs(k + complex(op.c)) ** 2 / ((k + x + 3.0) * (k + x + 2.0))


def frame_constants(op: ShiftOp, xi: WeightParam, k_range: int) -> FrameConstants:
    """Min/max of the frame ratio over k <= k_range plus the tail limit."""
    ratios = frame_ratio(op, xi, np.arange(k_range + 1))
    tail = (xi.xi + 3.0) * (xi.xi + 2.0)
    values = np.concatenate([ratios, [tail]])
    return FrameConstants(float(np.min(values)), float(np.max(values)), k_range)


def kernel_coeffs(xi: WeightParam, w: KernelPoint, degree: int) -> np.ndarray:
    """Taylor coefficients of K(., w) = sum_k e_k conj(e_k(w)), i.e.
    s_k^2 conj(w)^k = ((xi+2)_k / k!) conj(w)^k.

    Evaluated as exp(-L_k + k log|w|) e^{-ik arg w}, so a coefficient is
    finite wherever it is representable, although s_k^2 alone overflows and
    |w|^k alone underflows at large degree; w = 0 gives e_0 only.
    """
    w = complex(w.w)
    if w == 0:
        out = np.zeros(degree + 1, dtype=np.complex128)
        out[0] = 1.0
        return out
    k = np.arange(degree + 1)
    return np.exp(k * math.log(abs(w)) - _log_norms_sq(xi, degree)) * np.exp(-1j * cmath.phase(w) * k)


def kernel_shift_residual(alpha: float, w: KernelPoint, xi: WeightParam, degree: int) -> float:
    """Relative coefficient-space distance ||S - T|| / ||T|| between
    S = (alpha z d/dz + 1) K_xi(., w) and T = K_{xi+1}(., w), both truncated at
    ``degree``.

    The termwise Pochhammer identity forces alpha = 1/(xi+2) to annihilate the
    residual; other values (including 2/(xi+2)) leave a bounded-away residual.
    ||T|| >= |T_0| = 1, and dividing by it makes residuals comparable across
    xi: at xi = 98, w = 0.4 and degree 50000, ||T|| is 4.2e21.
    """
    k = np.arange(degree + 1)
    shifted = (1.0 + alpha * k) * kernel_coeffs(xi, w, degree)
    target = kernel_coeffs(WeightParam(xi.xi + 1.0), w, degree)
    return float(np.linalg.norm(shifted - target) / np.linalg.norm(target))
