"""The weight-shift operator z d/dz + c as an isomorphism between the
weight-xi and weight-(xi+2) Bergman spaces.

On coefficients the operator is the diagonal map a_k -> (k+c) a_k, so the
forward/inverse maps are exact; the norm equivalence is certified by scanning
the explicit frame ratio.  A separate step-one identity maps the weight-xi
reproducing kernel to the weight-(xi+1) kernel via (1/(xi+2)) z d/dz + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import KernelPoint
from .weights import CoeffVector, WeightParam, basis_scales

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
        if not self.allow_singular and _distance_to_forbidden(c) <= SINGULAR_DISTANCE:
            raise ValueError(
                f"shift constant {c} within {SINGULAR_DISTANCE} of 0 or a negative integer"
            )


def shift_apply(op: ShiftOp, f: CoeffVector) -> CoeffVector:
    k = np.arange(f.degree + 1)
    return CoeffVector((k + complex(op.c)) * f.coeffs)


def shift_invert(op: ShiftOp, f: CoeffVector) -> CoeffVector:
    factors = np.arange(f.degree + 1) + complex(op.c)
    if np.any(np.abs(factors) <= SINGULAR_DISTANCE):
        raise ZeroDivisionError(f"shift constant {op.c} makes a mode non-invertible")
    return CoeffVector(f.coeffs / factors)


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
    s_k^2 conj(w)^k = ((xi+2)_k / k!) conj(w)^k."""
    k = np.arange(degree + 1)
    return basis_scales(xi, degree) ** 2 * np.conj(complex(w.w)) ** k


def kernel_shift_residual(alpha: float, w: KernelPoint, xi: WeightParam, degree: int) -> float:
    """Coefficient-space distance between (alpha z d/dz + 1) K_xi(., w) and
    K_{xi+1}(., w), both truncated at ``degree``.

    The termwise Pochhammer identity forces alpha = 1/(xi+2) to annihilate the
    residual; other values (including 2/(xi+2)) leave a bounded-away residual.
    """
    k = np.arange(degree + 1)
    shifted = (1.0 + alpha * k) * kernel_coeffs(xi, w, degree)
    target = kernel_coeffs(WeightParam(xi.xi + 1.0), w, degree)
    return float(np.linalg.norm(shifted - target))


def domain_identification_check(xi: WeightParam, k_range: int):
    """Scan the ratio of the weight-(xi-2) norm weights to the order-one
    Sobolev weights; finite positive bounds certify the norm equivalence
    behind the domain identification (requires xi > 1).

    The ratio is (k+xi)(k+xi+1) / (k^2 xi (xi+1)) with tail 1/(xi(xi+1)).
    """
    if xi.xi <= 1.0:
        raise ValueError(f"domain identification requires xi > 1, got {xi.xi}")
    x = xi.xi
    k = np.arange(1, k_range + 1, dtype=float)
    ratios = (k + x) * (k + x + 1.0) / (k**2 * x * (x + 1.0))
    tail = 1.0 / (x * (x + 1.0))
    values = np.concatenate([ratios, [tail]])
    return float(np.min(values)), float(np.max(values))
