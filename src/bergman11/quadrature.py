"""Brute-force integration over the disc against the weighted measure.

This is the independent oracle for everything done in coefficient space: a
tensor rule with Gauss-Jacobi nodes in the radial variable s = r^2 (the
weight (xi+1)(1-s)^xi is folded into the rule, so radial polynomials of
degree <= 2R-1 integrate to machine precision for every xi > -1) and
uniform angles with trapezoid weights.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .weights import CoeffVector, WeightParam


@dataclass(frozen=True)
class KernelPoint:
    """A strictly interior kernel parameter point."""

    w: complex

    def __post_init__(self):
        if not abs(complex(self.w)) < 1.0:
            raise ValueError(f"kernel point must satisfy |w| < 1, got {self.w}")


class QuadratureGrid:
    """Radial x angular nodes and weights for the measure d(nu_xi)."""

    def __init__(self, xi: WeightParam, radial_points: int = 64, angular_points: int = 256):
        if radial_points < 8:
            raise ValueError("radial_points must be >= 8")
        if angular_points < 16:
            raise ValueError("angular_points must be >= 16")
        self.xi = xi
        self.radial_points = radial_points
        self.angular_points = angular_points

        # Gauss-Jacobi on [-1,1] with weight (1-x)^xi, mapped to s in [0,1];
        # the (xi+1) prefactor normalizes the radial marginal to mass 1.
        x, w = roots_jacobi(radial_points, xi.xi, 0.0)
        self.radial_nodes = (x + 1.0) / 2.0
        self.radial_weights = w * (xi.xi + 1.0) * 2.0 ** (-(xi.xi + 1.0))

        self.angles = 2.0 * np.pi * np.arange(angular_points) / angular_points
        self.nodes = np.sqrt(self.radial_nodes)[:, None] * np.exp(1j * self.angles)[None, :]
        self.weights = np.broadcast_to(self.radial_weights[:, None] / angular_points, self.nodes.shape)

        mass = float(np.sum(self.weights))
        if abs(mass - 1.0) > 1e-12:
            raise RuntimeError(f"quadrature weights sum to {mass}, expected 1")


def integrate(F, grid: QuadratureGrid) -> complex:
    """Approximate the integral of F over the disc against d(nu_xi).

    F is a vectorized callable on complex arrays, such as a CoeffVector.  The
    sum runs over each angular row first, then against the radial weights,
    then divides by the angular count.  The weights are positive, so a
    non-finite sample always makes the total non-finite; only then are the
    samples scanned, and the first non-finite node is named in a ValueError.
    """
    samples = np.asarray(F(grid.nodes), dtype=np.complex128)
    if samples.shape != grid.nodes.shape:
        samples = np.broadcast_to(samples, grid.nodes.shape)
    # inf - inf only arises from non-finite samples, which the scan reports
    with np.errstate(invalid="ignore"):
        rows = np.sum(samples, axis=1)
        total = complex(rows.real @ grid.radial_weights, rows.imag @ grid.radial_weights)
    total /= grid.angular_points
    if not cmath.isfinite(total):
        bad = ~np.isfinite(samples)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"non-finite sample at quadrature node z={grid.nodes[i, j]}")
    return total


def kernel_eval(z, w: KernelPoint, xi: WeightParam):
    """Reproducing kernel K(z, w) = (1 - z*conj(w))^{-(xi+2)}, principal branch.

    Well-defined on the disc since Re(1 - z*conj(w)) > 0 there.  With
    b = 1 - z*conj(w) and p = -(xi+2) the power is taken in real polar form,
    |b|^p = exp(p/2 * log(Re(b)^2 + Im(b)^2)) and arg b^p = p * arctan2(Im b, Re b),
    in one complex and two real buffers; ``z`` is only read.  Against 40-digit
    mpmath the relative error stays below 5e-13 for -0.9 <= xi <= 98,
    |w| <= 0.99 and |z| <= 0.999 (4.4e-13 at xi = 98 with z at the boundary
    facing w), the same as complex log/exp: the rounding of 1 - z*conj(w),
    amplified by xi+2, dominates both.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    modulus = np.abs(z)
    if np.any(modulus >= 1.0):
        raise ValueError("kernel evaluation requires |z| < 1")
    p = -(xi.xi + 2.0)
    out = np.multiply(z, np.conj(complex(w.w)))
    np.subtract(1.0, out, out=out)
    re, im = out.real, out.imag
    phase = np.arctan2(im, re)
    phase *= p
    # once the phase is taken, Re(out) is free to hold Im(b)^2
    np.multiply(re, re, out=modulus)
    np.multiply(im, im, out=re)
    modulus += re
    np.log(modulus, out=modulus)
    modulus *= 0.5 * p
    np.exp(modulus, out=modulus)
    np.cos(phase, out=re)
    re *= modulus
    np.sin(phase, out=im)
    im *= modulus
    return complex(out[0]) if scalar else out


def reproduce(f: CoeffVector, w: KernelPoint, xi: WeightParam, grid: QuadratureGrid) -> complex:
    """Evaluate <f, K_w> by quadrature; the reproducing identity makes this f(w)."""
    if grid.radial_points < f.degree + 4:
        raise ValueError(
            f"grid with {grid.radial_points} radial points too coarse for degree {f.degree}"
        )
    return integrate(lambda z: f(z) * np.conj(kernel_eval(z, w, xi)), grid)
