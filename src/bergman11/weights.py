"""Coefficient-space arithmetic on the weighted Bergman spaces of the unit disc.

A holomorphic function is represented by its Taylor coefficients at 0
(:class:`CoeffVector`).  Everything here rests on one sequence, the monomial
norms ||z^k||^2 = k!/(xi+2)_k, whose logarithm L_k is evaluated in one place
through ``gammaln`` so that large degrees stay in range.  The norms are exp(L),
the orthonormal-basis scales s_k (e_k = s_k z^k) are exp(-L/2), and every norm
is one weighted sum  sum_k |a_k|^2 ||z^k||^2 phi_k  over the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# Documented supported range for the weight parameter; beyond this the
# Gamma-ratio weights leave the comfortable double range.
XI_MAX = 100.0


@dataclass(frozen=True)
class WeightParam:
    """The weight parameter xi of the measure ((xi+1)/pi)(1-|z|^2)^xi dz."""

    xi: float

    def __post_init__(self):
        if not math.isfinite(self.xi):
            raise ValueError(f"weight parameter must be finite, got {self.xi}")
        if self.xi <= -1.0:
            raise ValueError(f"weight parameter must satisfy xi > -1, got {self.xi}")
        if self.xi > XI_MAX:
            raise ValueError(f"weight parameter above supported range ({XI_MAX}): {self.xi}")


class CoeffVector:
    """A finite Taylor-coefficient sequence a_0..a_N.

    Trailing zeros are permitted; equality compares after trimming them, so
    the truncation degree is an artifact of construction, not data.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
        if arr.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if arr.size == 0:
            arr = np.zeros(1, dtype=np.complex128)
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("CoeffVector is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def trimmed(self) -> "CoeffVector":
        nz = np.nonzero(self.coeffs)[0]
        if len(nz) == 0:
            return CoeffVector([0.0])
        return CoeffVector(self.coeffs[: nz[-1] + 1])

    def padded(self, degree: int) -> np.ndarray:
        """Coefficients as an array of length ``degree + 1``."""
        out = np.zeros(degree + 1, dtype=np.complex128)
        n = min(degree + 1, len(self.coeffs))
        out[:n] = self.coeffs[:n]
        return out

    def derivative(self) -> "CoeffVector":
        if self.degree == 0:
            return CoeffVector([0.0])
        k = np.arange(1, self.degree + 1)
        return CoeffVector(self.coeffs[1:] * k)

    def __call__(self, z):
        """Evaluate the polynomial at scalar or array argument."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            out = out * z + c
        return out if out.ndim else complex(out)

    def __eq__(self, other):
        if not isinstance(other, CoeffVector):
            return NotImplemented
        return np.array_equal(self.trimmed().coeffs, other.trimmed().coeffs)

    def __hash__(self):
        return hash(self.trimmed().coeffs.tobytes())

    def __add__(self, other):
        if not isinstance(other, CoeffVector):
            return NotImplemented
        n = max(self.degree, other.degree)
        return CoeffVector(self.padded(n) + other.padded(n))

    def __sub__(self, other):
        if not isinstance(other, CoeffVector):
            return NotImplemented
        n = max(self.degree, other.degree)
        return CoeffVector(self.padded(n) - other.padded(n))

    def __mul__(self, scalar):
        return CoeffVector(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"CoeffVector({list(self.coeffs)!r})"


def pochhammer(xi: WeightParam, k: int) -> float:
    """Rising factorial (xi+2)_k via log-Gamma."""
    if k < 0:
        raise ValueError(f"pochhammer index must be >= 0, got {k}")
    log_val = gammaln(k + xi.xi + 2.0) - gammaln(xi.xi + 2.0)
    val = math.exp(log_val) if log_val < 709.0 else math.inf
    if not math.isfinite(val):
        raise OverflowError(f"(xi+2)_k overflows for xi={xi.xi}, k={k}")
    return val


def _log_norms_sq(xi: WeightParam, degree: int) -> np.ndarray:
    """L_k = log ||z^k||^2 = log k! - log (xi+2)_k for k = 0..degree."""
    k = np.arange(degree + 1)
    return gammaln(k + 1.0) - (gammaln(k + xi.xi + 2.0) - gammaln(xi.xi + 2.0))


def monomial_norms_sq(xi: WeightParam, degree: int) -> np.ndarray:
    """Array of ||z^k||^2 = k!/(xi+2)_k for k = 0..degree."""
    return np.exp(_log_norms_sq(xi, degree))


def basis_scales(xi: WeightParam, degree: int) -> np.ndarray:
    """Scales s_n with e_n(z) = s_n z^n, i.e. s_n = sqrt((xi+2)_n/n!) = exp(-L_n/2);
    not a power of ``monomial_norms_sq``, which underflows to 0 where s_n is finite."""
    return np.exp(-0.5 * _log_norms_sq(xi, degree))


def monomial_norm_sq(xi: WeightParam, k: int) -> float:
    """||z^k||^2 in the weight-xi Bergman space."""
    if k < 0:
        raise ValueError(f"monomial degree must be >= 0, got {k}")
    return float(monomial_norms_sq(xi, k)[k])


def inner_product(f: CoeffVector, g: CoeffVector, xi: WeightParam) -> complex:
    """Bergman inner product <f, g> via the diagonal coefficient sum."""
    n = max(f.degree, g.degree)
    w = monomial_norms_sq(xi, n)
    return complex(np.sum(f.padded(n) * np.conj(g.padded(n)) * w))


def weighted_norm_sq(f: CoeffVector, xi: WeightParam, phi) -> float:
    """sum_k |a_k|^2 ||z^k||^2 phi_k; ``phi`` is a scalar or an array over k = 0..deg f."""
    return float(np.sum(np.abs(f.coeffs) ** 2 * monomial_norms_sq(xi, f.degree) * phi))


def bergman_norm_sq(f: CoeffVector, xi: WeightParam) -> float:
    return weighted_norm_sq(f, xi, 1.0)


def sobolev_norm_sq(f: CoeffVector, xi: WeightParam, n: int) -> float:
    """|b_0|^2 + sum_{k>=1} |b_k|^2 k^{2n} k!/(xi+2)_k."""
    if n < 1:
        raise ValueError(f"Sobolev order must be >= 1, got {n}")
    factor = np.arange(f.degree + 1, dtype=float) ** (2 * n)
    factor[0] = 1.0
    return weighted_norm_sq(f, xi, factor)


def smooth_seminorm_sq(f: CoeffVector, xi: WeightParam, m: int) -> float:
    """Smooth-vector seminorm: sum |a_k|^2 ||z^k||^2 (xi(xi+2)+2k)^{2m}."""
    if m < 0:
        raise ValueError(f"seminorm order must be >= 0, got {m}")
    k = np.arange(f.degree + 1, dtype=float)
    return weighted_norm_sq(f, xi, (xi.xi * (xi.xi + 2.0) + 2.0 * k) ** (2 * m))


def basis_to_taylor(coeffs, xi: WeightParam) -> CoeffVector:
    """Convert coefficients in the orthonormal basis e_n to Taylor form."""
    arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
    return CoeffVector(arr * basis_scales(xi, len(arr) - 1))


def taylor_to_basis(f: CoeffVector, xi: WeightParam) -> np.ndarray:
    """Coefficients of f in the orthonormal basis e_n."""
    return f.coeffs / basis_scales(xi, f.degree)
