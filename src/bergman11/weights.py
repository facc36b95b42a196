"""Coefficient-space arithmetic on the weighted Bergman spaces of the unit disc.

A holomorphic function is represented by its Taylor coefficients at 0
(:class:`CoeffVector`).  Everything here rests on one sequence, the monomial
norms ||z^k||^2 = k!/(xi+2)_k, whose logarithm L_k is evaluated in one place,
as L_k = -sum_{j<=k} log1p((xi+1)/j), so that large degrees stay in range.
Against 40-digit mpmath (tests/log_norms_reference.json) the absolute error
of L_k, which is the relative error of ||z^k||^2, is at most 3.2e-13 for
-0.999 <= xi <= 2.5, 8.7e-13 at xi = 10, 7.7e-12 at xi = 40 and 1.7e-11 at
xi = 100, for k <= 10^5; log-Gamma differences are off by 1e-10 to 3.5e-10
there.  The norms are exp(L), the orthonormal-basis scales s_k
(e_k = s_k z^k) are exp(-L/2), and every norm is one weighted sum
sum_k |a_k|^2 ||z^k||^2 phi_k  over the coefficients.

The norms act on the last axis of a coefficient batch: they take a
CoeffVector (a batch of one, giving a numpy scalar) or an array of shape
(..., degree+1), zero-padded rows of polynomials of lower degree, and give an
array over the leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        # np.array copies, so the caller's array stays writable and ours is not
        arr = np.array(coeffs, dtype=np.complex128, ndmin=1)
        if arr.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if arr.size == 0:
            arr = np.zeros(1, dtype=np.complex128)
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
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
        return _padded(self.coeffs, degree + 1)

    def __call__(self, z):
        """Evaluate the polynomial at scalar or array argument.

        Horner's rule in one output buffer; ``z`` is only read.  A scalar or
        one-element ``z`` is evaluated as a numpy scalar, whose updates rebind
        ``out`` and take the same (fused) vector loop as every entry of a
        longer array; updating a one-element array in place would take
        numpy's unfused one-element loop instead.  So a point rounds the same
        alone, in a one-element array and inside any larger array.
        """
        z = np.asarray(z, dtype=np.complex128)
        shape = z.shape
        if z.size == 1:
            z = z.reshape(())
        out = np.full_like(z, self.coeffs[-1])[()]
        for c in self.coeffs[-2::-1]:
            out *= z
            out += c
        if out.ndim:
            return out
        return np.reshape(out, shape) if shape else complex(out)

    def __eq__(self, other):
        if not isinstance(other, CoeffVector):
            return NotImplemented
        return np.array_equal(self.trimmed().coeffs, other.trimmed().coeffs)

    def __repr__(self):
        return f"CoeffVector({self.coeffs.tolist()!r})"


def _coeffs(f) -> np.ndarray:
    """Coefficients over the last axis: a CoeffVector's own, or a batch as given."""
    return f.coeffs if isinstance(f, CoeffVector) else np.asarray(f, dtype=np.complex128)


def _padded(a: np.ndarray, n: int) -> np.ndarray:
    """Coefficients over the last axis, zero-padded or cut to length n."""
    out = np.zeros(a.shape[:-1] + (n,), dtype=np.complex128)
    m = min(n, a.shape[-1])
    out[..., :m] = a[..., :m]
    return out


def _derivative(a: np.ndarray) -> np.ndarray:
    """Coefficients of f' over the last axis; a constant gives one zero."""
    n = a.shape[-1]
    if n == 1:
        return np.zeros(a.shape, dtype=np.complex128)
    return a[..., 1:] * np.arange(1, n)


def _log_norms_sq(xi: WeightParam, degree: int) -> np.ndarray:
    """L_k = log ||z^k||^2 = log k! - log (xi+2)_k = -sum_{j<=k} log1p((xi+1)/j)
    for k = 0..degree; each term is a log1p of a ratio, so no large logs cancel."""
    out = np.zeros(degree + 1)
    np.cumsum(np.log1p((xi.xi + 1.0) / np.arange(1.0, degree + 1.0)), out=out[1:])
    return np.negative(out, out=out)


def monomial_norms_sq(xi: WeightParam, degree: int) -> np.ndarray:
    """Array of ||z^k||^2 = k!/(xi+2)_k for k = 0..degree."""
    return np.exp(_log_norms_sq(xi, degree))


def basis_scales(xi: WeightParam, degree: int) -> np.ndarray:
    """Scales s_n with e_n(z) = s_n z^n, i.e. s_n = sqrt((xi+2)_n/n!) = exp(-L_n/2);
    not a power of ``monomial_norms_sq``, which underflows to 0 where s_n is finite."""
    return np.exp(-0.5 * _log_norms_sq(xi, degree))


def inner_product(f, g, xi: WeightParam):
    """Bergman inner product <f, g> via the diagonal coefficient sum over the
    last axis: two CoeffVectors give a numpy complex scalar, batches an array
    over their leading axes."""
    a, b = _coeffs(f), _coeffs(g)
    n = max(a.shape[-1], b.shape[-1])
    return np.sum(_padded(a, n) * np.conj(_padded(b, n)) * monomial_norms_sq(xi, n - 1), axis=-1)


def weighted_norm_sq(f, xi: WeightParam, phi):
    """sum_k |a_k|^2 ||z^k||^2 phi_k over the last axis of f's coefficients;
    ``phi`` is a scalar or an array over k = 0..deg.  A CoeffVector gives a
    numpy float scalar, a (..., deg+1) batch an array over its leading axes."""
    a = _coeffs(f)
    return np.sum(np.abs(a) ** 2 * monomial_norms_sq(xi, a.shape[-1] - 1) * phi, axis=-1)


def bergman_norm_sq(f, xi: WeightParam):
    return weighted_norm_sq(f, xi, 1.0)


def sobolev_norm_sq(f, xi: WeightParam, n: int):
    """|b_0|^2 + sum_{k>=1} |b_k|^2 k^{2n} k!/(xi+2)_k."""
    if n < 1:
        raise ValueError(f"Sobolev order must be >= 1, got {n}")
    factor = np.arange(_coeffs(f).shape[-1], dtype=float) ** (2 * n)
    factor[0] = 1.0
    return weighted_norm_sq(f, xi, factor)
