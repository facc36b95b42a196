"""The matrix Lie algebra su(1,1) and group SU(1,1).

Algebra elements are [[ia, b], [conj(b), -ia]] with a real, b complex; group
elements are [[alpha, beta], [conj(beta), conj(alpha)]] with
|alpha|^2 - |beta|^2 = 1.  The exponential has the closed 2x2 form
cosh(t*mu) I + sinh(t*mu)/mu * U with mu^2 = |b|^2 - a^2, handled uniformly
through a complex mu.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

RENORM_THRESHOLD = 1e-8


@dataclass(frozen=True)
class LieElement:
    """su(1,1) element [[ia, b], [conj(b), -ia]].

    ``a`` and ``b`` may also be arrays of one shape, a batch of elements on
    which ``bracket`` and ``coords`` act elementwise.
    """

    a: float
    b: complex

    def matrix(self) -> np.ndarray:
        return np.array(
            [[1j * self.a, self.b], [np.conj(self.b), -1j * self.a]], dtype=np.complex128
        )

    def __add__(self, other):
        return LieElement(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return LieElement(self.a - other.a, self.b - other.b)

    def __rmul__(self, scalar: float):
        return LieElement(scalar * self.a, scalar * self.b)

    def norm(self) -> float:
        return float(np.sqrt(self.a**2 + abs(self.b) ** 2))


@dataclass(frozen=True)
class BasisCoords:
    """Coordinates (sigma, tau, lam) in the basis (X, Y, Z)."""

    sigma: float
    tau: float
    lam: float


# The distinguished algebra elements.  W equals Z - X entrywise (the group
# relation used throughout); its coordinates are (-1, 0, 1).
X_GEN = LieElement(1.0, 0.0)
Y_GEN = LieElement(0.0, 1.0 + 0j)
Z_GEN = LieElement(1.0, -1j)
W_GEN = LieElement(0.0, -1j)


def bracket(u: LieElement, v: LieElement) -> LieElement:
    """The commutator uv - vu in closed form: for u = (a, b) and v = (c, d) it
    is (2 Im(b conj(d)), 2i(a d - c b)).  Written in real arithmetic, so it acts
    elementwise on array fields and a scalar pair rounds as an array entry."""
    a, b, c, d = u.a, u.b, v.a, v.b
    re = a * d.real - c * b.real
    im = a * d.imag - c * b.imag
    return LieElement(2.0 * (b.imag * d.real - b.real * d.imag), -2.0 * im + 2j * re)


def coords(u: LieElement) -> BasisCoords:
    """Coordinates of u in the (X, Y, Z) basis; elementwise on array fields."""
    return BasisCoords(u.a + u.b.imag, u.b.real, -u.b.imag)


def from_coords(c: BasisCoords) -> LieElement:
    return LieElement(c.sigma + c.lam, complex(c.tau, -c.lam))


@dataclass(frozen=True)
class GroupElement:
    """SU(1,1) element [[alpha, beta], [conj(beta), conj(alpha)]].

    Construction renormalizes when |alpha|^2 - |beta|^2 is within 1e-8 of 1
    and rejects anything farther off.  The difference is computed with a
    rounding error of about eps * (|alpha|^2 + |beta|^2), so a deviation below
    32 eps * max(1, |alpha|^2 + |beta|^2) is neither rejected nor renormalized.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        a2 = abs(complex(self.alpha)) ** 2
        b2 = abs(complex(self.beta)) ** 2
        det = a2 - b2
        # rounding noise of the determinant measurement itself
        noise = 32.0 * np.finfo(float).eps * max(1.0, a2 + b2)
        bound = max(RENORM_THRESHOLD, noise)
        if abs(det - 1.0) > bound:
            raise ValueError(f"|alpha|^2 - |beta|^2 = {det}, not within {bound:.3g} of 1")
        # only renormalize a deviation that exceeds the noise, otherwise
        # scaling injects error
        if abs(det - 1.0) > noise:
            s = 1.0 / np.sqrt(det)
            object.__setattr__(self, "alpha", complex(self.alpha) * s)
            object.__setattr__(self, "beta", complex(self.beta) * s)

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.alpha, self.beta], [np.conj(self.beta), np.conj(self.alpha)]],
            dtype=np.complex128,
        )

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        a = self.alpha * other.alpha + self.beta * np.conj(other.beta)
        b = self.alpha * other.beta + self.beta * np.conj(other.alpha)
        return GroupElement(complex(a), complex(b))


def exp_at(u: LieElement, t: float) -> GroupElement:
    """Group exponential exp(t*u) in closed form."""
    mu = cmath.sqrt(complex(abs(u.b) ** 2 - u.a**2))
    tm = t * mu
    ch = cmath.cosh(tm)
    if abs(mu) < 1e-12:
        # sinh(t*mu)/mu -> t with quadratic correction
        sh_over_mu = t * (1.0 + tm * tm / 6.0)
    else:
        sh_over_mu = cmath.sinh(tm) / mu
    alpha = ch + 1j * u.a * sh_over_mu
    beta = u.b * sh_over_mu
    return GroupElement(complex(alpha), complex(beta))
