"""First-order differential operators f*d/dz + g on the weighted Bergman space.

Covers application in coefficient space, Gram matrices in the orthonormal
basis, the symmetry classification (tridiagonal form), the decomposition of
symmetric operators as i * (derived representation) + real constant, operator
commutators, and the scalar-commutator impossibility scan.

Both matrix builders are closed forms.  With e_n = s_n z^n and
s_n = sqrt((xi+2)_n / n!), L = f d/dz + g maps e_n to
sum_m (s_n / s_m)(n f_{m-n+1} + g_{m-n}) e_m, so its Gram matrix is banded
with offsets m - n from -1 to max(deg f - 1, deg g) and is filled one band at
a time.  The commutator of two first-order operators is again first order,

    [f1 D + g1, f2 D + g2] = (f1 f2' - f2 f1') D + (f1 g2' - f2 g1'),

so its matrix is the Gram matrix of that operator, exact at any coefficient
degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .su11 import BasisCoords, LieElement, bracket, coords, from_coords
from .weights import CoeffVector, WeightParam, basis_scales


@dataclass(frozen=True)
class FirstOrderOp:
    """The operator fcoeffs * d/dz + gcoeffs with polynomial coefficient data."""

    fcoeffs: CoeffVector
    gcoeffs: CoeffVector

    def __add__(self, other: "FirstOrderOp") -> "FirstOrderOp":
        return FirstOrderOp(self.fcoeffs + other.fcoeffs, self.gcoeffs + other.gcoeffs)

    def __rmul__(self, scalar) -> "FirstOrderOp":
        return FirstOrderOp(scalar * self.fcoeffs, scalar * self.gcoeffs)

    def plus_scalar(self, scalar) -> "FirstOrderOp":
        g = self.gcoeffs.padded(self.gcoeffs.degree)
        g = g.copy()
        g[0] += complex(scalar)
        return FirstOrderOp(self.fcoeffs, CoeffVector(g))


def apply(op: FirstOrderOp, h: CoeffVector, degree: Optional[int] = None) -> CoeffVector:
    """Coefficients of f*h' + g*h, optionally truncated at ``degree``."""
    fh = np.convolve(op.fcoeffs.coeffs, h.derivative().coeffs)
    gh = np.convolve(op.gcoeffs.coeffs, h.coeffs)
    n = max(len(fh), len(gh))
    out = np.zeros(n, dtype=np.complex128)
    out[: len(fh)] += fh
    out[: len(gh)] += gh
    if degree is not None:
        out = out[: degree + 1]
    return CoeffVector(out)


def gram_matrix(op: FirstOrderOp, xi: WeightParam, degree: int) -> np.ndarray:
    """Matrix M[m, n] = <L e_n, e_m> over the orthonormal basis, 0 <= m,n <= degree.

    M[m, n] = (s_n / s_m)(n f_{m-n+1} + g_{m-n}), evaluated band by band as
    (f_{k+1} (n s_n) + g_k s_n) / s_m for each offset k = m - n.
    """
    return _band_matrix(op, xi, degree)


def _band_matrix(op: FirstOrderOp, xi: WeightParam, degree: int) -> np.ndarray:
    # shared by gram_matrix and commutator_matrix; private, so that call
    # tracing sees a commutator as one commutator_matrix call, not also a Gram one
    f, g = op.fcoeffs.coeffs, op.gcoeffs.coeffs
    s = basis_scales(xi, degree)
    n_all = np.arange(degree + 1)
    ns = n_all * s
    m = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
    for k in range(-1, max(len(f) - 2, len(g) - 1) + 1):
        n = n_all[max(0, -k) : max(0, degree + 1 - k)]  # clamped: a band past N is empty
        fk = f[k + 1] if k + 1 < len(f) else 0.0
        gk = g[k] if 0 <= k < len(g) else 0.0
        m[n + k, n] = (fk * ns[n] + gk * s[n]) / s[n + k]
    return m


@dataclass(frozen=True)
class SymmetricForm:
    """The coefficient data of a symmetric first-order operator.

    Encodes f = a0 + a1 z + conj(a0) z^2 and g = b0 + (xi+2) conj(a0) z with
    a1, b0 real.
    """

    a0: complex
    a1: float
    b0: float
    xi: WeightParam

    def to_operator(self) -> FirstOrderOp:
        a0 = complex(self.a0)
        return FirstOrderOp(
            CoeffVector([a0, self.a1, np.conj(a0)]),
            CoeffVector([self.b0, (self.xi.xi + 2.0) * np.conj(a0)]),
        )


@dataclass(frozen=True)
class ClassifyVerdict:
    """Outcome of the symmetry classification."""

    symmetric: bool
    form: Optional[SymmetricForm]
    violation: Optional[str]


def classify_symmetric(op: FirstOrderOp, xi: WeightParam, tol: float = 1e-10) -> ClassifyVerdict:
    """Decide whether f*d/dz + g is symmetric and extract its normal form.

    Symmetry forces f = a0 + a1 z + conj(a0) z^2, g = b0 + (xi+2) conj(a0) z
    with a1, b0 real; the first violated condition is reported.
    """
    f = op.fcoeffs.trimmed().coeffs
    g = op.gcoeffs.trimmed().coeffs
    if len(f) > 3:
        return ClassifyVerdict(False, None, f"deg f = {len(f) - 1} > 2")
    if len(g) > 2:
        return ClassifyVerdict(False, None, f"deg g = {len(g) - 1} > 1")
    f = np.pad(f, (0, 3 - len(f)))
    g = np.pad(g, (0, 2 - len(g)))
    if abs(f[1].imag) > tol:
        return ClassifyVerdict(False, None, "a1 not real")
    if abs(g[0].imag) > tol:
        return ClassifyVerdict(False, None, "b0 not real")
    if abs(f[2] - np.conj(f[0])) > tol:
        return ClassifyVerdict(False, None, "f2 != conj(f0)")
    if abs(g[1] - (xi.xi + 2.0) * np.conj(f[0])) > tol:
        return ClassifyVerdict(False, None, "g1 != (xi+2) conj(f0)")
    form = SymmetricForm(complex(f[0]), float(f[1].real), float(g[0].real), xi)
    return ClassifyVerdict(True, form, None)


@dataclass(frozen=True)
class TriDiag:
    """Tridiagonal coefficient bands of a symmetric operator on e_0..e_N.

    ``sub[n-1]`` is the e_{n-1} coefficient of L e_n (n = 1..N), ``diag[n]``
    the e_n coefficient, ``sup[n]`` the e_{n+1} coefficient (n = 0..N-1).
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def to_dense(self) -> np.ndarray:
        n = len(self.diag)
        m = np.zeros((n, n), dtype=np.complex128)
        m[np.arange(n), np.arange(n)] = self.diag
        m[np.arange(n - 1), np.arange(1, n)] = self.sub
        m[np.arange(1, n), np.arange(n - 1)] = self.sup[: n - 1]
        return m


def symmetric_tridiagonal(form: SymmetricForm, degree: int) -> TriDiag:
    """Closed-form bands: L e_n = a0 sqrt(n(n+xi+1)) e_{n-1} + (n a1 + b0) e_n
    + conj(a0) sqrt((n+xi+2)(n+1)) e_{n+1}."""
    xi = form.xi.xi
    n = np.arange(degree + 1, dtype=float)
    sub = complex(form.a0) * np.sqrt(n[1:] * (n[1:] + xi + 1.0))
    diag = n * form.a1 + form.b0
    sup = np.conj(complex(form.a0)) * np.sqrt((n[:-1] + xi + 2.0) * (n[:-1] + 1.0))
    return TriDiag(sub.astype(np.complex128), diag, sup.astype(np.complex128))


def rep_operator(c: BasisCoords, xi: WeightParam) -> FirstOrderOp:
    """The derived-representation operator for coordinates (sigma, tau, lam).

    p(z) = (tau+i lam) z^2 + (-2i sigma - 2i lam) z + (-tau + i lam),
    q(z) = (xi+2)(tau+i lam) z + (xi+2) i (-sigma - lam).
    """
    s, t, l = c.sigma, c.tau, c.lam
    p = CoeffVector([complex(-t, l), complex(0.0, -2.0 * s - 2.0 * l), complex(t, l)])
    q = CoeffVector(
        [complex(0.0, (xi.xi + 2.0) * (-s - l)), (xi.xi + 2.0) * complex(t, l)]
    )
    return FirstOrderOp(p, q)


@dataclass(frozen=True)
class RepDecomposition:
    """A symmetric operator written as i * rep_operator(coords) + d."""

    coords: BasisCoords
    d: float


def to_rep(a: float, b: float, c: complex, xi: WeightParam) -> RepDecomposition:
    """Decompose L = (c z^2 + a z + conj(c)) d/dz + ((xi+2) c z + b).

    Coefficient matching gives tau = Im c, lam = -Re c, sigma = a/2 + Re c
    and the real shift d = b - (xi+2) a / 2.
    """
    c = complex(c)
    tau = c.imag
    lam = -c.real
    sigma = a / 2.0 + c.real
    d = b - (xi.xi + 2.0) * a / 2.0
    return RepDecomposition(BasisCoords(sigma, tau, lam), d)


def from_rep(dec: RepDecomposition, xi: WeightParam) -> FirstOrderOp:
    """The operator i * rep_operator(coords) + d."""
    return (1j * rep_operator(dec.coords, xi)).plus_scalar(dec.d)


def derived_op(u: LieElement, xi: WeightParam) -> FirstOrderOp:
    """Derived-representation operator of the algebra element u."""
    return rep_operator(coords(u), xi)


def _commutator_op(op1: FirstOrderOp, op2: FirstOrderOp) -> FirstOrderOp:
    """The first-order operator L1 L2 - L2 L1 = (f1 f2' - f2 f1') D + (f1 g2' - f2 g1')."""
    f1, g1, f2, g2 = op1.fcoeffs, op1.gcoeffs, op2.fcoeffs, op2.gcoeffs

    def times(a: CoeffVector, b: CoeffVector) -> CoeffVector:
        return CoeffVector(np.convolve(a.coeffs, b.coeffs))

    return FirstOrderOp(
        times(f1, f2.derivative()) - times(f2, f1.derivative()),
        times(f1, g2.derivative()) - times(f2, g1.derivative()),
    )


def commutator_matrix(
    op1: FirstOrderOp, op2: FirstOrderOp, xi: WeightParam, degree: int
) -> np.ndarray:
    """Gram matrix of L1 L2 - L2 L1 on e_0..e_N.

    L1 L2 - L2 L1 = (f1 f2' - f2 f1') D + (f1 g2' - f2 g1') is first order, so
    this is the banded matrix of that operator, exact at any coefficient degree.
    """
    return _band_matrix(_commutator_op(op1, op2), xi, degree)


def is_scalar(op: FirstOrderOp, tol: float = 1e-10) -> Optional[complex]:
    """Return eta if the operator is within tol of eta * identity."""
    f = op.fcoeffs.coeffs
    g = op.gcoeffs.coeffs
    if np.max(np.abs(f)) > tol:
        return None
    if len(g) > 1 and np.max(np.abs(g[1:])) > tol:
        return None
    return complex(g[0])


@dataclass(frozen=True)
class ZhuScanReport:
    """Result of the scalar-commutator scan over random algebra pairs."""

    samples: int
    xi: float
    seed: int
    scalar_hits: int
    max_scalar_magnitude: float
    min_nonscalar_margin: float


def zhu_scan(samples: int, xi: WeightParam, seed: int, tol: float = 1e-8) -> ZhuScanReport:
    """Draw random pairs (U, V) and check that no derived commutator operator
    is close to a nonzero multiple of the identity.

    A nonzero scalar hit would contradict the impossibility theorem and is
    raised as a hard error.
    """
    rng = np.random.default_rng(seed)
    scalar_hits = 0
    max_scalar = 0.0
    min_margin = np.inf
    for _ in range(samples):
        u = LieElement(float(rng.normal()), complex(rng.normal(), rng.normal()))
        v = LieElement(float(rng.normal()), complex(rng.normal(), rng.normal()))
        op = derived_op(bracket(u, v), xi)
        eta = is_scalar(op, tol)
        if eta is not None:
            scalar_hits += 1
            if abs(eta) > tol:
                raise RuntimeError(
                    f"commutator operator within {tol} of nonzero scalar {eta}"
                )
            max_scalar = max(max_scalar, abs(eta))
        else:
            # distance of the coefficient data from the scalar set
            f = op.fcoeffs.padded(2)
            g = op.gcoeffs.padded(1)
            margin = max(float(np.max(np.abs(f))), float(abs(g[1])))
            min_margin = min(min_margin, margin)
    return ZhuScanReport(
        samples=samples,
        xi=xi.xi,
        seed=seed,
        scalar_hits=scalar_hits,
        max_scalar_magnitude=max_scalar,
        min_nonscalar_margin=float(min_margin) if np.isfinite(min_margin) else 0.0,
    )


def bracket_op(u: LieElement, v: LieElement, xi: WeightParam) -> FirstOrderOp:
    """Derived operator of the Lie bracket [u, v]."""
    return derived_op(bracket(u, v), xi)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max entrywise deviation of a matrix from its conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T)))
