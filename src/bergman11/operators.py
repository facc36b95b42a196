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

Both builders and ``TriDiag.to_dense`` copy bands computed in the caller into
fresh zeros (``_dense``).  From ``PART_BYTES`` up the zeros are a private
anonymous mapping without huge pages, so a band write commits only the 4 KiB
page it lands in: about 12.6 % of the pages at N = 2048, where a row of 32 KiB
holds its few band entries in one or two pages.  Every other page reads as
the kernel's shared zero page, and a caller pays for that later: on one
N = 2048 Gram matrix the first full read takes about 1.6 times as long as on
numpy's zeros, as it maps the zero page 4 KiB at a time, and a write into
every entry about 6 times, as it commits each page then (see CHANGES.md).  No
caller here writes into a built matrix.  From 2 * ``PART_BYTES`` up the rows
are filled in the halves of ``parts.run``; no bit depends on the split.

A ``FirstOrderOp`` holds f and g with the coefficient index last; leading
axes are a batch of operators at one xi, and a single operator is a batch of
one.  ``derived_op``, ``commutator`` and both matrix builders take batches,
and ``stack`` zero-pads single operators into one.  ``apply`` maps a
coefficient batch (or a CoeffVector) through one operator.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import parts
from .su11 import BasisCoords, LieElement, bracket, coords
from .weights import CoeffVector, WeightParam, _coeffs, _derivative, _padded, basis_scales

# The size from which a matrix or stack is mapped; from twice it, it is split
# in two.  On the mapped path of a 2-CPU machine (see CHANGES.md) two parts
# lose to one at N = 724 (8.4 MB) and win from N = 1024 (16.8 MB).  Below it,
# mapping loses too: at N = 512 (4.2 MB) the median OperatorScale.run took
# 6.25 ms with every matrix mapped against 4.81 ms on numpy zeros, slower in
# 11 of 12 alternating rounds of 200 ops.  So verify's matrices (at most
# 4.2 MB) stay numpy zeros in one part.
PART_BYTES = 8 << 20


@dataclass(frozen=True, eq=False)
class FirstOrderOp:
    """The operator fcoeffs * d/dz + gcoeffs, or a batch over their leading axes.

    Each field is a read-only complex copy of the CoeffVector or array passed,
    which must be finite."""

    fcoeffs: np.ndarray
    gcoeffs: np.ndarray

    def __post_init__(self):
        for name in ("fcoeffs", "gcoeffs"):
            arr = np.array(_coeffs(getattr(self, name)), dtype=np.complex128, ndmin=1)
            if not np.isfinite(arr).all():
                raise ValueError("coefficients must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def stack(ops) -> FirstOrderOp:
    """One batch of ``ops``, each zero-padded to the longest f and g among them."""

    def rows(arrays):
        n = max(a.shape[-1] for a in arrays)
        return np.array([_padded(a, n) for a in arrays])

    return FirstOrderOp(rows([op.fcoeffs for op in ops]), rows([op.gcoeffs for op in ops]))


def apply(op: FirstOrderOp, h):
    """Coefficients of f*h' + g*h for one operator.

    ``h`` is a CoeffVector, giving a CoeffVector, or a (..., deg+1) coefficient
    batch, giving the batch of images over the same leading axes.  The
    products f_j z^j h' and then g_j z^j h are added in that order.
    """
    if op.fcoeffs.ndim > 1 or op.gcoeffs.ndim > 1:
        raise ValueError("apply takes one operator, not a batch")
    a = _coeffs(h)
    terms = ((op.fcoeffs, _derivative(a)), (op.gcoeffs, a))
    n = max(len(c) + x.shape[-1] for c, x in terms) - 1
    out = np.zeros(a.shape[:-1] + (n,), dtype=np.complex128)
    for c, x in terms:
        for j, cj in enumerate(c):
            if cj != 0:
                out[..., j : j + x.shape[-1]] += cj * x
    return CoeffVector(out) if isinstance(h, CoeffVector) else out


def gram_matrix(op: FirstOrderOp, xi: WeightParam, degree: int) -> np.ndarray:
    """Matrix M[m, n] = <L e_n, e_m> over the orthonormal basis, 0 <= m,n <= degree,
    or the stack of them for a batch.

    M[m, n] = (s_n / s_m)(n f_{m-n+1} + g_{m-n}), evaluated band by band as
    (f_{k+1} (n s_n) + g_k s_n) / s_m for each offset k = m - n.  Each entry is
    one elementwise expression, so a matrix has the same bits in any batch.
    """
    return _band_matrix(op, xi, degree)


def _band_matrix(op: FirstOrderOp, xi: WeightParam, degree: int) -> np.ndarray:
    """The matrices of ``gram_matrix``, shape (..., degree+1, degree+1)."""
    # shared by gram_matrix and commutator_matrix; private, so that call
    # tracing sees a commutator as one commutator_matrix call, not also a Gram one
    f, g = op.fcoeffs, op.gcoeffs
    s = basis_scales(xi, degree)
    ns = np.arange(degree + 1) * s
    nf, ng = f.shape[-1], g.shape[-1]
    bands = {}
    for k in range(-1, max(nf - 2, ng - 1) + 1):
        a, b = max(0, -k), max(0, -k, degree + 1 - max(0, k))  # columns a..b-1; empty past N
        fk = f[..., k + 1, None] if k + 1 < nf else 0.0
        gk = g[..., k, None] if 0 <= k < ng else 0.0
        bands[k] = (fk * ns[a:b] + gk * s[a:b]) / s[a + k : b + k]
    return _dense(np.broadcast_shapes(f.shape[:-1], g.shape[:-1]), degree + 1, bands)


def _dense(lead: tuple, size: int, bands: dict) -> np.ndarray:
    """Complex zeros of shape lead + (size, size) with bands[k][..., j] at row
    max(0, k) + j, column max(0, -k) + j, copied as strided slices of the flat
    matrix by ``parts.run``, in two halves from 2 * ``PART_BYTES`` up.
    From ``PART_BYTES`` up the zeros are a private anonymous mapping without
    huge pages where mmap has MAP_PRIVATE (not on Windows); below, numpy's."""
    shape = lead + (size, size)
    nbytes = 16 * math.prod(shape)
    if nbytes >= PART_BYTES and hasattr(mmap, "MAP_PRIVATE"):
        mapping = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        # no MADV_NOHUGEPAGE off Linux; EINVAL from a kernel without huge pages
        with contextlib.suppress(AttributeError, OSError):
            mapping.madvise(mmap.MADV_NOHUGEPAGE)
        m = np.frombuffer(mapping, dtype=np.complex128).reshape(shape)
    else:
        m = np.zeros(shape, dtype=np.complex128)
    flat, step = m.reshape(lead + (size * size,)), size + 1

    def fill(first, last):
        for k, values in bands.items():
            lo, hi = (min(max(0, row - max(0, k)), values.shape[-1]) for row in (first, last))
            start = max(0, k) * size + max(0, -k)
            flat[..., start + lo * step : start + hi * step : step] = values[..., lo:hi]

    parts.run(fill, size, nbytes >= 2 * PART_BYTES)
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
        return FirstOrderOp([a0, self.a1, np.conj(a0)], [self.b0, (self.xi.xi + 2.0) * np.conj(a0)])


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
    f = CoeffVector(op.fcoeffs).trimmed()
    g = CoeffVector(op.gcoeffs).trimmed()
    if f.degree > 2:
        return ClassifyVerdict(False, None, f"deg f = {f.degree} > 2")
    if g.degree > 1:
        return ClassifyVerdict(False, None, f"deg g = {g.degree} > 1")
    f, g = f.padded(2), g.padded(1)
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
        return _dense((), len(self.diag), {-1: self.sub, 0: self.diag, 1: self.sup})


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
    Array coordinates give a batch, whose entries have the bits of each alone.
    """
    s, t, l = c.sigma, c.tau, c.lam
    w = xi.xi + 2.0
    p = np.array([-t + 1j * l, 1j * (-2.0 * s - 2.0 * l), t + 1j * l])
    q = np.array([1j * (w * (-s - l)), w * t + 1j * (w * l)])
    return FirstOrderOp(np.moveaxis(p, 0, -1), np.moveaxis(q, 0, -1))


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
    op = rep_operator(dec.coords, xi)
    g = op.gcoeffs * 1j
    g[..., 0] += dec.d
    return FirstOrderOp(op.fcoeffs * 1j, g)


def derived_op(u: LieElement, xi: WeightParam) -> FirstOrderOp:
    """Derived-representation operator of the algebra element u; a stacked
    element (array fields) gives the batch of its operators."""
    return rep_operator(coords(u), xi)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of the polynomial rows of a and b, each row pair by np.convolve."""
    lead = a.shape[:-1]
    rows = [np.convolve(x, y) for x, y in zip(a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1]))]
    return np.reshape(rows, lead + (a.shape[-1] + b.shape[-1] - 1,))


def commutator(op1: FirstOrderOp, op2: FirstOrderOp) -> FirstOrderOp:
    """The first-order operator L1 L2 - L2 L1 = (f1 f2' - f2 f1') D + (f1 g2' - f2 g1'),
    or their batch for batches over the same leading axes.  np.convolve orders
    its sums by the lengths of its factors, so a batch entry rounds as the
    operator alone does when its arrays have the batch's lengths."""
    f1, g1, f2, g2 = op1.fcoeffs, op1.gcoeffs, op2.fcoeffs, op2.gcoeffs

    def diff(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        n = max(p.shape[-1], q.shape[-1])
        return _padded(p, n) - _padded(q, n)

    return FirstOrderOp(
        diff(_times(f1, _derivative(f2)), _times(f2, _derivative(f1))),
        diff(_times(f1, _derivative(g2)), _times(f2, _derivative(g1))),
    )


def commutator_matrix(op1: FirstOrderOp, op2: FirstOrderOp, xi: WeightParam, degree: int) -> np.ndarray:
    """Gram matrix of ``commutator(op1, op2)`` on e_0..e_N, or the stack of them:
    a commutator is first order, so this is exact at any coefficient degree."""
    return _band_matrix(commutator(op1, op2), xi, degree)


@dataclass(frozen=True)
class ZhuScanReport:
    """Result of the scalar-commutator scan over random algebra pairs."""

    scalar_hits: int
    max_scalar_magnitude: float
    min_nonscalar_margin: float


def zhu_scan(samples: int, xi: WeightParam, seed: int, tol: float = 1e-8) -> ZhuScanReport:
    """Draw random pairs (U, V) and check that no derived commutator operator
    is close to a nonzero multiple of the identity.

    The pairs are drawn in one call, each as a, Re b, Im b of U then of V, and
    decided together.  An operator p d/dz + q is within ``tol`` of the scalar
    q_0 when |p_j| <= tol and |q_1| <= tol; otherwise max(|p_j|, |q_1|) is its
    distance from the scalars.  A nonzero scalar hit would contradict the
    impossibility theorem and is raised as a hard error.
    """
    d = np.random.default_rng(seed).normal(size=(samples, 6))
    u = LieElement(d[:, 0], d[:, 1] + 1j * d[:, 2])
    v = LieElement(d[:, 3], d[:, 4] + 1j * d[:, 5])
    op = bracket_op(u, v, xi)
    distance = np.maximum(np.max(np.abs(op.fcoeffs), axis=-1), np.abs(op.gcoeffs[:, 1]))
    hit = distance <= tol
    eta = op.gcoeffs[hit, 0]
    if np.any(np.abs(eta) > tol):
        raise RuntimeError(
            f"commutator operator within {tol} of nonzero scalar {eta[np.argmax(np.abs(eta))]}"
        )
    return ZhuScanReport(
        scalar_hits=int(np.count_nonzero(hit)),
        max_scalar_magnitude=float(np.max(np.abs(eta), initial=0.0)),
        min_nonscalar_margin=0.0 if np.all(hit) else float(np.min(distance[~hit])),
    )


def bracket_op(u: LieElement, v: LieElement, xi: WeightParam) -> FirstOrderOp:
    """Derived operator of the Lie bracket [u, v]."""
    return derived_op(bracket(u, v), xi)


def hermiticity_defect(m: np.ndarray):
    """Max entrywise deviation of a matrix from its conjugate transpose: a
    numpy float scalar, or an array over the leading axes of a stack of
    matrices."""
    return np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), axis=(-2, -1))
