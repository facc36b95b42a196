"""Brute-force integration over the disc against the weighted measure.

This is the independent oracle for everything done in coefficient space: a
tensor rule with Gauss-Jacobi nodes in the radial variable s = r^2 (the
weight (xi+1)(1-s)^xi is folded into the rule, so radial polynomials of
degree <= 2R-1 integrate to machine precision for every xi > -1) and
uniform angles with trapezoid weights.

The grid is rank one, so it is stored as its two factors: the radii
sqrt(s_i) (R values) and the unit circle omega_j = exp(i theta_j),
theta_j = 2 pi j/M (M values).  The circle is mirrored by construction:
omega_0 = 1, omega_(M-j) = conj(omega_j) exactly, and omega_(M/2) = -1 for
even M.

The walk.  ``integrate`` and ``reproduce`` split the grid's rows into the
contiguous parts of ``parts.run``, and each part walks its rows in blocks of
whole rows, in buffers of its own (``_walk``); they hold no R x M array, which
``QuadratureGrid.nodes`` builds on request.  So an integrand may be called
from several threads at once, on disjoint read-only blocks, in no fixed
order; every integrand in this package is safe for that.

Rows alone.  Each row is summed over its angles on its own, the row sums go
through one dot with the radial weights after every part has finished, and
the total is divided by M: the order of a single pass over the grid.  So
neither the blocks nor the number of parts change a bit of a result.

Errors.  A non-finite row sum raises ValueError at the first block that has
one, and a non-finite radial total raises ValueError too, so neither
function returns inf or NaN.  ``parts.run`` raises the parts' errors in
part order, so the error is the one a serial walk raises.

``integrate`` forms the block's nodes r_i omega_j.  ``reproduce`` forms
none.  The measure is invariant under the rotations z -> e^(i phi) z, so
<f, K_w> = <f_phi, K_|w|> with phi = arg w and f_phi(z) = f(e^(i phi) z),
whose coefficients are a_k e^(ik phi); ``reproduce`` rotates the
coefficients and builds the kernel of the real point |w| from the factors,
1 - z |w| = 1 - r_i (|w| omega_j), whose real part is positive at every node
of every grid.  Since the angular rule is the trapezoid rule on M
equispaced points, the angular sum of conj(K) z^k on a row is one bin of the
discrete Fourier transform of the row's kernel values (Trefethen and
Weideman, SIAM Rev. 56, 2014, on the trapezoid rule), so ``reproduce``
transforms the kernel once per row instead of evaluating f at every node.
For a real |w| the row is Hermitian on the mirrored circle (its value at
M - j is the conjugate of its value at j), so its transform is real:
``reproduce`` evaluates the kernel on the circle's first half and takes a
real inverse transform.  The same rule aliases the kernel's terms of degree
n onto bin n mod M, which bounds how close to the unit circle ``reproduce``
resolves f(w) on a given M (see its docstring).

The radial rule is computed in numpy (``gauss_jacobi``): Halley steps on the
three-term recurrence from asymptotic initial guesses, as Hale and Townsend
do (SIAM J. Sci. Comput. 35, 2013).  For -0.999 <= xi <= 100 and
8 <= R <= 1100 its nodes agree with a Golub-Welsch (eigenvalue) rule to
6e-16 and its weights sum to 1 within 1e-13.  The weights are not rescaled to
the exact mass, so the mass check in ``QuadratureGrid`` tests the rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import parts
from .weights import CoeffVector, WeightParam

# Halley passes over all nodes before gauss_jacobi gives up; two suffice, and
# three near xi = -1 with few nodes.
MAX_PASSES = 12
# A pass whose largest step is below this fraction of the local node spacing
# (in units of pi/n along theta, x = cos theta) ends the iteration: the cubic
# rate leaves an error far below rounding after that step.
STEP_TOL = 1e-6
# Above this xi the initial guesses near s = 1 use Airy-zero phases (the
# zeros there sit past a turning point); at or below it, Bessel zeros.
_AIRY_XI = 3.0
# Nodes per block of whole rows in ``integrate``, and kernel values in
# ``reproduce``, whose rows hold floor(M/2) + 1 of them (half the circle):
# 24 Ki complex samples are 384 KiB, so the integrand's passes over a block
# stay in L2.  A serial sweep over 4-128 Ki on the benchmark grids put 16 and 32 Ki
# ahead; with the blocks walked on two CPUs, 24 and 32 Ki beat 16 Ki (fewer
# hand-offs of the interpreter lock between ufunc calls), and 24 Ki holds
# less memory (see CHANGES.md).  The default ``verify`` grids, 64 x 256 and
# 96 x 256, are one block each.
BLOCK_POINTS = 24576


def _bessel_zeros(nu: float, k: np.ndarray) -> np.ndarray:
    """Zeros j_{nu,k} of J_nu for k = 1, 2, ...: McMahon's expansion to four
    terms, and for nu < -0.6 Piessens' series in nu + 1 for the first zero,
    which tends to 0 as nu -> -1."""
    mu = 4.0 * nu * nu
    b = (k + nu / 2.0 - 0.25) * np.pi
    e = 1.0 / (8.0 * b)
    j = b - (mu - 1.0) * e * (
        1.0 + 4.0 * (7.0 * mu - 31.0) / 3.0 * e**2 + 32.0 * (83.0 * mu * mu - 982.0 * mu + 3779.0) / 15.0 * e**4
    )
    if nu < -0.6:
        v = nu + 1.0
        series = 1.0 + v / 4.0 - 7.0 * v**2 / 96.0 + 49.0 * v**3 / 1536.0 - 8363.0 * v**4 / 1474560.0
        j[0] = 2.0 * math.sqrt(v) * series
    return j


def _airy_phases(k: np.ndarray) -> np.ndarray:
    """(2/3)|a_k|^(3/2) for the zeros a_k of Ai, from the asymptotic series of
    |a_k| in t = 3 pi (4k - 1)/8 (Abramowitz-Stegun 10.4.105)."""
    t = 3.0 * np.pi * (4.0 * k - 1.0) / 8.0
    zero = t ** (2.0 / 3.0) * (1.0 + 5.0 / 48.0 * t**-2 - 5.0 / 36.0 * t**-4 + 77125.0 / 82944.0 * t**-6)
    return 2.0 / 3.0 * zero**1.5


def _initial_angles(n: int, a: float) -> np.ndarray:
    """Liouville-Green guesses theta_1 < ... < theta_n for the zeros cos(theta)
    of P_n^(a,0).

    With t = theta/2, A = n + (a+1)/2 and B = max(a, 0)/2, the Langer-modified
    equation has frequency sqrt(A^2 - B^2/sin^2 t), whose phase Phi from the
    turning point sin t = B/A is closed-form and reaches pi (A - B) at theta = pi.
    Zero k solves Phi = target_k.  Near theta = 0 the target is the Bessel
    phase of j_{a,k} (a <= 3) or the Airy phase of a_k (a > 3); near theta = pi
    it is pi (A - B) - j_{0,n+1-k}.  The guesses are within about 2e-3 of the
    node spacing (7e-3 near xi = -1 with few nodes), so that one Halley pass
    brings the nodes to rounding level.
    """
    A, B = n + (a + 1.0) / 2.0, max(a, 0.0) / 2.0
    k = np.arange(1.0, n + 1.0)
    half = (n + 1) // 2
    target = np.empty(n)
    near = k[:half]
    if a > _AIRY_XI:
        target[:half] = _airy_phases(near)
    else:
        j = _bessel_zeros(a, near)
        target[:half] = np.sqrt(j * j - a * a) - a * np.arccos(a / j) if a > 0 else j
    target[half:] = np.pi * (A - B) - _bessel_zeros(0.0, n + 1.0 - k[half:])
    c = math.sqrt(A * A - B * B)
    turn = 2.0 * math.asin(B / A)
    theta = turn + (np.pi - turn) * target / (np.pi * (A - B))
    for _ in range(20):
        st, ct = np.sin(theta / 2.0), np.cos(theta / 2.0)
        g = np.sqrt(np.maximum(A * A * st * st - B * B, 0.0))
        phase = np.pi * (A - B) + 2.0 * (B * np.arctan2(B * ct, g) - A * np.arcsin(np.minimum(A * ct / c, 1.0)))
        step = (phase - target) / np.maximum(g / st, 1e-2 * A)
        # at B = 0 the phase rounds to 0 near theta = 1e-8, and a step clipped onto
        # theta = turn = 0 would make g / st 0/0; such a step is not taken
        step = np.where(theta - step > 0.0, step, 0.0)
        theta = np.clip(theta - step, turn, np.pi)
        if np.max(np.abs(step)) * n < 1e-6:
            break
    return theta


def gauss_jacobi(n: int, a: float):
    """Nodes s_1 < ... < s_n in (0, 1) and weights of the n-point Gauss rule
    for the probability measure (a+1)(1-s)^a ds, a > -1.

    With x = 2s - 1 the nodes are the zeros of P_n^(a,0)(x).  The iteration
    runs in y = 1 - x = 2(1 - s), so that 1 - s keeps its relative precision
    near s = 1, where the weights are large for a < 0.  r_k = 2^k (monic
    P_k) obeys r_{k+1} = (2 - 2 alpha_k - 2y) r_k - 4 beta_k r_{k-1}; it is run
    in Reinsch's form delta_{k+1} = gamma_k delta_k - 2y r_k,
    r_{k+1} = rho_{k+1} r_k + delta_{k+1},
    with rho_k = r_k(0)/r_{k-1}(0) and gamma_k = 4 beta_k/rho_k, which carries y
    itself rather than 2 - 2y rounded.  Every factor is an integer plus a, so
    1 + a stays exact.  All n nodes take Halley steps together, with r' from
    r_n, r_{n-1} and r'' from the Jacobi equation, until the largest step is
    below ``STEP_TOL`` of the node spacing; ``RuntimeError`` after
    ``MAX_PASSES`` passes.

    The weight is 2 prod_{j<n}(4 beta_j) / (r_{n-1} r_n'), which equals
    (a+1)/((1-x^2) P_n'(x)^2).  It is taken in log space so that nothing
    overflows: at a = 98, n = 1024, P_n' reaches 1e130 at the nodes and the
    smallest weight is 1e-257.  r_n' at the final node is the Taylor step of
    second order from the last pass, and the product uses the same rounded
    beta_j as the recurrence, so the weights sum to 1 within 1e-13 for
    8 <= n <= 1100.
    """
    k = np.arange(1.0, n)
    m = np.arange(1.0, n + 1.0)
    beta4 = 16.0 * k * k * (k + a) ** 2 / ((2.0 * k + a) ** 2 * ((2.0 * k - 1.0) + a) * ((2.0 * k + 1.0) + a))
    rho = 4.0 * (m + a) / (2.0 * m + a) * (m + a) / ((2.0 * m - 1.0) + a)
    steps = list(zip((beta4 / rho[:-1]).tolist(), rho[1:].tolist()))
    top = 8.0 * n * (n + a) ** 2 / ((2.0 * n + a) * ((2.0 * n - 1.0) + a))
    y = 2.0 * np.sin(_initial_angles(n, a) / 2.0) ** 2
    tmp = np.empty(n)
    for _ in range(MAX_PASSES):
        v = 2.0 * y
        prev, delta = np.ones(n), -v
        r = rho[0] + delta
        for gamma, rho_next in steps:
            delta *= gamma
            np.multiply(r, v, out=tmp)
            delta -= tmp
            np.multiply(r, rho_next, out=prev)
            prev += delta
            prev, r = r, prev
        om = y * (2.0 - y)  # 1 - x^2
        d1 = n * (((2.0 * n + a) * y - 2.0 * n) * r + top * prev) / ((2.0 * n + a) * om)
        d2 = ((2.0 * a + 2.0 - (a + 2.0) * y) * d1 - n * (n + a + 1.0) * r) / om
        ratio = r / d1
        step = ratio / (1.0 - 0.5 * ratio * d2 / d1)
        if np.max(np.abs(step) / np.sqrt(om)) * n <= STEP_TOL:
            break
        y = y + step
    else:
        raise RuntimeError(f"Gauss-Jacobi nodes for xi={a}, n={n} did not converge in {MAX_PASSES} passes")
    d3 = ((2.0 * a + 4.0 - (a + 4.0) * y) * d2 + (a + 2.0 - n * (n + a + 1.0)) * d1) / om
    y = y + step
    d1 = d1 - d2 * step + 0.5 * d3 * step * step
    om = y * (2.0 - y)
    if not (y[0] > 0.0 and y[-1] < 2.0 and np.all(np.diff(y) > 0.0)):
        raise RuntimeError(f"Gauss-Jacobi nodes for xi={a}, n={n} are not separated")
    log_c = math.log(2.0) + math.fsum(np.log(beta4).tolist()) - math.log(
        (2.0 * n + a) ** 2 * ((2.0 * n - 1.0) + a) / (8.0 * n * n * (n + a) ** 2)
    )
    weights = np.exp(log_c - np.log(om) - 2.0 * np.log(np.abs(d1)))
    return (1.0 - y / 2.0)[::-1], weights[::-1]


@dataclass(frozen=True)
class KernelPoint:
    """A strictly interior kernel parameter point."""

    w: complex

    def __post_init__(self):
        if not abs(complex(self.w)) < 1.0:
            raise ValueError(f"kernel point must satisfy |w| < 1, got {self.w}")


class QuadratureGrid:
    """Radial x angular nodes and weights for the measure d(nu_xi).

    Node (i, j) is radii[i] * circle[j], with weight radial_weights[i] / M;
    only these factors are stored, and the package reads nothing else.
    ``weights``, an (R, M) broadcast view of the weights, and ``nodes`` are
    kept for the benchmark's tracer (``bench/spans.py``), which reads them."""

    def __init__(self, xi: WeightParam, radial_points: int = 64, angular_points: int = 256):
        if radial_points < 8:
            raise ValueError("radial_points must be >= 8")
        if angular_points < 16:
            raise ValueError("angular_points must be >= 16")
        self.xi = xi
        self.radial_points = radial_points
        self.angular_points = angular_points

        # the radial marginal (xi+1)(1-s)^xi ds has mass 1
        self.radial_nodes, self.radial_weights = gauss_jacobi(radial_points, xi.xi)

        self.angles = 2.0 * np.pi * np.arange(angular_points) / angular_points
        self.radii = np.sqrt(self.radial_nodes)
        # mirrored by construction (see the module docstring); exp(i pi)
        # would carry an imaginary part of 1.2e-16
        arc = np.exp(1j * self.angles[: angular_points // 2 + 1])
        if angular_points % 2 == 0:
            arc[-1] = -1.0
        self.circle = np.concatenate([arc, np.conj(arc[(angular_points + 1) // 2 - 1 : 0 : -1])])
        self.weights = np.broadcast_to(self.radial_weights[:, None] / angular_points, (radial_points, angular_points))

        mass = float(np.sum(self.radial_weights))
        # written so that a NaN mass fails too
        if not abs(mass - 1.0) <= 1e-12:
            raise RuntimeError(f"quadrature weights sum to {mass}, expected 1")
        # read-only, so that one grid can be shared (``weights`` is a broadcast view)
        for array in (self.radial_nodes, self.radial_weights, self.angles, self.radii, self.circle):
            array.flags.writeable = False

    def _rows(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Nodes of rows start..stop-1, written to ``out`` if given: the one
        formula for a node.  The radii are cast to complex first, as numpy would
        cast them in the product, but once each rather than once per node."""
        radii = self.radii[start:stop, None].astype(np.complex128)
        return np.multiply(radii, self.circle[None, :], out=out)

    @property
    def nodes(self) -> np.ndarray:
        """The full (R, M) node array, read-only, built anew on each access
        (kept for the benchmark's tracer)."""
        nodes = self._rows(0, self.radial_points)
        nodes.flags.writeable = False
        return nodes


def _walk(grid: QuadratureGrid, walk, row_length: int) -> complex:
    """The radial sum of the row sums that ``walk`` writes, when a row holds
    ``row_length`` values: the walk, the sum order and the error order of the
    module docstring.

    A block is step = max(1, ``BLOCK_POINTS`` // row_length) whole rows, and the
    parts are at most ceil(R / step), so a grid of one block starts no thread.
    ``walk(first, last, step, rows)`` walks rows first..last-1 in blocks of
    ``step`` rows in order, writes each block's row sums to rows[start:stop]
    and raises at its first bad block.  It sizes its buffers by its first
    block and reuses them for the rest (only the last block may be shorter):
    a fresh 384 KiB array per block is mapped and faulted in anew, which
    costs more than filling it."""
    r, step = grid.radial_points, max(1, BLOCK_POINTS // row_length)
    rows = np.empty(r, dtype=np.complex128)
    parts.run(lambda first, last: walk(first, last, step, rows), r, -(-r // step))
    return _radial_sum(rows, grid)


def _non_finite_row(sums: np.ndarray, start: int, grid: QuadratureGrid) -> ValueError:
    """The error for the first non-finite entry of ``sums``, the sums of rows
    start, start + 1, ...: it names the row's radius."""
    i = start + np.flatnonzero(~np.isfinite(sums))[0]
    return ValueError(f"non-finite quadrature sum on the row of radius r={grid.radii[i]}")


def _radial_sum(rows: np.ndarray, grid: QuadratureGrid) -> complex:
    """The finite row sums against the radial weights, divided by the angular
    count.  Row sums near the largest double can still overflow in the dot;
    a non-finite total raises ValueError, so no caller returns inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = complex(rows.real @ grid.radial_weights, rows.imag @ grid.radial_weights)
    if not cmath.isfinite(total):
        raise ValueError(f"non-finite quadrature sum {total} over the radial weights")
    return total / grid.angular_points


def integrate(F, grid: QuadratureGrid) -> complex:
    """Approximate the integral of F over the disc against d(nu_xi).

    F is an elementwise callable on complex arrays, such as a CoeffVector.
    It is called once per block of whole radial rows (see ``_walk``), never
    on the full grid, so its temporaries stay in cache; the nodes are
    read-only, formed from the grid's factors in one buffer per part.  A
    result not of its block's shape raises ValueError.  The walk, the sum
    order and the errors are those of the module docstring: a non-finite row
    sum names the block's first non-finite node if a sample is not finite
    (earlier blocks hold none), and else the radius of the row whose finite
    samples overflowed their sum.
    """

    def walk(first, last, step, rows):
        nodes = np.empty((min(step, last - first), grid.angular_points), dtype=np.complex128)
        for start in range(first, last, step):
            stop = min(start + step, last)
            block = grid._rows(start, stop, nodes[: stop - start])
            block.flags.writeable = False
            samples = np.asarray(F(block), dtype=np.complex128)
            if samples.shape != block.shape:
                raise ValueError(f"integrand gave shape {samples.shape} on a block of shape {block.shape}")
            sums = rows[start:stop]
            # an overflow or inf - inf shows as a non-finite row sum, which raises below
            with np.errstate(over="ignore", invalid="ignore"):
                np.sum(samples, axis=1, out=sums)
            if not np.all(np.isfinite(sums)):
                bad = np.argwhere(~np.isfinite(samples))
                if len(bad):
                    i, j = bad[0]
                    raise ValueError(f"non-finite sample at quadrature node z={block[i, j]}")
                raise _non_finite_row(sums, start, grid)

    return _walk(grid, walk, grid.angular_points)


def _kernel_from_b(b: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """b^p on the principal branch, written to the complex array ``out``.

    ``b`` is real scratch of shape (3,) + out.shape whose planes 0 and 1 hold
    Re b > 0 and Im b; all three planes are overwritten.  Every pass reads and
    writes contiguous planes except the three that fill ``out``.  The power
    is taken in real polar form, |b|^p = exp(p/2 * log(Re(b)^2 + Im(b)^2)) and
    arg b^p = p * arctan2(Im b, Re b), and its cosine and sine come from one
    tangent of the half phase, t = tan(p theta/2): cos = (1 - t^2)/(1 + t^2)
    and sin = 2t/(1 + t^2), a few multiplies in place of np.cos and np.sin,
    which cost several times np.tan.  Near the poles of tan,
    p theta = +-pi, +-3pi, ..., t is large but finite (about 1e16 at most) and
    the sine 2t/(1 + t^2) keeps its absolute accuracy.
    """
    re, im, half = b
    np.arctan2(im, re, out=half)
    half *= 0.5 * p
    np.multiply(re, re, out=re)
    np.multiply(im, im, out=im)
    re += im
    np.log(re, out=re)
    re *= 0.5 * p
    modulus = np.exp(re, out=re)
    # no double is an odd multiple of pi/2, so |t| stays far below the 1e154
    # where t^2 overflows
    t = np.tan(half, out=half)
    np.multiply(t, t, out=im)
    np.subtract(1.0, im, out=out.real)
    im += 1.0
    modulus /= im
    out.real *= modulus
    t += t
    np.multiply(t, modulus, out=out.imag)
    return out


def kernel_eval(z, w: KernelPoint, xi: WeightParam):
    """Reproducing kernel K(z, w) = (1 - z*conj(w))^{-(xi+2)}, principal branch.

    Defined wherever |z conj(w)| < 1, since Re(1 - z*conj(w)) > 0 there:
    every z when w = 0, else |z| < 1/|w|, which admits disc nodes that round
    onto |z| = 1 + 2.2e-16 as xi -> -1; other z raise ValueError.  ``z`` is
    only read: b = 1 - z*conj(w) is formed in a complex buffer the shape of
    ``z``, Re b and Im b are copied into three real planes of scratch, and
    ``_kernel_from_b`` writes the power b^(-(xi+2)) back into the complex
    buffer.  ``reproduce`` forms conj(b) = 1 - r_i (|w| conj(omega_j)) from the
    grid's factors on the circle's first floor(M/2) + 1 points and calls the
    same core, so the power has one formula.  Against 40-digit mpmath the
    relative error in samples is at most 7.4e-15 at xi = -0.9 and 6.5e-13 at
    xi = 98 for |w| <= 0.99 and |z| <= 0.999, to two digits the same as with
    np.cos and np.sin and as complex log/exp: the rounding of 1 - z*conj(w),
    amplified by xi+2, dominates all three.  Within 1e-9 of the poles of the
    half-phase tangent it is at most 2.6e-14.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    b = np.empty((3,) + z.shape)
    if w.w != 0 and np.any(np.abs(z, out=b[0]) >= 1.0 / abs(w.w)):
        raise ValueError("kernel evaluation requires |z conj(w)| < 1")
    out = np.multiply(z, np.conj(complex(w.w)))
    np.subtract(1.0, out, out=out)
    b[0], b[1] = out.real, out.imag
    _kernel_from_b(b, -(xi.xi + 2.0), out)
    return complex(out[0]) if scalar else out


def reproduce(f: CoeffVector, w: KernelPoint, xi: WeightParam, grid: QuadratureGrid) -> complex:
    """Evaluate <f, K_w> by quadrature; the reproducing identity makes this f(w)
    up to the resolution limit below.  The grid must resolve f: ValueError
    unless deg f < M and deg f <= R - 4.

    The rotations z -> e^(i phi) z leave nu_xi invariant, so with rho = |w|,
    phi = arg w and f_phi(z) = f(e^(i phi) z), whose coefficients are
    a_k e^(ik phi), <f, K_w> = <f_phi, K_rho>.  ``reproduce`` applies the
    grid's rule to the right-hand side: the same Gauss-Jacobi x trapezoid rule
    with its angular origin turned to arg w.  The angular rule is the
    trapezoid rule on the M points omega_j of the circle, so the angular sum
    of conj(K_rho) f_phi on row i is sum_k a_k e^(ik phi) r_i^k G_i[k]
    with G_i[k] = sum_j conj(K_ij) omega_j^k, a discrete Fourier transform of
    the row's kernel values K_ij = (1 - r_i rho omega_j)^-(xi+2).  Since the
    circle is mirrored and the principal power commutes with conjugation,
    K_i,(M-j) = conj(K_ij): G_i is real, and the first floor(M/2) + 1 values
    of the row determine it.

    The kernel is built from the grid's factors, never from nodes, on that
    half of the circle only.  Per block of rows, Re b = 1 - r_i (rho Re omega_j)
    and Im of conj(b) = r_i (rho Im omega_j) go into real scratch,
    ``_kernel_from_b`` writes conj(b)^-(xi+2) = conj(K) into a complex buffer,
    and ``numpy.fft.irfft`` (n = M, unscaled) writes G's M real bins into the
    scratch, which the kernel no longer needs.  The terms a_k e^(ik phi) r_i^k
    are multiplied by bins 0..deg f and summed per row.  The blocks are sized
    by the half row, or by the deg f + 1 terms when those are longer, so every
    array a part makes is at most one block; each part allocates the scratch
    and the buffer once.  The walk, the sum order and the errors are those of
    the module docstring: a non-finite row sum, as when conj(K) f overflows,
    names the row's radius.  No domain check is needed: Re b >= 1 - rho > 0
    in rounding, for every w and every grid (see the comment in the body).

    This is the finite sum of ``integrate`` applied to conj(K_rho) f_phi, in
    another order, with b formed as 1 - r (rho omega) rather than
    1 - (r omega) rho, and without evaluating f_phi at any node: the two agree
    to rounding, not bit for bit.

    Resolution limit.  With c_n = (xi+2)_n/n!, conj(K(r omega, rho)) is
    sum_n c_n rho^n r^n omega^-n, and the M-point rule keeps of the kernel's
    terms not only n = k against a_k e^(ik phi) omega^k but every
    n = k (mod M): it aliases them onto bin k, since deg f < M.  With W_i the
    radial weights and Q[r^p] = sum_i W_i r_i^p the radial rule's moments
    (close to the exact moments E_xi[r^p]), the n = k terms sum to f(w)
    exactly, since the radial rule integrates s^k exactly for deg f <= R - 4.
    So in exact arithmetic ``reproduce`` returns f(w) plus
    sum_k a_k e^(ik phi) sum_{j >= 1} c_(k+jM) rho^(k+jM) Q[r^(2k+jM)],
    which is at most
    sum_k |a_k| |w|^k sum_{j >= 1} c_(k+jM) |w|^(jM) Q[r^(2k+jM)]
    in modulus, and equal to it when every a_k e^(ik arg w) >= 0.  It is about
    W_R sum_{j >= 1} c_(jM) (r_R |w|)^(jM) for f = 1, which is small only
    when (r_R |w|)^M is.  Near |w| = 1 on a coarse grid it is not: on a
    64 x 16 grid near xi = -1 at |w| = 1 - 2^-53 it exceeds 1e14.  No error
    is raised then; the value returned is finite and far from f(w), so M
    must be chosen for the w asked about.
    """
    m = grid.angular_points
    if f.degree >= m or grid.radial_points < f.degree + 4:
        raise ValueError(f"grid of {grid.radial_points} x {m} points too coarse for degree {f.degree}")
    half = m // 2 + 1
    rho, phi = cmath.polar(complex(w.w))
    n = len(f.coeffs)
    # float exponents, so that np.power casts no integer table per block
    powers = np.arange(n, dtype=np.float64)
    # Re and Im of the rotated coefficients side by side, so that their
    # products with the real powers cast nothing to complex
    pairs = (f.coeffs * np.exp(1j * phi * powers)).view(np.float64).reshape(n, 2)
    # v_j = rho omega_j on the first half of the circle.  Re b =
    # 1 - r_i (rho cos theta_j) >= 1 - rho > 0 in rounding, as r_i <= 1,
    # |cos theta_j| <= 1, rho <= 1 - 2^-53 and rounding is monotone: every
    # node of every grid is inside the kernel's domain, and no check is needed
    arc = grid.circle[:half]
    re_v, im_v = rho * arc.real, rho * arc.imag
    p = -(xi.xi + 2.0)

    def walk(first, last, step, rows):
        height = min(step, last - first)
        scratch = np.empty((3, height, half))
        kernel = np.empty((height, half), dtype=np.complex128)
        for start in range(first, last, step):
            stop = min(start + step, last)
            count = stop - start
            radii = grid.radii[start:stop, None]
            b = scratch[:, :count]
            np.multiply(radii, re_v, out=b[0])
            np.subtract(1.0, b[0], out=b[0])
            # Im conj(b), so that the core writes conj(K)
            np.multiply(radii, im_v, out=b[1])
            conj_kernel = _kernel_from_b(b, p, kernel[:count])
            # M <= 2 * half - 1 real bins fit in the scratch
            spectrum = scratch.reshape(-1)[: count * m].reshape(count, m)
            # an overflow shows as a non-finite row sum, which raises below
            with np.errstate(over="ignore", invalid="ignore"):
                np.fft.irfft(conj_kernel, n=m, axis=1, norm="forward", out=spectrum)
                # the terms a_k e^(ik phi) r_i^k against bins 0..deg f
                terms = np.empty((count, n), dtype=np.complex128)
                planes = terms.view(np.float64).reshape(count, n, 2)
                np.multiply(np.power(radii, powers)[:, :, None], pairs, out=planes)
                planes *= spectrum[:, :n, None]
                sums = rows[start:stop]
                np.sum(terms, axis=1, out=sums)
            if not np.all(np.isfinite(sums)):
                raise _non_finite_row(sums, start, grid)

    return _walk(grid, walk, max(half, n))
