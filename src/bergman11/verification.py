"""Property registry behind the ``verify`` CLI command and the acceptance tests.

Each property is a generator ``(cfg, rng, recipe)`` that re-checks invariants
of the engine and yields ``(check, value)`` or ``(check, value, detail)``,
where ``value`` is a number or an array of measured values and ``detail`` a
note reported with the check.  ``run_property`` reduces what a property
yields to one ``PropertyCheck`` per check: its margin is the largest value
yielded for it over all samples (NaN if any is NaN), and it passes iff
margin <= tolerance.  ``REGISTRY`` lists every property once: its suite, the tolerance
of each of its checks, the recipe ``verify`` runs it with and, where it has
one, the numbered acceptance criterion that runs it with its own seed and a
larger recipe.  Everything is driven by a RunConfig and a seeded generator,
so two runs with the same configuration produce identical reports.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from . import quadrature as quad
from . import representation as rep
from . import su11
from . import uncertainty as up
from . import weights
from . import weightshift as ws
from . import operators as ops
from .weights import CoeffVector, WeightParam

CONVENTIONS = [
    "group action evaluated with Moebius numerator conj(alpha) z - beta "
    "(corrected; pinned by the central-difference check)",
    "the element W is taken as the explicit matrix [[0,-i],[i,0]] = Z - X",
    "kernel step-one shift uses alpha = 1/(xi+2); the alternative 2/(xi+2) "
    "is reported for comparison and has a nonzero residual",
]

# shift_iso builds the weight xi + 2, which must stay within weights.XI_MAX
VERIFY_XI_MAX = weights.XI_MAX - 2.0


TOLERANCE = (lambda v: 0.0 <= v < np.inf, "finite and >= 0")  # false for NaN too
# Each RunConfig field: what it is, a test of its value, and the rule its error and --help state
FIELD_RULES = {
    "xi": ("weight parameter", lambda v: -1.0 < v <= VERIFY_XI_MAX, f"in (-1, {VERIFY_XI_MAX:g}]"),
    "trunc": ("working truncation degree", lambda v: 1 <= v <= 10**5, "in [1, 100000]"),
    "quad_r": ("radial quadrature points", lambda v: 8 <= v <= 1100, "in [8, 1100]"),
    "quad_m": ("angular quadrature points", lambda v: 48 <= v <= 16384, "in [48, 16384]"),
    "seed": ("generator seed", lambda v: v >= 0, ">= 0"),
    "tol_exact": ("tolerance of the exact checks", *TOLERANCE),
    "tol_quad": ("tolerance of the quadrature checks", *TOLERANCE),
}


def check_rule(name: str, value, rule) -> None:
    """Raise the one message every command prints for a value outside its
    rule (what it is, a test of its value, the rule text)."""
    _, accepts, text = rule
    if not accepts(value):
        raise ValueError(f"{name} must be {text}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines the emitted numbers; construction checks
    every field by ``FIELD_RULES`` and raises ValueError naming its flag.

    The quad_m floor is measured over 12 seeds x xi in {0, -0.999, 1.5, 98}:
    M = 32 failed 60 checks, and the worst unitarity margin was 3.9e-7 at
    M = 40 (2.6x under tol_quad), 1.7e-9 at M = 48 and 3.6e-14 at M = 64.
    The caps: angular_exactness's margin grows as about 3.9e-17 M and
    crosses its 1e-12 near M = 25 700 (6.3e-13 at M = 16384); quad_r is the
    radial rule's validated range; and trunc = 1e5 keeps a run near 1 s and
    200 MB, where 1e11 fails to allocate."""

    xi: float = 0.0
    trunc: int = 24
    quad_r: int = 64
    quad_m: int = 256
    seed: int = 20240901
    tol_exact: float = 1e-10
    tol_quad: float = 1e-6

    def __post_init__(self):
        for name, rule in FIELD_RULES.items():
            check_rule("--" + name.replace("_", "-"), getattr(self, name), rule)

    def weight(self) -> WeightParam:
        return WeightParam(self.xi)


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    margin: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class Recipe:
    """The sample plan of one property run; fixed numbers, never configured.

    ``samples`` counts draws per xi of ``xis`` (``None``: the run's cfg.xi),
    or in total when each sample draws its xi uniformly from ``xi_range``.
    With ``random_degree`` each polynomial degree is drawn from 0..``degree``.
    ``n`` is a matrix size or a k range, ``shifts`` the (w, y) shift grids
    and ``points`` the kernel points.
    """

    samples: int = 0
    degree: int = 0
    random_degree: bool = False
    xis: Optional[Tuple[float, ...]] = None
    xi_range: Optional[Tuple[float, float]] = None
    n: int = 0
    shifts: Tuple[Tuple[float, ...], Tuple[float, ...]] = ((), ())
    points: Tuple[complex, ...] = ()


def _xis(cfg: RunConfig, recipe: Recipe):
    return (cfg.xi,) if recipe.xis is None else recipe.xis


def _xi_draws(cfg: RunConfig, rng, recipe: Recipe):
    """The xi of each sample, drawn just before the sample's own draws."""
    if recipe.xi_range is not None:
        for _ in range(recipe.samples):
            yield float(rng.uniform(*recipe.xi_range))
    else:
        for x in _xis(cfg, recipe):
            for _ in range(recipe.samples):
                yield x


def _draws_by_xi(cfg: RunConfig, rng, recipe: Recipe, draw) -> List[Tuple[float, list]]:
    """(xi, samples) for each run of samples that share their xi: every
    sample is ``draw(rng, xi)``, drawn just after its xi as a per-sample loop
    draws it, so that a property can evaluate each run as one batch."""
    runs: List[Tuple[float, list]] = []
    for x in _xi_draws(cfg, rng, recipe):
        sample = draw(rng, x)
        if runs and runs[-1][0] == x:
            runs[-1][1].append(sample)
        else:
            runs.append((x, [sample]))
    return runs


def _degree(rng, recipe: Recipe) -> int:
    return int(rng.integers(0, recipe.degree + 1)) if recipe.random_degree else recipe.degree


def _random_coeffs(rng, degree) -> np.ndarray:
    return rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)


def _random_rows(rng, samples: int, degree: int) -> np.ndarray:
    """``samples`` rows of ``_random_coeffs(rng, degree)`` in one draw: the
    generator fills the array in the order the rows would draw it."""
    d = rng.normal(size=(samples, 2, degree + 1))
    return d[:, 0] + 1j * d[:, 1]


def _random_poly(rng, degree) -> CoeffVector:
    return CoeffVector(_random_coeffs(rng, degree))


def _poly_batch(rng, recipe: Recipe) -> np.ndarray:
    """``samples`` random polynomials as rows zero-padded to ``recipe.degree``,
    each drawn (degree, then coefficients) in the order a per-sample loop
    draws them."""
    if not recipe.random_degree:
        return _random_rows(rng, recipe.samples, recipe.degree)
    batch = np.zeros((recipe.samples, recipe.degree + 1), dtype=np.complex128)
    for row in batch:
        d = _degree(rng, recipe)
        row[: d + 1] = _random_coeffs(rng, d)
    return batch


def _poly_batches(cfg: RunConfig, rng, recipe: Recipe):
    """(xi, ``_poly_batch``) for each xi of the recipe."""
    for x in _xis(cfg, recipe):
        yield x, _poly_batch(rng, recipe)


def _random_element(rng) -> su11.LieElement:
    return su11.LieElement(rng.normal(), complex(rng.normal(), rng.normal()))


def _stacked(elements) -> su11.LieElement:
    """One LieElement whose fields are arrays over ``elements``."""
    return su11.LieElement(np.array([e.a for e in elements]), np.array([e.b for e in elements]))


@functools.lru_cache(maxsize=8)
def _shared_grid(wp: WeightParam, radial_points: int, angular_points: int) -> quad.QuadratureGrid:
    """One grid per (xi, R, M); its arrays are read-only, so properties share it.

    A default ``verify`` builds 8 distinct grids for 12 requests, and an LRU
    of 8 keeps every repeat; ``run_suites`` empties it when it returns."""
    return quad.QuadratureGrid(wp, radial_points, angular_points)


def _grid(cfg: RunConfig, wp: WeightParam, radial_points: Optional[int] = None) -> quad.QuadratureGrid:
    return _shared_grid(wp, radial_points or cfg.quad_r, cfg.quad_m)


XI_SCAN = (-0.5, 0.0, 1.0, 2.5)


# ---------------------------------------------------------------------------
# weight_core


def norm_ratio_recurrence(cfg, rng, recipe):
    """||z^{k-1}||^2 = (xi+1+k)/k ||z^k||^2 at every listed xi and cfg.xi."""
    k = np.arange(1, recipe.degree + 1, dtype=float)
    for x in recipe.xis + (cfg.xi,):
        w = weights.monomial_norms_sq(WeightParam(x), recipe.degree)
        rhs = (x + 1.0 + k) / k * w[1:]
        yield "norm_ratio_recurrence", np.abs(w[:-1] - rhs) / np.abs(rhs)


def shift_limit_monotone(cfg, rng, recipe):
    """dist_l(k) = |(||z^{k+l}||^2 / ||z^k||^2) - 1| decreases to 0 within its
    product bounds over k <= degree (l = 1, 2, 3).

    ||z^{k+1}||^2 / ||z^k||^2 = (k+1)/(k+xi+2) = 1 - a_k with
    a_k = (xi+1)/(k+xi+2) in (0, 1), so dist_l(k) = 1 - prod_{j<l} (1 - a_{k+j}).
    a_k decreases in k, so dist_l(k) decreases and lies in
    [1 - (1 - a_{k+l-1})^l, sum_{j<l} a_{k+j}], both ends of order l (xi+1)/k.
    shift_limit_monotone is the largest step dist_l(k+1) - dist_l(k);
    shift_limit_bound the largest excess of dist_l(k) outside the interval, an
    absolute one since the interval has zero width at l = 1.  The lower end is
    -expm1(l log1p(-a)), which does not cancel near xi = -1.

    Rounding floor, u = 2^-53: the ratio 1 - dist_l(k) <= 1 takes two exps
    (1 ulp each) and a quotient, 5u, and 1 - ratio at most u dist; the L_k
    cumsum adds 3u|L_k| <= 24u(xi+1), far below the exact decrease >= 8e-7
    (xi+1).  A step thus reads <= 10u = 1.1e-15 above its exact value <= 0;
    the tolerance rounds that up to 1.2e-15 (measured: 1 eps near xi = -1).
    """
    wp = cfg.weight()
    n = recipe.degree + 1
    w = weights.monomial_norms_sq(wp, n + 2)
    a = (wp.xi + 1.0) / (np.arange(n + 2) + wp.xi + 2.0)
    for ell in (1, 2, 3):
        dist = np.abs(w[ell : n + ell] / w[:n] - 1.0)
        lo = -np.expm1(ell * np.log1p(-a[ell - 1 : n + ell - 1]))
        hi = sum(a[j : n + j] for j in range(ell))
        yield "shift_limit_monotone", np.diff(dist)
        yield "shift_limit_bound", np.maximum(lo - dist, dist - hi)


def oracle_equivalence_monomials(cfg, rng, recipe):
    """Coefficient inner products of monomials agree with disc quadrature.

    The Gram matrix of z^0..z^n is summed over the grid's radial rows as
    (P_r w_r) P_r^H, with P_r the powers at the row's M angular nodes and w_r
    the row's weight; one row at a time, so no (n+1) x R x M array is held.
    The grid is a product of radii and circle, so P_r = r^k * circle^k, with
    the circle's powers taken once per grid."""
    k = np.arange(recipe.degree + 1)[:, None]
    for x in recipe.xis:
        wp = WeightParam(x)
        grid = _grid(cfg, wp)
        circle_powers = grid.circle**k
        gram = np.zeros((recipe.degree + 1, recipe.degree + 1), dtype=np.complex128)
        for r, w_r in zip(grid.radii, grid.radial_weights / grid.angular_points):
            powers = r**k * circle_powers
            gram += (powers * w_r) @ powers.conj().T
        expected = np.diag(weights.monomial_norms_sq(wp, recipe.degree))
        yield "oracle_equivalence_monomials", np.abs(gram - expected)


def sobolev_norm_equivalence(cfg, rng, recipe):
    """m ||f||_alt^2 <= ||f||_sob^2 <= M ||f||_alt^2 at degree cfg.trunc.

    The order-one Sobolev weights are 1, k^2 and the alternative ones
    1, k(k+xi+1) (k >= 1), so mode by mode the ratio is 1 at k = 0 and
    k/(k+xi+1) < 1 after: over k >= 0, m = 1/(xi+2) and M = 1.  The margin is
    the largest relative excess over either bound among the samples; it is
    negative while every sample lies strictly inside.
    """
    wp = cfg.weight()
    k = np.arange(cfg.trunc + 1, dtype=float)
    phi_alt = k * (k + cfg.xi + 1.0)
    phi_sob = k**2
    phi_alt[0] = phi_sob[0] = 1.0
    ratio = phi_sob / phi_alt
    m, big_m = float(np.min(ratio)), float(np.max(ratio))
    batch = _random_rows(rng, recipe.samples, cfg.trunc)
    alt = weights.weighted_norm_sq(batch, wp, phi_alt)
    sob = weights.sobolev_norm_sq(batch, wp, 1)
    yield "sobolev_norm_equivalence", (m * alt - sob) / (m * alt), f"m={m:.6g} M={big_m:.6g}"
    yield "sobolev_norm_equivalence", (sob - big_m * alt) / (big_m * alt)


# ---------------------------------------------------------------------------
# disc_oracle


def quadrature_rule(cfg, rng, recipe):
    """cfg's grid is a probability measure; the radial rule integrates s^k
    exactly at the listed xi for k <= 2R - 1; the angular nodes annihilate
    0 < |k| < M."""
    grid = _grid(cfg, cfg.weight())
    yield "probability_measure", abs(quad.integrate(lambda z: np.ones_like(z), grid) - 1.0)
    for x in recipe.xis:
        wpx = WeightParam(x)
        g = _grid(cfg, wpx)
        # an R-point Gauss rule is exact for s^k with k <= 2R - 1 only
        top = min(recipe.degree, 2 * cfg.quad_r - 1)
        norms = weights.monomial_norms_sq(wpx, top)
        yield "radial_exactness", [
            abs(float(np.sum(g.radial_weights * g.radial_nodes**k)) - norms[k]) for k in range(0, top + 1, 5)
        ]
    ks = (1, 2, 7, cfg.quad_m // 2, cfg.quad_m - 1)
    yield "angular_exactness", [abs(np.sum(np.exp(1j * k * grid.angles))) / cfg.quad_m for k in ks]


def kernel_series_consistency(cfg, rng, recipe):
    """The partial sums S_k of K(z, w) = (1 - z conj(w))^{-(xi+2)} stay within
    their tail bound, relative to |K|, up to the degree where it drops below
    the unit roundoff.

    The terms are t_k = ((xi+2)_k / k!) (z conj(w))^k, whose ratio
    rho_k = |t_{k+1} / t_k| = q (k+xi+2)/(k+1), q = |z conj(w)|, decreases to
    q < 1.  Once rho_{k+1} < 1 every later ratio is at most rho_{k+1}, so
    |K - S_k| <= B_k = |t_{k+1}| / (1 - rho_{k+1}).  The degree n is the first
    k with B_k <= u |K|, u the unit roundoff; it grows with xi, because the
    terms grow like k^{xi+1} q^k before they decay.  The margin is the largest
    (|S_k - K| - B_k) / |K| over the k <= n where the bound holds.
    """
    wp = cfg.weight()
    z, w = 0.5, quad.KernelPoint(0.4 + 0.2j)
    target = quad.kernel_eval(z, w, wp)
    q = abs(z * w.w)
    degree = 32
    while True:
        k = np.arange(degree + 1)
        terms = ws.kernel_coeffs(wp, w, degree) * z**k
        gap = 1.0 - q * (k[1:] + wp.xi + 2.0) / (k[1:] + 1.0)  # 1 - rho_{k+1} at k = 0..degree-1
        bound = np.divide(np.abs(terms[1:]), gap, out=np.full(degree, np.inf), where=gap > 0.0)
        converged = np.flatnonzero(bound <= 0.5 * np.finfo(float).eps * abs(target))
        if converged.size:
            break
        degree *= 2
    n = converged[0]
    resid = np.abs(np.cumsum(terms[: n + 1]) - target)
    excess = (resid - bound[: n + 1])[gap[: n + 1] > 0.0]
    yield "kernel_series_consistency", np.max(excess) / abs(target)


def reproducing_identity(cfg, rng, recipe):
    """<f, K_w> by quadrature equals f(w): z^3 at w = 0.3+0.2i on cfg's grid,
    then random (xi, f, w) with |Re w|, |Im w| <= 0.45."""
    wp = cfg.weight()
    f = CoeffVector([0.0, 0.0, 0.0, 1.0])
    w = quad.KernelPoint(0.3 + 0.2j)
    yield "reproducing_identity_spot", abs(quad.reproduce(f, w, wp, _grid(cfg, wp)) - f(w.w))
    for x in _xi_draws(cfg, rng, recipe):
        wpx = WeightParam(x)
        f = _random_poly(rng, _degree(rng, recipe))
        w = quad.KernelPoint(complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)))
        yield "reproducing_identity_spot", abs(quad.reproduce(f, w, wpx, _grid(cfg, wpx)) - f(w.w))


# ---------------------------------------------------------------------------
# su11_algebra


def basis_relations(cfg, rng, recipe):
    x, y, z, w = su11.X_GEN, su11.Y_GEN, su11.Z_GEN, su11.W_GEN
    yield "bracket_WY_is_minus_2X", (su11.bracket(w, y) - (-2.0 * x)).norm()
    yield "W_equals_Z_minus_X", (w - (z - x)).norm()


def jacobi_and_coords_roundtrip(cfg, rng, recipe):
    for _ in range(recipe.samples):
        u, v, t = _random_element(rng), _random_element(rng), _random_element(rng)
        jac = (
            su11.bracket(u, su11.bracket(v, t))
            + su11.bracket(v, su11.bracket(t, u))
            + su11.bracket(t, su11.bracket(u, v))
        )
        yield "jacobi_and_coords_roundtrip", (jac.norm(), (su11.from_coords(su11.coords(u)) - u).norm())


def _norm_sq(g: su11.GroupElement) -> float:
    return abs(g.alpha) ** 2 + abs(g.beta) ** 2


def exp_group_law(cfg, rng, recipe):
    """exp((s+t)u) = exp(su) exp(tu) and det exp((s+t)u) = 1, each relative to
    the rounding scale ||g||^2 = |alpha|^2 + |beta|^2 of GroupElement, floored
    at 1: ||e^{su}|| ||e^{tu}|| for the product, ||e^{(s+t)u}||^2 for det."""
    for _ in range(recipe.samples):
        u = _random_element(rng)
        s, t = rng.uniform(-2, 2), rng.uniform(-2, 2)
        g, gs, gt = (su11.exp_at(u, x) for x in (s + t, s, t))
        diff = np.max(np.abs(g.matrix() - (gs @ gt).matrix()))
        yield "exp_group_law", diff / max(1.0, np.sqrt(_norm_sq(gs) * _norm_sq(gt)))
        yield "exp_determinant", abs(np.linalg.det(g.matrix()) - 1.0) / max(1.0, _norm_sq(g))


# ---------------------------------------------------------------------------
# discrete_series


def _sample_points():
    r = np.array([0.1, 0.35, 0.6])
    th = np.array([0.3, 1.7, 2.9, 4.4])
    return (r[:, None] * np.exp(1j * th)[None, :]).ravel()


def derivative_richardson_order(cfg, rng, recipe):
    """Central differences of the group action reproduce the derived operators
    of X, Y, Z and ``samples`` random elements at order >= 1.9."""
    pts = _sample_points()
    gens = [su11.X_GEN, su11.Y_GEN, su11.Z_GEN] + [_random_element(rng) for _ in range(recipe.samples)]
    for x in recipe.xis:
        wpx = WeightParam(x)
        f = _random_poly(rng, recipe.degree)
        for u in gens:
            e1, e2 = rep.derivative_check(u, f, (1e-3, 5e-4), wpx, pts)
            if e1 < 1e-11:
                continue  # operator acts trivially; no order to measure
            yield "derivative_richardson_order", -np.log2(e1 / e2), "order >= 1.9"


def derived_op_skew_symmetry(cfg, rng, recipe):
    """Gram matrices of derived operators are skew-Hermitian; one band fill
    per xi."""
    for x, elements in _draws_by_xi(cfg, rng, recipe, lambda rng, x: _random_element(rng)):
        wp = WeightParam(x)
        g = ops.gram_matrix(ops.derived_op(_stacked(elements), wp), wp, recipe.n)
        yield "derived_op_skew_symmetry", np.abs(g + np.swapaxes(g, -1, -2).conj())


def xnorm_two_route(cfg, rng, recipe):
    """The closed formula for ||Pi(X) f||^2 equals the operator route."""
    wp = cfg.weight()
    batch = _random_rows(rng, recipe.samples, cfg.trunc)
    direct = rep.xnorm_sq(batch, wp)
    via_op = weights.bergman_norm_sq(ops.apply(ops.derived_op(su11.X_GEN, wp), batch), wp)
    yield "xnorm_two_route", np.abs(direct - via_op) / np.maximum(1.0, direct)


def norm_sandwich(cfg, rng, recipe):
    """Sobolev bounds around ||Pi(X) f||^2, one evaluation per xi."""
    for x, batch in _poly_batches(cfg, rng, recipe):
        wpx = WeightParam(x)
        mid = rep.xnorm_sq(batch, wpx)
        sob = weights.sobolev_norm_sq(batch, wpx, 1)
        lo = sob + ((x + 2.0) ** 2 - 1.0) * np.abs(batch[:, 0]) ** 2
        hi = 4.0 * (x + 2.0) ** 2 * sob
        yield "norm_sandwich", np.maximum(lo - mid, mid - hi)


def _modulus_sq(g: su11.GroupElement, f: CoeffVector, wp: WeightParam, z):
    """|pi(g) f|^2 at the nodes z, as the real part of the action's own buffer:
    np.abs(v) ** 2 converted to complex, with one float block besides it."""
    v = rep.group_act(g, f, z, wp)
    mod = np.abs(v)
    np.square(mod, out=mod)
    v.real, v.imag = mod, 0.0
    return v


def unitarity_integer_weight(cfg, rng, recipe):
    """The group action is unitary (by quadrature) and a homomorphism at
    integer weights."""
    pts = _sample_points()
    for x in recipe.xis:
        wpx = WeightParam(x)
        grid = _grid(cfg, wpx, max(cfg.quad_r, 96))
        for _ in range(recipe.samples):
            u = _random_element(rng)
            g1 = su11.exp_at(u, 0.5 / max(1.0, u.norm()))
            v = _random_element(rng)
            g2 = su11.exp_at(v, 0.5 / max(1.0, v.norm()))
            f = _random_poly(rng, recipe.degree)
            nrm = quad.integrate(functools.partial(_modulus_sq, g1, f, wpx), grid)
            yield "unitarity_integer_weight", abs(nrm.real - weights.bergman_norm_sq(f, wpx))
            lhs = rep.group_act(g1, lambda z: rep.group_act(g2, f, z, wpx), pts, wpx)
            rhs = rep.group_act(g1 @ g2, f, pts, wpx)
            yield "homomorphism_integer_weight", np.abs(np.asarray(lhs) - np.asarray(rhs))


# ---------------------------------------------------------------------------
# first_order_ops


def _random_symmetric_form(rng, wp) -> ops.SymmetricForm:
    return ops.SymmetricForm(
        complex(rng.normal(), rng.normal()), float(rng.normal()), float(rng.normal()), wp
    )


def _perturb_operator(rng, op: ops.FirstOrderOp) -> ops.FirstOrderOp:
    """Break symmetry in one of several ways; perturbation size 1e-2."""
    mode = rng.integers(5)
    f = np.append(op.fcoeffs, 0.0)  # room for a degree-3 term
    g = op.gcoeffs.copy()
    eps = 1e-2
    if mode == 0:
        f[1] += 1j * eps  # a1 not real
    elif mode == 1:
        g[0] += 1j * eps  # b0 not real
    elif mode == 2:
        f[2] += eps * (1 + 1j)  # f2 != conj(f0)
    elif mode == 3:
        g[1] += eps  # g1 mismatch
    else:
        f[3] += eps  # degree too high
    return ops.FirstOrderOp(f, g)


def classification_iff_hermitian(cfg, rng, recipe):
    """The classification verdict agrees with Gram-matrix Hermiticity; every
    second operator is perturbed off the symmetric forms.  The Gram matrices
    of each xi are one band fill."""
    count = itertools.count()

    def draw(rng, x):
        op = _random_symmetric_form(rng, WeightParam(x)).to_operator()
        return _perturb_operator(rng, op) if next(count) % 2 == 1 else op

    agree = []
    for x, batch in _draws_by_xi(cfg, rng, recipe, draw):
        wpx = WeightParam(x)
        gram_sym = ops.hermiticity_defect(ops.gram_matrix(ops.stack(batch), wpx, recipe.n)) <= 1e-9
        agree += [ops.classify_symmetric(op, wpx, 1e-9).symmetric == h for op, h in zip(batch, gram_sym)]
    yield "classification_iff_hermitian", float(len(agree) - sum(agree)), f"{sum(agree)}/{len(agree)}"


def tridiagonal_equals_gram(cfg, rng, recipe):
    """The closed-form tridiagonal bands match the Gram matrix."""
    for x in _xi_draws(cfg, rng, recipe):
        wpx = WeightParam(x)
        form = _random_symmetric_form(rng, wpx)
        dense = ops.symmetric_tridiagonal(form, recipe.n).to_dense()
        gram = ops.gram_matrix(form.to_operator(), wpx, recipe.n)
        yield "tridiagonal_equals_gram", np.abs(dense - gram)


def rep_decomposition_roundtrip(cfg, rng, recipe):
    """to_rep/from_rep round-trip, and i * rep + d is Hermitian."""
    wp = cfg.weight()
    for _ in range(recipe.samples):
        a, b = float(rng.normal()), float(rng.normal())
        c = complex(rng.normal(), rng.normal())
        op = ops.from_rep(ops.to_rep(a, b, c, wp), wp)
        yield "rep_decomposition_roundtrip", np.abs(op.fcoeffs - [np.conj(c), a, c])
        yield "rep_decomposition_roundtrip", np.abs(op.gcoeffs - [b, (wp.xi + 2.0) * c])
        yield "i_rep_plus_d_hermitian", ops.hermiticity_defect(ops.gram_matrix(op, wp, recipe.n))


def commutator_bracket_compat(cfg, rng, recipe):
    """Operator commutators realize the Lie bracket; the pairs of each xi are
    one batch."""
    draw = lambda rng, x: (_random_element(rng), _random_element(rng))
    for x, pairs in _draws_by_xi(cfg, rng, recipe, draw):
        wp = WeightParam(x)
        u, v = (_stacked(elements) for elements in zip(*pairs))
        cm = ops.commutator_matrix(ops.derived_op(u, wp), ops.derived_op(v, wp), wp, recipe.n)
        bm = ops.gram_matrix(ops.bracket_op(u, v, wp), wp, recipe.n)
        yield "commutator_bracket_compat", np.abs(cm - bm)


def zhu_no_scalar_commutator(cfg, rng, recipe):
    """No derived commutator is close to a nonzero scalar (scan seed cfg.seed + 5)."""
    reports = [ops.zhu_scan(recipe.samples, WeightParam(x), cfg.seed + 5) for x in _xis(cfg, recipe)]
    hits = sum(r.scalar_hits for r in reports)
    yield "zhu_no_scalar_commutator", [r.max_scalar_magnitude for r in reports], f"scalar_hits={hits}"


# ---------------------------------------------------------------------------
# uncertainty


def uncertainty_inequality(cfg, rng, recipe):
    """The slack of soltani_up is nonnegative over random f and the shift
    grids, and vanishes at f = 1 with zero shifts.  Each xi is one soltani_up
    call on a (samples, w, y) grid."""
    shifts_w, shifts_y = (np.asarray(s, dtype=float) for s in recipe.shifts)
    for x, batch in _poly_batches(cfg, rng, recipe):
        slack = up.soltani_up(batch[:, None, None, :], shifts_w[:, None], shifts_y, WeightParam(x)).slack
        yield "uncertainty_slack_nonnegative", -slack
    for x in recipe.xis:
        yield "equality_at_constants", abs(up.soltani_up(CoeffVector([1.0]), 0.0, 0.0, WeightParam(x)).slack)


def two_route_consistency(cfg, rng, recipe):
    """soltani_up agrees with the lie_up route through (W, Y); the samples of
    each xi are one batch."""
    draw = lambda rng, x: (_random_coeffs(rng, recipe.degree), float(rng.normal()), float(rng.normal()))
    for x, samples in _draws_by_xi(cfg, rng, recipe, draw):
        batch, w, y = (np.array(column) for column in zip(*samples))
        yield "two_route_consistency", up.consistency_check(batch, w, y, WeightParam(x))


def optimal_shift_slack(cfg, rng, recipe):
    """The inequality holds at the shifts that minimize its right side
    (``uncertainty.optimal_shifts``), each clipped to [-4, 4]."""
    wp = cfg.weight()
    f = _random_poly(rng, recipe.degree)
    w_star, y_star = np.clip(up.optimal_shifts(f, wp), -4.0, 4.0)
    yield "optimal_shift_slack", -up.soltani_up(f, w_star, y_star, wp).slack


# ---------------------------------------------------------------------------
# shift_iso


def frame_sandwich(cfg, rng, recipe):
    """z d/dz + c maps weight xi onto weight xi+2 within its frame constants
    over k <= n (relative to ||f||^2), and shift_invert undoes shift_apply;
    the samples of each c are one batch."""
    wp = cfg.weight()
    wp_shift = WeightParam(wp.xi + 2.0)
    for c in (1.0 + 0j, 0.7 + 0.3j, wp.xi + 2.0 + 0j):
        op = ws.ShiftOp(c)
        fc = ws.frame_constants(op, wp, recipe.n)
        batch = _poly_batch(rng, recipe)
        shifted = ws.shift_apply(op, batch)
        nf = weights.bergman_norm_sq(batch, wp)
        ns = weights.bergman_norm_sq(shifted, wp_shift)
        yield "frame_sandwich", ((fc.m * nf - ns) / nf, (ns - fc.M * nf) / nf)
        yield "shift_roundtrip", np.abs(ws.shift_invert(op, shifted) - batch)


def _tail_window_start(c: complex, xi: float, k0: int) -> int:
    """First k >= k0 past which |r_k - tail| of ``ws.frame_ratio`` decreases.

    r_k - tail = tail (a k + b) / ((k+xi+3)(k+xi+2)) with a = 2 Re c - 2xi - 5
    and b = |c|^2 - (xi+2)(xi+3).  Its k-derivative vanishes only at the roots
    of a k^2 + 2b k + b(2xi+5) - a(xi+2)(xi+3); without a real root (or with
    a = 0) the distance decreases for every k >= 0.
    """
    a = 2.0 * c.real - 2.0 * xi - 5.0
    b = abs(c) ** 2 - (xi + 2.0) * (xi + 3.0)
    quarter_disc = b * b - a * (b * (2.0 * xi + 5.0) - a * (xi + 2.0) * (xi + 3.0))
    if a == 0.0 or quarter_disc < 0.0:
        return k0
    root = max((-b + np.sqrt(quarter_disc)) / a, (-b - np.sqrt(quarter_disc)) / a)
    return max(k0, int(np.floor(root)) + 1)


def monotone_tail(cfg, rng, recipe):
    """|r_k - tail| decreases over ``n`` steps for c = 1.5+0.5i from the start
    that ``_tail_window_start`` derives; the margin is the largest step / tail.

    Rounding floor, u = 2^-53: ``frame_ratio`` rounds r_k = tail rho_k within
    12u (|k+c| by hypot to 1 ulp, squared: 5u; times tail: u; k+xi+3 and
    k+xi+2: 2u each; product and quotient: u each) and r_k - tail adds u tail.
    rho_k - 1 = (a k + b)/((k+xi+3)(k+xi+2)) with a = -2 - 2xi < 0, b < 1/2
    and k >= 11, so rho_k < 1.004 and a step, exactly <= 0, reads at most
    2 (12u 1.004 + u) tail = 2.9e-15 tail; the tolerance is 3e-15 (measured:
    4 eps = 8.9e-16 at xi = -0.999997, where the steps are rounding noise).
    """
    wp = cfg.weight()
    op = ws.ShiftOp(1.5 + 0.5j)
    tail = (wp.xi + 3.0) * (wp.xi + 2.0)
    start = _tail_window_start(op.c, wp.xi, int(2 * wp.xi + 2 * abs(op.c) + 10))
    dist = np.abs(ws.frame_ratio(op, wp, np.arange(start, start + recipe.n)) - tail)
    yield "monotone_tail", np.diff(dist) / tail


def kernel_shift_derived_constant(cfg, rng, recipe):
    """The derived constant 1/(xi+2) annihilates the step-one kernel shift
    residual; the printed alternative 2/(xi+2) does not."""
    good, bad = [], []
    for x in recipe.xis:
        wpx = WeightParam(x)
        for w in map(quad.KernelPoint, recipe.points):
            good.append(ws.kernel_shift_residual(1.0 / (x + 2.0), w, wpx, recipe.degree))
            bad.append(ws.kernel_shift_residual(2.0 / (x + 2.0), w, wpx, recipe.degree))
    yield "kernel_shift_derived_constant", good, f"printed-constant residual >= {np.min(bad):.6g}"
    yield "kernel_shift_printed_constant_fails", -np.asarray(bad)


def surjectivity_c_zero(cfg, rng, recipe):
    """c = 0 bypass: z d/dz maps the constant 3.7 to 0 and a random f to a
    function vanishing at 0; the margin is the largest of those values."""
    op0 = ws.ShiftOp(0.0, allow_singular=True)
    img = ws.shift_apply(op0, _random_poly(rng, recipe.degree))
    const = ws.shift_apply(op0, CoeffVector([3.7]))
    yield "surjectivity_c_zero", np.abs(np.append(img.coeffs[0], const.coeffs))


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class Criterion:
    """A numbered acceptance criterion: the property run on
    ``default_rng(seed)`` with ``RunConfig(seed=seed)`` and this recipe."""

    number: int
    seed: int
    recipe: Recipe


@dataclass(frozen=True)
class Property:
    """One property: its suite and, per check name, a tolerance that is a
    number or a RunConfig field name."""

    fn: Callable[[RunConfig, np.random.Generator, Recipe], Iterator[tuple]]
    suite: str
    checks: Dict[str, Union[float, str]]
    recipe: Recipe = Recipe()
    criterion: Optional[Criterion] = None


# suite -> offset of its generator's seed from cfg.seed; SUITES keeps this order
SUITE_SEED_OFFSETS = {
    "weight_core": 1,
    "disc_oracle": 0,
    "su11_algebra": 2,
    "discrete_series": 3,
    "first_order_ops": 4,
    "uncertainty": 6,
    "shift_iso": 7,
}

_INTEGER_XIS = (0.0, 1.0, 2.0)
_SANDWICH_XIS = (0.0, 0.5, 2.0)
_SHIFTS = ((-2.0, 0.0, 2.0), (-1.0, 0.0, 1.0))
_WIDE_SHIFTS = ((-2.0, -1.0, 0.0, 1.0, 2.0),) * 2
_KERNEL_XIS = (0.0, 0.5, 1.0, 3.0)

# Within a suite, properties run in this order on one generator.
REGISTRY: Tuple[Property, ...] = (
    Property(norm_ratio_recurrence, "weight_core", {"norm_ratio_recurrence": "tol_exact"},
             Recipe(xis=XI_SCAN, degree=300)),
    Property(shift_limit_monotone, "weight_core", {"shift_limit_monotone": 1.2e-15, "shift_limit_bound": 1e-12},
             Recipe(degree=1000)),
    Property(oracle_equivalence_monomials, "weight_core", {"oracle_equivalence_monomials": "tol_quad"},
             Recipe(xis=XI_SCAN, degree=12), Criterion(1, 100, Recipe(xis=XI_SCAN, degree=20))),
    Property(sobolev_norm_equivalence, "weight_core", {"sobolev_norm_equivalence": 1e-12}, Recipe(samples=50)),
    Property(quadrature_rule, "disc_oracle",
             {"probability_measure": 1e-12, "radial_exactness": 1e-9, "angular_exactness": 1e-12},
             Recipe(xis=_INTEGER_XIS, degree=40)),
    Property(kernel_series_consistency, "disc_oracle", {"kernel_series_consistency": 1e-10}),
    Property(reproducing_identity, "disc_oracle", {"reproducing_identity_spot": "tol_quad"}, Recipe(),
             Criterion(2, 101, Recipe(samples=50, xi_range=(-0.5, 2.5), degree=12, random_degree=True))),
    Property(basis_relations, "su11_algebra", {"bracket_WY_is_minus_2X": 1e-14, "W_equals_Z_minus_X": 1e-14}),
    Property(jacobi_and_coords_roundtrip, "su11_algebra", {"jacobi_and_coords_roundtrip": 1e-12}, Recipe(samples=20)),
    Property(exp_group_law, "su11_algebra", {"exp_group_law": 1e-10, "exp_determinant": 1e-10}, Recipe(samples=20)),
    Property(derivative_richardson_order, "discrete_series", {"derivative_richardson_order": -1.9},
             Recipe(samples=5, xis=_INTEGER_XIS, degree=6),
             Criterion(3, 102, Recipe(samples=20, xis=_INTEGER_XIS, degree=6))),
    Property(derived_op_skew_symmetry, "discrete_series", {"derived_op_skew_symmetry": "tol_exact"},
             Recipe(samples=20, n=16), Criterion(4, 103, Recipe(samples=200, xis=(1.0,), n=24))),
    Property(xnorm_two_route, "discrete_series", {"xnorm_two_route": "tol_exact"}, Recipe(samples=20)),
    Property(norm_sandwich, "discrete_series", {"norm_sandwich": 1e-12},
             Recipe(samples=167, xis=_SANDWICH_XIS, degree=16),
             Criterion(7, 106, Recipe(samples=500, xis=_SANDWICH_XIS, degree=16, random_degree=True))),
    Property(unitarity_integer_weight, "discrete_series",
             {"unitarity_integer_weight": "tol_quad", "homomorphism_integer_weight": 1e-8},
             Recipe(samples=5, xis=_INTEGER_XIS, degree=5),
             Criterion(12, 110, Recipe(samples=20, xis=_INTEGER_XIS, degree=5))),
    Property(classification_iff_hermitian, "first_order_ops", {"classification_iff_hermitian": 0.0},
             Recipe(samples=34, xis=_SANDWICH_XIS, n=16),
             Criterion(5, 104, Recipe(samples=400, xi_range=(-0.5, 3.0), n=16))),
    Property(tridiagonal_equals_gram, "first_order_ops", {"tridiagonal_equals_gram": "tol_exact"},
             Recipe(samples=10, xis=(0.0, 1.5), n=16),
             Criterion(6, 105, Recipe(samples=50, xi_range=(-0.5, 3.0), n=16))),
    Property(rep_decomposition_roundtrip, "first_order_ops",
             {"rep_decomposition_roundtrip": "tol_exact", "i_rep_plus_d_hermitian": "tol_exact"},
             Recipe(samples=20, n=12)),
    Property(commutator_bracket_compat, "first_order_ops", {"commutator_bracket_compat": "tol_exact"},
             Recipe(samples=50, n=12), Criterion(4, 103, Recipe(samples=200, xis=(1.0,), n=24))),
    Property(zhu_no_scalar_commutator, "first_order_ops", {"zhu_no_scalar_commutator": 1e-8},
             Recipe(samples=500), Criterion(9, 108, Recipe(samples=1000, xis=(0.0, 1.0, 2.5)))),
    Property(uncertainty_inequality, "uncertainty",
             {"uncertainty_slack_nonnegative": 1e-10, "equality_at_constants": 1e-12},
             Recipe(samples=25, xis=XI_SCAN, degree=12, random_degree=True, shifts=_SHIFTS),
             Criterion(8, 107, Recipe(samples=125, xis=XI_SCAN, degree=20, random_degree=True, shifts=_WIDE_SHIFTS))),
    Property(two_route_consistency, "uncertainty", {"two_route_consistency": 1e-10},
             Recipe(samples=10, xis=(0.0, 1.5), degree=12),
             Criterion(8, 107, Recipe(samples=20, xis=(0.0, 1.0, 1.5, 2.5), degree=12))),
    Property(optimal_shift_slack, "uncertainty", {"optimal_shift_slack": "tol_exact"}, Recipe(degree=8)),
    Property(frame_sandwich, "shift_iso", {"frame_sandwich": 1e-12, "shift_roundtrip": 1e-12},
             Recipe(samples=30, degree=32, n=64),
             Criterion(10, 109, Recipe(samples=200, degree=32, random_degree=True, n=256))),
    Property(monotone_tail, "shift_iso", {"monotone_tail": 3e-15}, Recipe(n=200)),
    Property(kernel_shift_derived_constant, "shift_iso",
             {"kernel_shift_derived_constant": 1e-12, "kernel_shift_printed_constant_fails": -1e-3},
             Recipe(xis=_KERNEL_XIS, points=(0.2, 0.4 + 0.3j), degree=60),
             Criterion(11, 111, Recipe(xis=_KERNEL_XIS, points=(0.2, 0.4, 0.4 + 0.3j), degree=60))),
    Property(surjectivity_c_zero, "shift_iso", {"surjectivity_c_zero": 0.0}, Recipe(degree=10)),
)


def run_property(p: Property, cfg: RunConfig, rng, recipe: Optional[Recipe] = None) -> List[PropertyCheck]:
    """Run ``p`` (on its own recipe by default) and reduce what it yields to one
    PropertyCheck per registered check, in registry order: the margin is the
    largest value (np.maximum keeps a NaN, which then fails the check) and the
    detail the last one yielded; if ``p`` raises, each check gets margin NaN
    and detail "<Type>: <message>".  A yielded name that is not registered,
    or a registered check never yielded, raises KeyError."""
    margins: Dict[str, float] = {}
    details: Dict[str, str] = {}
    try:
        for name, value, *detail in p.fn(cfg, rng, p.recipe if recipe is None else recipe):
            margins[name] = np.maximum(margins.get(name, -np.inf), np.max(value))
            details.update((name, d) for d in detail)
    except Exception as e:  # a partly sampled check must not pass
        margins = dict.fromkeys(p.checks, np.nan)
        details = dict.fromkeys(p.checks, f"{type(e).__name__}: {e}")
    if margins.keys() != p.checks.keys():
        raise KeyError(f"{p.fn.__name__} yielded checks {sorted(margins)}, registered {sorted(p.checks)}")
    checks = []
    for name, tol in p.checks.items():
        margin, tol = float(margins[name]), float(getattr(cfg, tol) if isinstance(tol, str) else tol)
        checks.append(PropertyCheck(name, margin <= tol, margin, tol, details.get(name, "")))
    return checks


def _suite(name: str) -> Callable[[RunConfig], List[PropertyCheck]]:
    props = [p for p in REGISTRY if p.suite == name]

    def run(cfg: RunConfig) -> List[PropertyCheck]:
        rng = np.random.default_rng(cfg.seed + SUITE_SEED_OFFSETS[name])
        return [check for p in props for check in run_property(p, cfg, rng)]

    run.__name__ = run.__qualname__ = f"suite_{name}"
    return run


SUITES: Dict[str, Callable[[RunConfig], List[PropertyCheck]]] = {name: _suite(name) for name in SUITE_SEED_OFFSETS}


def run_suites(cfg: RunConfig, names: Optional[List[str]] = None) -> dict:
    """Run the selected suites (all by default) and assemble the report."""
    selected = list(SUITES) if not names else names
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite: {name}")
    report = {
        "config": asdict(cfg),
        "conventions": CONVENTIONS,
        "suites": {},
        "passed": True,
    }
    try:
        for name in sorted(set(selected)):
            checks = SUITES[name](cfg)
            report["suites"][name] = [asdict(c) for c in checks]
            if not all(c.passed for c in checks):
                report["passed"] = False
    finally:
        _shared_grid.cache_clear()
    return report
