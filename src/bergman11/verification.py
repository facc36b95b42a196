"""Property registry behind the ``verify`` CLI command and the acceptance tests.

Each property is one function ``(cfg, rng, recipe) -> list[PropertyCheck]``
that re-checks invariants of the engine and returns named checks with
measured margins.  ``REGISTRY`` lists every property once: its suite, the
tolerance of each of its checks, the recipe ``verify`` runs it with and, where
it has one, the numbered acceptance criterion that runs it with its own seed
and a larger recipe.  Everything is driven by a RunConfig and a seeded
generator, so two runs with the same configuration produce identical reports.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

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


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines the emitted numbers."""

    xi: float = 0.0
    trunc: int = 24
    quad_r: int = 64
    quad_m: int = 256
    seed: int = 20240901
    tol_exact: float = 1e-10
    tol_quad: float = 1e-6

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


def _check(cfg, name, margin, detail="", ok=True, tol=None) -> PropertyCheck:
    """Passed iff margin <= tolerance and ``ok``.  The tolerance is the
    registry's, resolved against cfg, unless the check measures its own."""
    if tol is None:
        tol = _TOLERANCES[name]
        tol = getattr(cfg, tol) if isinstance(tol, str) else tol
    margin, tol = float(margin), float(tol)
    return PropertyCheck(name, bool(margin <= tol and ok), margin, tol, detail)


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


def _degree(rng, recipe: Recipe) -> int:
    return int(rng.integers(0, recipe.degree + 1)) if recipe.random_degree else recipe.degree


def _random_coeffs(rng, degree) -> np.ndarray:
    return rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)


def _random_poly(rng, degree) -> CoeffVector:
    return CoeffVector(_random_coeffs(rng, degree))


def _poly_batches(cfg: RunConfig, rng, recipe: Recipe):
    """(xi, batch) for each xi of the recipe: ``samples`` random polynomials as
    rows zero-padded to ``recipe.degree``, each drawn (degree, then
    coefficients) in the order a per-sample loop draws them."""
    for x in _xis(cfg, recipe):
        batch = np.zeros((recipe.samples, recipe.degree + 1), dtype=np.complex128)
        for row in batch:
            d = _degree(rng, recipe)
            row[: d + 1] = _random_coeffs(rng, d)
        yield x, batch


def _random_element(rng) -> su11.LieElement:
    return su11.LieElement(rng.normal(), complex(rng.normal(), rng.normal()))


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
    worst = 0.0
    k = np.arange(1, recipe.degree + 1, dtype=float)
    for x in recipe.xis + (cfg.xi,):
        w = weights.monomial_norms_sq(WeightParam(x), recipe.degree)
        rhs = (x + 1.0 + k) / k * w[1:]
        worst = max(worst, float(np.max(np.abs(w[:-1] - rhs) / np.abs(rhs))))
    return [_check(cfg, "norm_ratio_recurrence", worst)]


def shift_limit_monotone(cfg, rng, recipe):
    """||z^{k+l}||^2 / ||z^k||^2 converges monotonically to 1 (l = 1, 2, 3)."""
    n = recipe.degree + 1
    w = weights.monomial_norms_sq(cfg.weight(), n + 2)
    ok = True
    final = 0.0
    for ell in (1, 2, 3):
        dist = np.abs(w[ell : n + ell] / w[:n] - 1.0)
        ok = ok and bool(np.all(np.diff(dist) <= 1e-15)) and dist[-1] < dist[0]
        final = max(final, float(dist[-1]))
    return [_check(cfg, "shift_limit_monotone", final, ok=ok)]


def oracle_equivalence_monomials(cfg, rng, recipe):
    """Coefficient inner products of monomials agree with disc quadrature.

    The Gram matrix of z^0..z^n is summed over the grid's radial rows as
    (P_r w_r) P_r^H, with P_r the powers at the row's M angular nodes and w_r
    the row's weight; one row at a time, so no (n+1) x R x M array is held."""
    worst = 0.0
    k = np.arange(recipe.degree + 1)[:, None]
    for x in recipe.xis:
        wp = WeightParam(x)
        grid = _grid(cfg, wp)
        gram = np.zeros((recipe.degree + 1, recipe.degree + 1), dtype=np.complex128)
        for row, w_r in zip(grid.nodes, grid.weights[:, 0]):
            powers = row ** k
            gram += (powers * w_r) @ powers.conj().T
        expected = np.diag(weights.monomial_norms_sq(wp, recipe.degree))
        worst = max(worst, float(np.max(np.abs(gram - expected))))
    return [_check(cfg, "oracle_equivalence_monomials", worst)]


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
    batch = np.array([_random_coeffs(rng, cfg.trunc) for _ in range(recipe.samples)])
    alt = weights.weighted_norm_sq(batch, wp, phi_alt)
    sob = weights.sobolev_norm_sq(batch, wp, 1)
    worst = float(max(np.max((m * alt - sob) / (m * alt)), np.max((sob - big_m * alt) / (big_m * alt))))
    return [_check(cfg, "sobolev_norm_equivalence", worst, detail=f"m={m:.6g} M={big_m:.6g}")]


# ---------------------------------------------------------------------------
# disc_oracle


def quadrature_rule(cfg, rng, recipe):
    """cfg's grid is a probability measure; the radial rule integrates s^k
    exactly at the listed xi; the angular nodes annihilate 0 < |k| < M."""
    grid = _grid(cfg, cfg.weight())
    mass = abs(quad.integrate(lambda z: np.ones_like(z), grid) - 1.0)
    worst_r = 0.0
    for x in recipe.xis:
        wpx = WeightParam(x)
        g = _grid(cfg, wpx)
        for k in range(0, recipe.degree + 1, 5):
            approx = float(np.sum(g.radial_weights * g.radial_nodes**k))
            worst_r = max(worst_r, abs(approx - weights.monomial_norm_sq(wpx, k)))
    worst_a = 0.0
    for k in (1, 2, 7, cfg.quad_m // 2, cfg.quad_m - 1):
        worst_a = max(worst_a, abs(np.sum(np.exp(1j * k * grid.angles))) / cfg.quad_m)
    return [
        _check(cfg, "probability_measure", mass),
        _check(cfg, "radial_exactness", worst_r),
        _check(cfg, "angular_exactness", worst_a),
    ]


def kernel_series_consistency(cfg, rng, recipe):
    """Kernel partial sums converge geometrically at rate |z conj(w)|."""
    wp = cfg.weight()
    z, w = 0.5, quad.KernelPoint(0.4 + 0.2j)
    target = quad.kernel_eval(z, w, wp)
    coeffs = ws.kernel_coeffs(wp, w, recipe.degree)
    resid = np.abs(np.cumsum(coeffs * z ** np.arange(recipe.degree + 1)) - target)
    rate = abs(z * np.conj(w.w))
    # compare residuals before they reach the rounding floor
    return [_check(cfg, "kernel_series_consistency", resid[50], ok=resid[18] <= resid[8] * rate**8)]


def reproducing_identity(cfg, rng, recipe):
    """<f, K_w> by quadrature equals f(w): z^3 at w = 0.3+0.2i on cfg's grid,
    then random (xi, f, w) with |Re w|, |Im w| <= 0.45."""
    wp = cfg.weight()
    f = CoeffVector([0.0, 0.0, 0.0, 1.0])
    w = quad.KernelPoint(0.3 + 0.2j)
    worst = abs(quad.reproduce(f, w, wp, _grid(cfg, wp)) - f(w.w))
    for x in _xi_draws(cfg, rng, recipe):
        wpx = WeightParam(x)
        f = _random_poly(rng, _degree(rng, recipe))
        w = quad.KernelPoint(complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)))
        worst = max(worst, abs(quad.reproduce(f, w, wpx, _grid(cfg, wpx)) - f(w.w)))
    return [_check(cfg, "reproducing_identity_spot", worst)]


# ---------------------------------------------------------------------------
# su11_algebra


def basis_relations(cfg, rng, recipe):
    x, y, z, w = su11.basis_elements()
    return [
        _check(cfg, "bracket_WY_is_minus_2X", (su11.bracket(w, y) - (-2.0 * x)).norm()),
        _check(cfg, "W_equals_Z_minus_X", (w - (z - x)).norm()),
    ]


def jacobi_and_coords_roundtrip(cfg, rng, recipe):
    worst = 0.0
    for _ in range(recipe.samples):
        u, v, t = _random_element(rng), _random_element(rng), _random_element(rng)
        jac = (
            su11.bracket(u, su11.bracket(v, t))
            + su11.bracket(v, su11.bracket(t, u))
            + su11.bracket(t, su11.bracket(u, v))
        )
        worst = max(worst, jac.norm(), (su11.from_coords(su11.coords(u)) - u).norm())
    return [_check(cfg, "jacobi_and_coords_roundtrip", worst)]


def _norm_sq(g: su11.GroupElement) -> float:
    return abs(g.alpha) ** 2 + abs(g.beta) ** 2


def exp_group_law(cfg, rng, recipe):
    """exp((s+t)u) = exp(su) exp(tu) and det exp((s+t)u) = 1, each relative to
    the rounding scale ||g||^2 = |alpha|^2 + |beta|^2 of GroupElement, floored
    at 1: ||e^{su}|| ||e^{tu}|| for the product, ||e^{(s+t)u}||^2 for det."""
    worst = 0.0
    det_worst = 0.0
    for _ in range(recipe.samples):
        u = _random_element(rng)
        s, t = rng.uniform(-2, 2), rng.uniform(-2, 2)
        g, gs, gt = (su11.exp_at(u, x) for x in (s + t, s, t))
        diff = np.max(np.abs(g.matrix() - (gs @ gt).matrix()))
        worst = max(worst, diff / max(1.0, np.sqrt(_norm_sq(gs) * _norm_sq(gt))))
        det_worst = max(det_worst, abs(np.linalg.det(g.matrix()) - 1.0) / max(1.0, _norm_sq(g)))
    return [_check(cfg, "exp_group_law", worst), _check(cfg, "exp_determinant", det_worst)]


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
    gens = list(su11.basis_elements()[:3]) + [_random_element(rng) for _ in range(recipe.samples)]
    worst_order = np.inf
    for x in recipe.xis:
        wpx = WeightParam(x)
        f = _random_poly(rng, recipe.degree)
        for u in gens:
            e1 = rep.derivative_check(u, f, 1e-3, wpx, pts)
            e2 = rep.derivative_check(u, f, 5e-4, wpx, pts)
            if e1 < 1e-11:
                continue  # operator acts trivially; no order to measure
            worst_order = min(worst_order, np.log2(e1 / e2))
    return [_check(cfg, "derivative_richardson_order", -float(worst_order), detail="order >= 1.9")]


def derived_op_skew_symmetry(cfg, rng, recipe):
    """Gram matrices of derived operators are skew-Hermitian."""
    worst = 0.0
    for x in _xi_draws(cfg, rng, recipe):
        wp = WeightParam(x)
        g = ops.gram_matrix(ops.derived_op(_random_element(rng), wp), wp, recipe.n)
        worst = max(worst, float(np.max(np.abs(g + g.conj().T))))
    return [_check(cfg, "derived_op_skew_symmetry", worst)]


def xnorm_two_route(cfg, rng, recipe):
    """The closed formula for ||Pi(X) f||^2 equals the operator route."""
    wp = cfg.weight()
    batch = np.array([_random_coeffs(rng, cfg.trunc) for _ in range(recipe.samples)])
    direct = rep.xnorm_sq(batch, wp)
    via_op = weights.bergman_norm_sq(ops.apply(ops.derived_op(su11.X_GEN, wp), batch), wp)
    worst = float(np.max(np.abs(direct - via_op) / np.maximum(1.0, direct), initial=0.0))
    return [_check(cfg, "xnorm_two_route", worst)]


def norm_sandwich(cfg, rng, recipe):
    """Sobolev bounds around ||Pi(X) f||^2, one evaluation per xi."""
    worst = 0.0
    for x, batch in _poly_batches(cfg, rng, recipe):
        wpx = WeightParam(x)
        mid = rep.xnorm_sq(batch, wpx)
        sob = weights.sobolev_norm_sq(batch, wpx, 1)
        lo = sob + ((x + 2.0) ** 2 - 1.0) * np.abs(batch[:, 0]) ** 2
        hi = 4.0 * (x + 2.0) ** 2 * sob
        worst = max(worst, float(np.max(lo - mid)), float(np.max(mid - hi)))
    return [_check(cfg, "norm_sandwich", worst)]


def unitarity_integer_weight(cfg, rng, recipe):
    """The group action is unitary (by quadrature) and a homomorphism at
    integer weights."""
    pts = _sample_points()
    worst_u = 0.0
    worst_h = 0.0
    for x in recipe.xis:
        wpx = WeightParam(x)
        grid = _grid(cfg, wpx, max(cfg.quad_r, 96))
        for _ in range(recipe.samples):
            u = _random_element(rng)
            g1 = su11.exp_at(u, 0.5 / max(1.0, u.norm()))
            v = _random_element(rng)
            g2 = su11.exp_at(v, 0.5 / max(1.0, v.norm()))
            f = _random_poly(rng, recipe.degree)
            nrm = quad.integrate(lambda z: np.abs(rep.group_act(g1, f, z, wpx)) ** 2, grid)
            worst_u = max(worst_u, abs(nrm.real - weights.bergman_norm_sq(f, wpx)))
            lhs = rep.group_act(g1, lambda z: rep.group_act(g2, f, z, wpx), pts, wpx)
            rhs = rep.group_act(g1 @ g2, f, pts, wpx)
            worst_h = max(worst_h, float(np.max(np.abs(np.asarray(lhs) - np.asarray(rhs)))))
    return [_check(cfg, "unitarity_integer_weight", worst_u), _check(cfg, "homomorphism_integer_weight", worst_h)]


# ---------------------------------------------------------------------------
# first_order_ops


def _random_symmetric_form(rng, wp) -> ops.SymmetricForm:
    return ops.SymmetricForm(
        complex(rng.normal(), rng.normal()), float(rng.normal()), float(rng.normal()), wp
    )


def _perturb_operator(rng, op: ops.FirstOrderOp) -> ops.FirstOrderOp:
    """Break symmetry in one of several ways; perturbation size 1e-2."""
    mode = rng.integers(5)
    f = op.fcoeffs.padded(3).copy()
    g = op.gcoeffs.padded(2).copy()
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
    return ops.FirstOrderOp(CoeffVector(f), CoeffVector(g))


def classification_iff_hermitian(cfg, rng, recipe):
    """The classification verdict agrees with Gram-matrix Hermiticity; every
    second operator is perturbed off the symmetric forms."""
    agree = 0
    total = 0
    for i, x in enumerate(_xi_draws(cfg, rng, recipe)):
        wpx = WeightParam(x)
        op = _random_symmetric_form(rng, wpx).to_operator()
        if i % 2 == 1:
            op = _perturb_operator(rng, op)
        verdict = ops.classify_symmetric(op, wpx, 1e-9)
        gram_sym = ops.hermiticity_defect(ops.gram_matrix(op, wpx, recipe.n)) <= 1e-9
        total += 1
        agree += int(verdict.symmetric == gram_sym)
    return [_check(cfg, "classification_iff_hermitian", float(total - agree), detail=f"{agree}/{total}")]


def tridiagonal_equals_gram(cfg, rng, recipe):
    """The closed-form tridiagonal bands match the Gram matrix."""
    worst = 0.0
    for x in _xi_draws(cfg, rng, recipe):
        wpx = WeightParam(x)
        form = _random_symmetric_form(rng, wpx)
        dense = ops.symmetric_tridiagonal(form, recipe.n).to_dense()
        gram = ops.gram_matrix(form.to_operator(), wpx, recipe.n)
        worst = max(worst, float(np.max(np.abs(dense - gram))))
    return [_check(cfg, "tridiagonal_equals_gram", worst)]


def rep_decomposition_roundtrip(cfg, rng, recipe):
    """to_rep/from_rep round-trip, and i * rep + d is Hermitian."""
    wp = cfg.weight()
    worst_rt = 0.0
    worst_h = 0.0
    for _ in range(recipe.samples):
        a, b = float(rng.normal()), float(rng.normal())
        c = complex(rng.normal(), rng.normal())
        op = ops.from_rep(ops.to_rep(a, b, c, wp), wp)
        target = ops.FirstOrderOp(
            CoeffVector([np.conj(c), a, c]), CoeffVector([b, (wp.xi + 2.0) * c])
        )
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(op.fcoeffs.padded(2) - target.fcoeffs.padded(2)))),
            float(np.max(np.abs(op.gcoeffs.padded(1) - target.gcoeffs.padded(1)))),
        )
        worst_h = max(worst_h, ops.hermiticity_defect(ops.gram_matrix(op, wp, recipe.n)))
    return [_check(cfg, "rep_decomposition_roundtrip", worst_rt), _check(cfg, "i_rep_plus_d_hermitian", worst_h)]


def commutator_bracket_compat(cfg, rng, recipe):
    """Operator commutators realize the Lie bracket."""
    worst = 0.0
    for x in _xi_draws(cfg, rng, recipe):
        wp = WeightParam(x)
        u, v = _random_element(rng), _random_element(rng)
        cm = ops.commutator_matrix(ops.derived_op(u, wp), ops.derived_op(v, wp), wp, recipe.n)
        bm = ops.gram_matrix(ops.bracket_op(u, v, wp), wp, recipe.n)
        worst = max(worst, float(np.max(np.abs(cm - bm))))
    return [_check(cfg, "commutator_bracket_compat", worst)]


def zhu_no_scalar_commutator(cfg, rng, recipe):
    """No derived commutator is close to a nonzero scalar (scan seed cfg.seed + 5)."""
    worst = 0.0
    hits = 0
    for x in _xis(cfg, recipe):
        report = ops.zhu_scan(recipe.samples, WeightParam(x), cfg.seed + 5)
        worst = max(worst, report.max_scalar_magnitude)
        hits += report.scalar_hits
    return [_check(cfg, "zhu_no_scalar_commutator", worst, detail=f"scalar_hits={hits}")]


# ---------------------------------------------------------------------------
# uncertainty


def uncertainty_inequality(cfg, rng, recipe):
    """The slack of soltani_up is nonnegative over random f and the shift
    grids, and vanishes at f = 1 with zero shifts.  Each xi is one soltani_up
    call on a (samples, w, y) grid."""
    worst = 0.0
    shifts_w, shifts_y = (np.asarray(s, dtype=float) for s in recipe.shifts)
    for x, batch in _poly_batches(cfg, rng, recipe):
        slack = up.soltani_up(batch[:, None, None, :], shifts_w[:, None], shifts_y, WeightParam(x)).slack
        worst = max(worst, float(np.max(-slack)))
    worst_eq = 0.0
    for x in recipe.xis:
        worst_eq = max(worst_eq, abs(up.soltani_up(CoeffVector([1.0]), 0.0, 0.0, WeightParam(x)).slack))
    return [_check(cfg, "uncertainty_slack_nonnegative", worst), _check(cfg, "equality_at_constants", worst_eq)]


def two_route_consistency(cfg, rng, recipe):
    """soltani_up agrees with the lie_up route through (W, Y)."""
    worst = 0.0
    for x in _xi_draws(cfg, rng, recipe):
        f = _random_poly(rng, recipe.degree)
        worst = max(worst, up.consistency_check(f, float(rng.normal()), float(rng.normal()), WeightParam(x)))
    return [_check(cfg, "two_route_consistency", worst)]


def optimal_shift_slack(cfg, rng, recipe):
    """The inequality holds at the shifts that minimize its right side
    (``uncertainty.optimal_shifts``), each clipped to [-4, 4]."""
    wp = cfg.weight()
    f = _random_poly(rng, recipe.degree)
    w_star, y_star = np.clip(up.optimal_shifts(f, wp), -4.0, 4.0)
    return [_check(cfg, "optimal_shift_slack", -up.soltani_up(f, w_star, y_star, wp).slack)]


# ---------------------------------------------------------------------------
# shift_iso


def frame_sandwich(cfg, rng, recipe):
    """z d/dz + c maps weight xi onto weight xi+2 within its frame constants
    over k <= n (relative to ||f||^2), and shift_invert undoes shift_apply."""
    wp = cfg.weight()
    wp_shift = WeightParam(wp.xi + 2.0)
    worst_frame = 0.0
    worst_rt = 0.0
    for c in (1.0 + 0j, 0.7 + 0.3j, wp.xi + 2.0 + 0j):
        op = ws.ShiftOp(c)
        fc = ws.frame_constants(op, wp, recipe.n)
        for _ in range(recipe.samples):
            f = _random_poly(rng, _degree(rng, recipe))
            nf = weights.bergman_norm_sq(f, wp)
            ns = weights.bergman_norm_sq(ws.shift_apply(op, f), wp_shift)
            worst_frame = max(worst_frame, (fc.m * nf - ns) / nf, (ns - fc.M * nf) / nf)
            back = ws.shift_invert(op, ws.shift_apply(op, f))
            worst_rt = max(worst_rt, float(np.max(np.abs(back.coeffs - f.coeffs))))
    return [_check(cfg, "frame_sandwich", worst_frame), _check(cfg, "shift_roundtrip", worst_rt)]


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
    """|r_k - tail| decreases over ``n`` steps for c = 1.5+0.5i; the tolerance
    is the distance at the window's start."""
    wp = cfg.weight()
    op = ws.ShiftOp(1.5 + 0.5j)
    tail = (wp.xi + 3.0) * (wp.xi + 2.0)
    start = _tail_window_start(op.c, wp.xi, int(2 * wp.xi + 2 * abs(op.c) + 10))
    dist = np.abs(ws.frame_ratio(op, wp, np.arange(start, start + recipe.n)) - tail)
    return [_check(cfg, "monotone_tail", dist[-1], ok=bool(np.all(np.diff(dist) <= 1e-15)), tol=dist[0])]


def kernel_shift_derived_constant(cfg, rng, recipe):
    """The derived constant 1/(xi+2) annihilates the step-one kernel shift
    residual; the printed alternative 2/(xi+2) does not."""
    worst_good = 0.0
    best_bad = np.inf
    for x in recipe.xis:
        wpx = WeightParam(x)
        for w in map(quad.KernelPoint, recipe.points):
            worst_good = max(worst_good, ws.kernel_shift_residual(1.0 / (x + 2.0), w, wpx, recipe.degree))
            best_bad = min(best_bad, ws.kernel_shift_residual(2.0 / (x + 2.0), w, wpx, recipe.degree))
    return [
        _check(cfg, "kernel_shift_derived_constant", worst_good, detail=f"printed-constant residual >= {best_bad:.6g}"),
        _check(cfg, "kernel_shift_printed_constant_fails", -float(best_bad)),
    ]


def surjectivity_c_zero(cfg, rng, recipe):
    """c = 0 bypass: the kernel is the constants, the image vanishes at 0."""
    op0 = ws.ShiftOp(0.0, allow_singular=True)
    img = ws.shift_apply(op0, _random_poly(rng, recipe.degree))
    ok = abs(img.coeffs[0]) == 0.0 and ws.shift_apply(op0, CoeffVector([3.7])) == CoeffVector([0.0])
    return [_check(cfg, "surjectivity_c_zero", 0.0 if ok else 1.0)]


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
    number, a RunConfig field name, or None when the check measures its own."""

    fn: Callable[[RunConfig, np.random.Generator, Recipe], List[PropertyCheck]]
    suite: str
    checks: Dict[str, Union[float, str, None]]
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
    Property(shift_limit_monotone, "weight_core", {"shift_limit_monotone": 1e-2}, Recipe(degree=1000)),
    Property(oracle_equivalence_monomials, "weight_core", {"oracle_equivalence_monomials": "tol_quad"},
             Recipe(xis=XI_SCAN, degree=12), Criterion(1, 100, Recipe(xis=XI_SCAN, degree=20))),
    Property(sobolev_norm_equivalence, "weight_core", {"sobolev_norm_equivalence": 1e-12}, Recipe(samples=50)),
    Property(quadrature_rule, "disc_oracle",
             {"probability_measure": 1e-12, "radial_exactness": 1e-9, "angular_exactness": 1e-12},
             Recipe(xis=_INTEGER_XIS, degree=40)),
    Property(kernel_series_consistency, "disc_oracle", {"kernel_series_consistency": 1e-10}, Recipe(degree=60)),
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
    Property(monotone_tail, "shift_iso", {"monotone_tail": None}, Recipe(n=200)),
    Property(kernel_shift_derived_constant, "shift_iso",
             {"kernel_shift_derived_constant": 1e-12, "kernel_shift_printed_constant_fails": -1e-3},
             Recipe(xis=_KERNEL_XIS, points=(0.2, 0.4 + 0.3j), degree=60),
             Criterion(11, 111, Recipe(xis=_KERNEL_XIS, points=(0.2, 0.4, 0.4 + 0.3j), degree=60))),
    Property(surjectivity_c_zero, "shift_iso", {"surjectivity_c_zero": 0.5}, Recipe(degree=10)),
)

_TOLERANCES = {name: tol for p in REGISTRY for name, tol in p.checks.items()}


def _suite(name: str) -> Callable[[RunConfig], List[PropertyCheck]]:
    props = [p for p in REGISTRY if p.suite == name]

    def run(cfg: RunConfig) -> List[PropertyCheck]:
        rng = np.random.default_rng(cfg.seed + SUITE_SEED_OFFSETS[name])
        return [check for p in props for check in p.fn(cfg, rng, p.recipe)]

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
        for name in sorted(selected):
            checks = SUITES[name](cfg)
            report["suites"][name] = [asdict(c) for c in checks]
            if not all(c.passed for c in checks):
                report["passed"] = False
    finally:
        _shared_grid.cache_clear()
    return report
