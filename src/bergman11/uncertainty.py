"""Uncertainty inequalities for operators from the derived representation.

``lie_up`` evaluates the abstract inequality
|<Pi([U,V]) u, u>| <= 2 ||(Pi(U)+x) u|| ||(Pi(V)+y) u|| for algebra elements
U, V and real shifts; ``soltani_up`` is its Bergman-space specialization for
the pair (W, Y), and ``consistency_check`` ties the two routes together.
``soltani_up`` also takes a coefficient batch with shifts that broadcast
against it, so a whole sample grid is one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import FirstOrderOp, apply, bracket_op, derived_op
from .su11 import LieElement, W_GEN, Y_GEN
from .weights import CoeffVector, WeightParam, _coeffs, bergman_norm_sq, inner_product
from .weights import monomial_norms_sq, weighted_norm_sq


@dataclass(frozen=True)
class UncertaintyReport:
    """Both sides of an uncertainty inequality plus the input echo; for a
    batch, ``lhs`` and ``rhs`` are arrays over the batch and shift axes."""

    lhs: float
    rhs: float
    inputs: dict = field(default_factory=dict, compare=False)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _shifted_apply(op, a: np.ndarray, shift) -> np.ndarray:
    """(L + shift) applied to the coefficient rows a; shift broadcasts against
    their leading axes."""
    out = apply(op, a)
    out[..., : a.shape[-1]] += a * np.asarray(shift, dtype=float)[..., None]
    return out


def lie_up(
    u_elt: LieElement,
    v_elt: LieElement,
    u,
    x,
    y,
    xi: WeightParam,
) -> UncertaintyReport:
    """Evaluate the abstract Lie-algebra uncertainty inequality.

    ``u`` is a CoeffVector, giving numpy float scalars, or a (..., deg+1)
    coefficient batch with shifts x, y that broadcast against its leading
    axes, as in ``soltani_up``.
    """
    a = _coeffs(u)
    s = inner_product(apply(bracket_op(u_elt, v_elt, xi), a), a, xi)
    lhs = np.hypot(np.real(s), np.imag(s))  # |s|, rounded as abs() of a Python complex
    nu = np.sqrt(bergman_norm_sq(_shifted_apply(derived_op(u_elt, xi), a, x), xi))
    nv = np.sqrt(bergman_norm_sq(_shifted_apply(derived_op(v_elt, xi), a, y), xi))
    rhs = 2.0 * nu * nv
    return UncertaintyReport(
        lhs=lhs,
        rhs=rhs,
        inputs={"kind": "lie", "x": x, "y": y, "xi": xi.xi, "deg": a.shape[-1] - 1},
    )


def _unshifted_images(a: np.ndarray, xi: WeightParam):
    """A0 f = (1+z^2) f' + (xi+2) z f and B0 f = (z^2-1) f' + (xi+2) z f for a
    coefficient batch, and f zero-padded to their length."""
    p = xi.xi + 2.0
    a_op_f = apply(FirstOrderOp([1.0, 0.0, 1.0], [0.0, p]), a)
    b_op_f = apply(FirstOrderOp([-1.0, 0.0, 1.0], [0.0, p]), a)
    f_pad = np.zeros_like(a_op_f)
    f_pad[..., : a.shape[-1]] = a
    return a_op_f, b_op_f, f_pad


def soltani_up(f, w, y, xi: WeightParam) -> UncertaintyReport:
    """Bergman-space uncertainty inequality with shift parameters w, y.

    lhs = (xi+2)||f||^2 + 2<z f', f> = sum (xi+2+2k) |a_k|^2 ||z^k||^2, real by
    construction; rhs is the product of the norms of
    (1+z^2) f' + ((xi+2) z + i w) f and (z^2 - 1) f' + ((xi+2) z + y) f.

    ``f`` is a CoeffVector, giving numpy float scalars, or a (..., deg+1)
    coefficient batch; ``w`` and ``y`` are numbers or arrays that broadcast
    against the batch shape, and ``rhs`` has the broadcast shape.
    """
    a = _coeffs(f)
    p = xi.xi + 2.0
    lhs = weighted_norm_sq(a, xi, p + 2.0 * np.arange(a.shape[-1]))
    # the unshifted images, then i w f and y f added over the shift axes
    a_op_f, b_op_f, f_pad = _unshifted_images(a, xi)
    iw = 1j * np.asarray(w, dtype=float)[..., None]
    yy = np.asarray(y, dtype=float)[..., None]
    rhs = np.sqrt(bergman_norm_sq(a_op_f + iw * f_pad, xi)) * np.sqrt(bergman_norm_sq(b_op_f + yy * f_pad, xi))
    return UncertaintyReport(
        lhs=lhs,
        rhs=rhs,
        inputs={"kind": "soltani", "w": w, "y": y, "xi": xi.xi, "deg": a.shape[-1] - 1},
    )


def consistency_check(f, w, y, xi: WeightParam):
    """Max discrepancy between soltani_up and the lie_up route through (W, Y):
    a numpy float scalar for a CoeffVector, an array over a batch (shifts as
    in ``soltani_up``).

    The first rhs factor equals ||(Pi(W) - w) f|| and both sides of the lie
    route carry an overall factor 2 that cancels.
    """
    direct = soltani_up(f, w, y, xi)
    via_lie = lie_up(W_GEN, Y_GEN, f, np.negative(w), y, xi)
    return np.maximum(np.abs(direct.lhs - via_lie.lhs / 2.0), np.abs(direct.rhs - via_lie.rhs / 2.0))


def optimal_shifts(f: CoeffVector, xi: WeightParam) -> tuple:
    """The shifts (w*, y*) at which the rhs of ``soltani_up`` is least, for f != 0.

    ||(A0 + i w) f||^2 = ||A0 f||^2 + 2 w Im<A0 f, f> + w^2 ||f||^2 and
    ||(B0 + y) f||^2 = ||B0 f||^2 + 2 y Re<B0 f, f> + y^2 ||f||^2 are
    quadratics in w and y, and the rhs is the product of their square roots,
    so w* = -Im<A0 f, f> / ||f||^2 and y* = -Re<B0 f, f> / ||f||^2.
    """
    a_op_f, b_op_f, f_pad = _unshifted_images(f.coeffs, xi)
    f_dual = np.conj(f_pad) * monomial_norms_sq(xi, f_pad.shape[-1] - 1)
    norm_sq = bergman_norm_sq(f, xi)
    return -float(np.sum(a_op_f * f_dual).imag) / norm_sq, -float(np.sum(b_op_f * f_dual).real) / norm_sq
