"""Uncertainty inequalities for operators from the derived representation.

``lie_up`` evaluates the abstract inequality
|<Pi([U,V]) u, u>| <= 2 ||(Pi(U)+x) u|| ||(Pi(V)+y) u|| for algebra elements
U, V and real shifts; ``soltani_up`` is its Bergman-space specialization for
the pair (W, Y), and ``consistency_check`` ties the two routes together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import FirstOrderOp, apply, bracket_op, derived_op
from .su11 import LieElement, W_GEN, Y_GEN
from .weights import CoeffVector, WeightParam, bergman_norm_sq, inner_product, weighted_norm_sq


@dataclass(frozen=True)
class UncertaintyReport:
    """Both sides of an uncertainty inequality plus the input echo."""

    lhs: float
    rhs: float
    inputs: dict = field(default_factory=dict, compare=False)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _shifted_apply(op, u: CoeffVector, shift: float) -> CoeffVector:
    return apply(op, u) + shift * u


def lie_up(
    u_elt: LieElement,
    v_elt: LieElement,
    u: CoeffVector,
    x: float,
    y: float,
    xi: WeightParam,
) -> UncertaintyReport:
    """Evaluate the abstract Lie-algebra uncertainty inequality."""
    lb = bracket_op(u_elt, v_elt, xi)
    lhs = abs(inner_product(apply(lb, u), u, xi))
    nu = np.sqrt(bergman_norm_sq(_shifted_apply(derived_op(u_elt, xi), u, x), xi))
    nv = np.sqrt(bergman_norm_sq(_shifted_apply(derived_op(v_elt, xi), u, y), xi))
    rhs = 2.0 * nu * nv
    return UncertaintyReport(
        lhs=float(lhs),
        rhs=float(rhs),
        inputs={"kind": "lie", "x": x, "y": y, "xi": xi.xi, "deg": u.degree},
    )


def soltani_up(f: CoeffVector, w: float, y: float, xi: WeightParam) -> UncertaintyReport:
    """Bergman-space uncertainty inequality with shift parameters w, y.

    lhs = (xi+2)||f||^2 + 2<z f', f> = sum (xi+2+2k) |a_k|^2 ||z^k||^2, real by
    construction; rhs is the product of the norms of
    (1+z^2) f' + ((xi+2) z + i w) f and (z^2 - 1) f' + ((xi+2) z + y) f.
    """
    p = xi.xi + 2.0
    lhs = weighted_norm_sq(f, xi, p + 2.0 * np.arange(f.degree + 1))

    a_op_f = apply(
        FirstOrderOp(CoeffVector([1.0, 0.0, 1.0]), CoeffVector([1j * w, p])), f
    )
    b_op_f = apply(
        FirstOrderOp(CoeffVector([-1.0, 0.0, 1.0]), CoeffVector([y, p])), f
    )
    rhs = float(
        np.sqrt(bergman_norm_sq(a_op_f, xi)) * np.sqrt(bergman_norm_sq(b_op_f, xi))
    )
    return UncertaintyReport(
        lhs=float(lhs),
        rhs=rhs,
        inputs={"kind": "soltani", "w": w, "y": y, "xi": xi.xi, "deg": f.degree},
    )


def consistency_check(f: CoeffVector, w: float, y: float, xi: WeightParam) -> float:
    """Max discrepancy between soltani_up and the lie_up route through (W, Y).

    The first rhs factor equals ||(Pi(W) - w) f|| and both sides of the lie
    route carry an overall factor 2 that cancels.
    """
    direct = soltani_up(f, w, y, xi)
    via_lie = lie_up(W_GEN, Y_GEN, f, -w, y, xi)
    return max(abs(direct.lhs - via_lie.lhs / 2.0), abs(direct.rhs - via_lie.rhs / 2.0))


def minimize_shift(fn, lo: float = -4.0, hi: float = 4.0, iters: int = 60) -> float:
    """Golden-section minimizer for probing near-optimal shifts."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0
