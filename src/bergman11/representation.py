"""The discrete series representation at group and algebra level.

Group level: weighted composition with a Moebius argument and a multiplier of
weight xi+2, whose branch the weight alone fixes.  Algebra level: the
first-order differential operators obtained by differentiating the group
action; both levels are tied together by a central-difference consistency
check.

The Moebius numerator used here is conj(alpha) z - beta.  With the numerator
alpha z - beta the rotation subgroup would act with trivial Moebius part,
contradicting the -2iz f'(z) term of the derived operator for the rotation
generator; the central-difference check below pins the corrected form.
"""

from __future__ import annotations

import numpy as np

from .operators import apply, derived_op
from .su11 import GroupElement, LieElement, exp_at
from .weights import CoeffVector, WeightParam, weighted_norm_sq


class BranchError(ValueError):
    """Raised when a non-integer weight multiplier leaves its validity region."""


def group_act(x: GroupElement, f, z, xi: WeightParam):
    """Evaluate (pi(x) f)(z) = (-conj(beta) z + alpha)^{-(xi+2)} f(m(z)).

    ``f`` is a CoeffVector or a callable; ``z`` a scalar or array with |z| < 1.
    Integer weights use the exact integer power of the multiplier; other
    weights use the principal branch, valid when Re(alpha) > |beta| so the
    multiplier base stays in the right half-plane.
    """
    z = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("group action requires |z| < 1")
    alpha, beta = complex(x.alpha), complex(x.beta)
    integer_weight = float(xi.xi).is_integer()
    if not integer_weight and not (alpha.real > abs(beta)):
        raise BranchError(
            f"non-integer weight requires Re(alpha) > |beta|; got alpha={alpha}, beta={beta}"
        )
    denom = -np.conj(beta) * z + alpha
    arg = (np.conj(alpha) * z - beta) / denom
    power = xi.xi + 2.0
    if integer_weight:
        mult = denom ** (-int(round(power)))
    else:
        mult = np.exp(-power * np.log(denom))
    out = mult * np.asarray(f(arg), dtype=np.complex128)
    return out if out.ndim else complex(out)


def derivative_check(
    u: LieElement, f: CoeffVector, t: float, xi: WeightParam, sample_points
) -> float:
    """Max abs error of the central difference of the group action against the
    derived operator on the sample points.  Contract: O(t^2)."""
    if not (0.0 < t <= 1e-3):
        raise ValueError("step must satisfy 0 < t <= 1e-3")
    pts = np.asarray(sample_points, dtype=np.complex128)
    plus = group_act(exp_at(u, t), f, pts, xi)
    minus = group_act(exp_at(u, -t), f, pts, xi)
    fd = (np.asarray(plus) - np.asarray(minus)) / (2.0 * t)
    direct = apply(derived_op(u, xi), f)(pts)
    return float(np.max(np.abs(fd - np.asarray(direct))))


def xnorm_sq(f: CoeffVector, xi: WeightParam) -> float:
    """||Pi(X) f||^2 = sum (2k+xi+2)^2 |a_k|^2 ||z^k||^2 for the rotation generator."""
    k = np.arange(f.degree + 1, dtype=float)
    return weighted_norm_sq(f, xi, (2.0 * k + xi.xi + 2.0) ** 2)
