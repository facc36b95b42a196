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
``xnorm_sq`` acts on the last axis of a coefficient batch, like the norms of
``weights``.
"""

from __future__ import annotations

import numpy as np

from .operators import apply, derived_op
from .su11 import GroupElement, LieElement, exp_at
from .weights import CoeffVector, WeightParam, _coeffs, weighted_norm_sq


class BranchError(ValueError):
    """Raised when a non-integer weight multiplier leaves its validity region."""


def group_act(x, f, z, xi: WeightParam):
    """Evaluate (pi(x) f)(z) = (-conj(beta) z + alpha)^{-(xi+2)} f(m(z)).

    ``f`` is a CoeffVector or a callable; ``z`` a scalar or array with |z| < 1.
    ``x`` is a GroupElement, or a sequence of them evaluated together, which
    puts a leading axis over the elements in front of the shape of ``z``.
    Integer weights use the exact integer power of the multiplier; other
    weights use the principal branch, valid when Re(alpha) > |beta| so the
    multiplier base stays in the right half-plane.

    ``z`` is only read.  An array is evaluated in one buffer of the result's
    shape besides what ``f`` returns: the Moebius argument, whose denominator
    is a second buffer freed before ``f`` runs, and then the denominator again,
    the multiplier and the result.  So inside ``integrate`` no more than two
    blocks of rows are alive at once, and the heap reuses them rather than
    returning them to the system and faulting them in again.  For one
    element, a scalar or one-element ``z`` is evaluated as a numpy scalar by
    the same operations in the same operand order, so that a point rounds the
    same alone and inside a block (as ``CoeffVector.__call__`` does).
    """
    z = np.asarray(z, dtype=np.complex128)
    shape = z.shape
    if z.size == 1:
        z = z.reshape(())
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("group action requires |z| < 1")
    single = isinstance(x, GroupElement)
    elements = [(complex(e.alpha), complex(e.beta)) for e in ([x] if single else x)]
    integer_weight = float(xi.xi).is_integer()
    for alpha, beta in elements:
        if not integer_weight and not (alpha.real > abs(beta)):
            raise BranchError(
                f"non-integer weight requires Re(alpha) > |beta|; got alpha={alpha}, beta={beta}"
            )
    if single:
        ((alpha, beta),) = elements
    else:  # one row per element, broadcast against z
        alpha, beta = (np.reshape(c, (-1,) + (1,) * z.ndim) for c in np.array(elements).T)

    def update(ufunc, *operands, into):
        # into a buffer of ours, or a new scalar for a point
        return ufunc(*operands, out=into if np.ndim(into) else None)

    def denominator(into=None):
        d = np.multiply(-np.conj(beta), z, out=into)
        return update(np.add, d, alpha, into=d)

    arg = np.multiply(np.conj(alpha), z)
    arg = update(np.subtract, arg, beta, into=arg)
    arg = update(np.divide, arg, denominator(), into=arg)
    values = np.asarray(f(arg), dtype=np.complex128)
    if np.may_share_memory(values, arg):  # f returned its argument or a view of it
        values = values.copy()
    # f has read arg, so its buffer takes the multiplier and then the product
    mult = denominator(arg if np.ndim(arg) else None)
    power = xi.xi + 2.0
    if integer_weight:
        mult = update(np.power, mult, -int(round(power)), into=mult)
    else:
        mult = update(np.log, mult, into=mult)
        mult = update(np.multiply, -power, mult, into=mult)
        mult = update(np.exp, mult, into=mult)
    out = update(np.multiply, mult, values, into=mult)
    if out.ndim:
        return out
    return np.reshape(out, shape) if shape else complex(out)


def derivative_check(u: LieElement, f: CoeffVector, steps, xi: WeightParam, sample_points) -> np.ndarray:
    """Max abs error of the central difference of the group action against the
    derived operator on the sample points, one per step t.  Contract: O(t^2).

    ``steps`` is a sequence of steps, giving the array of their errors; the
    group elements exp(+-t u) of all steps are acted with in one ``group_act``
    call, and the derived operator is applied once."""
    steps = [float(s) for s in steps]
    if not all(0.0 < s <= 1e-3 for s in steps):
        raise ValueError("step must satisfy 0 < t <= 1e-3")
    pts = np.asarray(sample_points, dtype=np.complex128)
    acted = group_act([exp_at(u, sign * s) for s in steps for sign in (1.0, -1.0)], f, pts, xi)
    direct = np.asarray(apply(derived_op(u, xi), f)(pts))
    errors = [np.max(np.abs((plus - minus) / (2.0 * s) - direct)) for s, plus, minus in zip(steps, acted[::2], acted[1::2])]
    return np.array(errors)


def xnorm_sq(f, xi: WeightParam):
    """||Pi(X) f||^2 = sum (2k+xi+2)^2 |a_k|^2 ||z^k||^2 for the rotation generator,
    over the last axis of a CoeffVector or a coefficient batch."""
    k = np.arange(_coeffs(f).shape[-1], dtype=float)
    return weighted_norm_sq(f, xi, (2.0 * k + xi.xi + 2.0) ** 2)
