import numpy as np
import pytest

from bergman11 import (
    CoeffVector,
    FirstOrderOp,
    SymmetricForm,
    WeightParam,
    apply,
    basis_elements,
    bracket_op,
    classify_symmetric,
    commutator_matrix,
    derived_op,
    from_rep,
    gram_matrix,
    hermiticity_defect,
    is_scalar,
    symmetric_tridiagonal,
    to_rep,
    zhu_scan,
)
from bergman11 import operators, reporting
from bergman11.su11 import LieElement
from bergman11.weights import basis_scales

X, Y, Z, W = basis_elements()

D_DZ = FirstOrderOp(CoeffVector([1.0]), CoeffVector([0.0]))
Z_D_DZ = FirstOrderOp(CoeffVector([0.0, 1.0]), CoeffVector([0.0]))


def rand_elt(rng):
    return LieElement(float(rng.normal()), complex(rng.normal(), rng.normal()))


def rand_op(rng, deg_f, deg_g):
    def coeffs(d):
        return CoeffVector(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))

    return FirstOrderOp(coeffs(deg_f), coeffs(deg_g))


def gram_oracle(op, xi, degree):
    """The per-column reference: apply L to each basis vector e_n."""
    scales = basis_scales(xi, degree + 2)
    out_scales = basis_scales(xi, degree)
    m = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
    for n in range(degree + 1):
        en = np.zeros(n + 1, dtype=np.complex128)
        en[n] = scales[n]
        col = apply(op, CoeffVector(en)).padded(degree)
        m[:, n] = col / out_scales
    return m


def commutator_oracle(op1, op2, xi, degree):
    """The double-application reference: L1 L2 e_n - L2 L1 e_n per column.

    Each operator lowers the degree by at most one, so truncating at N+2
    leaves every entry up to degree N exact."""
    work = degree + 2
    scales = basis_scales(xi, work)
    out_scales = basis_scales(xi, degree)
    m = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
    for n in range(degree + 1):
        en = np.zeros(n + 1, dtype=np.complex128)
        en[n] = scales[n]
        e = CoeffVector(en)
        col = apply(op1, apply(op2, e, work), work) - apply(op2, apply(op1, e, work), work)
        m[:, n] = col.padded(degree) / out_scales
    return m


def oracle_cases(seed, count):
    """Random (op1, op2, xi, N): deg f in 0..4, deg g in 0..3, xi in (-1, 5],
    N in 0..24, led by bands wider than N."""
    rng = np.random.default_rng(seed)
    cases = [
        (rand_op(rng, 4, 3), rand_op(rng, 4, 3), WeightParam(0.5), 1),
        (rand_op(rng, 4, 3), rand_op(rng, 2, 1), WeightParam(-0.9), 0),
        (rand_op(rng, 0, 0), rand_op(rng, 0, 0), WeightParam(2.0), 6),
    ]
    for _ in range(count):
        ops = [rand_op(rng, *rng.integers(0, (5, 4))) for _ in range(2)]
        xi = WeightParam(5.0 - 6.0 * float(rng.random()))
        cases.append((*ops, xi, int(rng.integers(0, 25))))
    return cases


class TestApply:
    def test_plain_derivative(self):
        assert apply(D_DZ, CoeffVector([0, 0, 1])) == CoeffVector([0, 2])

    def test_euler_operator_eigenvectors(self):
        for k in range(5):
            zk = np.zeros(k + 1)
            zk[k] = 1.0
            assert apply(Z_D_DZ, CoeffVector(zk)) == k * CoeffVector(zk)

    def test_multiplication_part(self):
        op = FirstOrderOp(CoeffVector([0.0]), CoeffVector([1.0, 2.0]))
        assert apply(op, CoeffVector([1, 1])) == CoeffVector([1, 3, 2])

    def test_truncation(self):
        op = FirstOrderOp(CoeffVector([0, 0, 1]), CoeffVector([0.0]))
        assert apply(op, CoeffVector([0, 0, 1]), degree=2) == CoeffVector([0])

    def test_bracket_operator_on_constant(self):
        # [pi(W), pi(Y)] = pi(-2X) sends 1 to 4i at weight zero
        op = bracket_op(W, Y, WeightParam(0.0))
        assert apply(op, CoeffVector([1.0])) == CoeffVector([4j])

    def test_linearity_in_operator(self):
        op = D_DZ + 2.0 * Z_D_DZ
        f = CoeffVector([1, 1, 1])
        assert apply(op, f) == apply(D_DZ, f) + 2.0 * apply(Z_D_DZ, f)

    def test_plus_scalar(self):
        op = Z_D_DZ.plus_scalar(3.0)
        assert apply(op, CoeffVector([0, 1])) == CoeffVector([0, 4])


class TestGram:
    def test_euler_operator_diagonal(self):
        g = gram_matrix(Z_D_DZ, WeightParam(1.0), 6)
        np.testing.assert_allclose(g, np.diag(np.arange(7.0)), atol=1e-13)

    def test_derivative_entry(self):
        # <(d/dz) e_1, e_0> = sqrt(2) at weight zero
        g = gram_matrix(D_DZ, WeightParam(0.0), 4)
        assert g[0, 1] == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert np.max(np.abs(np.tril(g))) <= 1e-14

    def test_derived_ops_skew_hermitian(self):
        rng = np.random.default_rng(20)
        for x in (0.0, 1.5):
            wp = WeightParam(x)
            for _ in range(4):
                g = gram_matrix(derived_op(rand_elt(rng), wp), wp, 12)
                assert hermiticity_defect(1j * g) <= 1e-10


class TestClosedForms:
    def test_gram_equals_per_column_oracle_bitwise(self):
        for op, _, xi, n in oracle_cases(30, 200):
            assert np.array_equal(gram_matrix(op, xi, n), gram_oracle(op, xi, n))

    def test_commutator_matches_double_application(self):
        for op1, op2, xi, n in oracle_cases(31, 200):
            got = commutator_matrix(op1, op2, xi, n)
            want = commutator_oracle(op1, op2, xi, n)
            if is_scalar(operators._commutator_op(op1, op2), tol=0.0) == 0:
                # a commuting pair: the closed form is exactly zero, the
                # oracle holds only the rounding of its cancelling products
                assert not np.any(got)
                sizes = [np.max(np.abs(gram_matrix(op, xi, n + 3))) for op in (op1, op2)]
                assert np.max(np.abs(want)) <= 1e-12 * sizes[0] * sizes[1]
            else:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_commutator_operator_on_coefficients(self):
        rng = np.random.default_rng(32)
        for op1, op2, _, n in oracle_cases(33, 50):
            h = CoeffVector(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
            l12, l21 = apply(op1, apply(op2, h)), apply(op2, apply(op1, h))
            got = apply(operators._commutator_op(op1, op2), h)
            n_out = max(got.degree, l12.degree)
            diff = got.padded(n_out) - (l12 - l21).padded(n_out)
            scale = max(np.max(np.abs(l12.coeffs)), np.max(np.abs(l21.coeffs)))
            assert np.max(np.abs(diff)) <= 1e-13 * scale

    def test_large_n_builds_bands_without_apply(self, monkeypatch):
        calls = []

        def counting_apply(*args, **kwargs):
            calls.append(1)
            return apply(*args, **kwargs)

        monkeypatch.setattr(operators, "apply", counting_apply)
        rng = np.random.default_rng(34)
        wp, n = WeightParam(0.7), 4096
        op1, op2 = rand_op(rng, 2, 1), rand_op(rng, 3, 2)
        # band offsets m - n: -1..1 for (2, 1); the commutator has deg f 4, deg g 3
        for build, offsets in (
            (lambda: gram_matrix(op1, wp, n), range(-1, 2)),
            (lambda: commutator_matrix(op1, op2, wp, n), range(-1, 4)),
        ):
            m = build()
            assert m.shape == (n + 1, n + 1) and m.dtype == np.complex128
            for k in offsets:
                rows = np.arange(max(0, k), n + 1 + min(0, k))
                m[rows, rows - k] = 0.0
            assert not np.any(m)
            del m
        assert calls == []


class TestClassify:
    def test_accepts_symmetric_form(self):
        wp = WeightParam(1.0)
        form = SymmetricForm(0.3 - 0.7j, 1.2, -0.4, wp)
        verdict = classify_symmetric(form.to_operator(), wp)
        assert verdict.symmetric
        assert verdict.form.a0 == pytest.approx(0.3 - 0.7j)
        assert verdict.form.a1 == pytest.approx(1.2)
        assert verdict.form.b0 == pytest.approx(-0.4)

    def test_rejects_complex_a1(self):
        op = FirstOrderOp(CoeffVector([0, 1j]), CoeffVector([0.0]))
        verdict = classify_symmetric(op, WeightParam(0.0))
        assert not verdict.symmetric and verdict.violation == "a1 not real"

    def test_rejects_degree(self):
        op = FirstOrderOp(CoeffVector([0, 0, 0, 1]), CoeffVector([0.0]))
        assert "deg f" in classify_symmetric(op, WeightParam(0.0)).violation

    def test_rejects_mismatched_g1(self):
        wp = WeightParam(0.0)
        op = FirstOrderOp(CoeffVector([1, 0, 1]), CoeffVector([0, 1.9]))
        verdict = classify_symmetric(op, wp)
        assert verdict.violation == "g1 != (xi+2) conj(f0)"

    def test_verdict_tracks_gram_hermiticity(self):
        # the algebraic verdict and the numerical Gram test must agree
        wp = WeightParam(0.5)
        good = SymmetricForm(1j, 0.0, 2.0, wp).to_operator()
        bad = FirstOrderOp(good.fcoeffs, CoeffVector([2.0 + 1e-3j, 2.5j]))
        assert classify_symmetric(good, wp).symmetric
        assert hermiticity_defect(gram_matrix(good, wp, 10)) <= 1e-12
        assert not classify_symmetric(bad, wp).symmetric
        assert hermiticity_defect(gram_matrix(bad, wp, 10)) > 1e-4


class TestTridiagonal:
    def test_matches_gram(self):
        rng = np.random.default_rng(21)
        for x in (-0.5, 0.0, 2.0):
            wp = WeightParam(x)
            for _ in range(5):
                form = SymmetricForm(
                    complex(rng.normal(), rng.normal()), float(rng.normal()), float(rng.normal()), wp
                )
                dense = symmetric_tridiagonal(form, 14).to_dense()
                g = gram_matrix(form.to_operator(), wp, 14)
                assert np.max(np.abs(dense - g)) <= 1e-10

    def test_first_subdiagonal_entry(self):
        # <L e_1, e_0> = a0 sqrt(xi + 2)
        wp = WeightParam(1.0)
        bands = symmetric_tridiagonal(SymmetricForm(0.5, 0.0, 0.0, wp), 3)
        assert bands.sub[0] == pytest.approx(0.5 * np.sqrt(3.0))

    def test_diagonal_is_affine_in_n(self):
        bands = symmetric_tridiagonal(SymmetricForm(0j, 2.0, -1.0, WeightParam(0.0)), 5)
        np.testing.assert_allclose(bands.diag, 2.0 * np.arange(6.0) - 1.0)


class TestRepDecomposition:
    def test_example(self):
        dec = to_rep(2.0, 2.0, 0j, WeightParam(0.0))
        assert dec.coords.sigma == pytest.approx(1.0)
        assert dec.coords.tau == pytest.approx(0.0)
        assert dec.coords.lam == pytest.approx(0.0)
        assert dec.d == pytest.approx(0.0)  # b - (xi+2) a / 2

    def test_roundtrip_through_operator(self):
        rng = np.random.default_rng(22)
        wp = WeightParam(1.5)
        for _ in range(10):
            a, b = rng.normal(size=2)
            c = complex(rng.normal(), rng.normal())
            original = FirstOrderOp(
                CoeffVector([np.conj(c), a, c]),
                CoeffVector([b, (wp.xi + 2.0) * c]),
            )
            rebuilt = from_rep(to_rep(float(a), float(b), c, wp), wp)
            assert np.max(np.abs(rebuilt.fcoeffs.padded(2) - original.fcoeffs.padded(2))) <= 1e-12
            assert np.max(np.abs(rebuilt.gcoeffs.padded(1) - original.gcoeffs.padded(1))) <= 1e-12


class TestCommutators:
    def test_matches_bracket_operator(self):
        rng = np.random.default_rng(23)
        wp = WeightParam(1.0)
        for _ in range(5):
            u, v = rand_elt(rng), rand_elt(rng)
            via_matrix = commutator_matrix(derived_op(u, wp), derived_op(v, wp), wp, 10)
            via_bracket = gram_matrix(bracket_op(u, v, wp), wp, 10)
            assert np.max(np.abs(via_matrix - via_bracket)) <= 1e-10

    def test_commuting_pair_vanishes(self):
        wp = WeightParam(0.0)
        m = commutator_matrix(derived_op(X, wp), derived_op(X, wp), wp, 8)
        assert np.max(np.abs(m)) <= 1e-13


class TestIsScalar:
    def test_operator_forms(self):
        assert is_scalar(FirstOrderOp(CoeffVector([0.0]), CoeffVector([3j]))) == 3j
        assert is_scalar(D_DZ) is None
        assert is_scalar(FirstOrderOp(CoeffVector([0.0]), CoeffVector([0, 1]))) is None


class TestZhuScan:
    def test_no_nonzero_scalar_commutators(self):
        report = zhu_scan(200, WeightParam(1.0), seed=99)
        assert report.scalar_hits == 0 or report.max_scalar_magnitude <= 1e-8
        assert report.min_nonscalar_margin > 1e-8

    def test_report_roundtrips_to_json(self):
        report = zhu_scan(10, WeightParam(0.0), seed=1)
        assert '"samples": 10' in reporting.dumps(report)
