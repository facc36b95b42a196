import hashlib
import sys

import numpy as np
import pytest

from bergman11.weights import CoeffVector, WeightParam, basis_scales
from bergman11.su11 import LieElement, W_GEN, X_GEN, Y_GEN, bracket
from bergman11.operators import (
    FirstOrderOp,
    SymmetricForm,
    apply,
    bracket_op,
    classify_symmetric,
    commutator,
    commutator_matrix,
    derived_op,
    from_rep,
    gram_matrix,
    hermiticity_defect,
    stack,
    symmetric_tridiagonal,
    to_rep,
    zhu_scan,
)
from bergman11 import operators, parts

D_DZ = FirstOrderOp(CoeffVector([1.0]), CoeffVector([0.0]))
Z_D_DZ = FirstOrderOp(CoeffVector([0.0, 1.0]), CoeffVector([0.0]))


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

    Each operator lowers the degree by at most one, so truncating the inner
    image at N+2 leaves every entry up to degree N exact."""
    work = degree + 2
    scales = basis_scales(xi, work)
    out_scales = basis_scales(xi, degree)
    m = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
    for n in range(degree + 1):
        en = np.zeros(n + 1, dtype=np.complex128)
        en[n] = scales[n]
        l12 = CoeffVector(apply(op1, apply(op2, en)[: work + 1]))
        l21 = CoeffVector(apply(op2, apply(op1, en)[: work + 1]))
        m[:, n] = (l12.padded(degree) - l21.padded(degree)) / out_scales
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
            assert apply(Z_D_DZ, CoeffVector(zk)) == CoeffVector(k * zk)

    def test_multiplication_part(self):
        op = FirstOrderOp(CoeffVector([0.0]), CoeffVector([1.0, 2.0]))
        assert apply(op, CoeffVector([1, 1])) == CoeffVector([1, 3, 2])

    def test_bracket_operator_on_constant(self):
        # [pi(W), pi(Y)] = pi(-2X) sends 1 to 4i at weight zero
        op = bracket_op(W_GEN, Y_GEN, WeightParam(0.0))
        assert apply(op, CoeffVector([1.0])) == CoeffVector([4j])

    def test_linearity_in_operator(self):
        op = FirstOrderOp(CoeffVector([1.0, 2.0]), CoeffVector([0.0]))  # D_DZ + 2 Z_D_DZ
        f = np.array([1, 1, 1])
        assert np.array_equal(apply(op, f), apply(D_DZ, f) + 2.0 * apply(Z_D_DZ, f))

    def test_operator_holds_finite_read_only_copies(self):
        with pytest.raises(ValueError, match="finite"):
            FirstOrderOp([1.0, np.nan], [0.0])
        f = np.array([1.0, 2.0])
        op = FirstOrderOp(f, [0.0])
        f[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            op.fcoeffs[0] = 0.0
        assert op.fcoeffs[0] == 1.0


class TestGram:
    def test_euler_operator_diagonal(self):
        g = gram_matrix(Z_D_DZ, WeightParam(1.0), 6)
        np.testing.assert_allclose(g, np.diag(np.arange(7.0)), atol=1e-13)

    def test_derivative_entry(self):
        # <(d/dz) e_1, e_0> = sqrt(2) at weight zero
        g = gram_matrix(D_DZ, WeightParam(0.0), 4)
        assert g[0, 1] == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert np.max(np.abs(np.tril(g))) <= 1e-14


class TestClosedForms:
    def test_gram_equals_per_column_oracle_bitwise(self):
        for op, _, xi, n in oracle_cases(30, 200):
            assert np.array_equal(gram_matrix(op, xi, n), gram_oracle(op, xi, n))

    def test_commutator_matches_double_application(self):
        for op1, op2, xi, n in oracle_cases(31, 200):
            got = commutator_matrix(op1, op2, xi, n)
            want = commutator_oracle(op1, op2, xi, n)
            comm = commutator(op1, op2)
            if not (np.any(comm.fcoeffs) or np.any(comm.gcoeffs)):
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
            h = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            l12, l21 = apply(op1, apply(op2, h)), apply(op2, apply(op1, h))
            got = apply(commutator(op1, op2), h)
            n_out = max(len(got), len(l12), len(l21))
            got, l12, l21 = (np.pad(a, (0, n_out - len(a))) for a in (got, l12, l21))
            diff = got - (l12 - l21)
            scale = max(np.max(np.abs(l12)), np.max(np.abs(l21)))
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


def split_fill_builds(rng, n):
    """The three dense builders at N = n, each a callable: a Gram matrix of
    five bands, a commutator of seven and a tridiagonal matrix."""
    wp = WeightParam(0.7)
    op1, op2 = rand_op(rng, 4, 3), rand_op(rng, 3, 2)
    form = SymmetricForm(0.3 - 0.8j, 1.2, -0.4, wp)
    return (
        lambda: gram_matrix(op1, wp, n),
        lambda: commutator_matrix(op1, op2, wp, n),
        lambda: symmetric_tridiagonal(form, n).to_dense(),
    )


class TestSplitFill:
    """Matrices of at least ``PART_BYTES`` are filled in row parts, one per
    CPU up to ``parts.MAX_PARTS``; the tests pin that count
    (``pin_workers``), past the cap where they test the fill itself."""

    def test_same_bits_at_any_worker_count(self, monkeypatch, pin_workers):
        # N = 1100 (19 MB a matrix) and a stack of three at N = 600 (17 MB):
        # two parts at two workers; with PART_BYTES at 1 MiB, three and seven
        # parts of uneven row counts.  The lock is handed between threads as
        # often as the interpreter allows
        rng = np.random.default_rng(36)
        builds = split_fill_builds(rng, 1100)
        ops, wp = stack([rand_op(rng, 2, 1) for _ in range(3)]), WeightParam(-0.9)
        builds += (lambda: gram_matrix(ops, wp, 600),)
        got = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for count, part_bytes in ((1, operators.PART_BYTES), (2, operators.PART_BYTES), (3, 1 << 20), (7, 1 << 20)):
                pin_workers(count)
                monkeypatch.setattr(operators, "PART_BYTES", part_bytes)
                got.add(tuple(hashlib.sha256(build()).hexdigest() for build in builds))
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 1

    def test_small_matrices_start_no_thread(self, monkeypatch, pin_workers):
        # N = 512 (4.2 MB), and a stack of three of them, are one part each
        class Started(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Started

        pin_workers(2)
        monkeypatch.setattr(parts.threading, "Thread", refuse)
        rng = np.random.default_rng(37)
        for build in split_fill_builds(rng, 512):
            assert build().shape == (513, 513)
        assert gram_matrix(stack([rand_op(rng, 2, 1) for _ in range(3)]), WeightParam(0.0), 512).shape == (3, 513, 513)
        # the patch reaches the runner: N = 1100 is two parts
        with pytest.raises(Started):
            split_fill_builds(rng, 1100)[0]()


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
            assert np.max(np.abs(rebuilt.fcoeffs - original.fcoeffs)) <= 1e-12
            assert np.max(np.abs(rebuilt.gcoeffs - original.gcoeffs)) <= 1e-12


class TestCommutators:
    def test_commuting_pair_vanishes(self):
        wp = WeightParam(0.0)
        m = commutator_matrix(derived_op(X_GEN, wp), derived_op(X_GEN, wp), wp, 8)
        assert np.max(np.abs(m)) <= 1e-13


class TestZhuScan:
    def test_no_nonzero_scalar_commutators(self):
        report = zhu_scan(200, WeightParam(1.0), seed=99)
        assert report.scalar_hits == 0 or report.max_scalar_magnitude <= 1e-8
        assert report.min_nonscalar_margin > 1e-8

    @staticmethod
    def per_pair_reference(samples, xi, seed, tol):
        """One pair at a time: scalar draws, the derived operator of [U, V]
        and its distance max(|p_j|, |q_1|) from the scalars."""
        rng = np.random.default_rng(seed)
        hits, scalars, margins = 0, [0.0], []
        for _ in range(samples):
            u = LieElement(float(rng.normal()), complex(rng.normal(), rng.normal()))
            v = LieElement(float(rng.normal()), complex(rng.normal(), rng.normal()))
            op = derived_op(bracket(u, v), xi)
            distance = max(np.max(np.abs(op.fcoeffs)), np.abs(op.gcoeffs)[1])
            if distance <= tol:
                hits += 1
                scalars.append(abs(op.gcoeffs[0]))
            else:
                margins.append(distance)
        return hits, max(scalars), min(margins)

    @pytest.mark.parametrize("x, tol", [(0.0, 1e-8), (1.0, 1e-8), (2.5, 1e-8), (-0.5, 0.5)])
    def test_batch_matches_per_pair_loop(self, x, tol):
        # at xi = -0.5 a scalar operator has |q_0| <= (xi+2) tol / 2 < tol,
        # so tol = 0.5 gives hits without a nonzero-scalar error
        hits, max_scalar, margin = self.per_pair_reference(500, WeightParam(x), 113, tol)
        report = zhu_scan(500, WeightParam(x), 113, tol)
        assert report.scalar_hits == hits
        assert report.min_nonscalar_margin == margin
        assert report.max_scalar_magnitude == pytest.approx(max_scalar, rel=1e-15)
        if tol == 0.5:
            assert hits > 0

    def test_nonzero_scalar_raises(self):
        # at xi = 2, tol = 2 some hits have |q_0| = 4|sigma + lam| > tol
        with pytest.raises(RuntimeError, match="nonzero scalar"):
            zhu_scan(500, WeightParam(2.0), 113, 2.0)


class TestGramPrecision:
    @pytest.mark.parametrize("offset", [1, 50, 150])
    def test_entries_against_reference_table(self, offset, log_norms_ref):
        # multiplication by z^K has M[n+K, n] = s_n / s_{n+K} = exp((L_{n+K} - L_n)/2);
        # at xi = 98 the error is at most 7.8e-14 against the 40-digit table,
        # and a log-Gamma route (3.1e-13 to 4.6e-13) fails the bound
        k, L = log_norms_ref[98.0]
        n_max = 299
        assert np.array_equal(k[: n_max + 1], np.arange(n_max + 1))
        op = FirstOrderOp(CoeffVector([0.0]), CoeffVector([0.0] * offset + [1.0]))
        m = gram_matrix(op, WeightParam(98.0), n_max)
        n = np.arange(n_max + 1 - offset)
        want = np.exp(0.5 * (L[n + offset] - L[n]))
        np.testing.assert_allclose(m[n + offset, n], want, rtol=1.5e-13, atol=0)
