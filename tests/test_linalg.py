"""Tests for the tolerance-aware linear algebra kernel."""

import numpy as np
import pytest

from conftest import random_complex, random_psd, random_subspace

from momentschur import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    Subspace,
    Tolerance,
    fiber_projector,
    loewner_leq,
    numerical_rank,
    pinv,
    range_included,
    ranges_intersect_trivially,
    subspace_from_columns,
)
from momentschur.linalg import (
    _hermitian,
    _root_factor,
    _Spectrum,
    as_matrix,
    as_tolerance,
    frobenius,
    herm_part,
    psd_verdict,
)


def root(A):
    """The PSD square root F Ur^H that ``schur_complement`` factors, from numpy's eigh of A."""
    Ur, F = _root_factor(*np.linalg.eigh(A), Tolerance())
    return F @ Ur.conj().T


class TestTolerance:
    def test_threshold_floors_small_scales(self):
        t = Tolerance()
        assert t.threshold(0.0) == 1e-10
        assert t.threshold(0.5) == 1e-10
        assert t.threshold(5.0) == 5e-10

    def test_custom_eps(self):
        t = Tolerance(eps_rel=1e-6)
        assert t.threshold(100.0) == pytest.approx(1e-4)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            Tolerance(eps_rel=0.0)
        with pytest.raises(ValueError):
            Tolerance(eps_rel=-1e-10)

    def test_as_tolerance_coercions(self):
        assert as_tolerance(None).eps_rel == 1e-10
        assert as_tolerance(1e-8).eps_rel == 1e-8
        t = Tolerance(eps_rel=1e-12)
        assert as_tolerance(t) is t


class TestAsMatrix:
    def test_scalar_becomes_1x1(self):
        assert as_matrix(3.0).shape == (1, 1)

    def test_vector_becomes_column(self):
        assert as_matrix([1.0, 2.0, 3.0]).shape == (3, 1)

    @pytest.mark.parametrize(
        "f", [lambda A: loewner_leq(np.eye(2), A), lambda A: loewner_leq(A, A)]
    )
    def test_square_required(self, f):
        with pytest.raises(DimensionMismatch, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            f(np.ones((2, 3)))

    def test_higher_rank_rejected(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros((2, 2, 2)))


class TestPsdSqrt:
    """The root ``schur_complement`` takes: noise is flattened on both sides of 0."""

    def test_identity(self):
        np.testing.assert_allclose(root(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(root(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-12)

    def test_squares_back(self):
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        Q = root(A)
        np.testing.assert_allclose(Q @ Q, A, atol=1e-12)
        assert _hermitian(Q, Tolerance())

    def test_tiny_negative_clamped(self):
        Q = root(np.diag([1.0, -1e-12]))
        np.testing.assert_allclose(Q, np.diag([1.0, 0.0]), atol=1e-6)

    def test_not_psd_raises(self):
        with pytest.raises(NotPSD):
            root(np.diag([1.0, -1.0]))

    def test_random_psd_up_to_8(self):
        rng = np.random.default_rng(11)
        for q in range(1, 9):
            A = random_psd(rng, q, rng.integers(0, q + 1))
            Q = root(A)
            assert frobenius(Q @ Q - A) <= 1e-9 * max(1.0, frobenius(A))


def clip(A, scale):
    """The clip a tower takes of a slack A at working scale ``scale``."""
    return _Spectrum(np.asarray(A, dtype=complex)).clip(scale, Tolerance())


class TestPsdClip:
    def test_flattens_noise_at_working_scale(self):
        # a residual of quantities of size ~2e3 may carry +-1e-9 eigenvalue
        # noise; at that working scale the clip returns the exact zero
        noise = np.diag([1e-9, -7e-10]).astype(complex)
        np.testing.assert_allclose(clip(noise, 2e3), np.zeros((2, 2)))

    def test_keeps_content_above_the_band(self):
        A = np.diag([5.0, 1e-9]).astype(complex)
        np.testing.assert_allclose(clip(A, 2e3), np.diag([5.0, 0.0]))

    def test_rejects_genuine_negative(self):
        with pytest.raises(NotPSD):
            clip(np.diag([1.0, -1.0]), 2.0)

    def test_skew_noise_tolerated_at_scale(self):
        skew = np.array([[0.0, 1e-9], [-1e-9, 0.0]])
        np.testing.assert_allclose(clip(skew, 2e3), np.zeros((2, 2)))
        with pytest.raises(NotHermitian):
            clip(np.array([[0.0, 1.0], [-1.0, 0.0]]), 2.0)


def _check_penrose(A, X, scale):
    tol = 1e-9 * max(1.0, scale)
    assert frobenius(A @ X @ A - A) <= tol
    assert frobenius(X @ A @ X - X) <= tol
    assert frobenius(A @ X - (A @ X).conj().T) <= tol
    assert frobenius(X @ A - (X @ A).conj().T) <= tol


class TestPinv:
    def test_zero(self):
        np.testing.assert_allclose(pinv(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_invertible_diagonal(self):
        np.testing.assert_allclose(pinv(np.diag([2.0, 5.0])), np.diag([0.5, 0.2]), atol=1e-12)

    def test_rank_one_projector(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        X = pinv(A)
        np.testing.assert_allclose(X, A, atol=1e-12)
        _check_penrose(A, X, 1.0)

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(13)
        for rows, cols, r in [(3, 3, 3), (4, 2, 2), (2, 5, 2), (5, 5, 2), (4, 4, 0)]:
            if r == 0:
                A = np.zeros((rows, cols), dtype=complex)
            else:
                A = random_complex(rng, rows, r) @ random_complex(rng, r, cols)
            _check_penrose(A, pinv(A), frobenius(A))

    def test_hermitian_input_hermitian_output(self):
        rng = np.random.default_rng(17)
        A = random_psd(rng, 4, 2)
        X = pinv(A)
        assert _hermitian(X, Tolerance())
        _check_penrose(A, X, frobenius(A))


class TestNumericalRank:
    def test_constructed_ranks(self):
        rng = np.random.default_rng(19)
        for q, r in [(1, 0), (3, 1), (4, 4), (6, 3)]:
            assert numerical_rank(random_psd(rng, q, r)) == r

    def test_noise_is_rank_zero(self):
        rng = np.random.default_rng(23)
        assert numerical_rank(1e-13 * random_complex(rng, 4, 4)) == 0

    def test_empty_matrix(self):
        assert numerical_rank(np.zeros((3, 0))) == 0


class TestProjectors:
    """The range projector M M^+, as ``range_included`` judges with it."""

    def test_range_projector_identity(self):
        assert range_included(np.array([[1.0], [-2.0]]), np.eye(2))

    def test_range_projector_axis(self):
        axis = np.array([[1.0], [0.0]])
        assert range_included(np.diag([3.0, 0.0]), axis)
        assert not range_included(np.array([[0.0], [1.0]]), axis)

    def test_range_projector_diagonal_span(self):
        span = np.array([[1.0], [1.0]])
        assert range_included(np.array([[2.0, -1.0], [2.0, -1.0]]), span)
        assert not range_included(np.array([[1.0], [0.0]]), span)

    def test_projector_laws_random(self):
        rng = np.random.default_rng(29)
        M = random_complex(rng, 5, 2)
        assert range_included(M, M)
        assert range_included(M @ random_complex(rng, 2, 3), M)
        assert not range_included(random_complex(rng, 5, 1), M)

    def test_orthonormal_columns_rank(self):
        rng = np.random.default_rng(31)
        M = random_complex(rng, 5, 2) @ random_complex(rng, 2, 4)
        B = subspace_from_columns(M).basis
        assert B.shape == (5, 2)
        np.testing.assert_allclose(B.conj().T @ B, np.eye(2), atol=1e-10)


class TestSubspace:
    def test_zero_and_full(self):
        z = Subspace.zero(3)
        assert (z.ambient_dim, z.dim) == (3, 0)
        np.testing.assert_allclose(z.projector(), np.zeros((3, 3)))
        f = Subspace(np.eye(3, dtype=complex))
        assert f.dim == 3
        np.testing.assert_allclose(f.projector(), np.eye(3))

    def test_from_columns_collapses_rank(self):
        V = subspace_from_columns(np.array([[2.0, 4.0], [0.0, 0.0]]))
        assert V.dim == 1
        np.testing.assert_allclose(V.projector(), np.diag([1.0, 0.0]), atol=1e-12)

    def test_from_columns_full(self):
        assert subspace_from_columns(np.eye(3)).dim == 3

    def test_from_empty_columns(self):
        assert subspace_from_columns(np.zeros((4, 0))).dim == 0

    def test_contains_on_the_zero_subspace_and_the_whole_space(self):
        B = random_complex(np.random.default_rng(41), 3, 2)
        zero, whole = Subspace.zero(3), Subspace(np.eye(3, dtype=complex))
        assert zero.contains(np.zeros((3, 2)))
        assert not zero.contains(B)
        assert not zero.contains(1e-9 * B)
        assert zero.contains(1e-11 * B)
        assert whole.contains(B)

    def test_contains_agrees_with_range_included(self):
        rng = np.random.default_rng(43)
        V = random_subspace(rng, 4, 2)
        inside = V.basis @ random_complex(rng, 2, 3)
        assert V.contains(inside) and range_included(inside, V.basis)
        assert not V.contains(random_complex(rng, 4, 1))

    @pytest.mark.parametrize("d", [0, 2, 3])
    def test_contains_fails_nan(self, d):
        V = Subspace(np.eye(3, d, dtype=complex))
        assert not V.contains(np.array([[np.nan], [0.0], [0.0]]))

    def test_contains_needs_matching_rows(self):
        with pytest.raises(DimensionMismatch, match="^row counts differ$"):
            Subspace(np.eye(3, dtype=complex)).contains(np.eye(2))

    def test_a_lapack_basis_keeps_its_bits(self):
        M = random_complex(np.random.default_rng(47), 6, 6)
        bases = (np.linalg.eigh(M + M.conj().T)[1], np.linalg.svd(M)[0], np.linalg.qr(M)[0])
        for U in bases:
            assert np.array_equal(Subspace(U[:, :4]).basis, U[:, :4])

    def test_a_basis_off_the_identity_is_reorthonormalized(self):
        Q = random_subspace(np.random.default_rng(1), 6, 3).basis
        B = Subspace(Q * (1 + 5e-10)).basis
        np.testing.assert_allclose(B.conj().T @ B, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(B @ B.conj().T, Q @ Q.conj().T, atol=1e-14)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_a_non_finite_basis(self, entry):
        # the complement's QR would carry the entry into every column of W
        basis = np.eye(3, 2, dtype=complex)
        basis[0, 1] = entry
        with pytest.raises(ValueError, match="^basis columns are not orthonormal$"):
            Subspace(basis)

    @pytest.mark.parametrize("basis", [np.ones(3), np.ones((2, 2, 1))])
    def test_rejects_a_basis_that_is_not_a_matrix(self, basis):
        with pytest.raises(DimensionMismatch, match="^a subspace basis must be a 2-d array$"):
            Subspace(basis)

    def test_rejects_too_many_columns(self):
        with pytest.raises(DimensionMismatch):
            Subspace(np.ones((2, 3)))  # 3 vectors cannot be independent in C^2

    def test_complement(self):
        rng = np.random.default_rng(37)
        V = random_subspace(rng, 5, 2)
        W = V.complement()
        assert W.dim == 3
        np.testing.assert_allclose(V.projector() + W.projector(), np.eye(5), atol=1e-10)
        np.testing.assert_allclose(W.basis.conj().T @ V.basis, np.zeros((3, 2)), atol=1e-10)

    def test_basis_read_only(self):
        V = Subspace(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            V.basis[0, 0] = 5.0


class TestFiberProjector:
    def test_full_space_gives_identity(self):
        rng = np.random.default_rng(41)
        M = random_complex(rng, 3, 4)
        np.testing.assert_allclose(fiber_projector(M, Subspace(np.eye(3, dtype=complex))), np.eye(4), atol=1e-10)

    def test_zero_space_gives_null_projector(self):
        # null of diag(1,0) is the second axis
        P = fiber_projector(np.diag([1.0, 0.0]), Subspace.zero(2))
        np.testing.assert_allclose(P, np.diag([0.0, 1.0]), atol=1e-10)

    def test_axis_fiber(self):
        # M = diag(1,0): Mx in span{e2} forces x1 = 0
        V = subspace_from_columns(np.array([[0.0], [1.0]]))
        P = fiber_projector(np.diag([1.0, 0.0]), V)
        np.testing.assert_allclose(P, np.diag([0.0, 1.0]), atol=1e-10)

    def test_projector_laws_and_membership(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            q, p, d = 4, 3, int(rng.integers(0, 5))
            M = random_complex(rng, q, p)
            V = random_subspace(rng, q, d)
            P = fiber_projector(M, V)
            np.testing.assert_allclose(P @ P, P, atol=1e-9)
            np.testing.assert_allclose(P, P.conj().T, atol=1e-10)
            x = random_complex(rng, p, 1)
            y = M @ (P @ x)
            dist = frobenius(y - V.projector() @ y)
            assert dist <= 1e-9 * max(1.0, frobenius(y))

    def test_fixed_points(self):
        # x with Mx in V must be fixed; vectors in null M qualify for any V
        rng = np.random.default_rng(47)
        M = random_complex(rng, 4, 2) @ random_complex(rng, 2, 5)
        null_basis = subspace_from_columns(np.eye(5) - pinv(M) @ M).basis
        V = random_subspace(rng, 4, 1)
        P = fiber_projector(M, V)
        x = null_basis @ random_complex(rng, null_basis.shape[1], 1)
        np.testing.assert_allclose(P @ x, x, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fiber_projector(np.eye(3), Subspace(np.eye(2, dtype=complex)))


class TestPsdPredicates:
    def test_verdict_never_raises(self):
        assert not psd_verdict(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not psd_verdict(np.zeros((2, 3)))
        assert psd_verdict(np.eye(2))
        assert psd_verdict(np.diag([1.0, 0.0]))
        assert psd_verdict(np.zeros((2, 2)))
        assert not psd_verdict(np.diag([1.0, -1.0]))

    def test_loewner_examples(self):
        rng = np.random.default_rng(53)
        A = random_psd(rng, 3, 2)
        assert loewner_leq(np.zeros((3, 3)), A)
        assert loewner_leq(np.diag([1.0, 2.0]), np.diag([2.0, 2.0]))
        # difference diag(-1, 1) has a negative eigenvalue
        assert not loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))

    def test_loewner_errors(self):
        with pytest.raises(DimensionMismatch):
            loewner_leq(np.eye(2), np.eye(3))
        with pytest.raises(NotHermitian):
            loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_loewner_equality_survives_cancellation_noise(self):
        # nearly-equal large operands: the difference is rounding noise at
        # the operand scale, and the comparison must hold both ways
        rng = np.random.default_rng(61)
        B = 2e3 * random_psd(rng, 3, 3)
        A = B + herm_part(1e-9 * random_complex(rng, 3, 3))
        assert loewner_leq(A, B) and loewner_leq(B, A)


class TestRangePredicates:
    def test_zero_always_included(self):
        assert range_included(np.zeros((2, 2)), np.diag([1.0, 0.0]))

    def test_orthogonal_ranges_not_included(self):
        assert not range_included(np.array([[0.0], [1.0]]), np.diag([1.0, 0.0]))

    def test_product_range_included(self):
        rng = np.random.default_rng(59)
        A = random_complex(rng, 4, 3)
        B = A @ random_complex(rng, 3, 2)
        assert range_included(B, A)

    def test_included_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            range_included(np.eye(2), np.eye(3))

    def test_trivial_intersection_examples(self):
        assert ranges_intersect_trivially(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        assert ranges_intersect_trivially(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not ranges_intersect_trivially(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))

    def test_trivial_intersection_rank_arithmetic(self):
        rng = np.random.default_rng(61)
        # shared column forces a nontrivial intersection
        C = random_complex(rng, 4, 1)
        A = np.hstack([C, random_complex(rng, 4, 1)])
        B = np.hstack([C, random_complex(rng, 4, 1)])
        assert not ranges_intersect_trivially(A, B)

    def test_trivial_intersection_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ranges_intersect_trivially(np.eye(2), np.eye(3))
