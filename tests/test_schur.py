"""Tests for the subspace-relative Schur complement and the decomposition."""

import numpy as np
import pytest

from conftest import psd_root, random_complex, random_contraction, random_psd, random_subspace

from momentschur import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    SplitInvalid,
    Subspace,
    decompose,
    in_lcr,
    is_unique_split,
    loewner_leq,
    range_included,
    schur_complement,
    schur_complement_via_basis,
    subspace_from_columns,
    variational_value,
)
from momentschur.linalg import frobenius, herm_part, numerical_rank

E1 = subspace_from_columns(np.array([[1.0], [0.0]]))


class TestSchurComplement:
    def test_worked_2x2(self):
        # block formula on span{e1}: 2 - 1 * 1^-1 * 1 = 1
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        res = schur_complement(A, E1)
        np.testing.assert_allclose(res.S, np.diag([1.0, 0.0]), atol=1e-10)
        np.testing.assert_allclose(res.complement, np.ones((2, 2)), atol=1e-10)

    def test_full_space_returns_a(self):
        rng = np.random.default_rng(3)
        A = random_psd(rng, 3, 2)
        res = schur_complement(A, Subspace(np.eye(3, dtype=complex)))
        np.testing.assert_allclose(res.S, A, atol=1e-12)
        np.testing.assert_allclose(res.P_fiber, np.eye(3), atol=1e-12)

    def test_zero_space_returns_zero(self):
        res = schur_complement(np.diag([1.0, 0.0]), Subspace.zero(2))
        np.testing.assert_allclose(res.S, np.zeros((2, 2)))
        # the fiber of sqrt(A) over {0} is null A
        np.testing.assert_allclose(res.P_fiber, np.diag([0.0, 1.0]), atol=1e-10)

    def test_identity_gives_projector(self):
        rng = np.random.default_rng(5)
        for d in range(4):
            V = random_subspace(rng, 3, d)
            res = schur_complement(np.eye(3), V)
            np.testing.assert_allclose(res.S, V.projector(), atol=1e-9)

    def test_split_reconstructs(self):
        rng = np.random.default_rng(7)
        A = random_psd(rng, 4, 3)
        res = schur_complement(A, random_subspace(rng, 4, 2))
        np.testing.assert_allclose(res.S + res.complement, herm_part(A), atol=1e-13)

    def test_fiber_agrees_with_range_included(self):
        # V matches e1 only to 1e-8: ran A lies in V at the scale of A when A
        # is small, and then A is its own complement; at unit scale it does not
        V = subspace_from_columns(np.array([[1.0], [1e-8]]))
        small = np.diag([5e-3, 0.0])
        assert range_included(small, V.basis)
        np.testing.assert_allclose(schur_complement(small, V).S, small, rtol=1e-12)
        unit = np.diag([1.0, 0.0])
        assert not range_included(unit, V.basis)
        np.testing.assert_allclose(schur_complement(unit, V).S, np.zeros((2, 2)), atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPSD):
            schur_complement(np.array([[1.0, 1.0], [0.0, 1.0]]), Subspace(np.eye(2, dtype=complex)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            schur_complement(np.diag([1.0, -1.0]), Subspace(np.eye(2, dtype=complex)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            schur_complement(np.ones((2, 3)), Subspace(np.eye(2, dtype=complex)))
        with pytest.raises(DimensionMismatch):
            schur_complement(np.eye(3), Subspace(np.eye(2, dtype=complex)))


class TestCrossPath:
    def test_worked_2x2(self):
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        S = schur_complement_via_basis(A, E1)
        np.testing.assert_allclose(S, np.diag([1.0, 0.0]), atol=1e-10)

    def test_edge_dimensions(self):
        rng = np.random.default_rng(11)
        A = random_psd(rng, 3, 3)
        np.testing.assert_allclose(schur_complement_via_basis(A, Subspace(np.eye(3, dtype=complex))), A)
        np.testing.assert_allclose(
            schur_complement_via_basis(A, Subspace.zero(3)), np.zeros((3, 3))
        )

    def test_routes_agree_random(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            q = int(rng.integers(1, 6))
            A = random_psd(rng, q, int(rng.integers(0, q + 1)))
            V = random_subspace(rng, q, int(rng.integers(0, q + 1)))
            S1 = schur_complement(A, V).S
            S2 = schur_complement_via_basis(A, V)
            assert frobenius(S1 - S2) <= 1e-8 * max(1.0, frobenius(A))

    def test_a_basis_the_constructor_accepts_gets_a_true_complement(self):
        # Gram error 3.5e-10, inside Subspace's 1e-8 check: the complement
        # has q - d columns, not q, so both routes through it stay defined
        Q = random_subspace(np.random.default_rng(1), 6, 3).basis
        V = Subspace(Q * (1 + 1e-10))
        A = np.diag(np.arange(1.0, 7.0))
        x = np.ones(6)
        assert V.complement().dim == 3
        S = schur_complement(A, V).S
        np.testing.assert_allclose(schur_complement_via_basis(A, V), S, atol=1e-8)
        assert float(np.real(x @ S @ x)) == pytest.approx(10.683883, abs=1e-6)
        assert variational_value(A, V, x) == pytest.approx(10.683883, abs=1e-6)


class TestOrderingAndRanges:
    def test_sandwich(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            q = int(rng.integers(1, 6))
            A = random_psd(rng, q, int(rng.integers(0, q + 1)))
            V = random_subspace(rng, q, int(rng.integers(0, q + 1)))
            S = schur_complement(A, V).S
            assert loewner_leq(np.zeros((q, q)), S)
            assert loewner_leq(S, A)
            assert range_included(S, V.basis)
            assert range_included(S, A)

    def test_rank_equals_intersection_dim(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            q = int(rng.integers(2, 6))
            A = random_psd(rng, q, int(rng.integers(0, q + 1)))
            V = random_subspace(rng, q, int(rng.integers(0, q + 1)))
            S = schur_complement(A, V).S
            # dim(ran A cap V) by rank arithmetic on [A | basis]
            expected = (
                numerical_rank(A) + V.dim - numerical_rank(np.hstack([herm_part(A), V.basis]))
            )
            assert numerical_rank(S) == expected

    def test_range_inside_v_forces_s_equals_a(self):
        rng = np.random.default_rng(23)
        # build A with range inside a 2-dim V
        V = random_subspace(rng, 4, 2)
        G = V.basis @ random_complex(rng, 2, 2)
        A = G @ G.conj().T
        S = schur_complement(A, V).S
        np.testing.assert_allclose(S, herm_part(A), atol=1e-9)


class TestVariational:
    def test_full_space(self):
        rng = np.random.default_rng(29)
        A = random_psd(rng, 3, 3)
        x = random_complex(rng, 3, 1).reshape(-1)
        expected = float(np.real(x.conj() @ A @ x))
        assert variational_value(A, Subspace(np.eye(3, dtype=complex)), x) == pytest.approx(expected)

    def test_identity_matrix(self):
        rng = np.random.default_rng(31)
        V = random_subspace(rng, 4, 2)
        x = random_complex(rng, 4, 1).reshape(-1)
        expected = float(np.real(x.conj() @ V.projector() @ x))
        assert variational_value(np.eye(4), V, x) == pytest.approx(expected)

    def test_matches_quadratic_form_of_s(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            q = int(rng.integers(1, 6))
            A = random_psd(rng, q, int(rng.integers(0, q + 1)))
            V = random_subspace(rng, q, int(rng.integers(0, q + 1)))
            S = schur_complement(A, V).S
            x = random_complex(rng, q, 1).reshape(-1)
            quad = float(np.real(x.conj() @ S @ x))
            val = variational_value(A, V, x)
            assert abs(quad - val) <= 1e-8 * max(1.0, float(np.real(x.conj() @ A @ x)))

    def test_brute_force_grid_2x2(self):
        # dim V-perp = 1: minimize over y = c*w on a complex grid
        rng = np.random.default_rng(41)
        A = random_psd(rng, 2, 2) + 0.5 * np.eye(2)
        V = random_subspace(rng, 2, 1)
        w = V.complement().basis.reshape(-1)
        x = 0.5 * random_complex(rng, 2, 1).reshape(-1)
        val = variational_value(A, V, x)
        base = float(np.real(x.conj() @ A @ x))
        beta = complex(w.conj() @ A @ x)
        gamma = float(np.real(w.conj() @ A @ w))
        grid = np.arange(-3.0, 3.0 + 1e-12, 0.05)
        re, im = np.meshgrid(grid, grid)
        c = re + 1j * im
        values = base - 2.0 * np.real(np.conj(c) * beta) + np.abs(c) ** 2 * gamma
        assert abs(values.min() - val) <= 1e-2

    def test_wrong_vector_length(self):
        with pytest.raises(DimensionMismatch):
            variational_value(np.eye(2), Subspace(np.eye(2, dtype=complex)), np.ones(3))


class TestInLcr:
    def test_zero_always_member(self):
        rng = np.random.default_rng(43)
        A = random_psd(rng, 3, 2)
        V = random_subspace(rng, 3, 1)
        assert in_lcr(A, V, np.zeros((3, 3)))

    def test_schur_complement_is_member(self):
        rng = np.random.default_rng(47)
        A = random_psd(rng, 3, 2)
        V = random_subspace(rng, 3, 2)
        assert in_lcr(A, V, schur_complement(A, V).S)

    def test_a_fails_when_range_escapes(self):
        assert not in_lcr(np.eye(2), E1, np.eye(2))

    def test_requires_hermitian(self):
        with pytest.raises(NotHermitian):
            in_lcr(np.eye(2), E1, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_shape_checks(self):
        for A, X in ((np.eye(2), np.eye(3)), (np.ones((2, 3)), np.ones((2, 3)))):
            with pytest.raises(DimensionMismatch, match="^A and X must be square matrices of equal size$"):
                in_lcr(A, E1, X)
        with pytest.raises(DimensionMismatch, match="^V has the wrong ambient dimension$"):
            in_lcr(np.eye(3), E1, np.eye(3))


class TestExtremality:
    def test_compressions_stay_below_s(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            q = int(rng.integers(1, 6))
            A = random_psd(rng, q, int(rng.integers(0, q + 1)))
            V = random_subspace(rng, q, int(rng.integers(0, q + 1)))
            S = schur_complement(A, V).S
            root = psd_root(S)
            for _ in range(3):
                K = random_contraction(rng, q)
                X = herm_part(root @ K @ root)
                assert loewner_leq(X, S, 1e-8)
                assert in_lcr(A, V, X, 1e-8)


class TestDecompose:
    def test_worked_2x2(self):
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        X, Y = decompose(A, E1)
        np.testing.assert_allclose(X, np.diag([1.0, 0.0]), atol=1e-10)
        np.testing.assert_allclose(Y, np.ones((2, 2)), atol=1e-10)

    def test_edge_subspaces(self):
        rng = np.random.default_rng(59)
        A = random_psd(rng, 3, 2)
        X, Y = decompose(A, Subspace(np.eye(3, dtype=complex)))
        np.testing.assert_allclose(X, A, atol=1e-12)
        np.testing.assert_allclose(Y, np.zeros((3, 3)), atol=1e-12)
        X, Y = decompose(A, Subspace.zero(3))
        np.testing.assert_allclose(X, np.zeros((3, 3)))
        np.testing.assert_allclose(Y, A, atol=1e-12)


class TestUniqueSplit:
    def test_accepts_decompose_output(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            q = int(rng.integers(1, 6))
            A = random_psd(rng, q, int(rng.integers(0, q + 1)))
            V = random_subspace(rng, q, int(rng.integers(0, q + 1)))
            X, Y = decompose(A, V)
            assert is_unique_split(A, V, X, Y)

    def test_rejects_wrong_side(self):
        # ran A = C^2 meets span{e1} nontrivially, so (0, A) is not the split
        assert not is_unique_split(np.eye(2), E1, np.zeros((2, 2)), np.eye(2))

    def test_accepts_a_zero_when_range_inside_v(self):
        A = np.diag([1.0, 0.0])
        assert is_unique_split(A, E1, A, np.zeros((2, 2)))

    def test_rejects_perturbed_splits(self):
        rng = np.random.default_rng(67)
        eps = 1e-3
        for _ in range(10):
            q = int(rng.integers(2, 6))
            A = random_psd(rng, q, int(rng.integers(1, q + 1)))
            V = random_subspace(rng, q, int(rng.integers(1, q + 1)))
            X, Y = decompose(A, V)
            v = V.basis @ random_complex(rng, V.dim, 1)
            v = (v / np.linalg.norm(v)).reshape(-1)
            P = np.outer(v, v.conj())
            # moving mass from X into Y puts v inside ran Y' which lies in V
            assert not is_unique_split(A, V, X - eps * P, Y + eps * P)

    def test_split_invalid(self):
        with pytest.raises(SplitInvalid):
            is_unique_split(np.eye(2), E1, np.eye(2), np.eye(2))

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            is_unique_split(np.eye(2), E1, np.eye(3), np.eye(2))
        with pytest.raises(DimensionMismatch, match="^V has the wrong ambient dimension$"):
            is_unique_split(np.eye(3), E1, np.eye(3), np.zeros((3, 3)))
