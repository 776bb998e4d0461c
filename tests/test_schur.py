"""Tests for the subspace-relative Schur complement and the decomposition."""

import contextlib
import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    psd_root,
    random_complex,
    random_contraction,
    random_psd,
    random_subspace,
    random_unitary,
)

from momentschur import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    SplitInvalid,
    Subspace,
    Tolerance,
    decompose,
    fiber_projector,
    in_lcr,
    is_unique_split,
    loewner_leq,
    schur_complement,
    schur_complement_via_basis,
    schur_report,
    subspace_from_columns,
    variational_value,
)
from momentschur import cli
from momentschur.linalg import (
    _psd_floor,
    _root_factor,
    as_matrix,
    as_tolerance,
    frobenius,
    herm_part,
    numerical_rank,
)

GOLDEN = Path(__file__).parent / "golden"
T = Tolerance()

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

    def test_fiber_agrees_with_contains(self):
        # V matches e1 only to 1e-8: ran A lies in V at the scale of A when A
        # is small, and then A is its own complement; at unit scale it does not
        V = subspace_from_columns(np.array([[1.0], [1e-8]]))
        small = np.diag([5e-3, 0.0])
        assert V.contains(small)
        np.testing.assert_allclose(schur_complement(small, V).S, small, rtol=1e-12)
        unit = np.diag([1.0, 0.0])
        assert not V.contains(unit)
        np.testing.assert_allclose(schur_complement(unit, V).S, np.zeros((2, 2)), atol=1e-15)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_the_route_on_ran_a_matches_the_defining_formula(self, q):
        # the defining route: the q x q root, fiber_projector and root psi root;
        # at d = q, S is A itself, not the root's square with its band flattened
        eps = np.finfo(float).eps
        for r in range(q + 1):
            for d in range(q):
                for k in range(3):
                    A, V = report_case(np.random.default_rng([q, r, d, k]), q, d, r)
                    result = schur_complement(A, V, T)
                    Ur, F = _root_factor(*np.linalg.eigh(herm_part(A)), T)
                    root = F @ Ur.conj().T
                    psi = fiber_projector(root, V, T)
                    assert frobenius(result.S - root @ psi @ root) <= 64 * eps * max(1.0, frobenius(A))
                    assert frobenius(result.P_fiber - psi) <= 1e3 * eps
                    # S is a Gram product: PSD up to the eigensolver's rounding
                    assert np.linalg.eigvalsh(result.S)[0] >= -4 * eps * frobenius(result.S)

    def test_the_fiber_of_a_full_rank_a_over_zero_is_zero(self):
        # null A = 0: P_fiber is I - Ur Ur^H, with Ur every eigenvector, and
        # holds rounding alone, however ill-conditioned A is (cond up to 1e7)
        eps = np.finfo(float).eps
        for i in range(50):
            rng = np.random.default_rng([21, i])
            q = int(rng.integers(2, 9))
            w = np.logspace(0, -rng.uniform(3, 7), q) * 10 ** rng.uniform(-2, 3)
            U = random_unitary(rng, q)
            A = herm_part((U * w) @ U.conj().T)
            result = schur_complement(A, Subspace.zero(q), T)
            assert frobenius(result.P_fiber) <= 64 * eps
            assert not result.S.any()

    def test_a_rank_one_a_makes_its_one_svd_on_ran_a(self, monkeypatch):
        # q = 16, rank A = 1, dim V = 8: the fiber's SVD factorizes the
        # 16 x 1 matrix (I - P_V) F, where the defining route's is 16 x 16
        rng = np.random.default_rng(17)
        A, V = random_psd(rng, 16, 1), random_subspace(rng, 16, 8)
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda M, *a, **kw: shapes.append(M.shape) or svd(M, *a, **kw))
        schur_complement(A, V)
        assert shapes == [(16, 1)]

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

    def test_a_basis_off_by_1e_9_gives_the_complement_of_its_span(self):
        # Gram error 1.7e-9: B B^H is no projector, so the constructor keeps
        # the Q of B's QR, and S matches the variational form on that span
        Q = random_subspace(np.random.default_rng(1), 6, 3).basis
        V = Subspace(Q * (1 + 5e-10))
        A = np.diag(np.arange(1.0, 7.0))
        x = np.ones(6)
        S = schur_complement(A, V).S
        assert float(np.real(x @ S @ x)) == pytest.approx(variational_value(A, V, x), abs=1e-8)
        assert variational_value(A, V, x) == pytest.approx(10.683883, abs=1e-6)
        assert V.contains(S) and V.contains(Q)
        assert not V.contains(V.complement().basis)
        np.testing.assert_allclose(schur_complement_via_basis(A, V), S, atol=1e-8)


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
            assert V.contains(S)
            assert subspace_from_columns(A).contains(S)

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

    @pytest.mark.parametrize("q", range(2, 9))
    def test_at_the_psd_boundary_over_zero_decides_as_the_block_route(self, q):
        # the smallest eigenvalue sits at -threshold: at V = 0 decompose takes
        # the eigvalsh the block route takes, not schur_complement's eigh, so
        # it raises NotPSD exactly where schur_complement_via_basis raises
        V = Subspace.zero(q)
        outcomes = set()
        for seed in range(20):
            rng = np.random.default_rng([q, 0, seed])
            U = np.linalg.qr(random_complex(rng, q, q))[0]
            w = rng.uniform(0.1, 1, q)
            w[0] = -T.threshold(w.max())
            A = herm_part((U * w) @ U.conj().T)
            try:
                schur_complement_via_basis(A, V, T)
            except NotPSD:
                with pytest.raises(NotPSD):
                    decompose(A, V, T)
                outcomes.add(False)
                continue
            X, Y = decompose(A, V, T)
            assert not X.any() and np.array_equal(Y, A)
            outcomes.add(True)
        assert outcomes == {True, False}, outcomes


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

    @pytest.mark.parametrize("V", [Subspace.zero(2), E1], ids=["zero", "e1"])
    def test_a_nan_split_is_invalid(self, V):
        # X + Y is NaN, so it does not reconstruct A, whatever V is
        with pytest.raises(SplitInvalid):
            is_unique_split(np.eye(2), V, np.zeros((2, 2)), np.full((2, 2), np.nan))

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            is_unique_split(np.eye(2), E1, np.eye(3), np.eye(2))
        with pytest.raises(DimensionMismatch, match="^V has the wrong ambient dimension$"):
            is_unique_split(np.eye(3), E1, np.eye(3), np.zeros((3, 3)))


def _rank_above(M, thr):
    return int(np.count_nonzero(np.linalg.svd(M, compute_uv=False) > thr)) if M.size else 0


def recomputed_report(A, V, t):
    """The reference: schur_report's ranks and checks, each recomputed from scratch.

    ran A and every rank come from SVDs of their own, and S_psd from numpy's
    own eigvalsh of S under the PSD floor, as the schur command once computed
    them beside the kernel.
    dim(ran A ∩ V) is rank A + dim V - rank [A / max(1, ||A||_F), V], so
    that V's unit columns count at every scale of A.  The remainder
    Y = A - S meets V only in 0 when W^H Y, W a basis of V-perp, has the rank
    of Y, both cut at A's scale.
    """
    result = schur_complement(A, V, t)
    M = herm_part(as_matrix(A))
    Y = result.complement
    norm = frobenius(M)
    thr = as_tolerance(t).threshold(max(norm, np.linalg.norm(Y, 2)))
    range_A = subspace_from_columns(M, t)
    rank_S = numerical_rank(result.S, t)
    cap_dim = range_A.dim + V.dim - numerical_rank(np.hstack([M / max(1.0, norm), V.basis]), t)
    checks = {
        "S_psd": _psd_floor(np.linalg.eigvalsh(herm_part(result.S)), as_tolerance(t)),
        "S_leq_A": loewner_leq(result.S, M, t),
        "range_S_in_V": V.contains(result.S, t),
        "range_S_in_range_A": range_A.contains(result.S, t),
        "rank_S_is_dim_of_range_A_cap_V": rank_S == cap_dim,
        "complement_range_meets_V_trivially": (
            _rank_above(V.complement().basis.conj().T @ Y, thr) == _rank_above(Y, thr)
        ),
    }
    return result, range_A.dim, rank_S, checks


def report_case(rng, q, d, r=None):
    """A PSD A of rank r (random if None) and random scale, and V spanned by columns partly drawn from ran A."""
    r = int(rng.integers(0, q + 1)) if r is None else r
    G = random_complex(rng, q, r)
    # a third of the spectra spread over four decades
    w = 10.0 ** rng.uniform(-4, 0, r) if rng.random() < 1 / 3 else rng.uniform(0.1, 1, r)
    A = 10.0 ** rng.uniform(-6, 6) * (G * w) @ G.conj().T
    k = int(rng.integers(0, min(d, r) + 1))
    columns = np.hstack([G[:, :k], random_complex(rng, q, d - k)])
    return A, subspace_from_columns(columns)


class TestSchurReport:
    @pytest.mark.parametrize("q", range(1, 9))
    def test_matches_the_recomputed_ranks_and_checks(self, q):
        for d in range(q + 1):
            for k in range(4):
                A, V = report_case(np.random.default_rng([q, d, k]), q, d)
                assert V.dim == d
                result, rank_A, rank_S, checks = schur_report(A, V, T)
                expected = recomputed_report(A, V, T)
                for name in ("S", "P_fiber", "complement"):
                    assert np.array_equal(getattr(result, name), getattr(expected[0], name))
                assert (rank_A, rank_S, checks) == expected[1:], (q, d, k)

    def test_matches_the_reference_above_1e10(self):
        # report_case scales stop at 1e6; at A's own scale V's unit column
        # e2 would fall under the threshold of rank [A V] and count as inside ran A
        A, V = np.diag([1e11, 0.0]), subspace_from_columns(np.array([[0.0], [1.0]]))
        report = schur_report(A, V, T)
        assert report[1:] == recomputed_report(A, V, T)[1:] == (1, 0, report[3])
        assert all(report[3].values())

    @pytest.mark.parametrize("q", range(1, 9))
    def test_a_correct_s_passes_every_check(self, q):
        # the remainder A - S is a difference at A's scale and judged there:
        # judged at its own norm, 12 of these 1760 reports held a false check
        for d in range(q + 1):
            for k in range(40):
                A, V = report_case(np.random.default_rng([q, d, k, 99]), q, d)
                checks = schur_report(A, V, T)[3]
                assert all(checks.values()), ((q, d, k), checks)

    @pytest.mark.parametrize("c", [1e-3, 1e-7])
    def test_the_remainder_test_fails_a_wrong_split(self, c):
        # (S - E, Y + E) with 0 != ran E inside V: judged at A's scale, as
        # the report judges A - S, Y + E meets V, wherever E is above the
        # floor (||A||_F >= 1 keeps c ||A||_F at least 1e3 thresholds)
        checked = 0
        for q in range(1, 9):
            for d in range(1, q + 1):
                for k in range(40):
                    rng = np.random.default_rng([q, d, k, 99])
                    A, V = report_case(rng, q, d)
                    norm = frobenius(A)
                    if norm < 1:
                        continue
                    v = V.basis @ random_complex(rng, d, 1)
                    E = c * norm * (v @ v.conj().T) / np.vdot(v, v).real
                    Y = schur_complement(A, V, T).complement
                    assert V.meets_trivially(Y, T, norm)
                    assert not V.meets_trivially(Y + E, T, norm), (q, d, k)
                    checked += 1
        assert checked > 500, checked

    @pytest.mark.parametrize(
        "tol, A, V",
        [
            # A has norm 1.2e-5, below unit scale, where every threshold is
            # the absolute 1e-10, and its spectrum reaches down to it: the
            # fiber keeps rank S at 2 where dim(ran A ∩ V) is 3, and A - S
            # keeps 7 singular values above the floor, its part in V-perp 6
            pytest.param(
                1e-10, *report_case(np.random.default_rng([12, 4, 123, 7]), 12, 4), id="1e-10"
            ),
            # V holds e1 + 1e-7 e2, close to A's dominant eigenvector e1 but
            # not on it: at this tolerance the near miss counts, and the
            # rounding one projection leaves inside V must not count as rank
            pytest.param(
                1e-16,
                np.diag([1e6, 1.0, 0.0]),
                subspace_from_columns(np.array([[1.0, 1.0], [1e-7, 0.0], [0.0, 1.0]])),
                id="1e-16",
            ),
            # a tolerance under machine epsilon: on a full-rank A at scale 15
            # rounding counts, so S is 0 where dim(ran A ∩ V) is 1, and A - S
            # meets V, in the report and the reference alike
            pytest.param(
                1e-16, *report_case(np.random.default_rng([2, 1, 6]), 2, 1), id="1e-16-full-rank"
            ),
        ],
    )
    def test_failed_checks_are_those_of_the_reference(self, tol, A, V):
        report = schur_report(A, V, tol)
        assert not all(report[3].values())
        assert report[1:] == recomputed_report(A, V, tol)[1:]

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("schur_in.json", Counter(svd=4, eigvalsh=2, eigh=1)),
            # V = 0: S = 0, so rank S, S_psd and the cap dimension need no
            # factorization, no SVD builds V's basis and none tests the remainder
            ("schur_in_zero.json", Counter(eigvalsh=1, eigh=1)),
            # V = C^q: schur_complement's eigvalsh of A = S gives rank S and
            # S_psd, an SVD gives ran A, and the remainder is 0
            ("schur_in_full.json", Counter(svd=3, eigvalsh=2)),
        ],
    )
    def test_the_command_reads_the_factorization_s_is_built_from(self, factorizations, name, expected):
        # one SVD builds V's basis, one eigh of A builds S and gives ran A, one
        # eigvalsh of S gives rank S and S_psd; S_leq_A's eigvalsh, the SVD of
        # [A V] and the remainder's one SVD of a (2, q, q) stack stay independent
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["schur", str(GOLDEN / name)]) == 0
        assert factorizations == expected

    @pytest.mark.parametrize("q", range(2, 9))
    def test_at_the_psd_boundary_raises_where_schur_complement_raises(self, q):
        # the smallest eigenvalue sits at -threshold: an eigh and an eigvalsh
        # of A differ there by a few ulps, enough to flip the verdict
        for d in (0, 1, q):
            V = subspace_from_columns(np.eye(q)[:, :d])
            for seed in range(20):
                rng = np.random.default_rng([q, d, seed])
                U = np.linalg.qr(random_complex(rng, q, q))[0]
                w = rng.uniform(0.1, 1, q)
                w[0] = -T.threshold(w.max())
                A = herm_part((U * w) @ U.conj().T)
                try:
                    expected = recomputed_report(A, V, T)
                except NotPSD:
                    with pytest.raises(NotPSD):
                        schur_report(A, V, T)
                    continue
                report = schur_report(A, V, T)
                for name in ("S", "P_fiber", "complement"):
                    assert np.array_equal(getattr(report[0], name), getattr(expected[0], name))

    @pytest.mark.parametrize("c", [1.0, 1e9, 1e11, 2.0 ** 40])
    def test_the_cap_dimension_is_taken_at_unit_scale(self, c):
        # ran A ∩ V = {0} and S = 0: rank [A V] cut at 1e-10 sigma_max counted
        # V's unit column as zero above ||A||_F of about 1e10
        E2 = subspace_from_columns(np.array([[0.0], [1.0]]))
        result, rank_A, rank_S, checks = schur_report(np.diag([c, 0.0]), E2, T)
        assert (rank_A, rank_S) == (1, 0) and not result.S.any()
        assert all(checks.values()), checks

    def test_a_power_of_two_scaling_above_unit_scale_changes_no_rank_or_check(self):
        scaled = 0
        for q in range(1, 9):
            for d in range(q + 1):
                for k in range(40):
                    A, V = report_case(np.random.default_rng([q, d, k, 99]), q, d)
                    if frobenius(A) < 1:
                        continue
                    report = schur_report(A, V, T)
                    big = schur_report(2.0 ** 40 * A, V, T)
                    assert big[1:] == report[1:], (q, d, k)
                    assert np.array_equal(big[0].S, 2.0 ** 40 * report[0].S)
                    scaled += 1
        assert scaled > 500, scaled

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "A, k",
        [(np.array([[1.0, 2.0 ** -50], [0.0, 1.0]]), 664), (np.diag([1.0, 0.5]), 600)],
        ids=["2^664 near-Hermitian", "2^600 diagonal"],
    )
    def test_inputs_whose_norms_square_past_overflow_get_their_scaled_copys_checks(self, A, k):
        # every ||.||_F of 2^k A squares past the largest float; scaled back
        # by 2^-k (below unit scale, where ranks may differ) or left at unit
        # scale, the checks are the same, and numpy warns of nothing
        big = schur_report(2.0 ** k * A, E1, T)
        assert big[3] == schur_report(2.0 ** -k * A, E1, T)[3] == schur_report(A, E1, T)[3]
        assert all(big[3].values())

    def test_raises_what_schur_complement_raises(self):
        with pytest.raises(NotPSD):
            schur_report(np.diag([1.0, -1.0]), E1)
        with pytest.raises(DimensionMismatch):
            schur_report(np.eye(3), E1)
