"""The one spectral kernel: one Hermitian test, one factorization per matrix
and call, one LAPACK error path."""

from collections import Counter

import numpy as np
import pytest

from conftest import measure_moments, random_psd, random_subspace, stieltjes_measure_sequence

import momentschur as M
from momentschur import linalg
from momentschur.linalg import _hermitian, loewner_leq, psd_clip, psd_verdict

NON_FINITE = (
    [1.0, 0.0, np.inf],
    [1.0, np.nan, 1.0],
    [1.0, 0.0, 1.0, np.inf],
    # a NaN among the blocks the odd level's minimal completion reads
    [np.nan, 0.0, 1.0, 0.0, 1.0],
    [1.0, np.nan, 1.0, 0.0, 1.0],
    [1.0, 0.0, np.nan, 0.0, 1.0],
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("s", NON_FINITE)
def test_non_finite_sequences_are_not_extendable(s):
    # NaN fails the Hermitian test wherever it is made, so the extendability
    # verdicts agree with the nonnegative-definiteness ones
    assert not M.is_hnnde(s)
    assert not M.is_knnde(s, -0.5)
    assert not M.is_knnd(s, -0.5)
    if len(s) % 2:
        assert not M.is_hnnd(s)


def _infinite_off_diagonal(value):
    A = np.eye(3, dtype=complex)
    A[0, 2] = value
    return A


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0, np.inf)])
def test_an_infinite_off_diagonal_entry_fails_the_hermitian_test(value):
    # ||A - A^H||_F and ||A||_F are both inf there; inf <= inf must not pass
    A = _infinite_off_diagonal(value)
    assert not _hermitian(A, linalg.Tolerance())
    assert not psd_verdict(A)
    with pytest.raises(M.NotPSD, match="not Hermitian"):
        M.schur_complement(A, M.Subspace.zero(3))
    s = [np.eye(3), np.zeros((3, 3)), 2 * np.eye(3)]
    with pytest.raises(M.NotHermitian, match="candidate last block must be Hermitian"):
        M.in_extension_interval(s, A)


@pytest.mark.parametrize(
    "call",
    [
        lambda: M.pinv([[np.nan, 0.0]]),
        lambda: M.numerical_rank([[np.nan]]),
        lambda: M.subspace_from_columns([[np.nan]]),
        # LAPACK's SVD, asked for vectors, does not return on these
        lambda: M.pinv(np.diag([np.inf, 1.0, 1.0])),
        lambda: M.subspace_from_columns(np.diag([1.0, 1.0, -np.inf])),
    ],
    ids=["pinv", "numerical_rank", "subspace_from_columns", "pinv_inf", "subspace_inf"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lapack_failure_raises_no_convergence(call):
    with pytest.raises(M.NoConvergence, match="did not converge"):
        call()


@pytest.fixture
def factorizations(monkeypatch):
    """Count np.linalg.eigh, eigvalsh, svd and qr calls by name."""
    counts = Counter()
    for name in ("eigh", "eigvalsh", "svd", "qr"):
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("d, eigh, eigvalsh", [(0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 0, 1)])
def test_schur_complement_factorizes_its_input_once(factorizations, d, eigh, eigvalsh):
    # eigh when the eigenvectors build the fiber or the root, eigvalsh when
    # V is the whole space and S = A needs only the PSD verdict
    rng = np.random.default_rng(5)
    A = random_psd(rng, 3, 3)
    V = random_subspace(rng, 3, d)
    M.schur_complement(A, V)
    assert (factorizations["eigh"], factorizations["eigvalsh"]) == (eigh, eigvalsh)


def test_psd_verdicts_use_eigenvalues_only(factorizations):
    rng = np.random.default_rng(7)
    A, B = random_psd(rng, 3, 2), random_psd(rng, 3, 3)
    psd_verdict(A)
    assert (factorizations["eigh"], factorizations["eigvalsh"]) == (0, 1)
    loewner_leq(A, B)
    assert (factorizations["eigh"], factorizations["eigvalsh"]) == (0, 2)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_complement_is_one_qr_of_the_basis(factorizations, d):
    V = random_subspace(np.random.default_rng(3), 3, d)
    factorizations.clear()
    assert V.complement().dim == 3 - d
    assert factorizations == Counter(qr=1)


# V = 0 and V = C^3 leave via_basis no complement to take; the variational
# value needs none when V = C^3 only
@pytest.mark.parametrize(
    "d, via_basis, variational",
    [
        (0, Counter(eigvalsh=1), Counter(eigvalsh=1, qr=1, eigh=1)),
        (1, Counter(eigvalsh=1, qr=1, eigh=1), Counter(eigvalsh=1, qr=1, eigh=1)),
        (2, Counter(eigvalsh=1, qr=1, eigh=1), Counter(eigvalsh=1, qr=1, eigh=1)),
        (3, Counter(eigvalsh=1), Counter(eigvalsh=1)),
    ],
)
def test_block_routes_complete_the_basis_by_one_qr(factorizations, d, via_basis, variational):
    rng = np.random.default_rng(9)
    A = random_psd(rng, 3, 3)
    V = random_subspace(rng, 3, d)
    factorizations.clear()
    M.schur_complement_via_basis(A, V)
    assert factorizations == via_basis
    factorizations.clear()
    M.variational_value(A, V, np.ones(3))
    assert factorizations == variational


@pytest.mark.parametrize("d", [0, 1, 64, 127, 128])
def test_complement_of_a_large_basis_is_orthonormal_and_orthogonal(d):
    V = random_subspace(np.random.default_rng(13), 128, d)
    W = V.complement().basis
    assert W.shape == (128, 128 - d)
    np.testing.assert_allclose(W.conj().T @ W, np.eye(128 - d), atol=1e-12)
    np.testing.assert_allclose(W.conj().T @ V.basis, np.zeros((128 - d, d)), atol=1e-12)


def test_in_lcr_tests_each_operand_for_hermitian_once(monkeypatch):
    calls = []
    real = linalg._skew_within

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_skew_within", counted)
    V = M.Subspace(np.eye(3, 2, dtype=complex))
    assert M.in_lcr(np.diag([2.0, 1.0, 0.0]), V, np.diag([1.0, 0.5, 0.0]))
    assert len(calls) == 2


def _four_atom_sequence():
    rng = np.random.default_rng(3)
    weights = [random_psd(rng, 2, 2) for _ in range(4)]
    return measure_moments([0.7, 1.6, 2.9, 4.1], weights, 11)


def test_one_eigh_per_slack_serves_every_scale(factorizations):
    # kappa_j is clipped as level j's slack and again as level j + 1's
    # previous slack, at a larger scale: one eigh serves both
    M.classify_stieltjes(_four_atom_sequence(), 0.5)
    assert factorizations["eigh"] == 31
    assert sum(factorizations.values()) == 35


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_class_test_above_the_block_scale_reuses_the_slack_spectrum(factorizations, alpha):
    # r_m = 3 R + 10 I lifts the scale of the class test above the block
    # scale; kappa_{m-step} is clipped there from its held eigendecomposition
    s = _four_atom_sequence()
    if alpha is None:
        s = s.prefix(9)
        report = M.classify_hamburger(s)
    else:
        report = M.classify_stieltjes(s, alpha)
    r = s.with_last(3 * report.R + 10 * np.eye(2))
    factorizations.clear()
    if alpha is None:
        M.same_class(s, r)
    else:
        M.same_class_stieltjes(s, r, alpha)
    assert factorizations == Counter(eigh=1, svd=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("A", [[[np.nan, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]], ids=["nan", "skew"])
def test_a_clip_factorizes_only_a_hermitian_matrix(factorizations, A):
    with pytest.raises(M.NotHermitian, match="^matrix is not Hermitian within the working-scale tolerance$"):
        psd_clip(np.array(A), 1.0)
    assert factorizations["eigh"] == 0


@pytest.mark.parametrize("length", [5, 6])
def test_longdouble_alpha_gives_complex128(length):
    alpha = np.longdouble(0.5)
    s = stieltjes_measure_sequence(np.random.default_rng(11), 0.5, 2, length, n_atoms=3)
    report = M.classify_stieltjes(s, alpha)
    assert report.R is not None
    arrays = [*report.kappa, *report.u, report.R, *report.canonical]
    assert {a.dtype for a in arrays} == {np.dtype(complex)}
