"""The one spectral kernel: one Hermitian test, one factorization per matrix
and call, one LAPACK error path."""

from collections import Counter

import numpy as np
import pytest

from conftest import (
    hamburger_measure_sequence,
    measure_moments,
    nonextendable_hamburger,
    nonextendable_stieltjes,
    random_complex,
    random_psd,
    random_subspace,
    stieltjes_measure_sequence,
)

import momentschur as M
from momentschur import linalg
from momentschur.hamburger import Tower
from momentschur.linalg import (
    Tolerance,
    _hermitian,
    _psd_floor,
    _Spectrum,
    as_tolerance,
    frobenius,
    loewner_leq,
    psd_verdict,
)

NON_FINITE = (
    [1.0, 0.0, np.inf],
    [1.0, np.nan, 1.0],
    [1.0, 0.0, 1.0, np.inf],
    # a NaN among the blocks the odd level's minimal completion reads
    [np.nan, 0.0, 1.0, 0.0, 1.0],
    [1.0, np.nan, 1.0, 0.0, 1.0],
    [1.0, 0.0, np.nan, 0.0, 1.0],
    # q = 2: an inf in s_0, which Theta_1's pinv cannot factor
    [np.diag([np.inf, 1.0]), np.zeros((2, 2)), np.eye(2)],
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("s", NON_FINITE)
def test_non_finite_sequences_get_a_report(s):
    # every Theta that reads a NaN or an inf is a NaN block, and the report
    # says the sequence is neither nonnegative definite nor extendable
    s = M.MomentSequence(s)
    finite = [np.isfinite(s.stack[: j + 1]).all() for j in range(len(s))]
    if len(s) % 2:
        rep = M.classify_hamburger(s)
        assert not rep.is_hnnd and not rep.is_hnnde
        assert rep.R is None and rep.canonical is None
        # theta is Theta_n, which reads s_0..s_{2n-1}
        assert np.isnan(rep.theta).all() == (not finite[-2])
        assert np.isfinite(rep.theta).all() == finite[-2]
    rep = M.classify_stieltjes(s, -0.5)
    assert not rep.is_knnd and not rep.is_knnde
    assert rep.R is None and rep.canonical is None
    # u_j for j >= 1 is a Theta of s or of the shift, reading s_0..s_j
    for j, u in enumerate(rep.u[2:], start=1):
        assert np.isnan(u).all() == (not finite[j])
        assert np.isfinite(u).all() == finite[j]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_public_theta_still_raises_on_non_finite_blocks():
    # the tower's NaN guard is not theta's: the direct route still runs pinv
    s = [np.diag([np.inf, 1.0]), np.zeros((2, 2)), np.eye(2)]
    with pytest.raises(M.NoConvergence):
        M.theta(s, 1)


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


def _bits(x):
    return np.float64(x).tobytes()


def _norm_cases():
    rng = np.random.default_rng(41)
    Z = random_complex(rng, 5, 5)
    X = rng.standard_normal((4, 6))
    Z_nan, Z_inf, X_infs = Z.copy(), Z.copy(), X.copy()
    Z_nan[1, 2] = complex(np.nan, 1.0)
    Z_inf[0, 0] = complex(0.0, np.inf)
    X_infs[0, :2] = np.inf, -np.inf
    return {
        "complex": Z,
        "real": X,
        "integer": np.arange(-6, 6).reshape(3, 4),
        "list": [[1, 2], [3, 4]],
        "scalar": np.complex128(3 + 4j),
        "empty_complex": np.zeros((0, 3), dtype=complex),
        "empty_real": np.zeros((2, 0)),
        "transposed": Z.T,
        "conj_transposed": Z.conj().T,
        "sliced": Z[::2, 1::2],
        "reversed_real": X[:, ::-2],
        "nan": Z_nan,
        "inf": Z_inf,
        "inf_real": X_infs,
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", list(_norm_cases()))
def test_frobenius_is_numpys_norm_bit_for_bit(name):
    A = _norm_cases()[name]
    value = frobenius(A)
    assert type(value) is float
    assert _bits(value) == _bits(np.linalg.norm(A))


def test_frobenius_matches_numpys_norm_on_random_blocks():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        q = int(rng.integers(1, 9))
        A = random_complex(rng, q, q) * 10.0 ** rng.uniform(-150, 150)
        assert _bits(frobenius(A)) == _bits(np.linalg.norm(A))
        assert _bits(frobenius(A.real)) == _bits(np.linalg.norm(A.real))


SPECTRA = [
    [-30.0, -20.0],  # all negative
    [-1e-11, -1e-12],
    [1e-12, 2.0, 3.0],  # all positive
    [0.0, 0.0, 0.0],  # all zero
    [-0.0, 0.0],
    [-0.0, 0.0, 5.0],  # mixed sign with +-0.0
    [-5.0, -0.0, 0.0],
    [-2.5e-9, 0.0, 20.0],
    [-2.5e-9, 25.0],
    [-25.0, -0.0, 1e-9],
    [-2.0, 2.0],
]


@pytest.mark.parametrize("w", SPECTRA, ids=[str(w) for w in SPECTRA])
@pytest.mark.parametrize("scale", [0.0, 0.5, 30.0])
def test_the_psd_floor_reads_the_spectral_radius_from_the_ends(w, scale):
    w = np.array(w)
    t = Tolerance()
    reference = bool(w[0] >= -t.threshold(max(np.abs(w).max(), scale)))
    assert _psd_floor(w, t, scale) is reference


def test_the_default_tolerance_is_one_shared_instance():
    assert as_tolerance(None) is as_tolerance(None)
    assert as_tolerance(None) == Tolerance()


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
    # kappa_j is clipped as level j's slack, and its range is taken as level
    # j + 1's previous slack, at a larger scale: one eigh serves both, and
    # the range needs no SVD or pseudo-inverse of its own
    M.classify_stieltjes(_four_atom_sequence(), 0.5)
    assert factorizations["eigh"] == 21
    assert factorizations["svd"] == 0
    assert sum(factorizations.values()) == 24


def test_a_hamburger_classify_takes_each_range_from_its_slack_spectrum(factorizations):
    M.classify_hamburger(_four_atom_sequence())
    assert factorizations == Counter(eigh=5, eigvalsh=2)


def _stream():
    """(sequence, alpha) pairs with rank-deficient, full-rank and zero slacks."""
    rng = np.random.default_rng(17)
    for q in (1, 2, 3):
        for length in (5, 7, 9):
            yield hamburger_measure_sequence(rng, q, length, max_rank=1), None
            yield hamburger_measure_sequence(rng, q, length), None
            alpha = float(rng.choice([-1.0, 0.5]))
            yield stieltjes_measure_sequence(rng, alpha, q, length, max_rank=1), alpha
            yield stieltjes_measure_sequence(rng, alpha, q, length), alpha
        yield nonextendable_hamburger(rng, q, 2), None
        yield nonextendable_stieltjes(rng, 0.5, q, 4), 0.5


def test_the_range_of_a_slack_has_the_rank_of_its_clip():
    t = Tolerance()
    checked = 0
    for s, alpha in _stream():
        tower = Tower(s, t, alpha)
        for m in range(tower.step, s.kappa + 1, tower.step):
            scale = tower._scale(tower._sizes[m])
            record = tower._spectrum(m - tower.step)
            try:
                clip = record.clip(scale, t)
            except (M.NotPSD, M.NotHermitian):
                continue
            assert record.range(scale, t).dim == M.numerical_rank(clip, t)
            checked += 1
    assert checked > 100, checked


def test_range_verdicts_factorize_no_orthonormal_basis(factorizations):
    # V.contains projects with V's basis: in_lcr makes only its two PSD
    # verdicts, and is_unique_split only the rank-sum test's two SVDs, of Y
    # and of [Y, basis]: the basis has rank V.dim
    rng = np.random.default_rng(5)
    A = random_psd(rng, 3, 3)
    V = random_subspace(rng, 3, 2)
    X, Y = M.decompose(A, V)
    factorizations.clear()
    assert M.in_lcr(A, V, X)
    assert factorizations == Counter(eigvalsh=2)
    factorizations.clear()
    assert M.is_unique_split(A, V, X, Y)
    assert factorizations == Counter(svd=2)


@pytest.mark.parametrize("d, svd", [(0, 0), (3, 1)])
def test_a_unique_split_at_a_trivial_subspace_needs_at_most_the_rank_of_y(factorizations, d, svd):
    # V = 0: the basis has no entry, and [Y, basis] is Y.  V = C^3: Y = 1e-3 I
    # has rank 3, and 3 + 3 > 3 rows fails without a stacked SVD
    rng = np.random.default_rng(5)
    A = random_psd(rng, 3, 3)
    V = random_subspace(rng, 3, d)
    X, Y = M.decompose(A, V) if d == 0 else (A - 1e-3 * np.eye(3), 1e-3 * np.eye(3))
    factorizations.clear()
    assert M.is_unique_split(A, V, X, Y) == (d == 0)
    assert factorizations == Counter(svd=svd)


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_class_test_above_the_block_scale_reuses_the_slack_spectrum(factorizations, alpha):
    # r_m = 3 R + 10 I lifts the scale of the class test above the block
    # scale; kappa_{m-step} is clipped there from its held eigendecomposition.
    # r_m - R_m = 2 R + 10 I has rank 2 = q, so with kappa_{m-step} != 0 the
    # rank sum exceeds q and no SVD is needed
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
    assert factorizations == Counter(eigh=1)


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_class_test_against_the_canonical_representative_makes_one_eigh(factorizations, alpha):
    # r_m - R_m = 0 exactly: one eigh clips it, and a zero difference meets
    # every range only in 0 without an SVD
    s = _four_atom_sequence()
    if alpha is None:
        s = s.prefix(9)
        report = M.classify_hamburger(s)
    else:
        report = M.classify_stieltjes(s, alpha)
    factorizations.clear()
    if alpha is None:
        assert M.same_class(s, report.canonical)
    else:
        assert M.same_class_stieltjes(s, report.canonical, alpha)
    assert factorizations == Counter(eigh=1)


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_class_test_whose_difference_fails_the_band_makes_one_eigh(factorizations, alpha):
    # r_m - R_m = -1e-3 I fails the band with NotPSD; its rank, q = 2, is read
    # from the eigh the band made, and with kappa_{m-step} != 0 the rank sum
    # exceeds q, so no SVD is needed
    s = _four_atom_sequence()
    if alpha is None:
        s = s.prefix(9)
        report = M.classify_hamburger(s)
    else:
        report = M.classify_stieltjes(s, alpha)
    r = s.with_last(report.R - 1e-3 * np.eye(2))
    factorizations.clear()
    if alpha is None:
        assert not M.same_class(s, r)
    else:
        assert not M.same_class_stieltjes(s, r, alpha)
    assert factorizations == Counter(eigh=1)


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_warm_interval_test_makes_only_its_eigenvalue_tests(factorizations, monkeypatch, alpha):
    # once a bound's ends are held, a question makes at most its two Loewner
    # comparisons, and neither rebuilds u_{m-1} nor R_m
    s = _four_atom_sequence()
    if alpha is None:
        s = s.prefix(9)
        report = M.classify_hamburger(s)
        lower, given = report.theta, "given_s2n"
        interval = lambda T, bound: M.in_extension_interval(s, T, bound)
    else:
        report = M.classify_stieltjes(s, alpha)
        lower, given = report.u[-1], "given_sm"
        interval = lambda T, bound: M.in_extension_interval_stieltjes(s, alpha, T, bound)
    I = np.eye(2)
    candidates = (report.R, 0.5 * (lower + report.R), report.R + I, lower - I)
    for bound in (given, "r_upper"):
        interval(report.R, bound)
    built = Counter()
    for name in ("u", "r"):
        def counted(self, j, _name=name, _real=getattr(Tower, name)):
            built[_name] += 1
            return _real(self, j)

        monkeypatch.setattr(Tower, name, counted)
    for bound in (given, "r_upper"):
        for T in candidates:
            factorizations.clear()
            interval(T, bound)
            assert set(factorizations) <= {"eigvalsh"} and factorizations["eigvalsh"] <= 2
    assert built["u"] == built["r"] == 0


def _reference_disjoint(tower, last):
    """The class test's third verdict by the reference rank-sum formula."""
    t, m = tower.t, tower.top()
    R = tower.r(m)
    scale = tower._scale(max(tower._sizes[m], np.linalg.norm(last)))
    D = last - R
    try:
        D = _Spectrum(D).clip(scale, t)
    except (M.NotPSD, M.NotHermitian):
        pass
    K = tower._spectrum(m - tower.step).clip(scale, t)
    return M.ranges_intersect_trivially(D, K, t)


def test_class_test_ranges_match_the_reference_rank_sum():
    # R, R +- 1e-3 I, R + v v^H (v random), R + 0.3 u u^H (u the top
    # eigenvector of kappa_{m-step}, so that the ranges meet)
    rng = np.random.default_rng(29)
    # six atoms keep kappa_{m-step} nonzero, as _stream's few atoms mostly do not
    rich = []
    for q in (1, 2, 3):
        for length in (3, 5):
            rich.append((hamburger_measure_sequence(rng, q, length, n_atoms=6), None))
            rich.append((stieltjes_measure_sequence(rng, 0.5, q, length, n_atoms=6), 0.5))
            rich.append((stieltjes_measure_sequence(rng, -1.0, q, length + 1, n_atoms=6), -1.0))
    verdicts = Counter()
    for s, alpha in [*_stream(), *rich]:
        tower = Tower(s, None, alpha)
        m = tower.top()
        if not tower.nnd(m):
            continue
        R = tower.r(m)
        v = random_complex(rng, s.q, 1)
        u = np.linalg.eigh(tower.kappa(m - tower.step))[1][:, -1:]
        I = np.eye(s.q)
        for last in (R, R + 1e-3 * I, R - 1e-3 * I, R + v @ v.conj().T, R + 0.3 * u @ u.conj().T):
            verdict = Tower(s, None, alpha).conditions(s.with_last(last))[2]
            assert verdict == _reference_disjoint(tower, last)
            verdicts[verdict] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50, verdicts


def _splits(rng):
    """(A, V, X, Y): decompose's splits, and the same moved by 1e-3 and 1e-9."""
    cases = [(1e-10 * np.eye(5), random_subspace(rng, 5, 2))]
    for _ in range(60):
        q = int(rng.integers(1, 6))
        cases.append((random_psd(rng, q, int(rng.integers(0, q + 1))),
                      random_subspace(rng, q, int(rng.integers(0, q + 1)))))
    for A, V in cases:
        X, Y = M.decompose(A, V)
        yield A, V, X, Y
        v = random_complex(rng, A.shape[0], 1)
        # a rank-one move, mostly out of V, and a move of V's projector
        moves = [v @ v.conj().T] + ([V.projector()] if V.dim else [])
        for eps in (1e-3, 1e-9):
            for P in moves:
                yield A, V, X - eps * P, Y + eps * P


def test_unique_split_matches_the_reference_rank_sum():
    verdicts = Counter()
    for A, V, X, Y in _splits(np.random.default_rng(31)):
        verdict = M.is_unique_split(A, V, X, Y)
        assert verdict == (V.contains(X) and M.ranges_intersect_trivially(Y, V.basis))
        verdicts[verdict] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50, verdicts


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("A", [[[np.nan, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]], ids=["nan", "skew"])
def test_a_clip_factorizes_only_a_hermitian_matrix(factorizations, A):
    with pytest.raises(M.NotHermitian, match="^matrix is not Hermitian within the working-scale tolerance$"):
        _Spectrum(np.array(A, dtype=complex)).clip(1.0, Tolerance())
    assert factorizations["eigh"] == 0


@pytest.mark.parametrize("length", [5, 6])
def test_longdouble_alpha_gives_complex128(length):
    alpha = np.longdouble(0.5)
    s = stieltjes_measure_sequence(np.random.default_rng(11), 0.5, 2, length, n_atoms=3)
    report = M.classify_stieltjes(s, alpha)
    assert report.R is not None
    arrays = [*report.kappa, *report.u, report.R, *report.canonical]
    assert {a.dtype for a in arrays} == {np.dtype(complex)}
