"""The one spectral kernel: one Hermitian test, one factorization per matrix
and call, one LAPACK error path."""

from collections import Counter
import warnings

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
from momentschur import hamburger, linalg
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


@pytest.mark.parametrize("s", NON_FINITE)
def test_non_finite_sequences_are_not_extendable(s):
    # NaN fails the Hermitian test wherever it is made, so the extendability
    # verdicts agree with the nonnegative-definiteness ones
    assert not M.is_hnnde(s)
    assert not M.is_knnde(s, -0.5)
    assert not M.is_knnd(s, -0.5)
    if len(s) % 2:
        assert not M.is_hnnd(s)


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


def test_non_finite_blocks_answer_without_a_warning():
    # the block norms and the Hermitian test say NaN or False for a NaN or
    # an inf without forming M - M^H, where numpy would warn about inf - inf;
    # u_0 = alpha s_0 is a complex product, as the shift's blocks are, and
    # leaves a NaN imaginary part where s_0 holds an inf
    D = np.diag([np.inf, 1.0])
    inf_first = [D, np.zeros((2, 2)), np.eye(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(M.MomentSequence(inf_first).norms[0]).all()
        assert np.isnan(M.u_lower(inf_first, -0.5, 0)[0, 0].imag)
        assert not M.classify_hamburger(inf_first).is_hnnd
        assert not M.is_hnnd(inf_first)
        report = M.classify_stieltjes([1.0, 0.0, np.inf], -0.5)
        assert not psd_verdict(D)
        with pytest.raises(M.NotHermitian, match="candidate last block must be Hermitian"):
            M.in_extension_interval([np.eye(2), np.zeros((2, 2)), 2 * np.eye(2)], D)
        with pytest.raises(M.NotHermitian, match="Loewner comparison requires Hermitian matrices"):
            loewner_leq(D, np.eye(2))
        with pytest.raises(M.NotPSD, match="not Hermitian"):
            M.schur_complement(D, M.Subspace.zero(2))
    assert not report.is_knnd and not report.is_knnde and report.R is None


def test_public_theta_still_raises_on_non_finite_blocks():
    # the tower's NaN guard is not theta's: the direct route still runs pinv
    s = [np.diag([np.inf, 1.0]), np.zeros((2, 2)), np.eye(2)]
    with pytest.raises(M.NoConvergence):
        M.theta(s, 1)


class _CountingIsfinite:
    """numpy as the hamburger module sees it, with its isfinite calls counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def isfinite(self, *args, **kwargs):
        self.calls += 1
        return np.isfinite(*args, **kwargs)


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_cold_classify_reads_finiteness_from_the_block_norms(monkeypatch, alpha):
    # one np.isfinite pass for each sequence whose norms the tower reads (s,
    # and on the half line its shift), and none per Theta or per level
    counting = _CountingIsfinite()
    monkeypatch.setattr(hamburger, "np", counting)
    rng = np.random.default_rng(1)
    if alpha is None:
        s = M.MomentSequence(hamburger_measure_sequence(rng, 2, 11, n_atoms=4))
        assert M.classify_hamburger(s).is_hnnde
        assert counting.calls == 1
    else:
        s = M.MomentSequence(stieltjes_measure_sequence(rng, alpha, 2, 11, n_atoms=4))
        assert M.classify_stieltjes(s, alpha).is_knnde
        assert counting.calls == 2


def _infinite_off_diagonal(value):
    A = np.eye(3, dtype=complex)
    A[0, 2] = value
    return A


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


_ORDER_ONE_ENTRIES = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 2.5,
    complex(-0.0, -0.0), complex(3.0, 4.0), complex(1e-300, -1e300), complex(-1e300, 1e-300),
    complex(np.nan, 1.0), complex(1.0, np.nan), complex(2.0, np.inf), complex(np.inf, -np.inf),
]


def _order_one_stacks():
    """(1, 1), (2, 1, 1) and (3, 2, 1, 1) stacks of every entry above, complex and real."""
    z = np.array(_ORDER_ONE_ENTRIES, dtype=complex)
    stacks = []
    for entries in (z, z.real.copy()):
        n = entries.size
        stacks += [entries[i:i + 1].reshape(1, 1) for i in range(n)]
        stacks += [entries[[i, (i + 1) % n]].reshape(2, 1, 1) for i in range(n)]
        stacks += [np.roll(entries, i)[:6].reshape(3, 2, 1, 1) for i in range(n)]
    return stacks


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("a", _order_one_stacks(), ids=lambda a: f"{a.dtype}-{a.shape}-{a.ravel()[0]}")
def test_an_order_one_eigenproblem_is_numpys_answer_bit_for_bit(factorizations, a):
    # LAPACK's N = 1 quick return, W(1) = DBLE(A(1,1)) and Z = 1, answered
    # without numpy.linalg: the same bytes, dtypes and shapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, (v, U) = linalg._lapack("eigvalsh", a), linalg._lapack("eigh", a)
    assert factorizations == Counter()
    assert _same_bytes(w, np.linalg.eigvalsh(a))
    expected = np.linalg.eigh(a)
    assert _same_bytes(v, expected.eigenvalues) and _same_bytes(U, expected.eigenvectors)


def test_repeated_scalar_verdicts_make_no_lapack_call(factorizations):
    # at q = 1 every interval end and class-test difference is 1 x 1: once
    # the towers are held, a repeated question factorizes nothing
    rng = np.random.default_rng(11)
    s = M.MomentSequence(hamburger_measure_sequence(rng, 1, 9, n_atoms=4))
    k = M.MomentSequence(stieltjes_measure_sequence(rng, 0.5, 1, 8, n_atoms=4))
    mid = 0.5 * (M.theta(s, 4) + s[8])
    questions = [
        lambda: M.in_extension_interval(s, mid, "given_s2n"),
        lambda: M.in_extension_interval(s, s[8], "r_upper"),
        lambda: M.same_class(s, s),
        lambda: M.in_extension_interval_stieltjes(k, 0.5, k[7], "given_sm"),
        lambda: M.in_extension_interval_stieltjes(k, 0.5, k[7], "r_upper"),
        lambda: M.same_class_stieltjes(k, k, 0.5),
    ]
    first = [question() for question in questions]
    factorizations.clear()
    assert [question() for question in questions] == first
    assert factorizations == Counter()


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


@pytest.mark.parametrize("d, eigh, cholesky", [(0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 0, 1)])
def test_schur_complement_factorizes_its_input_once(factorizations, d, eigh, cholesky):
    # eigh when the eigenvectors build the fiber or the root; when V is the
    # whole space S = A needs only the PSD verdict, which one shifted
    # Cholesky proves for this positive definite A
    rng = np.random.default_rng(5)
    A = random_psd(rng, 3, 3)
    V = random_subspace(rng, 3, d)
    M.schur_complement(A, V)
    counts = factorizations["eigh"], factorizations["eigvalsh"], factorizations["cholesky"]
    assert counts == (eigh, 0, cholesky)


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


# V = 0 and V = C^3 leave via_basis no complement to take, and the
# variational value none either: at V = 0 the minimum over V-perp = C^3 is 0.
# Both read only A's PSD verdict, which one shifted Cholesky proves here
@pytest.mark.parametrize(
    "d, via_basis, variational",
    [
        (0, Counter(cholesky=1), Counter(cholesky=1)),
        (1, Counter(cholesky=1, qr=1, eigh=1), Counter(cholesky=1, qr=1, eigh=1)),
        # B22 and W^H A W are 1 x 1 at d = q - 1: their pinv takes no eigh
        (2, Counter(cholesky=1, qr=1), Counter(cholesky=1, qr=1)),
        (3, Counter(cholesky=1), Counter(cholesky=1)),
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
    value = M.variational_value(A, V, np.ones(3))
    assert factorizations == variational
    assert d or value == 0.0


@pytest.mark.parametrize("d", [0, 1, 3])
@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_a_non_finite_x_has_variational_value_nan_without_a_warning(d, entry):
    rng = np.random.default_rng(9)
    A = random_psd(rng, 3, 3)
    V = random_subspace(rng, 3, d)
    x = np.ones(3)
    x[1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(M.variational_value(A, V, x))


def test_decompose_at_zero_is_the_psd_verdict_and_schur_complement_bit_for_bit(factorizations):
    # (0, A): only the PSD verdict factorizes, by one shifted Cholesky, where
    # schur_complement takes an eigh for the P_fiber decompose discards; at
    # q = 1 the verdict is an order-1 eigvalsh and makes no LAPACK call
    for q in (1, 3, 8):
        A = random_psd(np.random.default_rng(q), q, q - 1)
        V = M.Subspace.zero(q)
        factorizations.clear()
        X, Y = M.decompose(A, V)
        assert factorizations == (Counter(cholesky=1) if q > 1 else Counter())
        result = M.schur_complement(A, V)
        assert np.array_equal(X, result.S) and np.array_equal(Y, result.complement)
        assert X.dtype == result.S.dtype and Y.dtype == result.complement.dtype


# the public entry points that read nothing of A's spectrum but its PSD verdict
VERDICT_ONLY = {
    "via_basis": lambda A, t: M.schur_complement_via_basis(A, M.Subspace.zero(len(A)), t),
    "variational": lambda A, t: M.variational_value(A, M.Subspace.zero(len(A)), np.ones(len(A)), t),
    "decompose": lambda A, t: M.decompose(A, M.Subspace.zero(len(A)), t),
    "full_space": lambda A, t: M.schur_complement(A, M.Subspace(np.eye(len(A), dtype=complex)), t),
}


def _verdict(call, A, t):
    """(True, None) if call(A, t) passes A as PSD, else (False, its NotPSD message)."""
    try:
        call(A, t)
    except M.NotPSD as exc:
        return False, str(exc)
    return True, None


@pytest.mark.parametrize("q", [2, 3, 8, 32, 128])
def test_the_psd_certificate_decides_as_the_eigenvalue_rule(factorizations, q):
    # lambda_min = -alpha threshold(rho), rho the spectral radius: a shifted
    # Cholesky that completes must mean the rule's verdict PSD, and where it
    # proves nothing the eigvalsh decides, with the rule's NotPSD message
    t = Tolerance()
    for k, scale in enumerate([1e-6, 1e-3, 1.0, 1e3, 1e6]):
        rng = np.random.default_rng([q, k])
        U = np.linalg.qr(random_complex(rng, q, q))[0]
        for alpha in [0, 0.1, 0.45, 0.5, 0.55, 0.99, 1, 1.01, 3]:
            rank = int(rng.integers(1, q))
            w = np.zeros(q)
            w[1:rank + 1] = scale * rng.uniform(0.1, 1.0, rank)
            w[0] = -alpha * t.threshold(w.max())
            A = linalg.herm_part((U * w) @ U.conj().T)
            low = np.linalg.eigvalsh(A)
            expected = (True, None) if _psd_floor(low, t) else (
                False, f"eigenvalue {low[0]:.6e} is below the PSD tolerance")
            for name, call in VERDICT_ONLY.items():
                factorizations.clear()
                assert _verdict(call, A, t) == expected, (name, scale, alpha)
                certified = factorizations == Counter(cholesky=1)
                assert certified or factorizations == Counter(cholesky=1, eigvalsh=1)
                # the shift is at most half the threshold: at lambda_min 0
                # the certificate must hold, past half the threshold it cannot
                assert certified if alpha == 0 else not (certified and alpha > 0.5)


def test_the_certificate_is_not_tried_where_its_bound_fails_or_at_order_one(factorizations):
    # at eps_rel = 1e-15, 2q(q+1) u ||H||_F exceeds the shift; at q = 1 the
    # verdict is the order-1 rule, which calls no numpy.linalg function
    rng = np.random.default_rng(17)
    for A, tol, factorized in [(random_psd(rng, 8, 8), Tolerance(1e-15), Counter(eigvalsh=1)),
                               (random_psd(rng, 1, 1), Tolerance(), Counter())]:
        for call in VERDICT_ONLY.values():
            factorizations.clear()
            assert _verdict(call, A, tol) == (True, None)
            assert factorizations == factorized


@pytest.mark.parametrize("d", [[1e154, -1e154], [1e200, -1e200, 1.0]], ids=["1e154", "1e200"])
def test_a_norm_that_overflows_gets_no_certificate(d):
    # ||H||_F is inf, so the shift would be inf and any Cholesky would pass
    A = np.diag(d)
    with np.errstate(over="ignore"):
        for call in VERDICT_ONLY.values():
            assert _verdict(call, A, Tolerance()) == (
                False, f"eigenvalue {-d[0]:.6e} is below the PSD tolerance")


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
    # the range needs no SVD or pseudo-inverse of its own.  R_m's Schur step
    # reads kappa_m's eigh too: 11 slack records, 9 in Theta's pinv
    M.classify_stieltjes(_four_atom_sequence(), 0.5)
    assert factorizations["eigh"] == 20
    assert factorizations["svd"] == 0
    assert sum(factorizations.values()) == 23


def test_a_hamburger_classify_takes_each_range_from_its_slack_spectrum(factorizations):
    M.classify_hamburger(_four_atom_sequence())
    assert factorizations == Counter(eigh=4, eigvalsh=2)


def test_r_reads_the_slack_record_as_the_public_schur_complement_would():
    # R_m hands kappa_m's banded eigh to the Schur layer; the public route
    # tests and factorizes the clip again.  The two eigenbases differ in
    # rounding only: within 16 eps at the working scale where
    # 0 < dim ran kappa_{m-step} < q (worst on this stream: 5.4 eps)
    t, eps = Tolerance(), np.finfo(float).eps
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(25):
        for q in (2, 3):
            for length in (5, 7, 9):
                alpha = float(rng.choice([-1.0, 0.5]))
                for s, a in ((hamburger_measure_sequence(rng, q, length, max_rank=1), None),
                             (stieltjes_measure_sequence(rng, alpha, q, length, max_rank=1), alpha)):
                    tower = Tower(s, t, a)
                    for m in range(tower.step, s.kappa + 1, tower.step):
                        scale = tower._scale(tower._sizes[m])
                        V = tower._spectrum(m - tower.step).range(scale, t)
                        if not (tower.nnd(m) and 0 < V.dim < q):
                            continue
                        clip = tower._spectrum(m).clip(scale, t)
                        public = tower.u(m - 1) + M.schur_complement(clip, V, t).S
                        assert frobenius(tower.r(m) - public) <= 16 * eps * scale
                        checked += 1
    assert checked > 200, checked


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
    # verdicts, stacked in one eigvalsh, and is_unique_split one SVD of Y
    # and of its part in V-perp, stacked
    rng = np.random.default_rng(5)
    A = random_psd(rng, 3, 3)
    V = random_subspace(rng, 3, 2)
    X, Y = M.decompose(A, V)
    factorizations.clear()
    assert M.in_lcr(A, V, X)
    assert factorizations == Counter(eigvalsh=1)
    factorizations.clear()
    assert M.is_unique_split(A, V, X, Y)
    assert factorizations == Counter(svd=1)


def test_a_unique_split_factorizes_one_q_by_q_stack(monkeypatch):
    # rank [Y, Q] = dim V + rank((I - P_V) Y): no SVD of the q x (q + dim V)
    # matrix [Y, Q], one of the (2, q, q) stack of Y and its part in V-perp
    shapes = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    rng = np.random.default_rng(7)
    A = random_psd(rng, 16, 10)
    V = random_subspace(rng, 16, 12)
    X, Y = M.decompose(A, V)
    monkeypatch.setattr(np.linalg, "svd", recorded)
    assert M.is_unique_split(A, V, X, Y)
    assert not M.is_unique_split(A, V, X - 1e-3 * V.projector(), Y + 1e-3 * V.projector())
    assert shapes == [(2, 16, 16)] * 2


@pytest.mark.parametrize("d, svd", [(0, 0), (3, 1)])
def test_a_unique_split_at_a_trivial_subspace_needs_at_most_the_rank_of_y(factorizations, d, svd):
    # V = 0: ran Y meets it only in 0, with no SVD.  V = C^3: one SVD of the
    # stack of Y = 1e-3 I (rank 3) and its part in V-perp (rank 0)
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
    # scale; kappa_{m-step} is ranked there from its held eigendecomposition.
    # r_m - R_m = 2 R + 10 I has rank 2 = q, so with kappa_{m-step} != 0 the
    # rank sum exceeds q: its eigenvalues alone decide, and no SVD is needed
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
    assert factorizations == Counter(eigvalsh=1)


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_class_test_against_the_canonical_representative_makes_one_eigvalsh(factorizations, alpha):
    # r_m - R_m = 0 exactly: its eigenvalues say its clip is zero, and a zero
    # difference meets every range only in 0 without an eigh or an SVD
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
    assert factorizations == Counter(eigvalsh=1)


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_class_test_whose_difference_fails_the_band_makes_one_eigvalsh(factorizations, alpha):
    # r_m - R_m = -1e-3 I fails the band with NotPSD; its rank, q = 2, is read
    # from the eigenvalues the band took, and with kappa_{m-step} != 0 the
    # rank sum exceeds q, so no eigh or SVD is needed
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
    assert factorizations == Counter(eigvalsh=1)


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_class_test_that_needs_the_split_test_makes_one_eigvalsh_and_one_svd(factorizations, alpha):
    # one atom with a rank-one weight: kappa_{m-step} has rank 1, and
    # r_m - R_m = 1e-3 u u^H too, so the rank sum 2 = q leaves the split test
    # to decide: one values-only SVD of r_m - R_m and its part outside
    # ran kappa_{m-step}, stacked, on the range the slack's held eigh gives.
    # No clip is rebuilt
    v, u = np.array([[1.0], [1j]]), np.array([[1.0], [0.5]])
    s = measure_moments([0.7], [v @ v.conj().T], 3)
    extra = () if alpha is None else (alpha,)
    same = M.same_class if alpha is None else M.same_class_stieltjes
    R = M.r_upper(s, 1) if alpha is None else M.r_upper_stieltjes(s, alpha, 2)
    for w, disjoint in ((u, True), (v, False)):
        r = s.with_last(R + 1e-3 * w @ w.conj().T)
        factorizations.clear()
        assert same(s, r, *extra) == disjoint
        assert factorizations == Counter(eigvalsh=1, svd=1)


@pytest.mark.parametrize("alpha", [None, 0.5])
@pytest.mark.parametrize("length", [3, 5])
@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_competing_block_fails_the_class_test_with_no_factorization(
        factorizations, alpha, length, entry):
    # one atom with a rank-one weight: kappa_{m-step} has rank 1 at length 3
    # and is 0 at length 5.  On a warm tower, r_m holding a NaN or an inf is
    # no PSD difference and meets every range, and nothing is factorized
    v = np.array([[1.0], [1j]])
    s = measure_moments([0.7], [v @ v.conj().T], length)
    tower = Tower.of(s, None, alpha)
    m = tower.top()
    scale = tower._scale(tower._sizes[m])
    assert tower._spectrum(m - tower.step).rank(scale, tower.t) == (length == 3)
    last = tower.r(m)
    last[0, 1] = entry
    for moved in (0.0, 1.0):
        r = M.MomentSequence([*(s.stack[:-1] + moved), last])
        factorizations.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tower.conditions(r) == (not moved, False, False)
            assert not (M.same_class(s, r) if alpha is None else M.same_class_stieltjes(s, r, alpha))
        assert not factorizations


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_warm_interval_test_makes_only_its_eigenvalue_tests(factorizations, monkeypatch, alpha):
    # once a bound's ends are held, a question makes its two Loewner
    # comparisons in one stacked eigvalsh, and rebuilds neither u_{m-1} nor R_m
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
            assert factorizations == Counter(eigvalsh=1)
    assert built["u"] == built["r"] == 0


def _interval_cases():
    """(sequence, alpha) pairs, both problems, rank-deficient and full-rank, some not extendable."""
    rng = np.random.default_rng(43)
    for q in (1, 2, 3):
        for length in (3, 5, 6):
            if length % 2:
                yield hamburger_measure_sequence(rng, q, length), None
                yield hamburger_measure_sequence(rng, q, length, max_rank=1), None
            alpha = float(rng.choice([-1.0, 0.5]))
            yield stieltjes_measure_sequence(rng, alpha, q, length), alpha
            yield stieltjes_measure_sequence(rng, alpha, q, length, max_rank=1), alpha
        yield nonextendable_hamburger(rng, q, 2), None
        yield nonextendable_stieltjes(rng, 0.5, q, 4), 0.5


def test_the_stacked_interval_verdict_is_the_two_loewner_comparisons():
    # at, just inside and just outside each end, by 1e-11 and 1e-9 of the
    # block scale (the tolerance lies between), along I and a rank-one
    # direction, and far below the lower end; the stacked eigvalsh says
    # what two separate loewner_leq calls say
    rng = np.random.default_rng(47)
    checked = Counter()
    for s, alpha in _interval_cases():
        m = s.kappa
        if alpha is None:
            lower, R, given = M.theta(s, m // 2), M.r_upper(s, m // 2), "given_s2n"
            member = M.in_extension_interval
        else:
            lower, R, given = M.u_lower(s, alpha, m - 1), M.r_upper_stieltjes(s, alpha, m), "given_sm"
            member = lambda s, T, bound: M.in_extension_interval_stieltjes(s, alpha, T, bound)
        scale = max(np.linalg.norm(b) for b in s)
        v = random_complex(rng, s.q, 1)
        directions = (np.eye(s.q), v @ v.conj().T / np.linalg.norm(v) ** 2)
        for bound, upper in ((given, s[m]), ("r_upper", R)):
            candidates = [lower - scale * np.eye(s.q), 0.5 * (lower + upper)]
            for end in (lower, upper):
                candidates.append(end)
                for P in directions:
                    for delta in (1e-11, -1e-11, 1e-9, -1e-9):
                        candidates.append(end + delta * scale * P)
            for T in candidates:
                T = 0.5 * (T + T.conj().T)
                expected = loewner_leq(lower, T) and loewner_leq(T, upper)
                assert member(s, T, bound) == expected
                checked[bound == given, expected] += 1
    # every bound answers both ways, many times
    assert min(checked.values()) > 100 and len(checked) == 4, checked


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_a_warm_report_copies_what_the_tower_holds(factorizations, monkeypatch, alpha):
    # once a report has been made, the next one copies the held slack and
    # lower-end stacks, R_m and the sequence's own stack: no level is
    # rebuilt, no block re-validated and no matrix factorized
    s = _four_atom_sequence()
    if alpha is None:
        s = s.prefix(9)
        calls = (lambda x: M.classify_hamburger(x), lambda x: M.canonical_rep(x))
    else:
        calls = (lambda x: M.classify_stieltjes(x, alpha), lambda x: M.canonical_rep_stieltjes(x, alpha))
    for call in calls:
        call(s)
    built = Counter()
    for cls, name in ((Tower, "kappa"), (Tower, "u"), (M.MomentSequence, "__init__")):
        def counted(*args, _name=name, _real=getattr(cls, name)):
            built[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cls, name, counted)
    factorizations.clear()
    for call in calls:
        call(s)
    assert not built and not factorizations
    # the counters see the work of a fresh sequence
    fresh = M.MomentSequence(list(s))
    for call in calls:
        call(fresh)
    assert built["kappa"] and built["u"] and built["__init__"]


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
    # eigenvector of kappa_{m-step}, so that the ranges meet); the
    # non-Hermitian R + 1e-3 v w^H (w random too); and R + 10 b v v^H and
    # R + 10 b u u^H, b the block scale, whose r_m lifts the scale of the
    # class test above b
    rng = np.random.default_rng(29)
    # six atoms keep kappa_{m-step} nonzero, as _stream's few atoms mostly do not
    rich = []
    for q in (1, 2, 3):
        for length in (3, 5):
            rich.append((hamburger_measure_sequence(rng, q, length, n_atoms=6), None))
            rich.append((stieltjes_measure_sequence(rng, 0.5, q, length, n_atoms=6), 0.5))
            rich.append((stieltjes_measure_sequence(rng, -1.0, q, length + 1, n_atoms=6), -1.0))
    # q - 1 atoms with rank-one weights leave 0 < rank kappa_{m-step} < q, so
    # that a rank-one difference reaches the split test
    for q in (2, 3):
        for _ in range(4):
            rich.append((hamburger_measure_sequence(rng, q, 3, n_atoms=q - 1, max_rank=1), None))
            rich.append((stieltjes_measure_sequence(rng, 0.5, q, 3, n_atoms=q - 1, max_rank=1), 0.5))
    verdicts = Counter()
    for s, alpha in [*_stream(), *rich]:
        tower = Tower(s, None, alpha)
        m = tower.top()
        if not tower.nnd(m):
            continue
        R = tower.r(m)
        v, w = random_complex(rng, s.q, 1), random_complex(rng, s.q, 1)
        u = np.linalg.eigh(tower.kappa(m - tower.step))[1][:, -1:]
        I, P, Q = np.eye(s.q), v @ v.conj().T, u @ u.conj().T
        lifted = 10 * tower._sizes[m]
        lasts = (R, R + 1e-3 * I, R - 1e-3 * I, R + P, R + 0.3 * Q, R + 1e-3 * v @ w.conj().T,
                 R + lifted * P, R + lifted * Q)
        for kind, last in enumerate(lasts):
            verdict = Tower(s, None, alpha).conditions(s.with_last(last))[2]
            assert verdict == _reference_disjoint(tower, last), (kind, s.q, alpha)
            verdicts[kind, verdict] += 1
    # the non-Hermitian and the lifted differences answer both ways
    assert all(verdicts[kind, answer] for kind in (5, 6, 7) for answer in (True, False)), verdicts
    assert sum(n for (_, answer), n in verdicts.items() if answer) > 50, verdicts
    assert sum(n for (_, answer), n in verdicts.items() if not answer) > 50, verdicts


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
