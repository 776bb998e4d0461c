"""Work done by the tower engine: each Theta_k of each tower once for all
calls on one sequence under one tolerance and alpha, and each block norm of
a sequence once for all calls on it."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import hamburger_measure_sequence, stieltjes_measure_sequence

import momentschur as M
from momentschur import hamburger, linalg

ALPHA = 0.5


@pytest.fixture
def theta_calls(monkeypatch):
    """Count hamburger.theta evaluations by k and the blocks Theta_k reads."""
    calls = Counter()
    real = hamburger.theta

    def counted(s, k, tol=None):
        # Theta_k reads s_0..s_{2k-1}; keeping s_0 for k = 0 tells the plain
        # tower's Theta_0 from the shifted tower's
        read = M.MomentSequence.coerce(s).blocks[: max(2 * k, 1)]
        calls[k, b"".join(b.tobytes() for b in read)] += 1
        return real(s, k, tol)

    monkeypatch.setattr(hamburger, "theta", counted)
    return calls


def test_classify_hamburger_evaluates_each_theta_once(theta_calls):
    s = hamburger_measure_sequence(np.random.default_rng(3), 2, 5, n_atoms=3)
    M.classify_hamburger(s)
    # Theta_1 and Theta_2 of the one tower
    assert sorted(theta_calls.values()) == [1, 1]


def test_classify_stieltjes_evaluates_each_theta_once(theta_calls):
    s = stieltjes_measure_sequence(np.random.default_rng(4), ALPHA, 2, 7, n_atoms=3)
    M.classify_stieltjes(s, ALPHA)
    # Theta_0..Theta_3 of the plain tower, Theta_0..Theta_2 of the shift
    assert sorted(theta_calls.values()) == [1] * 7


def test_r_upper_reads_the_held_tower(theta_calls):
    """R_2n reads s_0..s_2n alone, so r_upper at every level of a classified
    sequence reuses the tower it holds."""
    s = hamburger_measure_sequence(np.random.default_rng(6), 2, 7, n_atoms=3)
    M.classify_hamburger(s)
    for n in range(3, -1, -1):
        M.r_upper(s, n)
    # Theta_2 and Theta_3 for classify, then Theta_1 for R_4 and Theta_0 for R_2
    assert sorted(theta_calls.values()) == [1] * 4


def test_classify_hamburger_builds_one_tower(monkeypatch):
    """The minimal completion at the odd level of the nnde chain is judged
    without a tower of its own."""
    built = []
    real = hamburger.Tower.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(hamburger.Tower, "__init__", counted)
    M.classify_hamburger(hamburger_measure_sequence(np.random.default_rng(6), 2, 7, n_atoms=3))
    assert len(built) == 1


HAMBURGER_CALLS = {
    "is_hnnde": lambda s: M.is_hnnde(s),
    "canonical_rep": lambda s: M.canonical_rep(s),
    "interval": lambda s: M.in_extension_interval(s, s[s.kappa], "r_upper"),
    "same_class": lambda s: M.same_class(s, s),
}
STIELTJES_CALLS = {
    "is_knnde": lambda s: M.is_knnde(s, ALPHA),
    "canonical_rep": lambda s: M.canonical_rep_stieltjes(s, ALPHA),
    "interval": lambda s: M.in_extension_interval_stieltjes(s, ALPHA, s[s.kappa], "r_upper"),
    "same_class": lambda s: M.same_class_stieltjes(s, s, ALPHA),
}


@pytest.mark.parametrize("length", [3, 5, 7])
@pytest.mark.parametrize("name", sorted(HAMBURGER_CALLS))
def test_hamburger_calls_evaluate_each_theta_once(theta_calls, name, length):
    s = hamburger_measure_sequence(np.random.default_rng(length), 2, length, n_atoms=2)
    HAMBURGER_CALLS[name](s)
    assert theta_calls and max(theta_calls.values()) == 1


@pytest.mark.parametrize("length", [2, 5, 8])
@pytest.mark.parametrize("name", sorted(STIELTJES_CALLS))
def test_stieltjes_calls_evaluate_each_theta_once(theta_calls, name, length):
    s = stieltjes_measure_sequence(np.random.default_rng(length), ALPHA, 2, length, n_atoms=2)
    STIELTJES_CALLS[name](s)
    assert theta_calls and max(theta_calls.values()) == 1


def test_block_norms_are_computed_once_per_sequence(monkeypatch):
    """Classify, 8 interval tests and 2 class tests on one sequence compute
    each block's two norms once."""
    rng = np.random.default_rng(5)
    s = hamburger_measure_sequence(rng, 2, 7, n_atoms=3)
    # a distinct anti-Hermitian part per block, far below the tolerance, so
    # that each call of ||s_j - s_j^H||_F can be told from the others
    s = M.MomentSequence([b + 1e-13j * (j + 1) * np.eye(2) for j, b in enumerate(s)])
    keys = [b.tobytes() for b in s] + [(b - b.conj().T).tobytes() for b in s]
    calls = Counter()
    real = hamburger.frobenius

    def counted(A):
        calls[np.asarray(A).tobytes()] += 1
        return real(A)

    monkeypatch.setattr(hamburger, "frobenius", counted)
    M.classify_hamburger(s)
    last, lower = s[s.kappa], M.theta(s, s.kappa // 2)
    for T in (last, 0.5 * (lower + last), last + np.eye(2), lower - np.eye(2)):
        for bound in ("given_s2n", "r_upper"):
            M.in_extension_interval(s, T, bound)
    canonical = M.canonical_rep(s)
    M.same_class(s, canonical)
    M.same_class(s, canonical.with_last(canonical[s.kappa] + np.eye(2)))
    assert [calls[k] for k in keys] == [1] * len(keys)


def _measure(seed, alpha):
    """Moments of a three-atom q = 2 measure, s_0..s_6."""
    rng = np.random.default_rng(seed)
    if alpha is None:
        return hamburger_measure_sequence(rng, 2, 7, n_atoms=3)
    return stieltjes_measure_sequence(rng, alpha, 2, 7, n_atoms=3)


def _workflow(s, alpha):
    """Classify, 8 interval tests and 2 class tests on s, as a user would."""
    extra = () if alpha is None else (alpha,)
    if alpha is None:
        rep = M.classify_hamburger(s)
        lower, given = rep.theta, "given_s2n"
        interval, same, canonical_rep = M.in_extension_interval, M.same_class, M.canonical_rep
    else:
        rep = M.classify_stieltjes(s, alpha)
        lower, given = rep.u[-1], "given_sm"
        interval, same = M.in_extension_interval_stieltjes, M.same_class_stieltjes
        canonical_rep = M.canonical_rep_stieltjes
    last, eye = s[s.kappa], np.eye(s.q)
    for T in (last, 0.5 * (lower + last), last + eye, lower - eye):
        for bound in (given, "r_upper"):
            interval(s, *extra, T, bound)
    canonical = canonical_rep(s, *extra)
    same(s, canonical, *extra)
    same(s, canonical.with_last(canonical[s.kappa] + eye), *extra)


@pytest.mark.parametrize("alpha", [None, ALPHA])
def test_one_sequence_evaluates_each_theta_once_across_calls(theta_calls, alpha):
    """The sequence holds its tower: a second question reuses every Theta,
    and a question under another tolerance evaluates each once more."""
    s = _measure(6, alpha)
    _workflow(s, alpha)
    assert theta_calls and set(theta_calls.values()) == {1}
    extra = () if alpha is None else (alpha,)
    classify = M.classify_hamburger if alpha is None else M.classify_stieltjes
    classify(s, *extra, tol=1e-8)
    assert set(theta_calls.values()) == {2}


def test_equal_tolerances_share_one_tower(theta_calls):
    s = stieltjes_measure_sequence(np.random.default_rng(8), ALPHA, 2, 6, n_atoms=2)
    M.classify_stieltjes(s, ALPHA)
    evaluated = sum(theta_calls.values())
    for tol in (M.Tolerance(), 1e-10, np.float64(1e-10), None):
        M.classify_stieltjes(s, ALPHA, tol)
        M.is_knnde(s, ALPHA, tol)
    assert sum(theta_calls.values()) == evaluated
    M.is_knnde(s, ALPHA, 1e-8)
    assert sum(theta_calls.values()) == 2 * evaluated


@pytest.fixture
def work(monkeypatch):
    """Count eigh, eigvalsh and svd calls, and runs of the Hermitian test."""
    counts = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    # every Hermitian test ends in linalg._skew_within; a kernel without it
    # counts none, and fails the counts below
    test = getattr(linalg, "_skew_within", None)
    if test is not None:
        monkeypatch.setattr(linalg, "_skew_within", counting("hermitian", test))
    return counts


@pytest.mark.parametrize("alpha", [None, ALPHA])
def test_an_interval_question_pays_for_its_candidate_alone(work, alpha):
    """On a classified sequence whose interval ends were checked, a question
    checks its candidate once and makes its two Loewner comparisons in one
    eigvalsh call."""
    s = _measure(12, alpha)
    extra = () if alpha is None else (alpha,)
    if alpha is None:
        lower, given, interval = M.classify_hamburger(s).theta, "given_s2n", M.in_extension_interval
    else:
        lower, given = M.classify_stieltjes(s, alpha).u[-1], "given_sm"
        interval = M.in_extension_interval_stieltjes
    last, eye = s[s.kappa], np.eye(s.q)
    for bound in (given, "r_upper"):
        interval(s, *extra, last, bound)
    for T in (last, 0.5 * (lower + last), last + eye, lower - eye):
        for bound in (given, "r_upper"):
            work.clear()
            interval(s, *extra, T, bound)
            assert work["hermitian"] == 1 and work["eigvalsh"] == 1
            assert set(work) <= {"hermitian", "eigvalsh"}, work


@pytest.mark.parametrize("alpha", [None, ALPHA])
def test_a_class_test_reuses_the_clip_of_the_previous_slack(work, alpha):
    """Against an r with s's own prefix and ||r_m||_F within the block
    scale, a class test takes the eigenvalues of r_m - R_m alone:
    kappa_{m-step} was factorized at that scale for R_m."""
    s = _measure(14, alpha)
    extra = () if alpha is None else (alpha,)
    canonical_rep, same = (
        (M.canonical_rep, M.same_class) if alpha is None
        else (M.canonical_rep_stieltjes, M.same_class_stieltjes)
    )
    canonical = canonical_rep(s, *extra)
    for r in (s, canonical):
        assert np.linalg.norm(r[r.kappa]) <= max(np.linalg.norm(b) for b in s)
        work.clear()
        assert same(s, r, *extra)
        assert work["eigvalsh"] == 1 and not work["eigh"]


@pytest.mark.parametrize("alpha", [None, ALPHA])
def test_sequence_holding_a_tower_is_freed_without_the_cycle_collector(alpha):
    """Nothing the held tower keeps points back at its sequence."""
    gc.disable()
    try:
        s = _measure(9, alpha)
        _workflow(s, alpha)
        assert s._held is not None
        stack = weakref.ref(s.stack)
        del s
        assert stack() is None
    finally:
        gc.enable()
