"""The tower a sequence holds: answers bit-identical to a fresh sequence's.

A sequence keeps the tower of the last (tolerance, alpha) it was asked about.
Every public answer must be what a fresh sequence with the same blocks gives,
in bytes, dtype, layout and writability, and what the caller does with a
returned array must not reach the next answer.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hamburger_measure_sequence, stieltjes_measure_sequence

import momentschur as M
from momentschur import hamburger


def public_calls(s, alpha):
    """name -> call(seq, tol) for each public function whose tower is of seq itself."""
    k, q = s.kappa, s.q
    last = s[k]
    below = last - np.eye(q)
    if alpha is None:
        calls = {
            "classify": lambda x, tol: M.classify_hamburger(x, tol),
            "is_hnnd": lambda x, tol: M.is_hnnd(x, tol),
            "is_hnnde": lambda x, tol: M.is_hnnde(x, tol),
            "canonical_rep": lambda x, tol: M.canonical_rep(x, tol),
            "same_class": lambda x, tol: M.same_class(x, s, tol),
            "interval_given": lambda x, tol: M.in_extension_interval(x, last, "given_s2n", tol),
            "interval_r": lambda x, tol: M.in_extension_interval(x, below, "r_upper", tol),
        }
        for n in range(k // 2 + 1):
            calls[f"l_matrix_{n}"] = lambda x, tol, n=n: M.l_matrix(x, n, tol)
            calls[f"r_upper_{n}"] = lambda x, tol, n=n: M.r_upper(x, n, tol)
        return calls
    calls = {
        "classify": lambda x, tol: M.classify_stieltjes(x, alpha, tol),
        "is_knnd": lambda x, tol: M.is_knnd(x, alpha, tol),
        "is_knnde": lambda x, tol: M.is_knnde(x, alpha, tol),
        "canonical_rep": lambda x, tol: M.canonical_rep_stieltjes(x, alpha, tol),
        "same_class": lambda x, tol: M.same_class_stieltjes(x, s, alpha, tol),
        "interval_given": lambda x, tol: M.in_extension_interval_stieltjes(x, alpha, last, "given_sm", tol),
        "interval_r": lambda x, tol: M.in_extension_interval_stieltjes(x, alpha, below, "r_upper", tol),
    }
    for j in range(k + 1):
        calls[f"kappa_{j}"] = lambda x, tol, j=j: M.kappa(x, alpha, j, tol)
        calls[f"u_lower_{j - 1}"] = lambda x, tol, j=j: M.u_lower(x, alpha, j - 1, tol)
        calls[f"r_upper_{j}"] = lambda x, tol, j=j: M.r_upper_stieltjes(x, alpha, j, tol)
    return calls


def outcome(call, seq, tol=None):
    try:
        return call(seq, tol)
    except (M.MomentSchurError, TypeError, ValueError) as exc:
        return exc


def fingerprint(x):
    """Everything observable of an answer: array bytes, dtype, layout, writability."""
    if isinstance(x, Exception):
        return type(x).__name__, str(x)
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.strides, x.flags.writeable, x.tobytes()
    if isinstance(x, M.MomentSequence):
        return "sequence", fingerprint(x.stack), tuple(fingerprint(b) for b in x.blocks)
    if dataclasses.is_dataclass(x):
        return tuple((f.name, fingerprint(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(fingerprint(v) for v in x)
    return type(x).__name__, repr(x)


def scribble(x):
    """Write 99 into every array an answer holds, read-only sequence stacks included."""
    if isinstance(x, np.ndarray):
        if x.flags.writeable:
            x[...] = 99.0
    elif isinstance(x, M.MomentSequence):
        try:
            x.stack.flags.writeable = True
        except ValueError:  # a view of an array nobody may write to
            return
        x.stack[...] = 99.0
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            scribble(getattr(x, f.name))
    elif isinstance(x, tuple):
        for v in x:
            scribble(v)


def fresh(s):
    return M.MomentSequence(list(s))


def measure(seed, q, length, alpha):
    rng = np.random.default_rng(seed)
    if alpha is None:
        return hamburger_measure_sequence(rng, q, length, n_atoms=2)
    return stieltjes_measure_sequence(rng, alpha, q, length, n_atoms=2)


@pytest.mark.parametrize("alpha", [None, -0.5])
@pytest.mark.parametrize("length", [1, 3, 5])
def test_writes_into_answers_do_not_reach_the_next_answer(alpha, length):
    s = measure(length, 2, length, alpha)
    calls = public_calls(s, alpha)
    for name, call in calls.items():
        scribble(outcome(call, s))
    for name, call in calls.items():
        first = outcome(call, s)
        scribble(first)
        assert fingerprint(outcome(call, s)) == fingerprint(outcome(call, fresh(s))), name


def test_report_fields_are_writable_copies():
    s = measure(7, 2, 5, None)
    M.classify_hamburger(s).theta[:] = 99
    M.classify_hamburger(s).L[:] = 99
    M.u_lower(s, 0.5, 3)[:] = 99
    rep = M.classify_stieltjes(s, 0.5)
    rep.R[:] = 99
    rep.u[3][:] = 99
    rep.kappa[2][:] = 99
    M.l_matrix(s, 2)[:] = 99
    s2 = fresh(s)
    assert fingerprint(M.classify_hamburger(s)) == fingerprint(M.classify_hamburger(s2))
    assert fingerprint(M.classify_stieltjes(s, 0.5)) == fingerprint(M.classify_stieltjes(s2, 0.5))
    assert fingerprint(M.u_lower(s, 0.5, 3)) == fingerprint(M.u_lower(s2, 0.5, 3))


@pytest.mark.parametrize("plus", [0.0, float("nan")])
def test_alpha_of_the_other_sign_keys_its_own_tower(plus):
    s, minus = measure(11, 2, 5, 0.0), -plus
    # alpha s_0 carries the sign of alpha into its zeros (or NaNs)
    assert fingerprint(M.u_lower(fresh(s), plus, 0)) != fingerprint(M.u_lower(fresh(s), minus, 0))
    for name, call in public_calls(s, minus).items():
        outcome(lambda x, tol: M.classify_stieltjes(x, plus), s)
        assert fingerprint(outcome(call, s)) == fingerprint(outcome(call, fresh(s))), name
    for name, call in public_calls(s, plus).items():
        assert fingerprint(outcome(call, s)) == fingerprint(outcome(call, fresh(s))), name


@pytest.mark.parametrize("alpha", [0.5, 1, np.float64(0.5), np.float32(0.5), 0.5 + 0j, True])
def test_alpha_of_another_type_keys_its_own_tower(alpha):
    s = measure(13, 2, 4, 0.5)
    for name, call in public_calls(s, alpha).items():
        M.classify_stieltjes(s, 0.5)
        assert fingerprint(outcome(call, s)) == fingerprint(outcome(call, fresh(s))), name


@pytest.mark.parametrize("alpha", [None, -0.5])
def test_tolerance_with_a_numpy_eps_gets_a_tower_of_its_own(alpha):
    """A Tolerance whose eps_rel is not a Python float is no key: each call
    gets a fresh tower, and the tower the sequence holds stays."""
    s = measure(29, 2, 5, alpha)
    tol = M.Tolerance(np.float64(1e-10))
    calls = public_calls(s, alpha)
    outcome(calls["classify"], s)
    held = s._held
    assert held is not None
    for name, call in calls.items():
        assert fingerprint(outcome(call, s, tol)) == fingerprint(outcome(call, fresh(s), tol)), name
        assert s._held is held, name


def _invalid_calls(s, even):
    """(call, what it gives: an error kind, or None for an answer), in the
    order of the checks a fresh sequence makes."""
    T = s[s.kappa]
    return [
        (lambda x: M.is_hnnd(even, -1.0), M.OddOrderUnsupported),  # parity before tolerance
        (lambda x: M.classify_hamburger(x, -1.0), ValueError),
        (lambda x: M.classify_hamburger(x, "abc"), ValueError),
        (lambda x: M.in_extension_interval(x, T, "bogus", -1.0), ValueError),  # tolerance first
        (lambda x: M.in_extension_interval(x, T, "bogus"), ValueError),
        (lambda x: M.in_extension_interval(x, np.eye(s.q + 1), "r_upper"), M.DimensionMismatch),
        (lambda x: M.l_matrix(x, 9, -1.0), M.IndexOutOfRange),
        (lambda x: M.l_matrix(x, -1, -1.0), M.IndexOutOfRange),  # index before tolerance
        (lambda x: M.r_upper(x, 9, -1.0), ValueError),  # tolerance first
        (lambda x: M.r_upper(x, 9), M.IndexOutOfRange),
        (lambda x: M.r_upper(x, -1), M.IndexOutOfRange),
        (lambda x: M.kappa(x, 0.5, 99, -1.0), M.IndexOutOfRange),
        (lambda x: M.kappa(x, 0.5, 0, -1.0), ValueError),
        (lambda x: M.u_lower(x, 0.5, 0, -1.0), None),  # u_0 = alpha s_0 needs no tolerance
        (lambda x: M.u_lower(x, 0.5, -1, "abc"), None),
        (lambda x: M.u_lower(x, 0.5, -2), M.IndexOutOfRange),
        (lambda x: M.r_upper_stieltjes(x, 0.5, 99, -1.0), ValueError),  # tolerance first
        (lambda x: M.r_upper_stieltjes(x, 0.5, 99), M.IndexOutOfRange),
        (lambda x: M.is_knnd(x, "x"), TypeError),
        (lambda x: M.is_knnde(x, [0.5]), TypeError),
        (lambda x: M.classify_stieltjes(x, 0.5, 0.0), ValueError),
        (lambda x: M.same_class(x, even), M.ShapeMismatch),
        (lambda x: M.same_class_stieltjes(x, s.prefix(1), 0.5, -1.0), M.ShapeMismatch),
    ]


def test_invalid_arguments_fail_as_on_a_fresh_sequence():
    s = measure(17, 2, 5, None)
    for i, (call, kind) in enumerate(_invalid_calls(s, s.prefix(4))):
        M.classify_hamburger(s)
        M.classify_stieltjes(s, 0.5)
        held, new = outcome(lambda x, tol: call(x), s), outcome(lambda x, tol: call(x), fresh(s))
        assert fingerprint(held) == fingerprint(new), i
        assert type(held) is kind if kind else not isinstance(held, Exception), i


def test_threads_sharing_one_sequence_each_get_their_own_answers():
    """Threads asking one sequence under different keys replace its tower
    under each other; each answer must still be its own key's."""
    s = measure(19, 2, 5, 0.5)
    keys = [(0.5, None), (0.5, 1e-8), (-0.5, None), (None, None)]

    def ask(x, alpha, tol):
        if alpha is None:
            return M.classify_hamburger(x, tol)
        return M.classify_stieltjes(x, alpha, tol)

    expected = {key: fingerprint(ask(fresh(s), *key)) for key in keys}
    wrong = []

    def worker(i):
        for j in range(40):
            key = keys[(i + j) % len(keys)]
            if fingerprint(ask(s, *key)) != expected[key]:
                wrong.append(key)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


ALPHAS = [None, None, -1.0, -0.5, 0.0, -0.0, 0.5]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_held_answers_equal_fresh_answers_in_any_call_order(data):
    alpha = data.draw(st.sampled_from(ALPHAS), "alpha")
    q = data.draw(st.integers(1, 2), "q")
    length = data.draw(st.integers(1, 7), "length")
    s = measure(data.draw(st.integers(0, 2**16), "seed"), q, length, alpha)
    calls = public_calls(s, alpha)
    order = data.draw(st.lists(st.tuples(st.sampled_from(sorted(calls)),
                                         st.sampled_from([None, 1e-10, 1e-8])),
                               min_size=1, max_size=10), "calls")
    for name, tol in order:
        held = outcome(calls[name], s, tol)
        assert fingerprint(held) == fingerprint(outcome(calls[name], fresh(s), tol)), name
        scribble(held)


def _skewed_last(c):
    """s_0, s_1, s_2 = 10 I, 10 I, 10 I + an anti-Hermitian part of norm c * 1e-9.

    ||H_1||_F = 20 ||I||_F is twice the block scale, so for 1 < c < 2 the
    part passes H_1's Hermitian test but not the block-scale test of
    kappa_2 = s_2 - Theta_1, nor s_2's own test.
    """
    K = np.array([[0, 1], [-1, 0]], dtype=complex) / (2 * np.sqrt(2))
    return M.MomentSequence([10 * np.eye(2), 10 * np.eye(2), 10 * np.eye(2) + c * 1e-9 * K])


def test_failed_checks_of_interval_ends_are_not_kept():
    s = _skewed_last(1.5)
    assert M.is_hnnd(s)
    T = 10 * np.eye(2)
    for bound, message in (("given_s2n", "Loewner comparison requires Hermitian matrices"),
                           ("r_upper", "not Hermitian within the working-scale tolerance")):
        expected = fingerprint(outcome(lambda x, tol: M.in_extension_interval(x, T, bound), fresh(s)))
        for _ in range(2):
            with pytest.raises(M.NotHermitian, match=message):
                M.in_extension_interval(s, T, bound)
            held = outcome(lambda x, tol: M.in_extension_interval(x, T, bound), s)
            assert fingerprint(held) == expected
    # below the H_1 threshold the ends pass and the answers are kept as usual
    s = _skewed_last(0.5)
    for bound in ("given_s2n", "r_upper"):
        assert M.in_extension_interval(s, T, bound) and M.in_extension_interval(s, T, bound)


def test_r_upper_raises_before_any_comparison():
    # R_2 fails the block-scale Hermitian test.  9 I lies below the lower end
    # u_1 = Theta_1 = 10 I, so a comparison made first would answer False
    s = _skewed_last(1.5)
    below = 9 * np.eye(2)
    for _ in range(2):
        with pytest.raises(M.NotHermitian, match="not Hermitian within the working-scale tolerance"):
            M.in_extension_interval(s, below, "r_upper")
        with pytest.raises(ValueError, match="bound must be"):
            M.in_extension_interval(s, below, "middle")
        # the given end s_2 fails its own test, made only once the lower end holds
        assert not M.in_extension_interval(s, below, "given_s2n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("alpha", [None, -0.5])
def test_class_tests_against_near_and_non_finite_prefixes(alpha):
    """A prefix that differs from s's by noise below the threshold passes
    as equal, noise above it or a NaN does not, as on a fresh sequence."""
    s = measure(23, 2, 5, alpha)
    calls = public_calls(s, alpha)
    canonical = outcome(calls["canonical_rep"], s)
    threshold = 1e-10 * max(1.0, np.linalg.norm(s[1]))
    rows = []
    for bump in (0.5 * threshold, 2 * threshold, np.nan):
        blocks = list(canonical)
        blocks[1] = blocks[1] + bump * np.eye(2) / np.sqrt(2)
        rows.append((bump, M.MomentSequence(blocks)))
    for bump, r in rows:
        if alpha is None:
            same = lambda x, tol: M.same_class(x, r, tol)
            conditions = lambda x: hamburger.Tower(x).conditions(r)
        else:
            same = lambda x, tol: M.same_class_stieltjes(x, r, alpha, tol)
            conditions = lambda x: hamburger.Tower(x, None, alpha).conditions(r)
        for _ in range(2):
            assert fingerprint(outcome(same, s)) == fingerprint(outcome(same, fresh(s))), bump
        assert conditions(s)[0] == (bump < threshold)  # False for NaN
        assert outcome(same, s) == (bump < threshold)
