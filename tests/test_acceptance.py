"""Acceptance suite: one test per headline guarantee of the package.

Each test is seeded and self-contained; run with ``pytest -v
tests/test_acceptance.py`` to get one pass/fail line per guarantee.
"""

import contextlib
import io
import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from conftest import (
    hamburger_class_member,
    hamburger_measure_sequence,
    nonextendable_hamburger,
    nonextendable_stieltjes,
    psd_root,
    random_complex,
    random_contraction,
    random_psd,
    random_subspace,
    stieltjes_class_member,
    stieltjes_measure_sequence,
)

from momentschur import (
    MomentSequence,
    canonical_rep,
    canonical_rep_stieltjes,
    in_extension_interval,
    in_extension_interval_stieltjes,
    is_hnnd,
    is_hnnde,
    is_knnd,
    is_knnde,
    is_unique_split,
    loewner_leq,
    r_upper,
    r_upper_stieltjes,
    ranges_intersect_trivially,
    same_class,
    same_class_stieltjes,
    schur_complement,
    schur_complement_via_basis,
    theta,
    u_lower,
    variational_value,
)
from momentschur.cli import main as cli_main
from momentschur.linalg import frobenius, herm_part

GOLDEN = Path(__file__).parent / "golden"

ALPHAS = (-1.0, 0.0, 2.0)


@lru_cache(maxsize=1)
def schur_case_family():
    """200 random (A, V, schur_complement(A, V)) triples, q up to 6.

    A = G^H G with G of random rank (zero included), V of random dimension
    from 0 to q.  Shared by the Schur-side tests below, which all quantify
    over the same family.
    """
    rng = np.random.default_rng(20260823)
    cases = []
    for _ in range(200):
        q = int(rng.integers(1, 7))
        A = random_psd(rng, q, int(rng.integers(0, q + 1)))
        V = random_subspace(rng, q, int(rng.integers(0, q + 1)))
        cases.append((A, V, schur_complement(A, V)))
    return cases


def test_sqrt_route_and_block_route_agree_on_200_random_cases():
    for A, V, res in schur_case_family():
        S_block = schur_complement_via_basis(A, V)
        assert frobenius(res.S - S_block) <= 1e-8 * max(1.0, frobenius(A))


def _grid_minimum(A, V, x, av, bv):
    """min of (x-y)^H A (x-y) over a discretized slice of V-perp.

    dim V-perp = 0: the only candidate is y = 0.  dim 1: full complex grid
    c*w over the basis vector w.  dim 2 (V = {0}): the plane {c*x}, which
    contains the true minimizer y = x at c = 1, so the grid minimum is
    already exact.
    """
    base = float(np.real(x.conj() @ A @ x))
    d = V.dim
    if d == A.shape[0]:
        return base
    if d == 0:
        return float((((1.0 - av) ** 2 + bv * bv) * base).min())
    w = V.complement().basis[:, 0]
    beta = complex(w.conj() @ A @ x)
    gamma = float(np.real(w.conj() @ A @ w))
    vals = base - 2.0 * (av * beta.real + bv * beta.imag) + (av * av + bv * bv) * gamma
    return float(vals.min())


def test_quadratic_form_of_s_is_the_constrained_minimum():
    rng = np.random.default_rng(814)
    axis = np.arange(-3.0, 3.0 + 1e-9, 0.05)
    av, bv = np.meshgrid(axis, axis)
    for A, V, res in schur_case_family():
        q = A.shape[0]
        for _ in range(10):
            x = random_complex(rng, q, 1)[:, 0]
            quad = float(np.real(x.conj() @ res.S @ x))
            ref = float(np.real(x.conj() @ A @ x))
            assert abs(quad - variational_value(A, V, x)) <= 1e-8 * max(1.0, ref)
            if q != 2:
                continue
            # dense-grid cross-check; rescale x so the true minimizer
            # c* = w^H A x / w^H A w stays well inside the radius-3 ball
            x_g = x
            if V.dim == 1:
                w = V.complement().basis[:, 0]
                gamma = float(np.real(w.conj() @ A @ w))
                if gamma > 1e-12:
                    c_star = abs(complex(w.conj() @ A @ x)) / gamma
                    if c_star > 2.5:
                        x_g = x * (2.0 / c_star)
            target = float(np.real(x_g.conj() @ res.S @ x_g))
            got = _grid_minimum(A, V, x_g, av, bv)
            assert abs(got - target) <= 1e-2 * max(1.0, frobenius(A))


def test_compressions_of_s_never_exceed_s():
    rng = np.random.default_rng(815)
    for A, V, res in schur_case_family():
        root = psd_root(res.S)
        for _ in range(5):
            K = random_contraction(rng, A.shape[0])
            X = herm_part(root @ K @ root)
            assert loewner_leq(X, res.S, tol=1e-8)


def test_remainder_avoids_v_and_perturbed_splits_are_rejected():
    rng = np.random.default_rng(816)
    for A, V, res in schur_case_family():
        assert ranges_intersect_trivially(res.complement, V.basis)
    eligible = [c for c in schur_case_family() if c[1].dim >= 1]
    for k in range(100):
        A, V, res = eligible[k % len(eligible)]
        v = V.basis @ random_complex(rng, V.dim, 1)[:, 0]
        v = v / np.linalg.norm(v)
        P = np.outer(v, v.conj())
        # moving rank-1 weight inside V across the split leaves X + Y = A
        # but puts v both in ran(Y -/+ eps P) and in V, so condition (i)
        # of the unique-split characterization fails either way
        eps = 1e-3 if k % 2 == 0 else -1e-3
        assert is_unique_split(A, V, res.S + eps * P, res.complement - eps * P) is False


def _scalar_nonextendable(rng, length):
    """A scalar sequence that is H-nnd but not extendable (R < s_2n)."""
    c = float(rng.uniform(0.5, 2.0))
    if length == 3:
        return MomentSequence([0.0, 0.0, c])
    w = float(rng.uniform(0.5, 2.0))
    x = float(rng.uniform(-1.5, 1.5))
    return MomentSequence([w * x ** j for j in range(4)] + [w * x ** 4 + c])


def _scalar_nonextendable_stieltjes(rng, alpha, length):
    """Moments of w*delta_alpha with surplus on the last block: K-nnd only."""
    m = length - 1
    c = float(rng.uniform(0.5, 2.0))
    w = float(rng.uniform(0.5, 2.0))
    return MomentSequence([w * alpha ** j for j in range(m)] + [w * alpha ** m + c])


def _band(t, edges):
    return any(abs(t - e) <= 1e-8 * max(1.0, abs(e)) for e in edges)


def _check_hamburger_interval(s):
    n = s.kappa // 2
    lower = theta(s, n)[0, 0].real
    upper = s[2 * n][0, 0].real
    canon = r_upper(s, n)[0, 0].real
    for t in np.linspace(lower - 1.0, upper + 1.0, 200):
        if _band(t, (lower, canon, upper)):
            continue
        cand = s.with_last([[t]])
        in_given = in_extension_interval(s, [[t]], bound="given_s2n")
        assert in_given == (is_hnnd(cand) and t <= upper)
        in_canon = in_extension_interval(s, [[t]], bound="r_upper")
        assert in_canon == (is_hnnde(cand) and t <= upper)


def _check_stieltjes_interval(s, alpha):
    m = s.kappa
    lower = u_lower(s, alpha, m - 1)[0, 0].real
    upper = s[m][0, 0].real
    canon = r_upper_stieltjes(s, alpha, m)[0, 0].real
    for t in np.linspace(lower - 1.0, upper + 1.0, 200):
        if _band(t, (lower, canon, upper)):
            continue
        cand = s.with_last([[t]])
        in_given = in_extension_interval_stieltjes(s, alpha, [[t]], bound="given_sm")
        assert in_given == (is_knnd(cand, alpha) and t <= upper)
        in_canon = in_extension_interval_stieltjes(s, alpha, [[t]], bound="r_upper")
        assert in_canon == (is_knnde(cand, alpha) and t <= upper)


def test_scalar_intervals_match_brute_force_over_the_recursive_predicates():
    rng = np.random.default_rng(817)
    for length in (3, 5):
        for i in range(25):
            if i % 3 == 2:
                s = _scalar_nonextendable(rng, length)
            else:
                n_atoms = 1 if i % 3 == 1 else int(rng.integers(1, 4))
                s = hamburger_measure_sequence(rng, 1, length, n_atoms=n_atoms)
            _check_hamburger_interval(s)
    k = 0
    for length in (3, 5):
        for i in range(25):
            alpha = ALPHAS[k % 3]
            k += 1
            if i % 3 == 2:
                s = _scalar_nonextendable_stieltjes(rng, alpha, length)
            else:
                n_atoms = 1 if i % 3 == 1 else int(rng.integers(1, 4))
                s = stieltjes_measure_sequence(rng, alpha, 1, length, n_atoms=n_atoms)
            _check_stieltjes_interval(s, alpha)


def test_canonical_representative_laws_hold_for_both_moment_problems():
    rng = np.random.default_rng(818)
    for i in range(200):
        q = 2 + (i % 2)
        n = 1 + ((i // 2) % 2)
        extendable = i < 100
        if extendable:
            s = hamburger_measure_sequence(rng, q, 2 * n + 1)
        else:
            s = nonextendable_hamburger(rng, q, n)
        c = canonical_rep(s)
        last, given = c[2 * n], s[2 * n]
        scale = max(1.0, frobenius(given))
        assert frobenius(canonical_rep(c)[2 * n] - last) <= 1e-8 * scale
        assert is_hnnde(c)
        assert same_class(s, c)
        r_hits_given = frobenius(r_upper(s, n) - given) <= 1e-8 * scale
        assert r_hits_given == is_hnnde(s) == extendable
        if extendable:
            # s itself is an extendable member of its class, so by
            # uniqueness the canonical representative must reproduce it
            assert frobenius(last - given) <= 1e-8 * scale
        else:
            other = hamburger_class_member(rng, s)
            assert other is not None
            assert same_class(s, other) and not is_hnnde(other)
    for i in range(200):
        q = 2 + (i % 2)
        m = 1 + (i % 4)
        alpha = ALPHAS[i % 3]
        extendable = i < 100
        if extendable:
            s = stieltjes_measure_sequence(rng, alpha, q, m + 1)
        else:
            s = nonextendable_stieltjes(rng, alpha, q, m)
        c = canonical_rep_stieltjes(s, alpha)
        last, given = c[m], s[m]
        scale = max(1.0, frobenius(given))
        assert frobenius(canonical_rep_stieltjes(c, alpha)[m] - last) <= 1e-8 * scale
        assert is_knnde(c, alpha)
        assert same_class_stieltjes(s, c, alpha)
        r_hits_given = frobenius(r_upper_stieltjes(s, alpha, m) - given) <= 1e-8 * scale
        assert r_hits_given == is_knnde(s, alpha) == extendable
        if extendable:
            assert frobenius(last - given) <= 1e-8 * scale
        else:
            other = stieltjes_class_member(rng, s, alpha)
            assert other is not None
            assert same_class_stieltjes(s, other, alpha) and not is_knnde(other, alpha)


def test_exact_measure_moments_lie_in_both_interval_bounds():
    rng = np.random.default_rng(819)
    for i in range(20):
        q = 1 + (i % 3)
        n = 1 + (i % 2)
        s = hamburger_measure_sequence(rng, q, 2 * n + 1)
        bigger = s[2 * n] + random_psd(rng, q, int(rng.integers(0, q + 1)))
        s_mod = s.with_last(bigger)
        assert in_extension_interval(s_mod, s[2 * n], bound="given_s2n")
        assert in_extension_interval(s_mod, s[2 * n], bound="r_upper")
    for i in range(24):
        q = 1 + (i % 3)
        m = 1 + (i % 4)
        alpha = ALPHAS[i % 3]
        s = stieltjes_measure_sequence(rng, alpha, q, m + 1)
        bigger = s[m] + random_psd(rng, q, int(rng.integers(0, q + 1)))
        s_mod = s.with_last(bigger)
        assert in_extension_interval_stieltjes(s_mod, alpha, s[m], bound="given_sm")
        assert in_extension_interval_stieltjes(s_mod, alpha, s[m], bound="r_upper")


GOLDEN_RUNS = [
    (("schur", "schur_in.json"), "schur_out.json"),
    (("classify", "seq_101.json"), "classify_hamburger_out.json"),
    (("classify", "seq_111_alpha0.json"), "classify_stieltjes_out.json"),
    (("interval", "seq_001.json", "--last", "last_half.json"), "interval_given_out.json"),
    (
        ("interval", "seq_001.json", "--last", "last_half.json", "--bound", "canonical"),
        "interval_canonical_out.json",
    ),
    (("class-test", "seq_001.json", "seq_005.json"), "class_test_same_out.json"),
    (("class-test", "seq_101.json", "seq_102.json"), "class_test_diff_out.json"),
]


def test_cli_golden_reports_are_reproduced_and_exit_codes_hold(tmp_path):
    for args, expected in GOLDEN_RUNS:
        full = [args[0]] + [str(GOLDEN / a) if a.endswith(".json") else a for a in args[1:]]
        result = subprocess.run(
            [sys.executable, "-m", "momentschur", *full], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN / expected).read_text()
    rerun = subprocess.run(
        [sys.executable, "-m", "momentschur", "schur", str(GOLDEN / "schur_in.json")],
        capture_output=True,
        text=True,
    )
    assert rerun.stdout == (GOLDEN / "schur_out.json").read_text()

    def exit_code(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            return cli_main(argv)

    def seq_file(name, blocks, q=1):
        path = tmp_path / name
        path.write_text(json.dumps({"q": q, "blocks": blocks}))
        return str(path)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    indefinite = seq_file("indefinite.json", [[[1]], [[2]], [[1]]])
    psd = seq_file("psd.json", [[[0]], [[0]], [[1]]])
    even = seq_file("even.json", [[[1]], [[0]]])
    eye = [[1, 0], [0, 1]]
    zero = [[0, 0], [0, 0]]
    wide = seq_file("wide.json", [eye, zero, eye], q=2)
    scalar_last = tmp_path / "scalar_last.json"
    scalar_last.write_text("[[0]]")
    eye_last = tmp_path / "eye_last.json"
    eye_last.write_text(json.dumps(eye))
    skew_last = tmp_path / "skew_last.json"
    skew_last.write_text("[[0, 1], [0, 0]]")

    assert exit_code(["classify", str(bad)]) == 2
    assert exit_code(["interval", indefinite, "--last", str(scalar_last)]) == 3
    assert exit_code(["interval", psd, "--last", str(eye_last)]) == 4
    assert exit_code(["classify", even]) == 5
    assert exit_code(["interval", wide, "--last", str(skew_last)]) == 6
    assert exit_code(["class-test", psd, wide]) == 7
