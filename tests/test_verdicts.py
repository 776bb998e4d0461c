"""Verdicts agree: an extendable sequence is nonnegative definite.

Extendability is nonnegative definiteness plus the range condition on the
last slack, so ``is_hnnde`` implies ``is_hnnd`` and ``is_knnde`` implies
``is_knnd`` on every input, rounding included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hamburger_measure_sequence, stieltjes_measure_sequence

import momentschur as M

EPSILONS = (1e-9, 1e-8, 1e-7)


def verdicts(s, alpha):
    """(extendable, nonnegative definite) of s on the line (alpha None) or on [alpha, oo)."""
    if alpha is None:
        return M.is_hnnde(s), M.is_hnnd(s)
    return M.is_knnde(s, alpha), M.is_knnd(s, alpha)


def perturbed(rng, s):
    """(eps, s with eps ||s_m||_F E taken off its last block) for each eps in
    EPSILONS, a fresh symmetric E drawn from rng for each."""
    last = s[s.kappa]
    for eps in EPSILONS:
        E = rng.standard_normal((s.q, s.q))
        yield eps, s.with_last(last - eps * np.linalg.norm(last) * (E + E.T))


def stieltjes_draw(seed, length=None):
    """rng, alpha and a q = 2 measure sequence on [alpha, oo), drawn from seed;
    ``length``, if given, replaces the drawn length."""
    rng = np.random.default_rng(seed)
    alpha = float(rng.choice([-1, -0.5, 0.5, 1]))
    drawn = int(rng.integers(6, 15))
    atoms = int(rng.integers(1, 6))
    return rng, alpha, stieltjes_measure_sequence(rng, alpha, 2, length or drawn, n_atoms=atoms)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(alpha=st.sampled_from([None, -1.0, -0.5, 0.5, 1.0]), length=st.integers(6, 14),
       atoms=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_extendable_implies_nonnegative_definite_near_measure_moments(alpha, length, atoms, seed):
    rng = np.random.default_rng(seed)
    if alpha is None:
        s = hamburger_measure_sequence(rng, 2, length | 1, n_atoms=atoms)
    else:
        s = stieltjes_measure_sequence(rng, alpha, 2, length, n_atoms=atoms)
    for eps, p in perturbed(rng, s):
        extendable, nnd = verdicts(p, alpha)
        assert nnd or not extendable, eps


@pytest.mark.parametrize("seed, eps", [([345, 27], 1e-9), ([203, 27], 1e-8), ([283, 27], 1e-7)])
def test_a_perturbed_last_block_that_breaks_nnd_breaks_extendability(seed, eps):
    rng, alpha, s = stieltjes_draw(seed)
    p = dict(perturbed(rng, s))[eps]
    assert verdicts(p, alpha) == (False, False)


@pytest.mark.parametrize("length", [13, 14])
def test_exact_moments_whose_last_slack_vanishes_are_extendable(length):
    # five atoms of rank at most 2: from m = 8 on kappa_m is rounding noise,
    # and from m = 12 on it lies within the noise band, so its clip is 0 and
    # the range condition holds, though at lower levels it does not
    _, alpha, s = stieltjes_draw([16, 28], length)
    assert verdicts(s, alpha) == (True, True)
