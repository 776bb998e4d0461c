"""Tests for the half-line (alpha-Stieltjes) moment machinery."""

import numpy as np
import pytest

from conftest import (
    nonextendable_stieltjes,
    stieltjes_class_member,
    stieltjes_measure_sequence,
)

from momentschur import (
    DimensionMismatch,
    MomentSequence,
    NotHermitian,
    NotKNND,
    ShapeMismatch,
    TooShort,
    alpha_shift,
    canonical_rep_stieltjes,
    classify_stieltjes,
    in_extension_interval_stieltjes,
    is_knnd,
    is_knnde,
    kappa,
    loewner_leq,
    r_upper_stieltjes,
    same_class_stieltjes,
    u_lower,
)
from momentschur.hamburger import Tower
from momentschur.linalg import frobenius

ALPHAS = (-1.0, 0.0, 2.0)


class TestAlphaShift:
    def test_zero_alpha_drops_head(self):
        shifted = alpha_shift([1, 2, 5], 0.0)
        np.testing.assert_allclose(shifted[0], [[2.0]])
        np.testing.assert_allclose(shifted[1], [[5.0]])

    def test_scalar_example(self):
        shifted = alpha_shift([1, 2, 5], 1.0)
        np.testing.assert_allclose(shifted[0], [[1.0]])  # -1 + 2
        np.testing.assert_allclose(shifted[1], [[3.0]])  # -2 + 5

    def test_zero_sequence(self):
        shifted = alpha_shift([0, 0, 0], 3.0)
        assert frobenius(shifted[0]) == 0 and frobenius(shifted[1]) == 0

    def test_too_short(self):
        with pytest.raises(TooShort):
            alpha_shift([1], 0.0)

    @pytest.mark.parametrize(
        "alpha", [0.5, 1, True, np.float32(0.5), np.longdouble(0.5), 0.5 + 0j, np.array(0.5)]
    )
    def test_a_shift_is_a_complex128_stack_for_every_alpha_type(self, alpha):
        s = stieltjes_measure_sequence(np.random.default_rng(3), 0.5, 2, 4)
        shifted = alpha_shift(s, alpha)
        expected = MomentSequence([-alpha * s[j] + s[j + 1] for j in range(3)])
        assert shifted.stack.dtype == complex and not shifted.stack.flags.writeable
        assert shifted.stack.tobytes() == expected.stack.tobytes()

    def test_an_alpha_that_reshapes_the_blocks_is_refused(self):
        with pytest.raises(DimensionMismatch):
            alpha_shift([1, 2, 5], np.full((1, 1, 1, 1), 0.5))
        with pytest.raises(ShapeMismatch):
            alpha_shift([1, 2, 5], np.full((1, 1, 2), 0.5))


class TestIsKnnd:
    def test_scalar_verdicts(self):
        assert is_knnd([1, 1], 0.0)
        assert not is_knnd([1, -1], 0.0)
        assert is_knnd([1, 1, 1], 0.0)

    def test_single_block(self):
        assert is_knnd([2], 5.0)
        assert not is_knnd([-2], 5.0)

    def test_alpha_matters(self):
        # moments of a point mass at 1: fine for alpha <= 1, not for alpha = 2
        s = [1, 1, 1, 1]
        assert is_knnd(s, 1.0)
        assert not is_knnd(s, 2.0)

    def test_measure_sequences(self):
        rng = np.random.default_rng(109)
        for alpha in ALPHAS:
            for length in (1, 2, 3, 4, 5):
                s = stieltjes_measure_sequence(rng, alpha, int(rng.integers(1, 4)), length)
                assert is_knnd(s, alpha)


class TestKappaAndU:
    def test_u_base_is_zero(self):
        np.testing.assert_allclose(u_lower([1, 1], 0.0, -1), [[0.0]])

    def test_scalar_tower(self):
        # point mass at 1, alpha = 0: kappa = (1, 1, 0), u = (0, 0, 1)
        s = [1, 1, 1]
        np.testing.assert_allclose(kappa(s, 0.0, 0), [[1.0]])
        np.testing.assert_allclose(kappa(s, 0.0, 1), [[1.0]])  # mass of the shift
        np.testing.assert_allclose(kappa(s, 0.0, 2), [[0.0]])  # one atom: L_1 = 0
        np.testing.assert_allclose(u_lower(s, 0.0, 0), [[0.0]])
        np.testing.assert_allclose(u_lower(s, 0.0, 1), [[1.0]])

    def test_kappa_identity(self):
        # kappa_j = s_j - u_{j-1} for measure-built sequences
        rng = np.random.default_rng(113)
        for alpha in ALPHAS:
            s = stieltjes_measure_sequence(rng, alpha, 2, 5)
            for j in range(len(s)):
                lhs = kappa(s, alpha, j)
                rhs = s[j] - u_lower(s, alpha, j - 1)
                np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(1.0, frobenius(s[j])))

    def test_index_bounds(self):
        from momentschur import IndexOutOfRange

        with pytest.raises(IndexOutOfRange):
            kappa([1, 1], 0.0, 3)
        with pytest.raises(IndexOutOfRange):
            u_lower([1, 1], 0.0, -2)


class TestIsKnnde:
    def test_scalar_verdicts(self):
        assert is_knnde([1, 1], 0.0)
        assert is_knnde([1, 1, 1], 0.0)
        assert not is_knnde([0, 0, 1], 0.0)
        assert is_knnde([1, 0], 0.0)

    def test_base_case(self):
        assert is_knnde([3], -1.0)
        assert not is_knnde([-3], -1.0)

    def test_measure_sequences_always_extendable(self):
        rng = np.random.default_rng(127)
        for alpha in ALPHAS:
            for _ in range(5):
                q = int(rng.integers(1, 4))
                length = int(rng.integers(1, 7))
                s = stieltjes_measure_sequence(rng, alpha, q, length)
                assert is_knnde(s, alpha)

    def test_constructed_nonextendable(self):
        rng = np.random.default_rng(131)
        for alpha in ALPHAS:
            for m in (1, 2, 3):
                s = nonextendable_stieltjes(rng, alpha, 3, m)
                assert is_knnd(s, alpha)
                assert not is_knnde(s, alpha)


class TestRUpperStieltjes:
    def test_base_is_s0(self):
        np.testing.assert_allclose(r_upper_stieltjes([4, 1], 0.0, 0), [[4.0]])

    def test_scalar_values(self):
        np.testing.assert_allclose(r_upper_stieltjes([1, 1, 1], 0.0, 2), [[1.0]])
        np.testing.assert_allclose(r_upper_stieltjes([0, 0, 1], 0.0, 2), [[0.0]])

    def test_requires_knnd(self):
        with pytest.raises(NotKNND):
            r_upper_stieltjes([1, -1], 0.0, 1)

    def test_chain_on_measures(self):
        rng = np.random.default_rng(137)
        for alpha in ALPHAS:
            for m in (1, 2, 3):
                s = stieltjes_measure_sequence(rng, alpha, 2, m + 1)
                R = r_upper_stieltjes(s, alpha, m)
                assert loewner_leq(u_lower(s, alpha, m - 1), R)
                assert loewner_leq(R, s[m])

    def test_equals_last_block_iff_extendable(self):
        rng = np.random.default_rng(139)
        s = stieltjes_measure_sequence(rng, 2.0, 2, 4)
        np.testing.assert_allclose(r_upper_stieltjes(s, 2.0, 3), s[3], atol=1e-8)
        bad = nonextendable_stieltjes(rng, 2.0, 2, 3)
        assert frobenius(r_upper_stieltjes(bad, 2.0, 3) - bad[3]) > 1e-6


class TestCanonicalRepStieltjes:
    def test_idempotent_and_extendable(self):
        rng = np.random.default_rng(149)
        for alpha in ALPHAS:
            s = nonextendable_stieltjes(rng, alpha, 2, 2)
            c = canonical_rep_stieltjes(s, alpha)
            assert is_knnde(c, alpha)
            cc = canonical_rep_stieltjes(c, alpha)
            for j in range(len(c)):
                np.testing.assert_allclose(cc[j], c[j], atol=1e-9)
            assert same_class_stieltjes(s, c, alpha)


class TestIntervalStieltjes:
    def test_lower_endpoint_always_member(self):
        rng = np.random.default_rng(151)
        for alpha in ALPHAS:
            s = stieltjes_measure_sequence(rng, alpha, 2, 3)
            t0 = u_lower(s, alpha, s.kappa - 1)
            assert in_extension_interval_stieltjes(s, alpha, t0, bound="given_sm")
            assert in_extension_interval_stieltjes(s, alpha, t0, bound="r_upper")

    def test_scalar_001(self):
        assert in_extension_interval_stieltjes([0, 0, 1], 0.0, 1.0, bound="given_sm")
        assert not in_extension_interval_stieltjes([0, 0, 1], 0.0, 1.0, bound="r_upper")
        assert in_extension_interval_stieltjes([0, 0, 1], 0.0, 0.0, bound="r_upper")

    def test_errors(self):
        with pytest.raises(NotKNND):
            in_extension_interval_stieltjes([1, -1], 0.0, 0.0)
        with pytest.raises(DimensionMismatch):
            in_extension_interval_stieltjes([1, 1], 0.0, np.eye(2))
        s = MomentSequence([np.eye(2)] * 2)
        with pytest.raises(NotHermitian):
            in_extension_interval_stieltjes(s, 0.0, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            in_extension_interval_stieltjes([1, 1], 0.0, 1.0, bound="middle")


class TestSameClassStieltjes:
    def test_reflexive(self):
        assert same_class_stieltjes([1, 1, 1], [1, 1, 1], 0.0)

    def test_scalar_verdicts(self):
        assert same_class_stieltjes([0, 0, 1], [0, 0, 5], 0.0)
        assert not same_class_stieltjes([1, 1, 1], [1, 1, 2], 0.0)

    def test_shape_and_length_checks(self):
        with pytest.raises(ShapeMismatch):
            same_class_stieltjes([1, 1], [1, 1, 1], 0.0)
        with pytest.raises(TooShort):
            same_class_stieltjes([1], [1], 0.0)

    def test_last_block_below_r_upper(self):
        # r_m - R_m = -I/2 is not PSD, and its range is all of C^2
        s = stieltjes_measure_sequence(np.random.default_rng(31), 0.5, 2, 4, n_atoms=2)
        r = s.with_last(r_upper_stieltjes(s, 0.5, 3) - 0.5 * np.eye(2))
        assert Tower(s, None, 0.5).conditions(r) == (True, False, False)
        assert not same_class_stieltjes(s, r, 0.5)

    def test_members_and_canonical_route(self):
        rng = np.random.default_rng(157)
        for alpha in ALPHAS:
            s = nonextendable_stieltjes(rng, alpha, 3, 2)
            r = stieltjes_class_member(rng, s, alpha, eps=0.8)
            assert r is not None
            assert same_class_stieltjes(s, r, alpha)
            assert same_class_stieltjes(r, s, alpha)
            cs = canonical_rep_stieltjes(s, alpha)
            cr = canonical_rep_stieltjes(r, alpha)
            for j in range(len(cs)):
                np.testing.assert_allclose(cr[j], cs[j], atol=1e-8)


class TestClassifyStieltjes:
    def test_scalar_report(self):
        rep = classify_stieltjes([1, 1, 1], 0.0)
        assert (rep.q, rep.m, rep.alpha) == (1, 2, 0.0)
        assert rep.is_knnd and rep.is_knnde
        # kappa_0..kappa_m and u_{-1}..u_{m-1}
        assert len(rep.kappa) == 3 and len(rep.u) == 3
        np.testing.assert_allclose(rep.kappa[0], [[1.0]])
        np.testing.assert_allclose(rep.kappa[2], [[0.0]])
        np.testing.assert_allclose(rep.u[0], [[0.0]])
        np.testing.assert_allclose(rep.u[2], [[1.0]])
        np.testing.assert_allclose(rep.R, [[1.0]])

    def test_non_knnd_has_no_bound(self):
        rep = classify_stieltjes([1, -1], 0.0)
        assert not rep.is_knnd and not rep.is_knnde
        assert rep.R is None and rep.canonical is None

    def test_gram_weight_slack_keeps_r_above_last_block(self):
        # exact moments of three atoms on [0.5, oo) with Gram weights: the
        # slack kappa_5 is ~5e-3 at block scale ~450 and its range matches
        # ran kappa_4 only to rounding; R must still dominate s_5
        blocks = [
            [[5.225872311150071, -0.8405486388811644 + 0.11403138081522214j],
             [-0.8405486388811644 - 0.11403138081522214j, 3.37302203544356]],
            [[11.387833924167957, -2.689355873843738 - 0.6264753325780754j],
             [-2.689355873843738 + 0.6264753325780754j, 7.026334492655838]],
            [[25.427933087080792, -7.473000938392577 - 2.8677948327996807j],
             [-7.473000938392577 + 2.8677948327996807j, 15.760041903735871]],
            [[57.82589549049777, -19.477984120217275 - 8.918110016164665j],
             [-19.477984120217275 + 8.918110016164665j, 37.90566417568914]],
            [[133.27402735698394, -49.116378891503466 - 24.357439046515168j],
             [-49.116378891503466 + 24.357439046515168j, 96.85329101734183]],
            [[310.1730562674027, -121.70427837872894 - 62.5262372009483j],
             [-121.70427837872894 + 62.5262372009483j, 259.9508759284961]],
        ]
        rep = classify_stieltjes([np.array(b) for b in blocks], 0.5)
        assert rep.is_knnd and rep.is_knnde
        assert loewner_leq(blocks[5], rep.R)
