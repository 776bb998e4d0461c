"""Tests for the block-Hankel moment machinery (whole-line case)."""

import numpy as np
import pytest

from conftest import (
    hamburger_class_member,
    hamburger_measure_sequence,
    nonextendable_hamburger,
)

from momentschur import (
    DimensionMismatch,
    IndexOutOfRange,
    MomentSequence,
    NotHermitian,
    NotHNND,
    OddOrderUnsupported,
    ShapeMismatch,
    TooShort,
    block_hankel,
    canonical_rep,
    classify_hamburger,
    in_extension_interval,
    is_hnnd,
    is_hnnde,
    l_matrix,
    loewner_leq,
    r_upper,
    same_class,
    theta,
    y_block,
    z_block,
)
from momentschur.hamburger import Tower
from momentschur.linalg import frobenius


class TestMomentSequence:
    def test_scalar_entries_become_blocks(self):
        s = MomentSequence([1, 0, 1])
        assert s.q == 1
        assert s.kappa == 2
        assert len(s) == 3
        np.testing.assert_allclose(s[0], [[1.0]])

    def test_prefix_and_edits(self):
        s = MomentSequence([1, 2, 3])
        assert s.prefix(2).kappa == 1
        np.testing.assert_allclose(s.with_last(9)[2], [[9.0]])
        assert s.appended(4).kappa == 3

    def test_index_out_of_range(self):
        s = MomentSequence([1, 0, 1])
        with pytest.raises(IndexOutOfRange):
            s[3]
        with pytest.raises(IndexOutOfRange):
            s.prefix(0)
        with pytest.raises(IndexOutOfRange):
            block_hankel(s, -1)
        with pytest.raises(IndexOutOfRange):
            theta(s, -1)

    def test_empty_rejected(self):
        with pytest.raises(TooShort):
            MomentSequence([])

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeMismatch):
            MomentSequence([np.ones((2, 3))])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ShapeMismatch):
            MomentSequence([np.eye(2), np.eye(3)])

    def test_blocks_read_only(self):
        s = MomentSequence([np.eye(2)])
        with pytest.raises(ValueError):
            s[0][0, 0] = 7.0
        # every sequence, a prefix or a joined one too, hands out views of
        # its one stack, the same view of s_j on every call
        for seq in (s, s.appended(2 * np.eye(2)), s.appended(np.eye(2)).prefix(1)):
            for j, view in enumerate(seq):
                assert seq[j] is view and seq.blocks[j] is view
                assert np.shares_memory(view, seq.stack) and not view.flags.writeable


class TestBlockHankel:
    def test_scalar_101(self):
        np.testing.assert_allclose(block_hankel([1, 0, 1], 1), np.eye(2))

    def test_order_zero(self):
        np.testing.assert_allclose(block_hankel([5, 1, 2], 0), [[5.0]])

    def test_matrix_blocks(self):
        s = MomentSequence([np.eye(2), np.zeros((2, 2)), np.eye(2)])
        np.testing.assert_allclose(block_hankel(s, 1), np.eye(4))

    def test_needs_enough_blocks(self):
        with pytest.raises(IndexOutOfRange):
            block_hankel([1, 0, 1], 2)

    def test_y_and_z_blocks(self):
        s = MomentSequence([1, 2, 3])
        np.testing.assert_allclose(y_block(s, 1, 1), [[2.0]])
        np.testing.assert_allclose(y_block(s, 1, 2), [[2.0], [3.0]])
        np.testing.assert_allclose(z_block(s, 1, 2), [[2.0, 3.0]])
        np.testing.assert_allclose(z_block(s, 0, 2), y_block(s, 0, 2).T)
        with pytest.raises(IndexOutOfRange):
            y_block(s, 2, 1)


def _complex_sequence(q, length, seed):
    rng = np.random.default_rng([q, length, seed])
    shape = (length, q, q)
    return MomentSequence(list(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))


class TestHankelSections:
    """Gathers from the block stack against the explicit block layout."""

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("length", [1, 2, 5, 6])
    def test_match_explicit_construction(self, q, length):
        s = _complex_sequence(q, length, 0)
        for n in range(s.kappa // 2 + 1):
            H = np.vstack([np.hstack([s[j + k] for k in range(n + 1)]) for j in range(n + 1)])
            np.testing.assert_array_equal(block_hankel(s, n), H)
        for l in range(len(s)):
            for m in range(l, len(s)):
                strip = [s[j] for j in range(l, m + 1)]
                np.testing.assert_array_equal(y_block(s, l, m), np.vstack(strip))
                np.testing.assert_array_equal(z_block(s, l, m), np.hstack(strip))

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_results_are_fresh_and_writable(self, q):
        s = _complex_sequence(q, 5, 1)
        before = (block_hankel(s, 2), theta(s, 2), classify_hamburger(s))
        for out in (block_hankel(s, 0), block_hankel(s, 2), y_block(s, 0, 0),
                    y_block(s, 1, 4), z_block(s, 3, 3), z_block(s, 0, 4)):
            assert out.flags.writeable
            out[...] = 7.0
        after = (block_hankel(s, 2), theta(s, 2), classify_hamburger(s))
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])
        assert after[2].is_hnnd == before[2].is_hnnd
        np.testing.assert_array_equal(after[2].theta, before[2].theta)
        np.testing.assert_array_equal(after[2].L, before[2].L)


class TestThetaAndL:
    def test_theta_zero_at_base(self):
        np.testing.assert_allclose(theta([7, 1, 2], 0), [[0.0]])

    def test_theta_scalar_chains(self):
        # 0 * 1^+ * 0 = 0 and 1 * 1^+ * 1 = 1
        np.testing.assert_allclose(theta([1, 0, 1], 1), [[0.0]])
        np.testing.assert_allclose(theta([1, 1, 1], 1), [[1.0]])

    def test_theta_needs_blocks(self):
        with pytest.raises(IndexOutOfRange):
            theta([1, 0], 2)

    def test_l_scalar_values(self):
        np.testing.assert_allclose(l_matrix([1, 0, 1], 1), [[1.0]])
        np.testing.assert_allclose(l_matrix([0, 0, 1], 1), [[1.0]])
        np.testing.assert_allclose(l_matrix([3, 1, 1], 0), [[3.0]])

    def test_theta_total_on_non_nnd_input(self):
        # formula stays defined even when the sequence is not nonneg definite
        np.testing.assert_allclose(theta([1, 2, 1], 1), [[4.0]])


class TestIsHnnd:
    def test_scalar_verdicts(self):
        assert is_hnnd([1, 0, 1])
        assert not is_hnnd([1, 2, 1])  # det H_1 = -3
        assert is_hnnd([0, 0, 0])

    def test_even_length_rejected(self):
        with pytest.raises(OddOrderUnsupported):
            is_hnnd([1, 0])


class TestIsHnnde:
    def test_scalar_verdicts(self):
        assert is_hnnde([1, 0, 1])
        assert not is_hnnde([0, 0, 1])  # L_1 = 1 but L_0 = 0
        assert is_hnnde([0, 0, 0])

    def test_base_case(self):
        assert is_hnnde([1])
        assert not is_hnnde([-1])

    def test_even_lengths(self):
        assert is_hnnde([1, 0])
        # s_0 = 0 admits no continuation with s_1 = 1
        assert not is_hnnde([0, 1])

    def test_measure_sequences_always_extendable(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            q = int(rng.integers(1, 4))
            length = int(rng.integers(1, 8))
            s = hamburger_measure_sequence(rng, q, length)
            assert is_hnnde(s)
            if length % 2 == 1:
                assert is_hnnd(s)

    def test_constructed_nonextendable(self):
        rng = np.random.default_rng(73)
        for n in (1, 2):
            s = nonextendable_hamburger(rng, 3, n)
            assert is_hnnd(s)
            assert not is_hnnde(s)


class TestToleranceFloor:
    """The absolute floor max(1, scale) of Tolerance.threshold is the contract.

    Above unit scale the cutoff grows with the data.  Below it the cutoff
    stays eps_rel while the data shrinks: these sequences keep their verdict
    down to c = 1e-9, and at c = 1e-12 every slack counts as zero.
    """

    @staticmethod
    def scaled(c, seed):
        s = nonextendable_hamburger(np.random.default_rng(seed), 2, 2)
        return MomentSequence([c * b for b in s])

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e12])
    def test_nonextendable_verdict_survives_scaling(self, c):
        assert not any(is_hnnde(self.scaled(c, seed)) for seed in range(20))

    def test_verdict_flips_far_below_unit_scale(self):
        # at c = 1e-12 every block is below the floor eps_rel = 1e-10
        assert all(is_hnnde(self.scaled(1e-12, seed)) for seed in range(20))


class TestRUpper:
    def test_base_is_s0(self):
        np.testing.assert_allclose(r_upper([3, 1, 1], 0), [[3.0]])

    def test_scalar_values(self):
        np.testing.assert_allclose(r_upper([1, 0, 1], 1), [[1.0]])
        np.testing.assert_allclose(r_upper([0, 0, 1], 1), [[0.0]])

    def test_requires_nnd(self):
        with pytest.raises(NotHNND):
            r_upper([1, 2, 1], 1)

    def test_chain_on_measures(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            q = int(rng.integers(1, 4))
            n = int(rng.integers(1, 3))
            s = hamburger_measure_sequence(rng, q, 2 * n + 1)
            R = r_upper(s, n)
            assert loewner_leq(theta(s, n), R)
            assert loewner_leq(R, s[2 * n])

    def test_equals_last_block_iff_extendable(self):
        rng = np.random.default_rng(83)
        s = hamburger_measure_sequence(rng, 2, 5)
        np.testing.assert_allclose(r_upper(s, 2), s[4], atol=1e-8)
        bad = nonextendable_hamburger(rng, 2, 2)
        assert frobenius(r_upper(bad, 2) - bad[4]) > 1e-6

    def test_argument_errors_in_order(self):
        s = hamburger_measure_sequence(np.random.default_rng(17), 2, 5, n_atoms=2)
        with pytest.raises(ValueError, match="^eps_rel must be positive$"):
            r_upper(s, 3, -1.0)
        with pytest.raises(IndexOutOfRange, match=r"^r_upper\(3\) needs blocks up to 6$"):
            r_upper(s, 3)
        with pytest.raises(IndexOutOfRange, match=r"^prefix length -1 outside 1\.\.5$"):
            r_upper(s, -1)


class TestCanonicalRep:
    def test_scalar_values(self):
        c = canonical_rep([0, 0, 1])
        np.testing.assert_allclose(c[2], [[0.0]])
        c = canonical_rep([1, 0, 1])
        np.testing.assert_allclose(c[2], [[1.0]])

    def test_idempotent_and_extendable(self):
        rng = np.random.default_rng(89)
        for q, n in [(2, 1), (3, 2)]:
            s = nonextendable_hamburger(rng, q, n)
            c = canonical_rep(s)
            assert is_hnnde(c)
            cc = canonical_rep(c)
            for j in range(len(c)):
                np.testing.assert_allclose(cc[j], c[j], atol=1e-9)

    def test_same_class_with_input(self):
        rng = np.random.default_rng(97)
        s = nonextendable_hamburger(rng, 2, 1)
        assert same_class(s, canonical_rep(s))


class TestInExtensionInterval:
    def test_lower_endpoint_always_member(self):
        rng = np.random.default_rng(101)
        s = hamburger_measure_sequence(rng, 2, 3)
        t0 = theta(s, 1)
        assert in_extension_interval(s, t0, bound="given_s2n")
        assert in_extension_interval(s, t0, bound="r_upper")

    def test_scalar_001(self):
        assert in_extension_interval([0, 0, 1], 1.0, bound="given_s2n")
        assert not in_extension_interval([0, 0, 1], 1.0, bound="r_upper")
        assert in_extension_interval([0, 0, 1], 0.0, bound="r_upper")

    def test_candidate_must_be_hermitian(self):
        s = MomentSequence([np.eye(2)] * 3)
        with pytest.raises(NotHermitian):
            in_extension_interval(s, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_candidate_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            in_extension_interval([1, 0, 1], np.eye(2))

    def test_reference_must_be_nnd(self):
        with pytest.raises(NotHNND):
            in_extension_interval([1, 2, 1], 0.0)

    def test_even_length_rejected(self):
        with pytest.raises(OddOrderUnsupported):
            in_extension_interval([1, 0], 0.0)

    def test_unknown_bound(self):
        with pytest.raises(ValueError):
            in_extension_interval([1, 0, 1], 0.5, bound="middle")


class TestSameClass:
    def test_reflexive(self):
        assert same_class([1, 0, 1], [1, 0, 1])

    def test_scalar_verdicts(self):
        assert same_class([0, 0, 1], [0, 0, 5])
        assert not same_class([1, 0, 1], [1, 0, 2])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            same_class([1, 0, 1], [1, 0, 1, 0, 1])
        with pytest.raises(ShapeMismatch):
            same_class(MomentSequence([1, 0, 1]), MomentSequence([np.eye(2)] * 3))

    def test_too_short(self):
        with pytest.raises(TooShort):
            same_class([1], [1])

    def test_last_block_below_r_upper(self):
        # r_2n - R_n = -I/2 is not PSD, and its range is all of C^2
        s = hamburger_measure_sequence(np.random.default_rng(31), 2, 5, n_atoms=2)
        r = s.with_last(r_upper(s, 2) - 0.5 * np.eye(2))
        assert Tower(s).conditions(r) == (True, False, False)
        assert not same_class(s, r)

    def test_class_members_form_equivalence(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            s = nonextendable_hamburger(rng, 3, 1)
            r1 = hamburger_class_member(rng, s, eps=0.7)
            r2 = hamburger_class_member(rng, s, eps=1.9)
            assert r1 is not None and r2 is not None
            assert same_class(s, r1) and same_class(r1, s)
            assert same_class(r1, r2) and same_class(r2, r1)

    def test_agrees_with_canonical_route(self):
        # dual route: same class <=> equal canonical representatives
        rng = np.random.default_rng(107)
        for _ in range(5):
            s = nonextendable_hamburger(rng, 2, 1)
            r = hamburger_class_member(rng, s, eps=1.3)
            assert r is not None
            cs, cr = canonical_rep(s), canonical_rep(r)
            agree = all(
                frobenius(cs[j] - cr[j]) <= 1e-8 * max(1.0, frobenius(cs[j]))
                for j in range(len(cs))
            )
            assert same_class(s, r) == agree
            other = hamburger_measure_sequence(rng, 2, 3)
            distinct = s.with_last(other[2] + s[2] + np.eye(2))
            cs2 = canonical_rep(distinct)
            agree2 = all(
                frobenius(cs[j] - cs2[j]) <= 1e-8 * max(1.0, frobenius(cs[j]))
                for j in range(len(cs))
            )
            assert same_class(s, distinct) == agree2


class TestClassifyReport:
    def test_extendable_scalar(self):
        rep = classify_hamburger([1, 0, 1])
        assert (rep.q, rep.n) == (1, 1)
        assert rep.is_hnnd and rep.is_hnnde
        np.testing.assert_allclose(rep.theta, [[0.0]])
        np.testing.assert_allclose(rep.L, [[1.0]])
        np.testing.assert_allclose(rep.L_prev, [[1.0]])
        np.testing.assert_allclose(rep.R, [[1.0]])
        np.testing.assert_allclose(rep.canonical[2], [[1.0]])

    def test_non_nnd_scalar_has_no_bound(self):
        rep = classify_hamburger([1, 2, 1])
        assert not rep.is_hnnd and not rep.is_hnnde
        assert rep.R is None and rep.canonical is None
        np.testing.assert_allclose(rep.theta, [[4.0]])
        np.testing.assert_allclose(rep.L, [[-3.0]])

    def test_order_zero(self):
        rep = classify_hamburger([2])
        assert rep.n == 0
        assert rep.L_prev is None
        np.testing.assert_allclose(rep.R, [[2.0]])
