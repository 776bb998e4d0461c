"""Operations and output checks of the `hamburger` and `stieltjes` workloads.

One case is one moment sequence with everything the checks need, derived
from its construction.  It yields the user-level workflow on that sequence:
classify it, test four candidate last blocks against both upper bounds, and
run the class test against the canonical representative and against a
second sequence whose verdict is known by construction.
"""

from __future__ import annotations

import numpy as np

import gen
from ops import CheckFailed, Op, expect

# the checks' own tolerance, relative to the largest block: loose enough for
# rounding in the program and in the reference, far below every margin that
# a verdict below depends on
CHECK_RTOL = 1e-7
# candidate blocks lie this far (relative) outside an interval endpoint
MARGIN = 1e-3


class Path:
    """The names that differ between the one-tower and the two-tower analysis."""

    def __init__(self, mode, classify, interval, same, given, nnd, nnde):
        self.mode = mode
        self.classify = classify
        self.interval = interval
        self.same = same
        self.given = given
        self.nnd = nnd
        self.nnde = nnde


HAMBURGER = Path("hamburger", "classify_hamburger", "in_extension_interval",
                 "same_class", "given_s2n", "is_hnnd", "is_hnnde")
STIELTJES = Path("stieltjes", "classify_stieltjes", "in_extension_interval_stieltjes",
                 "same_class_stieltjes", "given_sm", "is_knnd", "is_knnde")


class Case:
    """A sequence, its lowest admissible last block and the tight upper one.

    ``lower`` is Theta_n (Hamburger) or u_{m-1} (Stieltjes); ``upper`` is R,
    which equals the given last block exactly when the sequence is
    extendable.  ``slack_zero`` says the last slack (L_n or kappa_m) is 0
    by construction; ``prev_slack`` is the slack one level down, or None
    when it is 0 by construction.
    """

    def __init__(self, path, blocks, alpha, extendable, lower, slack_zero, prev_slack):
        self.path = path
        self.blocks = blocks
        self.alpha = alpha
        self.extendable = extendable
        self.last = blocks[-1]
        self.lower = lower
        self.upper = self.last if extendable else lower
        self.slack_zero = slack_zero
        self.prev_slack = prev_slack
        self.scale = max(1.0, max(float(np.linalg.norm(b)) for b in blocks))
        self.tol = CHECK_RTOL * self.scale
        q = blocks[0].shape[0]
        H = gen.hankel(blocks, (len(blocks) - 1) // 2)
        if not gen.psd(H, 1e-9 * self.scale):
            raise ValueError("construction broken: Hankel matrix not PSD")
        if alpha is not None and len(blocks) > 1:
            Hs = gen.hankel(gen.shifted(blocks, alpha), (len(blocks) - 2) // 2)
            if not gen.psd(Hs, 1e-9 * self.scale):
                raise ValueError("construction broken: shifted Hankel matrix not PSD")
        self.eye = np.eye(q)


def hamburger_measure_case(rng, q, length, n_atoms):
    blocks = gen.hamburger_measure(rng, q, length, n_atoms)
    n = (length - 1) // 2
    lower = blocks[-1] if n >= n_atoms else gen.theta(blocks, n)
    prev = None if n - 1 >= n_atoms else blocks[2 * n - 2] - gen.theta(blocks, n - 1)
    return Case(HAMBURGER, blocks, None, True, lower, n >= n_atoms, prev)


def hamburger_nonextendable_case(rng, q, length):
    blocks, lower, _ = gen.nonextendable(rng, q, length, -2.0, 2.0)
    return Case(HAMBURGER, blocks, None, False, lower, False, None)


def stieltjes_measure_case(rng, alpha, q, length, n_atoms):
    blocks = gen.stieltjes_measure(rng, alpha, q, length, n_atoms)
    m = length - 1
    lower = blocks[-1] if m // 2 >= n_atoms else gen.u_lower(blocks, alpha, m - 1)
    prev = None
    if (m - 1) // 2 < n_atoms:
        prev = blocks[m - 1] - gen.u_lower(blocks, alpha, m - 2)
    return Case(STIELTJES, blocks, alpha, True, lower, m // 2 >= n_atoms, prev)


def stieltjes_nonextendable_case(rng, alpha, q, length):
    blocks, lower, _ = gen.nonextendable(rng, q, length, alpha + 0.3, alpha + 2.0)
    return Case(STIELTJES, blocks, alpha, False, lower, False, None)


def _close(A, B, tol, what):
    err = float(np.linalg.norm(np.asarray(A) - np.asarray(B)))
    expect(err <= tol, f"{what} off by {err:.3e} (tolerance {tol:.1e})")


def check_report(case, rep):
    """Judge a classify report against the construction.

    F1: the program raised NotPSD on a sequence whose Hankel matrices are PSD
    by construction.  F2: it called the exact moments of a measure not
    extendable.  F3: it called them extendable but reported an upper end R
    below their own last block.  These are returned as fault names; every
    other disagreement raises CheckFailed.
    """
    if isinstance(rep, BaseException):
        if type(rep).__name__ in ("NotPSD", "NotHNND", "NotKNND"):
            return "F1"
        raise CheckFailed(f"{case.path.classify} raised {type(rep).__name__}: {rep}")
    p = case.path
    expect(getattr(rep, p.nnd) is True, f"{p.nnd} is not True on a nonnegative definite sequence")
    if case.extendable and getattr(rep, p.nnde) is not True:
        return "F2"
    if not case.extendable:
        expect(getattr(rep, p.nnde) is False, f"{p.nnde} is not False on a non-extendable sequence")
    tol = case.tol
    if p is HAMBURGER:
        lower, last_slack = rep.theta, rep.L
    else:
        lower, last_slack = rep.u[-1], rep.kappa[-1]
    expect(rep.R is not None and rep.canonical is not None, "no upper bound reported")
    expect(gen.leq(lower, case.last, tol), "given last block is below the reported lower end")
    expect(gen.leq(lower, rep.R, tol), "reported lower end exceeds R")
    if case.extendable:
        if not gen.leq(case.last, rep.R, tol):
            return "F3"
    else:
        expect(gen.leq(rep.R, case.last, tol), "R exceeds the given last block")
        _close(rep.R, case.lower, tol, "R of a non-extendable sequence")
    if case.slack_zero:
        _close(last_slack, 0.0, tol, "last slack, zero by construction")
    canonical = list(rep.canonical)
    expect(len(canonical) == len(case.blocks), "canonical representative has the wrong length")
    expect(all(np.array_equal(a, b) for a, b in zip(canonical[:-1], case.blocks[:-1])),
           "canonical representative changes the prefix")
    expect(np.array_equal(canonical[-1], rep.R), "canonical last block is not R")
    return None


def _verdict_check(name, truth):
    def check(out):
        if isinstance(out, BaseException):
            raise CheckFailed(f"{name} raised {type(out).__name__}: {out}")
        expect(out is truth, f"{name} returned {out!r}, construction says {truth}")
        return None
    return check


def other_last_block(rng, case):
    """A last block for the second class test, and whether it stays in the class.

    R + c w w^H with w orthogonal to the range of the slack one level down is
    a class member; when that slack has full rank (or no clear-cut rank) no
    such w exists and R - delta I, which leaves the class, is used instead.
    """
    if case.prev_slack is None:
        w = gen.unit_vector(rng, len(case.eye))
    else:
        w = gen.clear_null_vector(rng, case.prev_slack, case.scale)
    if w is not None:
        return case.upper + 0.1 * case.scale * np.outer(w, w.conj()), True
    return case.upper - MARGIN * case.scale * case.eye, False


def classify_op(M, case):
    p = case.path
    s = M.MomentSequence(case.blocks)
    extra = () if case.alpha is None else (case.alpha,)
    return Op(f"{p.mode}.classify", lambda: getattr(M, p.classify)(s, *extra),
              lambda rep: check_report(case, rep))


def case_ops(M, rng, case):
    """The workflow on one case as a list of Ops; M is the package module."""
    p = case.path
    s = M.MomentSequence(case.blocks)
    alpha = case.alpha
    extra = () if alpha is None else (alpha,)
    delta = MARGIN * case.scale
    lower, last, eye = case.lower, case.last, case.eye
    ops = [classify_op(M, case)]

    candidates = (
        ("given", last, True, case.extendable),
        ("mid", 0.5 * (lower + last), True, case.extendable),
        ("above", last + delta * eye, False, False),
        ("below", lower - delta * eye, False, False),
    )
    for cname, T, in_given, in_canonical in candidates:
        for bound, truth in ((p.given, in_given), ("r_upper", in_canonical)):
            ops.append(Op(
                f"{p.mode}.interval",
                lambda T=T, bound=bound: getattr(M, p.interval)(s, *extra, T, bound),
                _verdict_check(f"interval {cname}/{bound}", truth),
            ))

    canonical = M.MomentSequence(case.blocks[:-1] + [case.upper])
    other_last, other_truth = other_last_block(rng, case)
    other = M.MomentSequence(case.blocks[:-1] + [other_last])
    same = lambda r: getattr(M, p.same)(s, r, *extra)
    ops.append(Op(f"{p.mode}.same_class", lambda: same(canonical),
                  _verdict_check("class test against the canonical representative", True)))
    ops.append(Op(f"{p.mode}.same_class", lambda: same(other),
                  _verdict_check("class test against the constructed sequence", other_truth)))
    return ops
