"""Classification of moment sequences on a half line [alpha, infinity).

The Stieltjes problem runs on the hamburger module's ``Tower`` with a second
tower, that of the shifted sequence -alpha s_j + s_{j+1}, so that every index
carries a slack kappa_j and R_m = u_{m-1} + S(kappa_m, ran kappa_{m-1}).
This module holds the report and the half line's public functions; the
shift, ``alpha_shift``, lives in the hamburger module beside the tower that
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .hamburger import MomentSequence, Tower
from .linalg import Array, as_tolerance


@dataclass(frozen=True)
class StieltjesReport:
    """Everything the classify command reports for the Stieltjes path.

    ``kappa`` holds kappa_0..kappa_m, ``u`` holds u_{-1}..u_{m-1}; ``R`` and
    ``canonical`` are None when the sequence is not Stieltjes nonnegative
    definite.
    """

    q: int
    m: int
    alpha: float
    is_knnd: bool
    is_knnde: bool
    kappa: tuple[Array, ...]
    u: tuple[Array, ...]
    R: Array | None
    canonical: MomentSequence | None


def is_knnd(s, alpha: float, tol=None) -> bool:
    """Are both Hankel towers PSD at the levels dictated by the parity of m?

    m = 0: s_0 PSD; m = 2n: H_n and H_{alpha,n-1} PSD; m = 2n+1: H_n and
    H_{alpha,n} PSD.
    """
    tower = Tower.of(s, tol, alpha)
    return tower.nnd(tower.top())


def kappa(s, alpha: float, j: int, tol=None) -> Array:
    """kappa_j: the even ones are L_k of s, the odd ones L_k of the shift."""
    s = MomentSequence.coerce(s)
    if not 0 <= j <= s.kappa:
        raise IndexOutOfRange(f"kappa index {j} outside 0..{s.kappa}")
    return Tower.of(s, tol, alpha).kappa(j)


def u_lower(s, alpha: float, m: int, tol=None) -> Array:
    """u_m, the lower interval endpoint for the block at index m + 1.

    u_{-1} = 0; u_{2k-1} = Theta_k of s; u_{2k} = alpha s_{2k} + Theta_k of
    the shifted sequence.  Satisfies kappa_j = s_j - u_{j-1}.
    """
    s = MomentSequence.coerce(s)
    if not -1 <= m <= s.kappa:
        raise IndexOutOfRange(f"u index {m} outside -1..{s.kappa}")
    # alpha s_{2k} on an inf block leaves a NaN, as in the shift: quiet, here
    # and in u_stack, the two callers that can reach a block no test rejected
    with np.errstate(invalid="ignore"):
        return Tower.of(s, tol, alpha).u(m)


def is_knnde(s, alpha: float, tol=None) -> bool:
    """Is the sequence a section of a longer Stieltjes nonnegative sequence?

    The sequence must be Stieltjes nonnegative definite with ran kappa_m
    inside ran kappa_{m-1}.  At m = 0 that is s_0 PSD (the completion
    s_1 := alpha s_0 always works then).
    """
    return Tower.of(s, tol, alpha).extendable


def r_upper_stieltjes(s, alpha: float, m: int, tol=None) -> Array:
    """R_m = u_{m-1} + S(kappa_m, ran kappa_{m-1}); R_0 = s_0.

    Requires (s_0, ..., s_m) to be Stieltjes nonnegative definite.
    """
    s = MomentSequence.coerce(s)
    t = as_tolerance(tol)
    if not 0 <= m <= s.kappa:
        raise IndexOutOfRange(f"r_upper index {m} outside 0..{s.kappa}")
    return Tower.of(s, t, alpha).r(m)


def canonical_rep_stieltjes(s, alpha: float, tol=None) -> MomentSequence:
    """The sequence with its last block replaced by R_m (class representative)."""
    return Tower.of(s, tol, alpha).canonical()


def in_extension_interval_stieltjes(
    s, alpha: float, t_last, bound: str = "given_sm", tol=None
) -> bool:
    """Is t_last an admissible last block on the half line?

    bound="given_sm" tests u_{m-1} <= t <= s_m; bound="r_upper" tests
    u_{m-1} <= t <= R_m (last blocks of extendable sequences).
    """
    return Tower.of(s, tol, alpha).member(t_last, bound)


def same_class_stieltjes(s, r, alpha: float, tol=None) -> bool:
    """Do s and r share the same class of Stieltjes nonnegative extensions?"""
    return all(Tower.of(s, tol, alpha).conditions(r))


def classify_stieltjes(s, alpha: float, tol=None) -> StieltjesReport:
    """Gather the full Stieltjes-side report for one sequence."""
    s = MomentSequence.coerce(s)
    tower = Tower.of(s, as_tolerance(tol), alpha)
    m = s.kappa
    R = tower.r(m) if tower.nnd(m) else None
    return StieltjesReport(
        q=s.q,
        m=m,
        alpha=float(alpha),
        is_knnd=tower.nnd(m),
        is_knnde=tower.extendable,
        kappa=tuple(tower.kappa_stack.copy()),
        u=tuple(tower.u_stack.copy()),
        R=R,
        canonical=tower.canonical() if R is not None else None,
    )
