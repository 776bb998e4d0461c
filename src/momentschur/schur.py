"""Schur complement of a PSD matrix relative to an arbitrary subspace.

For PSD ``A`` and a subspace ``V`` of C^q, the complement is
``S = sqrt(A) @ Psi @ sqrt(A)`` where ``Psi`` projects onto the fiber
``{x : sqrt(A) x in V}``.  S is the largest PSD matrix below A whose range
lies inside V; it obeys the variational identity
``x^H S x = min over y in V-perp of (x - y)^H A (x - y)``; and A splits
uniquely as ``S + (A - S)`` with the range of the remainder meeting V only
in 0.  A second, independent computation route goes through a unitary basis
completion and the classical block formula ``B11 - B12 B22^+ B21``.
``schur_report`` gives S with the ranks and identity checks the command line
prints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPSD, SplitInvalid
from .linalg import (
    Array,
    Subspace,
    _checked,
    _lapack,
    _pinv_rule,
    _psd_certified,
    _psd_floor,
    _root_factor,
    as_matrix,
    as_tolerance,
    frobenius,
    herm_part,
    loewner_leq,
    numerical_rank,
    pinv,
    subspace_from_columns,
)


@dataclass(frozen=True)
class SchurResult:
    """The complement S, the fiber projector Psi, and the remainder Y = A - S."""

    S: Array
    P_fiber: Array
    complement: Array


def _validated_psd(A, V, t, factor=None) -> tuple[Array, Array | None, Array | None]:
    """Check A is square Hermitian PSD (within tolerance) and matches V.

    Returns H = (A+A^H)/2 with what its caller reads of H's spectrum.
    ``factor`` "eigh" gives the eigenvalues w and eigenvectors U, "eigvalsh"
    w alone (U None).  With no factor the caller reads the verdict alone:
    ``_psd_certified``'s one shifted Cholesky proves it where it can, and w
    and U are None; where it proves nothing, one ``eigvalsh`` decides, by
    the same rule and with the same NotPSD message as with "eigvalsh".
    """
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"A must be square, got shape {M.shape}")
    if V.ambient_dim != M.shape[0]:
        raise DimensionMismatch(
            f"A is {M.shape[0]}x{M.shape[0]} but V lives in C^{V.ambient_dim}"
        )
    H = _checked(M, t, "matrix is not Hermitian, hence not PSD", NotPSD)[0]
    if factor is None and _psd_certified(H, t):
        return H, None, None
    w, U = _lapack("eigh", H) if factor == "eigh" else (_lapack("eigvalsh", H), None)
    if not _psd_floor(w, t):
        raise NotPSD(f"eigenvalue {w[0]:.6e} is below the PSD tolerance")
    return H, w, U


def schur_complement(A, V: Subspace, tol=None) -> SchurResult:
    """S(A, V) by the square-root / fiber-projector route, worked on ran A.

    With sqrt(A) = F Ur^H (Ur an orthonormal basis of ran A), one thin SVD
    of the q x rank A matrix (I - P_V) F gives the fiber, and S is the Gram
    product (F Z0)(F Z0)^H, Z0 the right singular vectors judged zero.  It
    equals ``sqrt(A) @ fiber_projector(sqrt(A), V) @ sqrt(A)`` up to rounding.
    """
    t = as_tolerance(tol)
    # the eigenvectors build the fiber or the root; when V is the whole
    # space, S = A needs only the PSD verdict
    return _complement(*_validated_psd(A, V, t, "eigh" if V.dim < V.ambient_dim else None), V, t)


def _complement(M, w, U, V: Subspace, t) -> SchurResult:
    """S(M, V) from M's ascending eigenvalues w and eigenvectors U (unread, and may be None, when V = C^q).

    ``_validated_psd`` gives M, w and U; a tower slack's ``_Spectrum`` record
    gives its clip with the banded w and U the clip is built from.  Below
    V = C^q every branch reads the one ``_root_factor(w, U, t)``: at V = 0
    the fiber is null M, so P_fiber is I - Ur Ur^H and S the empty Gram
    product.
    """
    q = M.shape[0]
    if V.dim == q:
        return SchurResult(S=M, P_fiber=np.eye(q, dtype=complex), complement=M - M)
    # sqrt(A) = F Ur^H, so N = (I - P_V) sqrt(A) = K Ur^H with K = (I - P_V) F,
    # q x rank A: the fiber is null N, whose complement is Ur times K's row
    # space, and S = F (I - Z Z^H) F^H for Z that row space's basis
    Ur, F = _root_factor(w, U, t)
    X, G = Ur, F[:, :0]
    if V.dim:
        norm = frobenius(F)
        _, s, Zh = _lapack("svd", F - V.basis @ (V.basis.conj().T @ F), full_matrices=False)
        # fiber_projector's rule: K's singular values are N's, judged at A's scale
        kept = s * norm > t.threshold(norm * norm)
        X, G = Ur @ Zh[kept].conj().T, F @ Zh[~kept].conj().T
    S = herm_part(G @ G.conj().T)
    return SchurResult(S=S, P_fiber=herm_part(np.eye(q) - X @ X.conj().T), complement=M - S)


def schur_report(A, V: Subspace, tol=None) -> tuple[SchurResult, int, int, dict[str, bool]]:
    """(``schur_complement(A, V)``, rank A, rank S, checks): what the ``schur`` command reports.

    The checks test the identities S(A, V) obeys, by name.  S is built
    from the factorization ``schur_complement`` takes, so the report raises
    where it raises, and the report reads what it holds.  When V is not the
    whole space that is an ``eigh`` of A: ran A is the Ur of
    ``_root_factor``, the basis S is built on, and rank A its dimension;
    rank S and ``S_psd`` come from one ``eigvalsh`` of S.  When V = C^q it is an
    ``eigvalsh`` of A = S, which gives rank S and ``S_psd``, and ran A
    takes an SVD of A.  When V = 0, S is 0 and ran A meets V only in 0,
    so rank S is 0, ``S_psd`` holds and dim(ran A ∩ V) is 0, with no
    factorization of their own.  The ranks count eigenvalue magnitudes, so one
    within a few ulps of the threshold may count otherwise than in
    ``numerical_rank``'s SVD.  Three checks stay independent of the
    computation they check: ``S_leq_A`` takes its own ``eigvalsh`` of
    A - S; dim(ran A ∩ V) is rank A + dim V - rank [A V], by one
    values-only SVD of A beside V's basis; and the remainder's range meets
    V only in 0 when rank((I - P_V)(A - S)) = rank(A - S), by
    ``Subspace.meets_trivially``'s one values-only SVD of a (2, q, q)
    stack.  A - S is a difference at A's scale, so both ranks are cut at
    threshold(max(||A||_F, sigma_max(A - S))): where ran A lies in V, A - S
    is rounding noise, and its rank is 0, not its rank at its own norm.
    """
    t = as_tolerance(tol)
    M, w, U = _validated_psd(A, V, t, "eigh" if V.dim < V.ambient_dim else "eigvalsh")
    result = _complement(M, w, U, V, t)
    S, Y = result.S, result.complement
    range_A = subspace_from_columns(M, t) if U is None else Subspace._trusted(_root_factor(w, U, t)[0])
    if V.dim == 0:
        # S = 0, and ran A meets V = 0 in 0
        rank_S, S_psd, cap_dim = 0, True, 0
    else:
        # S is exactly Hermitian in every branch: its PSD verdict needs no Hermitian test
        w_S = w if U is None else _lapack("eigvalsh", S)
        rank_S = int(np.count_nonzero(_pinv_rule(t)(np.abs(w_S))))
        S_psd = _psd_floor(w_S, t)
        cap_dim = range_A.dim + V.dim - numerical_rank(np.hstack([M, V.basis]), t)
    checks = {
        "S_psd": S_psd,
        "S_leq_A": loewner_leq(S, M, t),
        "range_S_in_V": V.contains(S, t),
        "range_S_in_range_A": range_A.contains(S, t),
        "rank_S_is_dim_of_range_A_cap_V": rank_S == cap_dim,
        "complement_range_meets_V_trivially": V.meets_trivially(Y, t, frobenius(M)),
    }
    return result, range_A.dim, rank_S, checks


def schur_complement_via_basis(A, V: Subspace, tol=None) -> Array:
    """S(A, V) through a unitary completion of V's basis (block route).

    With Q the basis of V, U = [Q | W] unitary (W from ``Subspace.complement``)
    and B = U^H A U partitioned so that B11 is d x d, the result is
    Q (B11 - B12 B22^+ B21) Q^H.
    """
    t = as_tolerance(tol)
    M = _validated_psd(A, V, t)[0]
    q = M.shape[0]
    d = V.dim
    if d == 0:
        return np.zeros((q, q), dtype=complex)
    if d == q:
        return M
    W = V.complement().basis
    U = np.hstack([V.basis, W])
    B = U.conj().T @ M @ U
    top = B[:d, :d] - B[:d, d:] @ pinv(B[d:, d:], t) @ B[d:, :d]
    return herm_part(V.basis @ top @ V.basis.conj().T)


def variational_value(A, V: Subspace, x, tol=None) -> float:
    """min over y in V-perp of (x - y)^H A (x - y), in closed form.

    With W an orthonormal basis of V-perp the minimum equals
    x^H A x - (W^H A x)^H (W^H A W)^+ (W^H A x); it is attained because A is
    PSD, and it equals x^H S(A,V) x.  At V = 0, V-perp is C^q and y = x
    attains 0, so after the checks on A and on x's length nothing is
    factorized.  An x with a NaN or an inf entry gives NaN at every dim V,
    with no warning.
    """
    t = as_tolerance(tol)
    M = _validated_psd(A, V, t)[0]
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.shape[0] != M.shape[0]:
        raise DimensionMismatch(f"x has length {v.shape[0]}, expected {M.shape[0]}")
    if not np.isfinite(v).all():
        return np.nan
    if V.dim == 0:
        return 0.0
    total = float(np.real(v.conj() @ M @ v))
    if V.dim == M.shape[0]:
        return max(total, 0.0)
    W = V.complement().basis
    WM = W.conj().T @ M
    b = WM @ v
    G = WM @ W
    correction = float(np.real(b.conj() @ pinv(G, t) @ b))
    return max(total - correction, 0.0)


def in_lcr(A, V: Subspace, X, tol=None) -> bool:
    """Membership in {X : 0 <= X <= A (Loewner) and ran X inside V}."""
    t = as_tolerance(tol)
    MA = as_matrix(A)
    MX = as_matrix(X)
    if MA.shape != MX.shape or MA.shape[0] != MA.shape[1]:
        raise DimensionMismatch("A and X must be square matrices of equal size")
    if V.ambient_dim != MA.shape[0]:
        raise DimensionMismatch("V has the wrong ambient dimension")
    a, x = [_checked(M, t, "in_lcr requires Hermitian A and X") for M in (MA, MX)]
    # one eigvalsh of X and A - X stacked: X floored at its own spectral
    # radius, A - X at the larger operand norm, as loewner_leq floors it;
    # both are written into one empty stack, as _loewner_between writes them
    D = np.empty((2,) + x[0].shape, dtype=complex)
    D[0] = x[0]
    np.subtract(a[0], x[0], out=D[1])
    w = _lapack("eigvalsh", D)
    return _psd_floor(w[0], t) and _psd_floor(w[1], t, max(x[1], a[1])) and V.contains(MX, t)


def decompose(A, V: Subspace, tol=None) -> tuple[Array, Array]:
    """The unique split A = X + Y with ran X inside V and ran Y meeting V in 0.

    At V = 0 the split is (0, A), and A's PSD verdict is the verdict-only
    check ``schur_complement_via_basis`` makes (one shifted Cholesky, then
    an ``eigvalsh`` where it proves nothing), not ``schur_complement``'s
    ``eigh``: at the exact tolerance boundary the smallest eigenvalues of an
    ``eigvalsh`` and an ``eigh`` differ by a few ulps, so the two may decide
    otherwise there, as the block route already may.
    """
    if V.dim == 0:
        M = _validated_psd(A, V, as_tolerance(tol))[0]
        return np.zeros_like(M), M
    result = schur_complement(A, V, tol)
    return result.S, result.complement


def is_unique_split(A, V: Subspace, X, Y, tol=None) -> bool:
    """Does (X, Y) satisfy the conditions that single out decompose's output?

    True iff ran X lies in V and ran Y meets V only in 0.  For PSD X, Y with
    X + Y = A this holds exactly when (X, Y) = decompose(A, V).  The second
    condition is rank((I - P_V) Y) = rank Y (``Subspace.meets_trivially``),
    both ranks from one values-only SVD of a (2, q, q) stack and cut at Y's
    own scale, threshold(sigma_max(Y)): Y comes from the caller, so no
    other scale is known to be its.  Y with no nonzero entry, or V = 0,
    needs no SVD.
    """
    t = as_tolerance(tol)
    MA = as_matrix(A)
    MX = as_matrix(X)
    MY = as_matrix(Y)
    if not (MA.shape == MX.shape == MY.shape) or MA.shape[0] != MA.shape[1]:
        raise DimensionMismatch("A, X, Y must be square matrices of equal size")
    if V.ambient_dim != MA.shape[0]:
        raise DimensionMismatch("V has the wrong ambient dimension")
    # a NaN fails the check too, before any rank shortcut can pass it
    if not frobenius(MX + MY - MA) <= t.threshold(frobenius(MA)):
        raise SplitInvalid("X + Y does not reconstruct A within tolerance")
    return V.contains(MX, t) and V.meets_trivially(MY, t)
