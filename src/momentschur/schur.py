"""Schur complement of a PSD matrix relative to an arbitrary subspace.

For PSD ``A`` and a subspace ``V`` of C^q, the complement is
``S = sqrt(A) @ Psi @ sqrt(A)`` where ``Psi`` projects onto the fiber
``{x : sqrt(A) x in V}``.  S is the largest PSD matrix below A whose range
lies inside V; it obeys the variational identity
``x^H S x = min over y in V-perp of (x - y)^H A (x - y)``; and A splits
uniquely as ``S + (A - S)`` with the range of the remainder meeting V only
in 0.  A second, independent computation route goes through a unitary basis
completion and the classical block formula ``B11 - B12 B22^+ B21``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD, SplitInvalid
from .linalg import (
    Array,
    Subspace,
    _psd_floor,
    as_matrix,
    as_tolerance,
    fiber_projector,
    frobenius,
    herm_part,
    is_hermitian,
    loewner_leq,
    pinv,
    psd_sqrt,
    psd_verdict,
    range_included,
    range_projector,
    ranges_intersect_trivially,
)


@dataclass(frozen=True)
class SchurResult:
    """The complement S, the fiber projector Psi, and the remainder Y = A - S."""

    S: Array
    P_fiber: Array
    complement: Array


def _validated_psd(A, V, t) -> Array:
    """Check A is square Hermitian PSD (within tolerance) and matches V; return (A+A^H)/2."""
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"A must be square, got shape {M.shape}")
    if V is not None and V.ambient_dim != M.shape[0]:
        raise DimensionMismatch(
            f"A is {M.shape[0]}x{M.shape[0]} but V lives in C^{V.ambient_dim}"
        )
    if not is_hermitian(M, t):
        raise NotPSD("matrix is not Hermitian, hence not PSD")
    H = herm_part(M)
    lowest, psd = _psd_floor(H, t)
    if not psd:
        raise NotPSD(f"eigenvalue {lowest:.6e} is below the PSD tolerance")
    return H


def schur_complement(A, V: Subspace, tol=None) -> SchurResult:
    """S(A, V) by the defining square-root / fiber-projector route."""
    t = as_tolerance(tol)
    M = _validated_psd(A, V, t)
    q = M.shape[0]
    d = V.dim
    if d == 0:
        # S(A, {0}) = 0 and the fiber of sqrt(A) is null A
        psi = herm_part(np.eye(q) - range_projector(M, t))
        S = np.zeros((q, q), dtype=complex)
    elif d == q:
        psi = np.eye(q, dtype=complex)
        S = M
    else:
        root = psd_sqrt(M, t)
        psi = fiber_projector(root, V, t)
        S = herm_part(root @ psi @ root)
    return SchurResult(S=S, P_fiber=psi, complement=M - S)


def schur_complement_via_basis(A, V: Subspace, tol=None) -> Array:
    """S(A, V) through a unitary completion of V's basis (block route).

    With U = [basis | complement basis] unitary and B = U^H A U partitioned so
    that B11 is d x d, the result is U diag(B11 - B12 B22^+ B21, 0) U^H.
    """
    t = as_tolerance(tol)
    M = _validated_psd(A, V, t)
    q = M.shape[0]
    d = V.dim
    if d == 0:
        return np.zeros((q, q), dtype=complex)
    if d == q:
        return M
    W = V.complement(t).basis
    if W.shape[1] != q - d:
        raise NoConvergence("failed to complete the subspace basis to a unitary")
    U = np.hstack([V.basis, W])
    B = U.conj().T @ M @ U
    top = B[:d, :d] - B[:d, d:] @ pinv(B[d:, d:], t) @ B[d:, :d]
    S_block = np.zeros((q, q), dtype=complex)
    S_block[:d, :d] = top
    return herm_part(U @ S_block @ U.conj().T)


def variational_value(A, V: Subspace, x, tol=None) -> float:
    """min over y in V-perp of (x - y)^H A (x - y), in closed form.

    With W an orthonormal basis of V-perp the minimum equals
    x^H A x - (W^H A x)^H (W^H A W)^+ (W^H A x); it is attained because A is
    PSD, and it equals x^H S(A,V) x.
    """
    t = as_tolerance(tol)
    M = _validated_psd(A, V, t)
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.shape[0] != M.shape[0]:
        raise DimensionMismatch(f"x has length {v.shape[0]}, expected {M.shape[0]}")
    total = float(np.real(v.conj() @ M @ v))
    W = V.complement(t).basis
    if W.shape[1] == 0:
        return max(total, 0.0)
    b = W.conj().T @ M @ v
    G = W.conj().T @ M @ W
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
    for M in (MA, MX):
        if not is_hermitian(M, t):
            raise NotHermitian("in_lcr requires Hermitian A and X")
    return (
        psd_verdict(MX, t)
        and loewner_leq(MX, MA, t)
        and range_included(MX, V.basis, t)
    )


def decompose(A, V: Subspace, tol=None) -> tuple[Array, Array]:
    """The unique split A = X + Y with ran X inside V and ran Y meeting V in 0."""
    result = schur_complement(A, V, tol)
    return result.S, result.complement


def is_unique_split(A, V: Subspace, X, Y, tol=None) -> bool:
    """Does (X, Y) satisfy the conditions that single out decompose's output?

    True iff ran X lies in V and ran Y meets V only in 0.  For PSD X, Y with
    X + Y = A this holds exactly when (X, Y) = decompose(A, V).
    """
    t = as_tolerance(tol)
    MA = as_matrix(A)
    MX = as_matrix(X)
    MY = as_matrix(Y)
    if not (MA.shape == MX.shape == MY.shape) or MA.shape[0] != MA.shape[1]:
        raise DimensionMismatch("A, X, Y must be square matrices of equal size")
    if V.ambient_dim != MA.shape[0]:
        raise DimensionMismatch("V has the wrong ambient dimension")
    if frobenius(MX + MY - MA) > t.threshold(frobenius(MA)):
        raise SplitInvalid("X + Y does not reconstruct A within tolerance")
    return (
        range_included(MX, V.basis, t)
        and ranges_intersect_trivially(MY, V.basis, t)
    )
