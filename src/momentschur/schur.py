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

from .errors import DimensionMismatch, NotPSD, SplitInvalid
from .linalg import (
    Array,
    Subspace,
    _checked,
    _inverse,
    _lapack,
    _loewner_leq,
    _pinv_rule,
    _psd_floor,
    _psd_root,
    as_matrix,
    as_tolerance,
    fiber_projector,
    frobenius,
    herm_part,
    pinv,
    range_included,
    ranges_intersect_trivially,
)


@dataclass(frozen=True)
class SchurResult:
    """The complement S, the fiber projector Psi, and the remainder Y = A - S."""

    S: Array
    P_fiber: Array
    complement: Array


def _validated_psd(A, V, t, vectors=False) -> tuple[Array, Array, Array | None]:
    """Check A is square Hermitian PSD (within tolerance) and matches V.

    Returns (A+A^H)/2 with its eigenvalues w, from one factorization: an
    ``eigh``, which also gives the eigenvectors U, when ``vectors`` is set and
    V is not the whole space; else an ``eigvalsh``, and U is None.
    """
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"A must be square, got shape {M.shape}")
    if V is not None and V.ambient_dim != M.shape[0]:
        raise DimensionMismatch(
            f"A is {M.shape[0]}x{M.shape[0]} but V lives in C^{V.ambient_dim}"
        )
    H = _checked(M, t, "matrix is not Hermitian, hence not PSD", NotPSD)[0]
    if vectors and V.dim < H.shape[0]:
        w, U = _lapack("eigh", H)
    else:
        w, U = _lapack("eigvalsh", H), None
    if not _psd_floor(w, t):
        raise NotPSD(f"eigenvalue {w[0]:.6e} is below the PSD tolerance")
    return H, w, U


def schur_complement(A, V: Subspace, tol=None) -> SchurResult:
    """S(A, V) by the defining square-root / fiber-projector route."""
    t = as_tolerance(tol)
    M, w, U = _validated_psd(A, V, t, vectors=True)
    q = M.shape[0]
    d = V.dim
    if d == 0:
        # S(A, {0}) = 0 and the fiber of sqrt(A) is null A: psi = I - M M^+
        psi = herm_part(np.eye(q) - herm_part(M @ _inverse(U, w, U, _pinv_rule(t))))
        S = np.zeros((q, q), dtype=complex)
    elif d == q:
        psi = np.eye(q, dtype=complex)
        S = M
    else:
        root = _psd_root(w, U, t)
        psi = fiber_projector(root, V, t)
        S = herm_part(root @ psi @ root)
    return SchurResult(S=S, P_fiber=psi, complement=M - S)


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
    PSD, and it equals x^H S(A,V) x.
    """
    t = as_tolerance(tol)
    M = _validated_psd(A, V, t)[0]
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.shape[0] != M.shape[0]:
        raise DimensionMismatch(f"x has length {v.shape[0]}, expected {M.shape[0]}")
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
    psd = _psd_floor(_lapack("eigvalsh", x[0]), t)
    return psd and _loewner_leq(x, a, t) and range_included(MX, V.basis, t)


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
