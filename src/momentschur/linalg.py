"""Tolerance-aware complex linear algebra kernel.

Every rank, PSD and range decision made elsewhere in the package goes through
the helpers in this module, so that all predicates share a single tolerance
policy: a quantity living at spectral scale ``s`` counts as zero when its
magnitude is at most ``eps_rel * max(1, s)``.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD

Array = np.ndarray

DEFAULT_EPS_REL = 1e-10


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance policy shared by every numerical predicate."""

    eps_rel: float = DEFAULT_EPS_REL

    def __post_init__(self):
        if not self.eps_rel > 0:
            raise ValueError("eps_rel must be positive")

    def threshold(self, scale: float) -> float:
        """Absolute cutoff eps_rel * max(1, scale) at the given spectral scale.

        The floor max(1, scale) is the contract: verdicts are scale-invariant
        at unit scale and above, and not below it.
        """
        return self.eps_rel * max(1.0, abs(float(scale)))


# frozen, so every call that gives no tolerance can share it
_DEFAULT_TOLERANCE = Tolerance()


def as_tolerance(tol) -> Tolerance:
    """Coerce None, a bare eps_rel float, or a Tolerance to a Tolerance."""
    if tol is None:
        return _DEFAULT_TOLERANCE
    if isinstance(tol, Tolerance):
        return tol
    return Tolerance(eps_rel=float(tol))


def as_matrix(A) -> Array:
    """View ``A`` as a 2-d complex array; scalars become 1x1, vectors columns."""
    M = np.asarray(A, dtype=complex)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    elif M.ndim == 1:
        M = M.reshape(-1, 1)
    elif M.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got an array of ndim {M.ndim}")
    return M


def _square(A) -> Array:
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def herm_part(A: Array) -> Array:
    return 0.5 * (A + A.conj().T)


def frobenius(A) -> float:
    """||A||_F by ``np.linalg.norm(A)``'s own arithmetic, bit for bit, without its dispatch.

    Non-float input is cast to float first; the entries are taken in memory
    order, and sqrt(re . re + im . im) is formed from two dot products.
    """
    x = np.asarray(A)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _lapack(name: str, *args, **kwargs):
    """``np.linalg.<name>(*args, **kwargs)``; a LAPACK failure raises NoConvergence.

    The SVD fails on non-finite input before LAPACK sees it, as it does on
    NaN: given an inf in a 3 x 3 or larger matrix, its vector form never
    returns.
    """
    try:
        if name == "svd" and not np.isfinite(args[0]).all():
            raise np.linalg.LinAlgError("SVD did not converge")
        return getattr(np.linalg, name)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        what = "singular value decomposition" if name == "svd" else "eigensolver"
        raise NoConvergence(f"{what} did not converge: {exc}") from exc


def _skew_within(skew: float, thr: float) -> bool:
    """The one Hermitian test, on skew = ||M - M^H||_F: skew <= thr, and finite.

    NaN fails it, and so does inf, which an infinite thr would pass: an
    infinite off-diagonal entry facing a finite one makes both ||M - M^H||_F
    and ||M||_F infinite (two facing infs, or one on the diagonal, leave NaN).
    """
    return skew <= thr and skew < np.inf


def _hermitian(M, t: Tolerance) -> bool:
    """The Hermitian test of a square M, judged at threshold(||M||_F)."""
    return _skew_within(frobenius(M - M.conj().T), t.threshold(frobenius(M)))


def _checked(M, t: Tolerance, message: str, error=NotHermitian, norms=None) -> tuple[Array, float]:
    """(herm_part(M), ||M||_F) of a square M that passes the Hermitian test.

    Else error(message).  ``norms``, if given, are M's (||M||_F, ||M - M^H||_F),
    computed before.
    """
    Mh = M.conj().T
    norm, skew = (frobenius(M), frobenius(M - Mh)) if norms is None else norms
    if not _skew_within(skew, t.threshold(norm)):
        raise error(message)
    return 0.5 * (M + Mh), norm


def _psd_floor(w, t: Tolerance, scale: float = 0.0) -> bool:
    """Is min(w) >= -threshold(max(spectral radius, scale))?  w is ascending.

    The spectral radius of an ascending w is max(-w[0], w[-1]).
    """
    low = float(w[0])
    return low >= -t.threshold(max(-low, float(w[-1]), scale))


def _flatten_band(w, thr) -> Array:
    """Ascending eigenvalues w with the band |w| <= thr set to 0; one below it raises NotPSD."""
    if w[0] < -thr:
        raise NotPSD(f"eigenvalue {w[0]:.6e} below the PSD tolerance -{thr:.3e}")
    return np.where(np.abs(w) <= thr, 0.0, w)


def _rebuilt(w, U) -> Array:
    """The Hermitian U diag(w) U^H."""
    return herm_part((U * w) @ U.conj().T)


def _psd_root(w, U, t: Tolerance) -> Array:
    """The PSD square root of U diag(w) U^H, from its ascending eigenvalues w.

    Eigenvalues within the band |w| <= threshold(max |w|) are flattened to
    exact zero before taking roots, on both sides: a positive noise
    eigenvalue eps would otherwise surface as sqrt(eps), far above noise
    level, and give the root a larger numerical rank than the matrix.
    Anything below the band raises NotPSD.
    """
    return _rebuilt(np.sqrt(_flatten_band(w, t.threshold(np.abs(w).max()))), U)


class _Spectrum:
    """A square M's Hermitian part H, its (||M||_F, ||M - M^H||_F), and eigh(H) once needed.

    One record serves every scale M is clipped at, and its range and rank at each.
    """

    __slots__ = ("H", "norm", "skew", "_eigh")

    def __init__(self, M: Array):
        Mh = M.conj().T
        self.H, self.norm, self.skew = 0.5 * (M + Mh), frobenius(M), frobenius(M - Mh)
        self._eigh = None

    def _band(self, scale, t: Tolerance) -> tuple[Array, Array]:
        """(w, U): eigh of M with the eigenvalue noise at working scale ``scale`` set to 0.

        ``scale`` is the working scale of the computation that produced M: a
        difference of quantities of that size carries rounding noise
        proportional to it, not to its own norm.  A clip, a range and a rank
        all take this one step.  The Hermitian test and the eigenvalue band
        are judged at threshold(max(scale, ||M||_F)).  M is factorized only
        once it passes the test, so a NaN or a non-Hermitian M raises
        NotHermitian; one below the band raises NotPSD after it.
        """
        thr = t.threshold(max(scale, self.norm))
        if not _skew_within(self.skew, thr):
            raise NotHermitian("matrix is not Hermitian within the working-scale tolerance")
        if self._eigh is None:
            self._eigh = _lapack("eigh", self.H)
        return _flatten_band(self._eigh[0], thr), self._eigh[1]

    def clip(self, scale, t: Tolerance) -> Array:
        """M with its eigenvalue noise at working scale ``scale`` set to 0."""
        return _rebuilt(*self._band(scale, t))

    def rank(self, scale, t: Tolerance) -> int:
        """The clip's rank at working scale ``scale``: its nonzero eigenvalues' count."""
        return int(np.count_nonzero(self._band(scale, t)[0]))

    def unbanded_rank(self, t: Tolerance) -> int:
        """``numerical_rank``'s rule on the eigenvalues: the count of |w| above threshold(max |w|).

        For a record whose band raised NotPSD, which has made its eigh.
        """
        return int(np.count_nonzero(_pinv_rule(t)(np.abs(self._eigh[0]))))

    def range(self, scale, t: Tolerance) -> "Subspace":
        """ran M at working scale ``scale``: the eigenvectors outside the band."""
        w, U = self._band(scale, t)
        return Subspace(U[:, w != 0])


def pinv(A, tol=None) -> Array:
    """Moore-Penrose inverse with tolerance-based rank truncation.

    Hermitian input goes through the eigendecomposition, anything else through
    the SVD.  Only spectral values above ``threshold(sigma_max)`` are inverted,
    so the rank seen here is the same rank the range predicates use.
    """
    t = as_tolerance(tol)
    return _pinv(as_matrix(A), t, _pinv_rule(t))


def _pinv_rule(t: Tolerance):
    """pinv's rank rule: a spectral magnitude v counts when above threshold(max v)."""
    return lambda v: v > t.threshold(v.max())


def _pinv(M, t: Tolerance, keep) -> Array:
    """M^+ inverting only the spectral magnitudes v where ``keep(v)`` holds."""
    if M.size == 0:
        return np.zeros((M.shape[1], M.shape[0]), dtype=complex)
    if M.shape[0] == M.shape[1] and _hermitian(M, t):
        w, U = _lapack("eigh", herm_part(M))
        return _inverse(U, w, U, keep)
    U, s, Vh = _lapack("svd", M, full_matrices=False)
    return _inverse(Vh.conj().T, s, U, keep)


def _inverse(R, v, L, keep) -> Array:
    """R diag(v)^+ L^H, inverting only the entries of v where keep(|v|) holds."""
    inv = np.zeros_like(v)
    kept = keep(np.abs(v))
    inv[kept] = 1.0 / v[kept]
    return (R * inv) @ L.conj().T


def _svd_rank(M, tol, vectors: bool) -> tuple[Array | None, int]:
    """(U, r): left singular vectors of M if ``vectors`` (else None), and its rank r."""
    t = as_tolerance(tol)
    A = as_matrix(M)
    if A.size == 0:
        return np.zeros((A.shape[0], 0), dtype=complex), 0
    if vectors:
        U, s, _ = _lapack("svd", A, full_matrices=False)
    else:
        U, s = None, _lapack("svd", A, compute_uv=False)
    return U, int(np.count_nonzero(s > t.threshold(s[0])))


def numerical_rank(M, tol=None) -> int:
    return _svd_rank(M, tol, False)[1]


class Subspace:
    """A linear subspace of C^q stored as a q x d orthonormal basis.

    d = 0 is allowed and represents the zero subspace (q x 0 basis).  A basis
    whose Gram matrix is off the identity by more than 1e-8 (relative) is
    rejected; one off by more than 1e-11 is replaced by the Q of its QR, so
    that B B^H is a projector.  Any other basis keeps its bits.
    """

    __slots__ = ("basis",)

    def __init__(self, basis):
        B = np.asarray(basis, dtype=complex)
        if B.ndim != 2:
            raise DimensionMismatch("a subspace basis must be a 2-d array")
        q, d = B.shape
        if q < 1 or d > q:
            raise DimensionMismatch(f"cannot have {d} independent vectors in C^{q}")
        if d > 0:
            gram = B.conj().T @ B
            error, size = frobenius(gram - np.eye(d)), max(1.0, frobenius(gram))
            # a NaN or an inf leaves NaN in the Gram matrix, and fails too
            if not error <= 1e-8 * size:
                raise ValueError("basis columns are not orthonormal")
            # B B^H is then no projector; the bases eigh, svd and qr make are
            # off by 2.4e-15 or less at q <= 256, and keep their bits
            if error > 1e-11 * size:
                B = _lapack("qr", B)[0]
        B = B.copy()
        B.flags.writeable = False
        self.basis = B

    @classmethod
    def zero(cls, q: int) -> "Subspace":
        return cls(np.zeros((q, 0), dtype=complex))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> Array:
        return self.basis @ self.basis.conj().T

    def contains(self, B, tol=None) -> bool:
        """ran B inside this subspace: ||B - Q (Q^H B)||_F <= threshold(||B||_F).

        The library's one range test; a NaN in B fails it.
        """
        t = as_tolerance(tol)
        M = as_matrix(B)
        if M.shape[0] != self.ambient_dim:
            raise DimensionMismatch("row counts differ")
        return frobenius(M - self.basis @ (self.basis.conj().T @ M)) <= t.threshold(frobenius(M))

    def complement(self) -> "Subspace":
        """The orthogonal complement: the last q - d columns of a complete QR of the basis."""
        return Subspace(_lapack("qr", self.basis, mode="complete")[0][:, self.dim:])

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def subspace_from_columns(M, tol=None) -> Subspace:
    """Subspace spanned by the columns of M (dim = numerical rank), by the SVD."""
    U, r = _svd_rank(M, tol, True)
    return Subspace(U[:, :r])


def fiber_projector(M, V: Subspace, tol=None) -> Array:
    """Orthogonal projector onto the fiber {x : M x in V}.

    Computed as I - N^+ N with N = (I - P_V) M: the fiber is exactly the null
    space of N.  A singular value sigma of N counts as zero when
    ``sigma * ||M||_F <= threshold(||M||_F^2)``: for M = sqrt(A) that judges
    N at the scale of A (||M||_F^2 = trace A), where ``V.contains`` judges
    ran A inside V, not at the scale of N's own largest singular value.
    """
    t = as_tolerance(tol)
    A = as_matrix(M)
    if V.ambient_dim != A.shape[0]:
        raise DimensionMismatch(
            f"subspace lives in C^{V.ambient_dim} but the matrix has {A.shape[0]} rows"
        )
    N = A - V.projector() @ A
    p = A.shape[1]
    norm = frobenius(A)
    return herm_part(np.eye(p) - _pinv(N, t, lambda v: v * norm > t.threshold(norm * norm)) @ N)


def psd_verdict(A, tol=None) -> bool:
    """Is A Hermitian and PSD within tolerance?  Any other matrix is simply not PSD."""
    t = as_tolerance(tol)
    M = as_matrix(A)
    if M.shape[0] != M.shape[1] or not _hermitian(M, t):
        return False
    return _psd_floor(_lapack("eigvalsh", herm_part(M)), t)


def loewner_leq(A, B, tol=None) -> bool:
    """A <= B in the Loewner order: B - A is PSD within tolerance.

    The PSD floor is scaled by the operands, not by the difference alone:
    when A and B are large and nearly equal, the difference is pure
    cancellation noise proportional to the operand scale, and flooring by
    the (tiny) difference would reject equalities that hold exactly.
    """
    t = as_tolerance(tol)
    MA = _square(A)
    MB = _square(B)
    if MA.shape != MB.shape:
        raise DimensionMismatch(f"cannot compare shapes {MA.shape} and {MB.shape}")
    message = "Loewner comparison requires Hermitian matrices"
    return _loewner_leq(_checked(MA, t, message), _checked(MB, t, message), t)


def _loewner_leq(a, b, t: Tolerance) -> bool:
    """A <= B, given ``_checked``'s (Hermitian part, norm) pairs of A and B."""
    # a difference of two exactly Hermitian matrices is exactly Hermitian
    return _psd_floor(_lapack("eigvalsh", b[0] - a[0]), t, max(a[1], b[1]))


def range_included(B, A, tol=None) -> bool:
    """ran B inside ran A: ``Subspace.contains`` on the span of A's columns."""
    t = as_tolerance(tol)
    return subspace_from_columns(A, t).contains(B, t)


def ranges_intersect_trivially(A, B, tol=None) -> bool:
    """ran A and ran B meet only in 0, decided by the rank-sum criterion."""
    t = as_tolerance(tol)
    MA = as_matrix(A)
    MB = as_matrix(B)
    if MA.shape[0] != MB.shape[0]:
        raise DimensionMismatch("row counts differ")
    return _rank_sum_holds(MA, numerical_rank(MA, t), MB, numerical_rank(MB, t), t)


def _rank_sum_holds(A: Array, rank_a, B: Array, rank_b, t: Tolerance) -> bool:
    """rank [A B] = rank_a + rank_b: given the ranks of A and B, ran A meets ran B only in 0.

    A rank of None is ``numerical_rank``'s, taken only when needed.  A or B
    with no nonzero entry passes: [A B] is then the other plus zero columns.
    A rank sum above the row count fails: [A B] has no larger rank.  Else one
    values-only SVD of [A B] decides.
    """
    if not (A.any() and B.any()):
        return True
    rank_a = numerical_rank(A, t) if rank_a is None else rank_a
    rank_b = numerical_rank(B, t) if rank_b is None else rank_b
    if rank_a + rank_b > A.shape[0]:
        return False
    return numerical_rank(np.hstack([A, B]), t) == rank_a + rank_b
