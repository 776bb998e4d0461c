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


# frozen, so every call that gives no tolerance can share it: one Tolerance()
# made per call instead costs 3.9% of cpu_ms_per_op on the hamburger workload
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
    returns.  An order-1 ``eigh`` or ``eigvalsh``, of any (..., 1, 1) stack,
    is answered here, with no call of numpy.linalg, as LAPACK's N = 1 quick
    return in ``zheevd``/``dsyevd`` answers it: the eigenvalue is a float64
    copy of the entry's real part, the eigenvector 1 in the input's dtype.
    Every output is bit-identical to numpy's, NaN, inf and -0.0 included;
    numpy's dispatch was the whole cost of a scalar verdict's factorization.
    """
    if name in ("eigh", "eigvalsh") and args[0].shape[-2:] == (1, 1):
        w = args[0].real[..., 0].astype(float)
        return w if name == "eigvalsh" else (w, np.ones_like(args[0]))
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


def _norm_and_skew(M, Mh) -> tuple[float, float]:
    """(||M||_F, ||M - M^H||_F) of a square M, given Mh = M^H.

    When M holds a NaN or an inf, the second is NaN and M - M^H, which
    would make numpy warn, is not formed: the Hermitian test fails such an
    M either way.  Only a norm that is not finite sends M to that check.
    """
    norm = frobenius(M)
    if norm < np.inf or np.isfinite(M).all():
        return norm, frobenius(M - Mh)
    return norm, np.nan


def _hermitian(M, t: Tolerance) -> bool:
    """The Hermitian test of a square M, judged at threshold(||M||_F)."""
    norm, skew = _norm_and_skew(M, M.conj().T)
    return _skew_within(skew, t.threshold(norm))


def _checked(M, t: Tolerance, message: str, error=NotHermitian) -> tuple[Array, float]:
    """(herm_part(M), ||M||_F) of a square M that passes the Hermitian test; else error(message)."""
    Mh = M.conj().T
    norm, skew = _norm_and_skew(M, Mh)
    if not _skew_within(skew, t.threshold(norm)):
        raise error(message)
    return 0.5 * (M + Mh), norm


def _psd_floor(w, t: Tolerance, scale: float = 0.0) -> bool:
    """Is min(w) >= -threshold(max(spectral radius, scale))?  w is ascending.

    The spectral radius of an ascending w is max(-w[0], w[-1]).
    """
    low = float(w[0])
    return low >= -t.threshold(max(-low, float(w[-1]), scale))


def _psd_certified(H, t: Tolerance) -> bool:
    """Does one Cholesky of H + cI prove ``_psd_floor``'s verdict "PSD" on the exactly Hermitian H?

    With u = 2^-53 and q >= 2 the order of H, the shift is
    c = threshold(||H||_F / sqrt q) / 2, at most half the rule's threshold,
    since the spectral radius is at least ||H||_F / sqrt q.  A Cholesky that
    completes is exact for H + cI + E with ||E||_2 <= q gamma_{q+1}
    ||H + cI||_2 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 10.3), so lambda_min(H) >= -c - ||E||_2.  Where the bound
    2q(q+1) u ||H||_F <= c holds, ||E||_2 <= c/2 up to terms of order u^2,
    so lambda_min(H) >= -3c/2, above the rule's floor by a quarter of its
    threshold at least: the certificate accepts only what the eigenvalue
    rule accepts, at a quarter of an ``eigvalsh``'s flops (q^3/3 against
    4q^3/3).  The bound holds up to q = 137 at the default eps_rel.  Order
    1, a norm that is not finite, a bound that fails or a Cholesky that
    breaks down (LinAlgError: not proven, never NoConvergence) answer False,
    and the caller decides by the eigenvalues.
    """
    q = H.shape[0]
    norm = frobenius(H)
    c = t.threshold(norm / math.sqrt(q)) / 2
    if q < 2 or not (norm < np.inf and 2 * q * (q + 1) * 2.0 ** -53 * norm <= c):
        return False
    shifted = H.copy()
    shifted.flat[:: q + 1] += c
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _flatten_band(w, thr) -> Array:
    """Ascending eigenvalues w with the band |w| <= thr set to 0; one below it raises NotPSD."""
    if w[0] < -thr:
        raise NotPSD(f"eigenvalue {w[0]:.6e} below the PSD tolerance -{thr:.3e}")
    return np.where(np.abs(w) <= thr, 0.0, w)


def _rebuilt(w, U) -> Array:
    """The Hermitian U diag(w) U^H."""
    return herm_part((U * w) @ U.conj().T)


def _root_factor(w, U, t: Tolerance) -> tuple[Array, Array]:
    """(Ur, F): the PSD square root of U diag(w) U^H is F Ur^H, from its ascending eigenvalues w.

    Ur holds the eigenvectors outside the band |w| <= threshold(max |w|),
    an orthonormal basis of the range, and F = Ur diag(sqrt w) on them.
    Eigenvalues within the band are flattened to exact zero before taking
    roots, on both sides: a positive noise eigenvalue eps would otherwise
    surface as sqrt(eps), far above noise level, and give the root a larger
    numerical rank than the matrix.  Anything below the band raises NotPSD.
    """
    w = _flatten_band(w, t.threshold(np.abs(w).max()))
    Ur = U[:, w != 0]
    return Ur, Ur * np.sqrt(w[w != 0])


class _Spectrum:
    """A square M's Hermitian part H, its (||M||_F, ||M - M^H||_F), and its spectrum once needed.

    One record serves every scale M is clipped at, and its range and rank at
    each.  A rank needs the eigenvalues alone, which one ``eigvalsh`` gives;
    a clip or a range needs the eigenvectors too, which one ``eigh`` gives.
    The tower asks a slack's record for its eigenvectors first, and the
    class test only ranks its difference's, so no record ranked by an
    ``eigvalsh`` is clipped later.
    """

    __slots__ = ("H", "norm", "skew", "_w", "_U")

    def __init__(self, M: Array):
        Mh = M.conj().T
        self.norm, self.skew = _norm_and_skew(M, Mh)
        # H is read only once M passes the Hermitian test, which a NaN or an
        # inf never does; for them it is not formed
        self.H = 0.5 * (M + Mh) if self.skew < np.inf else None
        self._w = self._U = None

    def _band(self, scale, t: Tolerance, vectors: bool = True) -> tuple[Array, Array | None]:
        """(w, U): M's eigenvalues with their noise at ``scale`` set to 0, and its eigenvectors.

        ``scale`` is the working scale of the computation that produced M: a
        difference of quantities of that size carries rounding noise
        proportional to it, not to its own norm.  A clip, a range and a rank
        all take this one step.  The Hermitian test and the eigenvalue band
        are judged at threshold(max(scale, ||M||_F)).  M is factorized only
        once it passes the test, so a NaN or a non-Hermitian M raises
        NotHermitian; one below the band raises NotPSD after it.  U is None
        while only eigenvalues were asked for (``vectors`` False).
        """
        thr = t.threshold(max(scale, self.norm))
        if not _skew_within(self.skew, thr):
            raise NotHermitian("matrix is not Hermitian within the working-scale tolerance")
        if self._w is None or (vectors and self._U is None):
            self._w, self._U = _lapack("eigh", self.H) if vectors else (_lapack("eigvalsh", self.H), None)
        return _flatten_band(self._w, thr), self._U

    def clip(self, scale, t: Tolerance) -> Array:
        """M with its eigenvalue noise at working scale ``scale`` set to 0."""
        return _rebuilt(*self._band(scale, t))

    def rank(self, scale, t: Tolerance) -> int:
        """The clip's rank at working scale ``scale``: its nonzero eigenvalues' count."""
        return int(np.count_nonzero(self._band(scale, t, vectors=False)[0]))

    def unbanded_rank(self, t: Tolerance) -> int:
        """``numerical_rank``'s rule on the eigenvalues: the count of |w| above threshold(max |w|).

        For a record whose band raised NotPSD, which holds its eigenvalues:
        the class test's count shortcut (two ranks above q meet) reads it;
        without it the hamburger workload's lapack_calls_per_op rises 4.7%.
        """
        return int(np.count_nonzero(_pinv_rule(t)(np.abs(self._w))))

    def range(self, scale, t: Tolerance) -> "Subspace":
        """ran M at working scale ``scale``: the eigenvectors outside the band."""
        w, U = self._band(scale, t)
        return Subspace._trusted(U[:, w != 0])


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
    return U, int(np.count_nonzero(_pinv_rule(t)(s)))


def numerical_rank(M, tol=None) -> int:
    return _svd_rank(M, tol, False)[1]


class Subspace:
    """A linear subspace of C^q stored as a q x d orthonormal basis.

    d = 0 is allowed and represents the zero subspace (q x 0 basis).  A basis
    whose Gram matrix is off the identity by more than 1e-8 (relative) is
    rejected; one off by more than 1e-11 is replaced by the Q of its QR, so
    that B B^H is a projector.  Any other basis keeps its bits.  The bases
    the package's own factorizations make are held by ``_trusted``, with
    no check.
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
        self._hold(B)

    def _hold(self, B):
        """Store a contiguous read-only copy of the basis B."""
        self.basis = B.copy()
        self.basis.flags.writeable = False

    @classmethod
    def _trusted(cls, B) -> "Subspace":
        """The span of a complex basis this package's ``eigh``, ``svd`` or ``qr`` made, unchecked.

        Such a basis keeps its bits in ``__init__``, which would only spend
        a Gram matrix and two norms finding that out (0.5 ms of
        ``complement`` at q = 128, dim V = 1).
        """
        sub = cls.__new__(cls)
        sub._hold(B)
        return sub

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

    def meets_trivially(self, B, tol=None, scale: float = 0.0) -> bool:
        """ran B meets this subspace only in 0: rank (B - Q (Q^H B)) = rank B.

        For the orthonormal basis Q, rank [B Q] = dim + rank((I - Q Q^H) B),
        so this is the rank-sum test with no SVD of [B Q].  Both ranks come
        from one values-only SVD of the stack [B, B - Q (Q^H B)] and are cut
        at one threshold, threshold(max(scale, sigma_max(B))).  The V-perp
        count is capped at its exact bound q - dim, so rounding left inside V
        never counts as rank and a rank B above it fails, as a rank sum above
        the row count does.  B with no nonzero entry, or the zero subspace,
        passes with no SVD.
        """
        M = as_matrix(B)
        if M.shape[0] != self.ambient_dim:
            raise DimensionMismatch("row counts differ")
        if not (self.dim and M.any()):
            return True
        s = _lapack("svd", np.stack([M, M - self.basis @ (self.basis.conj().T @ M)]), compute_uv=False)
        thr = as_tolerance(tol).threshold(max(scale, s[0, 0]))
        perp = min(np.count_nonzero(s[1] > thr), self.ambient_dim - self.dim)
        return bool(np.count_nonzero(s[0] > thr) == perp)

    def complement(self) -> "Subspace":
        """The orthogonal complement: the last q - d columns of a complete QR of the basis."""
        return Subspace._trusted(_lapack("qr", self.basis, mode="complete")[0][:, self.dim:])

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def subspace_from_columns(M, tol=None) -> Subspace:
    """Subspace spanned by the columns of M (dim = numerical rank), by the SVD."""
    U, r = _svd_rank(M, tol, True)
    return Subspace._trusted(U[:, :r])


def fiber_projector(M, V: Subspace, tol=None) -> Array:
    """Orthogonal projector onto the fiber {x : M x in V}.

    Computed as I - N^+ N with N = (I - P_V) M: the fiber is exactly the null
    space of N.  A singular value sigma of N counts as zero when
    ``sigma * ||M||_F <= threshold(||M||_F^2)``: for M = sqrt(A) that judges
    N at the scale of A (||M||_F^2 = trace A), where ``V.contains`` judges
    ran A inside V, not at the scale of N's own largest singular value.
    This is the defining formula; ``schur_complement`` takes the same rule
    on ran A, from the factor ``_root_factor`` gives, without forming N.
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


def _loewner_between(a, x, b, t: Tolerance) -> bool:
    """A <= X <= B, given ``_checked``'s pairs, by one ``eigvalsh`` of X - A and B - X stacked.

    Each difference is floored at its own operands' scale, as ``_loewner_leq``
    floors it, and its eigenvalues are those ``_loewner_leq`` would compute.
    """
    # one empty stack and two subtractions into it: np.stack would cost as
    # much as the second eigvalsh call it saves
    D = np.empty((2,) + x[0].shape, dtype=complex)
    np.subtract(x[0], a[0], out=D[0])
    np.subtract(b[0], x[0], out=D[1])
    w = _lapack("eigvalsh", D)
    return _psd_floor(w[0], t, max(a[1], x[1])) and _psd_floor(w[1], t, max(x[1], b[1]))


def range_included(B, A, tol=None) -> bool:
    """ran B inside ran A: ``Subspace.contains`` on the span of A's columns."""
    t = as_tolerance(tol)
    return subspace_from_columns(A, t).contains(B, t)


def ranges_intersect_trivially(A, B, tol=None) -> bool:
    """ran A and ran B meet only in 0, decided by the rank sum: rank [A B] = rank A + rank B.

    The public reference, with no caller in the package: the tests check
    ``Subspace.meets_trivially`` against it.  A or B with no nonzero entry
    passes with no SVD of [A B].
    """
    t = as_tolerance(tol)
    MA = as_matrix(A)
    MB = as_matrix(B)
    if MA.shape[0] != MB.shape[0]:
        raise DimensionMismatch("row counts differ")
    rank_a, rank_b = numerical_rank(MA, t), numerical_rank(MB, t)
    return not (MA.any() and MB.any()) or numerical_rank(np.hstack([MA, MB]), t) == rank_a + rank_b
