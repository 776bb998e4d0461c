"""Block-Hankel towers of matricial moment sequences, and the Hamburger problem.

A sequence (s_0, ..., s_{2n}) of q x q blocks is *nonnegative definite* when
the block Hankel matrix H_n = [s_{j+k}]_{j,k=0..n} is PSD, and *extendably*
so when some longer nonnegative definite sequence begins with it.  The lowest
admissible block at index 2n is Theta_n = z H_{n-1}^+ y (built from the strip
s_n .. s_{2n-1}), and the slack L_n = s_{2n} - Theta_n together with the
Schur complement of L_n relative to ran L_{n-1} gives the tight upper bound
R_n = Theta_n + S(L_n, ran L_{n-1}).  Candidates t for the last block then
form the matricial interval [Theta_n, s_{2n}] (nonnegative definite) or
[Theta_n, R_n] (extendable), and replacing s_{2n} by R_n yields the canonical
representative of the class of sequences sharing every extension behaviour.

``Tower`` computes all of this once for both moment problems; the Hamburger
functions below, and the stieltjes module's, are thin wrappers around it.
On a half line [alpha, oo) the tower reads a second sequence too, the shift
``alpha_shift`` builds, which lives here beside the tower that calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
import math
import struct

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotHermitian,
    NotHNND,
    NotKNND,
    NotPSD,
    OddOrderUnsupported,
    ShapeMismatch,
    TooShort,
)
from .linalg import (
    Array,
    Subspace,
    Tolerance,
    _Spectrum,
    _checked,
    _lapack,
    _loewner_between,
    _psd_floor,
    _rebuilt,
    _skew_within,
    as_matrix,
    as_tolerance,
    frobenius,
    herm_part,
    pinv,
)
from .schur import _complement


class MomentSequence:
    """A finite sequence (s_0, ..., s_kappa) of equal-size square blocks.

    Blocks are stored as read-only complex arrays; scalar entries are accepted
    and become 1x1 blocks, so ``MomentSequence([1, 0, 1])`` works as expected.
    ``stack`` holds them as one read-only (kappa+1, q, q) array; ``blocks``
    holds its slices, the same view of s_j on every call, and ``norms`` each
    block's norms, made once, when first needed.  Its blocks never change.
    It also holds one ``Tower``, with its key: that of the last (tolerance,
    alpha) a public function asked it about (see ``Tower.of``), so that
    further questions under the same pair reuse it.  The tower is freed with
    the sequence or when another key replaces it; until then it takes about
    1.7 times the sequence's own bytes (Hamburger) or 5.5 times (Stieltjes,
    which adds the shift).  A sequence made by ``prefix``, ``with_last`` or
    ``appended``, by the JSON parser, by ``alpha_shift`` or as a canonical
    representative holds a stack built from blocks already checked, without
    checking them again, and does not share its parent's tower.
    """

    __slots__ = ("stack", "blocks", "_norms", "_held")

    def __init__(self, blocks):
        mats = []
        for b in blocks:
            M = as_matrix(b)
            if M.shape[0] != M.shape[1]:
                raise ShapeMismatch(f"blocks must be square, got shape {M.shape}")
            mats.append(M)
        if not mats:
            raise TooShort("a moment sequence needs at least one block")
        if any(M.shape != mats[0].shape for M in mats):
            raise ShapeMismatch("all blocks must have the same size")
        self._hold(np.array(mats))

    def _hold(self, stack: Array) -> "MomentSequence":
        # stack holds validated blocks: no one else may write to it
        stack.flags.writeable = False
        self.stack, self.blocks, self._norms, self._held = stack, tuple(stack), None, None
        return self

    @classmethod
    def coerce(cls, s) -> "MomentSequence":
        return s if isinstance(s, cls) else cls(s)

    @property
    def norms(self) -> tuple[tuple[float, float], ...]:
        """(||s_j||_F, ||s_j - s_j^H||_F) for each block s_j; (NaN, NaN) for a non-finite one."""
        if self._norms is None:
            # a block holding a NaN or an inf gets NaN norms, without arithmetic
            nan, finite = (np.nan, np.nan), np.isfinite(self.stack).all(axis=(1, 2))
            self._norms = tuple((frobenius(b), frobenius(b - b.conj().T)) if ok else nan
                                for b, ok in zip(self.stack, finite))
        return self._norms

    @property
    def q(self) -> int:
        return self.stack.shape[1]

    @property
    def kappa(self) -> int:
        """Largest block index (length - 1)."""
        return len(self.stack) - 1

    def __len__(self) -> int:
        return len(self.stack)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, j: int) -> Array:
        if not 0 <= j <= self.kappa:
            raise IndexOutOfRange(f"block index {j} outside 0..{self.kappa}")
        return self.blocks[j]

    def prefix(self, length: int) -> "MomentSequence":
        """s_0, ..., s_{length-1}, a view of this sequence's stack."""
        if not 1 <= length <= len(self):
            raise IndexOutOfRange(f"prefix length {length} outside 1..{len(self)}")
        return object.__new__(MomentSequence)._hold(self.stack[:length])

    def with_last(self, block) -> "MomentSequence":
        """This sequence with its last block replaced by ``block``."""
        return self._joined(self.stack[:-1], block)

    def appended(self, block) -> "MomentSequence":
        """This sequence followed by ``block``."""
        return self._joined(self.stack, block)

    def _joined(self, head: Array, block) -> "MomentSequence":
        # only the new block is validated; head's blocks were when they came in
        new = MomentSequence([block])
        if not len(head):
            return new
        if head.shape[1:] != new.stack.shape[1:]:
            raise ShapeMismatch("all blocks must have the same size")
        return object.__new__(MomentSequence)._hold(np.concatenate((head, new.stack)))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"MomentSequence(q={self.q}, length={len(self)})"


def alpha_shift(s, alpha: float) -> MomentSequence:
    """The shifted sequence with blocks -alpha s_j + s_{j+1} (one block shorter)."""
    s = MomentSequence.coerce(s)
    if len(s) < 2:
        raise TooShort("alpha_shift needs at least two blocks")
    # an inf block times the complex -alpha + 0j leaves a NaN imaginary part,
    # which numpy warns about; the product keeps its bits either way
    with np.errstate(invalid="ignore"):
        shifted = -alpha * s.stack[:-1] + s.stack[1:]
    if shifted.shape != s.stack[1:].shape:
        # an array alpha broadcast the blocks to another shape: the
        # constructor checks what came out
        return MomentSequence(shifted)
    # complex128 whatever the type of alpha, as the blocks of s are
    return object.__new__(MomentSequence)._hold(shifted.astype(complex, copy=False))


@dataclass(frozen=True)
class HamburgerReport:
    """Everything the classify command reports for the Hamburger path.

    ``L_prev`` is None at n = 0; ``R`` and ``canonical`` are None when the
    sequence is not nonnegative definite (the upper bound is undefined then).
    """

    q: int
    n: int
    is_hnnd: bool
    is_hnnde: bool
    theta: Array
    L: Array
    L_prev: Array | None
    R: Array | None
    canonical: MomentSequence | None


def block_hankel(s, n: int) -> Array:
    """The (n+1)q x (n+1)q block Hankel matrix [s_{j+k}]_{j,k=0..n}."""
    s = MomentSequence.coerce(s)
    if n < 0:
        raise IndexOutOfRange(f"block Hankel order {n} is negative")
    if 2 * n > s.kappa:
        raise IndexOutOfRange(f"block Hankel of order {n} needs blocks up to 2n={2 * n}")
    # gather s_{j+k} into a fresh (j, k, row, col) array, laid out as (j, row) x (k, col)
    r = np.arange(n + 1)
    grid = s.stack[r[:, None] + r]
    return grid.transpose(0, 2, 1, 3).reshape((n + 1) * s.q, (n + 1) * s.q)


def _strip(s, l: int, m: int) -> Array:
    s = MomentSequence.coerce(s)
    if not 0 <= l <= m <= s.kappa:
        raise IndexOutOfRange(f"block range {l}..{m} outside 0..{s.kappa}")
    return s.stack[l : m + 1]


def y_block(s, l: int, m: int) -> Array:
    """The block column col(s_l, ..., s_m)."""
    strip = _strip(s, l, m)
    return strip.reshape(-1, strip.shape[2]).copy()


def z_block(s, l: int, m: int) -> Array:
    """The block row row(s_l, ..., s_m)."""
    strip = _strip(s, l, m)
    return strip.transpose(1, 0, 2).reshape(strip.shape[1], -1).copy()


def theta(s, n: int, tol=None) -> Array:
    """Theta_n = z_{n,2n-1} H_{n-1}^+ y_{n,2n-1}, the minimal admissible s_{2n}.

    Theta_0 is the zero block.  The formula is total: it does not require the
    sequence to be nonnegative definite.  It runs ``pinv`` on what it is
    given, so a block holding a NaN or an inf may raise NoConvergence here,
    where the tower holds a NaN block for such a Theta and reports the
    sequence not nonnegative definite.
    """
    s = MomentSequence.coerce(s)
    t = as_tolerance(tol)
    if n < 0:
        raise IndexOutOfRange(f"theta order {n} is negative")
    if n == 0:
        return np.zeros((s.q, s.q), dtype=complex)
    if 2 * n - 1 > s.kappa:
        raise IndexOutOfRange(f"theta({n}) needs blocks up to {2 * n - 1}")
    raw = z_block(s, n, 2 * n - 1) @ pinv(block_hankel(s, n - 1), t) @ y_block(s, n, 2 * n - 1)
    if all(_skew_within(a, t.threshold(f)) for f, a in s.norms[: 2 * n]):
        # z = y^H and H^+ is Hermitian, so the exact value is Hermitian;
        # symmetrizing strips rounding noise that would otherwise dominate
        # the near-zero residuals s_{2n} - Theta_n
        raw = herm_part(raw)
    return raw


def _frozen(A: Array) -> Array:
    A.flags.writeable = False
    return A


def _key(tol, alpha):
    """What a held tower is matched on: eps_rel, and the bits of alpha.

    Bits, not ==: alpha = 0.0 and -0.0 (or NaN and -NaN) give answers that
    differ in signs.  None for an alpha that is neither None nor a float, and
    for a tolerance of any other kind, an invalid one included; such a call
    gets a tower of its own, which raises where a fresh tower does.
    """
    if not (alpha is None or type(alpha) is float):
        return None
    try:
        t = as_tolerance(tol)
    except (TypeError, ValueError, OverflowError):  # what float() and Tolerance raise
        return None
    if type(t) is not Tolerance or type(t.eps_rel) is not float:
        return None
    return t.eps_rel, None if alpha is None else struct.pack("d", alpha)


class Tower:
    """The Hankel towers of one moment problem, each quantity computed once.

    With ``alpha`` None it is the Hamburger problem: the plain tower, with a
    slack at every even index.  Otherwise it is the Stieltjes problem on
    [alpha, oo): the shifted tower joins in and every index holds a slack.
    A tower keeps every quantity it computes that depends on the sequence,
    the tolerance and alpha alone: each Theta_k of both towers, the shift,
    every Hankel verdict and R_m, the extendability verdict, one ``_Spectrum``
    record per slack (one eigendecomposition serves its clip, its range and
    R_m's Schur step at every scale), the Hermitian part and norm of each
    interval end, and, once a report needs them, ``kappa_stack`` and
    ``u_stack``: the slacks and lower ends a report shows, one stack each,
    which a report copies whole.  Kept arrays are read-only or private to
    their record; the arrays a tower hands out are fresh, writable copies
    (the blocks of the sequence itself stay read-only).
    The Hermitian decision is made once, block by block (``_hermitian``),
    and every verdict reads it: where s_0..s_k pass, each Theta and interval
    end that reads them is taken Hermitian, and no Hankel matrix or end is
    tested again.  A slack kappa_j = s_j - u_{j-1} carries s_j's skew, which
    its record's band, at the same working scale, then passes.
    Extendability is one rule, read at the top index m alone: s_0..s_m is
    nonnegative definite and ran kappa_m lies inside ran kappa_{m-step}; at
    an odd m of the plain tower, the minimal completion is nonnegative definite.
    The three quantities: u_j, the lowest admissible block at index j + 1
    (u_{-1} = 0, u_{2k-1} = Theta_k(s), u_{2k} = alpha s_{2k} + Theta_k of
    the shift); the slack kappa_j = s_j - u_{j-1}; and the tight upper bound
    R_m = u_{m-1} + S(kappa_m, ran kappa_{m-step}), with step 2 on the line
    and 1 on the half line.
    """

    def __init__(self, s, tol=None, alpha=None):
        self.s = MomentSequence.coerce(s)
        self.tol = tol
        self.alpha = alpha
        problem = _PROBLEMS[alpha is None]
        self.step, self.given, self._not_nnd, self._name, self._too_short = problem
        # one dict per quantity, read in place: one memo decorator for them all
        # costs 4.3% of the hamburger workload's throughput
        self._thetas = {}
        self._nnds = {}
        self._spectra = {}
        self._rs = {}
        self._ends = {}

    @classmethod
    def of(cls, s, tol=None, alpha=None) -> "Tower":
        """The tower s holds, if it was made for (tol, alpha); else a new one s then holds.

        Its answers are those of a fresh ``Tower(s, tol, alpha)``, bit for
        bit, and its argument errors come in the same order.  Every public
        function whose tower is of s itself takes it: ``classify_*``,
        ``is_*nnd*``, ``in_extension_interval*``, ``same_class*``,
        ``canonical_rep*``, ``l_matrix``, ``kappa``, ``u_lower`` and
        ``r_upper*``; ``theta`` computes directly.  A quantity at level k
        reads only s_0..s_k, the tolerance and alpha, so the tower of s
        answers for each prefix of s too (``r_upper(s, n)`` below the last
        index).  A sequence holds one tower, with no size to set; it lives
        until s is freed or a question under another key replaces it.  Only
        an alpha that is None or a float, with a float ``eps_rel``, is held
        (``_key``); any other call gets a tower of its own.  The tower reads
        a twin of s, so nothing it keeps points back at s, which is freed
        without the cycle collector.  Threads calling on one sequence at
        once may compute a quantity twice; each call keeps the tower it
        took, so the answers stay the same.
        """
        s = MomentSequence.coerce(s)
        key = _key(tol, alpha)
        if key is None:
            return cls(s, tol, alpha)
        held = s._held  # read once: another thread may replace it
        if held is None or held[0] != key:
            # the tower reads a twin of s with the same stack and norms, so
            # that nothing s holds points back at s and frees it
            twin = object.__new__(MomentSequence)._hold(s.stack)
            twin._norms = s.norms
            held = s._held = key, cls(twin, tol, alpha)
        return held[1]

    @cached_property
    def t(self) -> Tolerance:
        # converted at first use, so that the argument checks a public
        # function makes before it needs the tolerance keep their precedence
        return as_tolerance(self.tol)

    @cached_property
    def shift(self) -> MomentSequence:
        return alpha_shift(self.s, self.alpha)

    @cached_property
    def _sizes(self) -> list[float]:
        # max_{j <= i} ||s_j||_F: the block scale of s_0..s_i
        return list(accumulate((f for f, _ in self.s.norms), max))

    def _scale(self, size: float) -> float:
        # the working scale of the slacks: shifted blocks reach (1 + |alpha|) size
        return size if self.alpha is None else (1.0 + abs(self.alpha)) * size

    @cached_property
    def _hermitian(self) -> list[bool]:
        # entry j: s_0..s_j pass the Hermitian test, each block at the working
        # scale of the prefix it ends, and on the half line each block of the
        # shift, made from s_{j-1} and s_j, at that of s_0..s_j.  An entry
        # reads s_0..s_j alone, as every level-j quantity does
        thresholds = [self.t.threshold(self._scale(size)) for size in self._sizes]
        passed = [_skew_within(a, thr) for (_, a), thr in zip(self.s.norms, thresholds)]
        if self.alpha is not None and self.s.kappa:
            for j, (_, a) in enumerate(self.shift.norms, 1):
                passed[j] = passed[j] and _skew_within(a, thresholds[j])
        return list(accumulate(passed, min))

    def top(self) -> int:
        """The last index m; the plain tower alone needs it even."""
        if self.s.kappa % self.step:
            raise OddOrderUnsupported(
                "Hankel nonnegative definiteness is defined for odd-length sequences "
                "(s_0..s_2n); use the Stieltjes path or truncate the last block"
            )
        return self.s.kappa

    def _theta(self, j: int) -> Array:
        # the Theta inside kappa_j: Theta_{j//2} of s at even j, of the shift at odd j
        if j not in self._thetas:
            s, k = self.shift if j % 2 else self.s, j // 2
            # Theta_k reads s_0..s_{2k-1}, and its pinv cannot factor a NaN or
            # an inf: no number stands for it.  The block norms, NaN exactly
            # for such a block, tell without another pass over the blocks
            if any(math.isnan(f) for f, _ in s.norms[: 2 * k]):
                value = np.full((s.q, s.q), np.nan, dtype=complex)
            else:
                value = theta(s, k, self.t)
                if k and self._hermitian[j - 1]:
                    # Theta_k reads s_0..s_{j-1}, which pass: its exact value
                    # is Hermitian (theta may have symmetrized it already, and
                    # herm_part leaves a Hermitian matrix's bits as they are)
                    value = herm_part(value)
            self._thetas[j] = _frozen(value)
        return self._thetas[j]

    def u(self, j: int) -> Array:
        """u_j, the lowest admissible block at index j + 1; u_{-1} = 0."""
        if j == -1:
            return np.zeros((self.s.q, self.s.q), dtype=complex)
        if j % 2 == 1:
            return self._theta(j + 1).copy()
        # complex128 like the shift's blocks, whatever the type of alpha
        base = (self.alpha * self.s.stack[j]).astype(complex, copy=False)
        return base if j == 0 else base + self._theta(j + 1)

    def kappa(self, j: int) -> Array:
        """kappa_j: L_{j/2} of s for even j, L_{(j-1)/2} of the shift for odd j."""
        return (self.shift.stack[j - 1] if j % 2 else self.s.stack[j]) - self._theta(j)

    def _report_levels(self) -> range:
        # the slack indices j a report shows: every one on the half line, the
        # last two on the line
        m = self.top()
        return range(m + 1) if self.step == 1 else range(max(m - 2, 0), m + 1, 2)

    @cached_property
    def kappa_stack(self) -> Array:
        """kappa_j for each slack index j a report shows, as one read-only stack."""
        return _frozen(np.array([self.kappa(j) for j in self._report_levels()]))

    @cached_property
    def u_stack(self) -> Array:
        """u_{j-1} for each slack index j a report shows, as one read-only stack."""
        # alpha s_{2k} on an inf block leaves a NaN, as in the shift: quiet,
        # once per stack rather than once per level
        with np.errstate(invalid="ignore"):
            return _frozen(np.array([self.u(j - 1) for j in self._report_levels()]))

    def canonical(self) -> MomentSequence:
        """The sequence with its last block replaced by R_m, in a stack of its own."""
        R = self._r(self.top())
        return object.__new__(MomentSequence)._hold(np.concatenate((self.s.stack[:-1], R[None])))

    def nnd(self, m: int) -> bool:
        """Is s_0..s_m nonnegative definite?

        s_0..s_m must pass the Hermitian test (``_hermitian``), and H_{m//2}
        of s be PSD, and on the half line H_{(m-1)//2} of the shift too.
        """
        if m not in self._nnds:
            verdict = self._hermitian[m] and self._psd(self.s, m // 2)
            if verdict and self.alpha is not None and m > 0:
                verdict = self._psd(self.shift, (m - 1) // 2)
            self._nnds[m] = verdict
        return self._nnds[m]

    def _psd(self, s: MomentSequence, n: int) -> bool:
        # is H_n of s PSD?  Its blocks passed the Hermitian test
        return _psd_floor(_lapack("eigvalsh", herm_part(block_hankel(s, n))), self.t)

    def _spectrum(self, j: int) -> _Spectrum:
        # the one record of kappa_j, which every scale it is judged at reads
        if j not in self._spectra:
            self._spectra[j] = _Spectrum(self.kappa(j))
        return self._spectra[j]

    def _clipped(self, m: int) -> tuple[Array, Array, Array, Subspace]:
        # kappa_m and kappa_{m-step} are differences at the block scale of
        # s_0..s_m and carry its rounding noise, not noise at their own
        # (possibly tiny) norm: kappa_m's clip and ran kappa_{m-step} are
        # both taken at that scale.  (clip, w, U, V): kappa_m's clip with the
        # banded eigenvalues and eigenvectors it is built from, and V
        scale, t = self._scale(self._sizes[m]), self.t
        w, U = self._spectrum(m)._band(scale, t)
        return _rebuilt(w, U), w, U, self._spectrum(m - self.step).range(scale, t)

    @cached_property
    def extendable(self) -> bool:
        """Is the whole sequence a section of a longer nonnegative definite one?

        At a slack index m: s_0..s_m must be nonnegative definite and, for
        m > 0, kappa_m PSD with ran kappa_m inside ran kappa_{m-step}.  At an
        odd m the plain tower has no slack: the minimal completion
        s_{m+1} = u_m must leave the sequence nonnegative definite.
        """
        m = self.s.kappa
        if m % self.step:
            # u_m reads s_0..s_m, and is Hermitian once they pass
            return self._hermitian[m] and self._psd(self.s.appended(self.u(m)), (m + 1) // 2)
        if m == 0 or not self.nnd(m):
            return self.nnd(m)
        # nnd(m) holds: s_0..s_{m-1} is extendable (s_m extends it) and
        # kappa_m, the Schur complement of the last Hankel matrix, is PSD
        try:
            k_m, *_, V = self._clipped(m)
        except NotPSD:
            return False
        return V.contains(k_m, self.t)

    def r(self, m: int) -> Array:
        """R_m, the tight upper bound for s_m (R_0 = s_0); s_0..s_m must be nnd."""
        # R_0 is the block s_0, handed out read-only as every block is
        return self._r(m).copy() if m else self._r(m)

    def _r(self, m: int) -> Array:
        # R_m as held, read-only
        if not self.nnd(m):
            raise self._not_nnd(
                f"the sequence s_0..s_{'2n' if self.step == 2 else 'm'} "
                f"is not {self._name} nonnegative definite"
            )
        if m == 0:
            return self.s.stack[0]
        if m not in self._rs:
            # the clip is PSD and exactly Hermitian, and its record holds its
            # factorization: the Schur step neither tests nor factorizes it again
            self._rs[m] = _frozen(self.u(m - 1) + _complement(*self._clipped(m), self.t).S)
        return self._rs[m]

    def member(self, t_last, bound: str) -> bool:
        """Is t_last in the admissible interval for the last block: lower <= t_last <= upper?

        lower is u_{m-1}; upper is s_m for ``bound == self.given`` and R_m for
        "r_upper".  Both comparisons read the ends ``_end`` holds and take
        one ``eigvalsh`` of the two differences, stacked.
        """
        t = self.t
        m = self.top()
        if not self.nnd(m):
            raise self._not_nnd(f"the reference sequence is not {self._name} nonnegative definite")
        T = as_matrix(t_last)
        q = self.s.q
        if T.shape != (q, q):
            raise DimensionMismatch(f"candidate block has shape {T.shape}, expected {(q, q)}")
        checked = _checked(T, t, "candidate last block must be Hermitian")
        if bound == "r_upper":
            # R_m is evaluated, and raises, before any comparison
            self._r(m)
        elif bound != self.given:
            raise ValueError(f"bound must be '{self.given}' or 'r_upper'")
        return _loewner_between(self._end("lower"), checked, self._end(bound), t)

    def _end(self, name: str) -> tuple[Array, float]:
        """(Hermitian part, ||end||_F) of the interval end ``name``, built once.

        The ends are u_{m-1} ("lower"), the given s_m and R_m ("r_upper").
        ``member`` reads them once s_0..s_m is nonnegative definite, so they
        passed the tower's Hermitian test, and none is tested again.
        """
        if name not in self._ends:
            m, given = self.s.kappa, name == self.given
            end = self.s.stack[m] if given else self.u(m - 1) if name == "lower" else self._r(m)
            self._ends[name] = _frozen(herm_part(end)), self.s.norms[m][0] if given else frobenius(end)
        return self._ends[name]

    def conditions(self, r) -> tuple[bool, bool, bool]:
        """The class test against r, one verdict per condition.

        r agrees with s below index m; r_m - R_m is PSD; and ran(r_m - R_m)
        meets ran kappa_{m-step} only in 0.
        """
        s = self.s
        r = MomentSequence.coerce(r)
        if len(s) != len(r) or s.q != r.q:
            raise ShapeMismatch(
                f"sequences differ in shape: ({len(s)} blocks of size {s.q}) vs "
                f"({len(r)} blocks of size {r.q})"
            )
        m = self.top()
        if m < self.step:
            raise TooShort(self._too_short)
        t = self.t
        R = self._r(m)
        # R_m is defined, so s_0..s_m passed the Hermitian test: they are
        # finite, and equal blocks differ by exactly 0.  One array_equal
        # spares m norms of differences: without it, the hamburger
        # workload's throughput falls 15% and its p95 rises 55%
        prefix_equal = np.array_equal(r.stack[:m], s.stack[:m]) or all(
            frobenius(r[j] - s.stack[j]) <= t.threshold(s.norms[j][0]) for j in range(m)
        )
        # judge the differences at the block scale, as the slacks are judged
        size = frobenius(r[m])
        scale = self._scale(max(self._sizes[m], size))
        D = r[m] - R
        spectrum = _Spectrum(D)
        if math.isnan(spectrum.skew):
            # r_m holds a NaN or an inf: as for the tower's other verdicts on
            # such blocks, no number stands for it, and nothing is factorized
            return prefix_equal, False, False
        # one eigvalsh ranks the difference at the band its PSD verdict takes;
        # one that fails the band stays raw, and its rank is numerical_rank's
        # rule on its eigenvalues.  One that fails the Hermitian test is
        # ranked by meets_trivially alone: 0 is its lower bound
        try:
            difference_psd, rank_d = True, spectrum.rank(scale, t)
        except NotPSD:
            difference_psd, rank_d = False, spectrum.unbanded_rank(t)
        except NotHermitian:
            difference_psd, rank_d = False, 0
        k_prev = self._spectrum(m - self.step)
        rank_k = k_prev.rank(scale, t)
        # a zero clip meets every range only in 0, and ranks that add up to
        # more than q meet: both read the counts, before the range is built.
        # meets_trivially alone instead raises lapack_calls_per_op by 8.8%
        # (hamburger) and 7.3% (stieltjes)
        if (difference_psd and not rank_d) or not rank_k:
            disjoint = True
        elif rank_d + rank_k > s.q:
            disjoint = False
        else:
            disjoint = k_prev.range(scale, t).meets_trivially(D, t, scale)
        return prefix_equal, difference_psd, disjoint


# Hamburger (True) and Stieltjes: slack step, name of the given bound, the
# error and wording when not nonnegative definite, and the class test's
# complaint about too short a sequence
_PROBLEMS = {
    True: (2, "given_s2n", NotHNND, "Hankel", "the class test needs kappa = 2n with n >= 1"),
    False: (1, "given_sm", NotKNND, "Stieltjes", "the class test needs at least two blocks"),
}


def l_matrix(s, n: int, tol=None) -> Array:
    """L_n = s_{2n} - Theta_n; PSD whenever the sequence is nonnegative definite."""
    s = MomentSequence.coerce(s)
    if 2 * n > s.kappa:
        raise IndexOutOfRange(f"l_matrix({n}) needs blocks up to {2 * n}")
    if n < 0:
        raise IndexOutOfRange(f"l_matrix order {n} is negative")
    return Tower.of(s, tol).kappa(2 * n)


def is_hnnd(s, tol=None) -> bool:
    """Is H_n PSD?  Only defined for odd-length sequences (kappa = 2n)."""
    tower = Tower.of(s, tol)
    return tower.nnd(tower.top())


def is_hnnde(s, tol=None) -> bool:
    """Is the sequence a section of a longer nonnegative definite sequence?

    Both parities are accepted.  Odd length (kappa = 2n): the sequence must
    be nonnegative definite with ran L_n inside ran L_{n-1}.  Even length:
    the candidate s_{2n} := Theta_n (the minimal completion, forcing L_n = 0)
    must give a nonnegative definite sequence.
    """
    return Tower.of(s, tol).extendable


def r_upper(s, n: int, tol=None) -> Array:
    """R_n = Theta_n + S(L_n, ran L_{n-1}), the tight upper bound for s_{2n}.

    Requires (s_0, ..., s_2n) to be nonnegative definite; R_0 = s_0.
    """
    s = MomentSequence.coerce(s)
    t = as_tolerance(tol)
    if 2 * n > s.kappa:
        raise IndexOutOfRange(f"r_upper({n}) needs blocks up to {2 * n}")
    if n < 0:
        raise IndexOutOfRange(f"prefix length {2 * n + 1} outside 1..{len(s)}")
    # R_2n reads s_0..s_2n alone, so the tower of s answers for its prefix
    return Tower.of(s, t).r(2 * n)


def canonical_rep(s, tol=None) -> MomentSequence:
    """The sequence with its last block replaced by R_n.

    The result is extendable, lies in the same class as the input, and is the
    unique extendable member of that class.
    """
    return Tower.of(s, tol).canonical()


def in_extension_interval(s, t_last, bound: str = "given_s2n", tol=None) -> bool:
    """Is t_last an admissible last block, relative to the chosen upper bound?

    bound="given_s2n" tests Theta_n <= t <= s_{2n} (membership in the set of
    last blocks of nonnegative definite sequences below the given one);
    bound="r_upper" tests Theta_n <= t <= R_n (the extendable analogue).
    """
    return Tower.of(s, tol).member(t_last, bound)


def same_class(s, r, tol=None) -> bool:
    """Do s and r share the same class of nonnegative definite extensions?

    True iff r agrees with s below the last block, r_{2n} - R_n is PSD, and
    ran(r_{2n} - R_n) meets ran L_{n-1} only in 0.
    """
    return all(Tower.of(s, tol).conditions(r))


def classify_hamburger(s, tol=None) -> HamburgerReport:
    """Gather the full Hamburger-side report for one sequence."""
    s = MomentSequence.coerce(s)
    tower = Tower.of(s, as_tolerance(tol))
    m = tower.top()
    R = tower.r(m) if tower.nnd(m) else None
    return HamburgerReport(
        q=s.q,
        n=m // 2,
        is_hnnd=tower.nnd(m),
        is_hnnde=tower.extendable,
        theta=tower.u_stack[-1].copy(),
        L=tower.kappa_stack[-1].copy(),
        L_prev=tower.kappa_stack[0].copy() if m >= 2 else None,
        R=R,
        canonical=tower.canonical() if R is not None else None,
    )
