"""Shared generators for the test suite.

Everything random is seeded by the caller, and every generated object has its
key property guaranteed *by construction* rather than by the code under test:
PSD matrices are Gram products, subspaces come from QR, moment sequences are
exact moments of discrete matrix measures, and the deliberately
non-extendable sequences violate the defining range condition in a direction
chosen orthogonal to it.
"""

from collections import Counter

import numpy as np
import pytest

from momentschur import MomentSequence, Subspace


@pytest.fixture
def factorizations(monkeypatch):
    """Count np.linalg.eigh, eigvalsh, svd, qr and cholesky calls by name."""
    counts = Counter()
    for name in ("eigh", "eigvalsh", "svd", "qr", "cholesky"):
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_psd(rng, q, rank):
    """A q x q PSD matrix of the given rank, as a Gram product G^H G."""
    if rank == 0:
        return np.zeros((q, q), dtype=complex)
    G = random_complex(rng, rank, q)
    A = G.conj().T @ G
    return 0.5 * (A + A.conj().T)


def random_subspace(rng, q, d):
    """A d-dimensional subspace of C^q with a QR-orthonormalized basis."""
    if d == 0:
        return Subspace.zero(q)
    Q, _ = np.linalg.qr(random_complex(rng, q, d))
    return Subspace(Q[:, :d])


def psd_root(A):
    """The PSD square root of a Hermitian PSD A, from numpy's eigh.

    Eigenvalues below 0, which only rounding leaves there, are clamped to 0.
    """
    w, U = np.linalg.eigh(A)
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T


def random_unitary(rng, q):
    Q, R = np.linalg.qr(random_complex(rng, q, q))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_contraction(rng, q):
    """A random K with 0 <= K <= I, built as U diag(u) U^H with u in [0,1]."""
    U = random_unitary(rng, q)
    u = rng.uniform(0.0, 1.0, size=q)
    K = (U * u) @ U.conj().T
    return 0.5 * (K + K.conj().T)


def measure_moments(atoms, weights, length):
    """Exact moments s_j = sum_i x_i^j A_i of a discrete matrix measure."""
    q = np.asarray(weights[0]).shape[0] if weights else 1
    blocks = []
    for j in range(length):
        s = np.zeros((q, q), dtype=complex)
        for x, A in zip(atoms, weights):
            s = s + (x ** j) * np.asarray(A, dtype=complex)
        blocks.append(s)
    return MomentSequence(blocks)


def random_measure(rng, q, n_atoms, low=-2.0, high=2.0, max_rank=None):
    """Random atoms on [low, high] with PSD matrix weights of random rank."""
    atoms = rng.uniform(low, high, size=n_atoms)
    ranks = rng.integers(1, (max_rank or q) + 1, size=n_atoms)
    weights = [random_psd(rng, q, r) for r in ranks]
    return list(atoms), weights


def hamburger_measure_sequence(rng, q, length, n_atoms=None, max_rank=None):
    """Moments of a random measure on the line: H-nnd and extendable."""
    if n_atoms is None:
        n_atoms = int(rng.integers(1, 4))
    atoms, weights = random_measure(rng, q, n_atoms, max_rank=max_rank)
    return measure_moments(atoms, weights, length)


def stieltjes_measure_sequence(rng, alpha, q, length, n_atoms=None, max_rank=None):
    """Moments of a random measure on [alpha, inf): K-nnd and extendable."""
    if n_atoms is None:
        n_atoms = int(rng.integers(1, 4))
    shifts = rng.uniform(0.0, 2.5, size=n_atoms)
    ranks = rng.integers(1, (max_rank or q) + 1, size=n_atoms)
    weights = [random_psd(rng, q, r) for r in ranks]
    return measure_moments([alpha + t for t in shifts], weights, length)


def unit_vector_outside_range(rng, M):
    """A unit vector orthogonal to ran M, or None if M has full rank."""
    M = np.asarray(M, dtype=complex)
    q = M.shape[0]
    if M.size and np.linalg.norm(M) > 0:
        U, s, _ = np.linalg.svd(M)
        r = int(np.count_nonzero(s > 1e-10 * max(1.0, s[0])))
        W = U[:, r:]
    else:
        W = np.eye(q, dtype=complex)
    if W.shape[1] == 0:
        return None
    c = random_complex(rng, W.shape[1], 1)
    w = W @ c
    return (w / np.linalg.norm(w)).reshape(-1)


def nonextendable_hamburger(rng, q, n):
    """An H-nnd sequence of length 2n+1 that is provably not extendable.

    The prefix s_0..s_{2n-1} comes from a one-atom rank-1 measure, so
    L_{n-1} has rank <= 1 < q.  The last block Theta_n + w w^H with w
    orthogonal to ran L_{n-1} keeps the Hankel matrix PSD (the slack over
    Theta_n is PSD) but puts ran L_n outside ran L_{n-1}.
    """
    from momentschur import l_matrix, theta

    x = float(rng.uniform(-2.0, 2.0))
    v = random_complex(rng, q, 1)
    prefix = measure_moments([x], [v @ v.conj().T], 2 * n)
    L_prev = l_matrix(prefix, n - 1)
    w = unit_vector_outside_range(rng, L_prev)
    bad_last = theta(prefix, n) + np.outer(w, w.conj())
    return prefix.appended(bad_last)


def nonextendable_stieltjes(rng, alpha, q, m):
    """A K-nnd sequence of length m+1 that is provably not extendable.

    Same idea on the half line: one-atom rank-1 measure prefix keeps
    kappa_{m-1} rank-deficient; the last block u_{m-1} + w w^H with w
    orthogonal to ran kappa_{m-1} makes kappa_m = w w^H leave the range.
    """
    from momentschur import kappa, u_lower

    x = alpha + float(rng.uniform(0.3, 2.0))
    v = random_complex(rng, q, 1)
    prefix = measure_moments([x], [v @ v.conj().T], m)
    k_prev = kappa(prefix, alpha, m - 1)
    w = unit_vector_outside_range(rng, k_prev)
    bad_last = u_lower(prefix, alpha, m - 1) + np.outer(w, w.conj())
    return prefix.appended(bad_last)


def hamburger_class_member(rng, s, eps=1.0):
    """A sequence in the class of s other than the canonical one, or None.

    Members differ from canonical_rep(s) by D >= 0 with
    ran D  meeting  ran L_{n-1} only in 0; we take D = eps * w w^H with w a
    unit vector orthogonal to ran L_{n-1} (None when L_{n-1} is full rank).
    """
    from momentschur import canonical_rep, l_matrix

    n = s.kappa // 2
    w = unit_vector_outside_range(rng, l_matrix(s, n - 1))
    if w is None:
        return None
    c = canonical_rep(s)
    return c.with_last(c[2 * n] + eps * np.outer(w, w.conj()))


def stieltjes_class_member(rng, s, alpha, eps=1.0):
    """Stieltjes analogue of hamburger_class_member."""
    from momentschur import canonical_rep_stieltjes, kappa

    m = s.kappa
    w = unit_vector_outside_range(rng, kappa(s, alpha, m - 1))
    if w is None:
        return None
    c = canonical_rep_stieltjes(s, alpha)
    return c.with_last(c[m] + eps * np.outer(w, w.conj()))
