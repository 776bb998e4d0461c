"""Seeded inputs and their reference values, built with numpy alone.

Every input has its key property by construction: PSD matrices are Gram
products G^H G, subspaces come from QR, moment sequences are exact moments of
discrete matrix measures, and the non-extendable sequences break the range
condition on purpose.  Nothing here calls the package under test, so the
values below can judge its outputs.
"""

from __future__ import annotations

import numpy as np


def complex_normal(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def hermitian(M):
    return 0.5 * (M + M.conj().T)


def gram(rng, q, rank):
    """A q x q PSD matrix of the given rank and its factor G (A = G^H G)."""
    G = complex_normal(rng, rank, q)
    return hermitian(G.conj().T @ G), G


def orthonormal(rng, q, d):
    """A q x d orthonormal basis of a random d-dimensional subspace."""
    if d == 0:
        return np.zeros((q, 0), dtype=complex)
    Q, _ = np.linalg.qr(complex_normal(rng, q, d))
    return Q


def complement_basis(Q):
    """An orthonormal basis of the orthogonal complement of ran Q."""
    q, d = Q.shape
    if d == 0:
        return np.eye(q, dtype=complex)
    U, _, _ = np.linalg.svd(Q, full_matrices=True)
    return U[:, d:]


def moments(atoms, weights, length):
    """s_j = sum_i x_i^j W_i for j < length."""
    q = weights[0].shape[0]
    out = []
    for j in range(length):
        s = np.zeros((q, q), dtype=complex)
        for x, W in zip(atoms, weights):
            s = s + (x ** j) * W
        out.append(s)
    return out


def weight(rng, q, rank):
    """A q x q PSD weight of the given rank, nonzero eigenvalues in [0.5, 1.5]."""
    U = orthonormal(rng, q, rank)
    return hermitian((U * rng.uniform(0.5, 1.5, size=rank)) @ U.conj().T)


def psd_weights(rng, q, n_atoms, conditioned):
    """Weights of random rank: well conditioned, or Gram products of any conditioning."""
    make = weight if conditioned else lambda rng, q, r: gram(rng, q, r)[0]
    return [make(rng, q, int(rng.integers(1, q + 1))) for _ in range(n_atoms)]


def separated_atoms(rng, n_atoms, grid):
    """n_atoms distinct grid points, each moved by at most 0.1."""
    picks = rng.choice(len(grid), size=n_atoms, replace=False)
    return [grid[i] + float(rng.uniform(-0.1, 0.1)) for i in sorted(picks)]


# The seeded inputs stay where the default tolerance holds: atoms at least
# 0.6 apart and weights with eigenvalues in [0.5, 1.5] (see README).  The
# unconditioned variants (crowd=True) draw atoms uniformly and Gram weights,
# as the package's own tests do; the fault slices come from them.
LINE_GRID = (-1.8, -1.0, -0.2, 0.6, 1.4)
HALF_LINE_GRID = (0.3, 1.1, 1.9, 2.7)


def hamburger_measure(rng, q, length, n_atoms, crowd=False):
    """Exact moments of a measure with n_atoms atoms on [-2, 2]."""
    if crowd:
        atoms = list(rng.uniform(-2.0, 2.0, size=n_atoms))
    else:
        atoms = separated_atoms(rng, n_atoms, LINE_GRID)
    return moments(atoms, psd_weights(rng, q, n_atoms, not crowd), length)


def stieltjes_measure(rng, alpha, q, length, n_atoms, crowd=False):
    """Exact moments of a measure with n_atoms atoms in (alpha, alpha + 2.8]."""
    if crowd:
        atoms = [alpha + t for t in rng.uniform(0.05, 2.5, size=n_atoms)]
    else:
        atoms = [alpha + t for t in separated_atoms(rng, n_atoms, HALF_LINE_GRID)]
    return moments(atoms, psd_weights(rng, q, n_atoms, not crowd), length)


def rank1_atom_prefix(rng, q, length, low, high):
    """Moments of one rank-1 atom x v v^H, and that atom's next moment."""
    x = float(rng.uniform(low, high))
    v = complex_normal(rng, q, 1)
    W = v @ v.conj().T
    return moments([x], [W], length), (x ** length) * W


def unit_vector(rng, q):
    w = complex_normal(rng, q, 1).reshape(-1)
    return w / np.linalg.norm(w)


def nonextendable(rng, q, length, low, high):
    """A nonnegative definite sequence that is not extendable, with its lower end.

    The first length-1 blocks are the moments of one rank-1 atom, so every
    slack below the last level is 0 once the tower has two levels (Hamburger
    length >= 5, Stieltjes length >= 4) and the lowest admissible last block
    is that atom's own next moment.  Adding w w^H to it keeps the Hankel
    matrices PSD but puts the last slack outside the zero range of the one
    before, so no longer nonnegative definite sequence starts with it.
    Returns (blocks, lower, w).
    """
    prefix, lower = rank1_atom_prefix(rng, q, length - 1, low, high)
    w = unit_vector(rng, q)
    return prefix + [lower + np.outer(w, w.conj())], lower, w


# --- reference computations -------------------------------------------------


def hankel(blocks, n):
    return np.vstack([np.hstack([blocks[j + k] for k in range(n + 1)]) for j in range(n + 1)])


def theta(blocks, n):
    """Theta_n = z H_{n-1}^+ y by numpy's own pseudo-inverse."""
    q = blocks[0].shape[0]
    if n == 0:
        return np.zeros((q, q), dtype=complex)
    H = hankel(blocks, n - 1)
    y = np.vstack(blocks[n:2 * n])
    z = np.hstack(blocks[n:2 * n])
    return hermitian(z @ np.linalg.pinv(H, rcond=1e-12, hermitian=True) @ y)


def shifted(blocks, alpha):
    return [-alpha * blocks[j] + blocks[j + 1] for j in range(len(blocks) - 1)]


def u_lower(blocks, alpha, m):
    """u_m: Theta of the plain tower (m odd) or alpha s_m + Theta of the shift."""
    q = blocks[0].shape[0]
    if m == -1:
        return np.zeros((q, q), dtype=complex)
    if m % 2 == 1:
        return theta(blocks, (m + 1) // 2)
    k = m // 2
    return alpha * blocks[2 * k] + theta(shifted(blocks, alpha), k)


def min_eig(M):
    return float(np.linalg.eigvalsh(hermitian(M))[0])


def psd(M, tol):
    return min_eig(M) >= -tol


def leq(A, B, tol):
    """A <= B in the Loewner order, within tol."""
    return min_eig(B - A) >= -tol


def clear_null_vector(rng, M, scale):
    """A unit vector orthogonal to ran M, if M's rank is clear-cut; else None.

    The rank is accepted only with a wide gap: every kept singular value is
    above 1e-6 scale and every dropped one below 1e-11 scale.
    """
    q = M.shape[0]
    U, s, _ = np.linalg.svd(M)
    kept = s > 1e-8 * scale
    if np.any((s > 1e-11 * scale) & (s < 1e-6 * scale)) or kept.all():
        return None
    W = U[:, int(kept.sum()):]
    w = W @ complex_normal(rng, W.shape[1], 1)
    return (w / np.linalg.norm(w)).reshape(-1)
