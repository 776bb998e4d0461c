"""Operations and output checks of the `schur-dense` workload.

A case is a PSD matrix A = G^H G of chosen rank and a subspace V of chosen
dimension, both random.  The reference S(A, V) comes from numpy alone: the
shorted-operator formula V (V^H A^-1 V)^-1 V^H when A is invertible, the
block formula A - A W (W^H A W)^+ W^H A over a basis W of V-perp otherwise.
The variational value is a least-squares minimum over V-perp built from G.
"""

from __future__ import annotations

import numpy as np

import gen
from ops import CheckFailed, Op, expect

CHECK_RTOL = 1e-7


class SchurCase:
    def __init__(self, rng, q, rank, d):
        self.A, G = gen.gram(rng, q, rank)
        self.Q = gen.orthonormal(rng, q, d)
        W = gen.complement_basis(self.Q)
        self.x = gen.complex_normal(rng, q, 1).reshape(-1)
        A, Q = self.A, self.Q
        if d == 0:
            S = np.zeros((q, q), dtype=complex)
        elif d == q:
            S = A.copy()
        elif rank == q:
            S = Q @ np.linalg.inv(Q.conj().T @ np.linalg.inv(A) @ Q) @ Q.conj().T
        else:
            B = W.conj().T @ A @ W
            S = A - A @ W @ np.linalg.pinv(B, rcond=1e-10, hermitian=True) @ W.conj().T @ A
        self.S = gen.hermitian(S)
        if W.shape[1] == 0:
            self.variational = float(np.linalg.norm(G @ self.x) ** 2)
        else:
            c, *_ = np.linalg.lstsq(G @ W, G @ self.x, rcond=None)
            self.variational = float(np.linalg.norm(G @ (self.x - W @ c)) ** 2)
        self.norm = max(1.0, float(np.linalg.norm(A)))
        self.tol = CHECK_RTOL * self.norm


def _check_s(case, S, what):
    tol = case.tol
    S = np.asarray(S)
    expect(S.shape == case.A.shape, f"{what}: S has shape {S.shape}")
    expect(gen.psd(S, tol), f"{what}: S is not PSD")
    expect(gen.leq(S, case.A, tol), f"{what}: S is not below A")
    Q = case.Q
    outside = float(np.linalg.norm(S - Q @ (Q.conj().T @ S)))
    expect(outside <= tol, f"{what}: ran S leaves V by {outside:.3e}")
    err = float(np.linalg.norm(S - case.S))
    expect(err <= tol, f"{what}: S differs from the reference by {err:.3e}")


def _raised(out, what):
    if isinstance(out, BaseException):
        raise CheckFailed(f"{what} raised {type(out).__name__}: {out}")


def case_ops(M, case):
    A, x = case.A, case.x
    V = M.Subspace(case.Q)

    def check_complement(res):
        _raised(res, "schur_complement")
        _check_s(case, res.S, "schur_complement")
        err = float(np.linalg.norm(res.complement - (A - res.S)))
        expect(err <= case.tol, f"schur_complement: complement is not A - S ({err:.3e})")

    def check_basis(S):
        _raised(S, "schur_complement_via_basis")
        _check_s(case, S, "schur_complement_via_basis")

    def split():
        X, Y = M.decompose(A, V)
        return X, Y, M.is_unique_split(A, V, X, Y)

    def check_split(out):
        _raised(out, "decompose")
        X, Y, unique = out
        _check_s(case, X, "decompose")
        expect(unique is True, "is_unique_split rejects the split decompose returned")
        err = float(np.linalg.norm(X + Y - A))
        expect(err <= case.tol, f"decompose: X + Y is off A by {err:.3e}")

    def check_variational(v):
        _raised(v, "variational_value")
        err = abs(float(v) - case.variational)
        tol = case.tol * float(np.linalg.norm(x)) ** 2
        expect(err <= tol, f"variational_value off the least-squares minimum by {err:.3e}")

    return [
        Op("schur.complement", lambda: M.schur_complement(A, V), check_complement),
        Op("schur.via_basis", lambda: M.schur_complement_via_basis(A, V), check_basis),
        Op("schur.decompose_split", split, check_split),
        Op("schur.variational", lambda: M.variational_value(A, V, x), check_variational),
    ]
