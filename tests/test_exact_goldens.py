"""The golden reports' matrices against their exact values, computed in rationals.

The exact values come from sympy, on the input files' numbers read as exact
rationals, and from the defining formulas rather than from the route the
library takes:

- S(A, V) by the block formula A - A W (W^H A W)^+ W^H A, with W a basis of
  V-perp; any generalized inverse gives the same product, so ``Matrix.pinv``
  needs no tolerance;
- the fiber projector as I - N^+ N with N = (I - P_V) sqrt(A), where the
  root of a 2 x 2 PSD A is (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A));
- on the half line, Theta_n = y^H H_{n-1}^+ y of the blocks and of the
  shifted blocks -alpha s_j + s_{j+1}, the slacks kappa_j, u_{m-1} and
  R_m = u_{m-1} + S(kappa_m, ran kappa_{m-1}).

A printed number passes when it lies within 4 ulps of its matrix's scale
(its largest exact entry, at least 1) of the exact value.
"""

import json
from pathlib import Path

import pytest
import sympy as sp

GOLDEN = Path(__file__).parent / "golden"
ULPS = 4 * sp.Rational(2) ** -52


def read(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def exact(M) -> sp.Matrix:
    """A matrix of the input files' numbers, each the rational its float holds."""
    return sp.Matrix([[sp.Rational(x) for x in row] for row in M])


def complement_in(A: sp.Matrix, V: sp.Matrix) -> sp.Matrix:
    """S(A, ran V) by the block formula over a basis W of V-perp."""
    W = V.H.nullspace()
    if not W:
        return A
    W = sp.Matrix.hstack(*W)
    return A - A * W * (W.H * A * W).pinv() * W.H * A


def theta(s: list, n: int) -> sp.Matrix:
    """Theta_n = y^H H_{n-1}^+ y, y the block column s_n..s_{2n-1}."""
    H = sp.Matrix(sp.BlockMatrix([[s[j + k] for k in range(n)] for j in range(n)]))
    y = sp.Matrix(sp.BlockMatrix([[s[n + j]] for j in range(n)]))
    return y.H * H.pinv() * y


def assert_printed(printed, value: sp.Matrix):
    """Each printed [re, im] entry is within 4 ulps of the scale of the exact value."""
    scale = max([1] + [abs(x) for x in value])
    for i, row in enumerate(printed):
        for j, (re, im) in enumerate(row):
            error = abs(sp.Rational(re) + sp.I * sp.Rational(im) - value[i, j])
            assert error <= ULPS * scale, (i, j, re, im, value[i, j])


def test_the_schur_golden_holds_the_exact_complement_and_fiber():
    case, out = read("schur_in.json"), read("schur_out.json")
    A, V = exact(case["A"]), exact(case["V"])
    S = complement_in(A, V)
    assert S == sp.Matrix([[1, 0], [0, 0]])
    delta = sp.sqrt(A.det())
    root = (A + delta * sp.eye(2)) / sp.sqrt(A.trace() + 2 * delta)
    N = (sp.eye(2) - V * (V.H * V).inv() * V.H) * root
    psi = sp.simplify(sp.eye(2) - N.pinv() * N)
    assert psi == sp.Matrix([[4, -2], [-2, 1]]) / 5
    assert_printed(out["S"], S)
    assert_printed(out["P_fiber"], psi)
    assert_printed(out["complement"], A - S)


@pytest.mark.parametrize(
    "name", ["stieltjes_interval_canonical_member_out.json", "stieltjes_interval_canonical_nonmember_out.json"]
)
def test_the_canonical_stieltjes_intervals_hold_the_exact_u2_and_r3(name):
    case, out = read("seq_201_alpha.json"), read(name)
    s = [exact(b) for b in case["blocks"]]
    alpha = sp.Rational(case["alpha"])
    shift = [-alpha * s[j] + s[j + 1] for j in range(len(s) - 1)]
    # m = 3: u_2 = alpha s_2 + Theta_1(shift), kappa_3 = shift_2 - Theta_1(shift),
    # and kappa_2 = s_2 - Theta_1(s), of rank 1
    u2 = alpha * s[2] + theta(shift, 1)
    kappa2 = s[2] - theta(s, 1)
    assert kappa2.rank() == 1
    R3 = u2 + complement_in(shift[2] - theta(shift, 1), kappa2)
    assert u2 == sp.Matrix([[1485, 1548], [1548, 1652]]) / 62
    assert R3 == sp.Matrix([[27, 27], [27, 28]])
    assert out["alpha"] == case["alpha"]
    assert_printed(out["lower"], u2)
    assert_printed(out["upper"], R3)
