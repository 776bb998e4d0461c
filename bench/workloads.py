"""The four workloads: their input grids, seeded values and fixed fault slices.

Each build_* function returns the list of ops of one round.  The grid of input
shapes is fixed; ``seed`` draws only the values (atoms, weights, matrices,
subspaces), so the work per round barely changes from seed to seed.  The
fault slices do not depend on the seed at all.
"""

from __future__ import annotations

import os

import numpy as np

import gen
import moments
from cliops import Files, invalid_ops, moment_ops, schur_op
from dense import SchurCase
from dense import case_ops as schur_case_ops

ALPHAS = (-1.0, -0.5, 0.5, 1.0)

# Fault slices: fixed inputs, independent of the seed, on which classify_*
# fails with the named fault at this revision.  The entries are (stream
# index, fault) on fixed streams.  F1 and F2 come from exact moments of q = 2
# measures with up to five atoms drawn uniformly (so atoms may crowd), at
# lengths past the range the default tolerance holds for.  F1: NotPSD from
# psd_clip inside r_upper* on a sequence that is_hnnd / is_knnd accept.
# F2: exact moments reported not extendable.  F3 comes from length-6
# Stieltjes sequences of three separated atoms with Gram weights: they are
# reported extendable, yet R is below their last block (see gram_case).
FAULT_SEED = 20171218
FAULT_SLICES = {
    "hamburger": ((296, "F1"), (722, "F1"), (1412, "F1"), (65, "F2"), (102, "F2"), (313, "F2")),
    "stieltjes": ((74, "F1"), (218, "F1"), (77, "F1"), (0, "F2"), (3, "F2"), (12, "F2"),
                  (309, "F3"), (599, "F3"), (651, "F3")),
}


def gram_case(index):
    """Entry ``index`` of the fixed F3 stream: q = 2, length 6, three atoms, Gram weights."""
    rng = np.random.default_rng([FAULT_SEED, 2, index])
    alpha = ALPHAS[int(rng.integers(0, 4))]
    atoms = [alpha + t for t in gen.separated_atoms(rng, 3, gen.HALF_LINE_GRID)]
    blocks = gen.moments(atoms, gen.psd_weights(rng, 2, 3, conditioned=False), 6)
    lower = gen.u_lower(blocks, alpha, 4)
    prev = blocks[4] - gen.u_lower(blocks, alpha, 3)
    return moments.Case(moments.STIELTJES, blocks, alpha, True, lower, False, prev)


def fault_case(mode, index):
    """Entry ``index`` of the fixed F1/F2 stream: Hamburger lengths 9-13, Stieltjes 8-14."""
    rng = np.random.default_rng([FAULT_SEED, 0 if mode == "hamburger" else 1, index])
    k = int(rng.integers(1, 6))
    if mode == "hamburger":
        length = int(rng.choice([9, 11, 13]))
        blocks = gen.hamburger_measure(rng, 2, length, k, crowd=True)
        n = (length - 1) // 2
        lower = blocks[-1] if n >= k else gen.theta(blocks, n)
        return moments.Case(moments.HAMBURGER, blocks, None, True, lower, False, None)
    length = int(rng.integers(8, 15))
    alpha = ALPHAS[int(rng.integers(0, 4))]
    blocks = gen.stieltjes_measure(rng, alpha, 2, length, k, crowd=True)
    lower = blocks[-1] if (length - 1) // 2 >= k else gen.u_lower(blocks, alpha, length - 2)
    return moments.Case(moments.STIELTJES, blocks, alpha, True, lower, False, None)


def _fault_ops(M, mode):
    ops = []
    for index, fault in FAULT_SLICES[mode]:
        case = gram_case(index) if fault == "F3" else fault_case(mode, index)
        op = moments.classify_op(M, case)
        op.fault_slice = fault
        ops.append(op)
    return ops


def hamburger_cells():
    """(q, length, atoms or None for non-extendable): every odd length 3-13."""
    cells = []
    i = 0
    for q in (1, 2, 4):
        for length in (3, 5, 7, 9, 11, 13):
            cells.append((q, length, 1 + i % 5))
            cells.append((q, length, 1 + (i + 2) % 5))
            if length >= 5:
                cells.append((q, length, None))
            i += 1
    return cells


def stieltjes_cells():
    """(q, length, atoms or None, alpha): long sequences only with few atoms."""
    cells = []
    i = 0
    for q, lengths in ((1, range(2, 12)), (2, range(2, 8))):
        for length in lengths:
            top = 2 if length >= 8 else 4 if q == 1 else 3
            cells.append((q, length, 1 + i % top, ALPHAS[i % 4]))
            i += 1
    for q, lengths in ((1, (13, 15, 17, 19, 21)), (2, (9, 13, 17, 21))):
        for length in lengths:
            cells.append((q, length, 1, ALPHAS[i % 4]))
            i += 1
    for q in (1, 2):
        for length in (4, 7, 11, 16, 21):
            cells.append((q, length, None, ALPHAS[i % 4]))
            i += 1
    return cells


def build_hamburger(M, seed, workdir):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for q, length, k in hamburger_cells():
        if k is None:
            case = moments.hamburger_nonextendable_case(rng, q, length)
        else:
            case = moments.hamburger_measure_case(rng, q, length, k)
        ops += moments.case_ops(M, rng, case)
    return ops + _fault_ops(M, "hamburger")


def build_stieltjes(M, seed, workdir):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for q, length, k, alpha in stieltjes_cells():
        if k is None:
            case = moments.stieltjes_nonextendable_case(rng, alpha, q, length)
        else:
            case = moments.stieltjes_measure_case(rng, alpha, q, length, k)
        ops += moments.case_ops(M, rng, case)
    return ops + _fault_ops(M, "stieltjes")


def schur_cells():
    """(q, rank of A, dim V): ranks 1, q/2, q against dims 0, 1, q/2, q-1, q."""
    cells = []
    for q, repeats in ((8, 2), (32, 2), (128, 1)):
        for _ in range(repeats):
            for rank in (1, q // 2, q):
                for d in (0, 1, q // 2, q - 1, q):
                    cells.append((q, rank, d))
    return cells


def build_schur(M, seed, workdir):
    rng = np.random.default_rng([seed, 3])
    ops = []
    for q, rank, d in schur_cells():
        ops += schur_case_ops(M, SchurCase(rng, q, rank, d))
    return ops


def build_cli(M, seed, workdir):
    rng = np.random.default_rng([seed, 4])
    files = Files(os.path.join(workdir, "cli-inputs"))
    ops = []
    for i in range(14):
        q, length = (1, 2)[i % 2], (3, 5, 7)[i % 3]
        if i % 4 == 3:
            case = moments.hamburger_nonextendable_case(rng, q, max(length, 5))
        else:
            case = moments.hamburger_measure_case(rng, q, length, 1 + i % 3)
        ops += moment_ops(M, rng, files, case, alpha_flag=False)
    for i in range(14):
        q, length, alpha = (1, 2)[i % 2], (3, 4, 5, 6)[i % 4], ALPHAS[i % 4]
        if i % 4 == 3:
            case = moments.stieltjes_nonextendable_case(rng, alpha, q, length)
        else:
            case = moments.stieltjes_measure_case(rng, alpha, q, length, 1 + i % 3)
        ops += moment_ops(M, rng, files, case, alpha_flag=i % 2 == 1)
    for i in range(16):
        q = (2, 4, 8)[i % 3]
        ops.append(schur_op(M, rng, files, q, 1 + i % q, i % (q + 1)))
    for _ in range(2):
        ops += invalid_ops(M, rng, files)
    return ops


WORKLOADS = {
    "hamburger": build_hamburger,
    "stieltjes": build_stieltjes,
    "schur-dense": build_schur,
    "cli": build_cli,
}
