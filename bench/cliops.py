"""Operations and output checks of the `cli` workload.

Each op is one in-process call of ``momentschur.cli.main(argv)`` on JSON
files written at set-up, with stdout and stderr captured.  Valid inputs are
small moment sequences and Schur inputs whose verdicts are known by
construction; a small share of invalid inputs must give the exit code the
README's table documents.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from types import SimpleNamespace

import numpy as np

import gen
import moments
from dense import SchurCase, _check_s
from ops import CheckFailed, Op, expect

# documented exit codes
PARSE, NOT_PSD, DIMENSION, EVEN_LENGTH, NOT_HERMITIAN, SHAPE = 2, 3, 4, 5, 6, 7


def matrix_json(M):
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def parse_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def sequence_json(blocks, alpha=None):
    out = {"q": blocks[0].shape[0], "blocks": [matrix_json(b) for b in blocks]}
    if alpha is not None:
        out["alpha"] = alpha
    return out


class Files:
    """Writes the inputs of one run into a directory and names them.

    ``disk_s`` sums the time spent in ``open`` and writing, over all
    instances, for set-up time to leave out: on the development machine the
    same 230 small files took from 0.02 to 0.09 s to write, growing with
    what earlier runs had written and deleted, which no change to the
    package can move.
    """

    disk_s = 0.0

    def __init__(self, directory):
        self.directory = directory
        self.count = 0
        os.makedirs(directory, exist_ok=True)

    def write(self, obj=None, text=None):
        self.count += 1
        path = os.path.join(self.directory, f"in{self.count:04d}.json")
        text = text if text is not None else json.dumps(obj)
        t0 = time.perf_counter()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        Files.disk_s += time.perf_counter() - t0
        return path


def run_main(M, argv):
    """main(argv) with captured output; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = M.cli.main(argv)
    return code, out.getvalue()


def _report(out, what):
    if isinstance(out, BaseException):
        raise CheckFailed(f"{what} raised {type(out).__name__}: {out}")
    code, text = out
    expect(code == 0, f"{what} exited with {code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{what} printed no parsable report: {exc}") from exc


def _as_report(case, rep):
    """The classify report as the attribute object moments.check_report judges."""
    canonical = rep["canonical"]
    common = dict(
        R=parse_matrix(rep["R"]) if rep["R"] is not None else None,
        canonical=[parse_matrix(b) for b in canonical["blocks"]] if canonical else None,
    )
    if case.path is moments.HAMBURGER:
        return SimpleNamespace(is_hnnd=rep["is_hnnd"], is_hnnde=rep["is_hnnde"],
                               theta=parse_matrix(rep["theta"]), L=parse_matrix(rep["L"]), **common)
    return SimpleNamespace(is_knnd=rep["is_knnd"], is_knnde=rep["is_knnde"],
                           u=[parse_matrix(u) for u in rep["u"]],
                           kappa=[parse_matrix(k) for k in rep["kappa"]], **common)


def moment_ops(M, rng, files, case, alpha_flag):
    """classify, interval and class-test on one case, as the CLI user runs them."""
    p = case.path
    stieltjes = p is moments.STIELTJES
    in_file = case.alpha if stieltjes and not alpha_flag else None
    flag = ["--alpha", repr(case.alpha)] if stieltjes and alpha_flag else []
    seq = files.write(sequence_json(case.blocks, in_file))
    mode = p.mode

    def check_classify(out):
        if not isinstance(out, BaseException) and out[0] == NOT_PSD:
            return "F1"
        rep = _report(out, f"classify {mode}")
        expect(rep["mode"] == mode, f"classify reported mode {rep['mode']}")
        return moments.check_report(case, _as_report(case, rep))

    ops = [Op(f"cli.classify.{mode}", lambda: run_main(M, ["classify", seq] + flag), check_classify)]

    delta = moments.MARGIN * case.scale
    for cname, T, in_given, in_canonical in (
        ("mid", 0.5 * (case.lower + case.last), True, case.extendable),
        ("above", case.last + delta * case.eye, False, False),
    ):
        last = files.write(matrix_json(T))
        for bound, truth in (("given", in_given), ("canonical", in_canonical)):
            argv = ["interval", seq, "--last", last, "--bound", bound] + flag
            ops.append(Op(f"cli.interval.{mode}", lambda argv=argv: run_main(M, argv),
                          _member_check(f"interval {cname}/{bound}", "member", truth)))

    other_last, other_truth = moments.other_last_block(rng, case)
    for rname, last, truth in (("the canonical representative", case.upper, True),
                               ("the constructed sequence", other_last, other_truth)):
        r = files.write(sequence_json(case.blocks[:-1] + [last], in_file))
        ops.append(Op(f"cli.class_test.{mode}",
                      lambda r=r: run_main(M, ["class-test", seq, r] + flag),
                      _member_check(f"class-test against {rname}", "same_class", truth)))
    return ops


def _member_check(what, key, truth):
    def check(out):
        rep = _report(out, what)
        expect(rep[key] is truth, f"{what}: {key} is {rep[key]!r}, construction says {truth}")
        return None
    return check


def schur_op(M, rng, files, q, rank, d):
    case = SchurCase(rng, q, rank, d)
    path = files.write({"A": matrix_json(case.A), "V": matrix_json(case.Q) if d else []})

    def check(out):
        rep = _report(out, "schur")
        checks = rep["checks"]
        expect(all(v is True for v in checks.values()), f"schur report checks {checks}")
        expect(rep["dim_V"] == d, f"schur dim_V {rep['dim_V']}, expected {d}")
        expect(rep["rank_A"] == rank, f"schur rank_A {rep['rank_A']}, expected {rank}")
        _check_s(case, parse_matrix(rep["S"]), "schur")
        return None

    return Op("cli.schur", lambda: run_main(M, ["schur", path]), check)


def invalid_ops(M, rng, files):
    """Inputs the CLI must refuse, each with its documented exit code."""
    blocks = gen.hamburger_measure(rng, 2, 5, 2)
    seq = files.write(sequence_json(blocks))
    longer = files.write(sequence_json(gen.hamburger_measure(rng, 2, 7, 2)))
    even = files.write(sequence_json(blocks[:4]))
    not_psd = files.write({"A": matrix_json(-np.eye(3)), "V": matrix_json(np.eye(3)[:, :1])})
    skew = gen.complex_normal(rng, 2, 2)
    not_hermitian = files.write(matrix_json(skew - skew.conj().T + np.eye(2)))
    wrong_shape = files.write(matrix_json(np.eye(3)))
    bad_json = files.write(text='{"q": 2, "blocks": [')
    cases = (
        (["classify", bad_json], PARSE),
        (["schur", not_psd], NOT_PSD),
        (["interval", seq, "--last", wrong_shape], DIMENSION),
        (["classify", even], EVEN_LENGTH),
        (["interval", seq, "--last", not_hermitian], NOT_HERMITIAN),
        (["class-test", seq, longer], SHAPE),
    )
    ops = []
    for argv, code in cases:
        def check(out, code=code, argv=argv):
            if isinstance(out, BaseException):
                raise CheckFailed(f"{argv[0]} raised {type(out).__name__}: {out}")
            expect(out[0] == code, f"{argv[0]} on invalid input exited {out[0]}, documented {code}")
            expect(out[1] == "", f"{argv[0]} on invalid input printed a report")
            return None
        ops.append(Op(f"cli.invalid.{argv[0]}", lambda argv=argv: run_main(M, argv), check))
    return ops
