"""Command line front end: schur | classify | interval | class-test.

Commands read UTF-8 JSON (a file path, or "-" for stdin) and write one JSON
report to stdout; diagnostics go to stderr.  Exit codes: 0 ok, 2 parse error,
3 not PSD (including Hankel/Stieltjes nonnegativity failures), 4 dimension
mismatch, 5 even-length input on the Hamburger path, 6 non-Hermitian input,
7 sequence shape mismatch, 8 an eigensolver or SVD that did not converge.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NoConvergence,
    NotHermitian,
    NotPSD,
    OddOrderUnsupported,
    ParseError,
    ShapeMismatch,
    TooShort,
)
from .hamburger import MomentSequence, Tower, classify_hamburger
from .jsonio import (
    dumps,
    loads,
    parse_matrix,
    parse_schur_file,
    parse_sequence_file,
    sequence_json,
)
from .linalg import Tolerance, as_tolerance, subspace_from_columns
from .schur import schur_report
from .stieltjes import classify_stieltjes


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def _resolve_alpha(args, *file_alphas):
    """--alpha when given; else the alpha the files carry, which must agree, or None."""
    if args.alpha is not None:
        return float(args.alpha)
    alphas = [a for a in file_alphas if a is not None]
    if any(a != alphas[0] for a in alphas):
        named = " and ".join(map(repr, alphas))
        raise ParseError(f"the files carry different alphas, {named}; choose one with --alpha")
    return alphas[0] if alphas else None


def cmd_schur(args) -> dict:
    t = as_tolerance(args.tol)
    A, V_columns = parse_schur_file(_read_json(args.input))
    V = subspace_from_columns(V_columns, t)
    result, rank_A, rank_S, checks = schur_report(A, V, t)
    return {
        "command": "schur",
        "tolerance": t.eps_rel,
        "q": A.shape[0],
        "dim_V": V.dim,
        "rank_A": rank_A,
        "rank_S": rank_S,
        "S": result.S, "P_fiber": result.P_fiber, "complement": result.complement,
        "checks": checks,
    }


def _report(command: str, t: Tolerance, **fields) -> dict:
    """A moment report in JSON form; ``alpha`` is given only on the half line."""
    alpha = fields.get("alpha")
    mode = "hamburger" if alpha is None else "stieltjes"
    report = {"command": command, "mode": mode, "tolerance": t.eps_rel}
    for name, value in fields.items():
        if isinstance(value, MomentSequence):
            value = sequence_json(value, alpha)
        if name != "alpha" or value is not None:
            report[name] = value
    return report


def cmd_classify(args) -> dict:
    t = as_tolerance(args.tol)
    seq, file_alpha = parse_sequence_file(_read_json(args.input))
    alpha = _resolve_alpha(args, file_alpha)
    rep = classify_hamburger(seq, t) if alpha is None else classify_stieltjes(seq, alpha, t)
    return _report("classify", t, **{f.name: getattr(rep, f.name) for f in fields(rep)})


def cmd_interval(args) -> dict:
    t = as_tolerance(args.tol)
    seq, file_alpha = parse_sequence_file(_read_json(args.input))
    alpha = _resolve_alpha(args, file_alpha)
    T = parse_matrix(_read_json(args.last), scalar_ok=True)
    tower = Tower(seq, t, alpha)
    bound = tower.given if args.bound == "given" else "r_upper"
    member = tower.member(T, bound)
    m = seq.kappa
    return _report("interval", t, q=seq.q, alpha=alpha, bound=args.bound, lower=tower.u(m - 1),
                   upper=seq[m] if bound == tower.given else tower.r(m), member=member)


def cmd_class_test(args) -> dict:
    t = as_tolerance(args.tol)
    s, alpha_s = parse_sequence_file(_read_json(args.input_s))
    r, alpha_r = parse_sequence_file(_read_json(args.input_r))
    alpha = _resolve_alpha(args, alpha_s, alpha_r)
    checks = Tower(s, t, alpha).conditions(r)
    names = ("prefix_equal", "difference_psd", "difference_range_disjoint")
    return _report("class-test", t, q=s.q, alpha=alpha, checks=dict(zip(names, checks)),
                   same_class=all(checks))


def _finite(text: str) -> float:
    """The --alpha type: a finite number."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _positive(text: str) -> float:
    """The --tol type: a finite positive number."""
    x = _finite(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentschur",
        description="Subspace Schur complements and moment sequence classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, alpha=True):
        sp.add_argument("--tol", type=_positive, default=None, metavar="EPS",
                        help="relative tolerance (default 1e-10)")
        if alpha:
            sp.add_argument("--alpha", type=_finite, default=None, metavar="A",
                            help="half-line endpoint; selects the Stieltjes path")

    sp = sub.add_parser("schur", help="Schur complement of A relative to span of V's columns")
    sp.add_argument("input", help="JSON file with fields A and V ('-' for stdin)")
    common(sp, alpha=False)
    sp.set_defaults(func=cmd_schur)

    sp = sub.add_parser("classify", help="nonnegative definiteness and extendability report")
    sp.add_argument("input", help="sequence file ('-' for stdin)")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("interval", help="test a candidate last block against the admissible interval")
    sp.add_argument("input", help="sequence file ('-' for stdin)")
    sp.add_argument("--last", required=True, metavar="PATH",
                    help="JSON file holding the candidate block (matrix or bare number)")
    sp.add_argument("--bound", choices=("given", "canonical"), default="given",
                    help="upper endpoint: the given last block, or the canonical bound R")
    common(sp)
    sp.set_defaults(func=cmd_interval)

    sp = sub.add_parser("class-test", help="do two sequences share one extension class?")
    sp.add_argument("input_s", help="reference sequence file ('-' for stdin)")
    sp.add_argument("input_r", help="competing sequence file")
    common(sp)
    sp.set_defaults(func=cmd_class_test)
    return parser


_PARSER = build_parser()

# error kind -> exit code; NotPSD includes NotHNND and NotKNND
_EXIT_CODES = {
    ParseError: 2,
    TooShort: 2,
    IndexOutOfRange: 2,
    NotPSD: 3,
    DimensionMismatch: 4,
    OddOrderUnsupported: 5,
    NotHermitian: 6,
    ShapeMismatch: 7,
    NoConvergence: 8,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        report = args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    sys.stdout.write(dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
