"""JSON schemas and deterministic serialization for the command line tool.

Matrices travel as lists of rows whose entries are [re, im] pairs; bare real
numbers are accepted on input as shorthand for [x, 0].  Output is byte-stable:
keys keep their insertion order and floats are rendered with 17 significant
digits, which is enough for every value to round-trip exactly.
"""

from __future__ import annotations

import cmath
import json
import math
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import ParseError
from .hamburger import MomentSequence


def _reject_constant(name):
    raise ParseError(f"non-finite JSON constant {name!r} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def loads(text: str):
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, and an integer literal of more digits than int()
        # converts or nesting deeper than the decoder recurses
        raise ParseError(f"invalid JSON: {exc}") from exc


# the exact types json gives numbers: a bool, an int subclass, is not one
_NUMBERS = frozenset((int, float))
_BAD = complex("nan")


def _entry(v) -> complex:
    """A matrix entry, a JSON number or [re, im] pair of them, as a complex.

    Anything else, an int beyond float range included, becomes NaN, which the
    finiteness check of its matrix reports as a bad entry.
    """
    try:
        if type(v) in _NUMBERS:
            return complex(v)
        if type(v) is list and len(v) == 2:
            re, im = v
            if type(re) in _NUMBERS and type(im) in _NUMBERS:
                return complex(re, im)
    except OverflowError:
        pass
    return _BAD


def _is_real(v) -> bool:
    """Is v a finite JSON number?"""
    return type(v) in _NUMBERS and cmath.isfinite(_entry(v))


def _checked_entries(rows, obj) -> np.ndarray:
    """``rows``, the converted first rows of ``obj``, as an array, if every entry is finite.

    Otherwise ParseError names the first entry of ``obj``, in reading order,
    that is not a finite number or pair.
    """
    M = np.array(rows, dtype=complex)
    if not np.isfinite(M).all():
        i, j = np.argwhere(~np.isfinite(M))[0]
        raise ParseError(f"bad matrix entry {obj[i][j]!r}: expected a real number or [re, im]")
    return M


def parse_matrix(obj, rows_expected=None, scalar_ok=False):
    """Parse a list-of-rows matrix into a complex array.

    ``rows_expected`` fixes the row count and allows zero columns: an empty
    list, or rows of width 0, then stand for a matrix with zero columns.
    ``scalar_ok`` accepts a bare number as a 1x1 matrix.  Each row is
    converted in one pass and the whole matrix checked for finiteness once;
    an error in a row's shape is reported after any bad entry before it.
    """
    if scalar_ok and _is_real(obj):
        return np.array([[_entry(obj)]])
    if not isinstance(obj, list):
        raise ParseError(f"expected a matrix (list of rows), got {type(obj).__name__}")
    if not obj:
        if rows_expected is not None:
            return np.zeros((rows_expected, 0), dtype=complex)
        raise ParseError("matrix has no rows")
    rows = []
    width = None
    for row in obj:
        if not isinstance(row, list):
            _checked_entries(rows, obj)
            raise ParseError("each matrix row must be a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _checked_entries(rows, obj)
            raise ParseError("matrix rows have unequal lengths")
        rows.append(list(map(_entry, row)))
    M = _checked_entries(rows, obj)
    if width == 0 and rows_expected is None:
        raise ParseError("matrix has no columns")
    if rows_expected is not None and len(rows) != rows_expected:
        raise ParseError(f"expected {rows_expected} rows, got {len(rows)}")
    return M


def parse_sequence_file(obj):
    """Parse a SequenceFile dict; returns (MomentSequence, alpha or None)."""
    if not isinstance(obj, dict):
        raise ParseError("a sequence file must be a JSON object")
    q = obj.get("q")
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise ParseError("field 'q' must be a positive integer")
    blocks = obj.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise ParseError("field 'blocks' must be a nonempty list of matrices")
    mats = []
    for k, b in enumerate(blocks):
        M = parse_matrix(b)
        if M.shape != (q, q):
            raise ParseError(f"block {k} has shape {M.shape}, expected ({q}, {q})")
        mats.append(M)
    alpha = obj.get("alpha")
    if alpha is not None:
        if not _is_real(alpha):
            raise ParseError("field 'alpha' must be a finite real number")
        alpha = float(alpha)
    return MomentSequence(mats), alpha


def parse_schur_file(obj):
    """Parse the schur command input; returns (A, V_spanning_matrix)."""
    if not isinstance(obj, dict):
        raise ParseError("the schur input must be a JSON object")
    if "A" not in obj or "V" not in obj:
        raise ParseError("the schur input needs fields 'A' and 'V'")
    A = parse_matrix(obj["A"])
    if A.shape[0] != A.shape[1]:
        raise ParseError(f"'A' must be square, got shape {A.shape}")
    V = parse_matrix(obj["V"], rows_expected=A.shape[0])
    return A, V


def sequence_json(s: MomentSequence, alpha=None) -> dict:
    out = {"q": s.q, "blocks": s.blocks}
    if alpha is not None:
        out["alpha"] = float(alpha)
    return out


_INLINE_WIDTH = 100


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite value in report")
    return "%.17g" % x


def _layout(items, indent: int, opening: str = "[", closing: str = "]") -> str:
    """The one layout rule, for the rendered ``items`` of a container at column ``indent``.

    The container stays on one line when every item is one line and the whole
    fits in ``_INLINE_WIDTH - indent`` columns; otherwise it puts one item per
    line at ``indent + 2``.
    """
    flat = opening + ", ".join(items) + closing
    if not items or (len(flat) + indent <= _INLINE_WIDTH and "\n" not in flat):
        return flat
    pad = "\n" + " " * (indent + 2)
    return opening + pad + ("," + pad).join(items) + "\n" + " " * indent + closing


def _matrix(M: np.ndarray, indent: int) -> str:
    """A matrix as rows of [re, im] pairs, written from its values."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise TypeError(f"cannot serialize an array of ndim {M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError("non-finite value in report")
    at_row, at_pair = indent + 2, indent + 4
    rows = []
    # each row as re_0, im_0, re_1, im_1, ...; every float formatted once
    for row in np.ascontiguousarray(M).view(float).tolist():
        pairs = ["[%.17g, %.17g]" % part for part in zip(row[::2], row[1::2])]
        if max(map(len, pairs), default=0) + at_pair > _INLINE_WIDTH:
            # a pair of numbers is one line where it fits, and here one does
            # not: each pair takes the rule
            pairs = [_layout(pair[1:-1].split(", "), at_pair) for pair in pairs]
        rows.append(_layout(pairs, at_row))
    return _layout(rows, indent)


def _render(obj, indent: int) -> str:
    """``obj`` as JSON text whose first line starts at column ``indent``.

    Containers follow ``_layout``; a dict value is judged at ``indent + 2``,
    without its key.  A numpy array is a matrix: rows of [re, im] pairs.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, np.ndarray):
        return _matrix(obj, indent)
    if isinstance(obj, dict):
        items = [f"{_string(str(k))}: {_render(v, indent + 2)}" for k, v in obj.items()]
        return _layout(items, indent, "{", "}")
    if isinstance(obj, (list, tuple)):
        return _layout([_render(v, indent + 2) for v in obj], indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text: fixed key order, 17-significant-digit floats."""
    return _render(obj, 0) + "\n"
