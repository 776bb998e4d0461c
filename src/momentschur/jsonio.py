"""JSON schemas and deterministic serialization for the command line tool.

Matrices travel as lists of rows whose entries are [re, im] pairs; bare real
numbers are accepted on input as shorthand for [x, 0].  Output is byte-stable:
keys keep their insertion order and floats are rendered with 17 significant
digits, which is enough for every value to round-trip exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError
from .hamburger import MomentSequence


def _reject_constant(name):
    raise ParseError(f"non-finite JSON constant {name!r} is not allowed")


def loads(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def parse_complex(v) -> complex:
    if _is_real(v):
        return complex(v, 0.0)
    if isinstance(v, list) and len(v) == 2 and all(_is_real(c) for c in v):
        return complex(v[0], v[1])
    raise ParseError(f"bad matrix entry {v!r}: expected a real number or [re, im]")


def parse_matrix(obj, rows_expected=None, allow_zero_cols=False, scalar_ok=False):
    """Parse a list-of-rows matrix into a complex array.

    ``rows_expected`` lets an empty list stand for a matrix with zero columns
    (only meaningful together with ``allow_zero_cols``); ``scalar_ok`` accepts
    a bare number as a 1x1 matrix.
    """
    if scalar_ok and _is_real(obj):
        return np.array([[parse_complex(obj)]])
    if not isinstance(obj, list):
        raise ParseError(f"expected a matrix (list of rows), got {type(obj).__name__}")
    if not obj:
        if allow_zero_cols and rows_expected is not None:
            return np.zeros((rows_expected, 0), dtype=complex)
        raise ParseError("matrix has no rows")
    rows = []
    width = None
    for row in obj:
        if not isinstance(row, list):
            raise ParseError("each matrix row must be a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError("matrix rows have unequal lengths")
        rows.append([parse_complex(v) for v in row])
    if width == 0 and not allow_zero_cols:
        raise ParseError("matrix has no columns")
    if rows_expected is not None and len(rows) != rows_expected:
        raise ParseError(f"expected {rows_expected} rows, got {len(rows)}")
    if width == 0:
        return np.zeros((len(rows), 0), dtype=complex)
    return np.array(rows, dtype=complex)


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
    V = parse_matrix(obj["V"], rows_expected=A.shape[0], allow_zero_cols=True)
    return A, V


def matrix_json(M) -> list:
    """Serialize a matrix as rows of [re, im] pairs (plain Python floats)."""
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def sequence_json(s: MomentSequence, alpha=None) -> dict:
    out = {"q": s.q, "blocks": [matrix_json(b) for b in s]}
    if alpha is not None:
        out["alpha"] = float(alpha)
    return out


_INLINE_WIDTH = 100


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite value in report")
    return format(x, ".17g")


def _render(obj, indent: int) -> str:
    """``obj`` as JSON text whose first line starts at column ``indent``.

    A container stays on one line when every item is one line and the whole
    fits in ``_INLINE_WIDTH - indent`` columns; otherwise it puts one item per
    line at ``indent + 2``.  A dict value is judged at ``indent + 2``, without
    its key.  Numpy arrays are written as their ``matrix_json`` form.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, np.ndarray):
        obj = matrix_json(obj)
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {_render(v, indent + 2)}" for k, v in obj.items()]
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)):
        items = [_render(v, indent + 2) for v in obj]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    flat = opening + ", ".join(items) + closing
    if not items or (len(flat) + indent <= _INLINE_WIDTH and "\n" not in flat):
        return flat
    pad = "\n" + " " * (indent + 2)
    return opening + pad + ("," + pad).join(items) + "\n" + " " * indent + closing


def dumps(obj) -> str:
    """Deterministic JSON text: fixed key order, 17-significant-digit floats."""
    return _render(obj, 0) + "\n"
