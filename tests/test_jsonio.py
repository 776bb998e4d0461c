"""Tests for JSON parsing and the deterministic report serializer."""

import re

import numpy as np
import pytest

from conftest import random_complex

from momentschur import MomentSequence, ParseError
from momentschur.jsonio import (
    dumps,
    loads,
    parse_matrix,
    parse_schur_file,
    parse_sequence_file,
    sequence_json,
)


def matrix_json(M) -> list:
    """The list form of a matrix, rows of [re, im] pairs of Python floats:
    the reference the renderer's direct writing of arrays must match."""
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def entrywise(obj):
    """The reference parse of a valid matrix, one entry at a time."""
    return np.array(
        [[complex(*v) if isinstance(v, list) else complex(v) for v in row] for row in obj],
        dtype=complex,
    )


def bad_entry(v):
    return f"^{re.escape(f'bad matrix entry {v!r}: expected a real number or [re, im]')}$"


class TestLoads:
    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            loads("not json")

    def test_rejects_nan_and_infinity(self):
        with pytest.raises(ParseError):
            loads("[NaN]")
        with pytest.raises(ParseError):
            loads("[Infinity]")

    def test_plain_object(self):
        assert loads('{"a": 1}') == {"a": 1}

    @pytest.mark.parametrize(
        "text",
        [
            "[" + "1" * 5000 + "]",  # more digits than int() converts
            "\ufeff[1]",  # a byte order mark, as json.loads refuses it
            "[" * 100_000,  # nesting deeper than the decoder recurses
        ],
        ids=["long_int", "bom", "deep"],
    )
    def test_unreadable_text_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="^invalid JSON: "):
            loads(text)


class TestParseMatrix:
    def test_real_entries(self):
        M = parse_matrix([[1, 2], [3, 4]])
        assert M.shape == (2, 2)
        assert M.dtype == complex

    def test_complex_pairs(self):
        M = parse_matrix([[[1, 2]]])
        assert M[0, 0] == 1 + 2j

    def test_scalar_shorthand(self):
        M = parse_matrix(0.5, scalar_ok=True)
        assert M.shape == (1, 1)
        with pytest.raises(ParseError):
            parse_matrix(0.5)

    def test_rejects_bool_entries(self):
        with pytest.raises(ParseError):
            parse_matrix([[True]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ParseError):
            parse_matrix([[1, 2], [3]])

    def test_rejects_empty_unless_allowed(self):
        with pytest.raises(ParseError):
            parse_matrix([])
        M = parse_matrix([], rows_expected=3)
        assert M.shape == (3, 0)
        with pytest.raises(ParseError, match="^matrix has no columns$"):
            parse_matrix([[], []])
        assert parse_matrix([[], []], rows_expected=2).shape == (2, 0)

    def test_rows_must_be_lists(self):
        with pytest.raises(ParseError, match="^each matrix row must be a list$"):
            parse_matrix([[1], 2])

    def test_row_count_enforced(self):
        with pytest.raises(ParseError):
            parse_matrix([[1], [2]], rows_expected=3)

    @pytest.mark.parametrize(
        "obj",
        [
            [[1, 2], [3, 4]],
            [[0.5, -2.25]],
            [[[1, 2], [0.5, -0.0]]],
            [[1, [0.5, 2]], [[3, -1], -7.5]],
            [[-0.0, 5e-324, 1.7976931348623157e308, 2**53 + 1]],
        ],
        ids=["ints", "floats", "pairs", "mixed", "edges"],
    )
    def test_same_array_as_the_entrywise_form(self, obj):
        M = parse_matrix(obj)
        assert M.dtype == complex
        # bitwise, so that -0.0 keeps its sign
        assert M.tobytes() == entrywise(obj).tobytes()

    @pytest.mark.parametrize(
        "v",
        [True, "1", None, [1], [1, 2, 3], [True, 1], [[1, 2]], [1, [2]], float("inf"),
         [1, float("-inf")], 10**400, [1, 10**400]],
        ids=["true", "string", "null", "short_pair", "long_pair", "bool_pair", "nested",
             "nested_part", "inf", "inf_part", "huge_int", "huge_int_part"],
    )
    def test_bad_entries_keep_their_message(self, v):
        # each bad entry is named in the message the CLI prints; an int
        # beyond float range is one of them, not an OverflowError
        with pytest.raises(ParseError, match=bad_entry(v)):
            parse_matrix([[1, 2], [3, v]])

    def test_an_overflowing_literal_is_a_bad_entry(self):
        with pytest.raises(ParseError, match=bad_entry(float("inf"))):
            parse_matrix(loads("[[1e999]]"))

    @pytest.mark.parametrize(
        "obj,message",
        [
            ([[float("inf"), "x"]], bad_entry(float("inf"))),
            ([["x", float("inf")]], bad_entry("x")),
            ([[1, "x"], 2], bad_entry("x")),
            ([[float("inf")], [2, 3]], bad_entry(float("inf"))),
            ([[1], [2, float("inf")]], "^matrix rows have unequal lengths$"),
        ],
    )
    def test_the_first_fault_in_reading_order_is_reported(self, obj, message):
        with pytest.raises(ParseError, match=message):
            parse_matrix(obj)


class TestSequenceFile:
    def test_minimal(self):
        s, alpha = parse_sequence_file({"q": 1, "blocks": [[[1]], [[0]], [[1]]]})
        assert s.q == 1 and len(s) == 3 and alpha is None

    def test_alpha_carried(self):
        s, alpha = parse_sequence_file({"q": 1, "blocks": [[[1]], [[1]]], "alpha": 2})
        assert alpha == 2.0

    def test_the_parsed_blocks_are_held_as_one_stack(self, monkeypatch):
        # the parser checks each block once; the sequence takes their stack
        # without checking or copying them again
        blocks = [[[1, [0, 2]], [[0, -2], 3]], [[0.5, 0], [0, 0.5]]]
        expected = MomentSequence([entrywise(b) for b in blocks])
        monkeypatch.setattr(MomentSequence, "__init__", None)
        s, _ = parse_sequence_file({"q": 2, "blocks": blocks})
        assert s.stack.dtype == complex and s.stack.shape == (2, 2, 2)
        assert not s.stack.flags.writeable
        assert s.stack.tobytes() == expected.stack.tobytes()
        assert [b.tobytes() for b in s.blocks] == [b.tobytes() for b in expected.blocks]

    def test_must_be_an_object(self):
        with pytest.raises(ParseError, match="^a sequence file must be a JSON object$"):
            parse_sequence_file([[[1]]])

    @pytest.mark.parametrize("blocks", [[], None, "x", {"0": [[1]]}])
    def test_blocks_must_be_a_nonempty_list(self, blocks):
        with pytest.raises(ParseError, match="^field 'blocks' must be a nonempty list of matrices$"):
            parse_sequence_file({"q": 1, "blocks": blocks})

    def test_bad_q(self):
        with pytest.raises(ParseError):
            parse_sequence_file({"q": 0, "blocks": [[[1]]]})
        with pytest.raises(ParseError):
            parse_sequence_file({"q": "one", "blocks": [[[1]]]})

    def test_block_shape_enforced(self):
        with pytest.raises(ParseError):
            parse_sequence_file({"q": 2, "blocks": [[[1]]]})

    def test_bad_alpha(self):
        with pytest.raises(ParseError):
            parse_sequence_file({"q": 1, "blocks": [[[1]]], "alpha": "x"})

    @pytest.mark.parametrize("alpha", [10**400, float("inf"), True], ids=["huge_int", "inf", "true"])
    def test_alpha_must_be_a_finite_number(self, alpha):
        with pytest.raises(ParseError, match="^field 'alpha' must be a finite real number$"):
            parse_sequence_file({"q": 1, "blocks": [[[1]]], "alpha": alpha})


class TestSchurFile:
    def test_minimal(self):
        A, V = parse_schur_file({"A": [[2, 1], [1, 1]], "V": [[1], [0]]})
        assert A.shape == (2, 2) and V.shape == (2, 1)

    def test_empty_v_is_zero_subspace(self):
        _, V = parse_schur_file({"A": [[1]], "V": []})
        assert V.shape == (1, 0)

    def test_must_be_an_object(self):
        with pytest.raises(ParseError, match="^the schur input must be a JSON object$"):
            parse_schur_file([[1]])

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            parse_schur_file({"A": [[1]]})

    def test_a_must_be_square(self):
        with pytest.raises(ParseError):
            parse_schur_file({"A": [[1, 2]], "V": [[1], [0]]})

    def test_v_rows_must_match(self):
        with pytest.raises(ParseError):
            parse_schur_file({"A": [[1]], "V": [[1], [0]]})


class TestRoundTrip:
    def test_matrix_json_form(self):
        assert dumps(np.array([[1 + 2j]])) == "[[[1, 2]]]\n"
        assert loads(dumps(np.array([[1 + 2j]]))) == [[[1.0, 2.0]]]

    def test_parse_serialize_exact(self):
        rng = np.random.default_rng(163)
        M = random_complex(rng, 3, 2)
        back = parse_matrix(loads(dumps(M)))
        assert np.array_equal(back, M)

    def test_sequence_round_trip(self):
        rng = np.random.default_rng(167)
        blocks = [random_complex(rng, 2, 2) for _ in range(3)]
        from momentschur import MomentSequence

        s = MomentSequence(blocks)
        obj = loads(dumps(sequence_json(s, alpha=0.5)))
        s2, alpha = parse_sequence_file(obj)
        assert alpha == 0.5
        for j in range(3):
            assert np.array_equal(s2[j], s[j])


class TestDumps:
    def test_seventeen_digit_floats(self):
        assert "0.10000000000000001" in dumps([0.1])

    def test_integral_floats_stay_short(self):
        assert dumps([1.0]) == "[1]\n"

    def test_deterministic(self):
        obj = {"b": [1.5, 2.5], "a": {"x": True, "y": None}}
        assert dumps(obj) == dumps(obj)

    def test_key_order_is_insertion_order(self):
        assert dumps({"b": 1, "a": 2}) == '{"b": 1, "a": 2}\n'

    def test_long_arrays_expand(self):
        text = dumps({"m": [[0.123456789012345] * 4] * 2})
        assert "\n" in text.strip()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps([float("nan")])
        for value in (complex("nan"), complex(0, float("inf")), -float("inf")):
            with pytest.raises(ValueError, match="^non-finite value in report$"):
                dumps({"S": np.array([[1.0, 2.0], [3.0, value]])})

    def test_one_line_up_to_the_width(self):
        # '["' + 96 characters + '"]' is exactly 100 columns
        assert dumps(["x" * 96]) == '["' + "x" * 96 + '"]\n'
        assert dumps(["x" * 97]) == '[\n  "' + "x" * 97 + '"\n]\n'

    def test_dict_value_width_leaves_out_its_key(self):
        # the list is judged at indent 2 with 98 columns, so its line may
        # run past column 100 by the width of the key
        fits, breaks = ["x" * 94], ["x" * 95]
        assert dumps({"key": fits}) == '{\n  "key": ["' + "x" * 94 + '"]\n}\n'
        assert dumps({"key": breaks}) == (
            '{\n  "key": [\n    "' + "x" * 95 + '"\n  ]\n}\n'
        )

    def test_arrays_render_as_matrix_json(self):
        rng = np.random.default_rng(173)
        M = random_complex(rng, 3, 2)
        assert dumps(M) == dumps(matrix_json(M))
        report = {"S": M, "kappa": (M[:1], M[1:])}
        expected = {"S": matrix_json(M), "kappa": [matrix_json(M[:1]), matrix_json(M[1:])]}
        assert dumps(report) == dumps(expected)

    @pytest.mark.parametrize("depth", [0, 1, 21, 22, 30, 45])
    @pytest.mark.parametrize(
        "M",
        [
            np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)]]),
            np.array([[5e-324, 2.2250738585072014e-308 / 3], [-5e-324, 1e-310]]),
            np.array([[1e308, -1e308j], [1.7976931348623157e308, -1.7976931348623157e308]]),
            np.array([[1.0, -3.0], [2.0**53, 100.0]]),
            np.array([[1, 2], [3, 4]]),
            np.zeros((3, 0)),
            np.zeros((0, 0)),
            (np.arange(12).reshape(3, 4) * (0.1 - 0.3j)).T[::2],
            np.full((2, 3), complex(-1.2345678901234567e-300, 9.876543210987654e300)),
        ],
        ids=["signed_zeros", "subnormal", "huge", "integral", "int_dtype", "no_columns",
             "empty", "strided", "longest_pairs"],
    )
    def test_arrays_render_as_their_list_form(self, M, depth):
        # the pairs start at column 2 * depth + 6: the longest pairs, of 51
        # characters, fit at depth 21 and break from depth 22 on
        obj, ref = M, matrix_json(M)
        for _ in range(depth):
            obj, ref = [obj], [ref]
        assert dumps({"m": obj}) == dumps({"m": ref})

    def test_arrays_render_as_their_list_form_on_both_sides_of_the_width(self):
        # 1 x c matrices of d-digit integral entries at depth k: their lines
        # run from far below to past column 100, at every depth's offset
        widths = set()
        for d in range(1, 17):
            for c in range(1, 13):
                M = np.full((1, c), float("9" * d))
                for k in range(0, 48, 7):
                    obj, ref = M, matrix_json(M)
                    for _ in range(k):
                        obj, ref = [obj], [ref]
                    text = dumps(obj)
                    assert text == dumps(ref)
                    widths.update(len(line) for line in text.splitlines())
        assert {99, 100, 101} <= widths
