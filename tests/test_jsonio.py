"""Tests for JSON parsing and the deterministic report serializer."""

import numpy as np
import pytest

from conftest import random_complex

from momentschur import ParseError
from momentschur.jsonio import (
    dumps,
    loads,
    matrix_json,
    parse_matrix,
    parse_schur_file,
    parse_sequence_file,
    sequence_json,
)


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
        M = parse_matrix([], rows_expected=3, allow_zero_cols=True)
        assert M.shape == (3, 0)
        with pytest.raises(ParseError, match="^matrix has no columns$"):
            parse_matrix([[], []])
        assert parse_matrix([[], []], allow_zero_cols=True).shape == (2, 0)

    def test_rows_must_be_lists(self):
        with pytest.raises(ParseError, match="^each matrix row must be a list$"):
            parse_matrix([[1], 2])

    def test_row_count_enforced(self):
        with pytest.raises(ParseError):
            parse_matrix([[1], [2]], rows_expected=3)


class TestSequenceFile:
    def test_minimal(self):
        s, alpha = parse_sequence_file({"q": 1, "blocks": [[[1]], [[0]], [[1]]]})
        assert s.q == 1 and len(s) == 3 and alpha is None

    def test_alpha_carried(self):
        s, alpha = parse_sequence_file({"q": 1, "blocks": [[[1]], [[1]]], "alpha": 2})
        assert alpha == 2.0

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
        out = matrix_json(np.array([[1 + 2j]]))
        assert out == [[[1.0, 2.0]]]

    def test_parse_serialize_exact(self):
        rng = np.random.default_rng(163)
        M = random_complex(rng, 3, 2)
        back = parse_matrix(loads(dumps(matrix_json(M))))
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
