"""End-to-end tests for the command line interface.

Golden outputs under tests/golden/ were generated by the CLI itself and the
numbers checked by hand against the worked scalar cases; the tests compare
bytes so any drift in formatting or values shows up immediately.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import hamburger_measure_sequence, stieltjes_measure_sequence

from momentschur import cli, r_upper, r_upper_stieltjes
from momentschur.jsonio import dumps, sequence_json

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "momentschur", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def main_in_process(*argv):
    """cli.main(argv) in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_seq(path, blocks, q=1, alpha=None):
    obj = {"q": q, "blocks": blocks}
    if alpha is not None:
        obj["alpha"] = alpha
    path.write_text(json.dumps(obj))
    return str(path)


GOLDEN_CASES = [
    (("schur", "schur_in.json"), "schur_out.json"),
    (("classify", "seq_101.json"), "classify_hamburger_out.json"),
    (("classify", "seq_111_alpha0.json"), "classify_stieltjes_out.json"),
    (
        ("interval", "seq_001.json", "--last", "last_half.json"),
        "interval_given_out.json",
    ),
    (
        ("interval", "seq_001.json", "--last", "last_half.json", "--bound", "canonical"),
        "interval_canonical_out.json",
    ),
    (("class-test", "seq_001.json", "seq_005.json"), "class_test_same_out.json"),
    (("class-test", "seq_101.json", "seq_102.json"), "class_test_diff_out.json"),
    # half line [-0.5, oo), q = 2: the last block of seq_201 exceeds R_3 by a
    # rank-one block outside ran kappa_2, so the two upper bounds differ
    (
        ("interval", "seq_201_alpha.json", "--last", "last_q2_above.json"),
        "stieltjes_interval_given_member_out.json",
    ),
    (
        ("interval", "seq_201_alpha.json", "--last", "last_q2_below.json"),
        "stieltjes_interval_given_nonmember_out.json",
    ),
    (
        ("interval", "seq_201_alpha.json", "--last", "last_q2_inside.json", "--bound", "canonical"),
        "stieltjes_interval_canonical_member_out.json",
    ),
    (
        ("interval", "seq_201_alpha.json", "--last", "last_q2_above.json", "--bound", "canonical"),
        "stieltjes_interval_canonical_nonmember_out.json",
    ),
    (
        ("class-test", "seq_201_alpha.json", "seq_202_alpha.json"),
        "stieltjes_class_test_same_out.json",
    ),
    (
        ("class-test", "seq_201_alpha.json", "seq_203_alpha.json"),
        "stieltjes_class_test_diff_out.json",
    ),
]


class TestGolden:
    @pytest.mark.parametrize("args,expected", GOLDEN_CASES, ids=[e[1] for e in GOLDEN_CASES])
    def test_matches_golden_output(self, args, expected):
        full = [args[0]] + [
            str(GOLDEN / a) if a.endswith(".json") else a for a in args[1:]
        ]
        result = run_cli(*full)
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN / expected).read_text()

    def test_reruns_are_byte_identical(self):
        args = ("schur", str(GOLDEN / "schur_in.json"))
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_reads_from_stdin(self):
        payload = (GOLDEN / "seq_101.json").read_text()
        result = run_cli("classify", "-", stdin=payload)
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "classify_hamburger_out.json").read_text()


class TestInProcess:
    def test_repeated_calls_match_fresh_processes(self):
        # main keeps one parser for the process: no flag, default or error
        # of one call may leak into the next
        calls = [
            ("classify", "seq_101.json", "--alpha", "0.5"),
            ("interval", "seq_001.json", "--last", "last_half.json", "--bound", "canonical"),
            ("schur", "schur_in.json", "--tol", "1e-8"),
            ("classify", "missing.json"),
            ("schur", "schur_in.json"),
            ("classify", "seq_101.json"),
            ("interval", "seq_001.json", "--last", "last_half.json"),
        ]
        for call in calls:
            argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in call]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            fresh = run_cli(*argv)
            assert (code, out.getvalue(), err.getvalue()) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), call

    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_class_test_reports_a_difference_that_is_not_psd(self, tmp_path, alpha):
        rng = np.random.default_rng(31)
        if alpha is None:
            s = hamburger_measure_sequence(rng, 2, 5, n_atoms=2)
            R = r_upper(s, 2)
        else:
            s = stieltjes_measure_sequence(rng, alpha, 2, 4, n_atoms=2)
            R = r_upper_stieltjes(s, alpha, 3)
        paths = []
        for name, seq in (("s", s), ("r", s.with_last(R - 0.5 * np.eye(2)))):
            path = tmp_path / f"{name}.json"
            path.write_text(dumps(sequence_json(seq, alpha)))
            paths.append(str(path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["class-test", *paths]) == 0
        report = json.loads(out.getvalue())
        assert report["checks"] == {
            "prefix_equal": True, "difference_psd": False, "difference_range_disjoint": False
        }
        assert report["same_class"] is False


class TestFlags:
    def test_alpha_flag_wins_over_file(self):
        result = run_cli(
            "classify", str(GOLDEN / "seq_111_alpha0.json"), "--alpha", "1.0"
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["mode"] == "stieltjes"
        assert report["alpha"] == 1.0
        # alpha = 1 shifts (1,1,1) to (0,0): kappa_1 = s_1 - alpha*s_0 = 0
        assert report["kappa"][1] == [[[0, 0]]]

    def test_alpha_flag_switches_mode(self):
        result = run_cli("classify", str(GOLDEN / "seq_101.json"), "--alpha", "0")
        assert result.returncode == 0
        assert json.loads(result.stdout)["mode"] == "stieltjes"

    def test_tol_is_echoed(self):
        result = run_cli("schur", str(GOLDEN / "schur_in.json"), "--tol", "1e-8")
        assert result.returncode == 0
        assert json.loads(result.stdout)["tolerance"] == 1e-8

    @pytest.mark.parametrize(
        "flag,value,complaint",
        [
            ("--tol", "0", "is not a positive number"),
            ("--tol", "-1", "is not a positive number"),
            ("--tol", "nan", "is not a finite number"),
            ("--tol", "inf", "is not a finite number"),
            ("--tol", "abc", "invalid float value"),
            ("--alpha", "inf", "is not a finite number"),
            ("--alpha", "-inf", "is not a finite number"),
            ("--alpha", "nan", "is not a finite number"),
        ],
    )
    def test_invalid_flag_values_are_refused_by_the_parser(self, flag, value, complaint):
        # --flag=value: argparse takes "-inf" after a space for an option
        code, out, err = main_in_process("classify", str(GOLDEN / "seq_101.json"), f"{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith("usage: momentschur classify")
        assert f"error: argument {flag}: " in err and complaint in err

    def test_a_refused_flag_exits_2_from_the_command_line(self):
        result = run_cli("schur", str(GOLDEN / "schur_in.json"), "--tol", "0")
        assert result.returncode == 2 and result.stdout == ""
        assert "error: argument --tol: '0' is not a positive number" in result.stderr


class TestExitCodes:
    def test_missing_file_is_parse_error(self):
        result = run_cli("schur", "/no/such/file.json")
        assert result.returncode == 2
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize(
        "command,text",
        [
            ("classify", '{"q": 1, "blocks": [[[1]], [[0]], [[1%s]]]}' % ("0" * 400)),
            ("classify", '{"q": 1, "blocks": [[[1]], [[0]], [[1]]], "alpha": 1%s}' % ("0" * 400)),
            ("schur", '{"A": [[[1%s, 0]]], "V": [[1]]}' % ("0" * 400)),
            ("classify", '{"q": 1, "blocks": [[[1]], [[0]], [[1e999]]]}'),
        ],
        ids=["classify_block", "file_alpha", "schur_A", "overflowing_float"],
    )
    def test_numbers_beyond_float_range_are_parse_errors(self, tmp_path, command, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, out, err = main_in_process(command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["classify", "schur"])
    def test_input_that_is_not_utf8_is_parse_error(self, tmp_path, command):
        path = tmp_path / "in.json"
        path.write_bytes(b'{"q": 1, "blocks": [[[1]]], "note": "\xff"}')
        code, out, err = main_in_process(command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    def test_malformed_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run_cli("classify", str(bad))
        assert result.returncode == 2
        assert result.stderr.startswith("error:")

    def test_interval_on_indefinite_sequence(self, tmp_path):
        seq = write_seq(tmp_path / "s.json", [[[1]], [[2]], [[1]]])
        last = tmp_path / "t.json"
        last.write_text("[[0]]")
        result = run_cli("interval", seq, "--last", str(last))
        assert result.returncode == 3

    def test_interval_with_wrong_size_last(self, tmp_path):
        seq = write_seq(tmp_path / "s.json", [[[0]], [[0]], [[1]]])
        last = tmp_path / "t.json"
        last.write_text("[[1, 0], [0, 1]]")
        result = run_cli("interval", seq, "--last", str(last))
        assert result.returncode == 4

    def test_classify_even_length(self, tmp_path):
        seq = write_seq(tmp_path / "s.json", [[[1]], [[0]]])
        result = run_cli("classify", seq)
        assert result.returncode == 5

    def test_interval_with_non_hermitian_last(self, tmp_path):
        eye = [[1, 0], [0, 1]]
        zero = [[0, 0], [0, 0]]
        seq = write_seq(tmp_path / "s.json", [eye, zero, eye], q=2)
        last = tmp_path / "t.json"
        last.write_text("[[0, 1], [0, 0]]")
        result = run_cli("interval", seq, "--last", str(last))
        assert result.returncode == 6

    def test_class_test_shape_mismatch(self, tmp_path):
        eye = [[1, 0], [0, 1]]
        zero = [[0, 0], [0, 0]]
        other = write_seq(tmp_path / "s2.json", [eye, zero, eye], q=2)
        result = run_cli("class-test", str(GOLDEN / "seq_101.json"), other)
        assert result.returncode == 7

    def test_errors_go_to_stderr_only(self, tmp_path):
        seq = write_seq(tmp_path / "s.json", [[[1]], [[0]]])
        result = run_cli("classify", seq)
        assert result.stdout == ""
        assert "error:" in result.stderr
