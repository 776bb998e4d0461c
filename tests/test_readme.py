"""The README states what the package does, and these tests hold it to it:
its Python blocks give the values their comments state, its JSON file
formats parse, each command it shows prints its golden report, its exit-code
table is the command line's, its API section names exactly ``__all__``, and
it stays within its line ceiling."""

import json
import re

import numpy as np

from conftest import README, readme_section
from test_cli import GOLDEN, GOLDEN_CASES, main_in_process

import momentschur
from momentschur import cli
from momentschur.jsonio import parse_schur_file, parse_sequence_file

# ROADMAP item 16: the README states the contract in at most this many
# lines, as CODE_LINE_CEILING caps src/
README_LINE_CEILING = 250


def blocks(language, text=README):
    """The fenced code blocks of ``text`` tagged ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def code_spans(text):
    """The identifiers written as code spans in ``text``, in order."""
    return re.findall(r"`([A-Za-z_]\w*)`", text)


def table_rows(section):
    """The cells of each body row of the markdown tables in ``section``: the rows below a separator."""
    rows, body = [], False
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not line.startswith("|"):
            body = False
        elif all(set(cell) <= set("-:") for cell in cells):
            body = True
        elif body:
            rows.append(cells)
    return rows


def test_the_python_examples_give_what_their_comments_say():
    namespace = {}
    for code in blocks("python"):
        exec(compile(code, "README.md", "exec"), namespace)
    assert np.abs(namespace["res"].S - np.diag([1.0, 0.0])).max() <= 1e-15
    assert namespace["report"].is_hnnde is True


def test_the_json_file_formats_parse():
    schur_input, sequence = (json.loads(text) for text in blocks("json"))
    A, V = parse_schur_file(schur_input)
    np.testing.assert_array_equal(A, [[2, 1], [1, 1]])
    np.testing.assert_array_equal(V, [[1], [0]])
    s, alpha = parse_sequence_file(sequence)
    np.testing.assert_array_equal(s.stack.ravel(), [1, 0, 1])
    assert alpha == 0


def readme_commands():
    """The argv of each ``momentschur`` line of the README's sh blocks, with
    each tests/golden/ path cut to its file name, as cases.tsv writes it."""
    return [
        tuple(re.sub(r"^tests/golden/(?=[^/]+\.json$)", "", arg) for arg in line.split()[1:])
        for code in blocks("sh")
        for line in code.splitlines()
        if line.startswith("momentschur ")
    ]


def test_each_command_prints_its_golden_report():
    golden = dict(GOLDEN_CASES)
    commands = readme_commands()
    assert commands
    for argv in commands:
        assert argv in golden, f"momentschur {' '.join(argv)} is no case of cases.tsv"
        full = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        code, out, err = main_in_process(*full)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden[argv]).read_text()


def test_the_exit_code_table_is_the_command_lines():
    table = {
        kind: int(code)
        for code, kinds, _meaning in table_rows(readme_section("Exit codes"))
        for kind in code_spans(kinds)
    }
    assert table == {kind.__name__: code for kind, code in cli._EXIT_CODES.items()}


def test_the_api_section_names_exactly_all():
    named = [name for row in table_rows(readme_section("Public API")) for name in code_spans(row[1])]
    assert sorted(named) == sorted(momentschur.__all__)


def test_the_readme_stays_within_its_line_ceiling():
    assert len(README.splitlines()) <= README_LINE_CEILING
