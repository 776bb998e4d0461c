"""The README's examples run as written: its Python blocks give the values
their comments state, and its JSON file formats parse."""

import json
import re
from pathlib import Path

import numpy as np

from momentschur.jsonio import parse_schur_file, parse_sequence_file

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language):
    """The fenced code blocks of the README tagged ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


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
