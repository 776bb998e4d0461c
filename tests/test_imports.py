"""Every name a module of the package imports is used in that module,
every function or class a module defines has a caller in the package, and
the package stays within its code-line ceiling.

``__init__.py`` is left out of the import check: it imports names to
re-export them.  A name it lists in ``__all__`` counts as called.
"""

import ast
import io
from pathlib import Path
import tokenize

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "momentschur"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport numpy as np\n\nprint(sep)\n"
    assert unused_imports(source) == ["path (line 1)", "np (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level defs and classes that no module references and __all__ omits.

    ``sources`` maps module names to their text.  A reference is a name read
    anywhere, an attribute, or an imported name.
    """
    referenced, defined = set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                referenced.update(ast.literal_eval(node.value))
        defined += [
            f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
    return [name for name in defined if name.rsplit(".", 1)[1] not in referenced]


def test_the_check_sees_a_definition_without_a_caller():
    sources = {
        "a": "def used():\n    pass\n\n\ndef exported():\n    pass\n\n\nclass Dead:\n    pass\n",
        "b": "from .a import used\n\n__all__ = ['exported']\n\n\ndef helper():\n    return used\n",
    }
    assert uncalled_definitions(sources) == ["a.Dead", "b.helper"]


def test_every_definition_has_a_caller():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert uncalled_definitions(sources) == []


def test_the_cli_imports_no_private_name():
    # the command line formats what the library computes, through its
    # public names
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("momentschur"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# ROADMAP item 6's ceiling on the code lines of src/.  Raising it needs a
# row in item 6's ledger and a line in CHANGES.md
CODE_LINE_CEILING = 1312

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines holding a token other than layout and comments, outside the
    string statements that stand alone (docstrings)."""
    docstrings = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    lines = {
        line
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in _LAYOUT
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    return len(lines - docstrings)


def test_the_count_leaves_out_docstrings_comments_and_blanks():
    source = (
        'def f(x):\n    """Doc\n    string."""\n\n    # comment\n'
        '    y = """not a\n    docstring"""\n    return (x,\n            y)  # trailing\n'
    )
    assert code_lines(source) == 5


def test_src_stays_within_its_code_line_ceiling():
    assert sum(code_lines(p.read_text()) for p in SOURCES) <= CODE_LINE_CEILING
