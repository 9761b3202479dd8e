import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    """The package supports Python 3.10: every source file parses under its
    grammar. This checks syntax only; a call to a standard-library API newer
    than 3.10 still parses and is not caught here."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_3_10_grammar_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
