"""Rules on the library's source text."""
import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "lenstau"


def offences(tree: ast.AST) -> list[tuple[int, str]]:
    """The line and kind of each node that breaks a source rule:
    - an assert statement, or a read of __debug__: python -O removes
      the one and reads the other as False, and changes nothing else,
      so without them every check runs the same under -O;
    - a bare ValueError raised: each refusal is a lenstau.errors class."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append((node.lineno, "raise ValueError"))
    return found


def test_library_keeps_the_source_rules():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    found = [f"{path.name}:{line}: {kind}" for path in paths
             for line, kind in offences(ast.parse(path.read_text(), path))]
    assert found == []
