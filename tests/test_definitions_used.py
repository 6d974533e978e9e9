"""Every function, class and method the package defines is used by the
package, the bench or the scripts: code that only the tests call is a test
oracle, and lives in the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boweltrack"


def definitions(tree):
    """(qualified name, name) of every function, class and method in
    `tree`, dunders excepted; a method is qualified by its class."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((prefix + child.name, child.name))
                inner = child.name + "." if isinstance(child, ast.ClassDef) else ""
                visit(child, inner)
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_every_definition_is_used_outside_the_tests():
    dirs = (PACKAGE, ROOT / "bench", ROOT / "scripts")
    text = "\n".join(p.read_text() for d in dirs for p in sorted(d.rglob("*.py")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name in definitions(ast.parse(path.read_text())):
            defined = len(re.findall(rf"\b(?:def|class)\s+{name}\b", text))
            if len(re.findall(rf"\b{name}\b", text)) <= defined:
                unused.append(f"{path.stem}.{qualname}")
    assert unused == []
