"""Every function, class and method the package defines is used by the
package, the bench or the scripts: code that only the tests call is a test
oracle, and lives in the tests.  Every function reads each of its
parameters: one it ignores is a leftover of an old signature.  And no
module imports a stage's private name."""

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


def unread_parameters(tree):
    """(function name, parameter) for each parameter of a `def` in `tree`
    that its body, nested definitions included, never reads; lambdas are
    not checked."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read |= {node.target.id for stmt in fn.body for node in ast.walk(stmt)
                 if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
        found += [(fn.name, p) for p in params if p not in read]
    return found


def test_every_parameter_is_read():
    unread = [f"{path.stem}.{name}({param})"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, param in unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


# The pipeline's stages; each offers the others only its public names.
STAGES = {"ridge", "supervoxel", "rag", "sampling", "route"}


def private_stage_imports(tree):
    """(stage, name) for each `_`-prefixed name that `tree` imports from a
    stage module, relatively or through the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            stage = node.module.removeprefix("boweltrack.")
            if stage in STAGES and (node.level or node.module.startswith("boweltrack.")):
                found += [(stage, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_a_stage():
    """A stage's `_` names are its own: shared helpers live outside the
    stages, as volume_io's do."""
    imports = [f"{path.stem} <- {stage}.{name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for stage, name in private_stage_imports(ast.parse(path.read_text()))]
    assert imports == []
