"""Every import of the package sits at the top of its module.

A function-local import defers nothing once ``import oldroydb`` has loaded
the modules, and hides what a module depends on.  The one exception breaks
a real cycle: ``monitor`` imports ``solver`` at load time, so
``solver.simulate`` imports ``EnergyLedger`` when it runs.
"""

import ast
from pathlib import Path

import oldroydb

PACKAGE = Path(oldroydb.__file__).parent
ALLOWED = {("solver.py", "simulate", "from .monitor import EnergyLedger")}


class _FunctionImports(ast.NodeVisitor):
    """Collect (module file, innermost function, import statement, line)."""

    def __init__(self, filename: str):
        self.filename, self.stack, self.hits = filename, [], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        if self.stack:
            self.hits.append((self.filename, self.stack[-1], ast.unparse(node), node.lineno))

    visit_ImportFrom = visit_Import


def function_imports(package: Path) -> list[tuple[str, str, str, int]]:
    hits = []
    for path in sorted(package.glob("*.py")):
        visitor = _FunctionImports(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        hits += visitor.hits
    return hits


def test_no_function_local_imports():
    hits = function_imports(PACKAGE)
    unexpected = [h for h in hits if h[:3] not in ALLOWED]
    assert not unexpected, "function-local imports: " + "; ".join(
        f"{name}:{line} in {fn}: {stmt}" for name, fn, stmt, line in unexpected)
    # the exception goes once the cycle does
    assert {h[:3] for h in hits} == ALLOWED
