"""The public surface is what the program itself runs on.

Every name ``drivenosc`` exports must be used by some module of the
package besides ``__init__.py``: a name only tests reach is not part of
the library.  The exceptions are the closed forms kept as references for
tests to compare the general routes against.
"""

import ast
from pathlib import Path

import drivenosc

PACKAGE = Path(drivenosc.__file__).parent

REFERENCE_IMPLEMENTATIONS = (
    "coherent_wavefunction",
    "generating_function_partial",
    "laboratory_ellipse",
)


def _defined(stmt) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    return set()


def _referenced() -> set[str]:
    """Names read, looked up as attributes or imported by the package's
    modules other than ``__init__.py``, each statement's own definition
    not counted."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
            names |= used - _defined(stmt)
    return names


def test_every_export_is_used_by_the_package():
    referenced = _referenced()
    unused = sorted(set(drivenosc.__all__) - referenced)
    assert unused == sorted(REFERENCE_IMPLEMENTATIONS), \
        f"exported but used only from outside the package: {unused}"
