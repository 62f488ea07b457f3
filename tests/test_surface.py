"""The public surface is what the program itself runs on.

Every name ``drivenosc`` exports, and every public method or property
of an exported class, must be used by some module of the package besides
``__init__.py``: a name only tests reach is not part of the library.  The
exceptions are the closed forms kept as references for tests to compare
the general routes against.  The README's library example runs as
written.
"""

import ast
import inspect
import math
from pathlib import Path

import pytest

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


def _used(node) -> set[str]:
    """Names read, looked up as attributes or imported under node, each
    statement's own definition not counted; a class body counts per
    statement, so a method that only calls itself is not used."""
    if isinstance(node, ast.ClassDef):
        header = [*node.bases, *node.keywords, *node.decorator_list]
        return set().union(*map(_used, header), *map(_used, node.body)) - {node.name}
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used - _defined(node)


def _referenced() -> set[str]:
    """Names the package's modules other than ``__init__.py`` use."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for stmt in ast.parse(path.read_text()).body:
                names |= _used(stmt)
    return names


def test_every_export_is_used_by_the_package():
    referenced = _referenced()
    unused = sorted(set(drivenosc.__all__) - referenced)
    assert unused == sorted(REFERENCE_IMPLEMENTATIONS), \
        f"exported but used only from outside the package: {unused}"


def _public_methods(cls):
    """Names of the methods and properties a class defines itself."""
    for attr, member in vars(cls).items():
        if not attr.startswith("_") and (
                inspect.isfunction(member)
                or isinstance(member, (property, classmethod, staticmethod))):
            yield attr


def test_every_public_method_of_an_export_is_used_by_the_package():
    referenced = _referenced()
    classes = [cls for cls in map(drivenosc.__dict__.get, drivenosc.__all__)
               if inspect.isclass(cls)]
    unused = sorted(f"{cls.__name__}.{attr}" for cls in classes
                    for attr in _public_methods(cls) if attr not in referenced)
    assert unused == [], \
        f"public methods used only from outside the package: {unused}"


def test_readme_library_example_runs():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library example"):]
    code = section[section.index("```python\n") + len("```python\n"):section.index("\n```\n")]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["lam"] == pytest.approx(2.0, abs=1e-12)
    assert namespace["row"].probabilities[0] == pytest.approx(math.exp(-2.0), abs=1e-12)
    lams = namespace["lams"]
    assert lams.shape == (101,) and lams[0] == 0.0 and lams[-1] == namespace["lam"]
