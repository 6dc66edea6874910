"""Every public name of dyndeg is run by the package, a script or the tracer.

A name that only tests call belongs in the test that uses it, as a
test-local reference.  The scan reads source with ast and imports nothing
from scripts/ or bench/.
"""

import ast
import inspect
from pathlib import Path

import dyndeg

ROOT = Path(__file__).resolve().parents[1]

# the independent routes the tests check the engines against
REFERENCE_ROUTES = {"monomial_to_rational", "pair_oracle"}


def _referenced_names(paths):
    """Every name read, attribute taken or name imported in the files, and
    every string that is one identifier: the tracer binds functions by name."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    package = ROOT / "src" / "dyndeg"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "bench" / "tracing.py"]
    referenced = _referenced_names(paths)
    public = {name for name in dyndeg.__all__
              if not inspect.ismodule(getattr(dyndeg, name))}
    assert sorted(public - referenced - REFERENCE_ROUTES) == []
