"""The README's library tour runs as written and shows the values its
comments state."""

import ast
import re
from pathlib import Path

import pytest

from dyndeg.degrees import DEFAULT_ESTIMATE_TOL

ROOT = Path(__file__).resolve().parents[1]


def test_library_tour():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    shown = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            shown.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    # lambda_sequence(f, 1, 6), product_formula(oracle), log_concavity(engine)
    assert shown == [[2, 6, 18, 54, 162, 486, 1458], True, True]
    oracle = namespace["oracle"]
    assert [d.value for d in oracle.degrees] == pytest.approx([1, 3, 6], rel=1e-12)
    # the log-concavity of the engine compares within the estimate tolerance
    assert namespace["engine"].tolerance == DEFAULT_ESTIMATE_TOL
