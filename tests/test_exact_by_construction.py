"""No float can enter ``src/cassoc``, read off its syntax.

Every module is parsed and walked: a float or complex literal, a call to
``float`` and any ``math`` name outside the integer functions below fail the
test, whether or not some other test reaches that line.
"""

import ast
from pathlib import Path

import pytest

import cassoc

INTEGER_MATH = {"comb", "factorial", "gcd", "lcm", "isqrt"}
MODULES = sorted(Path(cassoc.__file__).parent.glob("*.py"))


def float_uses(source: str) -> list:
    """``line: what`` for every float or complex literal, ``float(...)`` call and
    non-integer ``math`` name in ``source``."""
    tree = ast.parse(source)
    found = []
    math_modules = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names if a.name == "math"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{node.lineno}: call to float")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno}: math.{a.name}" for a in node.names if a.name not in INTEGER_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_modules and node.attr not in INTEGER_MATH):
            found.append(f"{node.lineno}: math.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_float(path):
    assert float_uses(path.read_text()) == []


def test_the_checker_sees_each_kind_of_float():
    source = "x = 0.5\nz = 2j\ny = float(x)\nfrom math import sqrt, comb\nimport math as m\nw = m.pi + m.gcd(4, 6)\n"
    assert sorted(float_uses(source)) == [
        "1: literal 0.5", "2: literal 2j", "3: call to float", "4: math.sqrt", "6: math.pi",
    ]
