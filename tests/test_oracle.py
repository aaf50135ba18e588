"""tests/oracle.py stays independent of the private helpers it checks."""

import ast
from pathlib import Path

ORACLE = Path(__file__).resolve().parent / "oracle.py"


def private_hetfed_uses(source: str) -> list[str]:
    """Every `_`-prefixed name the source imports from hetfed, and every
    `_`-prefixed attribute it reads of a name bound by a hetfed import."""
    tree = ast.parse(source)
    found, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hetfed":
                    found += [part for part in alias.name.split(".") if part.startswith("_")]
                    bound.add(alias.asname or "hetfed")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hetfed":
            found += [part for part in node.module.split(".") if part.startswith("_")]
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(alias.name)
                bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            found += [attr for attr in chain if attr.startswith("_")]
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) > 1
            and isinstance(node.args[0], ast.Name) and node.args[0].id in bound
            and isinstance(node.args[1], ast.Constant)
            and str(node.args[1].value).startswith("_")
        ):
            found.append(node.args[1].value)
    return found


def test_oracle_uses_no_private_hetfed_name():
    assert private_hetfed_uses(ORACLE.read_text()) == []


def test_the_guard_sees_private_uses():
    source = (
        "import hetfed.nn as fast\n"
        "from hetfed import nn, protocol as p\n"
        "from hetfed.nn import _forward, softmax_t\n"
        "from hetfed.errors import ConfigError\n"
        "x = nn._backprop\n"
        "y = fast.Cohort._pass\n"
        "z = getattr(p, '_by_chunk')\n"
        "w = nn.softmax_t(params._private, 1.0)\n"
    )
    assert sorted(private_hetfed_uses(source)) == ["_backprop", "_by_chunk", "_forward", "_pass"]
