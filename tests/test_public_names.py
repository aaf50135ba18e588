"""Every public module-level function and class in src/hetfed is used by the
program: something in src/hetfed, scripts/ or bench/ names it outside its
own definition. A name that only tests reach belongs in tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hetfed"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "bench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_used(source: str):
    """(name, line) of every name and attribute in the source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced(modules: dict, users: dict) -> list[str]:
    """`module.name` of each public top-level function or class of
    `modules` (path -> source) that no name or attribute of `users`
    (path -> source) refers to outside the definition's own lines."""
    uses: dict[str, list] = {}
    for path, source in users.items():
        for name, line in names_used(source):
            uses.setdefault(name, []).append((path, line))
    missing = []
    for path, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                inside = range(node.lineno, node.end_lineno + 1)
                if all(p == path and line in inside for p, line in uses.get(node.name, ())):
                    missing.append(f"{Path(path).stem}.{node.name}")
    return missing


def test_every_public_name_in_src_is_used_by_the_program():
    modules = {str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    users = {str(p): p.read_text() for root in USERS for p in sorted(root.rglob("*.py"))}
    assert unreferenced(modules, users) == []


def test_the_guard_sees_unused_names():
    module = (
        "def used():\n"
        "    return 1\n"
        "def calls_only_itself(n):\n"
        "    return calls_only_itself(n - 1) if n else 0\n"
        "class Unused:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "x = 1\n"
    )
    user = "import m\nm.used()\n"
    found = unreferenced({"m.py": module}, {"m.py": module, "user.py": user})
    assert found == ["m.calls_only_itself", "m.Unused"]
