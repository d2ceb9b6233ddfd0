"""Every name that the package, the scripts, the tests and the benchmark import is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    *sorted((ROOT / "src" / "modchain").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
]


def unused_imports(source: str) -> list[str]:
    """'line: name' for each imported name that the module never reads.

    A name counts as read when it appears as an expression or, for a package
    __init__, when it is listed in __all__.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_detector_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import sys as system\n"
        "from .a import b, c\n"
        "from .d import e\n"
        "__all__ = ['e']\n"
        "def f(x: c) -> None:\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(source) == ["4: b", "3: system"]


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix().removeprefix("src/")
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path
