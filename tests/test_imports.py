"""Every name that the package, the scripts, the tests and the benchmark import
is used, every private module-level name of the package is read in it, and
`import modchain` loads only the modules a solve runs."""

import ast
from pathlib import Path

import pytest

import modchain

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "modchain").glob("*.py"))
SOURCES = [
    *PACKAGE,
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'module: name' for each module-level _name (not a dunder) that no
    module reads: as a loaded name, an attribute or an imported name."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                top = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in top for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in targets
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_private_name_detector_sees_unread_and_read_names():
    sources = {
        "a": (
            "_CAP = 1\n_unused, _pair = 2, 3\n_typed: int = 4\n__all__ = []\n"
            "class _Old: pass\ndef _f(): return _CAP + _pair\n"
        ),
        "b": "from .a import _f\nimport a\na._typed\n",
    }
    assert unread_private_names(sources) == ["a: _unused", "a: _Old"]


def test_no_unread_private_names():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_private_names(sources) == []


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix().removeprefix("src/")
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path


def test_import_loads_only_the_solve_path(fresh_python):
    out = fresh_python(
        "import sys\n"
        "import modchain\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'modchain')))\n"
    )
    solve_path = ["chains", "dlog", "errors", "factorint", "modcore", "solver"]
    assert out.split() == ["modchain", *(f"modchain.{m}" for m in solve_path)]


def test_every_public_name_resolves():
    for name in modchain.__all__:
        assert getattr(modchain, name) is not None, name
    namespace: dict = {}
    exec("from modchain import *", namespace)
    assert set(modchain.__all__) <= set(namespace)
    # the planner's names are the planner's own objects, loaded on first use
    assert namespace["validate_chain"] is modchain.planner.validate_chain


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        modchain.no_such_name
