"""No code in src/minhess writes into an object through object.__setattr__.
Records are named tuples that compute every derived field in ``__new__``,
and memos are functools caches, so nothing is written into an immutable
value, during construction or after it.  Calls are found in the modules'
syntax trees, so a mention in a docstring does not count."""

from __future__ import annotations

import ast
from pathlib import Path

import minhess

SRC = Path(minhess.__file__).parent


def _is_object_setattr(node):
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
    )


def setattr_calls(src=SRC):
    """Each object.__setattr__ call in the modules of src, as (file, line,
    innermost enclosing function)."""
    found = []

    def visit(node, path, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _is_object_setattr(child):
                found.append((path.name, child.lineno, func))
            visit(child, path, child.name if isinstance(child, ast.FunctionDef) else func)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, None)
    return found


def test_no_object_setattr_in_src():
    assert setattr_calls() == []


def test_guard_finds_a_memo_written_into_a_frozen_value(tmp_path):
    """A write from a dataclass's __post_init__, from a function nested in
    it, from another method, from the __post_init__ of a class that is not a
    dataclass, or from a plain function, is each found."""
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    def __post_init__(self):\n"
        '        object.__setattr__(self, "mu", 1)\n\n'
        "        def later():\n"
        '            object.__setattr__(self, "mu", 3)\n\n'
        "    def remember(self, value):\n"
        '        object.__setattr__(self, "_last", value)\n\n\n'
        "class Plain:\n"
        "    def __post_init__(self):\n"
        '        object.__setattr__(self, "x", 0)\n\n\n'
        "def decompose(w, cfg):\n"
        '    object.__setattr__(cfg, "_last", w)\n'
    )
    assert setattr_calls(tmp_path) == [
        ("a.py", 7, "__post_init__"),
        ("a.py", 10, "later"),
        ("a.py", 13, "remember"),
        ("a.py", 18, "__post_init__"),
        ("a.py", 22, "decompose"),
    ]
