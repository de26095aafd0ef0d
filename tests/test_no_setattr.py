"""No code in src/minhess writes into an object through object.__setattr__,
except a dataclass's __post_init__ filling in a derived field of a frozen
instance while it is built.  Memos are functools caches, so nothing is
written into a frozen value after construction.  Calls are found in the
modules' syntax trees, so a mention in a docstring does not count."""

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


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def setattr_calls(src=SRC):
    """Each object.__setattr__ call in the modules of src outside a
    dataclass's __post_init__, as (file, line, enclosing function)."""
    found = []

    def visit(node, path, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, child, None)
            elif isinstance(child, ast.FunctionDef):
                # a method's class is the one it is defined directly in
                visit(child, path, cls if func is None else None, child)
            else:
                if isinstance(child, ast.Call) and _is_object_setattr(child):
                    allowed = (
                        func is not None
                        and func.name == "__post_init__"
                        and cls is not None
                        and _is_dataclass(cls)
                    )
                    if not allowed:
                        found.append((path.name, child.lineno, func.name if func else None))
                visit(child, path, cls, func)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, None, None)
    return found


def test_object_setattr_only_in_dataclass_post_init():
    assert setattr_calls() == []


def test_guard_finds_a_memo_written_into_a_frozen_value(tmp_path):
    """A write from a plain function, from a method other than
    __post_init__, from a function nested in __post_init__, or from the
    __post_init__ of a class that is not a dataclass, is each found; the
    dataclass's own __post_init__ is not."""
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
        ("a.py", 10, "later"),
        ("a.py", 13, "remember"),
        ("a.py", 18, "__post_init__"),
        ("a.py", 22, "decompose"),
    ]
