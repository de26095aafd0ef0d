"""No public name in src/minhess is dead: every public module-level def or
class is referred to by some src module, unless the allow-list below names
it with its reason.  References are Name and Attribute nodes of the modules'
syntax trees, so a mention in a docstring or an export in __init__ does not
count."""

from __future__ import annotations

import ast
from pathlib import Path

import minhess

SRC = Path(minhess.__file__).parent

# public names with no src caller, each kept for a stated reason
ALLOWED = {
    "min_right_coset_rep": "the benchmark's draw and tracer look it up",
    "levi_flag_class": "the reference for hess_schubert_class in test_classes and test_acceptance",
    "peterson_dual_class": "a formula of the paper, which a planned Schubert-basis check covers",
}


def public_defs_and_references(src=SRC):
    """The public module-level defs and classes of the modules in src, each
    with its module, and every name the modules refer to."""
    defined, referenced = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_public_name_has_a_src_reference():
    defined, referenced = public_defs_and_references()
    dead = set(defined) - referenced
    assert dead == set(ALLOWED), (
        "unreferenced public names outside the allow-list: "
        + ", ".join(f"{defined[name]}:{name}" for name in sorted(dead - set(ALLOWED)))
        + f"; allow-listed names referenced or gone: {sorted(set(ALLOWED) - dead)}"
    )


def test_docstrings_do_not_count_as_references(tmp_path):
    """A name mentioned only in a docstring stays unreferenced."""
    (tmp_path / "a.py").write_text(
        'def used():\n    """Calls nothing; see orphan."""\n\n\n'
        "def orphan():\n    return used()\n"
    )
    defined, referenced = public_defs_and_references(tmp_path)
    assert set(defined) == {"used", "orphan"}
    assert "used" in referenced and "orphan" not in referenced
