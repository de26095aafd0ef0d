"""The benchmark's tracer names only functions that exist.

``bench/tracing.py`` wraps public minhess functions by module and name, so a
deleted or renamed function breaks ``bench/run.py --trace 1``.  Installing a
``Tracer`` here makes that a tier-1 failure.  The module is loaded from its
source without writing bytecode, so nothing under ``bench/`` changes.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import minhess  # noqa: F401  (every minhess module the tracer patches)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _minhess_namespaces():
    spaces = {
        name: vars(mod) for name, mod in sys.modules.items()
        if name == "minhess" or name.startswith("minhess.")
    }
    spaces["WeylElement"] = vars(minhess.WeylElement)
    return {name: dict(space) for name, space in spaces.items()}


def test_tracer_installs_every_traced_name_and_uninstalls_cleanly(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    before = _minhess_namespaces()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for _, module, attr in tracing.SPANS + tracing.COUNTERS:
            target = importlib.import_module(f"minhess.{module}")
            for part in attr.split("."):
                target = getattr(target, part)
            assert hasattr(target, "__wrapped__"), f"{module}.{attr} is not wrapped"
    finally:
        tracer.uninstall()
    after = _minhess_namespaces()
    assert after.keys() == before.keys()
    for name, space in before.items():
        assert space.keys() == after[name].keys()
        assert all(after[name][key] is value for key, value in space.items()), name
