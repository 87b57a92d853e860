"""Backticked dotted ``repro.…`` names in the docs must resolve.

A doc that keeps quoting a module, class or function after the code
moved misleads every reader, so each such name in ``README.md`` and
``docs/*.md`` must import as a module or resolve as an attribute of one.
``perfbench/README.md`` is left out: it documents the benchmark, which
changes on its own schedule.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DOCS = [_ROOT / "README.md", *sorted((_ROOT / "docs").glob("*.md"))]
_NAME = re.compile(r"`(repro(?:\.\w+)+)`")


def _resolves(name: str) -> bool:
    """True when ``name`` is a module, or an attribute path inside the
    longest importable module prefix of it."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            missing = exc.name or ""
            if not f"{module_name}.".startswith(f"{missing}."):
                raise  # an existing module failed on one of its own imports
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_resolver():
    assert _resolves("repro.api")
    assert _resolves("repro.api.scheduler.Scheduler.map")
    assert not _resolves("repro.api.no_such_module.Scheduler")
    assert not _resolves("repro.api.NoSuchName")


@pytest.mark.parametrize("doc", _DOCS, ids=lambda path: path.name)
def test_backticked_repro_names_resolve(doc):
    names = sorted(set(_NAME.findall(doc.read_text(encoding="utf-8"))))
    assert [name for name in names if not _resolves(name)] == []
