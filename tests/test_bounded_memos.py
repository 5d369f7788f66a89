"""Every ``functools`` memo in ``paralat`` states a finite integer
``maxsize``.  A memo lives as long as the process, so an unbounded one
grows with every distinct argument over a long ``--input``; no output
changes, so only this test sees it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "paralat"
MEMOS = ("lru_cache", "cache")


def _bounded(call: ast.Call | None) -> bool:
    """Whether ``call`` passes ``lru_cache`` a literal integer ``maxsize``,
    by position or by keyword."""
    if call is None:
        return False
    given = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return any(
        isinstance(value, ast.Constant) and type(value.value) is int for value in given
    )


def memo_sites(source: str) -> list[tuple[int, bool]]:
    """Each use of ``functools.lru_cache`` or ``functools.cache`` in
    ``source``, under any import name, as (line, whether it is bounded).
    ``cache`` never is; ``lru_cache`` is when called with a literal
    integer ``maxsize``."""
    tree = ast.parse(source)
    names: dict[str, str] = {}  # the name bound in the module -> the functools name
    modules: set[str] = set()  # the names functools itself is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((a.asname or a.name, a.name) for a in node.names if a.name in MEMOS)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            memo = names[node.id]
        elif (isinstance(node, ast.Attribute) and node.attr in MEMOS
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            memo = node.attr
        else:
            continue
        sites.append((node.lineno, memo == "lru_cache" and _bounded(calls.get(id(node)))))
    return sorted(sites)


@pytest.mark.parametrize("source, bounded", [
    ("from functools import lru_cache\n@lru_cache(maxsize=64)\ndef f(x): pass", True),
    ("from functools import lru_cache\n@lru_cache(64)\ndef f(x): pass", True),
    ("import functools\n@functools.lru_cache(maxsize=0)\ndef f(x): pass", True),
    ("from functools import lru_cache\n@lru_cache\ndef f(x): pass", False),
    ("from functools import lru_cache\n@lru_cache()\ndef f(x): pass", False),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass", False),
    ("from functools import lru_cache\n@lru_cache(None)\ndef f(x): pass", False),
    ("from functools import lru_cache\nN = 64\n@lru_cache(maxsize=N)\ndef f(x): pass", False),
    ("from functools import lru_cache\n@lru_cache(maxsize=True)\ndef f(x): pass", False),
    ("import functools as ft\n@ft.lru_cache(maxsize=None)\ndef f(x): pass", False),
    ("from functools import cache\n@cache\ndef f(x): pass", False),
    ("import functools\n@functools.cache\ndef f(x): pass", False),
    ("from functools import lru_cache as memo\ng = memo(maxsize=None)(len)", False),
])
def test_memo_sites_on_toy_modules(source, bounded):
    assert [ok for _, ok in memo_sites(source)] == [bounded]


def test_no_unbounded_memo_in_paralat():
    sites = {
        str(path.relative_to(SRC)): memo_sites(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }
    unbounded = [f"{name}:{line}" for name, found in sites.items() for line, ok in found if not ok]
    assert unbounded == []
    assert sites["classifier.py"] and sites["semparse.py"]
