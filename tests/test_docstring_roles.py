"""Every Sphinx cross-reference in a ``paralat`` docstring names something
that exists.  A rename that leaves a stale ``:meth:`` or ``:func:`` behind
breaks no code, so only this test sees it."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re

import paralat

ROLE = re.compile(r":(?:func|meth|class|data|attr):`([^`]+)`")


def _docstrings(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def _lookup(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def _resolves(module, target: str) -> bool:
    """Whether ``target``, less a ``~`` and a ``paralat.`` prefix, names an
    attribute of ``module``, of one of its classes, or of the package."""
    target = target.removeprefix("~").removeprefix("paralat.")
    head = target.split(".")[0]
    owners = [module, *(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                        if cls.__module__ == module.__name__)]
    if importlib.util.find_spec(f"paralat.{head}") is not None:
        owners.append(paralat)
        importlib.import_module(f"paralat.{head}")
    return any(_lookup(owner, target) for owner in owners)


def test_every_docstring_role_target_resolves():
    checked = 0
    stale = []
    for info in pkgutil.iter_modules(paralat.__path__):
        module = importlib.import_module(f"paralat.{info.name}")
        for doc in _docstrings(inspect.getsource(module)):
            for target in ROLE.findall(doc):
                checked += 1
                if not _resolves(module, target):
                    stale.append(f"{info.name}: {target}")
    assert stale == []
    assert checked
