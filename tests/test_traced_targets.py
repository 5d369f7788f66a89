"""The benchmark reaches the library by name: its traced run
(``perfbench/run.py --trace 1``) wraps library functions by ``(module,
attribute)`` name, and its worker calls library functions with keyword
arguments.  A rename or deletion of one of them, or of a parameter, would
break a benchmark run, which the unit suite does not exercise."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKER = PERFBENCH / "worker.py"


def _traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # stdlib imports only; installs nothing
    return tracer.TARGETS


def test_every_traced_target_resolves():
    missing = []
    for module_name, attr in _traced_targets():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def _worker_library_uses():
    """The worker's imports from ``paralat`` modules, as ``(module, name)``,
    and every attribute chain it reads on a ``paralat`` module it binds,
    as ``(dotted chain, the object it names, the Call node or None)``."""
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    modules, imported = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("paralat.") and alias.asname:
                    modules[alias.asname] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("paralat"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                imported.append((node.module, alias.name))
                value = getattr(owner, alias.name, None)
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        names, root = [node.attr], node.value
        while isinstance(root, ast.Attribute):
            names.insert(0, root.attr)
            root = root.value
        if not (isinstance(root, ast.Name) and root.id in modules):
            continue
        owner = modules[root.id]
        for name in names:
            owner = getattr(owner, name, None)
        reads.append((".".join([root.id, *names]), owner, calls.get(id(node))))
    return imported, reads


def test_every_library_name_the_worker_uses_exists_and_binds_its_arguments():
    imported, reads = _worker_library_uses()
    assert len(reads) >= 40  # the scan found the worker's library calls
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    missing += [chain for chain, owner, _call in reads if owner is None]
    assert missing == []
    unbound = []
    for chain, owner, call in reads:
        if call is None or any(isinstance(arg, ast.Starred) for arg in call.args):
            continue
        try:
            inspect.signature(owner).bind_partial(
                *call.args, **{kw.arg: kw.value for kw in call.keywords if kw.arg}
            )
        except TypeError as exc:
            unbound.append(f"{chain} (line {call.lineno}): {exc}")
    assert unbound == []
