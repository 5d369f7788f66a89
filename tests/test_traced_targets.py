"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps library
functions by ``(module, attribute)`` name.  A rename or deletion of one of
them would break that run, which the unit suite does not exercise."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
