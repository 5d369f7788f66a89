"""Paths to the bundled desk-scale corpus (treebank, rules, KB, QA suite),
the number parser of the weight and score fields, and the atomic writer
every artifact goes through."""

from __future__ import annotations

import math
import os
import tempfile
from importlib.resources import files


def data_path(name: str) -> str:
    """Absolute path of a bundled data file, e.g. ``minitreebank.trees``."""
    return str(files("paralat").joinpath("data", name))


def finite_float(text: str) -> float:
    """``float(text)`` that also raises ValueError for ``nan`` and ``inf``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory, so readers see either the old or the new bytes."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".paralat-tmp-")
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
