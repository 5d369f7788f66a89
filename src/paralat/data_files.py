"""Paths to the bundled desk-scale corpus (treebank, rules, KB, QA suite),
:func:`records`, the one reader of every line-oriented input file (grammar
files included), :func:`number`, the one parser of every number field, and
the atomic writer every artifact goes through."""

from __future__ import annotations

import math
import os
import tempfile
from importlib.resources import files
from typing import Callable, Iterator


def data_path(name: str) -> str:
    """Absolute path of a bundled data file, e.g. ``minitreebank.trees``."""
    return str(files("paralat").joinpath("data", name))


def records(path: str) -> Iterator[tuple[int, str]]:
    """``(line number, line without its newline)`` for every line of the
    UTF-8 text file ``path`` that is not blank and whose first non-blank
    character is not ``#``.  A leading byte-order mark is skipped; a file
    that cannot be opened raises its ``OSError``."""
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            head = line.lstrip()
            if head and head[0] != "#":
                yield lineno, line


def finite_float(text: str) -> float:
    """``float(text)`` that also raises ValueError for ``nan`` and ``inf``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def number(text: str, where: str, what: str, error: Callable[[str], Exception]) -> float:
    """The finite number ``text`` of a ``what`` field read at ``where``
    (``path:line``); anything else raises ``error`` naming both."""
    try:
        return finite_float(text)
    except ValueError as exc:
        raise error(f"{where}: bad {what} {text!r}") from exc


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
