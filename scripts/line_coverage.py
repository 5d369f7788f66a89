#!/usr/bin/env python3
"""Line coverage of ``src/paralat`` under the tier-1 tests, stdlib only.

Runs ``pytest tests`` in this interpreter with ``sys.settrace`` and
``threading.settrace`` hooked, then prints, per file, the executable
lines that no test ran (the lines that start a statement in a compiled
code object).  Code run in a subprocess is not traced.

    PYTHONPATH=src python3 scripts/line_coverage.py
    PYTHONPATH=src python3 scripts/line_coverage.py --allowed scripts/line_coverage_allowed.txt

With ``--allowed``, it exits 1 when an uncovered line is missing from the
allow-list, and when an allow-list entry matches no uncovered line (the
line is covered now, or gone), so the list shrinks with the code.  The
list has one ``<file><TAB><stripped source line>`` entry per line, ``#``
comments and blank lines skipped, so an edit elsewhere in a file does not
break it.  A run takes about two minutes on two cores.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paralat"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` at which some code object's instructions
    start, over the module and every nested code object."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` under the tracer: its exit code and
    the lines run per file of the package."""
    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hit.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hit


def uncovered(hit: dict[str, set[int]]) -> dict[str, list[tuple[int, str]]]:
    """Per package file (relative to the repository root), its executable
    lines that were not run, with their stripped text."""
    out: dict[str, list[tuple[int, str]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - hit.get(str(path), set()))
        if missed:
            text = path.read_text(encoding="utf-8").splitlines()
            out[str(path.relative_to(ROOT))] = [(n, text[n - 1].strip()) for n in missed]
    return out


def read_allowed(path: Path) -> set[tuple[str, str]]:
    """The ``(file, stripped line)`` entries of an allow-list file."""
    allowed = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            name, _, text = line.partition("\t")
            allowed.add((name.strip(), text.strip()))
    return allowed


def check(
    missed: dict[str, list[tuple[int, str]]], allowed: set[tuple[str, str]]
) -> tuple[list[str], list[str]]:
    """The uncovered lines that the allow-list lacks, as ``file:line:
    text``, and the allow-list entries that no uncovered line matches."""
    found = {(name, text) for name, rows in missed.items() for _, text in rows}
    new = [
        f"{name}:{n}: {text}"
        for name, rows in missed.items()
        for n, text in rows
        if (name, text) not in allowed
    ]
    stale = [f"{name}\t{text}" for name, text in sorted(allowed - found)]
    return new, stale


def verdict(new: list[str], stale: list[str]) -> int:
    """Report what :func:`check` found; the exit code, 1 when anything
    was found."""
    for entry in stale:
        print(f"stale allow-list entry, no uncovered line matches it: {entry}", file=sys.stderr)
    for entry in new:
        print(f"not in the allow-list: {entry}", file=sys.stderr)
    return 1 if new or stale else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--allowed", type=Path, help="allow-list of uncovered lines")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    # A fixed Hypothesis seed, so that the fuzzed tests run the same lines
    # on every run.
    code, hit = run_traced(
        ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
    )
    if code != 0:
        print(f"pytest exited {code}; coverage not checked", file=sys.stderr)
        return 1
    missed = uncovered(hit)
    total = sum(len(executable_lines(p)) for p in PACKAGE.glob("*.py"))
    n_missed = sum(len(rows) for rows in missed.values())
    for name, rows in missed.items():
        for n, text in rows:
            print(f"{name}:{n}: {text}")
    print(f"{n_missed} of {total} executable lines uncovered")
    if args.allowed is None:
        return 0
    return verdict(*check(missed, read_allowed(args.allowed)))


if __name__ == "__main__":
    sys.exit(main())
