"""``scripts/line_coverage.py`` finds a file's executable lines, checks
uncovered lines against an allow-list keyed by file and stripped text,
and fails on an uncovered line the list lacks or an entry that is stale.
The traced tier-1 run itself takes minutes, so CI runs it, not this file."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

LINE_COVERAGE = Path(__file__).resolve().parents[1] / "scripts" / "line_coverage.py"


def _script():
    spec = importlib.util.spec_from_file_location("paralat_line_coverage", LINE_COVERAGE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the functions; runs nothing
    return module


def test_executable_lines_reach_nested_code(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        '"""Doc."""\n'
        "\n"
        "def f(x):\n"
        "    # comment\n"
        "    if x:\n"
        "        return [y for y in x]\n"
        "    return None\n",
        encoding="utf-8",
    )
    lines = _script().executable_lines(source)
    assert {3, 5, 6, 7} <= lines
    assert not {2, 4} & lines


def test_check_matches_by_file_and_text(tmp_path):
    allowed = tmp_path / "allowed.txt"
    allowed.write_text(
        "# comment\n\nsrc/a.py\t  raise X()\nsrc/b.py\traise Gone()\n", encoding="utf-8"
    )
    missed = {"src/a.py": [(10, "raise X()"), (12, "return 0")], "src/c.py": [(1, "raise X()")]}
    script = _script()
    new, stale = script.check(missed, script.read_allowed(allowed))
    assert new == ["src/a.py:12: return 0", "src/c.py:1: raise X()"]
    assert stale == ["src/b.py\traise Gone()"]


@pytest.mark.parametrize(
    "new, stale, code",
    [
        ([], [], 0),
        (["src/a.py:12: return 0"], [], 1),
        ([], ["src/b.py\traise Gone()"], 1),
        (["src/a.py:12: return 0"], ["src/b.py\traise Gone()"], 1),
    ],
    ids=["clean", "new", "stale", "both"],
)
def test_verdict_fails_on_new_and_stale_entries(new, stale, code, capsys):
    assert _script().verdict(new, stale) == code
    err = capsys.readouterr().err
    assert all(entry in err for entry in new + stale)
