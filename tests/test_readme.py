"""README's CLI walkthrough runs as written: every command exits 0 and
writes each ``--out`` file it names."""

from __future__ import annotations

import os
import re
import shlex
from pathlib import Path

from paralat.cli import main
from paralat.data_files import data_path

README = Path(__file__).resolve().parent.parent / "README.md"


def _walkthrough_commands() -> list[str]:
    """The ``paralat`` lines of the ``sh`` block under "CLI walkthrough",
    with their backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI walkthrough", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("paralat ")]


def test_cli_walkthrough_runs(tmp_path):
    data = os.path.dirname(data_path("kb.tsv"))
    commands = _walkthrough_commands()
    assert commands
    for command in commands:
        command = command.replace("$DATA", data).replace("/tmp/", f"{tmp_path}/")
        argv = shlex.split(command)[1:]
        assert main(argv) == 0, command
        if "--out" in argv:
            assert os.path.exists(argv[argv.index("--out") + 1]), command
