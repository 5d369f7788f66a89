"""``scripts/gen_data.py`` regenerates every bundled data file
deterministically: run into an empty directory, it writes the same bytes
as the files shipped in the package."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from paralat.data_files import data_path

GEN_DATA = Path(__file__).resolve().parents[1] / "scripts" / "gen_data.py"


def _gen_data():
    spec = importlib.util.spec_from_file_location("paralat_gen_data", GEN_DATA)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the generator; writes nothing
    return module


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_gen_data_rewrites_the_bundled_files_byte_for_byte(tmp_path):
    gen_data = _gen_data()
    gen_data.DATA = tmp_path
    gen_data.main()
    bundled = _files(Path(data_path("")))
    assert len(bundled) == 30
    assert _files(tmp_path) == bundled
