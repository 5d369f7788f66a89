from __future__ import annotations

import re

import pytest

from paralat.cli import main
from paralat.errors import MalformedGrammarFile
from paralat.estimation import train_grammar
from paralat.grammar import (
    LatentGrammar,
    LayerConfig,
    StateLabel,
    deserialize_grammar,
    load_grammar,
    save_grammar,
    serialize_grammar,
    validate,
)


def _tiny_grammar(binary_mass: float = 1.0) -> LatentGrammar:
    s0 = StateLabel(0)
    return LatentGrammar(
        layers=LayerConfig(1),
        roots={("S", s0): 1.0},
        binary={("S", s0): {("A", s0, "B", s0): binary_mass}},
        lexical={("A", s0): {"a": 1.0}, ("B", s0): {"b": 1.0}},
    )


class TestValidate:
    def test_mle_grammar_is_clean(self, triplet_trees):
        grammar = train_grammar(triplet_trees, m=2, seed=0)
        assert validate(grammar).ok

    def test_deficient_distribution_reported(self):
        report = validate(_tiny_grammar(binary_mass=0.9))
        assert not report.ok
        assert any("sums to" in v for v in report.violations)

    def test_two_layer_note_mentions_state_product(self):
        s = StateLabel(0, 0)
        grammar = LatentGrammar(
            layers=LayerConfig(24, 1000),
            roots={("S", s): 1.0},
            binary={("S", s): {("A", s, "B", s): 1.0}},
            lexical={("A", s): {"a": 1.0}, ("B", s): {"b": 1.0}},
        )
        report = validate(grammar)
        assert report.ok
        assert any("24,000 latent states" in note for note in report.notes)

    def test_symbol_misuse_reported(self, tmp_path, capsys):
        # A symbol with both binary and lexical rules is refused where a
        # grammar is made: by the loader, naming the file, and by the MLE.
        path = tmp_path / "both.lpcfg"
        path.write_text(
            "LPCFG v1 layers=1 m1=1 m2=0\n"
            "ROOT\tS\t0\t1\n"
            "BIN\tS\t0\tX\t0\tX\t0\t1\n"
            "BIN\tX\t0\tA\t0\tA\t0\t1\n"
            "LEX\tX\t0\tx\t1\n"
            "LEX\tA\t0\ta\t1\n",
            encoding="utf-8",
        )
        assert main(["validate-grammar", "--grammar", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: symbols used as both binary and lexical parents: ['X']\n"

        trees = tmp_path / "both.trees"
        trees.write_text("(S (X a) (X (A b) (B c)))\n", encoding="utf-8")
        out = tmp_path / "both-mle.lpcfg"
        argv = ["train-grammar", "--treebank", str(trees), "--m1", "1", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: symbols used both as interminal and preterminal: ['X']\n"
        assert not out.exists()

    def test_deficit_reported_for_missing_child_support(self):
        s0, s1 = StateLabel(0), StateLabel(1)
        grammar = LatentGrammar(
            layers=LayerConfig(2),
            roots={("S", s0): 1.0},
            binary={("S", s0): {("A", s0, "A", s1, ): 1.0}},
            lexical={("A", s0): {"a": 1.0}},
        )
        report = validate(grammar)
        assert any(v.startswith("deficit") for v in report.violations)


class TestRoundTrip:
    def test_one_rule_grammar(self, tmp_path):
        grammar = _tiny_grammar()
        path = tmp_path / "g.lpcfg"
        save_grammar(grammar, str(path))
        loaded = load_grammar(str(path))
        assert loaded == grammar

    def test_roundtrip_bit_exact(self, triplet_trees, tmp_path):
        grammar = train_grammar(triplet_trees, m=2, seed=1)
        path = tmp_path / "g.lpcfg"
        save_grammar(grammar, str(path))
        loaded = load_grammar(str(path))
        assert loaded.roots == grammar.roots
        assert loaded.binary == grammar.binary
        assert loaded.lexical == grammar.lexical
        # Serializing twice is canonical.
        assert serialize_grammar(loaded) == serialize_grammar(grammar)

    def test_mini_grammar_m24_roundtrip(self, triplet_trees):
        grammar = train_grammar(triplet_trees, m=24, seed=5)
        text = serialize_grammar(grammar)
        assert deserialize_grammar(text) == grammar

    def test_two_layer_roundtrip(self, bilayered_toy_grammar):
        text = serialize_grammar(bilayered_toy_grammar)
        loaded = deserialize_grammar(text)
        assert loaded == bilayered_toy_grammar
        assert serialize_grammar(loaded) == text

    def test_empty_grammar_rejected(self):
        with pytest.raises(MalformedGrammarFile):
            deserialize_grammar("LPCFG v1 layers=1 m1=2 m2=0\n")

    def test_corrupted_lines_rejected(self):
        text = serialize_grammar(_tiny_grammar())
        with pytest.raises(MalformedGrammarFile):
            deserialize_grammar(text + "LEX\tA\t0\n")
        with pytest.raises(MalformedGrammarFile):
            deserialize_grammar(text.replace("LPCFG v1", "LPCFG v9"))
        with pytest.raises(MalformedGrammarFile):
            deserialize_grammar(text.replace("1", "x", 1))

    @pytest.mark.parametrize("header, line", [
        ("LPCFG v1 layers=1 m1=2 m2=0", "ROOT\tS\tx\t1"),
        ("LPCFG v1 layers=1 m1=2 m2=0", "ROOT\tS\t0:1\t1"),
        ("LPCFG v1 layers=2 m1=2 m2=2", "LEX\tW\t0\twhat\t1"),
        ("LPCFG v1 layers=2 m1=2 m2=2", "BIN\tS\t0:0\tW\t1:2:3\tW\t0:0\t1"),
    ])
    def test_bad_state_is_named_by_its_line(self, header, line, tmp_path):
        path = tmp_path / "g.lpcfg"
        path.write_text(f"{header}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(MalformedGrammarFile, match=re.escape(f"{path}:3: ")):
            load_grammar(str(path))

    def test_lines_are_counted_at_newlines_only(self, tmp_path):
        # A form feed or a Unicode line separator inside a line neither
        # splits it nor shifts the number of a later line.
        path = tmp_path / "g.lpcfg"
        path.write_text(
            "LPCFG v1 layers=1 m1=2 m2=0\nROOT\tS\t0\t1\x0c\n"
            "LEX\tS\t0\twh\u2028at\t1\nLEX\tS\t0\tday\tx\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedGrammarFile, match=re.escape(f"{path}:4: bad probability")):
            load_grammar(str(path))

    @pytest.mark.parametrize("header", [
        "LPCFG v2 layers=1 m1=2 m2=0",
        "LPCFG v1 layers=1 m1=two m2=0",
        "LPCFG v1 layers=2 m1=2 m2=0",
    ])
    def test_bad_header_is_named_by_line_one(self, header, tmp_path):
        path = tmp_path / "g.lpcfg"
        path.write_text(f"{header}\nROOT\tS\t0\t1\n", encoding="utf-8")
        with pytest.raises(MalformedGrammarFile, match=re.escape(f"{path}:1: ")):
            load_grammar(str(path))

    def test_duplicate_rule_rejected(self):
        text = serialize_grammar(_tiny_grammar())
        dup = text + "LEX\tA\t0\ta\t0.5\n"
        with pytest.raises(MalformedGrammarFile):
            deserialize_grammar(dup)
