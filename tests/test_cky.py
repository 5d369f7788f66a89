from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from oracles import best_logprob, derivation_yield, enumerate_strings, random_toy_grammar, rescore
from paralat import cky
from paralat.cky import cky_viterbi, render_derivation
from paralat.data_files import data_path
from paralat.errors import ParseFailure
from paralat.estimation import read_alignments, train_bilayered_grammar, train_grammar
from paralat.grammar import LatentGrammar, LayerConfig, StateLabel, validate
from paralat.lattice import build_bilayered
from paralat.treebank import binarize, read_treebank


def _chain_grammar() -> LatentGrammar:
    s0 = StateLabel(0)
    return LatentGrammar(
        layers=LayerConfig(1),
        roots={("S", s0): 1.0},
        binary={("S", s0): {("A", s0, "B", s0): 1.0}},
        lexical={("A", s0): {"a": 0.25, "z": 0.75}, ("B", s0): {"b": 1.0}},
    )


def _ambiguous_grammar() -> LatentGrammar:
    """Two derivations of "a b": 0.06 via (A,0)(B,0) and 0.04 via (A,1)(B,1)."""
    s0, s1 = StateLabel(0), StateLabel(1)
    return LatentGrammar(
        layers=LayerConfig(2),
        roots={("S", s0): 1.0},
        binary={
            ("S", s0): {("A", s0, "B", s0): 0.6, ("A", s1, "B", s1): 0.4}
        },
        lexical={
            ("A", s0): {"a": 0.1, "z": 0.9},
            ("A", s1): {"a": 0.1, "z": 0.9},
            ("B", s0): {"b": 1.0},
            ("B", s1): {"b": 1.0},
        },
    )


class TestCkyViterbi:
    def test_single_token_unique_derivation(self):
        s0 = StateLabel(0)
        grammar = LatentGrammar(
            layers=LayerConfig(1),
            roots={("A", s0): 1.0},
            binary={},
            lexical={("A", s0): {"hi": 0.5, "yo": 0.5}},
        )
        tree = cky_viterbi(["hi"], grammar)
        assert tree.logprob == pytest.approx(math.log(1.0) + math.log(0.5))
        assert derivation_yield(tree.root) == ("hi",)

    def test_prefers_higher_probability_derivation(self):
        grammar = _ambiguous_grammar()
        assert validate(grammar).ok
        tree = cky_viterbi(["a", "b"], grammar)
        assert tree.logprob == pytest.approx(math.log(0.06))
        left = tree.root.children[0]
        assert (left.symbol, left.state) == ("A", StateLabel(0))

    def test_figure_tree_notation(self, bilayered_toy_grammar):
        tree = cky_viterbi("what day is nochebuena".split(), bilayered_toy_grammar)
        assert render_derivation(tree.root) == (
            "(SBARQ-33-403 (WHNP-7-291 (WP-7-254 what) (NN-45-142 day)) "
            "(SQ-8-925 (AUX-22-300 is) (NN-41-854 nochebuena)))"
        )

    def test_parse_failure(self):
        with pytest.raises(ParseFailure, match="no derivation covers 'b b'"):
            cky_viterbi(["b", "b"], _chain_grammar())
        with pytest.raises(ParseFailure):
            cky_viterbi([], _chain_grammar())
        # With no lexical rule at all, the unknown-word floor has no
        # preterminal to go to.
        no_words = replace(_chain_grammar(), lexical={})
        with pytest.raises(ParseFailure, match="no lexical rule covers 'a'"):
            cky_viterbi(["a"], no_words)

    def test_unknown_word_floor_allows_parse(self):
        tree = cky_viterbi(["qqq", "b"], _chain_grammar())
        assert derivation_yield(tree.root) == ("qqq", "b")

    def test_rescore_matches_reported_logprob(self):
        grammar = _ambiguous_grammar()
        tree = cky_viterbi(["a", "b"], grammar)
        assert rescore(tree.root, grammar) == pytest.approx(tree.logprob, abs=1e-12)

    def test_deterministic_tie_break(self):
        s0, s1 = StateLabel(0), StateLabel(1)
        grammar = LatentGrammar(
            layers=LayerConfig(2),
            roots={("S", s0): 1.0},
            binary={
                ("S", s0): {("A", s0, "B", s0): 0.5, ("A", s1, "B", s1): 0.5}
            },
            lexical={
                ("A", s0): {"a": 1.0},
                ("A", s1): {"a": 1.0},
                ("B", s0): {"b": 1.0},
                ("B", s1): {"b": 1.0},
            },
        )
        tree = cky_viterbi(["a", "b"], grammar)
        assert tree.root.children[0].state == StateLabel(0)


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_grammars(self):
        from oracles import TooAmbiguous

        rng = random.Random(20240601)
        checked = 0
        grammars = 0
        while grammars < 30:
            grammar = random_toy_grammar(rng)
            assert validate(grammar).ok
            strings = sorted(enumerate_strings(grammar, max_len=6))
            try:
                scored = [(toks, best_logprob(toks, grammar)) for toks in strings[:8]]
            except TooAmbiguous:
                continue
            grammars += 1
            for tokens, expected in scored:
                tree = cky_viterbi(list(tokens), grammar)
                assert tree.logprob == pytest.approx(expected, abs=1e-12)
                assert rescore(tree.root, grammar) == pytest.approx(
                    tree.logprob, abs=1e-12
                )
                checked += 1
        assert checked >= 50


@pytest.fixture(scope="module")
def heldout_grammars():
    """The bilayered (m1=2, m2=16) and the one-layer (m=2) grammar of the
    bundled treebank, and the 50 bundled held-out questions."""
    trees = [binarize(t) for t in read_treebank(data_path("minitreebank.trees"))]
    _, layered = train_bilayered_grammar(
        trees, read_alignments(data_path("alignments.tsv")), m1=2, m2=16, seed=1
    )
    with open(data_path("heldout_questions.txt"), encoding="utf-8") as handle:
        questions = [line.lower().split() for line in handle.read().splitlines()]
    assert len(questions) == 50
    return layered, train_grammar(trees, m=2, seed=1), questions


def _parse(tokens, grammar):
    """The derivation of ``tokens``, or the message of its ParseFailure."""
    try:
        return cky_viterbi(tokens, grammar)
    except ParseFailure as exc:
        return str(exc)


class TestChartIndex:
    def test_built_once_per_grammar_object(self, heldout_grammars, monkeypatch):
        layered, _plain, questions = heldout_grammars
        built_for = []
        build = cky._Index.__init__

        def counted(self, grammar):
            built_for.append(grammar)
            build(self, grammar)

        monkeypatch.setattr(cky._Index, "__init__", counted)
        # A copy has equal tables but no index yet.
        grammar = replace(layered)
        for tokens in questions:
            try:
                build_bilayered(tokens, grammar)
            except ParseFailure:
                pass
        assert len(built_for) == 1 and built_for[0] is grammar
        other = replace(layered)
        _parse(questions[0], other)
        assert len(built_for) == 2 and built_for[1] is other

    def test_alternating_grammars_parse_as_with_fresh_indexes(
        self, heldout_grammars, monkeypatch
    ):
        layered, plain, questions = heldout_grammars
        a, b = replace(layered), replace(plain)
        with monkeypatch.context() as patch:
            patch.setattr(cky, "_index", cky._Index)  # a fresh index per parse
            fresh = [[_parse(tokens, g) for g in (a, b)] for tokens in questions]
        cached = [[_parse(tokens, g) for g in (a, b, a)] for tokens in questions]
        assert cached == [[on_a, on_b, on_a] for on_a, on_b in fresh]
        assert any(on_a != on_b for on_a, on_b in fresh)
