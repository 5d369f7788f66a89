from __future__ import annotations

import dataclasses
import gc
import math
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from oracles import (
    enumerate_strings,
    is_single_path_subset,
    random_multipath_lattice,
    random_toy_grammar,
    reference_draw,
    reference_narrow,
    reference_prune_grammar,
    reference_remove_conflicting,
    reference_sample_one,
    word_salad_grammar,
)
from paralat import sampler
from paralat.classifier import Gazetteer, filter_candidates, read_labeled_pairs, train
from paralat.data_files import data_path
from paralat.errors import EmptyIntersection, ParseFailure
from paralat.estimation import read_alignments, train_bilayered_grammar, train_grammar
from paralat.grammar import LatentGrammar, LayerConfig, StateLabel, validate
from paralat.lattice import (
    ORIGIN_BILAYERED,
    ORIGIN_RULE,
    Edge,
    WordLattice,
    build_bilayered,
    build_from_rules,
    build_naive,
    conflict_masks,
    enumerate_edge_paths,
    load_rules,
    remove_conflicting,
)
from paralat.sampler import (
    ParaphraseCandidate,
    SampleFailure,
    _pick,
    _Question,
    _table,
    prune_grammar,
    sample_many,
    sample_one,
)
from paralat.treebank import binarize, read_treebank

S0 = StateLabel(0)


def _product_grammar() -> LatentGrammar:
    """Five-rule grammar with four derivable strings at known probabilities:
    a b (0.42), a d (0.18), c b (0.28), c d (0.12)."""
    return LatentGrammar(
        layers=LayerConfig(1),
        roots={("S", S0): 1.0},
        binary={("S", S0): {("A", S0, "B", S0): 1.0}},
        lexical={
            ("A", S0): {"a": 0.6, "c": 0.4},
            ("B", S0): {"b": 0.7, "d": 0.3},
        },
    )


def _symbols(pruned) -> set[str]:
    """The symbols of a pruned grammar: those with a word or a rule left."""
    return {sym for sym, _ in pruned.lexical} | {sym for sym, _ in pruned.binary}


def _closure_grammar() -> LatentGrammar:
    """Five rules; X only derives "b b", so pruning to {a} must drop it."""
    return LatentGrammar(
        layers=LayerConfig(1),
        roots={("S", S0): 0.7, ("X", S0): 0.3},
        binary={
            ("S", S0): {("A", S0, "A", S0): 0.5, ("A", S0, "B", S0): 0.5},
            ("X", S0): {("B", S0, "B", S0): 1.0},
        },
        lexical={("A", S0): {"a": 1.0}, ("B", S0): {"b": 1.0}},
    )


class TestPruneGrammar:
    def test_identity_when_vocabulary_covered(self):
        grammar = _product_grammar()
        pruned = prune_grammar(grammar, build_naive("a b c d".split()))
        assert dict(pruned.roots) == grammar.roots
        assert {ctx: dict(t) for ctx, t in pruned.binary.items()} == grammar.binary
        assert {ctx: dict(t) for ctx, t in pruned.lexical.items()} == grammar.lexical

    def test_closure_removes_unreachable_interminal(self):
        pruned = prune_grammar(_closure_grammar(), build_naive(["a"]))
        assert _symbols(pruned) == {"S", "A"}
        assert ("B", S0) not in pruned.lexical
        assert list(pruned.binary[("S", S0)]) == [(("A", S0, "A", S0), 0.5)]
        # Conditional distributions are kept unrenormalized.
        assert dict(pruned.roots) == {("S", S0): 0.7}

    def test_figure_lattice_restricts_vocabulary(self, czech_lattice, triplet_trees):
        from paralat.estimation import train_grammar

        grammar = train_grammar(triplet_trees, m=2, seed=0)
        # No question word survives on this lattice; intersection is empty.
        with pytest.raises(EmptyIntersection):
            prune_grammar(grammar, czech_lattice)

    def test_surviving_vocabulary_subset_of_lattice(self, czech_lattice):
        grammar = word_salad_grammar(sorted(czech_lattice.vocabulary()) + ["zzz"])
        pruned = prune_grammar(grammar, czech_lattice)
        surviving_words = {
            w for table in pruned.lexical.values() for w, _ in table
        }
        assert surviving_words <= czech_lattice.vocabulary()
        assert "zzz" not in surviving_words

    @staticmethod
    def _assert_prunes_as_reference(grammar, lat):
        try:
            expected = reference_prune_grammar(grammar, lat)
        except EmptyIntersection:
            with pytest.raises(EmptyIntersection):
                prune_grammar(grammar, lat)
            return False
        got = prune_grammar(grammar, lat)
        assert got == expected
        # The tables keep the grammar's order too, not only its entries.
        assert list(got.lexical.items()) == list(expected.lexical.items())
        assert list(got.binary.items()) == list(expected.binary.items())
        return True

    def test_equals_per_lattice_sorting_on_bundled_grammars(self, bundled_lattices):
        grammar, layered, per_question = bundled_lattices
        for g in (grammar, layered):
            pruned = sum(
                self._assert_prunes_as_reference(g, lat)
                for _tokens, lattices in per_question
                for lat in lattices
            )
            assert pruned >= len(per_question)

    def test_equals_per_lattice_sorting_on_random_toy_lattices(self):
        rng = random.Random(11)
        outcomes = Counter()
        for _ in range(300):
            grammar = random_toy_grammar(rng)
            for _ in range(3):
                chain = random_multipath_lattice(rng)
                lat = WordLattice(chain.source, chain.sink, tuple(sorted(
                    {e._replace(token="abcd"[int(e.token[1]) % 4]) for e in chain.edges}
                )))
                outcomes[self._assert_prunes_as_reference(grammar, lat)] += 1
        assert outcomes[True] > 100 and outcomes[False] > 10

    def test_supports_built_once_per_grammar_object(self, monkeypatch):
        built = []
        make = sampler._Supports

        def counted(**fields):
            built.append(fields)
            return make(**fields)

        monkeypatch.setattr(sampler, "_Supports", counted)
        grammar = _closure_grammar()
        lattices = [build_naive(["a"]), build_naive(["a", "b"]), build_naive(["b", "b"])]
        first = [prune_grammar(grammar, lat) for lat in lattices]
        assert len(built) == 1
        # An equal but separate grammar builds supports of its own.
        other = dataclasses.replace(grammar)
        assert other == grammar and "_sampler_supports" not in other.__dict__
        again = [prune_grammar(other, lat) for lat in lattices]
        assert len(built) == 2
        assert other.__dict__["_sampler_supports"] is not grammar.__dict__["_sampler_supports"]
        assert [p.grammar for p in again] == [other] * 3
        assert [(p.roots, p.binary, p.lexical) for p in again] == [
            (p.roots, p.binary, p.lexical) for p in first
        ]


class TestSampleOne:
    def test_single_derivation_any_seed(self):
        grammar = LatentGrammar(
            layers=LayerConfig(1),
            roots={("S", S0): 1.0},
            binary={("S", S0): {("A", S0, "B", S0): 1.0}},
            lexical={("A", S0): {"a": 1.0}, ("B", S0): {"b": 1.0}},
        )
        lat = build_naive(["a", "b"])
        pruned = prune_grammar(grammar, lat)
        for seed in range(10):
            result = sample_one(_Question(pruned, lat), seed)
            assert isinstance(result, ParaphraseCandidate)
            assert result.tokens == ("a", "b")

    def test_consumed_path_matches_tokens(self):
        grammar = _product_grammar()
        lat = build_naive("a b c d".split())
        pruned = prune_grammar(grammar, lat)
        result = sample_one(_Question(pruned, lat), 0)
        assert isinstance(result, ParaphraseCandidate)
        assert Counter(e.token for e in result.consumed_path) == Counter(result.tokens)

    def test_worked_sampling_example(self, czech_lattice):
        # A grammar whose single derivation is "what is czech republic 's
        # language ?" draws every word from the lattice path that runs
        # through "people 's" and "is speaking".
        sentence = "what is czech republic 's language ?".split()
        binary = {}
        for i in range(len(sentence) - 1):
            tail = (f"S{i + 1}", S0) if i + 2 < len(sentence) else (f"W{i + 1}", S0)
            binary[(f"S{i}", S0)] = {(f"W{i}", S0, *tail): 1.0}
        lexical = {(f"W{i}", S0): {tok: 1.0} for i, tok in enumerate(sentence)}
        grammar = LatentGrammar(
            layers=LayerConfig(1),
            roots={("S0", S0): 1.0},
            binary=binary,
            lexical=lexical,
        )
        pruned = prune_grammar(grammar, czech_lattice)
        result = sample_one(_Question(pruned, czech_lattice), 0)
        assert isinstance(result, ParaphraseCandidate)
        assert result.tokens == tuple(sentence)
        path_tokens = [e.token for e in result.consumed_path]
        assert sorted(path_tokens) == sorted(sentence)

    def test_removed_paths_never_mix(self, czech_lattice):
        grammar = word_salad_grammar(sorted(czech_lattice.vocabulary()))
        pruned = prune_grammar(grammar, czech_lattice)
        alternatives = {"people", "'s", "human", "beings", "the", "population",
                        "members", "of", "public"}
        for seed in range(300):
            result = sample_one(_Question(pruned, czech_lattice), seed)
            if isinstance(result, SampleFailure):
                continue
            used = set(result.tokens)
            if "citizens" in used:
                assert used & alternatives == set()

    def test_depth_cap_reports_failure(self):
        # S -> S S dominates, so most draws need more words than the two
        # edges of the lattice: they end as dead ends, with no depth cap.
        grammar = LatentGrammar(
            layers=LayerConfig(1),
            roots={("S", S0): 1.0},
            binary={
                ("S", S0): {("S", S0, "S", S0): 0.9, ("A", S0, "A", S0): 0.1}
            },
            lexical={("A", S0): {"a": 1.0}},
        )
        lat = build_naive(["a", "a"])
        pruned = prune_grammar(grammar, lat)
        results = [sample_one(_Question(pruned, lat), s) for s in range(30)]
        failures = [r for r in results if isinstance(r, SampleFailure)]
        assert failures
        assert {f.reason for f in failures} == {"dead-end"}

    def test_long_right_branching_draws_complete(self):
        # S -> W S | W W over a 40-word chain: a draw of n words is n - 1
        # levels deep, so a cap of 32 levels dropped every draw of 34 words
        # or more.  Each draw completes exactly when the reference with no
        # depth cap completes it, with the same fields.
        words = [f"w{i}" for i in range(40)]
        grammar = LatentGrammar(
            layers=LayerConfig(1),
            roots={("S", S0): 1.0},
            binary={("S", S0): {("W", S0, "S", S0): 0.97, ("W", S0, "W", S0): 0.03}},
            lexical={("W", S0): dict.fromkeys(words, 1 / 40)},
        )
        lat = build_naive(words)
        pruned = prune_grammar(grammar, lat)
        question = _Question(pruned, lat)
        lengths = []
        for s in range(400):
            got = sample_one(question, s)
            expected = reference_sample_one(pruned, lat, s, depth_cap=10**9)
            if isinstance(expected, SampleFailure):
                assert isinstance(got, SampleFailure)
            else:
                assert got == expected
                lengths.append(len(got.tokens))
        assert len(lengths) > 250 and sum(n >= 34 for n in lengths) > 20


class TestSampleMany:
    def test_input_question_excluded(self):
        grammar = LatentGrammar(
            layers=LayerConfig(1),
            roots={("S", S0): 1.0},
            binary={("S", S0): {("A", S0, "B", S0): 1.0}},
            lexical={("A", S0): {"a": 1.0}, ("B", S0): {"b": 1.0}},
        )
        lat = build_naive(["a", "b"])
        assert sample_many(["a", "b"], grammar, lat, 1, seed=0) == []

    def test_exhausts_language_minus_input(self):
        # Exactly three derivable strings; the input is excluded.
        grammar = LatentGrammar(
            layers=LayerConfig(1),
            roots={("S", S0): 1.0},
            binary={("S", S0): {("A", S0, "B", S0): 1.0}},
            lexical={
                ("A", S0): {"a": 1.0},
                ("B", S0): {"b": 0.5, "c": 0.3, "d": 0.2},
            },
        )
        language = set(enumerate_strings(grammar))
        assert language == {("a", "b"), ("a", "c"), ("a", "d")}
        lat = build_naive("a b c d".split())
        candidates = sample_many(["a", "b"], grammar, lat, 1000, seed=0)
        assert {c.tokens for c in candidates} == language - {("a", "b")}

    def test_zero_samples_refused(self, czech_lattice):
        grammar = word_salad_grammar(sorted(czech_lattice.vocabulary()))
        with pytest.raises(ValueError, match="m_samples must be >= 1"):
            sample_many(["what"], grammar, czech_lattice, 0, seed=0)

    def test_deterministic(self, czech_lattice):
        grammar = word_salad_grammar(sorted(czech_lattice.vocabulary()))
        question = "what language do people in czech republic speak ?".split()
        a = sample_many(question, grammar, czech_lattice, 40, seed=17)
        b = sample_many(question, grammar, czech_lattice, 40, seed=17)
        assert [c.tokens for c in a] == [c.tokens for c in b]
        assert [c.seed for c in a] == [c.seed for c in b]

    def test_question_longer_than_recursion_limit(self):
        question = ["a"] * 1200
        grammar = word_salad_grammar(["a"])
        candidates = sample_many(question, grammar, build_naive(question), 20, seed=0)
        assert candidates
        assert all(set(c.tokens) == {"a"} and 2 <= len(c.tokens) < 1200 for c in candidates)

    def test_empty_intersection_propagates(self, triplet_trees):
        from paralat.estimation import train_grammar

        grammar = train_grammar(triplet_trees, m=2, seed=0)
        with pytest.raises(EmptyIntersection):
            sample_many(["x"], grammar, build_naive(["x"]), 5, seed=0)


class TestDistributionalSoundness:
    def test_chi_square_against_enumerated_probabilities(self):
        grammar = _product_grammar()
        assert validate(grammar).ok
        expected = enumerate_strings(grammar)
        assert sum(expected.values()) == pytest.approx(1.0)
        lat = build_naive("a b c d".split())
        pruned = prune_grammar(grammar, lat)
        counts: Counter[tuple[str, ...]] = Counter()
        n = 10000
        for seed in range(n):
            result = sample_one(_Question(pruned, lat), seed)
            assert isinstance(result, ParaphraseCandidate)
            counts[result.tokens] += 1
        keys = sorted(expected)
        observed = [counts[k] for k in keys]
        exp = [expected[k] * n for k in keys]
        stat, pvalue = chisquare(observed, exp)
        assert pvalue > 0.01

    def test_deterministic_per_seed(self):
        grammar = _product_grammar()
        lat = build_naive("a b c d".split())
        pruned = prune_grammar(grammar, lat)
        first = [sample_one(_Question(pruned, lat), s) for s in range(50)]
        second = [sample_one(_Question(pruned, lat), s) for s in range(50)]
        assert [getattr(r, "tokens", None) for r in first] == [
            getattr(r, "tokens", None) for r in second
        ]


class TestPathInvariant:
    def test_candidates_consume_single_paths(self):
        rng = random.Random(99)
        total = 0
        for _ in range(20):
            lat = random_multipath_lattice(rng)
            grammar = word_salad_grammar(sorted(lat.vocabulary()))
            pruned = prune_grammar(grammar, lat)
            for seed in range(25):
                result = sample_one(_Question(pruned, lat), seed)
                if isinstance(result, SampleFailure):
                    continue
                total += 1
                assert is_single_path_subset(lat, result.consumed_path)
        assert total >= 100

    def test_repruning_preserves_invariants(self, czech_lattice):
        from paralat.lattice import remove_conflicting

        grammar = word_salad_grammar(sorted(czech_lattice.vocabulary()))
        pruned = prune_grammar(grammar, czech_lattice)
        citizens = next(e for e in czech_lattice.edges if e.token == "citizens")
        smaller = remove_conflicting(czech_lattice, citizens)
        re_pruned = prune_grammar(grammar, smaller)
        vocab = smaller.vocabulary()
        for (sym, _), table in re_pruned.lexical.items():
            assert sym in _symbols(re_pruned)
            for word, _ in table:
                assert word in vocab
        for ctx, table in re_pruned.binary.items():
            for (b, _, c, _), _ in table:
                assert b in _symbols(re_pruned) and c in _symbols(re_pruned)


HELDOUT = 8
DRAWS = 60


@pytest.fixture(scope="module")
def bundled_lattices():
    """The m1=2 grammar and the m1=2, m2=16 bilayered grammar trained at
    seed 1 on the bundled treebank, and per bundled held-out question its
    tokens and lattices: over the bundled rewrite rules and, where the
    question parses, bilayered."""
    trees = [binarize(t) for t in read_treebank(data_path("minitreebank.trees"))]
    grammar = train_grammar(trees, m=2, seed=1)
    _, layered = train_bilayered_grammar(
        trees, read_alignments(data_path("alignments.tsv")), m1=2, m2=16, seed=1
    )
    rules = load_rules(data_path("rewrite_rules.tsv"))
    with open(data_path("heldout_questions.txt"), encoding="utf-8") as handle:
        questions = [line.lower().split() for line in handle.read().splitlines()]
    per_question = []
    for tokens in questions:
        lattices = [build_from_rules(tokens, rules)]
        try:
            lattices.append(build_bilayered(tokens, layered))
        except ParseFailure:
            pass
        per_question.append((tokens, lattices))
    return grammar, layered, per_question


@pytest.fixture(scope="module")
def heldout_lattices(bundled_lattices):
    """The m1=2 grammar and (question, lattice) for the rules and the
    bilayered lattices of the first bundled held-out questions, leaving
    out the lattices the grammar has no root over."""
    grammar, _layered, per_question = bundled_lattices
    cases = []
    for tokens, lattices in per_question[:HELDOUT]:
        for lat in lattices:
            try:
                prune_grammar(grammar, lat)
            except EmptyIntersection:
                continue
            cases.append((tokens, lat))
    assert len(cases) >= HELDOUT
    assert any(e.origin == ORIGIN_BILAYERED for _tokens, lat in cases for e in lat.edges)
    return grammar, cases


def _reference_many(question, grammar, lat, m_samples, seed):
    """``sample_many`` over :func:`oracles.reference_sample_one`, capped at
    the depth of the lattice's longest path, which no completed draw
    reaches (a draw of n words is at most n - 1 levels deep)."""
    pruned = prune_grammar(grammar, lat)
    depth_cap = max(len(path) for path in enumerate_edge_paths(lat, 10**6))
    seen = {tuple(question)}
    out = []
    for s in range(seed, seed + m_samples):
        result = reference_sample_one(pruned, lat, s, depth_cap)
        if isinstance(result, ParaphraseCandidate) and result.tokens not in seen:
            seen.add(result.tokens)
            out.append(result)
    return out


def _read(seed, k):
    """The k-th float of ``seed``'s cached stream, read as a pick reads it:
    the list is extended from the stream's generator until it is longer
    than k."""
    rng, floats = sampler._stream(seed)
    while k >= len(floats):
        floats.append(rng.random())
    return floats[k]


def _watch_lookups(monkeypatch, seen) -> None:
    """Call ``seen(ctx)`` on every draw-table lookup: of the roots' and
    interminals' tables (``_Question.table``) and of the preterminals'
    (``_Question.words``)."""
    for name in ("table", "words"):
        def watched(self, ctx, *args, lookup=getattr(sampler._Question, name)):
            seen(ctx)
            return lookup(self, ctx, *args)
        monkeypatch.setattr(sampler._Question, name, watched)


class TestLatticeStateMemo:
    @pytest.mark.parametrize("seed", [0, 7, 90210])
    def test_sample_many_equals_unmemoized_reference(self, heldout_lattices, seed):
        grammar, cases = heldout_lattices
        total = 0
        for tokens, lat in cases:
            got = sample_many(tokens, grammar, lat, DRAWS, seed)
            assert got == _reference_many(tokens, grammar, lat, DRAWS, seed)
            total += len(got)
        assert total >= len(cases)

    def test_random_grammars_equal_reference(self):
        # Small random grammars over random lattices, dead ends included.
        # Some of them rewrite interminals to interminals most of the
        # time; the longest-path bound (and the reference's depth cap at
        # the longest path) keeps their breadth-first frontier small.
        rng = random.Random(5)
        checked = 0
        while checked < 40:
            grammar = random_toy_grammar(rng)
            chain = random_multipath_lattice(rng)
            lat = WordLattice(chain.source, chain.sink, tuple(sorted(
                {e._replace(token="abc"[int(e.token[1]) % 3]) for e in chain.edges}
            )))
            if not validate(grammar).ok:
                continue
            try:
                prune_grammar(grammar, lat)
            except EmptyIntersection:
                continue
            checked += 1
            got = sample_many(["q"], grammar, lat, DRAWS, checked)
            expected = _reference_many(["q"], grammar, lat, DRAWS, checked)
            assert got == expected

    def test_supercritical_grammar_is_bounded_by_longest_path(self, monkeypatch):
        # The 28th grammar of test_random_grammars_equal_reference has
        # S-1 -> S-1 S-1 as the only rule of S-1: a draw that reaches it
        # doubles its frontier at every level.  Without the longest-path
        # bound, one such draw 32 levels deep builds 2^32 frontier nodes.
        rng = random.Random(5)
        checked = 0
        while checked < 28:
            grammar = random_toy_grammar(rng)
            chain = random_multipath_lattice(rng)
            lat = WordLattice(chain.source, chain.sink, tuple(sorted(
                {e._replace(token="abc"[int(e.token[1]) % 3]) for e in chain.edges}
            )))
            if not validate(grammar).ok:
                continue
            try:
                prune_grammar(grammar, lat)
            except EmptyIntersection:
                continue
            checked += 1
        s1 = ("S", StateLabel(1))
        assert grammar.binary[s1] == {(*s1, *s1): 1.0}
        longest = max(len(path) for path in enumerate_edge_paths(lat, 10**6))

        # Each level draws at most ``longest`` contexts, over at most
        # ``longest`` levels, plus the root.
        budget = DRAWS * (1 + longest * longest)
        looked_up = []

        def counted(ctx):
            looked_up.append(ctx)
            assert len(looked_up) <= budget, "the frontier outgrew the longest path"

        _watch_lookups(monkeypatch, counted)
        got = sample_many(["q"], grammar, lat, DRAWS, checked)
        expected = _reference_many(["q"], grammar, lat, DRAWS, checked)
        assert got and got == expected

    def test_longest_path_bound_ends_a_draw_before_its_next_level(self, monkeypatch):
        # S -> S S | A A, A -> a, over the two edges of "a a".  A draw whose
        # root rewrites to S S has four pending contexts at the level
        # below (S, S), more than the longest path's two edges, so it ends
        # as it reaches that level, before the level's first pick.
        # The S S weight is subcritical, so a draw without the bound would
        # still end, after reading more floats.
        s, a = ("S", S0), ("A", S0)
        grammar = LatentGrammar(
            layers=LayerConfig(1),
            roots={s: 1.0},
            binary={s: {(*s, *s): 0.3, (*a, *a): 0.7}},
            lexical={a: {"a": 1.0}},
        )
        lat = build_naive(["a", "a"])
        pruned = prune_grammar(grammar, lat)
        streams = {}

        def fresh(seed):
            entry = streams[seed] = (sampler._random.Random(seed), [])
            return entry

        monkeypatch.setattr(sampler, "_stream", fresh)
        outcomes = Counter()
        for seed in range(200):
            # A fresh question: the draw walks from the start and reads
            # only the floats of its own picks.
            result = sample_one(_Question(pruned, lat), seed)
            outcomes[type(result), len(streams[seed][1])] += 1
        # A draw's k-th pick reads float k, and the single-value root pick
        # is pick 0: "a a" reads up to float 1, S's pick; a dead end reads
        # up to float 3, the second pick of the level (S, S).
        assert set(outcomes) == {(ParaphraseCandidate, 2), (SampleFailure, 4)}

    def test_longest_path_equals_enumeration(self):
        rng = random.Random(3)
        for _ in range(50):
            lat = random_multipath_lattice(rng)
            paths = enumerate_edge_paths(lat, 10**6)
            depth = sampler._depths(lat)
            assert depth[lat.sink] == max(len(p) for p in paths)
            # A topological rank: it grows along every edge.
            assert all(depth[e.src] < depth[e.dst] for e in lat.edges)
        # Far longer than the recursion limit.
        assert sampler._depths(build_naive(["a"] * 5000))[5000] == 5000

    def test_cached_state_keeps_narrowed_support(self):
        # W is emitted before X is expanded; after "a" only X -> B B
        # survives, after "c" only X -> D D, so every draw completes.
        lat = WordLattice(0, 3, tuple(sorted(
            Edge(src, dst, tok, ORIGIN_RULE)
            for src, dst, tok in [(0, 1, "a"), (1, 2, "b"), (2, 3, "b"),
                                  (0, 4, "c"), (4, 5, "d"), (5, 3, "d")]
        )))
        grammar = LatentGrammar(
            layers=LayerConfig(1),
            roots={("S", S0): 1.0},
            binary={
                ("S", S0): {("W", S0, "X", S0): 1.0},
                ("X", S0): {("B", S0, "B", S0): 0.5, ("D", S0, "D", S0): 0.5},
            },
            lexical={
                ("W", S0): {"a": 0.5, "c": 0.5},
                ("B", S0): {"b": 1.0},
                ("D", S0): {"d": 1.0},
            },
        )
        pruned = prune_grammar(grammar, lat)
        question = _Question(pruned, lat)
        draws = [sample_one(question, seed) for seed in range(20)]
        assert draws == [reference_sample_one(pruned, lat, seed) for seed in range(20)]
        assert {d.tokens for d in draws} == {("a", "b", "b"), ("c", "d", "d")}
        assert len(question.lattices) == 3

    def test_word_whose_edge_was_consumed_is_not_drawn_again(self):
        # "a" is on edge 0-1 only, which shares a path with every edge: a
        # draw that emits it first keeps the full lattice, edge and all,
        # but its second word must come from "b" and "c".
        lat = WordLattice(0, 2, tuple(sorted(
            Edge(src, dst, tok, ORIGIN_RULE)
            for src, dst, tok in [(0, 1, "a"), (1, 2, "b"), (1, 2, "c")]
        )))
        w = ("W", S0)
        grammar = LatentGrammar(
            layers=LayerConfig(1),
            roots={("S", S0): 1.0},
            binary={("S", S0): {("W", S0, "W", S0): 1.0}},
            lexical={w: {"a": 0.5, "b": 0.3, "c": 0.2}},
        )
        pruned = prune_grammar(grammar, lat)
        expected = [reference_sample_one(pruned, lat, seed) for seed in range(40)]
        assert [sample_one(_Question(pruned, lat), seed) for seed in range(40)] == expected
        question = _Question(pruned, lat)
        assert [sample_one(question, seed) for seed in range(40)] == expected
        assert {d.tokens for d in expected} == {("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")}
        full = (1 << len(lat.edges)) - 1
        assert question.words(w, full)[0] == ("a", "b", "c")
        assert question.words(w, full & ~1)[0] == ("b", "c")

    def test_fresh_question_draw_equals_reference(self, heldout_lattices):
        grammar, cases = heldout_lattices
        for _tokens, lat in cases:
            pruned = prune_grammar(grammar, lat)
            for seed in range(DRAWS):
                expected = reference_sample_one(pruned, lat, seed)
                assert sample_one(_Question(pruned, lat), seed) == expected

    def test_conflict_removal_once_per_state_and_edge(self, heldout_lattices, monkeypatch):
        # The question maps each edge mask its draws reach to a lattice:
        # the full mask to its own lattice, and every other one to the
        # lattice of one conflict removal, made when a walk first reaches
        # the mask.
        grammar, cases = heldout_lattices
        calls = []

        def recording(lat, edge):
            calls.append((lat.edges, edge))
            return remove_conflicting(lat, edge)

        questions = []
        init = sampler._Question.__init__

        def recorded(question, *args):
            questions.append(question)
            init(question, *args)

        monkeypatch.setattr("paralat.sampler.remove_conflicting", recording)
        monkeypatch.setattr(sampler._Question, "__init__", recorded)
        total = 0
        for tokens, lat in cases:
            calls.clear()
            questions.clear()
            got = sample_many(tokens, grammar, lat, DRAWS, 7)
            total += len(calls)
            # A case whose draws all end before a word is emitted (at a
            # pick that is not live) removes nothing.
            (question,) = questions
            assert len(calls) == len(set(calls)) == len(question.lattices) - 1
            assert question.lattices[(1 << len(lat.edges)) - 1] is lat
            assert got == _reference_many(tokens, grammar, lat, DRAWS, 7)
        assert total

    def test_draws_leave_no_reference_cycle(self, bundled_lattices):
        # Trie cursors hold edge masks, not objects that point back to the
        # question, so a question and its trie are freed by reference
        # counting alone.  A question whose pruning raises is left out: a
        # caught exception's traceback is a cycle of its own.
        grammar, _layered, per_question = bundled_lattices
        cases = []
        for tokens, lattices in per_question:
            try:
                prune_grammar(grammar, lattices[0])
            except EmptyIntersection:
                continue
            cases.append((tokens, lattices[0]))
        assert len(cases) > HELDOUT
        gc.collect()
        gc.disable()
        try:
            drawn = sum(len(sample_many(tokens, grammar, lat, DRAWS, 7)) for tokens, lat in cases)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert drawn

    def test_question_builds_each_draw_table_once(self, heldout_lattices, monkeypatch):
        # The question keeps every draw table, keyed by what the table
        # depends on: each key is built once, however many lookups ask
        # for it.
        grammar, cases = heldout_lattices
        built = []
        looked_up = []
        table = sampler._table

        def counted(items):
            built.append(items)
            return table(items)

        monkeypatch.setattr(sampler, "_table", counted)
        _watch_lookups(monkeypatch, looked_up.append)
        builds = 0
        for _tokens, lat in cases:
            built.clear()
            question = _Question(prune_grammar(grammar, lat), lat)
            for seed in range(7, 7 + DRAWS):
                sample_one(question, seed)
            assert len(built) == len(question.tables)
            builds += len(built)
        assert 0 < builds < len(looked_up)


S1 = StateLabel(1)


def _dead_state_grammar(roots: dict) -> LatentGrammar:
    """X-0 derives "a a"; X-1's only rule needs B, whose one word "b" is on
    no lattice below, so X survives pruning but X-1 derives nothing."""
    return LatentGrammar(
        layers=LayerConfig(2),
        roots=roots,
        binary={
            ("S", S0): {("A", S0, "X", S0): 0.5, ("A", S0, "X", S1): 0.5},
            ("S", S1): {("X", S1, "X", S1): 1.0},
            ("X", S0): {("A", S0, "A", S0): 0.6, ("X", S1, "A", S0): 0.4},
            ("X", S1): {("A", S0, "B", S0): 1.0},
        },
        lexical={("A", S0): {"a": 1.0}, ("B", S0): {"b": 1.0}},
    )


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestStateMasks:
    def test_mask_equals_iterated_conflict_removal(self):
        # On a valid lattice an edge survives the consumed edges exactly
        # when one of it and each of them reaches the other, so the AND of
        # their compatibility masks is the edge set conflict removal keeps.
        rng = random.Random(14)
        steps = 0
        for _ in range(200):
            lat = random_multipath_lattice(rng)
            compat = conflict_masks(lat)
            mask = (1 << len(lat.edges)) - 1
            current = lat
            free = list(lat.edges)
            while free:
                edge = free.pop(rng.randrange(len(free)))
                mask &= compat[lat.edges.index(edge)]
                current = reference_remove_conflicting(current, edge)
                assert [lat.edges[i] for i in _bits(mask)] == list(current.edges)
                free = [e for e in free if e in current.edges]
                steps += 1
        assert steps > 600

    def test_memo_states_match_their_lattices(self, heldout_lattices):
        # Every mask a question's draws reached: it names the edges of the
        # lattice the question keeps for it, and its symbols are those of
        # the grammar narrowed to that lattice afresh.  A preterminal's
        # table, read for the mask's edges with none or one of them
        # consumed, holds the words with an edge of that lattice left.
        grammar, cases = heldout_lattices
        checked = 0
        for _tokens, lat in cases:
            pruned = prune_grammar(grammar, lat)
            question = _Question(pruned, lat)
            for seed in range(DRAWS):
                sample_one(question, seed)
            for mask, lattice in question.lattices.items():
                assert [lat.edges[i] for i in _bits(mask)] == list(lattice.edges)
                narrowed = reference_narrow(pruned, lattice.vocabulary())
                assert question.closure(mask) == _symbols(narrowed)
                for consumed in [None, *lattice.edges]:
                    left = {e.token for e in lattice.edges if e != consumed}
                    free = mask if consumed is None else mask & ~(1 << lat.edges.index(consumed))
                    for ctx, entries in pruned.lexical.items():
                        values, cum, total = question.words(ctx, free)
                        kept = [(w, p) for w, p in entries if w in left]
                        assert (values, cum, total) == _table(kept)
                        checked += bool(kept) and len(kept) < len(entries)
        assert checked

    def test_symbols_are_closed_only_when_a_walk_reads_them(self, heldout_lattices, monkeypatch):
        # A mask's symbols are closed the first time a walk reads them, and
        # they equal the closure over the preterminals with a word on one
        # of its lattice's edges.  A mask that no walk reads makes no
        # closure.
        grammar, cases = heldout_lattices
        closures = []
        close = sampler._close

        def counted(surviving, pairs):
            closures.append(pairs)
            return close(surviving, pairs)

        monkeypatch.setattr(sampler, "_close", counted)
        pairs = sampler._supports(grammar).pairs
        unread = 0
        for _tokens, lat in cases:
            pruned = prune_grammar(grammar, lat)
            closures.clear()
            question = _Question(pruned, lat)
            for seed in range(DRAWS):
                sample_one(question, seed)
            read = len(question.closed)
            assert question.closed.keys() <= question.lattices.keys()
            unread += len(question.lattices) - read
            # One closure over contexts for the question's live contexts,
            # then one per distinct preterminal set that a read mask has.
            assert sum(p is pairs for p in closures) == len(question.symbols) <= read
            assert len(closures) == 1 + len(question.symbols)
            for mask, lattice in question.lattices.items():
                vocabulary = lattice.vocabulary()
                eager = close(
                    {sym for (sym, _), entries in pruned.lexical.items()
                     if any(w in vocabulary for w, _ in entries)},
                    pairs,
                )
                assert question.closed.get(mask, eager) == eager
                assert question.closure(mask) == eager
                assert question.closed[mask] is question.closure(mask)
        assert unread

    def test_draw_ends_at_pick_of_dead_context(self, monkeypatch):
        grammar = _dead_state_grammar({("S", S0): 1.0})
        lat = build_naive(["a", "a", "a"])
        pruned = prune_grammar(grammar, lat)
        # X-1 keeps no rule, but S-0 and X-0 still rewrite to it.
        assert _symbols(pruned) == {"S", "X", "A"} and ("X", S1) not in pruned.binary
        assert (("A", S0, "X", S1), 0.5) in pruned.binary[("S", S0)]
        looked_up = []
        _watch_lookups(monkeypatch, looked_up.append)
        lookups = Counter()
        results = []
        for seed in range(60):
            # A fresh question, so the draw walks rather than replays a trie.
            looked_up.clear()
            result = sample_one(_Question(pruned, lat), seed)
            results.append(result)
            if isinstance(result, SampleFailure):
                # The draw ends at the binary pick of S or X-0 that reaches
                # X-1: it never looks X-1 up.
                assert looked_up[-1] in {("S", S0), ("X", S0)}
                lookups[len(looked_up)] += 1
            else:
                assert result.tokens == ("a", "a", "a")
            assert ("X", S1) not in looked_up
        assert set(lookups) == {2, 4}
        # With a shared question, a seed replayed after every other one was
        # walked follows the trie and looks nothing up.
        question = _Question(pruned, lat)
        for seed in range(60):
            sample_one(question, seed)
        looked_up.clear()
        assert [sample_one(question, seed) for seed in range(60)] == results
        assert looked_up == []
        monkeypatch.undo()
        got = sample_many(["q"], grammar, lat, DRAWS, 3)
        assert got and got == _reference_many(["q"], grammar, lat, DRAWS, 3)

    def test_no_live_root_seeds_no_generator(self, monkeypatch):
        grammar = _dead_state_grammar({("S", S1): 1.0})
        lat = build_naive(["a", "a", "a"])
        pruned = prune_grammar(grammar, lat)
        assert [ctx for ctx, _ in pruned.roots] == [("S", S1)]

        def no_stream(seed):
            raise AssertionError("a random stream was requested")

        # A cached stream would need no generator, so the stream itself is
        # refused, and so is seeding one into an empty cache.
        monkeypatch.setattr(sampler, "_stream", no_stream)
        monkeypatch.setattr(sampler._streams, "by_seed", {})
        monkeypatch.setattr(sampler._random, "Random", no_stream)
        question = _Question(pruned, lat)
        for seed in range(20):
            assert sample_one(question, seed) == SampleFailure("dead-end", seed)
        got = sample_many(["q"], grammar, lat, DRAWS, 0)
        monkeypatch.undo()
        assert got == _reference_many(["q"], grammar, lat, DRAWS, 0) == []

    def test_c_generator_stream_equals_random_random(self, monkeypatch):
        # A benchmark draw reads at most 18 floats; a fresh stream is read
        # past that, then read again from the cache and extended.
        monkeypatch.setattr(sampler._streams, "by_seed", {})
        seeds = [*range(1000), 2**32, 2**32 + 7, 2**64 + 3, 10**30]
        for seed in seeds:
            fast, slow = sampler._random.Random(seed), random.Random(seed)
            assert [fast.random() for _ in range(5)] == [slow.random() for _ in range(5)]
            reference = random.Random(seed)
            expected = [reference.random() for _ in range(40)]
            assert [_read(seed, k) for k in range(25)] == expected[:25]
            assert [_read(seed, k) for k in range(40)] == expected
            assert sampler._stream(seed)[1] == expected
        assert list(sampler._streams.by_seed) == seeds

    @staticmethod
    def _windows(cases, grammar, order):
        # Question i draws seeds 100 + i onwards, as the CLI's derived seeds
        # do, so neighbouring questions share DRAWS - 1 streams.
        return {i: sample_many(cases[i][0], grammar, cases[i][1], DRAWS, 100 + i)
                for i in order}

    def test_draws_do_not_depend_on_cached_streams(self, heldout_lattices, monkeypatch):
        grammar, cases = heldout_lattices
        forward = range(len(cases))
        monkeypatch.setattr(sampler._streams, "by_seed", {})
        in_order = self._windows(cases, grammar, forward)
        assert len(sampler._streams.by_seed) == DRAWS + len(cases) - 1
        reverse = self._windows(cases, grammar, reversed(forward))
        cold = {}
        for i in forward:
            monkeypatch.setattr(sampler._streams, "by_seed", {})
            cold.update(self._windows(cases, grammar, [i]))
        assert in_order == reverse == cold
        for i, (tokens, lat) in enumerate(cases):
            assert in_order[i] == _reference_many(tokens, grammar, lat, DRAWS, 100 + i)

    def test_threads_keep_their_own_streams(self):
        # Threads read the same seeds' streams at once, switching often:
        # each still gets random.Random(seed)'s floats.
        expected = {}
        for seed in range(300):
            reference = random.Random(seed)
            expected[seed] = [reference.random() for _ in range(30)]
        barrier = threading.Barrier(4, timeout=60)
        wrong, finished = [], []

        def work():
            for seed, floats in expected.items():
                barrier.wait()
                if [_read(seed, k) for k in range(len(floats))] != floats:
                    wrong.append(seed)
            finished.append(True)  # an exception in a thread would not fail the test

        threads = [threading.Thread(target=work) for _ in range(barrier.parties)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(finished) == len(threads) and wrong == []

    def test_draws_past_the_cache_bound(self, heldout_lattices, monkeypatch):
        # More draws than the cache keeps: every stream of the second,
        # overlapping window has been replaced before it is read again.
        grammar, cases = heldout_lattices
        tokens, lat = cases[0]
        m = sampler._STREAMS_KEPT + 100
        monkeypatch.setattr(sampler._streams, "by_seed", {})
        for seed in (0, 1):
            got = sample_many(tokens, grammar, lat, m, seed)
            assert len(sampler._streams.by_seed) == sampler._STREAMS_KEPT
            assert got and got == _reference_many(tokens, grammar, lat, m, seed)


# Weights with ties, zeros, subnormals and values far apart in magnitude.
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 1e-9, 0.1, 0.2, 0.3, 1 / 3, 0.5, 1.0, 7.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


class TestDrawTable:
    @settings(max_examples=400, deadline=None)
    @given(
        weights=st.lists(_WEIGHTS, min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pick_equals_linear_draw(self, weights, seed):
        items = [(f"v{i}", w) for i, w in enumerate(weights)]
        values, cum, total = _table(items)
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert values[_pick(fast.random(), cum, total)] == reference_draw(slow, items)

    def test_all_zero_support_picks_last(self):
        items = [("a", 0.0), ("b", 0.0), ("c", 0.0)]
        values, cum, total = _table(items)
        assert values[_pick(random.Random(0).random(), cum, total)] == "c"

    def test_last_running_sum_is_infinite(self):
        # So a bisection never runs past the last value, in _pick and in
        # a descent of the pick trie alike.
        assert _table([("a", 0.25), ("b", 0.5), ("c", 0.25)]) == (
            ("a", "b", "c"), [0.25, 0.75, math.inf], 1.0
        )
        assert _table([]) == ((), [], 0)


class TestDrawCounts:
    """``sample_many`` makes exactly one ``sample_one`` call per draw."""

    @staticmethod
    def _count(monkeypatch):
        calls = Counter()
        original = sampler.sample_one

        def counted(*args, **kwargs):
            calls["sample_one"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sampler, "sample_one", counted)
        return calls

    def test_duplicates_and_question_cost_one_call_per_draw(self, monkeypatch):
        # Four derivable strings, one of them the question: most of the
        # 300 draws repeat a string already seen.
        calls = self._count(monkeypatch)
        candidates = sample_many(
            ["a", "b"], _product_grammar(), build_naive("a b c d".split()), 300, seed=3
        )
        assert {c.tokens for c in candidates} == {("a", "d"), ("c", "b"), ("c", "d")}
        assert calls["sample_one"] == 300

    def test_heldout_draw_counts(self, heldout_lattices, monkeypatch):
        grammar, cases = heldout_lattices
        calls = self._count(monkeypatch)
        for tokens, lat in cases:
            calls.clear()
            sample_many(tokens, grammar, lat, DRAWS, 7)
            assert calls["sample_one"] == DRAWS

    def test_paraphrase_path_draw_counts(self, heldout_lattices, monkeypatch):
        # The CLI's paraphrase path, sample_many and filter_candidates, at
        # the benchmark's m.  Then every completed draw of those seeds is
        # seen, and none returns a candidate.
        grammar, cases = heldout_lattices
        model = train(read_labeled_pairs(data_path("classifier_pairs.tsv")))
        gazetteer = Gazetteer.load(data_path("gazetteer.txt"))
        calls = self._count(monkeypatch)
        kept = 0
        for tokens, lat in cases:
            calls.clear()
            candidates = sample_many(tokens, grammar, lat, 400, 7)
            kept += len(filter_candidates(model, tokens, candidates, gazetteer))
            assert calls["sample_one"] == 400
            question = _Question(prune_grammar(grammar, lat), lat)
            seen = {tuple(tokens)} | {c.tokens for c in candidates}
            for s in range(7, 407):
                result = sample_one(question, s, seen)
                assert not isinstance(result, ParaphraseCandidate)
        assert kept > 0

    def test_seen_draw_still_checks_its_path(self, monkeypatch):
        # The question's masks are corrupted so that "a" and "c" seem to
        # share a path with every edge: narrowing then keeps "d" after "a"
        # and "b" after "c", and those draws mix two paths.  The path check
        # rejects them even when their tokens were already seen.
        lat = WordLattice(0, 2, tuple(sorted(
            Edge(src, dst, tok, ORIGIN_RULE)
            for src, dst, tok in [(0, 1, "a"), (1, 2, "b"), (0, 3, "c"), (3, 2, "d")]
        )))
        full = (1 << len(lat.edges)) - 1
        corrupted = [full if e.token in "ac" else mask
                     for e, mask in zip(lat.edges, conflict_masks(lat))]
        monkeypatch.setattr(sampler, "conflict_masks", lambda lat: corrupted)
        pruned = prune_grammar(_product_grammar(), lat)
        language = set(enumerate_strings(_product_grammar()))
        mixed = 0
        for seed in range(50):
            try:
                result = sample_one(_Question(pruned, lat), seed, language)
            except AssertionError as exc:
                assert "one path" in str(exc)
                mixed += 1
            else:
                assert result is None
        assert 0 < mixed < 50


class TestPickTrie:
    """The draws of one question share a trie of their picks: a draw that
    replays known picks gives what a walk on a fresh question gives."""

    def test_shared_memo_in_any_order_equals_fresh_memos(self, heldout_lattices, monkeypatch):
        grammar, cases = heldout_lattices
        walk = sampler._walk
        walks = 0

        def counted(*args):
            nonlocal walks
            walks += 1
            return walk(*args)

        rng = random.Random(18)
        draws = 0
        for _tokens, lat in cases:
            pruned = prune_grammar(grammar, lat)
            seeds = list(range(DRAWS))
            fresh = {s: sample_one(_Question(pruned, lat), s) for s in seeds}
            shuffled = rng.sample(seeds, len(seeds))
            monkeypatch.setattr(sampler, "_walk", counted)
            for order in (seeds[::-1], shuffled):
                question = _Question(pruned, lat)
                assert {s: sample_one(question, s) for s in order} == fresh
                draws += len(order)
            monkeypatch.undo()
        # Most draws replay picks an earlier draw of their question made.
        assert 0 < walks < draws / 2

    def test_walk_resumes_where_its_draw_left_the_trie(self, heldout_lattices, monkeypatch):
        # A walk looks tables up only for the picks after the slot its draw
        # reached, so the draws of one question look up fewer tables than
        # its walking seeds do on fresh questions, where every walk starts
        # at the root.  A walk that restarted from the root would make as
        # many.
        grammar, cases = heldout_lattices
        looked_up = []
        _watch_lookups(monkeypatch, looked_up.append)
        walk = sampler._walk
        walked = []

        def recorded(*args):
            walked.append(args[-1])  # the seed
            return walk(*args)

        monkeypatch.setattr(sampler, "_walk", recorded)
        rng = random.Random(25)
        seeds = list(range(DRAWS))
        shared = fresh = 0
        for _tokens, lat in cases:
            pruned = prune_grammar(grammar, lat)
            expected = {s: reference_sample_one(pruned, lat, s) for s in seeds}
            for order in (seeds, seeds[::-1], rng.sample(seeds, len(seeds))):
                question = _Question(pruned, lat)
                looked_up.clear()
                walked.clear()
                assert {s: sample_one(question, s) for s in order} == expected
                case_shared, case_fresh = len(looked_up), 0
                for s in list(walked):
                    looked_up.clear()
                    sample_one(_Question(pruned, lat), s)
                    case_fresh += len(looked_up)
                assert case_shared <= case_fresh
                shared += case_shared
                fresh += case_fresh
        assert 0 < shared < fresh

    def test_seen_leaf_returns_a_candidate_later(self, monkeypatch):
        grammar = _product_grammar()
        lat = build_naive("a b c d".split())
        pruned = prune_grammar(grammar, lat)
        seeds = range(40)
        fresh = [sample_one(_Question(pruned, lat), s) for s in seeds]
        question = _Question(pruned, lat)
        language = set(enumerate_strings(grammar))
        for s in seeds:
            assert not isinstance(sample_one(question, s, language), ParaphraseCandidate)

        def no_walk(*args):
            raise AssertionError("a replayed draw walked")

        # The same leaves, now visited with their tokens unseen, return
        # their candidates, replayed from the trie.
        monkeypatch.setattr(sampler, "_walk", no_walk)
        again = [sample_one(question, s) for s in seeds]
        assert again == fresh

    def test_candidate_equals_one_with_its_derivation_built(self):
        # A sampled candidate reads as the candidate built from its fields
        # (as tests and callers construct one): equal, with the same hash
        # and repr, and unequal to anything else. A candidate keeps no
        # derivation, so its fields are its words, path and seed.
        lat = build_naive("a b c d".split())
        sampled = sample_many(["a", "b"], _product_grammar(), lat, 40, 0)
        assert sampled
        for cand in sampled:
            built = ParaphraseCandidate(cand.tokens, cand.consumed_path, cand.seed)
            assert built == cand and hash(built) == hash(cand) and repr(built) == repr(cand)
            assert cand != (cand.tokens, cand.consumed_path, cand.seed)
            assert cand != SampleFailure("dead-end", cand.seed)

    def test_single_value_picks_make_no_node(self, heldout_lattices):
        # _product_grammar's one root and one S rule are picks from a
        # single value: they read no float and make no node, so the trie's
        # first node is A's word pick, reading float 2, and B's reads 3.
        lat = build_naive("a b c d".split())
        pruned = prune_grammar(_product_grammar(), lat)
        question = _Question(pruned, lat)
        draws = [sample_one(question, s) for s in range(40)]
        assert draws == [reference_sample_one(pruned, lat, s) for s in range(40)]
        first = question.root[0]
        assert first[0] == 2 and len(first[1]) == 2
        assert {kid[0] for kid in first[3]} == {3}
        # Over the held-out lattices, every node has a choice to make, and
        # each node on a trie path reads a later float than its parent's.
        grammar, cases = heldout_lattices
        nodes = 0
        for _tokens, lat in cases:
            question = _Question(prune_grammar(grammar, lat), lat)
            for seed in range(DRAWS):
                sample_one(question, seed)
            root = question.root[0]
            stack = [(root, -1)] if type(root) is tuple else []
            while stack:
                node, parent = stack.pop()
                k, cum, kids = node[0], node[1], node[3]
                assert len(cum) > 1 and k > parent
                nodes += 1
                stack += [(kid, k) for kid in kids if type(kid) is tuple]
        assert nodes


class TestSampleFailure:
    def test_equality_hash_and_repr_of_a_frozen_dataclass(self):
        # A failure and a candidate equal, hash and print as the frozen
        # dataclass of their fields would, and equal nothing else.
        lat = build_naive("a b c d".split())
        sampled = sample_many(["a", "b"], _product_grammar(), lat, 40, 0)
        assert sampled
        inputs = {
            SampleFailure: [("dead-end", 0), ("dead-end", 7), ("other", 7)],
            ParaphraseCandidate: [(c.tokens, c.consumed_path, c.seed) for c in sampled],
        }
        for cls, cases in inputs.items():
            names = [f.name for f in dataclasses.fields(cls)]
            frozen = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
            for args in cases:
                got, expected = cls(*args), frozen(*args)
                assert repr(got) == repr(expected)
                assert hash(got) == hash(expected)
                assert got == cls(**dict(zip(names, args)))
                assert got != args and got != expected
                assert [got == cls(*o) for o in cases] == [o == args for o in cases]
            assert len({cls(*args) for args in cases * 2}) == len(set(cases))
        assert repr(SampleFailure("dead-end", 7)) == "SampleFailure(reason='dead-end', seed=7)"
        assert SampleFailure("dead-end", 7) != ParaphraseCandidate((), (), 7)
        cand = sampled[0]
        assert repr(cand).startswith(f"ParaphraseCandidate(tokens={cand.tokens!r}, ")
        assert cand.text == " ".join(cand.tokens)
