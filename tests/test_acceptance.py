"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to see them
inline).  Criteria pin their stated tolerances and runtime budgets."""

from __future__ import annotations

import math
import random
import sys
import time
from collections import Counter

import pytest
from scipy.stats import chisquare

from oracles import (
    best_logprob,
    enumerate_strings,
    exhaustive_groundings,
    is_single_path_subset,
    oracle_best_f1,
    random_multipath_lattice,
    random_toy_grammar,
    reference_tuple_features,
    word_salad_grammar,
)
from paralat.classifier import (
    Gazetteer,
    compute_features,
    load_model,
    read_labeled_pairs,
    save_model,
)
from paralat.classifier import train as train_classifier
from paralat.cky import cky_viterbi
from paralat.cli import main as cli_main
from paralat.data_files import data_path
from paralat.errors import NoEntityCandidates
from paralat.estimation import train_grammar
from paralat.grammar import (
    LatentGrammar,
    LayerConfig,
    StateLabel,
    validate,
)
from paralat.lattice import Edge, ORIGIN_BILAYERED, build_bilayered, remove_conflicting
from paralat.sampler import ParaphraseCandidate, _Question, prune_grammar, sample_one
from paralat.semparse import (
    dot_score,
    evaluate,
    ground,
    load_kb,
    load_qa,
    load_ungrounded,
    perceptron_train,
)
from paralat.treebank import binarize, read_treebank
from conftest import PEOPLE_ALTERNATIVES

SUM_TOL = 1e-9
LOG_TOL = 1e-12


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})", file=sys.stderr)


@pytest.fixture(scope="module")
def mini_trees():
    return [binarize(t) for t in read_treebank(data_path("minitreebank.trees"))]


class TestGrammarSoundness:
    def test_mle_grammar_m24_validates_clean(self, mini_trees):
        start = time.monotonic()
        grammar = train_grammar(mini_trees, m=24, seed=1)
        report = validate(grammar)
        assert report.ok, report.violations
        total = math.fsum(grammar.roots.values())
        assert abs(total - 1.0) <= SUM_TOL
        for table in list(grammar.binary.values()) + list(grammar.lexical.values()):
            assert abs(math.fsum(table.values()) - 1.0) <= SUM_TOL
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        assert len(mini_trees) == 500
        _report(
            "grammar-soundness",
            f"500 trees, m=24, {grammar.rule_count()} rules, {elapsed:.1f}s",
        )


def _product_grammar() -> LatentGrammar:
    s0 = StateLabel(0)
    return LatentGrammar(
        layers=LayerConfig(1),
        roots={("S", s0): 1.0},
        binary={("S", s0): {("A", s0, "B", s0): 1.0}},
        lexical={
            ("A", s0): {"a": 0.6, "c": 0.4},
            ("B", s0): {"b": 0.7, "d": 0.3},
        },
    )


class TestSamplerDistribution:
    def test_chi_square_against_enumeration(self):
        from paralat.lattice import build_naive

        start = time.monotonic()
        grammar = _product_grammar()
        assert grammar.rule_count() <= 8
        expected = enumerate_strings(grammar)
        lat = build_naive("a b c d".split())
        pruned = prune_grammar(grammar, lat)
        n = 10000
        counts: Counter = Counter()
        for seed in range(n):
            result = sample_one(_Question(pruned, lat), seed)
            assert isinstance(result, ParaphraseCandidate)
            counts[result.tokens] += 1
        keys = sorted(expected)
        _stat, pvalue = chisquare(
            [counts[k] for k in keys], [expected[k] * n for k in keys]
        )
        assert pvalue > 0.01
        # Determinism per seed.
        repeat = [sample_one(_Question(pruned, lat), s).tokens for s in range(100)]
        assert repeat == [sample_one(_Question(pruned, lat), s).tokens for s in range(100)]
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        _report(
            "sampler-distribution",
            f"10000 samples, chi-square p={pvalue:.3f}, {elapsed:.1f}s",
        )


class TestPathInvariant:
    def test_controlled_samples_stay_on_one_path(self):
        rng = random.Random(20240815)
        candidates = 0
        samples = 0
        for _ in range(50):
            lat = random_multipath_lattice(rng)
            grammar = word_salad_grammar(sorted(lat.vocabulary()))
            pruned = prune_grammar(grammar, lat)
            for seed in range(20):
                samples += 1
                result = sample_one(_Question(pruned, lat), seed)
                if isinstance(result, ParaphraseCandidate):
                    candidates += 1
                    assert is_single_path_subset(lat, result.consumed_path)
        assert samples == 1000
        assert candidates >= 200
        _report(
            "path-invariant",
            f"{candidates} candidates from {samples} samples, all on one path",
        )

    def test_worked_removal_reproduced(self, czech_lattice):
        citizens = next(e for e in czech_lattice.edges if e.token == "citizens")
        pruned = remove_conflicting(czech_lattice, citizens)
        survivors = {e.token for e in pruned.edges}
        for alternative in PEOPLE_ALTERNATIVES:
            if alternative == "citizens":
                continue
            for token in alternative.split():
                assert token not in survivors, alternative
        assert "people" not in survivors
        assert "citizens" in survivors
        assert {"is", "speaking"} <= survivors  # compatible alternative kept
        _report(
            "path-invariant-worked-example",
            "choosing 'citizens' removes all five competing paths",
        )


class TestCkyOracleEquivalence:
    def test_viterbi_matches_brute_force(self):
        from oracles import TooAmbiguous

        rng = random.Random(20240601)
        grammars = 0
        sentences = 0
        while grammars < 100:
            grammar = random_toy_grammar(rng)
            if not validate(grammar).ok:
                continue
            strings = sorted(enumerate_strings(grammar, max_len=6))
            try:
                scored = [(toks, best_logprob(toks, grammar)) for toks in strings[:5]]
            except TooAmbiguous:
                # The enumeration oracle has a derivation budget; draw a
                # fresh grammar instead of weakening the check.
                continue
            grammars += 1
            for tokens, expected in scored:
                tree = cky_viterbi(list(tokens), grammar)
                assert abs(tree.logprob - expected) <= LOG_TOL
                sentences += 1
        assert grammars == 100
        assert sentences >= 300
        _report(
            "cky-oracle-equivalence",
            f"{grammars} grammars, {sentences} sentences, tol {LOG_TOL}",
        )


class TestBilayeredLattice:
    def test_adds_when_parallel_to_day(self, bilayered_toy_grammar):
        question = "what day is nochebuena".split()
        lat = build_bilayered(question, bilayered_toy_grammar)
        added = [e for e in lat.edges if e.origin == ORIGIN_BILAYERED]
        assert added == [Edge(1, 2, "when", ORIGIN_BILAYERED)]
        # Manual rule extraction: words under preterminal NN with the same
        # semantic state as the "day" leaf, any syntactic state.
        manual = {
            word
            for (sym, state), table in bilayered_toy_grammar.lexical.items()
            for word in table
            if sym == "NN" and state.sem == 142 and word != "day"
        }
        assert manual == {"when"}
        _report(
            "bilayered-lattice",
            "'when' added parallel to 'day', matches manual extraction",
        )


class TestClassifier:
    def test_paper_ratio_f1_and_roundtrip(self, tmp_path):
        pairs = read_labeled_pairs(data_path("classifier_pairs.tsv"))
        labels = [label for _, _, label in pairs]
        assert len(pairs) == 1000
        assert sum(labels) == 154
        gazetteer = Gazetteer.load(data_path("gazetteer.txt"))
        model = train_classifier(pairs, epochs=200, seed=0, gazetteer=gazetteer)
        assert model == train_classifier(pairs, epochs=200, seed=0, gazetteer=gazetteer)

        predictions = []
        for source, candidate, _ in pairs:
            feats = compute_features(source, candidate, gazetteer.tag(source))
            predictions.append(1 if model.score(feats) >= model.threshold else 0)
        tp = sum(1 for y, p in zip(labels, predictions) if y == p == 1)
        fp = sum(1 for y, p in zip(labels, predictions) if y == 0 and p == 1)
        fn = sum(1 for y, p in zip(labels, predictions) if y == 1 and p == 0)
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        all_negative_baseline = 0.0
        assert f1 >= all_negative_baseline + 0.3

        path = tmp_path / "clf.tsv"
        save_model(model, str(path))
        assert load_model(str(path)) == model
        _report(
            "classifier",
            f"positive F1 {f1:.3f} vs all-negative 0.0; bit-exact round trip",
        )


@pytest.fixture(scope="module")
def toy_suite():
    kb = load_kb(data_path("kb.tsv"))

    def loader(name: str):
        return load_ungrounded(data_path(f"graphs/{name}"), name=name)

    train = load_qa(data_path("qa_train.tsv"), loader)
    dev = load_qa(data_path("qa_eval.tsv"), loader)
    return kb, train, dev


class TestSemparseDirection:
    def test_oracle_coverage_and_eval_improve_with_paraphrases(self, toy_suite):
        start = time.monotonic()
        kb, train_set, eval_set = toy_suite
        suite = list(train_set) + list(eval_set)
        assert len(suite) >= 10

        non_isomorphic = 0
        for example in suite:
            try:
                ground(example.graphs[0], kb, None, beam=10)
            except NoEntityCandidates:
                non_isomorphic += 1
        assert non_isomorphic >= 2

        coverage_orig = sum(
            oracle_best_f1(ex.graphs[:1], kb, ex.gold) for ex in suite
        ) / len(suite)
        coverage_para = sum(
            oracle_best_f1(ex.graphs, kb, ex.gold) for ex in suite
        ) / len(suite)
        assert coverage_para > coverage_orig

        epochs = 5
        assert epochs <= 20
        model_para = perceptron_train(train_set, kb, epochs=epochs, beam=100)
        orig_train = [
            type(ex)(question=ex.question, graphs=ex.graphs[:1], gold=ex.gold)
            for ex in train_set
        ]
        orig_eval = [
            type(ex)(question=ex.question, graphs=ex.graphs[:1], gold=ex.gold)
            for ex in eval_set
        ]
        model_orig = perceptron_train(orig_train, kb, epochs=epochs, beam=100)
        f1_para = evaluate(eval_set, kb, model_para.averaged(), beam=100).avg_f1
        f1_orig = evaluate(orig_eval, kb, model_orig.averaged(), beam=100).avg_f1
        assert f1_para > f1_orig
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        _report(
            "semparse-direction",
            f"oracle F1 {coverage_orig:.3f}->{coverage_para:.3f}, "
            f"eval F1 {f1_orig:.3f}->{f1_para:.3f}, {elapsed:.1f}s",
        )


class TestBeamVsExhaustive:
    def test_top1_matches_exhaustive_on_all_bundled_graphs(self, toy_suite):
        kb, train_set, eval_set = toy_suite
        weights_variants = [
            {},
            {"stem_overlap": 1.0, "null_edges": -0.4, "lattice_score": 0.2},
        ]
        checked = 0
        for example in list(train_set) + list(eval_set):
            for graph in example.graphs:
                assert len(graph.entity_edges()) <= 4
                try:
                    space = exhaustive_groundings(graph, kb)
                except NoEntityCandidates:
                    continue
                for weights in weights_variants:
                    results = ground(graph, kb, weights, beam=100)
                    ranked = sorted(
                        (
                            (-dot_score(weights, reference_tuple_features(g)), g.key())
                            for g in space
                        ),
                    )
                    assert results[0][0].key() == ranked[0][1]
                    checked += 1
        assert checked >= 20
        _report(
            "beam-vs-exhaustive",
            f"{checked} (graph, weight) cases agree on top-1",
        )


class TestEndToEnd:
    def test_rules_mode_coverage_on_heldout(self, tmp_path):
        start = time.monotonic()
        grammar_path = tmp_path / "gen.lpcfg"
        # Desk-scale generation grammar: at 500 trees, m=24 memorizes
        # template-filler pairs, so generation uses a coarser grammar.
        assert cli_main([
            "train-grammar", "--treebank", data_path("minitreebank.trees"),
            "--m1", "2", "--seed", "1", "--out", str(grammar_path),
        ]) == 0
        classifier_path = tmp_path / "clf.tsv"
        assert cli_main([
            "train-classifier", "--pairs", data_path("classifier_pairs.tsv"),
            "--gazetteer", data_path("gazetteer.txt"),
            "--epochs", "200", "--seed", "0", "--out", str(classifier_path),
        ]) == 0
        out_path = tmp_path / "paraphrases.tsv"
        assert cli_main([
            "paraphrase", "--grammar", str(grammar_path),
            "--mode", "rules", "--rules", data_path("rewrite_rules.tsv"),
            "--classifier", str(classifier_path),
            "--gazetteer", data_path("gazetteer.txt"),
            "--input", data_path("heldout_questions.txt"),
            "--m", "400", "--seed", "7", "--out", str(out_path),
        ]) == 0
        elapsed = time.monotonic() - start

        with open(data_path("heldout_questions.txt"), encoding="utf-8") as handle:
            questions = [line.strip() for line in handle if line.strip()]
        assert len(questions) == 50
        with open(data_path("rewrite_rules.tsv"), encoding="utf-8") as handle:
            assert sum(1 for line in handle if line.strip()) == 200

        covered = set()
        for line in out_path.read_text(encoding="utf-8").splitlines():
            covered.add(line.split("\t")[0])
        coverage = len(covered & set(questions)) / len(questions)
        assert coverage >= 0.6
        assert elapsed < 120.0
        _report(
            "end-to-end",
            f"{len(covered)}/50 questions with survivors "
            f"({coverage:.0%}), {elapsed:.1f}s",
        )
