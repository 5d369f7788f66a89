from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    reference_compute_features,
    reference_edit_distance,
    reference_occurrences,
    weight_of,
)
from paralat import classifier
from paralat.classifier import (
    ClassifierModel,
    FEATURE_NAMES,
    Gazetteer,
    compute_features,
    filter_candidates,
    load_model,
    read_labeled_pairs,
    save_model,
    train,
    _Source,
    _distance,
    _occurrences,
    _pattern,
)
from paralat.data_files import data_path
from paralat.errors import ClassifierError, DegenerateLabels, EmptySentence
from paralat.sampler import ParaphraseCandidate


def _candidate(tokens: list[str], seed: int) -> ParaphraseCandidate:
    return ParaphraseCandidate(tokens=tuple(tokens), consumed_path=(), seed=seed)


class TestComputeFeatures:
    def test_identity_pair(self):
        tokens = "what day is nochebuena".split()
        f = compute_features(tokens, tokens, entities=[(3, 4)])
        assert f.bleu1 == f.bleu2 == f.bleu3 == f.bleu4 == 1.0
        assert f.bleu_sym == 1.0
        assert f.ter == 0.0
        assert f.length_ratio == 1.0
        assert f.ne_preserved == 1.0

    def test_disjoint_pair(self):
        f = compute_features("a b".split(), "x y".split())
        assert f.unigram_precision == 0.0
        assert f.bleu1 == 0.0

    def test_brevity_penalty(self):
        f = compute_features("a b c what".split(), "a b".split())
        assert f.unigram_precision == 1.0
        assert f.bleu1 == pytest.approx(math.exp(1.0 - 4 / 2))

    def test_unigram_counts(self):
        f = compute_features(
            "what day is nochebuena".split(), "when is nochebuena".split()
        )
        assert f.unigram_precision == pytest.approx(2 / 3)
        assert f.unigram_recall == pytest.approx(2 / 4)

    def test_entity_not_preserved(self):
        f = compute_features(
            "where is czech republic".split(),
            "where is prague".split(),
            entities=[(2, 4)],
        )
        assert f.ne_preserved == 0.0

    def test_empty_entity_span_occurs_nowhere(self):
        # An empty mention is counted 0 times, so even the identical
        # candidate does not preserve it.
        tokens = "what day is nochebuena".split()
        assert compute_features(tokens, tokens, entities=[(2, 2)]).ne_preserved == 0.0

    def test_feature_vector_has_ten_values(self):
        tokens = ["a", "b"]
        assert len(compute_features(tokens, tokens)) == len(FEATURE_NAMES)

    def test_empty_sentence(self):
        with pytest.raises(EmptySentence):
            compute_features([], ["a"])

    def test_pure_function(self):
        a = compute_features("a b c".split(), "c b a".split())
        b = compute_features("a b c".split(), "c b a".split())
        assert a == b


_TOKENS = st.lists(st.sampled_from(["a", "b", "A", "c", "what", "?"]), min_size=1, max_size=9)


@st.composite
def _pairs(draw):
    source = draw(_TOKENS)
    candidate = draw(_TOKENS)
    spans = draw(st.lists(
        st.tuples(st.integers(0, len(source) - 1), st.integers(1, len(source))),
        max_size=3,
    ))
    return source, candidate, [(i, j) for i, j in spans if i < j]


class TestOnePassBleu:
    @settings(max_examples=400, deadline=None)
    @given(_pairs())
    @example((["a"], ["b"], []))  # no unigram match: every BLEU is 0
    @example((["a", "b"], ["b", "a"], []))  # no bigram match beyond smoothing
    @example((["a", "b", "c"], ["a", "b", "what", "c"], []))  # no trigram match
    @example((["a", "b", "c", "?"], ["a", "b", "c", "A", "?"], []))  # no 4-gram match
    @example((["a", "b", "c", "what"], ["a", "b"], [(0, 2)]))  # brevity penalty
    @example((["a"], ["a", "b", "c", "a", "b", "c", "a", "b", "c"], []))  # long candidate
    @example((["a", "a", "b", "a", "a"], ["a", "a", "a"], [(0, 2), (3, 5)]))  # overlapping mention
    @example((["what", "b", "c"], ["a", "b", "c"], [(1, 3)]))  # mention ends the candidate
    def test_equals_per_order_reference(self, pair):
        source, candidate, entities = pair
        got = compute_features(source, candidate, entities)
        assert got == reference_compute_features(source, candidate, entities)

    @settings(max_examples=200, deadline=None)
    @given(_pairs(), st.lists(_TOKENS, max_size=4))
    @example((["a", "b"], ["a", "b"], [(0, 1)]), [["b"], ["b", "a"], ["a", "b", "c"]])
    def test_source_counted_once_equals_reference(self, pair, others):
        # One prepared source (its n-gram counts, masks and mentions)
        # serves every candidate.
        source, candidate, entities = pair
        prepared = _Source(source, entities)
        for cand in [candidate, *others]:
            got = compute_features(source, cand, entities, prepared)
            assert got == reference_compute_features(source, cand, entities)

    def test_filter_counts_source_once(self, monkeypatch):
        calls = []

        class Counted(_Source):
            __slots__ = ()

            def __init__(self, source, entities=()):
                calls.append((source, entities))
                super().__init__(source, entities)

        monkeypatch.setattr(classifier, "_Source", Counted)
        model = ClassifierModel(weights=(1.0,) * len(FEATURE_NAMES), bias=0.0, threshold=0.0)
        source = "what day is Christmas".split()
        gazetteer = Gazetteer([["christmas"]])
        candidates = [_candidate(t.split(), i) for i, t in enumerate(
            ["what day is xmas", "which day is christmas", "when is christmas"]
        )]
        kept = filter_candidates(model, source, candidates, gazetteer)
        assert calls == [(source, [(3, 4)])]
        assert [s for _, s in kept] == sorted(
            (model.score(reference_compute_features(source, c.tokens, [(3, 4)]))
             for c in candidates),
            reverse=True,
        )


class TestOccurrences:
    @settings(max_examples=300, deadline=None)
    @given(_TOKENS, st.lists(st.sampled_from(["a", "b", "c"]), max_size=3))
    @example(["a", "a", "a"], ["a", "a"])  # overlapping matches count once
    @example(["what", "b", "c"], ["b", "c"])  # the mention ends the candidate
    @example(["a", "b"], [])  # an empty mention occurs nowhere
    def test_equals_reference(self, tokens, mention):
        assert _occurrences(tokens, mention) == reference_occurrences(tokens, mention)

    def test_non_overlapping_left_to_right(self):
        assert reference_occurrences(["a", "a", "a"], ["a", "a"]) == 1
        assert reference_occurrences(["a", "a", "a", "a"], ["a", "a"]) == 2


class TestBundledPairs:
    def test_memoised_features_equal_reference(self):
        # In one process, every bundled pair with its gazetteer spans,
        # scored against a _Source shared by the pairs of its source and
        # against one of its own, gives the reference features; many
        # different sentences share a count key, so the memo answers most.
        gazetteer = Gazetteer.load(data_path("gazetteer.txt"))
        pairs = read_labeled_pairs(data_path("classifier_pairs.tsv"))
        classifier._pair_features.cache_clear()
        shared: dict[tuple[str, ...], _Source] = {}
        for source, candidate, _ in pairs:
            spans = gazetteer.tag(source)
            if tuple(source) not in shared:
                shared[tuple(source)] = _Source(source, spans)
            prepared = shared[tuple(source)]
            expected = reference_compute_features(source, candidate, spans)
            assert compute_features(source, candidate, spans, prepared) == expected
            assert compute_features(source, candidate, spans) == expected
        distinct_pairs = len({(tuple(s), tuple(c)) for s, c, _ in pairs})
        assert classifier._pair_features.cache_info().currsize < distinct_pairs / 2


# Four tokens make repeats common; up to 150 of them span three 64-bit words.
_SEQUENCES = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=150)


def _edit_distance(a: list[str], b: list[str]) -> int:
    """The bit-vector kernel's distance, with ``a`` as the pattern; the
    kernel needs a non-empty pattern."""
    return _distance(_pattern(a), b) if a else len(b)


class TestEditDistance:
    @settings(max_examples=300, deadline=None)
    @given(_SEQUENCES, _SEQUENCES)
    @example([], [])
    @example([], ["a", "b"])
    @example(["a", "b"], [])
    @example(["a"] * 64, ["a"] * 64)
    @example(["a", "b"] * 40, ["b", "a"] * 33)
    @example(["c"] * 65, ["a", "c", "d"] * 30)
    def test_equals_dynamic_programming(self, a, b):
        assert _edit_distance(a, b) == reference_edit_distance(a, b)


class TestGazetteer:
    def test_longest_match_first(self):
        gaz = Gazetteer([["czech"], ["czech", "republic"], ["nochebuena"]])
        spans = gaz.tag("people in czech republic love nochebuena".split())
        assert spans == [(2, 4), (5, 6)]

    def test_case_insensitive(self):
        gaz = Gazetteer([["czech", "republic"]])
        assert gaz.tag(["Czech", "Republic"]) == [(0, 2)]

    def test_load(self, tmp_path):
        path = tmp_path / "gaz.txt"
        path.write_text("czech republic\nnochebuena\n# comment\n", encoding="utf-8")
        gaz = Gazetteer.load(str(path))
        assert list(gaz.surfaces) == [("czech", "republic"), ("nochebuena",)]


def _synthetic_pairs(n_pos: int, n_neg: int, seed: int):
    """Positive pairs share most words and keep the entity; negatives are
    unrelated or drop the entity."""
    rng = random.Random(seed)
    vocab = "what when where day date is was in of speak say use people city".split()
    entities = [["nochebuena"], ["czech", "republic"], ["prague"], ["bell"]]
    pairs = []
    for _ in range(n_pos):
        entity = rng.choice(entities)
        base = rng.sample(vocab, 4) + entity
        cand = list(base)
        if rng.random() < 0.5:
            cand[0] = rng.choice(vocab)
        rng.shuffle(cand)
        pairs.append((base, cand, 1))
    for _ in range(n_neg):
        entity = rng.choice(entities)
        base = rng.sample(vocab, 4) + entity
        cand = rng.sample(vocab, rng.choice([3, 4, 5]))
        if rng.random() < 0.3:
            cand += rng.choice([e for e in entities if e != entity])
        pairs.append((base, cand, 0))
    rng.shuffle(pairs)
    return pairs


class TestTrain:
    def test_separable_points_fit(self):
        pairs = [
            ("a b c".split(), "a b c".split(), 1),
            ("a b c".split(), "x y".split(), 0),
        ]
        model = train(pairs, epochs=300, seed=0)
        scores = [
            model.score(compute_features(s, c)) for s, c, _ in pairs
        ]
        predictions = [1 if s >= model.threshold else 0 for s in scores]
        assert predictions == [1, 0]

    def test_duplication_invariance(self):
        pairs = _synthetic_pairs(30, 30, seed=5)
        model_a = train(pairs, epochs=50, seed=3)
        model_b = train(pairs + pairs, epochs=50, seed=3)
        assert model_a == model_b

    def test_determinism(self):
        pairs = _synthetic_pairs(20, 60, seed=8)
        assert train(pairs, epochs=50, seed=1) == train(pairs, epochs=50, seed=1)

    def test_paper_class_ratio_beats_all_negative(self):
        pairs = _synthetic_pairs(154, 846, seed=42)
        gaz = Gazetteer([["nochebuena"], ["czech", "republic"], ["prague"], ["bell"]])
        model = train(pairs, epochs=200, seed=0, gazetteer=gaz)
        assert 0.0 < model.threshold < 1.0
        labels = [label for _, _, label in pairs]
        predictions = []
        for source, cand, _ in pairs:
            f = compute_features(source, cand, gaz.tag(source))
            predictions.append(1 if model.score(f) >= model.threshold else 0)
        tp = sum(1 for y, p in zip(labels, predictions) if y == p == 1)
        fp = sum(1 for y, p in zip(labels, predictions) if y == 0 and p == 1)
        fn = sum(1 for y, p in zip(labels, predictions) if y == 1 and p == 0)
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.3  # all-negative baseline scores 0

    def test_threshold_is_the_stored_model_score_of_a_pair(self):
        # The threshold is picked among the scores filter_candidates gives,
        # so a candidate whose features equal the pair that set it is kept.
        gazetteer = Gazetteer.load(data_path("gazetteer.txt"))
        pairs = read_labeled_pairs(data_path("classifier_pairs.tsv"))
        model = train(pairs, epochs=200, seed=0, gazetteer=gazetteer)
        scores = {
            model.score(compute_features(source, cand, gazetteer.tag(source)))
            for source, cand, _ in pairs
        }
        assert model.threshold in scores

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            train([("a".split(), "a".split(), 1)], epochs=1, seed=0)

    def test_ne_weight_shifts_score_exactly(self):
        # On data where entity preservation correlates with the label the
        # learned weight is positive, and toggling only that feature moves
        # the logit by exactly the weight.
        pairs = _synthetic_pairs(80, 80, seed=11)
        gaz = Gazetteer([["nochebuena"], ["czech", "republic"], ["prague"], ["bell"]])
        model = train(pairs, epochs=200, seed=0, gazetteer=gaz)
        weight = weight_of(model, "ne_preserved")
        assert weight > 0
        base = compute_features("a b nochebuena".split(), "b a nochebuena".split(),
                                entities=[(2, 3)])
        flipped = compute_features("a b nochebuena".split(), "b a prague".split(),
                                   entities=[(2, 3)])
        assert base.ne_preserved == 1.0 and flipped.ne_preserved == 0.0
        # Only compare the ne contribution: rebuild flipped with identical
        # other features by toggling the bit on the same vector.
        toggled = base._replace(ne_preserved=0.0)
        logit = lambda p: math.log(p / (1 - p))
        assert logit(model.score(base)) - logit(model.score(toggled)) == pytest.approx(
            weight, rel=1e-9
        )


class TestFilter:
    def test_empty_candidates(self):
        model = ClassifierModel(weights=(0.0,) * len(FEATURE_NAMES), bias=0.0,
                                threshold=0.5)
        assert filter_candidates(model, ["q"], []) == []

    def test_identity_candidate_survives(self):
        model = ClassifierModel(weights=(1.0,) + (0.0,) * (len(FEATURE_NAMES) - 1),
                                bias=0.0, threshold=0.5)
        cand = _candidate(["hello", "world"], seed=3)
        kept = filter_candidates(model, ["hello", "world"], [cand])
        assert len(kept) == 1
        assert kept[0][1] > 0.5

    def test_zero_threshold_keeps_all_sorted(self):
        model = ClassifierModel(weights=(1.0,) + (0.0,) * (len(FEATURE_NAMES) - 1),
                                bias=0.0, threshold=0.5)
        cands = [
            _candidate(["x", "y"], seed=1),
            _candidate(["hello", "world"], seed=2),
            _candidate(["hello", "there"], seed=3),
        ]
        kept = filter_candidates(model, ["hello", "world"], cands, threshold=0.0)
        assert len(kept) == 3
        scores = [s for _, s in kept]
        assert scores == sorted(scores, reverse=True)

    def test_tie_broken_by_seed(self):
        model = ClassifierModel(weights=(0.0,) * len(FEATURE_NAMES), bias=0.0,
                                threshold=0.0)
        cands = [_candidate(["b"], seed=9), _candidate(["a"], seed=2)]
        kept = filter_candidates(model, ["q"], cands)
        assert [c.seed for c, _ in kept] == [2, 9]


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        pairs = _synthetic_pairs(25, 75, seed=2)
        model = train(pairs, epochs=80, seed=0)
        path = tmp_path / "model.tsv"
        save_model(model, str(path))
        assert load_model(str(path)) == model
        # Twice through the file is byte-identical.
        again = tmp_path / "model2.tsv"
        save_model(load_model(str(path)), str(again))
        assert path.read_bytes() == again.read_bytes()

    def test_bad_file(self, tmp_path):
        path = tmp_path / "model.tsv"
        path.write_text("FEATURE\tbleu1\t0.5\n", encoding="utf-8")
        with pytest.raises(ClassifierError):
            load_model(str(path))

    def test_read_labeled_pairs(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a b\tb a\t1\nx\ty\t0\n", encoding="utf-8")
        pairs = read_labeled_pairs(str(path))
        assert pairs == [(["a", "b"], ["b", "a"], 1), (["x"], ["y"], 0)]
        path.write_text("a\tb\t2\n", encoding="utf-8")
        with pytest.raises(ClassifierError):
            read_labeled_pairs(str(path))
