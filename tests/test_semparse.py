from __future__ import annotations

import hashlib
import inspect
import itertools
import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    exhaustive_groundings,
    oracle_best_f1,
    reference_entity_assignments,
    reference_ground,
    reference_key,
    reference_tuple_features,
    scan_edge_options,
    scan_entity_candidates,
    scan_objects,
    scan_subjects,
    scan_type_options,
)
from paralat.cli import main
from paralat.data_files import data_path
from paralat.errors import (
    EmptyGold,
    NoEntityCandidates,
    SemparseError,
    UnboundTarget,
)
from paralat.semparse import (
    GroundedGraph,
    KnowledgeGraph,
    PerceptronModel,
    QAExample,
    UngroundedGraph,
    _edge_options,
    _type_options,
    denotation,
    dot_score,
    entity_assignments,
    entity_candidates,
    evaluate,
    f1_loss,
    ground,
    load_kb,
    load_perceptron_weights,
    load_qa,
    load_ungrounded,
    oracle_set,
    perceptron_train,
    save_perceptron,
)


@pytest.fixture(scope="module")
def kb() -> KnowledgeGraph:
    return KnowledgeGraph(
        entities=(
            "CzechRepublic", "CzechLanguage", "Prague", "France",
            "French", "Paris", "Nochebuena", "December24",
        ),
        triples=frozenset({
            ("CzechRepublic", "official_language", "CzechLanguage"),
            ("France", "official_language", "French"),
            ("CzechRepublic", "capital", "Prague"),
            ("France", "capital", "Paris"),
            ("Nochebuena", "celebrated_on", "December24"),
        }),
        type_assertions=frozenset({
            ("CzechLanguage", "language.human_language"),
            ("French", "language.human_language"),
            ("Prague", "location.city"),
            ("Paris", "location.city"),
            ("December24", "time.date"),
        }),
    )


def _language_graph(score: float = 1.0) -> UngroundedGraph:
    """Graph of "what is czech republic 's language" (isomorphic to KB)."""
    return UngroundedGraph(
        name="para.lang",
        target="x",
        entity_nodes=(("e1", ("czech", "republic")),),
        type_nodes=(("t1", "language", "target"),),
        events=("ev1",),
        edges=(("ev1", "e1", "language.poss"), ("ev1", "x", "language.arg")),
        text=tuple("what is czech republic 's language".split()),
        classifier_score=score,
    )


def _people_graph() -> UngroundedGraph:
    """Original question graph with an extra ungroundable mention."""
    return UngroundedGraph(
        name="orig.people",
        target="x",
        entity_nodes=(("e1", ("czech", "republic")), ("e2", ("people",))),
        type_nodes=(("t1", "language", "target"),),
        events=("ev1",),
        edges=(
            ("ev1", "e2", "speak.arg1"),
            ("ev1", "x", "speak.arg2"),
            ("ev1", "e1", "speak.in"),
        ),
        text=tuple("what language do people in czech republic speak".split()),
    )


def _grounding(graph, kb, relation="official_language", type_choice="language.human_language"):
    (event, n1, n2, _), = graph.entity_edges()
    return GroundedGraph(
        graph=graph,
        entity_map=(("e1", "CzechRepublic"),),
        edge_map=(((event, n1, n2), (relation, "fwd") if relation else None),),
        type_map=((graph.type_nodes[0][0], type_choice),),
    )


class TestDenotation:
    def test_reaches_gold_answer(self, kb):
        grounded = _grounding(_language_graph(), kb)
        assert denotation(grounded, kb) == {"CzechLanguage"}

    def test_all_null_is_unbound(self, kb):
        grounded = _grounding(_language_graph(), kb, relation=None, type_choice=None)
        with pytest.raises(UnboundTarget):
            denotation(grounded, kb)

    def test_unsatisfiable_conjunction_is_empty(self, kb):
        grounded = _grounding(
            _language_graph(), kb, relation="celebrated_on",
            type_choice="language.human_language",
        )
        assert denotation(grounded, kb) == frozenset()

    def test_monotone_under_constraint_removal(self, kb):
        graph = _language_graph()
        full = _grounding(graph, kb)
        edge_nulled = _grounding(graph, kb, relation=None)
        assert denotation(full, kb) <= denotation(edge_nulled, kb)

    def test_edge_from_target_to_itself_is_refused(self, kb):
        # Grounding never builds such an edge: entity_edges pairs two
        # distinct nodes.  A grounding built by hand can.
        graph = _language_graph()
        grounded = GroundedGraph(
            graph=graph,
            entity_map=(("e1", "CzechRepublic"),),
            edge_map=((("ev1", "x", "x"), ("official_language", "fwd")),),
            type_map=(),
        )
        with pytest.raises(SemparseError, match="edge binds target twice"):
            denotation(grounded, kb)


    @pytest.mark.parametrize(
        "direction, type_choice, expected",
        [
            ("fwd", "location.city", {"CzechLanguage"}),
            ("bwd", "location.city", set()),  # Prague has no capital CzechRepublic
            ("fwd", "time.date", set()),  # Prague is not a date
        ],
        ids=["feasible", "infeasible-edge", "entity-lacks-type"],
    )
    def test_entity_entity_edge_and_entity_type(self, kb, direction, type_choice, expected):
        graph = UngroundedGraph(
            name="capital.lang",
            target="x",
            entity_nodes=(("e1", ("czech", "republic")), ("e2", ("prague",))),
            type_nodes=(("t1", "city", "e2"),),
            events=("ev1", "ev2"),
            edges=(
                ("ev1", "e1", "capital.poss"), ("ev1", "e2", "capital.arg"),
                ("ev2", "e1", "language.poss"), ("ev2", "x", "language.arg"),
            ),
            text=tuple("what is the language of the country whose capital is prague".split()),
        )
        assert [edge[:3] for edge in graph.entity_edges()] == [
            ("ev1", "e1", "e2"), ("ev2", "e1", "x"),
        ]
        grounded = GroundedGraph(
            graph=graph,
            entity_map=(("e1", "CzechRepublic"), ("e2", "Prague")),
            edge_map=(
                (("ev1", "e1", "e2"), ("capital", direction)),
                (("ev2", "e1", "x"), ("official_language", "fwd")),
            ),
            type_map=(("t1", type_choice),),
        )
        assert denotation(grounded, kb) == expected


class TestF1Loss:
    def test_exact_match(self):
        assert f1_loss({"A"}, {"A"}) == 0.0

    def test_partial_overlap(self):
        assert f1_loss({"A", "B"}, {"A"}) == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert f1_loss({"B"}, {"A"}) == 1.0

    def test_empty_prediction(self):
        assert f1_loss(frozenset(), {"A"}) == 1.0

    def test_empty_gold(self):
        with pytest.raises(EmptyGold):
            f1_loss({"A"}, set())


class TestEntityResolution:
    def test_exact_and_prefix_matches(self, kb):
        cands = entity_candidates(("czech", "republic"), kb)
        assert cands[0] == ("CzechRepublic", 2, 0)
        prefix = entity_candidates(("czech",), kb)
        assert [c[0] for c in prefix] == ["CzechRepublic", "CzechLanguage"]

    def test_no_candidates_raises_in_grounding(self, kb):
        with pytest.raises(NoEntityCandidates):
            ground(_people_graph(), kb)


# Ids with empty surfaces ("_", "--"), digits, surfaces that are prefixes
# of one another, and a lowercase id whose surface equals a CamelCase one.
_IDS = st.sampled_from([
    "_", "--", "42", "7", "Paris", "paris", "ParisHilton", "ParisHiltonHotel",
    "ParisTexas", "Hilton", "HiltonParis", "Hotel42", "Texas",
])
_RELATIONS = st.sampled_from(["r", "s", "located.in"])
_TYPES = st.sampled_from(["city", "person", "hotel"])


@st.composite
def _small_kbs(draw) -> KnowledgeGraph:
    # Triple and type endpoints are drawn from all ids, so some of them are
    # missing from ``entities``.
    return KnowledgeGraph(
        entities=tuple(draw(st.lists(_IDS, unique=True, max_size=10))),
        triples=frozenset(draw(st.lists(st.tuples(_IDS, _RELATIONS, _IDS), max_size=25))),
        type_assertions=frozenset(draw(st.lists(st.tuples(_IDS, _TYPES), max_size=10))),
    )


class TestIndexedLookups:
    @settings(max_examples=300, deadline=None)
    @given(
        kb=_small_kbs(),
        mentions=st.lists(
            st.lists(
                st.sampled_from(["paris", "Paris", "hilton", "hotel", "42", "7", "texas", ""]),
                max_size=3,
            ),
            min_size=1, max_size=4,
        ),
        entity_of=st.fixed_dictionaries({"a": _IDS, "b": _IDS}),
    )
    def test_indexed_lookups_equal_scans(self, kb, mentions, entity_of):
        fresh = KnowledgeGraph(kb.entities, kb.triples, kb.type_assertions)
        # One loop fills both triple indexes, whichever lookup asks first.
        subject_first = KnowledgeGraph(kb.entities, kb.triples, kb.type_assertions)
        assert kb.subjects("r", "Nowhere") == frozenset()  # object index first
        assert subject_first.objects("Nowhere", "r") == frozenset()  # subject index first
        ids = set(kb.entities) | {e for s, _, o in kb.triples for e in (s, o)} | {"Nowhere"}
        for graph in (kb, subject_first):
            for entity, relation in itertools.product(sorted(ids), ["r", "s", "located.in"]):
                assert graph.subjects(relation, entity) == scan_subjects(kb, relation, entity)
                assert graph.objects(entity, relation) == scan_objects(kb, entity, relation)
        for mention in mentions + [[], ["paris"], ["_"], ["42"]]:
            assert entity_candidates(mention, kb) == scan_entity_candidates(mention, kb)
        for n1, n2 in itertools.permutations(["a", "b", "x"], 2):
            assert _edge_options(kb, entity_of, "x", n1, n2) == scan_edge_options(
                kb, entity_of, "x", n1, n2
            )
        for constrained in ("target", "a", "b"):
            assert _type_options(kb, entity_of, constrained) == scan_type_options(
                kb, entity_of, constrained
            )
        assert {"_triples_by", "_by_head", "_types_of", "types"} <= set(vars(kb))
        assert kb == fresh == subject_first
        assert hash(kb) == hash(fresh) == hash(subject_first)


def _entity_graph(mentions) -> UngroundedGraph:
    return UngroundedGraph(
        name="entities",
        target="x",
        entity_nodes=tuple((f"e{i}", tuple(m)) for i, m in enumerate(mentions, 1)),
        type_nodes=(),
        events=(),
        edges=(),
    )


class _CountedCandidate(tuple):
    """A candidate tuple that counts its field reads against a limit."""

    reads = 0
    limit = 0

    def __getitem__(self, index):
        type(self).reads += 1
        assert type(self).reads <= type(self).limit, "too many candidate reads"
        return super().__getitem__(index)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class TestEntityAssignments:
    @settings(max_examples=300, deadline=None)
    @given(
        kb=_small_kbs(),
        mentions=st.lists(
            st.lists(st.sampled_from(["paris", "hilton", "hotel", "42", "texas"]), max_size=2),
            min_size=1, max_size=3,
        ),
        top=st.integers(1, 40),
    )
    def test_equals_sorted_product(self, kb, mentions, top):
        graph = _entity_graph(mentions)
        try:
            expected = reference_entity_assignments(graph, kb, top)
        except NoEntityCandidates:
            with pytest.raises(NoEntityCandidates):
                entity_assignments(graph, kb, top)
            return
        assert entity_assignments(graph, kb, top) == expected

    def test_many_candidates_form_few_combinations(self, monkeypatch):
        # Two nodes over 800 tied candidates: a product of 640,000.  Each
        # combination formed reads the three fields of each node's
        # candidate once.
        entities = tuple(f"Qz{i:03d}" for i in range(800))
        kb = KnowledgeGraph(entities=entities, triples=frozenset(), type_assertions=frozenset())
        graph = _entity_graph([("qz",), ("qz",)])
        real = entity_candidates
        monkeypatch.setattr(
            "paralat.semparse.entity_candidates",
            lambda mention, kb: [_CountedCandidate(c) for c in real(mention, kb)],
        )
        top, nodes = 10, 2
        monkeypatch.setattr(_CountedCandidate, "reads", 0)
        monkeypatch.setattr(_CountedCandidate, "limit", 3 * nodes * (top * nodes + 1))
        got = entity_assignments(graph, kb, top)
        assert len(got) == top
        assert got[0] == ((("e1", "Qz000"), ("e2", "Qz000")), 2.0)
        assert got[1] == ((("e1", "Qz000"), ("e2", "Qz001")), 2.0 - 0.01)
        assert _CountedCandidate.reads > 0


class TestGround:
    def test_beam_default_is_100(self):
        assert inspect.signature(ground).parameters["beam"].default == 100

    def test_matches_exhaustive_enumeration(self, kb):
        graph = _language_graph()
        expected = exhaustive_groundings(graph, kb)
        got = ground(graph, kb, None, beam=10000)
        assert {g.key() for g, _, _ in got} == {g.key() for g in expected}

    def test_top1_matches_exhaustive_argmax(self, kb):
        graph = _language_graph()
        weights = {"stem_overlap": 1.0, "null_edges": -0.5, "lattice_score": 0.1}
        got = ground(graph, kb, weights, beam=100)
        best_key = got[0][0].key()
        exhaustive = [
            (dot_score(weights, reference_tuple_features(g)), g.key()) for g in
            exhaustive_groundings(graph, kb)
        ]
        exhaustive.sort(key=lambda item: (-item[0], item[1]))
        assert best_key == exhaustive[0][1]

    def test_zero_weights_lexicographic_top1(self, kb):
        graph = _language_graph()
        got = ground(graph, kb, None, beam=100)
        keys = [g.key() for g, _, _ in got]
        assert keys[0] == min(keys)

    def test_scores_are_dot_products(self, kb):
        weights = {"classifier_score": 2.0}
        got = ground(_language_graph(score=0.75), kb, weights, beam=10)
        for _, score, feats in got:
            assert score == pytest.approx(dot_score(weights, feats))
            assert feats["classifier_score"] == 0.75


def _bundled_graphs() -> list[UngroundedGraph]:
    paths = sorted(Path(data_path("graphs")).glob("*.graph"))
    return [load_ungrounded(str(path), name=path.name) for path in paths]


def _bundled_qa(name: str) -> list[QAExample]:
    graphs_dir = data_path("graphs")
    return load_qa(
        data_path(name), lambda graph: load_ungrounded(os.path.join(graphs_dir, graph), name=graph)
    )


def _reachable_distractors(kb: KnowledgeGraph, seed: int) -> KnowledgeGraph:
    """``kb`` plus seeded triples and types among its own entities, so the
    question graphs see more options at every decision."""
    rng = random.Random(seed)
    entities = sorted(kb.entities)
    relations = sorted({r for _, r, _ in kb.triples})
    types = sorted(kb.types)
    triples = {(rng.choice(entities), rng.choice(relations), rng.choice(entities))
               for _ in range(300)}
    assertions = {(rng.choice(entities), rng.choice(types)) for _ in range(60)}
    return KnowledgeGraph(
        entities=kb.entities,
        triples=kb.triples | triples,
        type_assertions=kb.type_assertions | assertions,
    )


def _two_label_graph() -> UngroundedGraph:
    """One event links e1 and x under two labels of e1, so both entity
    edges share one node pair (and the last predicate)."""
    return UngroundedGraph(
        name="two.labels",
        target="x",
        entity_nodes=(("e1", ("france",)),),
        type_nodes=(("t1", "city", "target"),),
        events=("ev1",),
        edges=(
            ("ev1", "e1", "capital.of"),
            ("ev1", "e1", "language.poss"),
            ("ev1", "x", "capital.arg"),
        ),
        text=tuple("what is the capital city of france".split()),
    )


def _entityless_graph() -> UngroundedGraph:
    """Only type nodes on the target: every key starts empty."""
    return UngroundedGraph(
        name="no.entity",
        target="x",
        entity_nodes=(),
        type_nodes=(("t1", "city", "target"), ("t2", "language", "target")),
        events=(),
        edges=(),
        text=tuple("which city".split()),
        classifier_score=-0.25,
    )


class TestIncrementalGround:
    """``ground`` extends each state by one decision; it must return what
    scoring every state from scratch returns, entry for entry."""

    BEAMS = (1, 2, 100, 1000)

    def _assert_equal_to_reference(self, graph, kb, weights):
        for beam in self.BEAMS:
            got = ground(graph, kb, weights, beam=beam)
            expected = reference_ground(graph, kb, weights, beam=beam)
            assert [g for g, _, _ in got] == [g for g, _, _ in expected]
            assert [score.hex() for _, score, _ in got] == [
                score.hex() for _, score, _ in expected
            ]
            assert [list(f.items()) for _, _, f in got] == [
                list(f.items()) for _, _, f in expected
            ]
            assert [g.key() for g, _, _ in got] == [reference_key(g) for g, _, _ in expected]
            for g, score, feats in got:
                assert feats == reference_tuple_features(g)
                assert score == dot_score(weights or {}, feats)

    def _weight_sets(self, graph, kb, seed):
        names = sorted({name for _, _, f in reference_ground(graph, kb, None, beam=1000)
                        for name in f})
        rng = random.Random(seed)
        return [
            None,
            dict.fromkeys(names, 0.0),
            {name: rng.uniform(-2.0, 2.0) for name in names},
        ]

    @pytest.mark.parametrize("distractors", [False, True])
    def test_bundled_graphs_equal_reference(self, distractors):
        kb = load_kb(data_path("kb.tsv"))
        if distractors:
            kb = _reachable_distractors(kb, seed=7)
        grounded = 0
        for index, graph in enumerate(_bundled_graphs()):
            try:
                weight_sets = self._weight_sets(graph, kb, seed=index)
            except NoEntityCandidates:
                with pytest.raises(NoEntityCandidates):
                    ground(graph, kb)
                continue
            grounded += 1
            for weights in weight_sets:
                self._assert_equal_to_reference(graph, kb, weights)
        assert grounded >= 15

    @pytest.mark.parametrize("graph", [_two_label_graph(), _entityless_graph(), _language_graph()])
    def test_hand_built_graphs_equal_reference(self, kb, graph):
        for seed in range(3):
            for weights in self._weight_sets(graph, kb, seed):
                self._assert_equal_to_reference(graph, kb, weights)

    def test_two_labels_share_the_last_predicate(self, kb):
        graph = _two_label_graph()
        assert [edge[:3] for edge in graph.entity_edges()] == [("ev1", "e1", "x")] * 2
        got = ground(graph, kb, None, beam=1000)
        nulls = [feats for g, _, feats in got if [c for _, c in g.edge_map] == [None, None]]
        assert nulls and all(f["align|language.poss|capital.arg|null"] == 2.0 for f in nulls)
        assert not any(name.startswith("align|capital.of") for _, _, f in got for name in f)

    def test_entityless_keys_have_no_leading_separator(self, kb):
        got = ground(_entityless_graph(), kb, None, beam=1000)
        assert got
        for grounding, _, _ in got:
            assert grounding.entity_map == ()
            assert not grounding.key().startswith(";")
            assert grounding.key() == reference_key(grounding)


class TestOracleSet:
    def test_perfect_grounding_found(self, kb):
        oracle = oracle_set([_language_graph()], kb, frozenset({"CzechLanguage"}))
        assert oracle
        assert oracle[0].loss == 0.0
        keys = {t.grounding.key() for t in oracle}
        assert any("official_language" in k for k in keys)

    def test_nothing_grounds_yields_empty(self, kb):
        oracle = oracle_set([_people_graph()], kb, frozenset({"CzechLanguage"}))
        assert oracle == []

    def test_ties_all_returned(self, kb):
        # Both the typed and untyped official_language groundings reach gold.
        oracle = oracle_set([_language_graph()], kb, frozenset({"CzechLanguage"}))
        assert len(oracle) >= 2

    def test_paraphrase_recovers_unreachable_question(self, kb):
        gold = frozenset({"CzechLanguage"})
        assert oracle_best_f1([_people_graph()], kb, gold) == 0.0
        assert oracle_best_f1([_people_graph(), _language_graph()], kb, gold) == 1.0

    def test_empty_gold(self, kb):
        with pytest.raises(EmptyGold):
            oracle_set([_language_graph()], kb, frozenset())

    def test_bundled_tuples_carry_their_groundings_features_and_loss(self):
        kb = load_kb(data_path("kb.tsv"))
        tuples = 0
        for example in _bundled_qa("qa_train.tsv") + _bundled_qa("qa_eval.tsv"):
            for t in oracle_set(example.graphs, kb, example.gold):
                assert t.features == reference_tuple_features(t.grounding)
                assert t.loss == f1_loss(denotation(t.grounding, kb), example.gold)
                assert any(t.grounding.graph is graph for graph in example.graphs)
                tuples += 1
        assert tuples


class TestPerceptron:
    def test_zero_update_when_prediction_is_oracle(self, kb):
        example = QAExample(
            question=tuple("what is czech republic 's language".split()),
            graphs=(_language_graph(),),
            gold=frozenset({"CzechLanguage"}),
        )
        model = perceptron_train([example], kb, epochs=3, beam=100)
        final_predict = evaluate([example], kb, model.averaged(), beam=100)
        assert final_predict.avg_f1 == 1.0

    def test_classifier_score_feature_present(self, kb):
        feats = reference_tuple_features(_grounding(_language_graph(score=0.5), kb))
        assert feats["classifier_score"] == 0.5

    def test_averaged_equals_mean_of_snapshots(self, kb):
        model = PerceptronModel()
        snapshots = []
        for i in range(5):
            model.weights[f"f{i}"] = float(i)
            model.snapshot()
            snapshots.append(dict(model.weights))
        averaged = model.averaged()
        for name in averaged:
            expected = sum(s.get(name, 0.0) for s in snapshots) / len(snapshots)
            assert averaged[name] == pytest.approx(expected)

    def test_learns_separable_toy_instance(self, kb):
        # Two groundings reach different answers; only one matches gold.
        example = QAExample(
            question=tuple("what is the capital of france".split()),
            graphs=(
                UngroundedGraph(
                    name="capital",
                    target="x",
                    entity_nodes=(("e1", ("france",)),),
                    type_nodes=(),
                    events=("ev1",),
                    edges=(("ev1", "e1", "capital.of"), ("ev1", "x", "capital.arg")),
                    text=tuple("what is the capital of france".split()),
                ),
            ),
            gold=frozenset({"Paris"}),
        )
        model = perceptron_train([example], kb, epochs=5, beam=100)
        report = evaluate([example], kb, model.averaged(), beam=100)
        assert report.avg_f1 == 1.0
        assert model.skipped == 0

    def test_evaluation_with_no_questions_averages_zero(self, kb):
        report = evaluate([], kb, {})
        assert report.per_question == ()
        assert report.avg_precision == report.avg_recall == report.avg_f1 == 0.0


class TestTrainedModelBytes:
    """The semparse outputs the benchmark's golden step pins, byte for
    byte: any change to grounding, features, oracles, the perceptron or
    the model and report files shows here."""

    @staticmethod
    def _digest(argv, out) -> str:
        assert main([*argv, "--kb", data_path("kb.tsv"), "--graphs-dir", data_path("graphs"),
                     "--out", str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_bundled_train_eval_and_original_only(self, tmp_path):
        model = tmp_path / "model.tsv"
        train = ["semparse-train", "--qa", data_path("qa_train.tsv"), "--epochs", "5"]
        assert self._digest(train, model) == (
            "d4f59d994e92e6d118eb1eb92caffff51a220679fc82234274f21b2e53627f43"
        )
        evaluation = ["semparse-eval", "--qa", data_path("qa_eval.tsv"), "--model", str(model)]
        assert self._digest(evaluation, tmp_path / "eval.tsv") == (
            "c0473a1729e6d6deb45eb615cb7662f3947cb5543765bad38abefaf605b0c717"
        )
        assert self._digest([*train, "--original-only"], tmp_path / "orig.tsv") == (
            "73423e315b8ab1adaae1e56a61d280e4fd8e4a21962cb3100c67c18d131fc47a"
        )


class TestFiles:
    _KB_LINES = ["Paris\tcapital.of\tFrance", "TYPE\tParis\tcity", "Lyon\tcity.in\tFrance",
                 "TYPE\tLyon\tcity", "TYPE\tFrance\tcountry"]

    def _kb(self, tmp_path, lines):
        path = tmp_path / "kb.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_kb(str(path))

    def test_kb_roundtrip(self, tmp_path, kb):
        lines = [f"{s}\t{r}\t{o}" for s, r, o in sorted(kb.triples)]
        lines += [f"TYPE\t{e}\t{t}" for e, t in sorted(kb.type_assertions)]
        loaded = self._kb(tmp_path, lines)
        assert loaded.triples == kb.triples
        assert loaded.type_assertions == kb.type_assertions

    def test_kb_repeated_lines_load_once(self, tmp_path):
        repeated = self._KB_LINES + self._KB_LINES[::-1] + self._KB_LINES[:2]
        assert self._kb(tmp_path, repeated) == self._kb(tmp_path, self._KB_LINES)

    def test_kb_entities_in_order_of_first_appearance(self, tmp_path):
        # "Spain" is a relation on line 2 and first an entity on line 4;
        # relations never count.
        kb = self._kb(tmp_path, ["TYPE\tRome\tcity", "Paris\tSpain\tFrance",
                                 "Lyon\tcity.in\tFrance", "France\tborders\tSpain",
                                 "TYPE\tMadrid\tcity", "Rome\tborders\tParis"])
        assert kb.entities == ("Rome", "Paris", "France", "Lyon", "Spain", "Madrid")

    def test_kb_holds_each_name_once(self, tmp_path):
        kb = self._kb(tmp_path, self._KB_LINES + ["Nice\tcity.in\tFrance", "TYPE\tNice\tcity"])
        first: dict[str, str] = {}
        for name in itertools.chain(kb.entities, *kb.triples, *kb.type_assertions):
            assert id(first.setdefault(name, name)) == id(name), name

    def test_graph_file_roundtrip(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(
            "# a paraphrase graph\n"
            "TEXT what is czech republic 's language\n"
            "SCORE 0.9\n"
            "TARGET x\n"
            "ENTITY e1 czech republic\n"
            "TYPE t1 language target\n"
            "EVENT ev1\n"
            "EDGE ev1 e1 language.poss\n"
            "EDGE ev1 x language.arg\n",
            encoding="utf-8",
        )
        graph = load_ungrounded(str(path), name="g.graph")
        assert graph.target == "x"
        assert graph.classifier_score == 0.9
        assert graph.entity_edges() == (
            ("ev1", "e1", "x", "language.poss|language.arg"),
        )

    def test_graph_file_requires_target(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("ENTITY e1 czech\n", encoding="utf-8")
        with pytest.raises(SemparseError):
            load_ungrounded(str(path))

    def test_graph_file_bad_score(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("TARGET x\nSCORE high\n", encoding="utf-8")
        with pytest.raises(SemparseError, match=r"bad.graph:2: bad score 'high'"):
            load_ungrounded(str(path))

    @pytest.mark.parametrize(
        "first, second",
        [("TEXT first text", "TEXT second"), ("SCORE 0.5", "SCORE 0.25")],
        ids=["text", "score"],
    )
    def test_graph_file_repeated_text_or_score(self, first, second, tmp_path):
        # A second line would replace the first one's value.
        path = tmp_path / "bad.graph"
        path.write_text(f"TARGET x\n{first}\nEVENT ev1\n{second}\n", encoding="utf-8")
        kind = first.split()[0]
        with pytest.raises(SemparseError, match=rf"bad.graph:4: second {kind} repeats line 2"):
            load_ungrounded(str(path))

    def test_graph_file_repeated_edge(self, tmp_path):
        # A repeated EDGE line would give grounding two decisions for one
        # edge; the same nodes under another label are another edge.
        path = tmp_path / "bad.graph"
        lines = ["TARGET x", "ENTITY e1 france", "EVENT ev1", "EDGE ev1 e1 capital.of",
                 "EDGE ev1 x capital.arg", "EDGE ev1 e1 located.in"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(load_ungrounded(str(path)).edges) == 3
        path.write_text("\n".join(lines + ["EDGE ev1 e1 capital.of"]) + "\n", encoding="utf-8")
        with pytest.raises(
            SemparseError, match=r"bad.graph:7: edge 'ev1 e1 capital.of' repeats line 4"
        ):
            load_ungrounded(str(path))

    def test_perceptron_file_roundtrip(self, tmp_path, kb):
        example = QAExample(
            question=tuple("what is czech republic 's language".split()),
            graphs=(_language_graph(),),
            gold=frozenset({"CzechLanguage"}),
        )
        model = perceptron_train([example], kb, epochs=2, beam=50)
        path = tmp_path / "model.tsv"
        save_perceptron(model, str(path))
        weights = load_perceptron_weights(str(path))
        averaged = model.averaged()
        for name, value in weights.items():
            assert value == pytest.approx(averaged[name])
