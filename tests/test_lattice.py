from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    cooccurring_edges,
    random_multipath_lattice,
    reference_enumerate_edge_paths,
    reference_remove_conflicting,
)
from paralat import lattice as lattice_module
from paralat.data_files import data_path
from paralat.errors import EdgeNotInLattice, EmptyQuestion, LatticeError
from paralat.grammar import LatentGrammar, LayerConfig, StateLabel
from paralat.lattice import (
    Edge,
    ORIGIN_BILAYERED,
    ORIGIN_INPUT,
    ORIGIN_RULE,
    ParaphraseRuleDB,
    WordLattice,
    _alternatives,
    adjacency,
    build_bilayered,
    build_from_rules,
    build_naive,
    check_lattice,
    conflict_masks,
    dump_lattice,
    enumerate_edge_paths,
    load_rules,
    remove_conflicting,
)
from conftest import CZECH_QUESTION, PEOPLE_ALTERNATIVES
from oracles import enumerate_paths


@pytest.mark.parametrize(
    "build",
    [
        lambda rules, layered: build_naive([]),
        lambda rules, layered: build_from_rules([], rules),
        lambda rules, layered: build_bilayered([], layered),
        # The question is checked before the grammar's layers.
        lambda rules, layered: build_bilayered([], LatentGrammar(
            layers=LayerConfig(1),
            roots={("S", StateLabel(0)): 1.0},
            binary={},
            lexical={("S", StateLabel(0)): {"a": 1.0}},
        )),
    ],
    ids=["naive", "rules", "bilayered", "bilayered-one-layer"],
)
def test_empty_question(build, czech_rule_db, bilayered_toy_grammar):
    with pytest.raises(EmptyQuestion):
        build(czech_rule_db, bilayered_toy_grammar)


class TestBuildNaive:
    def test_question_chain(self):
        lat = build_naive("what day is nochebuena".split())
        assert len(lat.nodes) == 5
        assert len(lat.edges) == 4
        assert enumerate_paths(lat, 10) == [("what", "day", "is", "nochebuena")]

    def test_single_token(self):
        lat = build_naive(["why"])
        assert len(lat.nodes) == 2
        assert len(lat.edges) == 1


class TestBuildFromRules:
    def test_parallel_edge_added(self):
        db = ParaphraseRuleDB(rules=((("people",), ("citizens",), 1.0),))
        lat = build_from_rules(CZECH_QUESTION, db)
        tokens = {e.token for e in lat.edges}
        assert "citizens" in tokens
        citizens = [e for e in lat.edges if e.token == "citizens"]
        people = [e for e in lat.edges if e.token == "people"]
        assert citizens[0].src == people[0].src
        assert citizens[0].dst == people[0].dst

    def test_source_index_built_once(self):
        db = load_rules(data_path("rewrite_rules.tsv"))
        index = db.by_source
        with open(data_path("heldout_questions.txt"), encoding="utf-8") as handle:
            for line in handle:
                build_from_rules(line.split(), db)
        assert db.by_source is index
        assert db == ParaphraseRuleDB(rules=db.rules)  # the cache is not a field
        # A plain dict: looking up a phrase with no rule adds no key.
        with pytest.raises(KeyError):
            index[("no", "such", "phrase")]
        assert ("no", "such", "phrase") not in index

    def test_empty_db_equals_naive(self):
        lat = build_from_rules(CZECH_QUESTION, ParaphraseRuleDB(rules=()))
        assert lat == build_naive(CZECH_QUESTION)

    def test_multiword_target_inserts_chain(self):
        db = ParaphraseRuleDB(
            rules=((("people",), ("members", "of", "the", "public"), 1.0),)
        )
        lat = build_from_rules(CZECH_QUESTION, db)
        paths = enumerate_paths(lat, 10)
        rewritten = tuple(
            "members of the public".split()
            + "in czech republic speak ?".split()
        )
        assert ("what", "language", "do") + rewritten in paths
        # 4-token chain adds 3 fresh internal nodes.
        assert len(lat.nodes) == len(CZECH_QUESTION) + 1 + 3

    def test_question_path_always_present(self, czech_lattice):
        assert tuple(CZECH_QUESTION) in enumerate_paths(czech_lattice, 100)

    def test_worked_path_example(self, czech_lattice):
        paths = enumerate_paths(czech_lattice, 100)
        assert (
            "what", "language", "do", "people", "'s", "in",
            "czech", "republic", "is", "speaking", "?",
        ) in paths

    def test_overlapping_matches_coexist(self):
        db = ParaphraseRuleDB(
            rules=(
                (("people",), ("citizens",), 1.0),
                (("people", "in"), ("living", "in"), 1.0),
            )
        )
        lat = build_from_rules(CZECH_QUESTION, db)
        tokens = {e.token for e in lat.edges}
        assert {"citizens", "living"} <= tokens

    def test_case_insensitive_matching(self):
        db = ParaphraseRuleDB(rules=((("czech", "republic"), ("czechia",), 1.0),))
        lat = build_from_rules(["visit", "Czech", "Republic"], db)
        assert "czechia" in {e.token for e in lat.edges}

    def test_load_rules_filters_and_drops_identity(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text(
            "people\tcitizens\t4.5\n"
            "people\tpeople\t9.9\n"
            "day\tdate\t0.5\n",
            encoding="utf-8",
        )
        db = load_rules(str(path))
        assert len(db.rules) == 2
        db_high = load_rules(str(path), min_score=1.0)
        assert len(db_high.rules) == 1


class TestRemoveConflicting:
    def test_worked_removal(self, czech_lattice):
        citizens = next(e for e in czech_lattice.edges if e.token == "citizens")
        pruned = remove_conflicting(czech_lattice, citizens)
        survivors = {e.token for e in pruned.edges}
        removed_tokens = set()
        for alt in PEOPLE_ALTERNATIVES:
            if alt != "citizens":
                removed_tokens.update(alt.split())
        assert survivors & removed_tokens == set()
        assert "people" not in survivors
        assert {"citizens", "what", "language", "do", "in", "czech",
                "republic", "speak", "is", "speaking", "?"} == survivors
        check_lattice(pruned)

    def test_chain_unchanged(self):
        lat = build_naive("a b c".split())
        for edge in lat.edges:
            assert remove_conflicting(lat, edge) == lat

    def test_diamond_brute_force(self):
        edges = (
            Edge(0, 1, "a", ORIGIN_INPUT),
            Edge(1, 2, "b", ORIGIN_INPUT),
            Edge(1, 2, "c", ORIGIN_BILAYERED),
            Edge(2, 3, "d", ORIGIN_INPUT),
        )
        lat = WordLattice(source=0, sink=3, edges=edges)
        chosen = edges[1]
        pruned = remove_conflicting(lat, chosen)
        assert set(pruned.edges) == cooccurring_edges(lat, chosen)
        assert {e.token for e in pruned.edges} == {"a", "b", "d"}

    def test_matches_brute_force_on_random_lattices(self):
        rng = random.Random(1234)
        for _ in range(25):
            lat = random_multipath_lattice(rng)
            check_lattice(lat)
            for edge in lat.edges:
                assert set(remove_conflicting(lat, edge).edges) == \
                    cooccurring_edges(lat, edge)

    def test_idempotent_and_keeps_edge(self, czech_lattice):
        citizens = next(e for e in czech_lattice.edges if e.token == "citizens")
        once = remove_conflicting(czech_lattice, citizens)
        assert citizens in once.edges
        assert remove_conflicting(once, citizens) == once

    def test_missing_edge(self, czech_lattice):
        with pytest.raises(EdgeNotInLattice):
            remove_conflicting(czech_lattice, Edge(0, 1, "nope", ORIGIN_INPUT))


_EDGES = st.lists(
    st.builds(Edge, st.integers(0, 4), st.integers(0, 4), st.sampled_from("ab"),
              st.just(ORIGIN_INPUT)),
    max_size=9,
)


def _reaches(edges) -> set[tuple[int, int]]:
    """Every (a, b) such that a walk of zero or more of ``edges`` leads
    from a to b, by composing the one-edge relation with itself until it
    stops growing."""
    reach = {(n, n) for e in edges for n in (e.src, e.dst)}
    reach |= {(e.src, e.dst) for e in edges}
    while True:
        grown = reach | {(a, d) for a, b in reach for c, d in reach if b == c}
        if grown == reach:
            return reach
        reach = grown


def _brute_kept(edges, edge: Edge) -> tuple[Edge, ...]:
    """The edges a conflict removal for ``edge`` keeps, sorted and
    distinct: ``edge`` itself, each edge whose ``dst`` reaches
    ``edge.src`` and each edge that ``edge.dst`` reaches the ``src`` of."""
    reach = _reaches(edges)
    return tuple(sorted({
        e for e in edges
        if e == edge or (e.dst, edge.src) in reach or (edge.dst, e.src) in reach
    }))


def _checked(edges) -> WordLattice | None:
    """The checked lattice that ``edges`` make once each is turned to go
    from its smaller node to its larger one (loops dropped), from the
    smallest node to the largest, keeping the edges on a path between
    the two, sorted and distinct as the builders make them; None when no
    edge is left."""
    forward = [e._replace(src=min(e.src, e.dst), dst=max(e.src, e.dst))
               for e in edges if e.src != e.dst]
    if not forward:
        return None
    source, sink = min(e.src for e in forward), max(e.dst for e in forward)
    reach = _reaches(forward)
    kept = [e for e in forward if (source, e.src) in reach and (e.dst, sink) in reach]
    if not kept:
        return None
    lat = WordLattice(source=source, sink=sink, edges=tuple(sorted(set(kept))))
    check_lattice(lat)
    return lat


_WORDS = "abcd"
_SOURCES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2).map(tuple)
_TARGETS = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(tuple)


def _two_layer_salad(groups) -> LatentGrammar:
    """A two-layer grammar deriving any sequence of two or more of
    ``_WORDS``, with word i under the semantic state ``groups[i]``."""
    by_state: dict[StateLabel, list[str]] = {}
    for word, group in zip(_WORDS, groups):
        by_state.setdefault(StateLabel(0, group), []).append(word)
    root = ("S", StateLabel(0, 0))
    rhs = [("W", a, *root) for a in by_state]
    rhs += [("W", a, "W", b) for a in by_state for b in by_state]
    return LatentGrammar(
        layers=LayerConfig(1, 3),
        roots={root: 1.0},
        binary={root: {r: 1.0 / len(rhs) for r in rhs}},
        lexical={("W", state): {w: 1.0 / len(words) for w in words}
                 for state, words in by_state.items()},
    )


@st.composite
def _built_lattices(draw) -> list[WordLattice]:
    """The lattices of the three builders for one random question."""
    tokens = draw(st.lists(st.sampled_from(_WORDS), min_size=2, max_size=6))
    rules = draw(st.lists(st.tuples(_SOURCES, _TARGETS), max_size=6))
    db = ParaphraseRuleDB(rules=tuple((src, tgt, 1.0) for src, tgt in rules if src != tgt))
    groups = draw(st.lists(st.integers(0, 2), min_size=len(_WORDS), max_size=len(_WORDS)))
    return [build_naive(tokens), build_from_rules(tokens, db),
            build_bilayered(tokens, _two_layer_salad(groups))]


class TestConflictMasks:
    """``remove_conflicting`` reads conflict masks kept on the lattice; it
    keeps what two breadth-first walks from the chosen edge keep."""

    @settings(max_examples=300, deadline=None)
    @given(edges=_EDGES, data=st.data())
    # Not in canonical order; with a copy of an edge; with a cycle 1-2-1.
    @example(edges=[Edge(1, 2, "a", ORIGIN_INPUT), Edge(0, 1, "b", ORIGIN_INPUT)],
             data=None)
    @example(edges=[Edge(0, 1, "a", ORIGIN_INPUT), Edge(1, 2, "b", ORIGIN_INPUT),
                    Edge(0, 1, "a", ORIGIN_INPUT)], data=None)
    @example(edges=[Edge(0, 1, "a", ORIGIN_INPUT), Edge(1, 2, "b", ORIGIN_INPUT),
                    Edge(2, 1, "a", ORIGIN_INPUT), Edge(2, 3, "b", ORIGIN_INPUT)],
             data=None)
    def test_equals_reference_on_any_edge_list(self, edges, data):
        # The reference against a brute force on any edge list: cycles,
        # copies, any order, any source and sink.
        source, sink = (0, 4) if data is None else (
            data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)))
        lat = WordLattice(source=source, sink=sink, edges=tuple(edges))
        for edge in lat.edges:
            assert reference_remove_conflicting(lat, edge).edges == _brute_kept(edges, edge)
        with pytest.raises(EdgeNotInLattice):
            reference_remove_conflicting(lat, Edge(9, 9, "z", ORIGIN_INPUT))
        # The library against the reference on the checked lattice that
        # the edges make.
        checked = _checked(edges)
        if checked is None:
            return
        for edge in checked.edges:
            # Twice: the first removal builds the masks, the second reads them.
            for _ in range(2):
                assert remove_conflicting(checked, edge) == \
                    reference_remove_conflicting(checked, edge)
        # Missing edges before, between and after the lattice's edges.
        missing = [Edge(-1, 0, "a", ORIGIN_INPUT), Edge(9, 9, "z", ORIGIN_INPUT)]
        missing += [e._replace(origin=ORIGIN_RULE) for e in checked.edges]
        for edge in missing:
            with pytest.raises(EdgeNotInLattice):
                remove_conflicting(checked, edge)

    @settings(max_examples=100, deadline=None)
    @given(lattices=_built_lattices())
    def test_builders_and_removals_make_checked_sorted_lattices(self, lattices):
        # What conflict masks assume: every lattice a builder makes, and
        # every lattice a chain of removals makes from it, is checked and
        # has sorted, distinct edges.  Each removal in the chain, which
        # reads only the masks of the chain's first lattice, equals the
        # reference removal from its parent.
        pending, seen = list(lattices), set(lattices)
        while pending:
            lat = pending.pop()
            assert all(a < b for a, b in zip(lat.edges, lat.edges[1:]))
            check_lattice(lat)
            for edge in lat.edges:
                kept = remove_conflicting(lat, edge)
                assert kept == reference_remove_conflicting(lat, edge)
                if kept not in seen:
                    seen.add(kept)
                    pending.append(kept)

    @pytest.fixture
    def crossed_calls(self, monkeypatch) -> list:
        """The arguments of every mask walk (``lattice._crossed``) made."""
        crossed = lattice_module._crossed
        calls = []

        def counted(*args):
            calls.append(args)
            return crossed(*args)

        monkeypatch.setattr(lattice_module, "_crossed", counted)
        return calls

    def test_built_once_per_lattice_object(self, czech_lattice, crossed_calls):
        calls = crossed_calls
        # A copy, so a cache from another test cannot hide the first build.
        lat = WordLattice(czech_lattice.source, czech_lattice.sink, czech_lattice.edges)
        for edge in lat.edges:
            remove_conflicting(lat, edge)
        # One walk into each node and one out of it.
        assert len(calls) == 2
        equal = WordLattice(lat.source, lat.sink, tuple(lat.edges))
        assert equal == lat and equal is not lat
        remove_conflicting(equal, lat.edges[0])
        assert len(calls) == 4
        assert conflict_masks(equal) == conflict_masks(lat)
        assert conflict_masks(equal) is not conflict_masks(lat)

    def test_cache_is_not_part_of_the_value(self, czech_lattice):
        lat = WordLattice(czech_lattice.source, czech_lattice.sink, czech_lattice.edges)
        fresh = WordLattice(lat.source, lat.sink, lat.edges)
        cut = remove_conflicting(lat, lat.edges[0])
        assert "_conflict_masks" in vars(lat) and "_conflict_masks" not in vars(fresh)
        assert lat == fresh and hash(lat) == hash(fresh) and repr(lat) == repr(fresh)
        assert dataclasses.astuple(lat) == dataclasses.astuple(fresh)
        # A removal's result keeps its first lattice and its mask there.
        cut_fresh = WordLattice(cut.source, cut.sink, cut.edges)
        assert vars(cut)["_cut_from"] == (lat, conflict_masks(lat)[0])
        assert "_cut_from" not in vars(cut_fresh)
        assert cut == cut_fresh and hash(cut) == hash(cut_fresh) and repr(cut) == repr(cut_fresh)
        assert dataclasses.astuple(cut) == dataclasses.astuple(cut_fresh)

    def test_removal_chain_builds_only_the_first_lattices_masks(self, crossed_calls):
        calls = crossed_calls
        rng = random.Random(8)
        for _ in range(25):
            built = random_multipath_lattice(rng)
            # A copy, so a cache from the builder's check cannot hide a build.
            first = WordLattice(built.source, built.sink, built.edges)
            calls.clear()
            # Every chain of removals from it, each edge in turn.
            pending = [first]
            while pending:
                lat = pending.pop()
                assert "_adjacency" not in vars(lat) or lat is first
                for edge in lat.edges:
                    cut = remove_conflicting(lat, edge)
                    if cut != lat:
                        pending.append(cut)
                assert "_conflict_masks" not in vars(lat) or lat is first
            # One walk into each node of the first lattice and one out of it.
            assert len(calls) == 2

    def test_edge_a_cut_dropped_is_not_in_it(self, czech_lattice):
        citizens = next(e for e in czech_lattice.edges if e.token == "citizens")
        cut = remove_conflicting(czech_lattice, citizens)
        dropped = [e for e in czech_lattice.edges if e not in cut.edges]
        assert dropped
        for edge in dropped:
            with pytest.raises(EdgeNotInLattice):
                remove_conflicting(cut, edge)
            with pytest.raises(EdgeNotInLattice):
                reference_remove_conflicting(cut, edge)
        # An edge of neither lattice, before, among and after the edges.
        for edge in [Edge(-1, 0, "a", ORIGIN_INPUT), citizens._replace(token="nope"),
                     Edge(99, 99, "z", ORIGIN_INPUT)]:
            with pytest.raises(EdgeNotInLattice):
                remove_conflicting(cut, edge)

    def test_adjacency_built_once_by_the_builders_check(self, czech_lattice):
        # check_lattice builds a built lattice's adjacency, and the masks
        # read that build instead of making their own.
        built = vars(czech_lattice)["_adjacency"]
        conflict_masks(czech_lattice)
        assert adjacency(czech_lattice) is built
        order, into, outof = built
        assert sorted(order) == list(czech_lattice.nodes)
        rank = {node: r for r, node in enumerate(order)}
        for i, e in enumerate(czech_lattice.edges):
            assert rank[e.src] < rank[e.dst]
            assert (1 << i, e.src) in into[e.dst] and (1 << i, e.dst) in outof[e.src]
        assert sum(map(len, into.values())) == sum(map(len, outof.values())) == len(czech_lattice.edges)

    def test_masks_name_the_edges_kept(self):
        rng = random.Random(21)
        for _ in range(25):
            lat = random_multipath_lattice(rng)
            assert all(a < b for a, b in zip(lat.edges, lat.edges[1:]))
            for edge, mask in zip(lat.edges, conflict_masks(lat)):
                kept = [e for i, e in enumerate(lat.edges) if mask >> i & 1]
                assert kept == list(reference_remove_conflicting(lat, edge).edges)


class TestEnumeratePaths:
    def test_naive_single_path(self):
        lat = build_naive("a b".split())
        assert enumerate_paths(lat, 5) == [("a", "b")]

    def test_diamond_two_paths(self):
        edges = (
            Edge(0, 1, "a", ORIGIN_INPUT),
            Edge(0, 1, "b", ORIGIN_BILAYERED),
        )
        lat = WordLattice(source=0, sink=1, edges=edges)
        assert sorted(enumerate_paths(lat, 5)) == [("a",), ("b",)]

    def test_cap_respected(self, czech_lattice):
        assert len(enumerate_paths(czech_lattice, 3)) == 3

    def test_every_edge_on_a_path(self, czech_lattice):
        on_paths = set()
        for path in enumerate_edge_paths(czech_lattice, 10000):
            on_paths.update(path)
        assert on_paths == set(czech_lattice.edges)

    def test_deterministic(self, czech_lattice):
        assert enumerate_paths(czech_lattice, 50) == enumerate_paths(czech_lattice, 50)

    def test_equals_recursive_reference(self, czech_lattice):
        rng = random.Random(11)
        lattices = [random_multipath_lattice(rng) for _ in range(50)] + [czech_lattice]
        for lat in lattices:
            for cap in (1, 3, 10**6):
                assert enumerate_edge_paths(lat, cap) == reference_enumerate_edge_paths(lat, cap)

    def test_path_longer_than_recursion_limit(self):
        lat = build_naive(["a"] * 5000)
        (path,) = enumerate_edge_paths(lat, 10)
        assert path == lat.edges

    def test_cap_below_one(self, czech_lattice):
        with pytest.raises(LatticeError, match="cap must be >= 1"):
            enumerate_edge_paths(czech_lattice, 0)

    def test_source_is_sink(self):
        assert enumerate_edge_paths(WordLattice(source=0, sink=0, edges=()), 1) == [()]


class TestBilayeredLattice:
    def test_adds_when_parallel_to_day(self, bilayered_toy_grammar):
        lat = build_bilayered(
            "what day is nochebuena".split(), bilayered_toy_grammar
        )
        added = [e for e in lat.edges if e.origin == ORIGIN_BILAYERED]
        assert added == [Edge(1, 2, "when", ORIGIN_BILAYERED)]
        assert tuple("what day is nochebuena".split()) in enumerate_paths(lat, 10)

    def test_no_alternatives_equals_naive(self, bilayered_toy_grammar):
        lat = build_bilayered(
            "when is nochebuena celebrated".split(), bilayered_toy_grammar
        )
        assert lat == build_naive("when is nochebuena celebrated".split())

    def test_each_grammar_keeps_its_own_alternatives(self, bilayered_toy_grammar):
        tokens = "what day is nochebuena".split()
        first = build_bilayered(tokens, bilayered_toy_grammar)
        day = next(ctx for ctx, table in bilayered_toy_grammar.lexical.items() if "day" in table)
        other = dataclasses.replace(
            bilayered_toy_grammar,
            lexical={**bilayered_toy_grammar.lexical, day: {"day": 0.5, "date": 0.5}},
        )
        second = build_bilayered(tokens, other)
        assert {e.token for e in second.edges if e.origin == ORIGIN_BILAYERED} == {"date", "when"}
        assert build_bilayered(tokens, bilayered_toy_grammar) == first
        # Built once per grammar object, and never shared between two.
        mine = _alternatives(bilayered_toy_grammar)
        assert _alternatives(bilayered_toy_grammar) is mine
        assert _alternatives(other) is not mine
        assert mine[(day[0], day[1].sem)] == ("day", "when")

    def test_one_layer_grammar_rejected(self, triplet_trees):
        from paralat.estimation import train_grammar

        grammar = train_grammar(triplet_trees, m=2, seed=0)
        with pytest.raises(LatticeError):
            build_bilayered(["what"], grammar)


def _edges(*pairs):
    return tuple(Edge(src, dst, f"w{src}{dst}", ORIGIN_INPUT) for src, dst in pairs)


class TestCheckLattice:
    @pytest.mark.parametrize(
        "source, sink, pairs, message",
        [
            (0, 2, [(0, 1), (1, 2), (2, 1)], "lattice contains a cycle"),
            (0, 2, [(0, 1), (1, 2), (3, 1)], "node 3 is a second source"),
            (0, 2, [(0, 1), (1, 2), (1, 3)], "node 3 is a second sink"),
            # An edge into the source leaves a node with no incoming edge.
            (1, 2, [(0, 1), (1, 2)], "node 0 is a second source"),
            # An edge out of the sink leaves a node with no outgoing edge.
            (0, 1, [(0, 1), (1, 2)], "node 2 is a second sink"),
        ],
        ids=["cycle", "second-source", "second-sink", "into-source", "out-of-sink"],
    )
    def test_refused(self, source, sink, pairs, message):
        with pytest.raises(LatticeError, match=message):
            check_lattice(WordLattice(source=source, sink=sink, edges=_edges(*pairs)))


class TestDump:
    def test_canonical_dump(self, czech_lattice):
        text = dump_lattice(czech_lattice)
        assert text.startswith("NODE 0\n")
        assert f"EDGE 0 1 what {ORIGIN_INPUT}" in text
        assert dump_lattice(czech_lattice) == text
