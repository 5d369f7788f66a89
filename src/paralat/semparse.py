"""Toy knowledge-base question answering over semantic graphs.

Question graphs (hand-authored files; one designated TARGET node) are
grounded into KB subgraphs by beam search over per-edge and per-type
decisions, executed as conjunctive queries with TARGET as the answer
variable, and scored by a linear model trained with the averaged
structured perceptron against minimal-loss oracle groundings.  The best
F1 those groundings reach (``oracle_best_f1``) is read only by tests and
is in ``tests/oracles.py``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from operator import mul
from typing import Iterable, Mapping, Sequence, TypeVar

from .data_files import atomic_write, finite_float, records
from .errors import (
    EmptyGold,
    NoEntityCandidates,
    SemparseError,
    UnboundTarget,
)

DEFAULT_BEAM = 100
ORACLE_BEAM = 1000
ENTITY_LATTICE_TOP = 10

FeatureDict = dict[str, float]


# --- knowledge base -----------------------------------------------------------

Triple = tuple[str, str, str]


@dataclass(frozen=True)
class KnowledgeGraph:
    """Entities, triples and type assertions of a KB.

    ``load_kb`` holds each distinct name as one string object, shared by
    ``entities``, ``triples`` and ``type_assertions``.  Lookups read
    indexes that are built on first use and cached on the instance; they
    are not fields, so equality and hashing ignore them.
    One loop over the triples fills both the subject and the object
    index (``_triples_by``), whichever is asked for first; entities are
    indexed by the first token of their surface, so a mention's
    candidates are surfaced from two buckets only.
    """

    entities: tuple[str, ...]  # in file order; order defines resolution rank
    triples: frozenset[Triple]
    type_assertions: frozenset[tuple[str, str]]

    @cached_property
    def types(self) -> frozenset[str]:
        return frozenset(t for _, t in self.type_assertions)

    def subjects(self, relation: str, obj: str) -> frozenset[str]:
        return frozenset(s for s, r, _ in self._triples_by[1].get(obj, ()) if r == relation)

    def objects(self, subj: str, relation: str) -> frozenset[str]:
        return frozenset(o for _, r, o in self._triples_by[0].get(subj, ()) if r == relation)

    def entities_of_type(self, type_name: str) -> frozenset[str]:
        return frozenset(e for e, t in self.type_assertions if t == type_name)

    @cached_property
    def _triples_by(self) -> tuple[dict[str, list[Triple]], dict[str, list[Triple]]]:
        """Triples by subject (``[0]``) and by object (``[1]``), filled in
        one loop."""
        by_subject: dict[str, list[Triple]] = defaultdict(list)
        by_object: dict[str, list[Triple]] = defaultdict(list)
        for triple in self.triples:
            subj, _, obj = triple
            by_subject[subj].append(triple)
            by_object[obj].append(triple)
        return by_subject, by_object

    @cached_property
    def _types_of(self) -> dict[str, list[str]]:
        """Entity -> its asserted types, sorted."""
        types_of: dict[str, list[str]] = defaultdict(list)
        for entity, type_name in sorted(self.type_assertions):
            types_of[entity].append(type_name)
        return types_of

    @cached_property
    def _by_head(self) -> dict[str | None, list[tuple[int, str]]]:
        """First surface token -> (rank, entity), in rank order; entities
        with an empty surface are under None."""
        by_head: dict[str | None, list[tuple[int, str]]] = defaultdict(list)
        search = _CAMEL.search
        for rank, entity in enumerate(self.entities):
            head = search(entity)
            by_head[head.group().lower() if head else None].append((rank, entity))
        return by_head


def load_kb(path: str) -> KnowledgeGraph:
    """Read TSV triples plus "TYPE<TAB>entity<TAB>type" assertions; a
    line of any other field count, or with an empty field, is refused.

    Each distinct entity, relation and type name is held as one string
    object, however many lines repeat it; the lookup indexes are still
    built on first use."""
    # Entity -> itself, in order of first appearance; relation and type
    # names likewise, in a dict of their own.
    entities: dict[str, str] = {}
    names: dict[str, str] = {}
    triples: set[tuple[str, str, str]] = set()
    types: set[tuple[str, str]] = set()
    for lineno, line in records(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise SemparseError(f"{path}:{lineno}: bad KB line {line!r}")
        if "" in parts:
            raise SemparseError(f"{path}:{lineno}: empty field in KB line {line!r}")
        if parts[0] == "TYPE":
            _, entity, type_name = parts
            types.add((entities.setdefault(entity, entity), names.setdefault(type_name, type_name)))
        else:
            subj, relation, obj = parts
            triples.add((entities.setdefault(subj, subj), names.setdefault(relation, relation),
                         entities.setdefault(obj, obj)))
    return KnowledgeGraph(
        entities=tuple(entities),
        triples=frozenset(triples),
        type_assertions=frozenset(types),
    )


_CAMEL = re.compile(r"[A-Z][a-z]*|[a-z]+|\d+")


def entity_surface(entity: str) -> tuple[str, ...]:
    """Canonical mention tokens of a KB entity id (CamelCase split)."""
    return tuple(m.lower() for m in _CAMEL.findall(entity))


# --- question graphs -----------------------------------------------------------

@dataclass(frozen=True)
class UngroundedGraph:
    """A question's semantic graph plus the paraphrase it came from.

    Events carry binary NL predicates to entity mentions and the TARGET;
    type nodes constrain the TARGET (or a named entity node).
    """

    name: str
    target: str
    entity_nodes: tuple[tuple[str, tuple[str, ...]], ...]  # (id, mention tokens)
    type_nodes: tuple[tuple[str, str, str], ...]  # (id, label, constrained node)
    events: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (event, node, NL predicate)
    text: tuple[str, ...] = ()
    classifier_score: float = 1.0

    def entity_edges(self) -> tuple[tuple[str, str, str, str], ...]:
        """Entity-entity edges: (event, node1, node2, NL predicate).

        An event with arcs to several entity/target nodes contributes one
        edge per node pair; the predicate joins the two arc labels.
        """
        grounded_kinds = {nid for nid, _ in self.entity_nodes} | {self.target}
        by_event: dict[str, list[tuple[str, str]]] = defaultdict(list)
        for event, node, label in self.edges:
            if node in grounded_kinds:
                by_event[event].append((node, label))
        out = []
        for event in self.events:
            neighbors = sorted(by_event.get(event, []))
            for (n1, l1), (n2, l2) in itertools.combinations(neighbors, 2):
                if n1 == n2:
                    continue
                out.append((event, n1, n2, f"{l1}|{l2}"))
        return tuple(out)


def load_ungrounded(path: str, name: str | None = None) -> UngroundedGraph:
    """Read a question graph file (ENTITY/TYPE/EVENT/TARGET/EDGE lines,
    optional TEXT and SCORE lines).

    Each TARGET, ENTITY, TYPE and EVENT id names one node, an edge joins an
    EVENT to a node and is given once, as are the TARGET, TEXT and SCORE
    lines, and a type constrains ``target`` or an ENTITY; a line that
    breaks one of these rules is named by its ``file:line``.
    """
    target: str | None = None
    entity_nodes: list[tuple[str, tuple[str, ...]]] = []
    type_nodes: list[tuple[str, str, str]] = []
    events: list[str] = []
    text: tuple[str, ...] = ()
    score = 1.0
    kinds: dict[str, tuple[str, int]] = {}  # node id -> (kind, line)
    type_lines: list[int] = []
    edges: dict[tuple[str, str, str], int] = {}  # edge -> line, in file order
    singles: dict[str, int] = {}  # TARGET, TEXT or SCORE -> its line

    def once(kind: str, lineno: int) -> None:
        if kind in singles:
            raise SemparseError(f"{path}:{lineno}: second {kind} repeats line {singles[kind]}")
        singles[kind] = lineno

    def declare(nid: str, kind: str, lineno: int) -> None:
        if nid in kinds:
            other, at = kinds[nid]
            raise SemparseError(
                f"{path}:{lineno}: {kind} id {nid!r} already names the {other} of line {at}"
            )
        kinds[nid] = (kind, lineno)

    for lineno, line in records(path):
        line = line.strip()
        parts = line.split()
        kind = parts[0]
        if kind == "TEXT" and len(parts) >= 2:
            once(kind, lineno)
            text = tuple(t.lower() for t in parts[1:])
        elif kind == "SCORE" and len(parts) == 2:
            try:
                score = finite_float(parts[1])
            except ValueError as exc:
                raise SemparseError(f"{path}:{lineno}: bad score {parts[1]!r}") from exc
            once(kind, lineno)
        elif kind == "ENTITY" and len(parts) >= 3:
            declare(parts[1], kind, lineno)
            entity_nodes.append((parts[1], tuple(t.lower() for t in parts[2:])))
        elif kind == "TYPE" and len(parts) in (3, 4):
            declare(parts[1], kind, lineno)
            constrains = parts[3] if len(parts) == 4 else "target"
            type_nodes.append((parts[1], parts[2], constrains))
            type_lines.append(lineno)
        elif kind == "EVENT" and len(parts) == 2:
            declare(parts[1], kind, lineno)
            events.append(parts[1])
        elif kind == "TARGET" and len(parts) == 2:
            once(kind, lineno)
            declare(parts[1], kind, lineno)
            target = parts[1]
        elif kind == "EDGE" and len(parts) == 4:
            edge = (parts[1], parts[2], parts[3])
            if edge in edges:
                raise SemparseError(
                    f"{path}:{lineno}: edge {' '.join(edge)!r} repeats line {edges[edge]}"
                )
            edges[edge] = lineno
        else:
            raise SemparseError(f"{path}:{lineno}: bad graph line {line!r}")
    if target is None:
        raise SemparseError(f"{path}: missing TARGET node")
    for (event, node, _), lineno in edges.items():
        if event not in events:
            raise SemparseError(f"{path}:{lineno}: edge references unknown event {event!r}")
        if node not in kinds:
            raise SemparseError(f"{path}:{lineno}: edge references unknown node {node!r}")
    entity_ids = {nid for nid, _ in entity_nodes}
    for lineno, (nid, _, constrains) in zip(type_lines, type_nodes):
        if constrains != "target" and constrains not in entity_ids:
            raise SemparseError(
                f"{path}:{lineno}: type {nid!r} constrains {constrains!r},"
                " which is neither target nor an ENTITY"
            )
    return UngroundedGraph(
        name=name or path,
        target=target,
        entity_nodes=tuple(entity_nodes),
        type_nodes=tuple(type_nodes),
        events=tuple(events),
        edges=tuple(edges),
        text=text,
        classifier_score=score,
    )


# --- grounded graphs and denotation --------------------------------------------

EdgeKey = tuple[str, str, str]  # (event, node1, node2)
EdgeChoice = tuple[str, str] | None  # (relation, "fwd"/"bwd") or skip


@dataclass(frozen=True)
class GroundedGraph:
    graph: UngroundedGraph
    entity_map: tuple[tuple[str, str], ...]  # node id -> KB entity
    edge_map: tuple[tuple[EdgeKey, EdgeChoice], ...]
    type_map: tuple[tuple[str, str | None], ...]  # type node id -> KB type
    lattice_score: float = 0.0

    def key(self) -> str:
        """Canonical text key; defines the deterministic tie-break order."""
        parts = [_entity_part(nid, ent) for nid, ent in self.entity_map]
        parts += [_edge_part(edge, choice) for edge, choice in self.edge_map]
        parts += [_type_part(nid, t) for nid, t in self.type_map]
        return ";".join(parts)


def _entity_part(nid: str, entity: str) -> str:
    return f"{nid}={entity}"


def _edge_part(edge: EdgeKey, choice: EdgeChoice) -> str:
    event, n1, n2 = edge
    return f"{event}|{n1}|{n2}={'null' if choice is None else choice[0] + ':' + choice[1]}"


def _type_part(nid: str, type_name: str | None) -> str:
    return f"{nid}={type_name or 'null'}"


def denotation(grounded: GroundedGraph, kb: KnowledgeGraph) -> frozenset[str]:
    """Entities reachable at the TARGET node of the grounded graph,
    evaluated as a conjunctive query over the KB."""
    graph = grounded.graph
    entity_of = dict(grounded.entity_map)
    target = graph.target

    target_bound = False
    candidates: set[str] | None = None  # None = all entities

    def narrow(allowed: Iterable[str]) -> None:
        nonlocal candidates
        allowed = set(allowed)
        candidates = allowed if candidates is None else candidates & allowed

    feasible = True
    for (event, n1, n2), choice in grounded.edge_map:
        if choice is None:
            continue
        relation, direction = choice
        subj, obj = (n1, n2) if direction == "fwd" else (n2, n1)
        if subj == target or obj == target:
            target_bound = True
        if subj == target and obj == target:
            raise SemparseError(f"{graph.name}: edge binds target twice")
        if subj == target:
            narrow(kb.subjects(relation, entity_of[obj]))
        elif obj == target:
            narrow(kb.objects(entity_of[subj], relation))
        else:
            if entity_of[obj] not in kb.objects(entity_of[subj], relation):
                feasible = False

    constrained_by = {tid: c for tid, _, c in graph.type_nodes}
    for nid, type_name in dict(grounded.type_map).items():
        if type_name is None:
            continue
        constrained = constrained_by[nid]
        if constrained == "target":
            target_bound = True
            narrow(kb.entities_of_type(type_name))
        else:
            if entity_of[constrained] not in kb.entities_of_type(type_name):
                feasible = False

    if not target_bound:
        raise UnboundTarget(f"{graph.name}: no non-null constraint touches TARGET")
    if not feasible:
        return frozenset()
    return frozenset(candidates if candidates is not None else kb.entities)


def _precision_recall_f1(
    predicted: frozenset[str] | set[str], gold: frozenset[str] | set[str]
) -> tuple[float, float, float]:
    """Precision, recall and F1 of the predicted entity set against a
    non-empty gold set; a prediction with no gold entity scores 0 on all."""
    if not gold:
        raise EmptyGold("gold answer set must be non-empty")
    overlap = len(set(predicted) & set(gold))
    if overlap == 0:
        return 0.0, 0.0, 0.0
    precision = overlap / len(predicted)
    recall = overlap / len(gold)
    return precision, recall, 2 * precision * recall / (precision + recall)


def f1_loss(predicted: frozenset[str] | set[str], gold: frozenset[str] | set[str]) -> float:
    """1 - F1 of the predicted entity set; empty predictions score F1 = 0."""
    return 1.0 - _precision_recall_f1(predicted, gold)[2]


# --- entity resolution ----------------------------------------------------------

def entity_candidates(
    mention: Sequence[str], kb: KnowledgeGraph
) -> list[tuple[str, int, int]]:
    """(entity, match length, dictionary rank) candidates for a mention.

    A KB entity matches when its canonical surface equals the mention or
    one is a prefix of the other, at the length of the shorter; longer
    matches rank first, then file order.  So an entity whose surface is
    empty (an id with no letter or digit, such as ``_``) matches every
    mention at length 0, and an empty mention matches every entity at
    length 0.  Only the mention head's bucket of the KB's surface index
    and the empty-surface bucket are read.
    """
    mention = tuple(t.lower() for t in mention)
    if not mention:
        return [(entity, 0, rank) for rank, entity in enumerate(kb.entities)]
    out = []
    for bucket in (kb._by_head.get(mention[0], ()), kb._by_head.get(None, ())):
        for rank, entity in bucket:
            surface = entity_surface(entity)
            match = min(len(surface), len(mention))
            if surface[:match] == mention[:match]:
                out.append((entity, match, rank))
    out.sort(key=lambda item: (-item[1], item[2], item[0]))
    return out


def entity_assignments(
    graph: UngroundedGraph, kb: KnowledgeGraph, top: int = ENTITY_LATTICE_TOP
) -> list[tuple[tuple[tuple[str, str], ...], float]]:
    """Top joint entity assignments with their lattice scores, best first
    by (-total match, total rank, assignment).

    Each node's candidates are sorted by (-match, rank) and no two share a
    rank, so moving any node to its next candidate strictly raises that
    key.  The assignments therefore come off a heap of the successors of
    those already taken in exactly the order of sorting the whole product,
    and at most ``top`` x nodes + 1 of them are formed.
    """
    nodes = sorted(graph.entity_nodes)  # ids are unique, so sorted by id
    node_ids = [nid for nid, _ in nodes]
    per_node = []
    for nid, mention in nodes:
        cands = entity_candidates(mention, kb)
        if not cands:
            raise NoEntityCandidates(
                f"{graph.name}: no KB entity matches node {nid!r}"
            )
        per_node.append(cands)

    def entry(index: tuple[int, ...]):
        combo = [cands[i] for cands, i in zip(per_node, index)]
        assignment = tuple((nid, c[0]) for nid, c in zip(node_ids, combo))
        return (-sum(c[1] for c in combo), sum(c[2] for c in combo), assignment), index

    start = (0,) * len(per_node)
    heap = [entry(start)]
    seen = {start}
    out = []
    while heap and len(out) < top:
        (neg_match, total_rank, assignment), index = heapq.heappop(heap)
        out.append((assignment, -neg_match - 0.01 * total_rank))
        for node, i in enumerate(index):
            if i + 1 < len(per_node[node]):
                succ = index[:node] + (i + 1,) + index[node + 1:]
                if succ not in seen:
                    seen.add(succ)
                    heapq.heappush(heap, entry(succ))
    return out


# --- features -------------------------------------------------------------------

_SUFFIXES = ("ing", "ed", "es", "s")


def _stem(word: str) -> str:
    word = word.lower()
    for suffix in _SUFFIXES:
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            return word[: -len(suffix)]
    return word


def _name_tokens(name: str) -> list[str]:
    return [t for t in re.split(r"[._|]", name.lower()) if t]


@lru_cache(maxsize=4096)
def _stem_overlap(predicate: str, relation: str) -> int:
    """Distinct stems shared by two dotted names.  Grounding asks for the
    same pairs at every beam step, so the answers are cached."""
    pred = {_stem(t) for t in _name_tokens(predicate)}
    rel = {_stem(t) for t in _name_tokens(relation)}
    return len(pred & rel)


# A decision's features: names to add to (``+=``) and names set to 1.0.
FeatureDelta = tuple[tuple[tuple[str, float], ...], tuple[str, ...]]


def _edge_delta(pred: str, choice: EdgeChoice, words: Sequence[str]) -> FeatureDelta:
    if choice is None:
        return ((f"align|{pred}|null", 1.0), ("null_edges", 1.0)), ()
    relation, direction = choice
    overlap = _stem_overlap(pred, relation)
    added = (f"align|{pred}|{relation}:{direction}", 1.0), ("stem_overlap", overlap)
    return added, tuple(f"wordrel|{word}|{relation}" for word in words)


def _type_delta(label: str, type_name: str | None) -> FeatureDelta:
    if type_name is None:
        return ((f"typealign|{label}|null", 1.0), ("null_types", 1.0)), ()
    overlap = _stem_overlap(label, type_name)
    return ((f"typealign|{label}|{type_name}", 1.0), ("stem_overlap", overlap)), ()


def _extended(feats: FeatureDict, delta: FeatureDelta) -> FeatureDict:
    """A copy of ``feats`` with one decision's features added."""
    out = dict(feats)
    added, flags = delta
    for name, value in added:
        out[name] = out.get(name, 0.0) + value
    for name in flags:
        out[name] = 1.0
    return out


def dot_score(weights: Mapping[str, float], feats: FeatureDict, graph_name: str = "") -> float:
    """``math.fsum`` of weight times value over ``feats`` (a missing
    weight is 0), so the order of the features does not matter.  A sum
    that is not finite is a SemparseError: one that overflows, that adds
    products of opposite infinite signs, or that holds an infinite
    product.  ``graph_name``, when given, leads the message."""
    try:
        total = math.fsum(map(mul, map(weights.get, feats, itertools.repeat(0.0)), feats.values()))
    except (OverflowError, ValueError) as exc:
        reason = str(exc)
    else:
        if math.isfinite(total):
            return total
        reason = "infinite product in fsum"
    where = f"{graph_name}: " if graph_name else ""
    raise SemparseError(f"{where}grounding score out of float range ({reason})")


# --- beam-search grounding -------------------------------------------------------

def _edge_options(
    kb: KnowledgeGraph,
    entity_of: Mapping[str, str],
    target: str,
    n1: str,
    n2: str,
) -> list[EdgeChoice]:
    """Skip plus every KB relation compatible with the grounded endpoints,
    ``n1`` and ``n2`` being two distinct nodes (see ``entity_edges``)."""
    options: list[EdgeChoice] = [None]
    found: set[tuple[str, str]] = set()
    for subj, obj, direction in ((n1, n2, "fwd"), (n2, n1, "bwd")):
        if subj == target:
            rows = kb._triples_by[1].get(entity_of[obj], ())
        elif obj == target:
            rows = kb._triples_by[0].get(entity_of[subj], ())
        else:
            rows = tuple(
                t for t in kb._triples_by[0].get(entity_of[subj], ()) if t[2] == entity_of[obj]
            )
        found.update((r, direction) for _, r, _ in rows)
    options.extend(sorted(found))
    return options


def _type_options(
    kb: KnowledgeGraph, entity_of: Mapping[str, str], constrained: str
) -> list[str | None]:
    options: list[str | None] = [None]
    if constrained == "target":
        options.extend(sorted(kb.types))
    else:
        options.extend(kb._types_of.get(entity_of[constrained], ()))
    return options


def ground(
    graph: UngroundedGraph,
    kb: KnowledgeGraph,
    weights: Mapping[str, float] | None = None,
    beam: int = DEFAULT_BEAM,
) -> list[tuple[GroundedGraph, float, FeatureDict]]:
    """Beam search over grounding decisions; returns up to ``beam``
    complete groundings ordered by (score, canonical key).

    Decision order: joint entity assignment (from the top lattice paths),
    then each entity-entity edge (a compatible relation or skip), then
    each type node (a compatible type or skip).  An edge's features read
    its NL predicate; when an event links one node pair under two labels,
    both of its edges read the last predicate.  A beam state is plain
    data: (score, key, features, entity assignment, lattice score,
    choices so far).  Each state extends its parent by one decision: the
    parent's features (at the root, the classifier and lattice scores)
    plus the decision's alignment, stem overlap, word-relation and
    null-grounding features, and the parent's key plus the decision's
    part; it is scored over its whole feature dict.  Options, features and
    key parts are worked out once per step and entity assignment, and
    only the returned states become ``GroundedGraph``s.  A score that is
    not finite is a SemparseError led by the graph's name.
    """
    weights = weights or {}
    entity_edges = graph.entity_edges()
    predicates = {edge[:3]: edge[3] for edge in entity_edges}
    edge_keys = [edge[:3] for edge in entity_edges]
    words = sorted(set(graph.text))
    # One (options of an entity assignment, choice -> feature delta,
    # choice -> key part) per entity edge, then per type node.
    decisions = [
        (partial(_edge_options, kb, target=graph.target, n1=edge[1], n2=edge[2]),
         partial(_edge_delta, predicates[edge], words=words), partial(_edge_part, edge))
        for edge in edge_keys
    ] + [
        (partial(_type_options, kb, constrained=constrained),
         partial(_type_delta, label), partial(_type_part, nid))
        for nid, label, constrained in graph.type_nodes
    ]

    def rank(state):
        return -state[0], state[1]

    kept = []
    for assignment, lattice_score in entity_assignments(graph, kb):
        feats = {"classifier_score": graph.classifier_score, "lattice_score": lattice_score}
        key = ";".join(_entity_part(nid, ent) for nid, ent in assignment)
        kept.append((dot_score(weights, feats, graph.name), key, feats, assignment, lattice_score, ()))
    kept = sorted(kept, key=rank)[:beam]
    for options_of, delta_of, part_of in decisions:
        pool = []
        menus: dict[tuple[tuple[str, str], ...], list] = {}
        for _, key, feats, assignment, lattice_score, choices in kept:
            if assignment not in menus:
                menus[assignment] = [(choice, delta_of(choice), part_of(choice))
                                     for choice in options_of(dict(assignment))]
            for choice, delta, part in menus[assignment]:
                child_feats = _extended(feats, delta)
                pool.append((
                    dot_score(weights, child_feats, graph.name), f"{key};{part}" if key else part,
                    child_feats, assignment, lattice_score, choices + (choice,),
                ))
        kept = sorted(pool, key=rank)[:beam]
    type_ids = [nid for nid, _, _ in graph.type_nodes]
    return [
        (GroundedGraph(graph, assignment, tuple(zip(edge_keys, choices)),
                       tuple(zip(type_ids, choices[len(edge_keys):])), lattice_score), score, feats)
        for score, _, feats, assignment, lattice_score, choices in kept
    ]


# --- oracle tuples ----------------------------------------------------------------

@dataclass(frozen=True)
class OracleTuple:
    grounding: GroundedGraph
    loss: float
    features: FeatureDict  # the dict ground returned with the grounding


def oracle_set(
    graphs: Sequence[UngroundedGraph],
    kb: KnowledgeGraph,
    gold: frozenset[str] | set[str],
) -> list[OracleTuple]:
    """All tuples whose denotation reaches the minimal F1-loss over every
    grounding found with a beam of ``ORACLE_BEAM``."""
    if not gold:
        raise EmptyGold("gold answer set must be non-empty")
    scored: list[OracleTuple] = []
    for graph in graphs:
        try:
            results = ground(graph, kb, None, beam=ORACLE_BEAM)
        except NoEntityCandidates:
            continue
        for grounding, _score, feats in results:
            try:
                loss = f1_loss(denotation(grounding, kb), gold)
            except UnboundTarget:
                continue
            scored.append(OracleTuple(grounding, loss, feats))
    if not scored:
        return []
    best = min(t.loss for t in scored)
    return [t for t in scored if t.loss == best]


# --- averaged structured perceptron -------------------------------------------------

@dataclass
class PerceptronModel:
    weights: dict[str, float] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    steps: int = 0
    skipped: int = 0

    def snapshot(self) -> None:
        self.steps += 1
        for name, value in self.weights.items():
            self.totals[name] = self.totals.get(name, 0.0) + value

    def averaged(self) -> dict[str, float]:
        if self.steps == 0:
            return {}
        return {name: total / self.steps for name, total in self.totals.items()}


@dataclass(frozen=True)
class QAExample:
    question: tuple[str, ...]
    graphs: tuple[UngroundedGraph, ...]  # original graph first
    gold: frozenset[str]


def load_qa(path: str, graph_loader) -> list[QAExample]:
    """Read "question<TAB>graph-file[,graph-file...]<TAB>answer|answer..."
    lines; ``graph_loader`` maps a file name to an UngroundedGraph."""
    out: list[QAExample] = []
    for lineno, line in records(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise SemparseError(f"{path}:{lineno}: bad QA line")
        question = tuple(parts[0].lower().split())
        graphs = []
        for name in parts[1].split(","):
            if "\0" in name:
                raise SemparseError(f"{path}:{lineno}: NUL byte in graph name {name!r}")
            try:
                graphs.append(graph_loader(name))
            except OSError as exc:
                raise SemparseError(
                    f"{path}:{lineno}: cannot read graph {name!r}: {exc}"
                ) from exc
        gold = parts[2].split("|")
        if "" in gold:
            raise SemparseError(f"{path}:{lineno}: empty gold answer in {parts[2]!r}")
        out.append(QAExample(question=question, graphs=tuple(graphs), gold=frozenset(gold)))
    return out


T = TypeVar("T")


def _argmax(scored: Iterable[tuple[float, str, T]]) -> T | None:
    """The item of the highest score, ties going to the smallest key
    ("graph name;grounding key"); None when there is none."""
    best = min(scored, key=lambda entry: (-entry[0], entry[1]), default=None)
    return None if best is None else best[2]


def _predict(
    graphs: Sequence[UngroundedGraph],
    kb: KnowledgeGraph,
    weights: Mapping[str, float],
    beam: int,
) -> tuple[GroundedGraph, FeatureDict] | None:
    """Global argmax over the beam outputs of every tuple."""
    scored = []
    for graph in graphs:
        try:
            results = ground(graph, kb, weights, beam=beam)
        except NoEntityCandidates:
            continue
        for grounding, score, feats in results[:1]:
            scored.append((score, f"{graph.name};{grounding.key()}", (grounding, feats)))
    return _argmax(scored)


def perceptron_train(
    dataset: Sequence[QAExample],
    kb: KnowledgeGraph,
    epochs: int = 5,
    beam: int = DEFAULT_BEAM,
    seed: int = 0,
) -> PerceptronModel:
    """Averaged structured perceptron over question-answer pairs.

    Oracle tuples are found a priori with :func:`oracle_set`, whose beam
    is ``ORACLE_BEAM``.  Each example updates the weights toward the
    best-scoring oracle tuple and away from the prediction; examples with
    an empty oracle set are recorded as skipped.  Training is strictly
    sequential in dataset order and deterministic (``seed`` only names the
    run; no randomness is used).
    """
    del seed
    model = PerceptronModel()
    oracles = [oracle_set(ex.graphs, kb, ex.gold) for ex in dataset]
    for _ in range(epochs):
        for example, oracle in zip(dataset, oracles):
            predicted = _predict(example.graphs, kb, model.weights, beam) if oracle else None
            if predicted is None:  # no oracle tuple, or no prediction (a beam below 1)
                model.skipped += 1
                continue
            _, predicted_feats = predicted

            best_oracle = _argmax(
                (
                    dot_score(model.weights, tup.features, tup.grounding.graph.name),
                    f"{tup.grounding.graph.name};{tup.grounding.key()}",
                    tup,
                )
                for tup in oracle
            )
            oracle_feats = best_oracle.features

            for name in set(oracle_feats) | set(predicted_feats):
                delta = oracle_feats.get(name, 0.0) - predicted_feats.get(name, 0.0)
                if delta:
                    model.weights[name] = model.weights.get(name, 0.0) + delta
            model.snapshot()
    return model


@dataclass(frozen=True)
class EvalReport:
    per_question: tuple[tuple[str, float, float, float], ...]

    @property
    def avg_precision(self) -> float:
        return self._avg(1)

    @property
    def avg_recall(self) -> float:
        return self._avg(2)

    @property
    def avg_f1(self) -> float:
        return self._avg(3)

    def _avg(self, idx: int) -> float:
        if not self.per_question:
            return 0.0
        return sum(row[idx] for row in self.per_question) / len(self.per_question)


def evaluate(
    dataset: Sequence[QAExample],
    kb: KnowledgeGraph,
    weights: Mapping[str, float],
    beam: int = DEFAULT_BEAM,
) -> EvalReport:
    """Average precision/recall/F1 of top-1 denotations against gold."""
    rows = []
    for example in dataset:
        predicted: frozenset[str] = frozenset()
        result = _predict(example.graphs, kb, weights, beam)
        if result is not None:
            try:
                predicted = denotation(result[0], kb)
            except UnboundTarget:
                predicted = frozenset()
        rows.append((" ".join(example.question), *_precision_recall_f1(predicted, example.gold)))
    return EvalReport(per_question=tuple(rows))


# --- model file ----------------------------------------------------------------------

def save_perceptron(model: PerceptronModel, path: str) -> None:
    averaged = model.averaged()
    lines = [f"STEPS\t{model.steps}", f"SKIPPED\t{model.skipped}"]
    lines += [f"FEATURE\t{name}\t{format(averaged[name], '.17g')}" for name in sorted(averaged)]
    atomic_write(path, "".join(line + "\n" for line in lines))


def load_perceptron_weights(path: str) -> dict[str, float]:
    """The FEATURE weights of a perceptron file, whose lines come in any
    order.  A missing STEPS or SKIPPED line is an error, and so is a count
    that is not a non-negative integer, a repeated STEPS or SKIPPED line or
    a feature named on two lines."""
    weights: dict[str, float] = {}
    seen: dict[str, int] = {}  # line key -> its line number
    for lineno, line in records(path):
        parts = line.split("\t")
        if (parts[0], len(parts)) not in (("STEPS", 2), ("SKIPPED", 2), ("FEATURE", 3)):
            raise SemparseError(f"{path}:{lineno}: bad model line")
        key = parts[0] if len(parts) == 2 else f"FEATURE {parts[1]!r}"
        if key in seen:
            raise SemparseError(f"{path}:{lineno}: {key} repeats line {seen[key]}")
        seen[key] = lineno
        if parts[0] != "FEATURE":
            if not (parts[1].isascii() and parts[1].isdigit()):
                raise SemparseError(f"{path}:{lineno}: bad {key} count {parts[1]!r}")
            continue
        try:
            weights[parts[1]] = finite_float(parts[2])
        except ValueError as exc:
            raise SemparseError(f"{path}:{lineno}: bad weight {parts[2]!r}") from exc
    for key in ("STEPS", "SKIPPED"):
        if key not in seen:
            raise SemparseError(f"{path}: missing {key} line")
    return weights
