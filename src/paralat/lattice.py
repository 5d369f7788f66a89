"""Unweighted word lattices that constrain paraphrase generation.

A lattice is a token-labeled DAG with one source and one sink; every edge
lies on at least one source-to-sink path, and the input question survives
as one such path in every freshly built lattice.  Three builders are
provided: the bare question chain, parallel paths from a phrasal rewrite
database, and parallel words proposed by a two-layer grammar.  A builder
checks its lattice and sorts its edges, dropping copies; conflict removal
keeps both, and the path operations assume them.  Only tests list a
lattice's paths as token sequences; ``enumerate_paths`` is in
``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .data_files import number, records
from .errors import EdgeNotInLattice, EmptyQuestion, LatticeError
from .grammar import LatentGrammar

ORIGIN_INPUT = "input"
ORIGIN_RULE = "rule"
ORIGIN_BILAYERED = "bilayered"


class Edge(NamedTuple):
    src: int
    dst: int
    token: str
    origin: str


@dataclass(frozen=True)
class WordLattice:
    source: int
    sink: int
    edges: tuple[Edge, ...]

    @property
    def nodes(self) -> tuple[int, ...]:
        seen = {self.source, self.sink}
        for e in self.edges:
            seen.add(e.src)
            seen.add(e.dst)
        return tuple(sorted(seen))

    def vocabulary(self) -> frozenset[str]:
        return frozenset(e.token for e in self.edges)

    def outgoing(self) -> dict[int, list[Edge]]:
        out: dict[int, list[Edge]] = defaultdict(list)
        for e in self.edges:
            out[e.src].append(e)
        return out


def _make(source: int, sink: int, edges: Iterable[Edge]) -> WordLattice:
    lat = WordLattice(source=source, sink=sink, edges=tuple(sorted(set(edges))))
    check_lattice(lat)
    return lat


def check_lattice(lat: WordLattice) -> None:
    """Assert the structural invariants: DAG, unique source/sink, and
    every edge on some source-to-sink path.

    No separate check is needed for an edge into the source or out of the
    sink: in a DAG whose every other node has an incoming edge, the source
    cannot have one too, or every node would have a predecessor and the
    graph a cycle; the same holds for the sink and outgoing edges.
    """
    order, into, outof = adjacency(lat)
    nodes = lat.nodes
    if len(order) != len(nodes):
        raise LatticeError("lattice contains a cycle")
    for n in nodes:
        if n != lat.source and n not in into:
            raise LatticeError(f"node {n} is a second source")
        if n != lat.sink and n not in outof:
            raise LatticeError(f"node {n} is a second sink")


Adjacency = dict[int, list[tuple[int, int]]]


def adjacency(lat: WordLattice) -> tuple[list[int], Adjacency, Adjacency]:
    """The nodes of ``lat`` in a topological order and, per node with such
    edges, the bit (``1 << i`` for ``lat.edges[i]``) and far end of each
    edge into it and of each edge out of it.  The order is Kahn's walk from
    every node with no incoming edge; a node on a cycle, or reached only
    through one, is left out, so the order is shorter than ``lat.nodes``
    exactly when the lattice has a cycle.  Built on the lattice's first
    call and kept in its own ``__dict__``, as :func:`conflict_masks` keeps
    the masks, so :func:`check_lattice`, the masks and the sampler's
    depths share one build; callers must not change it."""
    cached = lat.__dict__.get("_adjacency")
    if cached is None:
        into: Adjacency = {}
        outof: Adjacency = {}
        for i, e in enumerate(lat.edges):
            into.setdefault(e.dst, []).append((1 << i, e.src))
            outof.setdefault(e.src, []).append((1 << i, e.dst))
        pending = {node: len(edges) for node, edges in into.items()}  # in-edges not yet walked
        order = sorted({lat.source, lat.sink, *outof}.difference(pending))
        for node in order:  # the walk appends to the list it reads
            for _, far in outof.get(node, ()):
                pending[far] -= 1
                if not pending[far]:
                    order.append(far)
        cached = lat.__dict__["_adjacency"] = (order, into, outof)
    return cached


def _crossed(order: list[int], adjacency: Adjacency) -> dict[int, int]:
    """Per node, the mask of the edges a walk from it crosses, over
    ``adjacency``: per node, the bit and the far end of each of its edges
    in the walk's direction.  ``order`` lists each node after the far ends
    of its edges, so one pass suffices."""
    crossed: dict[int, int] = {}
    for node in order:
        mask = 0
        for bit, far in adjacency.get(node, ()):
            mask |= bit | crossed[far]
        crossed[node] = mask
    return crossed


def conflict_masks(lat: WordLattice) -> list[int]:
    """Per position in ``lat.edges``, the mask (bit i for ``lat.edges[i]``)
    of the edges that share a source-to-sink path with its edge, as
    :func:`remove_conflicting` keeps them: the edge itself, the edges whose
    ``dst`` reaches its ``src``, and those its ``dst`` reaches.  Built on
    the lattice's first call from its :func:`adjacency` and kept in its own
    ``__dict__``, so equality, hash and repr ignore them and an equal
    lattice builds its own.  ``lat`` must be acyclic with distinct edges,
    as the builders' and :func:`remove_conflicting`'s lattices are; a
    removal reads only the masks of its chain's first lattice."""
    cached = lat.__dict__.get("_conflict_masks")
    if cached is None:
        order, into, outof = adjacency(lat)
        before = _crossed(order, into)
        after = _crossed(order[::-1], outof)
        cached = lat.__dict__["_conflict_masks"] = [
            before[e.src] | 1 << i | after[e.dst] for i, e in enumerate(lat.edges)
        ]
    return cached


# --- builders ----------------------------------------------------------------

def _chain(tokens: Sequence[str]) -> list[Edge]:
    """The edges of the chain carrying exactly the question, which every
    builder starts from.  Raises EmptyQuestion for an empty one."""
    if not tokens:
        raise EmptyQuestion("cannot build a lattice for an empty question")
    return [Edge(i, i + 1, tok, ORIGIN_INPUT) for i, tok in enumerate(tokens)]


def build_naive(tokens: Sequence[str]) -> WordLattice:
    """Single chain carrying exactly the input question."""
    return _make(0, len(tokens), _chain(tokens))


@dataclass(frozen=True)
class ParaphraseRuleDB:
    """Lexical and phrasal rewrites: source phrase -> target phrase, none
    of them an identity (:func:`load_rules` drops those).

    The source index and the longest source phrase are derived from the
    rules on first use and cached on the instance; they are not fields,
    so equality ignores them.
    """

    rules: tuple[tuple[tuple[str, ...], tuple[str, ...], float], ...]

    @cached_property
    def by_source(self) -> dict[tuple[str, ...], list[tuple[str, ...]]]:
        """The distinct targets of each source phrase, in rule order."""
        index: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for src, tgt, _ in self.rules:
            targets = index.setdefault(src, [])
            if tgt not in targets:
                targets.append(tgt)
        return index

    @cached_property
    def max_source_len(self) -> int:
        return max((len(src) for src, _, _ in self.rules), default=0)


def load_rules(path: str, min_score: float | None = None) -> ParaphraseRuleDB:
    """Read "source<TAB>target<TAB>score" rewrite rules.

    Identity rewrites are dropped; ``min_score`` restricts to the
    high-precision subset.  Phrases are lowercased (matching is
    case-insensitive).
    """
    rules = []
    for lineno, line in records(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise LatticeError(f"{path}:{lineno}: expected 3 tab-separated fields")
        src = tuple(parts[0].lower().split())
        tgt = tuple(parts[1].lower().split())
        score = number(parts[2], f"{path}:{lineno}", "score", LatticeError)
        if not src or not tgt:
            raise LatticeError(f"{path}:{lineno}: empty phrase")
        if src == tgt:
            continue
        if min_score is not None and score < min_score:
            continue
        rules.append((src, tgt, score))
    return ParaphraseRuleDB(rules=tuple(rules))


def build_from_rules(tokens: Sequence[str], db: ParaphraseRuleDB) -> WordLattice:
    """Question chain plus one parallel path per matching rewrite rule.

    Every rule whose source phrase matches a contiguous token span adds a
    parallel path between the span's boundary nodes; overlapping matches
    coexist.  Matching is case-insensitive over lowercased tokens.
    """
    edges = _chain(tokens)
    lowered = [t.lower() for t in tokens]
    n = len(tokens)
    index = db.by_source
    next_node = n + 1
    max_len = min(db.max_source_len, n)
    for start in range(n):
        for width in range(1, max_len + 1):
            end = start + width
            if end > n:
                break
            span = tuple(lowered[start:end])
            for tgt in index.get(span, []):
                prev = start
                for tok in tgt[:-1]:
                    edges.append(Edge(prev, next_node, tok, ORIGIN_RULE))
                    prev = next_node
                    next_node += 1
                edges.append(Edge(prev, end, tgt[-1], ORIGIN_RULE))
    return _make(0, n, edges)


def _alternatives(grammar: LatentGrammar) -> dict[tuple[str, int], tuple[str, ...]]:
    """Per (preterminal, semantic state), the sorted words of its lexical
    rules under any syntactic state, built by the grammar's first
    bilayered lattice.  The map lives in the grammar object's own
    ``__dict__``, as ``cky._index`` keeps the chart index, so it cannot be
    read for another grammar."""
    alternatives = grammar.__dict__.get("_lattice_alternatives")
    if alternatives is None:
        words: dict[tuple[str, int], set[str]] = defaultdict(set)
        for (sym, state), table in grammar.lexical.items():
            words[(sym, state.sem)].update(table)
        alternatives = grammar.__dict__["_lattice_alternatives"] = {
            key: tuple(sorted(alts)) for key, alts in words.items()
        }
    return alternatives


def build_bilayered(
    tokens: Sequence[str], grammar: LatentGrammar
) -> WordLattice:
    """Question chain plus single-word alternatives from a two-layer
    grammar.

    The question is parsed with the grammar; for every lexical derivation
    node with preterminal X and semantic state s emitting word w, every
    other word w' with a lexical rule under (X, any syntactic state, s)
    adds a parallel edge at w's position.
    """
    from .cky import cky_viterbi, lexical_leaves

    edges = _chain(tokens)
    if not grammar.layers.two_layer:
        raise LatticeError("bilayered lattices need a two-layer grammar")
    derivation = cky_viterbi(tokens, grammar)  # may raise ParseFailure

    alternatives = _alternatives(grammar)
    for pos, leaf in enumerate(lexical_leaves(derivation.root)):
        for alt in alternatives.get((leaf.symbol, leaf.state.sem), ()):
            if alt != tokens[pos]:
                edges.append(Edge(pos, pos + 1, alt, ORIGIN_BILAYERED))
    return _make(0, len(tokens), edges)


# --- path operations ----------------------------------------------------------

def remove_conflicting(lat: WordLattice, edge: Edge) -> WordLattice:
    """Keep only edges that co-occur with ``edge`` on some source-to-sink
    path.

    An edge conflicts with the chosen edge exactly when no complete path
    contains both; in a DAG this reduces to reachability between the two
    edges' endpoints.  The chosen edge itself is always retained, and the
    result is again a well-formed lattice (all surviving paths pass
    through ``edge``).  ``lat`` must be a checked lattice with sorted,
    distinct edges, as the builders make, or a lattice this function made;
    so is the result.

    The result keeps in its own ``__dict__``, as :func:`conflict_masks`
    keeps the masks, the first lattice of its chain of removals and the
    mask (bit i for that lattice's edge i) of the edges it kept there.  In
    a lattice whose every path passes through the edges already chosen, an
    edge survives exactly when it and each of them reach one another, so
    a removal from a removal's result ANDs that mask with the chosen
    edge's conflict mask in the first lattice: only the first lattice
    builds masks.  The chosen edge is found by bisection among the first
    lattice's edges, and the kept edges are the set bits, in its order.
    """
    first, mask = lat.__dict__.get("_cut_from") or (lat, -1)  # -1: every edge kept
    edges = first.edges
    i = bisect_left(edges, edge)
    if i == len(edges) or edges[i] != edge or not mask >> i & 1:
        raise EdgeNotInLattice(f"{edge} not in lattice")
    mask &= conflict_masks(first)[i]
    # bin() lists the bits from the highest; reversed, bit i is character i.
    kept = tuple(e for e, bit in zip(edges, bin(mask)[:1:-1]) if bit == "1")
    cut = WordLattice(source=lat.source, sink=lat.sink, edges=kept)
    cut.__dict__["_cut_from"] = (first, mask)
    return cut


def enumerate_edge_paths(lat: WordLattice, cap: int) -> list[tuple[Edge, ...]]:
    """Up to ``cap`` source-to-sink edge sequences, in canonical DFS order
    (outgoing edges explored in the lattice's sorted order).  The walk
    keeps its own stack, so a path may be longer than the recursion
    limit.  ``lat`` must be a checked lattice with sorted edges."""
    if cap < 1:
        raise LatticeError("cap must be >= 1")
    if lat.source == lat.sink:
        return [()]
    out = lat.outgoing()
    paths: list[tuple[Edge, ...]] = []
    acc: list[Edge] = []  # the path to the node of each stack entry but the first
    stack = [iter(out.get(lat.source, ()))]
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if acc:
                acc.pop()
        elif e.dst == lat.sink:
            paths.append((*acc, e))
            if len(paths) >= cap:
                break
        else:
            acc.append(e)
            stack.append(iter(out.get(e.dst, ())))
    return paths


def dump_lattice(lat: WordLattice) -> str:
    """Canonical text dump: NODE lines then EDGE lines."""
    lines = [f"NODE {n}" for n in lat.nodes]
    lines.extend(
        f"EDGE {e.src} {e.dst} {e.token} {e.origin}" for e in lat.edges
    )
    return "\n".join(lines) + "\n"
