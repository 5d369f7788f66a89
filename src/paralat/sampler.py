"""Grammar restriction and controlled top-down sampling over a lattice.

Restriction keeps only rules that can take part in a derivation over the
lattice vocabulary (bottom-up closure, so every retained interminal still
derives some string).  Sampling expands the derivation frontier
breadth-first; every emitted word consumes a lattice edge, conflicting
paths are removed, and the restricted grammar is narrowed accordingly, so
each completed sample draws its words from a single source-to-sink path.
Dead ends are normal outcomes: the sample fails and its seed is burned.

Conflict removal and narrowing run once per distinct lattice state per
question: the draws of one :func:`sample_many` call share a memo of the
states they reach.  Narrowing depends only on the surviving vocabulary
(restricting a pruned grammar to a smaller vocabulary equals restricting
the full grammar to it), so a cached state equals a recomputed one and
the draws are unchanged.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .cky import DerivationNode, DerivationTree, derivation_yield, rescore
from .errors import EmptyIntersection
from .grammar import BinaryRhs, Context, LatentGrammar, StateLabel, ctx_key, rhs_key
from .lattice import Edge, WordLattice, enumerate_edge_paths, remove_conflicting

DEPTH_CAP = 32


@dataclass(frozen=True)
class PrunedGrammar:
    """A grammar restricted to a lattice vocabulary.

    Support lists are sorted canonically; sampling renormalizes over them
    on the fly, so the stored probabilities are the original parameters.
    """

    grammar: LatentGrammar
    roots: tuple[tuple[Context, float], ...]
    binary: dict[Context, tuple[tuple[BinaryRhs, float], ...]]
    lexical: dict[Context, tuple[tuple[str, float], ...]]
    symbols: frozenset[str]


@dataclass(frozen=True)
class ParaphraseCandidate:
    tokens: tuple[str, ...]
    derivation: DerivationTree
    consumed_path: tuple[Edge, ...]
    seed: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class SampleFailure:
    reason: str  # "dead-end" or "depth-cap"
    seed: int


def _restrict(
    grammar: LatentGrammar,
    lexical_in: dict[Context, Sequence[tuple[str, float]]],
    binary_in: dict[Context, Sequence[tuple[BinaryRhs, float]]],
    roots_in: Sequence[tuple[Context, float]],
    vocab: frozenset[str],
) -> PrunedGrammar:
    lexical: dict[Context, tuple[tuple[str, float], ...]] = {}
    surviving: set[str] = set()
    for ctx, entries in lexical_in.items():
        kept = tuple(e for e in entries if e[0] in vocab)
        if kept:
            lexical[ctx] = kept
            surviving.add(ctx[0])

    # Bottom-up closure: an interminal survives once some rule has both
    # children surviving, which also guarantees it derives a string.
    pending = dict(binary_in)
    while True:
        added = False
        for ctx in list(pending):
            if ctx[0] in surviving:
                continue
            if any(
                rhs[0] in surviving and rhs[2] in surviving
                for rhs, _ in pending[ctx]
            ):
                surviving.add(ctx[0])
                added = True
        if not added:
            break

    binary: dict[Context, tuple[tuple[BinaryRhs, float], ...]] = {}
    for ctx, entries in binary_in.items():
        if ctx[0] not in surviving:
            continue
        kept = tuple(
            e for e in entries if e[0][0] in surviving and e[0][2] in surviving
        )
        if kept:
            binary[ctx] = kept

    roots = tuple((ctx, p) for ctx, p in roots_in if ctx[0] in surviving)
    return PrunedGrammar(
        grammar=grammar,
        roots=roots,
        binary=binary,
        lexical=lexical,
        symbols=frozenset(surviving),
    )


def prune_grammar(grammar: LatentGrammar, lat: WordLattice) -> PrunedGrammar:
    """Restrict ``grammar`` to rules usable over ``lat``.

    Raises EmptyIntersection when no root entry survives.
    """
    lexical_in = {
        ctx: sorted(table.items()) for ctx, table in grammar.lexical.items()
    }
    binary_in = {
        ctx: [(rhs, table[rhs]) for rhs in sorted(table, key=rhs_key)]
        for ctx, table in grammar.binary.items()
    }
    roots_in = [(ctx, grammar.roots[ctx]) for ctx in sorted(grammar.roots, key=ctx_key)]
    pruned = _restrict(grammar, lexical_in, binary_in, roots_in, lat.vocabulary())
    if not pruned.roots:
        raise EmptyIntersection("no grammar root survives over the lattice")
    return pruned


def _narrow(pruned: PrunedGrammar, vocab: frozenset[str]) -> PrunedGrammar:
    """Re-restrict an already pruned grammar to a smaller vocabulary."""
    return _restrict(pruned.grammar, pruned.lexical, pruned.binary, pruned.roots, vocab)


def _draw(rng: random.Random, items: Sequence[tuple]) -> object:
    """Weighted draw proportional to the second tuple element."""
    total = sum(p for _, p in items)
    r = rng.random() * total
    acc = 0.0
    for value, p in items:
        acc += p
        if r < acc:
            return value
    return items[-1][0]


class _Node:
    __slots__ = ("symbol", "state", "word", "children")

    def __init__(self, symbol: str, state: StateLabel) -> None:
        self.symbol = symbol
        self.state = state
        self.word: str | None = None
        self.children: tuple[_Node, ...] = ()

    def freeze(self) -> DerivationNode:
        return DerivationNode(
            symbol=self.symbol,
            state=self.state,
            word=self.word,
            children=tuple(c.freeze() for c in self.children),
        )


class _State:
    """One lattice state of a question: the lattice, the grammar narrowed
    to it, its edges by token (in canonical order), its transitions (the
    consumed edge to the next state) and, once needed, its witness path."""

    __slots__ = ("lattice", "pruned", "by_token", "next", "witness")

    def __init__(self, lattice: WordLattice, pruned: PrunedGrammar) -> None:
        self.lattice = lattice
        self.pruned = pruned
        self.by_token: dict[str, list[Edge]] = {}
        for e in lattice.edges:
            self.by_token.setdefault(e.token, []).append(e)
        self.next: dict[Edge, _State] = {}
        self.witness: tuple[Edge, ...] | None = None


def sample_one(
    pruned: PrunedGrammar,
    lat: WordLattice,
    seed: int,
    depth_cap: int = DEPTH_CAP,
    states: dict[tuple[Edge, ...], _State] | None = None,
) -> ParaphraseCandidate | SampleFailure:
    """Draw one derivation; breadth-first, with controlled path removal.

    Every rule draw renormalizes the original parameters over the support
    that currently survives.  Each emitted word consumes one not yet
    consumed lattice edge (the canonically least); the removal step then
    drops all paths conflicting with it.  ``states`` is the memo of lattice
    states that the draws over one ``pruned``/``lat`` pair share (see
    :func:`sample_many`); without it the draw keeps a private one.
    """
    rng = random.Random(seed)
    grammar = pruned.grammar
    if states is None:
        states = {}
    state = states.get(lat.edges)
    if state is None:
        state = states[lat.edges] = _State(lat, pruned)
    consumed: list[Edge] = []
    consumed_set: set[Edge] = set()

    if not pruned.roots:
        return SampleFailure("dead-end", seed)
    root_ctx = _draw(rng, pruned.roots)
    root = _Node(root_ctx[0], root_ctx[1])
    queue: deque[tuple[_Node, int]] = deque([(root, 0)])

    while queue:
        node, depth = queue.popleft()
        if depth > depth_cap:
            return SampleFailure("depth-cap", seed)
        ctx = (node.symbol, node.state)
        if node.symbol in grammar.preterminals:
            avail = [
                (w, p)
                for w, p in state.pruned.lexical.get(ctx, ())
                if not consumed_set.issuperset(state.by_token.get(w, ()))
            ]
            if not avail:
                return SampleFailure("dead-end", seed)
            word = _draw(rng, avail)
            edge = next(e for e in state.by_token[word] if e not in consumed_set)
            consumed.append(edge)
            consumed_set.add(edge)
            node.word = word
            nxt = state.next.get(edge)
            if nxt is None:
                narrowed = remove_conflicting(state.lattice, edge)
                if len(narrowed.edges) == len(state.lattice.edges):
                    nxt = state
                else:
                    nxt = states.get(narrowed.edges)
                    if nxt is None:
                        nxt = states[narrowed.edges] = _State(
                            narrowed, _narrow(state.pruned, narrowed.vocabulary())
                        )
                state.next[edge] = nxt
            state = nxt
        else:
            support = state.pruned.binary.get(ctx, ())
            if not support:
                return SampleFailure("dead-end", seed)
            rhs = _draw(rng, support)
            left = _Node(rhs[0], rhs[1])
            right = _Node(rhs[2], rhs[3])
            node.children = (left, right)
            queue.append((left, depth + 1))
            queue.append((right, depth + 1))

    frozen = root.freeze()
    tokens = derivation_yield(frozen)
    # Order the consumed edges along a witness path: after the removals,
    # every remaining source-to-sink path passes through all of them.
    if state.witness is None:
        state.witness = enumerate_edge_paths(state.lattice, 1)[0]
    path = tuple(e for e in state.witness if e in consumed_set)
    if len(path) != len(consumed):
        raise AssertionError("consumed edges do not lie on one path")
    return ParaphraseCandidate(
        tokens=tokens,
        derivation=DerivationTree(root=frozen, logprob=rescore(frozen, grammar)),
        consumed_path=path,
        seed=seed,
    )


def sample_many(
    question: Sequence[str],
    grammar: LatentGrammar,
    lat: WordLattice,
    m_samples: int,
    seed: int,
    depth_cap: int = DEPTH_CAP,
) -> list[ParaphraseCandidate]:
    """Collect candidates from ``m_samples`` independent draws.

    Seeds run from ``seed`` upward, each starting from the full lattice;
    the draws share one memo of the lattice states they reach.  Duplicates
    (by token sequence) and the input question itself are dropped.
    Deterministic for a fixed seed.
    """
    if m_samples < 1:
        raise ValueError("m_samples must be >= 1")
    pruned = prune_grammar(grammar, lat)  # raises EmptyIntersection
    states: dict[tuple[Edge, ...], _State] = {}
    question_tokens = tuple(question)
    out: list[ParaphraseCandidate] = []
    seen: set[tuple[str, ...]] = {question_tokens}
    for s in range(seed, seed + m_samples):
        result = sample_one(pruned, lat, s, depth_cap=depth_cap, states=states)
        if isinstance(result, SampleFailure):
            continue
        if result.tokens in seen:
            continue
        seen.add(result.tokens)
        out.append(result)
    return out
