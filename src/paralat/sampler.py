"""Grammar restriction and controlled top-down sampling over a lattice.

Restriction keeps only rules that can take part in a derivation over the
lattice vocabulary.  Its bottom-up closure is over symbols, not over
(symbol, state) contexts: a symbol survives once some context of it has a
rule whose children survive, so a latent context that derives no string
over the lattice can stay in the support, and draws that reach it end in
a dead end (a closure over contexts is ROADMAP item 3).  Sampling expands
the derivation frontier breadth-first, one level at a time; every emitted
word consumes a lattice edge, conflicting paths are removed, and the
restricted grammar is narrowed accordingly, so each completed sample
draws its words from a single source-to-sink path.  Dead ends are normal
outcomes: the sample fails and its seed is burned.  A draw is also a dead
end once its consumed edges and pending contexts outnumber the edges of
the longest path of the lattice it started on, since each pending context
still has to emit a word on an edge of its own and every later lattice
state keeps a subset of those paths; no completed draw is lost.  A level
that has a level below it draws a binary rule, which adds a context, so
at level d a draw has at least d + 1 consumed edges and pending contexts:
it runs at most that path length of levels deep, builds no level wider
than twice it, and needs no cap on its depth.

Conflict removal and narrowing run once per distinct lattice state per
question: the draws of one :func:`sample_many` call share a memo of the
states they reach.  Narrowing depends only on the surviving vocabulary
(restricting a pruned grammar to a smaller vocabulary equals restricting
the full grammar to it), so a cached state equals a recomputed one and
the draws are unchanged.  Each state also keeps, per context, the running
sums of its support's weights, so a rule draw is one bisection, with the
same pick as a linear scan.  A completed draw's tokens are read off the
frontier before its derivation is built, and a draw whose tokens
:func:`sample_many` already has builds and rescores nothing.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Container, Sequence

from .cky import DerivationNode, DerivationTree, rescore
from .errors import EmptyIntersection
from .grammar import BinaryRhs, Context, LatentGrammar, ctx_key, rhs_key
from .lattice import Edge, WordLattice, enumerate_edge_paths, remove_conflicting


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
    # "dead-end", including a draw that needs more words than the longest
    # lattice path holds
    reason: str
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

    # Bottom-up closure over symbols: an interminal survives once some
    # rule of some context of it has both children surviving.  A context
    # of a surviving symbol may still derive no string over the lattice.
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


def _table(items: Sequence[tuple]) -> tuple[tuple, list[float], float]:
    """The draw table of a support of ``(value, weight)`` pairs: its values,
    the running sums of its weights (sequential ``+``) and their total
    (builtin ``sum``)."""
    weights = [p for _, p in items]
    return tuple(v for v, _ in items), list(accumulate(weights)), sum(weights)


def _pick(rng: random.Random, values: tuple, cum: list[float], total: float) -> object:
    """Weighted draw over a support given by its :func:`_table`: the first
    value whose running sum exceeds the point drawn, else the last."""
    i = bisect_right(cum, rng.random() * total)
    return values[i] if i < len(values) else values[-1]


def _longest_path(lat: WordLattice) -> int:
    """The edge count of the longest source-to-sink path of ``lat``, with
    the edges relaxed in topological order (no recursion, so a path of any
    length is fine)."""
    out = lat.outgoing()
    pending = Counter(e.dst for e in lat.edges)  # in-edges not yet relaxed
    dist = {lat.source: 0}
    ready = [lat.source]
    while ready:
        node = ready.pop()
        for e in out.get(node, ()):
            dist[e.dst] = max(dist.get(e.dst, 0), dist[node] + 1)
            pending[e.dst] -= 1
            if not pending[e.dst]:
                ready.append(e.dst)
    return dist[lat.sink]


class _State:
    """One lattice state of a question: the lattice, the grammar narrowed
    to it, its edges by token (in canonical order), its transitions (the
    consumed edge to the next state), once needed its witness path and
    (in a state that draws start in) the edge count of its longest path,
    and the draw tables of the contexts drawn in it (of the roots under
    None): ``(values, running sums, total, words)``.  A binary context's
    values are pairs of child contexts; a preterminal's are words, and
    ``words`` is their set (None in the other tables).
    """

    __slots__ = ("lattice", "pruned", "by_token", "next", "witness", "longest", "tables")

    def __init__(self, lattice: WordLattice, pruned: PrunedGrammar) -> None:
        self.lattice = lattice
        self.pruned = pruned
        self.by_token: dict[str, list[Edge]] = {}
        for e in lattice.edges:
            self.by_token.setdefault(e.token, []).append(e)
        self.next: dict[Edge, _State] = {}
        self.witness: tuple[Edge, ...] | None = None
        self.longest: int | None = None
        self.tables: dict[Context | None, tuple] = {}

    def table(self, ctx: Context | None) -> tuple:
        """The draw table of ``ctx`` (of the roots for None), built on
        first use."""
        table = self.tables.get(ctx)
        if table is not None:
            return table
        pruned = self.pruned
        if ctx is None:
            table = (*_table(pruned.roots), None)
        elif ctx[0] in pruned.grammar.preterminals:
            support = [
                (w, p) for w, p in pruned.lexical.get(ctx, ()) if w in self.by_token
            ]
            table = (*_table(support), frozenset(w for w, _ in support))
        else:
            table = (*_table([
                (((rhs[0], rhs[1]), (rhs[2], rhs[3])), p)
                for rhs, p in pruned.binary.get(ctx, ())
            ]), None)
        self.tables[ctx] = table
        return table


def sample_one(
    pruned: PrunedGrammar,
    lat: WordLattice,
    seed: int,
    states: dict[tuple[Edge, ...], _State] | None = None,
    seen: Container[tuple[str, ...]] = (),
) -> ParaphraseCandidate | SampleFailure | None:
    """Draw one derivation; breadth-first, with controlled path removal.

    Every rule draw renormalizes the original parameters over the support
    that currently survives.  Each emitted word consumes one not yet
    consumed lattice edge (the canonically least); the removal step then
    drops all paths conflicting with it.  ``states`` is the memo of lattice
    states that the draws over one ``pruned``/``lat`` pair share (see
    :func:`sample_many`); without it the draw keeps a private one.  A
    completed draw whose tokens are in ``seen`` returns None without
    building its derivation.
    """
    rng = random.Random(seed)
    if states is None:
        states = {}
    state = states.get(lat.edges)
    if state is None:
        state = states[lat.edges] = _State(lat, pruned)
    if state.longest is None:
        state.longest = _longest_path(lat)
    longest = state.longest
    consumed: set[Edge] = set()
    spent: set[str] = set()  # the tokens of the consumed edges

    if not pruned.roots:
        return SampleFailure("dead-end", seed)
    # Each level of the frontier is the list of its contexts, left to
    # right; ``levels`` keeps each with the word drawn at each position
    # (None where a binary rule was drawn).
    values, cum, total, _ = state.table(None)
    level = [_pick(rng, values, cum, total)]
    levels: list[tuple[list[Context], list[str | None]]] = []
    while level:
        # Each pending context yields a word, each word consumes its own
        # edge, and all of them lie on one path of the starting lattice: a
        # draw that needs more edges than its longest path cannot complete.
        if len(consumed) + len(level) > longest:
            return SampleFailure("dead-end", seed)
        words: list[str | None] = []
        below: list[Context] = []
        for ctx in level:
            values, cum, total, vocab = state.table(ctx)
            if not values:
                return SampleFailure("dead-end", seed)
            # A preterminal's table (the one with a word set) is its support
            # unless a word drawn before in this draw has no free edge left.
            if vocab is not None and not spent.isdisjoint(vocab) and any(
                consumed.issuperset(state.by_token[w]) for w in spent & vocab
            ):
                avail = [
                    (w, p)
                    for w, p in state.pruned.lexical.get(ctx, ())
                    if not consumed.issuperset(state.by_token.get(w, ()))
                ]
                if not avail:
                    return SampleFailure("dead-end", seed)
                word = _pick(rng, *_table(avail))
            else:
                word = _pick(rng, values, cum, total)
                if vocab is None:
                    below += word  # the pair of child contexts
                    words.append(None)
                    continue
            if word in spent:
                edge = next(e for e in state.by_token[word] if e not in consumed)
            else:
                edge = state.by_token[word][0]
                spent.add(word)
            consumed.add(edge)
            words.append(word)
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
        levels.append((level, words))
        level = below

    # Order the consumed edges along a witness path: after the removals,
    # every remaining source-to-sink path passes through all of them.
    if state.witness is None:
        state.witness = enumerate_edge_paths(state.lattice, 1)[0]
    path = tuple(e for e in state.witness if e in consumed)
    if len(path) != len(consumed):
        raise AssertionError("consumed edges do not lie on one path")

    # Each level's yields, bottom-up: a binary node's is its children's,
    # which are the next two of the level below.
    spans: list[tuple[str, ...]] = []
    for _ctxs, words in reversed(levels):
        below_spans = iter(spans)
        spans = [
            (w,) if w is not None else next(below_spans) + next(below_spans)
            for w in words
        ]
    tokens = spans[0]
    if tokens in seen:
        return None
    nodes: list[DerivationNode] = []
    for ctxs, words in reversed(levels):
        below_nodes = iter(nodes)
        nodes = [
            DerivationNode(sym, st, w) if w is not None
            else DerivationNode(sym, st, None, (next(below_nodes), next(below_nodes)))
            for (sym, st), w in zip(ctxs, words)
        ]
    root = nodes[0]
    return ParaphraseCandidate(
        tokens=tokens,
        derivation=DerivationTree(root=root, logprob=rescore(root, pruned.grammar)),
        consumed_path=path,
        seed=seed,
    )


def sample_many(
    question: Sequence[str],
    grammar: LatentGrammar,
    lat: WordLattice,
    m_samples: int,
    seed: int,
) -> list[ParaphraseCandidate]:
    """Collect candidates from ``m_samples`` independent draws.

    Seeds run from ``seed`` upward, each starting from the full lattice;
    the draws share one memo of the lattice states they reach.  Duplicates
    (by token sequence) and the input question itself are dropped before
    their derivations are built.
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
        result = sample_one(pruned, lat, s, states=states, seen=seen)
        if result is None or isinstance(result, SampleFailure):
            continue
        seen.add(result.tokens)
        out.append(result)
    return out
