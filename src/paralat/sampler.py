"""Grammar restriction and controlled top-down sampling over a lattice.

Restriction keeps only rules that can take part in a derivation over the
lattice vocabulary.  Its bottom-up closure is over symbols, not over
(symbol, state) contexts: a symbol survives once some context of it has a
rule whose children survive, so a latent context that derives no string
over the lattice can stay in the support, and draws that reach it end in
a dead end (filtering the supports by a closure over contexts changes the
draws; it is ROADMAP item 6).  Sampling expands the derivation frontier
breadth-first, one level at a time; every emitted word consumes a lattice
edge, conflicting paths are removed, and the supports are narrowed
accordingly, so each completed sample draws its words from a single
source-to-sink path.  Dead ends are normal outcomes: the sample fails and
its seed yields nothing.  A draw is also a dead end once its consumed edges
and pending contexts outnumber the edges of the longest path of the
lattice it started on, since each pending context still has to emit a
word on an edge of its own and every later lattice state keeps a subset
of those paths; no completed draw is lost.  A level that has a level
below it draws a binary rule, which adds a context, so at level d a draw
has at least d + 1 consumed edges and pending contexts: it runs at most
that path length of levels deep, builds no level wider than twice it,
and needs no cap on its depth.

The draws of one :func:`sample_many` call share a memo of the lattice
states they reach, keyed by edge masks (bit i for edge i of the
question's lattice).  In a valid lattice an edge survives conflict
removal for a consumed edge exactly when one of the two reaches the
other, so a state's mask is the AND of the consumed edges' compatibility
masks: a move is an AND and a lookup, and conflict removal runs once per
distinct state.  A state narrows the supports to its surviving symbols,
the symbol closure over its vocabulary (restricting a pruned grammar to
a smaller vocabulary equals restricting the full grammar to it), so a
cached state equals a recomputed one and the draws are unchanged.

The question also keeps ``live``, the closure over contexts for its whole
vocabulary.  A context outside it derives no string over the question,
nor over any later state, whose vocabulary is smaller.  So a draw that
picks one, as its root or as a child of a binary rule, is doomed, and it
ends at that pick; when no root context is live, a draw ends before it
reads a random number.  These draws end as they would have, later.

A draw reads the floats ``random.Random(seed).random()`` gives, one per
pick, from its seed's stream: the seed's generator and the list of the
floats it has given so far, kept in a bounded cache.  A draw's k-th pick
reads the k-th float of the list, which is extended from the generator
when it runs short, so a draw sees the same floats whatever ran before
it.  Seeding a generator costs far more than a float, and
:func:`sample_many` calls whose seed ranges overlap (the CLI's
neighbouring questions share all but one seed) read the same streams, so
a stream is seeded once per run rather than once per draw.  Each thread
has a cache of its own, so the cache needs no lock.

Each state also keeps, per context, the running sums of its support's
weights (the last one infinite, so a float that passes every sum picks
the last value), so a rule draw is one bisection, with the same pick as
a linear scan.

The draws of one memo also share a trie of their picks, rooted on the
question.  An inner node is the draw table of one pick, its running
sums and total, with a child slot per value; a leaf is a dead end or a
completed draw.  A draw's configuration is a function of its pick
prefix, and its k-th pick always reads the k-th float of its stream, so
a draw descends the trie by one bisection per pick, indexing its
stream's list, with no lattice state, no table lookup and no frontier.
Only a draw that reaches an empty slot walks: it starts again from the
first float of its stream, as a draw did before the trie, and adds its
picks and its leaf to the trie.  Every state is still first reached by
a walk, so conflict removal still runs once per distinct state, and the
witness-path check runs once per distinct completed draw.  A completed
leaf keeps its tokens, read off the frontier, and its consumed path.  A
draw builds no derivation: a candidate's ``derivation`` is built and
rescored from its leaf when it is first read, and kept on the leaf, so
it is built at most once per leaf, and never for a leaf whose
candidates nobody reads.
"""

from __future__ import annotations

import _random
import math
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Collection, Container, Sequence, TypeVar

from .cky import DerivationNode, DerivationTree, rescore
from .errors import EmptyIntersection
from .grammar import BinaryRhs, Context, LatentGrammar, ctx_key, rhs_key
from .lattice import Edge, WordLattice, enumerate_edge_paths, remove_conflicting

T = TypeVar("T")


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


class ParaphraseCandidate:
    """A completed draw: its tokens, derivation, consumed edges in path
    order and seed.  ``derivation`` is given built, or as the draw's leaf
    in its question's pick trie (:class:`_Draw`), which builds it on the
    first read and keeps it.  Candidates are equal when all four are."""

    __slots__ = ("tokens", "_derivation", "consumed_path", "seed")

    def __init__(
        self,
        tokens: tuple[str, ...],
        derivation: DerivationTree | _Draw,
        consumed_path: tuple[Edge, ...],
        seed: int,
    ) -> None:
        self.tokens = tokens
        self._derivation = derivation
        self.consumed_path = consumed_path
        self.seed = seed

    @property
    def derivation(self) -> DerivationTree:
        source = self._derivation
        return source if type(source) is DerivationTree else source.derivation()

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def _fields(self) -> tuple:
        return (self.tokens, self.derivation, self.consumed_path, self.seed)

    def __eq__(self, other: object) -> bool:
        if type(other) is not ParaphraseCandidate:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        # Equal candidates have equal tokens, paths and seeds, so the hash
        # leaves the derivation unbuilt.
        return hash((self.tokens, self.consumed_path, self.seed))

    def __repr__(self) -> str:
        tokens, derivation, path, seed = self._fields()
        return (f"ParaphraseCandidate(tokens={tokens!r}, derivation={derivation!r}, "
                f"consumed_path={path!r}, seed={seed!r})")


@dataclass(frozen=True)
class SampleFailure:
    # "dead-end", including a draw that needs more words than the longest
    # lattice path holds
    reason: str
    seed: int


def _close(surviving: set[T], pairs: dict[T, Collection[tuple[T, T]]]) -> frozenset[T]:
    """Bottom-up closure, over symbols or over contexts: ``surviving`` grows
    by every key of ``pairs`` with a rule (a pair of children in its
    collection) whose two children survive, until no key is added."""
    pending = {key: rules for key, rules in pairs.items() if key not in surviving}
    added = True
    while added:
        added = False
        for key in list(pending):
            if any(b in surviving and c in surviving for b, c in pending[key]):
                surviving.add(key)
                del pending[key]
                added = True
    return frozenset(surviving)


def prune_grammar(grammar: LatentGrammar, lat: WordLattice) -> PrunedGrammar:
    """Restrict ``grammar`` to rules usable over ``lat``.

    A preterminal survives when a word of it is on the lattice, an
    interminal as :func:`_close` finds it.  A context of a surviving symbol
    may still derive no string over the lattice.

    Raises EmptyIntersection when no root entry survives.
    """
    vocab = lat.vocabulary()
    lexical: dict[Context, tuple[tuple[str, float], ...]] = {}
    for ctx, table in grammar.lexical.items():
        kept = tuple((w, table[w]) for w in sorted(table) if w in vocab)
        if kept:
            lexical[ctx] = kept
    pairs: dict[str, set[tuple[str, str]]] = {}
    for (sym, _), table in grammar.binary.items():
        pairs.setdefault(sym, set()).update((rhs[0], rhs[2]) for rhs in table)
    surviving = _close({sym for sym, _ in lexical}, pairs)

    binary: dict[Context, tuple[tuple[BinaryRhs, float], ...]] = {}
    for ctx, table in grammar.binary.items():
        if ctx[0] not in surviving:
            continue
        kept = tuple(
            (rhs, table[rhs])
            for rhs in sorted(table, key=rhs_key)
            if rhs[0] in surviving and rhs[2] in surviving
        )
        if kept:
            binary[ctx] = kept

    roots = tuple(
        (ctx, grammar.roots[ctx])
        for ctx in sorted(grammar.roots, key=ctx_key)
        if ctx[0] in surviving
    )
    if not roots:
        raise EmptyIntersection("no grammar root survives over the lattice")
    return PrunedGrammar(
        grammar=grammar, roots=roots, binary=binary, lexical=lexical, symbols=surviving
    )


def _table(items: Sequence[tuple]) -> tuple[tuple, list[float], float]:
    """The draw table of a support of ``(value, weight)`` pairs: its values,
    the running sums of its weights (sequential ``+``) with the last one
    replaced by infinity, and their total (builtin ``sum``)."""
    weights = [p for _, p in items]
    cum = list(accumulate(weights))
    if cum:
        cum[-1] = math.inf
    return tuple(v for v, _ in items), cum, sum(weights)


def _pick(u: float, values: tuple, cum: list[float], total: float) -> object:
    """Weighted draw over a support given by its :func:`_table`, for the
    uniform float ``u`` in [0, 1): the first value whose running sum
    exceeds ``u * total``, else (the infinite last sum) the last."""
    return values[bisect_right(cum, u * total)]


# At least the draws of one question (``--m`` is 300 by default), so the
# streams of a question window stay cached; a stream is about 2.8 KB.
_STREAMS_KEPT = 1024


class _Streams(threading.local):
    """This thread's cached streams: seed -> (its generator, the floats
    the generator has given)."""

    def __init__(self) -> None:
        self.by_seed: dict[int, tuple[_random.Random, list[float]]] = {}


_streams = _Streams()


def _stream(seed: int) -> tuple[_random.Random, list[float]]:
    """The seed's cached stream: its generator and the floats of
    ``random.Random(seed).random()`` it has given so far.  A draw's k-th
    pick reads ``floats[k]``, first appending ``rng.random()`` when the
    list is k long.  When the cache is full, a new seed's stream replaces
    the oldest one."""
    streams = _streams.by_seed
    entry = streams.get(seed)
    if entry is None:
        if len(streams) >= _STREAMS_KEPT:
            del streams[next(iter(streams))]
        # random.Random's C base class: the same stream, seeded without
        # the Python-level __init__ and seed wrappers.
        entry = streams[seed] = (_random.Random(seed), [])
    return entry


def _topological(lat: WordLattice) -> list[int]:
    """The nodes of ``lat`` that the source reaches, in a topological order
    (no recursion, so a path of any length is fine)."""
    out = lat.outgoing()
    pending = Counter(e.dst for e in lat.edges)  # in-edges not yet walked
    order = []
    ready = [lat.source]
    while ready:
        node = ready.pop()
        order.append(node)
        for e in out.get(node, ()):
            pending[e.dst] -= 1
            if not pending[e.dst]:
                ready.append(e.dst)
    return order


def _longest_path(lat: WordLattice) -> int:
    """The edge count of the longest source-to-sink path of ``lat``."""
    inc = lat.incoming()
    dist = {lat.source: 0}
    for node in _topological(lat)[1:]:
        dist[node] = max(dist[e.src] for e in inc[node]) + 1
    return dist[lat.sink]


def _compat(lat: WordLattice) -> list[int]:
    """Per edge of ``lat``, the bitmask (bit i for ``lat.edges[i]``) of the
    edges that share a source-to-sink path with it: those whose ``dst``
    reaches its ``src``, itself, and those its ``dst`` reaches."""
    index = {e: i for i, e in enumerate(lat.edges)}
    inc, out = lat.incoming(), lat.outgoing()
    order = _topological(lat)
    into: dict[int, int] = {}  # node -> the edges whose dst reaches it
    for node in order:
        mask = 0
        for e in inc.get(node, ()):
            mask |= into[e.src] | 1 << index[e]
        into[node] = mask
    outof: dict[int, int] = {}  # node -> the edges it reaches
    for node in reversed(order):
        mask = 0
        for e in out.get(node, ()):
            mask |= outof[e.dst] | 1 << index[e]
        outof[node] = mask
    return [into[e.src] | 1 << i | outof[e.dst] for i, e in enumerate(lat.edges)]


def _live(pruned: PrunedGrammar) -> frozenset[Context]:
    """The contexts that derive some string under ``pruned``: a preterminal
    context with a word, and, closed bottom-up, an interminal context with
    a rule whose two child contexts are live."""
    return _close(
        set(pruned.lexical),
        {
            ctx: [((b, bs), (c, cs)) for (b, bs, c, cs), _ in entries]
            for ctx, entries in pruned.binary.items()
        },
    )


class _Question:
    """What the lattice states of one question's draws share: the pruned
    grammar and lattice the draws start from, the edge count of its longest
    path, each edge's index and compatibility mask (see :func:`_compat`),
    each preterminal symbol's words and each interminal's child-symbol
    pairs, the contexts that derive a string over its vocabulary
    (:func:`_live`), whether no root context does, and the one-item slot
    of the root of its draws' pick trie (see :func:`_graft`)."""

    __slots__ = ("pruned", "lattice", "longest", "index", "compat", "words", "pairs",
                 "live", "doomed", "root")

    def __init__(self, pruned: PrunedGrammar, lat: WordLattice) -> None:
        self.pruned = pruned
        self.lattice = lat
        self.longest = _longest_path(lat)
        self.index = {e: i for i, e in enumerate(lat.edges)}
        self.compat = _compat(lat)
        self.words: dict[str, set[str]] = {}
        for (sym, _), entries in pruned.lexical.items():
            self.words.setdefault(sym, set()).update(w for w, _ in entries)
        self.pairs: dict[str, set[tuple[str, str]]] = {}
        for (sym, _), entries in pruned.binary.items():
            self.pairs.setdefault(sym, set()).update((rhs[0], rhs[2]) for rhs, _ in entries)
        self.live = _live(pruned)
        self.doomed = not any(ctx in self.live for ctx, _ in pruned.roots)
        self.root: list[tuple | str | _Draw | None] = [None]

    def symbols(self, vocab: frozenset[str]) -> frozenset[str]:
        """The symbols of the pruned grammar that survive over ``vocab``."""
        return _close(
            {sym for sym, words in self.words.items() if not words.isdisjoint(vocab)},
            self.pairs,
        )


class _State:
    """One lattice state of a question: its edge mask (bit i for edge i of
    the question's lattice), its lattice, the symbols surviving over it,
    the edge mask of each of its tokens, once needed its witness path, and
    the draw tables of the contexts drawn in it (of the roots under None):
    ``(values, running sums, total, edges)``.  A binary context's values
    are pairs of child contexts, and the roots' are contexts, with None for
    one that is not live; a preterminal's are words, and ``edges`` is the
    mask of their edges (None in the other tables).
    """

    __slots__ = ("question", "mask", "lattice", "symbols", "tokens", "witness", "tables")

    def __init__(
        self, question: _Question, mask: int, lattice: WordLattice, symbols: frozenset[str]
    ) -> None:
        self.question = question
        self.mask = mask
        self.lattice = lattice
        self.symbols = symbols
        self.tokens: dict[str, int] = {}
        for e in lattice.edges:
            self.tokens[e.token] = self.tokens.get(e.token, 0) | 1 << question.index[e]
        self.witness: list[tuple[int, Edge]] | None = None
        self.tables: dict[Context | None, tuple] = {}

    def table(self, ctx: Context | None) -> tuple:
        """The draw table of ``ctx`` (of the roots for None), built on
        first use from the question's pruned grammar, kept to this state's
        symbols and tokens."""
        table = self.tables.get(ctx)
        if table is not None:
            return table
        pruned = self.question.pruned
        live = self.question.live
        symbols = self.symbols
        if ctx is None:
            table = (*_table([(c if c in live else None, p) for c, p in pruned.roots]), None)
        elif ctx[0] in pruned.grammar.preterminals:
            support = [(w, p) for w, p in pruned.lexical.get(ctx, ()) if w in self.tokens]
            edges = 0
            for w, _ in support:
                edges |= self.tokens[w]
            table = (*_table(support), edges)
        else:
            support = []
            if ctx[0] in symbols:
                for (b, bs, c, cs), p in pruned.binary.get(ctx, ()):
                    if b in symbols and c in symbols:
                        pair = ((b, bs), (c, cs))
                        support.append((pair if pair[0] in live and pair[1] in live else None, p))
            table = (*_table(support), None)
        self.tables[ctx] = table
        return table


class _Draw:
    """A completed draw, a leaf of its question's pick trie: its tokens,
    its consumed edges in witness-path order, its frontier levels (see
    :func:`_walk`), the grammar it was drawn from, and its derivation
    once a candidate's ``derivation`` has been read."""

    __slots__ = ("tokens", "path", "levels", "grammar", "tree")

    def __init__(
        self,
        tokens: tuple[str, ...],
        path: tuple[Edge, ...],
        levels: list,
        grammar: LatentGrammar,
    ) -> None:
        self.tokens = tokens
        self.path = path
        self.levels = levels
        self.grammar = grammar
        self.tree: DerivationTree | None = None

    def derivation(self) -> DerivationTree:
        """The derivation of this draw's frontier levels, scored under its
        grammar: built on the first call, then kept."""
        if self.tree is None:
            nodes: list[DerivationNode] = []
            for ctxs, words in reversed(self.levels):
                below = iter(nodes)
                nodes = [
                    DerivationNode(sym, st, w) if w is not None
                    else DerivationNode(sym, st, None, (next(below), next(below)))
                    for (sym, st), w in zip(ctxs, words)
                ]
            self.tree = DerivationTree(root=nodes[0], logprob=rescore(nodes[0], self.grammar))
        return self.tree


def _graft(root: list, picks: list[tuple[list[float], float, float]], leaf: str | _Draw) -> None:
    """Add a draw to its question's trie: ``root`` is the slot of the
    trie's root, ``picks`` the running sums, total and float of each of
    the draw's picks, and ``leaf`` where the draw ended.  An empty slot
    on the way gets an inner node, ``(running sums, total, child slots)``
    with one slot per value of the pick's table."""
    kids, i = root, 0
    for cum, total, u in picks:
        if kids[i] is None:
            kids[i] = (cum, total, [None] * len(cum))
        kids, i = kids[i][2], bisect_right(cum, u * total)
    kids[i] = leaf


def _walk(
    state: _State, states: dict[int, _State], seed: int
) -> tuple[list[tuple[list[float], float, float]], str | _Draw]:
    """The draw of ``seed`` from the root ``state`` of a memo: the running
    sums, total and float of each pick it makes, and its leaf, the
    failure reason of a dead end or the completed :class:`_Draw`."""
    question = state.question
    rng, floats = _stream(seed)
    picks: list[tuple[list[float], float, float]] = []

    def pick(values: tuple, cum: list[float], total: float) -> object:
        k = len(picks)
        if k == len(floats):
            floats.append(rng.random())
        u = floats[k]
        picks.append((cum, total, u))
        return _pick(u, values, cum, total)

    edges_of = question.lattice.edges
    compat = question.compat
    longest = question.longest
    used = 0  # the mask of the consumed edges
    n_used = 0
    # Each level of the frontier is the list of its contexts, left to
    # right; ``levels`` keeps each with the word drawn at each position
    # (None where a binary rule was drawn).  A context that is not live
    # can never complete, so a draw that picks one ends there.
    values, cum, total, _ = state.table(None)
    root = pick(values, cum, total)
    if root is None:
        return picks, "dead-end"
    level = [root]
    levels: list[tuple[list[Context], list[str | None]]] = []
    while level:
        # Each pending context yields a word, each word consumes its own
        # edge, and all of them lie on one path of the starting lattice: a
        # draw that needs more edges than its longest path cannot complete.
        if n_used + len(level) > longest:
            return picks, "dead-end"
        words: list[str | None] = []
        below: list[Context] = []
        for ctx in level:
            values, cum, total, edges = state.table(ctx)
            if not values:
                return picks, "dead-end"
            if edges is None:
                pair = pick(values, cum, total)
                if pair is None:
                    return picks, "dead-end"
                below += pair
                words.append(None)
                continue
            tokens = state.tokens
            # A preterminal's table is its support unless a word drawn
            # before in this draw has no free edge left.
            if used & edges and any(not tokens[w] & ~used for w in values):
                avail = [
                    (w, p)
                    for w, p in question.pruned.lexical[ctx]
                    if tokens.get(w, 0) & ~used
                ]
                if not avail:
                    return picks, "dead-end"
                word = pick(*_table(avail))
            else:
                word = pick(values, cum, total)
            free = tokens[word] & ~used
            bit = free & -free  # the canonically least free edge
            used |= bit
            n_used += 1
            words.append(word)
            # The edges left are those compatible with every consumed one.
            i = bit.bit_length() - 1
            mask = state.mask & compat[i]
            if mask != state.mask:
                nxt = states.get(mask)
                if nxt is None:
                    narrowed = remove_conflicting(state.lattice, edges_of[i])
                    nxt = states[mask] = _State(
                        question, mask, narrowed, question.symbols(narrowed.vocabulary())
                    )
                state = nxt
        levels.append((level, words))
        level = below

    # Order the consumed edges along a witness path: after the removals,
    # every remaining source-to-sink path passes through all of them.
    if state.witness is None:
        state.witness = [
            (question.index[e], e) for e in enumerate_edge_paths(state.lattice, 1)[0]
        ]
    path = tuple(e for i, e in state.witness if used >> i & 1)
    if len(path) != n_used:
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
    return picks, _Draw(spans[0], path, levels, question.pruned.grammar)


def sample_one(
    pruned: PrunedGrammar,
    lat: WordLattice,
    seed: int,
    states: dict[int, _State] | None = None,
    seen: Container[tuple[str, ...]] = (),
) -> ParaphraseCandidate | SampleFailure | None:
    """Draw one derivation; breadth-first, with controlled path removal.

    Every rule draw renormalizes the original parameters over the support
    that currently survives.  Each emitted word consumes one not yet
    consumed lattice edge (the canonically least); the removal step then
    drops all paths conflicting with it.  ``states`` is the memo of lattice
    states that the draws over one ``pruned``/``lat`` pair share (see
    :func:`sample_many`); without it the draw keeps a private one.  A memo
    used with another pair raises ValueError.  A completed draw whose
    tokens are in ``seen`` returns None.

    A draw first follows its floats down the memo's pick trie, its k-th
    pick reading the k-th float of its seed's stream; only a draw that
    reaches an empty slot walks (:func:`_walk`) and adds its picks to the
    trie.  The candidate builds and rescores its derivation when it is
    first read (see :class:`ParaphraseCandidate`).
    """
    if states is None:
        states = {}
    full = (1 << len(lat.edges)) - 1
    state = states.get(full)
    if state is None:
        if states:
            raise ValueError("the state memo belongs to another lattice")
        state = states[full] = _State(_Question(pruned, lat), full, lat, pruned.symbols)
    question = state.question
    if (question.lattice is not lat and question.lattice != lat) or (
        question.pruned is not pruned and question.pruned != pruned
    ):
        raise ValueError("the state memo belongs to another lattice or grammar")
    if question.doomed:
        return SampleFailure("dead-end", seed)

    node = question.root[0]
    if node is not None:
        rng, floats = _stream(seed)
        k = 0
        while type(node) is tuple:
            if k == len(floats):
                floats.append(rng.random())
            cum, total, kids = node
            node = kids[bisect_right(cum, floats[k] * total)]
            k += 1
    if node is None:
        picks, node = _walk(state, states, seed)
        _graft(question.root, picks, node)
    if type(node) is str:
        return SampleFailure(node, seed)
    if node.tokens in seen:
        return None
    return ParaphraseCandidate(node.tokens, node, node.path, seed)


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
    (by token sequence) and the input question itself are dropped.  No
    derivation is built here: each candidate builds its own when it is
    first read.
    Deterministic for a fixed seed.
    """
    if m_samples < 1:
        raise ValueError("m_samples must be >= 1")
    pruned = prune_grammar(grammar, lat)  # raises EmptyIntersection
    states: dict[int, _State] = {}
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
