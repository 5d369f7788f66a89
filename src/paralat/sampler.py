"""Grammar restriction and controlled top-down sampling over a lattice.

Restriction keeps only rules that can take part in a derivation over the
lattice vocabulary.  Its bottom-up closure is over symbols, not over
(symbol, state) contexts: a symbol survives once some context of it has a
rule whose children survive, so a latent context that derives no string
over the lattice can stay in the support, and draws that reach it end in
a dead end (filtering the supports by a closure over contexts, a
context-level intersection of grammar and lattice, changes the draws).
The supports it filters are the grammar's, sorted once per grammar.
Sampling expands the derivation frontier breadth-first, one level at a
time; every emitted word consumes a lattice edge, conflicting paths are
removed, and the supports are narrowed accordingly, so each completed
sample draws its words from a single source-to-sink path.  Dead ends are
normal outcomes: the sample fails and its seed yields nothing.  A draw is
also a dead end once its consumed edges and pending contexts outnumber
the edges of the longest path of the lattice it started on, since each
pending context still has to emit a word on an edge of its own and every
later mask keeps a subset of those paths; no completed draw is
lost.  A level that has a level below it draws a binary rule, which adds
a context, so at level d a draw has at least d + 1 consumed edges and
pending contexts: it runs at most that path length of levels deep,
builds no level wider than twice it, and needs no cap on its depth.

The draws of one :func:`sample_many` call share one question object,
which keeps what they reach keyed by edge masks (bit i for edge i of the
question's lattice).  In a valid lattice an edge survives conflict
removal for a consumed edge exactly when one of the two reaches the
other, so the mask a draw keeps is the AND of the consumed edges'
compatibility masks, which the question reads from its lattice
(:func:`~paralat.lattice.conflict_masks`, the masks conflict removal
itself uses): a move is an AND.  The question maps each mask a draw
reached to its lattice, so conflict removal runs once per distinct mask.
That removal narrows the question lattice's masks in the same way, so no
later lattice builds masks of its own.  A mask's symbols come from the
question the first time a walk reads them: the symbol closure over its
vocabulary (restricting a pruned grammar to a smaller vocabulary equals
restricting the full grammar to it) comes from a memo keyed by the
preterminal symbols with a word on one of its edges.  A mask that no
walk reads, one that a draw only passes through on its way to the next
word, closes nothing.  So a memo entry equals a recomputed one and the
draws are unchanged.

The question also keeps ``live``, the closure over contexts for its whole
vocabulary.  A context outside it derives no string over the question,
nor over any later mask, whose vocabulary is smaller.  So a draw that
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

A draw table holds the running sums of a support's weights (the last
one infinite, so a float that passes every sum picks the last value), so
a rule draw is one bisection, with the same pick as a linear scan.  The
question keeps the tables, keyed by what they depend on: the symbols of
the draw's mask for the roots and an interminal, and for a preterminal
its words' free edges, those the mask keeps that the draw has not
consumed.

The draws of one question also share a trie of their picks, rooted on
the question.  An inner node is one pick: the index of the float it
reads, the running sums and total of its draw table, a child slot per
value, the values, and the cursor of the walk just before the pick (its
mask, consumed edges and frontier; see :func:`_walk`).  A pick from a
single value reads no float and makes no node.  A leaf is a dead end or
a completed draw.  A draw's configuration is a function of its pick
prefix, and its k-th pick always reads the k-th float of its stream, so
a draw descends the trie by one bisection per node, indexing its
stream's list, with no mask, no table lookup and no frontier.
The question records the highest float index of its trie's nodes, so a
draw extends its stream's list to it once before it descends.
Only a draw that reaches an empty slot walks: it resumes from the cursor
of the node whose slot it reached, applies the value drawn there, and
adds its later picks and its leaf to the trie.  So a walk looks up
tables and moves between masks only for picks that no earlier draw of
the question made.  Every mask is still first reached by a walk, so
conflict removal still runs once per distinct mask, and a mask's
symbols are closed at most once.  A completed walk
orders its consumed edges along a path by the topological ranks of their
sources and checks each consecutive pair against the compatibility
masks, once per distinct completed draw.  A completed leaf keeps its
tokens, read off the words of the frontier levels, and its consumed
path, which with the seed are all a candidate is: no draw builds a
derivation tree, since no command reads one.
"""

from __future__ import annotations

import _random
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import Collection, Container, NamedTuple, Sequence, TypeVar

from .errors import EmptyIntersection
from .grammar import BinaryRhs, Context, LatentGrammar, ctx_key, rhs_key
from .lattice import Edge, WordLattice, adjacency, conflict_masks, remove_conflicting

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


@dataclass(slots=True, unsafe_hash=True)
class ParaphraseCandidate:
    """A completed draw: its words, consumed edges in path order and seed."""

    tokens: tuple[str, ...]
    consumed_path: tuple[Edge, ...]
    seed: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(slots=True, unsafe_hash=True)
class SampleFailure:
    # "dead-end", including a draw that needs more words than the longest
    # lattice path holds.  Not frozen: most draws build one, and a frozen
    # dataclass sets each field through object.__setattr__.
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


class _Supports(NamedTuple):
    """A grammar's canonical supports, which :func:`prune_grammar` filters:
    the roots in ``ctx_key`` order, each binary table in ``rhs_key`` order
    and each lexical table in word order, as ``(value, probability)``
    tuples; and the closures' rules: each interminal's child-symbol pairs
    and each interminal context's child-context pairs."""

    roots: tuple[tuple[Context, float], ...]
    binary: dict[Context, tuple[tuple[BinaryRhs, float], ...]]
    lexical: dict[Context, tuple[tuple[str, float], ...]]
    pairs: dict[str, frozenset[tuple[str, str]]]
    children: dict[Context, tuple[tuple[Context, Context], ...]]


def _supports(grammar: LatentGrammar) -> _Supports:
    """The grammar's :class:`_Supports`, built by its first prune.  They
    live in the grammar object's own ``__dict__``, as ``cky._index`` keeps
    the chart index, so they cannot be read for another grammar."""
    supports = grammar.__dict__.get("_sampler_supports")
    if supports is None:
        pairs: dict[str, set[tuple[str, str]]] = {}
        for (sym, _), table in grammar.binary.items():
            pairs.setdefault(sym, set()).update((rhs[0], rhs[2]) for rhs in table)
        supports = grammar.__dict__["_sampler_supports"] = _Supports(
            roots=tuple((ctx, grammar.roots[ctx]) for ctx in sorted(grammar.roots, key=ctx_key)),
            binary={
                ctx: tuple((rhs, table[rhs]) for rhs in sorted(table, key=rhs_key))
                for ctx, table in grammar.binary.items()
            },
            lexical={
                ctx: tuple((w, table[w]) for w in sorted(table))
                for ctx, table in grammar.lexical.items()
            },
            pairs={sym: frozenset(rules) for sym, rules in pairs.items()},
            children={
                ctx: tuple(((b, bs), (c, cs)) for b, bs, c, cs in table)
                for ctx, table in grammar.binary.items()
            },
        )
    return supports


def prune_grammar(grammar: LatentGrammar, lat: WordLattice) -> PrunedGrammar:
    """Restrict ``grammar`` to rules usable over ``lat``.

    A preterminal survives when a word of it is on the lattice, an
    interminal as :func:`_close` finds it.  A context of a surviving symbol
    may still derive no string over the lattice.  The supports are the
    grammar's, sorted once (:func:`_supports`), filtered by the lattice's
    vocabulary and the surviving symbols.

    Raises EmptyIntersection when no root entry survives.
    """
    supports = _supports(grammar)
    vocab = lat.vocabulary()
    lexical: dict[Context, tuple[tuple[str, float], ...]] = {}
    for ctx, entries in supports.lexical.items():
        kept = tuple(entry for entry in entries if entry[0] in vocab)
        if kept:
            lexical[ctx] = kept
    surviving = _close({sym for sym, _ in lexical}, supports.pairs)

    binary: dict[Context, tuple[tuple[BinaryRhs, float], ...]] = {}
    for ctx, entries in supports.binary.items():
        if ctx[0] in surviving:
            kept = tuple(
                entry for entry in entries
                if entry[0][0] in surviving and entry[0][2] in surviving
            )
            if kept:
                binary[ctx] = kept

    roots = tuple(entry for entry in supports.roots if entry[0][0] in surviving)
    if not roots:
        raise EmptyIntersection("no grammar root survives over the lattice")
    return PrunedGrammar(grammar=grammar, roots=roots, binary=binary, lexical=lexical)


def _table(items: Sequence[tuple]) -> tuple[tuple, list[float], float]:
    """The draw table of a support of ``(value, weight)`` pairs: its values,
    the running sums of its weights (sequential ``+``) with the last one
    replaced by infinity, and their total (builtin ``sum``)."""
    weights = [p for _, p in items]
    cum = list(accumulate(weights))
    if cum:
        cum[-1] = math.inf
    return tuple(v for v, _ in items), cum, sum(weights)


def _pick(u: float, cum: list[float], total: float) -> int:
    """Weighted draw over a support given by the running sums and total of
    its :func:`_table`, for the uniform float ``u`` in [0, 1): the index of
    the first value whose running sum exceeds ``u * total``, else (the
    infinite last sum) of the last.  The trie descent in :func:`sample_one`
    inlines it."""
    return bisect_right(cum, u * total)


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
    pick reads ``floats[k]``, first appending ``rng.random()`` until the
    list is longer than k.  When the cache is full, a new seed's stream
    replaces the oldest one."""
    streams = _streams.by_seed
    entry = streams.get(seed)
    if entry is None:
        if len(streams) >= _STREAMS_KEPT:
            del streams[next(iter(streams))]
        # random.Random's C base class: the same stream, seeded without
        # the Python-level __init__ and seed wrappers.
        entry = streams[seed] = (_random.Random(seed), [])
    return entry


def _depths(lat: WordLattice) -> dict[int, int]:
    """Per node of ``lat``, the edge count of the longest path to it from
    the source.  It grows along every edge, so it also ranks the nodes in
    a topological order."""
    order, into, _ = adjacency(lat)
    depth = {lat.source: 0}
    for node in order[1:]:
        depth[node] = max(depth[src] for _, src in into[node]) + 1
    return depth


def _live(pruned: PrunedGrammar) -> frozenset[Context]:
    """The contexts that derive some string under ``pruned``: a preterminal
    context with a word, and, closed bottom-up, an interminal context with
    a rule whose two child contexts are live.  The closure reads the full
    grammar's rules: a rule whose children are live is one that pruning
    keeps."""
    return _close(set(pruned.lexical), _supports(pruned.grammar).children)


class _Question:
    """What the draws of one question share: the pruned grammar and lattice
    they start from, the edge count of its longest path, each edge's
    compatibility mask (see :func:`~paralat.lattice.conflict_masks`) and
    the depth of its ``src`` (a topological rank, see :func:`_depths`),
    each token's edge mask, the bit set (over ``preterminals``) of the
    preterminal symbols each token is a word of, the grammar's child-symbol
    pairs of each interminal (:func:`_supports`), the symbols surviving
    over each bit set of preterminals, the lattice of each edge mask a
    draw reached and the surviving symbols of each that a walk read (see
    :meth:`closure`), the edge mask of each preterminal context's words,
    the draw tables (see :meth:`table` and :meth:`words`), the contexts
    that derive a string over its vocabulary (:func:`_live`), whether no
    root context does, the one-item slot of the root of its draws' pick
    trie (see :func:`_walk`) and the highest float index of the trie's
    nodes (-1 while it has none)."""

    __slots__ = ("pruned", "lattice", "longest", "compat", "rank", "tokens", "preterminals",
                 "kinds", "pairs", "symbols", "lattices", "closed", "word_edges", "tables",
                 "live", "doomed", "root", "reach")

    def __init__(self, pruned: PrunedGrammar, lat: WordLattice) -> None:
        self.pruned = pruned
        self.lattice = lat
        depth = _depths(lat)
        self.longest = depth[lat.sink]
        self.compat = conflict_masks(lat)
        self.rank = [depth[e.src] for e in lat.edges]
        self.tokens: dict[str, int] = {}
        for i, e in enumerate(lat.edges):
            self.tokens[e.token] = self.tokens.get(e.token, 0) | 1 << i
        self.preterminals = sorted({sym for sym, _ in pruned.lexical})
        position = {sym: i for i, sym in enumerate(self.preterminals)}
        self.kinds = dict.fromkeys(self.tokens, 0)
        for (sym, _), entries in pruned.lexical.items():
            bit = 1 << position[sym]
            for w, _ in entries:
                self.kinds[w] = self.kinds.get(w, 0) | bit
        self.pairs = _supports(pruned.grammar).pairs
        self.symbols: dict[int, frozenset[str]] = {}
        self.lattices = {(1 << len(lat.edges)) - 1: lat}
        self.closed: dict[int, frozenset[str]] = {}
        self.word_edges = {
            ctx: reduce(or_, (self.tokens[w] for w, _ in entries))
            for ctx, entries in pruned.lexical.items()
        }
        self.tables: dict[tuple[Context | None, frozenset[str] | int], tuple] = {}
        self.live = _live(pruned)
        self.doomed = not any(ctx in self.live for ctx, _ in pruned.roots)
        self.root: list[tuple | str | _Draw | None] = [None]
        self.reach = -1

    def closure(self, mask: int) -> frozenset[str]:
        """The symbols surviving over the tokens of the edge mask ``mask``,
        closed the first time a walk reads them and kept by the mask."""
        symbols = self.closed.get(mask)
        if symbols is None:
            present = 0  # the preterminals with a word on one of its edges
            kinds = self.kinds
            for token, edges in self.tokens.items():
                if edges & mask:
                    present |= kinds[token]
            symbols = self.symbols.get(present)
            if symbols is None:
                # Restricting the pruned grammar to a smaller vocabulary
                # equals restricting the full grammar to it, so the closure
                # reads the full grammar's pairs.
                symbols = self.symbols[present] = _close(
                    {sym for i, sym in enumerate(self.preterminals) if present >> i & 1},
                    self.pairs,
                )
            self.closed[mask] = symbols
        return symbols

    def words(self, ctx: Context, free: int) -> tuple[tuple, list[float], float]:
        """The draw table of the preterminal ``ctx`` in a draw whose free
        edges (kept by its mask, not yet consumed) are ``free``: its words
        with a free edge, built on first use and kept by the context and
        the free edges of its words."""
        free &= self.word_edges.get(ctx, 0)
        table = self.tables.get((ctx, free))
        if table is None:
            tokens = self.tokens
            table = self.tables[ctx, free] = _table(
                [(w, p) for w, p in self.pruned.lexical.get(ctx, ()) if tokens[w] & free]
            )
        return table

    def table(
        self, ctx: Context | None, symbols: frozenset[str]
    ) -> tuple[tuple, list[float], float]:
        """The draw table of the interminal ``ctx`` (of the roots for None)
        over the surviving symbols ``symbols``: its support in the pruned
        grammar kept to those symbols, built on first use and kept by the
        context and the symbols.  A binary context's values are pairs of
        child contexts, and the roots' are contexts, with None for one that
        is not live."""
        table = self.tables.get((ctx, symbols))
        if table is None:
            live = self.live
            if ctx is None:
                support = [(c if c in live else None, p) for c, p in self.pruned.roots]
            else:
                support = []
                if ctx[0] in symbols:
                    for (b, bs, c, cs), p in self.pruned.binary.get(ctx, ()):
                        if b in symbols and c in symbols:
                            pair = ((b, bs), (c, cs))
                            support.append(
                                (pair if pair[0] in live and pair[1] in live else None, p)
                            )
            table = self.tables[ctx, symbols] = _table(support)
        return table


@dataclass(slots=True)
class _Draw:
    """A completed draw, a leaf of its question's pick trie: its tokens and
    its consumed edges in witness-path order."""

    tokens: tuple[str, ...]
    path: tuple[Edge, ...]


def _draw(question: _Question, used: int, levels: tuple[tuple[str | None, ...], ...]) -> _Draw:
    """The completed draw whose consumed edges are the mask ``used`` and
    whose frontier levels drew the words ``levels`` (None where a binary
    rule was drawn)."""
    compat = question.compat
    # Order the consumed edges by the depths of their sources and check
    # that each neighbouring pair shares a path, by both edges' masks: in
    # a DAG, a chain of edges that each reach the next lies on one path.
    # Narrowing by the same masks keeps this true; the check fails on
    # masks that do not say so.
    order = []
    while used:
        bit = used & -used
        order.append(bit.bit_length() - 1)
        used ^= bit
    order.sort(key=question.rank.__getitem__)
    for a, b in zip(order, order[1:]):
        if not compat[a] >> b & compat[b] >> a & 1:
            raise AssertionError("consumed edges do not lie on one path")
    edges = question.lattice.edges
    path = tuple(edges[i] for i in order)

    # Each level's yields, bottom-up: a binary node's is its children's,
    # which are the next two of the level below.
    spans: list[tuple[str, ...]] = []
    for words in reversed(levels):
        below_spans = iter(spans)
        spans = [
            (w,) if w is not None else next(below_spans) + next(below_spans)
            for w in words
        ]
    return _Draw(spans[0], path)


# The value a walk from the root of its question's trie starts with: it has
# made no pick yet, so it draws before it applies anything.
_NO_PICK = object()


def _walk(question: _Question, kids: list, j: int, cursor: tuple, value: object,
          seed: int) -> str | _Draw:
    """Walk the draw of ``seed`` on from ``cursor``, the walk state just
    before one of its picks, applying ``value``, the value drawn there
    (:data:`_NO_PICK` for the question's first draw, whose cursor is the
    start).  ``kids[j]`` is the empty trie slot the draw reached.  Each
    later pick from more than one value gets a node in the slot the
    previous pick leads to: ``(float index, running sums, total, child
    slots, values, cursor)``.  A cursor is ``(pick index, edge mask,
    consumed edges, level, position in it, contexts drawn for the level
    below, words of the level, finished levels)``; the root pick's level
    is None.  It keeps the mask, which the question's memos map to a
    lattice and symbols: a trie that held objects pointing back to the
    question, which holds the trie, would be freed only by the cycle
    collector.  The walk's leaf, the failure reason of a dead end or the
    completed :class:`_Draw`, goes in the last slot and is returned."""
    k, mask, used, level, pos, below, words, levels = cursor
    below, words = list(below), list(words)
    rng, floats = _stream(seed)
    tokens = question.tokens
    compat = question.compat
    longest = question.longest
    lattices = question.lattices
    preterminals = question.pruned.grammar.preterminals
    free = mask & ~used  # the mask's edges not yet consumed
    # Each level of the frontier is the tuple of its contexts, left to
    # right; ``levels`` keeps the word drawn at each position of each
    # (None where a binary rule was drawn).  A context that is not live
    # can never complete, so a draw that picks one ends there.
    leaf: str | _Draw = "dead-end"
    while True:
        if value is not _NO_PICK:
            if value is None:
                break
            if level is None:
                level = (value,)
            else:
                if type(value) is str:
                    edges = tokens[value] & free
                    bit = edges & -edges  # the canonically least free edge
                    used |= bit
                    # The edges left are those compatible with every
                    # consumed one.
                    i = bit.bit_length() - 1
                    nxt = mask & compat[i]
                    if nxt != mask:
                        if nxt not in lattices:
                            lattices[nxt] = remove_conflicting(
                                lattices[mask], question.lattice.edges[i]
                            )
                        mask = nxt
                    free = mask & ~used
                    words.append(value)
                else:
                    below += value
                    words.append(None)
                pos += 1
                if pos == len(level):
                    levels += (tuple(words),)
                    if not below:
                        leaf = _draw(question, used, levels)
                        break
                    level, pos, below, words = tuple(below), 0, [], []
            # Each pending context yields a word, each word consumes its
            # own edge, and all of them lie on one path of the starting
            # lattice: a draw that needs more edges than its longest path
            # cannot complete.
            if not pos and used.bit_count() + len(level) > longest:
                break
            k += 1
        if level is None:
            values, cum, total = question.table(None, question.closure(mask))
        else:
            ctx = level[pos]
            values, cum, total = (
                question.words(ctx, free) if ctx[0] in preterminals
                else question.table(ctx, question.closure(mask))
            )
            if not values:
                break
        if len(values) == 1:
            value = values[0]
            continue
        slots = [None] * len(values)
        kids[j] = (k, cum, total, slots, values,
                   (k, mask, used, level, pos, tuple(below), tuple(words), levels))
        if k > question.reach:
            question.reach = k
        while k >= len(floats):
            floats.append(rng.random())
        kids, j = slots, _pick(floats[k], cum, total)
        value = values[j]
    kids[j] = leaf
    return leaf


def sample_one(
    question: _Question,
    seed: int,
    seen: Container[tuple[str, ...]] = (),
) -> ParaphraseCandidate | SampleFailure | None:
    """Draw one paraphrase; breadth-first, with controlled path removal.

    Every rule draw renormalizes the original parameters over the support
    that currently survives.  Each emitted word consumes one not yet
    consumed lattice edge (the canonically least); the removal step then
    drops all paths conflicting with it.  ``question`` holds the pruned
    grammar and lattice and the memos that the draws over them share (see
    :func:`sample_many`).  A completed draw whose tokens are in ``seen``
    returns None.

    A draw first extends the seed's stream to the highest float index of
    the question's pick trie, then follows its floats down the trie, each
    node reading the float of its pick's index in the stream; only a
    draw that reaches an empty slot walks (:func:`_walk`), from the cursor
    of the node whose slot it reached, and adds its later picks to the
    trie.
    """
    if question.doomed:
        return SampleFailure("dead-end", seed)

    node = question.root[0]
    if node is None:  # the question's first draw
        full = (1 << len(question.lattice.edges)) - 1
        node = _walk(question, question.root, 0, (0, full, 0, None, 0, (), (), ()), _NO_PICK,
                     seed)
    elif type(node) is tuple:
        # The seed's cached stream, or a new one from _stream.
        rng, floats = _streams.by_seed.get(seed) or _stream(seed)
        if len(floats) <= question.reach:
            floats.extend([rng.random() for _ in range(len(floats), question.reach + 1)])
        while type(node) is tuple:
            k, cum, total, kids, values, cursor = node
            j = bisect_right(cum, floats[k] * total)
            node = kids[j]
        if node is None:
            node = _walk(question, kids, j, cursor, values[j], seed)
    if type(node) is str:
        return SampleFailure(node, seed)
    if node.tokens in seen:
        return None
    return ParaphraseCandidate(node.tokens, node.path, seed)


def sample_many(
    question: Sequence[str],
    grammar: LatentGrammar,
    lat: WordLattice,
    m_samples: int,
    seed: int,
) -> list[ParaphraseCandidate]:
    """Collect candidates from ``m_samples`` independent draws.

    Seeds run from ``seed`` upward, each starting from the full lattice;
    the draws share one :class:`_Question`, built here, with its memos
    and pick trie.  Duplicates (by token sequence) and the input question
    itself are dropped.  Deterministic for a fixed seed.
    """
    if m_samples < 1:
        raise ValueError("m_samples must be >= 1")
    pruned = prune_grammar(grammar, lat)  # raises EmptyIntersection
    shared = _Question(pruned, lat)
    question_tokens = tuple(question)
    out: list[ParaphraseCandidate] = []
    seen: set[tuple[str, ...]] = {question_tokens}
    for s in range(seed, seed + m_samples):
        result = sample_one(shared, s, seen)
        if type(result) is ParaphraseCandidate:
            seen.add(result.tokens)
            out.append(result)
    return out
