"""Viterbi CKY over a latent grammar.

The chart is indexed by (span, symbol, joint state); two-layer grammars
parse over the full joint state space, which stays small because only
observed (symbol, state) contexts carry rules.  Unknown words can be
admitted through a tiny floor probability attached to every preterminal
context; that floor exists only for parsing and never for generation.

The chart index (the rule tables re-keyed for chart filling, in log
space) depends only on the grammar, so it is built once per grammar
object, by its first parse, and kept on it; grammars are not changed
after they are built.

The yield of a derivation and its score under a grammar are read only by
tests; ``derivation_yield`` and ``rescore`` are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ParseFailure
from .grammar import Context, LatentGrammar, StateLabel, ctx_key, format_state

UNK_LOG_FLOOR = math.log(1e-6)


@dataclass(frozen=True)
class DerivationNode:
    symbol: str
    state: StateLabel
    word: str | None = None
    children: tuple["DerivationNode", ...] = ()

    @property
    def is_lexical(self) -> bool:
        return self.word is not None


@dataclass(frozen=True)
class DerivationTree:
    root: DerivationNode
    logprob: float


def lexical_leaves(node: DerivationNode) -> Iterator[DerivationNode]:
    if node.is_lexical:
        yield node
    for child in node.children:
        yield from lexical_leaves(child)


def render_derivation(node: DerivationNode) -> str:
    """Bracketed derivation with "label-h1[-h2]" node names."""
    name = f"{node.symbol}-{format_state(node.state).replace(':', '-')}"
    if node.is_lexical:
        return f"({name} {node.word})"
    inner = " ".join(render_derivation(c) for c in node.children)
    return f"({name} {inner})"


class _Index:
    """Grammar tables rearranged for chart filling.

    Entry order does not matter: every chart update compares against an
    explicit tie key, so the chart is the same for any iteration order.
    """

    def __init__(self, grammar: LatentGrammar) -> None:
        self.lex_by_word: dict[str, list[tuple[Context, float]]] = {}
        for ctx, table in grammar.lexical.items():
            for word, prob in table.items():
                self.lex_by_word.setdefault(word, []).append((ctx, math.log(prob)))
        self.by_children: dict[tuple[Context, Context], list[tuple[Context, float]]] = {}
        for ctx, table in grammar.binary.items():
            for (b, sb, c, sc), prob in table.items():
                key = ((b, sb), (c, sc))
                self.by_children.setdefault(key, []).append((ctx, math.log(prob)))


def _index(grammar: LatentGrammar) -> _Index:
    """The grammar's chart index, built by its first parse.

    The index lives in the grammar object's own ``__dict__``, as a
    ``cached_property`` value would, so it cannot be read for another
    grammar.  Two threads may both build it; either result is the same.
    """
    index = grammar.__dict__.get("_cky_index")
    if index is None:
        index = grammar.__dict__["_cky_index"] = _Index(grammar)
    return index


def cky_viterbi(
    tokens: Sequence[str],
    grammar: LatentGrammar,
) -> DerivationTree:
    """Maximum-probability derivation of ``tokens``.

    Ties are broken lexicographically on (symbol, state indices, split
    point) so parsing is deterministic.  Raises ParseFailure when no
    derivation covers the input.
    """
    if not tokens:
        raise ParseFailure("empty input")
    index = _index(grammar)
    n = len(tokens)

    # chart[(i, j)][ctx] = (logp, tiebreak, backpointer)
    # backpointer: ("lex", word) or ("bin", split, left_ctx, right_ctx)
    chart: dict[tuple[int, int], dict[Context, tuple[float, tuple, tuple]]] = {}

    for i, token in enumerate(tokens):
        cell: dict[Context, tuple[float, tuple, tuple]] = {}
        entries = index.lex_by_word.get(token)
        if entries is None:
            entries = [(ctx, UNK_LOG_FLOOR) for ctx in grammar.lexical]
        for ctx, logp in entries:
            cell[ctx] = (logp, (), ("lex", token))
        if not cell:
            raise ParseFailure(f"no lexical rule covers {token!r}")
        chart[(i, i + 1)] = cell

    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            cell = {}
            for split in range(i + 1, j):
                left_cell = chart.get((i, split))
                right_cell = chart.get((split, j))
                if not left_cell or not right_cell:
                    continue
                for lctx, (lp, _, _) in left_cell.items():
                    for rctx, (rp, _, _) in right_cell.items():
                        rules = index.by_children.get((lctx, rctx))
                        if not rules:
                            continue
                        tie = (ctx_key(lctx), ctx_key(rctx), split)
                        for ctx, rule_logp in rules:
                            cand = rule_logp + lp + rp
                            prev = cell.get(ctx)
                            if (
                                prev is None
                                or cand > prev[0]
                                or (cand == prev[0] and tie < prev[1])
                            ):
                                cell[ctx] = (cand, tie, ("bin", split, lctx, rctx))
            if cell:
                chart[(i, j)] = cell

    full = chart.get((0, n), {})
    best: tuple[float, tuple, Context] | None = None
    for ctx, (logp, _, _) in full.items():
        prior = grammar.roots.get(ctx)
        if prior is None:
            continue
        total = math.log(prior) + logp
        key = ctx_key(ctx)
        if best is None or total > best[0] or (total == best[0] and key < best[1]):
            best = (total, key, ctx)
    if best is None:
        raise ParseFailure(f"no derivation covers {' '.join(tokens)!r}")

    def build(span: tuple[int, int], ctx: Context) -> DerivationNode:
        _, _, back = chart[span][ctx]
        if back[0] == "lex":
            return DerivationNode(symbol=ctx[0], state=ctx[1], word=back[1])
        _, split, lctx, rctx = back
        return DerivationNode(
            symbol=ctx[0],
            state=ctx[1],
            children=(
                build((span[0], split), lctx),
                build((split, span[1]), rctx),
            ),
        )

    return DerivationTree(root=build((0, n), best[2]), logprob=best[0])
