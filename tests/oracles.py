"""Independent oracles for the test suite.

Everything here is deliberately brute force and shares no code with the
implementation paths it checks: derivations are enumerated one by one
(no dynamic programming), path co-occurrence is decided by enumerating
complete paths, grammar languages are unrolled top-down, and each tree
node's context is looked up from the root on its own.  The one exception
is ``reference_sample_one``, the sampler's draw before lattice states were
memoized: it shares the conflict removal and the path enumeration, keeps
its own grammar narrowing (``reference_narrow``), conflict removal
(``reference_remove_conflicting``), linear-scan weighted draw
(``reference_draw``) and mutable derivation node, and redoes the
conflict removal and narrowing at every emitted word.
``reference_compute_features`` is the classifier's pair features with
each BLEU order counted afresh for every cumulative BLEU score, by
``Counter`` intersection; it shares the mention count, and its edit
distance is ``reference_edit_distance``, the full dynamic-programming
table, not the bit-vector kernel it checks.  The KB lookups below are the
scans over every entity, triple or type assertion that the indexed
``KnowledgeGraph`` replaced (they share only ``entity_surface``, the
definition of a surface), ``reference_kmeans`` is k-means with its
distance tensor built in one piece, and ``reference_cluster_states``
builds each symbol's points row by row, normalizes each row with
``np.linalg.norm`` and clusters them with ``reference_kmeans``.
``reference_ground`` is the beam search that recomputed every state's
features and key from scratch at every decision step; it shares the
option lists, the entity assignments, the stem overlap and
``dot_score``.  ``reference_enumerate_edge_paths``
is the path enumeration that recursed once per edge, and
``reference_remove_conflicting`` the conflict removal that walked the
lattice breadth-first from the chosen edge on every call.
``reference_entity_assignments`` sorts the whole product of every entity
node's candidates; it shares ``entity_candidates``.
``reference_prune_grammar`` is the grammar restriction that sorted every
table of the grammar again for each lattice; it shares only the canonical
sort keys ``ctx_key`` and ``rhs_key``, and closes over symbols one sweep
at a time, as ``reference_narrow`` does.
``reference_normalize`` and ``reference_binarize`` build a new node for
every node they return.  ``reference_estimate_mle`` checks each layer's
coverage before it counts and looks each node's state up as a parent and
again as a child; it and ``reference_annotate_bilayered`` find an "@"
node's semantic state by probing its ancestors (``_inherited_semantic``).

The library read-outs that only tests use live here too, as references:
a derivation's yield (``derivation_yield``) and its score under a grammar
(``rescore``), a lattice's paths as token sequences (``enumerate_paths``),
the best F1 of a question's oracle groundings (``oracle_best_f1``), a
classifier weight looked up by feature name (``weight_of``), and the
inverses of tree normalization and binarization (``expand_unaries``,
``debinarize``) with the check ``is_binary``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, defaultdict, deque
from dataclasses import replace
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from paralat.classifier import FEATURE_NAMES, ClassifierModel, PairFeatures, _occurrences
from paralat.cky import DerivationNode
from paralat.errors import (
    AssignmentMismatch,
    EdgeNotInLattice,
    EmptyIntersection,
    EmptyTreebank,
    EstimationError,
    NoEntityCandidates,
    TreebankError,
)
from paralat.estimation import StateAssignment, _symbol_seed
from paralat.grammar import Context, LatentGrammar, LayerConfig, StateLabel, ctx_key, rhs_key
from paralat.lattice import Edge, WordLattice, enumerate_edge_paths
from paralat.sampler import ParaphraseCandidate, PrunedGrammar, SampleFailure
from paralat.semparse import (
    GroundedGraph,
    KnowledgeGraph,
    UngroundedGraph,
    _edge_options,
    _stem_overlap,
    _type_options,
    dot_score,
    entity_assignments,
    entity_candidates,
    entity_surface,
    oracle_set,
)
from paralat.treebank import BIN_PREFIX, UNARY_JOIN, Tree, iter_nodes

# The breadth-first depth past which ``reference_sample_one`` gives up.  No
# completed draw of n words is deeper than n - 1, so any cap at least the
# lattice's longest path loses none.
DEPTH_CAP = 32


class TooAmbiguous(Exception):
    """The instance has more derivations than the oracle budget allows."""


def enumerate_derivations(
    tokens: Sequence[str], grammar: LatentGrammar, budget: int = 500_000
) -> list[tuple[Context, float]]:
    """All complete derivations of ``tokens`` as (root context, logprob).

    Span-by-span enumeration that lists every derivation exactly once;
    each probability is a plain running product, never a chart max, so
    the maximum over the list is an independent check of Viterbi search.
    """
    n = len(tokens)
    cells: dict[tuple[int, int], list[tuple[Context, float]]] = {}
    for i, token in enumerate(tokens):
        cells[(i, i + 1)] = [
            (ctx, math.log(table[token]))
            for ctx, table in grammar.lexical.items()
            if token in table
        ]
    total = 0
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            out: list[tuple[Context, float]] = []
            for split in range(i + 1, j):
                for (lctx, lp), (rctx, rp) in itertools.product(
                    cells[(i, split)], cells[(split, j)]
                ):
                    for ctx, table in grammar.binary.items():
                        prob = table.get((lctx[0], lctx[1], rctx[0], rctx[1]))
                        if prob is not None:
                            out.append((ctx, math.log(prob) + lp + rp))
            total += len(out)
            if total > budget:
                raise TooAmbiguous(f"more than {budget} derivations")
            cells[(i, j)] = out
    result = []
    for ctx, logp in cells[(0, n)]:
        prior = grammar.roots.get(ctx)
        if prior is not None:
            result.append((ctx, math.log(prior) + logp))
    return result


def derivation_yield(node: DerivationNode) -> tuple[str, ...]:
    """The words of a derivation's leaves, left to right."""
    words, stack = [], [node]
    while stack:
        n = stack.pop()
        if n.word is not None:
            words.append(n.word)
        else:
            stack.extend(reversed(n.children))
    return tuple(words)


def rescore(node: DerivationNode, grammar: LatentGrammar) -> float:
    """Sum of rule log-parameters of a derivation, root prior included."""
    total = math.log(grammar.roots[(node.symbol, node.state)])
    stack = [node]
    while stack:
        n = stack.pop()
        ctx = (n.symbol, n.state)
        if n.word is not None:
            total += math.log(grammar.lexical[ctx][n.word])
            continue
        left, right = n.children
        rhs = (left.symbol, left.state, right.symbol, right.state)
        total += math.log(grammar.binary[ctx][rhs])
        stack += (right, left)
    return total


def best_logprob(tokens: Sequence[str], grammar: LatentGrammar) -> float | None:
    scores = [lp for _, lp in enumerate_derivations(tokens, grammar)]
    return max(scores) if scores else None


def enumerate_strings(
    grammar: LatentGrammar, max_len: int = 10
) -> dict[tuple[str, ...], float]:
    """Total probability per derivable string of length <= ``max_len``,
    by bottom-up generation over string lengths."""
    by_len: dict[int, dict[Context, dict[tuple[str, ...], float]]] = {}
    by_len[1] = {}
    for ctx, table in grammar.lexical.items():
        by_len[1][ctx] = {(word,): prob for word, prob in table.items()}
    for length in range(2, max_len + 1):
        layer: dict[Context, dict[tuple[str, ...], float]] = {}
        for ctx, table in grammar.binary.items():
            strings: dict[tuple[str, ...], float] = {}
            for (b, sb, c, sc), prob in table.items():
                for left_len in range(1, length):
                    lefts = by_len[left_len].get((b, sb))
                    rights = by_len[length - left_len].get((c, sc))
                    if not lefts or not rights:
                        continue
                    for ltoks, lp in lefts.items():
                        for rtoks, rp in rights.items():
                            key = ltoks + rtoks
                            strings[key] = strings.get(key, 0.0) + prob * lp * rp
            if strings:
                layer[ctx] = strings
        by_len[length] = layer
    totals: dict[tuple[str, ...], float] = {}
    for ctx, prior in grammar.roots.items():
        for length in range(1, max_len + 1):
            for toks, prob in by_len[length].get(ctx, {}).items():
                totals[toks] = totals.get(toks, 0.0) + prior * prob
    return totals


def edges_on_common_path(lat: WordLattice, cap: int = 100000) -> list[tuple[Edge, ...]]:
    """All source-to-sink paths, by exhaustive DFS (independent of
    lattice.enumerate_edge_paths ordering guarantees)."""
    out: dict[int, list[Edge]] = {}
    for e in lat.edges:
        out.setdefault(e.src, []).append(e)
    paths: list[tuple[Edge, ...]] = []
    stack: list[tuple[int, tuple[Edge, ...]]] = [(lat.source, ())]
    while stack:
        node, acc = stack.pop()
        if node == lat.sink:
            paths.append(acc)
            if len(paths) >= cap:
                break
            continue
        for e in out.get(node, []):
            stack.append((e.dst, acc + (e,)))
    return paths


def cooccurring_edges(lat: WordLattice, chosen: Edge) -> set[Edge]:
    """Edges sharing at least one complete path with ``chosen``."""
    keep: set[Edge] = set()
    for path in edges_on_common_path(lat):
        if chosen in path:
            keep.update(path)
    return keep


def enumerate_paths(lat: WordLattice, cap: int) -> list[tuple[str, ...]]:
    """Token sequences of up to ``cap`` source-to-sink paths, in the order
    of ``lattice.enumerate_edge_paths``."""
    return [tuple(e.token for e in path) for path in enumerate_edge_paths(lat, cap)]


def path_contains_in_order(path: Sequence[Edge], consumed: Sequence[Edge]) -> bool:
    it = iter(path)
    return all(e in it for e in consumed)


def is_single_path_subset(lat: WordLattice, consumed: Sequence[Edge]) -> bool:
    """True iff some complete path of ``lat`` contains ``consumed`` in order."""
    return any(
        path_contains_in_order(path, consumed)
        for path in edges_on_common_path(lat)
    )


def exhaustive_groundings(graph, kb):
    """Every complete grounding reachable by the decision sequence, by
    plain cartesian product (no beam, no incremental scoring).

    Recomputes edge/type compatibility directly from the KB triples.
    """
    from paralat.semparse import GroundedGraph, entity_assignments

    out = []
    for assignment, lattice_score in entity_assignments(graph, kb):
        entity_of = dict(assignment)

        def value(node):
            return None if node == graph.target else entity_of[node]

        edge_option_lists = []
        for event, n1, n2, _pred in graph.entity_edges():
            options = [None]
            for rel in sorted({r for _, r, _ in kb.triples}):
                for direction in ("fwd", "bwd"):
                    subj, obj = (n1, n2) if direction == "fwd" else (n2, n1)
                    sv, ov = value(subj), value(obj)
                    if any(
                        (sv is None or s == sv) and (ov is None or o == ov)
                        for s, r, o in kb.triples
                        if r == rel
                    ):
                        options.append((rel, direction))
            edge_option_lists.append([((event, n1, n2), o) for o in options])

        type_option_lists = []
        for nid, _label, constrained in graph.type_nodes:
            options = [None]
            if constrained == "target":
                options.extend(sorted({t for _, t in kb.type_assertions}))
            else:
                options.extend(
                    sorted(
                        t for e, t in kb.type_assertions
                        if e == entity_of[constrained]
                    )
                )
            type_option_lists.append([(nid, o) for o in options])

        for edges in itertools.product(*edge_option_lists):
            for types in itertools.product(*type_option_lists):
                out.append(
                    GroundedGraph(
                        graph=graph,
                        entity_map=assignment,
                        edge_map=tuple(edges),
                        type_map=tuple(types),
                        lattice_score=lattice_score,
                    )
                )
    return out


# --- per-node tree features ------------------------------------------------------


def _lookup(tree: Tree, path: tuple[int, ...]) -> Tree:
    for i in path:
        tree = tree.children[i]
    return tree


def node_contexts(tree: Tree) -> dict[tuple[int, ...], tuple]:
    """Per node path: (node, parent label, sibling label, (start, end)).

    Each node and its parent are looked up from the root; the sibling is
    the parent's first other child; the span is the range of leaf
    positions whose paths lie under the node's path.  Root sentinels are
    "TOP" and "none", as are the siblings of an only child.
    """
    paths: list[tuple[int, ...]] = []
    leaves: list[tuple[int, ...]] = []

    def visit(node: Tree, path: tuple[int, ...]) -> None:
        paths.append(path)
        if node.word is not None:
            leaves.append(path)
        for i, child in enumerate(node.children):
            visit(child, path + (i,))

    visit(tree, ())
    out = {}
    for path in paths:
        parent_label, sibling_label = "TOP", "none"
        if path:
            parent = _lookup(tree, path[:-1])
            others = [c for i, c in enumerate(parent.children) if i != path[-1]]
            parent_label = parent.label
            sibling_label = others[0].label if others else "none"
        under = [i for i, leaf in enumerate(leaves) if leaf[: len(path)] == path]
        out[path] = (_lookup(tree, path), parent_label, sibling_label, (under[0], under[-1] + 1))
    return out


def brute_force_features(tree: Tree, aligned=None) -> dict:
    """Reference for ``estimation.extract_features`` built from
    :func:`node_contexts`, one node at a time: the semantic layer exactly
    when ``aligned`` is given."""
    contexts = node_contexts(tree)
    # Pre-order visits the leaves left to right.
    words = [node.word for node, *_ in contexts.values() if node.word is not None]
    out = {}
    for path, (node, parent, sibling, (start, end)) in contexts.items():
        inside = words[start:end]
        if aligned is None:
            if node.word is not None:
                rhs = node.word
            else:
                rhs = " ".join(c.label for c in node.children)
            n = len(inside)
            bucket = str(n) if n <= 2 else ("3-5" if n <= 5 else "6+")
            out[path] = node.label, {
                f"rule={node.label}->{rhs}": 1.0,
                f"first={inside[0]}": 1.0,
                f"last={inside[-1]}": 1.0,
                f"parent={parent}": 1.0,
                f"sibling={sibling}": 1.0,
                f"len={bucket}": 1.0,
            }
        elif not node.label.startswith("@"):
            bag = set(inside)
            for pos in range(start, end):
                bag |= set(aligned.get(pos, ()))
            out[path] = node.label, {f"w={w}": 1.0 for w in bag}
    return out


# --- normalization and binarization undone ------------------------------------


def expand_unaries(tree: Tree) -> Tree:
    """Split "X+Y" composite labels back into unary chains (a rendering aid)."""
    parts = tree.label.split(UNARY_JOIN)
    if tree.is_preterminal:
        node = Tree(parts[-1], word=tree.word)
    else:
        node = Tree(parts[-1], children=tuple(expand_unaries(c) for c in tree.children))
    for label in reversed(parts[:-1]):
        node = Tree(label, children=(node,))
    return node


def debinarize(tree: Tree) -> Tree:
    """Collapse the "@"-symbols that ``treebank.binarize`` introduces."""
    if tree.is_preterminal:
        return tree
    children: list[Tree] = []
    for child in tree.children:
        child = debinarize(child)
        if child.label.startswith(BIN_PREFIX):
            children.extend(child.children)
        else:
            children.append(child)
    return Tree(tree.label, children=tuple(children))


def is_binary(tree: Tree) -> bool:
    if tree.is_preterminal:
        return True
    return len(tree.children) == 2 and all(is_binary(c) for c in tree.children)


# --- normalization and binarization that rebuild every node --------------------


def reference_normalize(tree: Tree) -> Tree:
    """``treebank.normalize`` building a new node for every node."""
    if tree.is_preterminal:
        return Tree(tree.label, word=tree.word.lower())
    if len(tree.children) == 1:
        child = reference_normalize(tree.children[0])
        label = tree.label + UNARY_JOIN + child.label
        if child.is_preterminal:
            return Tree(label, word=child.word)
        return Tree(label, children=child.children)
    return Tree(tree.label, children=tuple(reference_normalize(c) for c in tree.children))


def reference_binarize(tree: Tree) -> Tree:
    """``treebank.binarize`` building a new node for every internal node."""
    if tree.is_preterminal:
        return tree
    if len(tree.children) == 1:
        raise TreebankError(f"cannot binarize unary node {tree.label!r}; normalize first")
    children = [reference_binarize(c) for c in tree.children]
    while len(children) > 2:
        tail = Tree(BIN_PREFIX + tree.label, children=(children[-2], children[-1]))
        children = children[:-2] + [tail]
    return Tree(tree.label, children=tuple(children))


# --- estimation in two phases: check coverage, then count ----------------------


def _reference_check_coverage(treebank, assignment, layer: str, skip_bin: bool) -> None:
    for tid, tree in enumerate(treebank):
        for path, node in iter_nodes(tree):
            if skip_bin and node.label.startswith(BIN_PREFIX):
                continue
            if (tid, path) not in assignment.states:
                raise AssignmentMismatch(f"{layer} layer misses tree {tid} node {path}")


def _inherited_semantic(sem: StateAssignment, tid: int, path: tuple[int, ...], label: str) -> int:
    """A node's semantic state; an "@" node's is found by probing its
    ancestors, nearest first, for one that has an entry."""
    if not label.startswith(BIN_PREFIX):
        return sem.states[(tid, path)]
    probe = path
    while probe:
        probe = probe[:-1]
        if (tid, probe) in sem.states:
            return sem.states[(tid, probe)]
    raise AssignmentMismatch(f"no semantic ancestor for tree {tid} node {path}")


def reference_estimate_mle(treebank, assignment, semantic=None) -> LatentGrammar:
    """``estimation.estimate_mle`` that checks both layers' coverage up
    front, then counts, looking each node's state up once as a parent and
    once more as a child."""
    if not treebank:
        raise EmptyTreebank("cannot estimate from an empty treebank")
    _reference_check_coverage(treebank, assignment, "syntactic", skip_bin=False)
    if semantic is not None:
        _reference_check_coverage(treebank, semantic, "semantic", skip_bin=True)
        layers = LayerConfig(assignment.m, semantic.m)
    else:
        layers = LayerConfig(assignment.m)

    def state_at(tid, path, label):
        syn = assignment.states[(tid, path)]
        if semantic is None:
            return StateLabel(syn)
        return StateLabel(syn, _inherited_semantic(semantic, tid, path, label))

    root_counts = Counter()
    binary_counts = defaultdict(Counter)
    lexical_counts = defaultdict(Counter)
    for tid, tree in enumerate(treebank):
        root_counts[(tree.label, state_at(tid, (), tree.label))] += 1
        for path, node in iter_nodes(tree):
            ctx = (node.label, state_at(tid, path, node.label))
            if node.is_preterminal:
                lexical_counts[ctx][node.word] += 1
            else:
                if len(node.children) != 2:
                    raise EstimationError(f"tree {tid} is not binarized at node {path}")
                left, right = node.children
                rhs = (
                    left.label, state_at(tid, path + (0,), left.label),
                    right.label, state_at(tid, path + (1,), right.label),
                )
                binary_counts[ctx][rhs] += 1

    n_trees = len(treebank)
    grammar = LatentGrammar(
        layers=layers,
        roots={ctx: count / n_trees for ctx, count in root_counts.items()},
        binary={
            ctx: {rhs: c / sum(table.values()) for rhs, c in table.items()}
            for ctx, table in binary_counts.items()
        },
        lexical={
            ctx: {word: c / sum(table.values()) for word, c in table.items()}
            for ctx, table in lexical_counts.items()
        },
    )
    both = grammar.interminals & grammar.preterminals
    if both:
        raise EstimationError(f"symbols used both as interminal and preterminal: {sorted(both)}")
    return grammar


def reference_annotate_bilayered(treebank, syntactic, semantic):
    """A copy of each tree whose every label reads "label-syn-sem": the
    node's states under the two assignments that two-layer training
    returns, each node's semantic state found by
    :func:`_inherited_semantic`.  The library builds no such copy; it
    reads the assignments by node key."""

    def decorate(tid, tree, path):
        syn = syntactic.states[(tid, path)]
        sem = _inherited_semantic(semantic, tid, path, tree.label)
        label = f"{tree.label}-{syn}-{sem}"
        if tree.is_preterminal:
            return Tree(label, word=tree.word)
        return Tree(
            label,
            children=tuple(decorate(tid, c, path + (i,)) for i, c in enumerate(tree.children)),
        )

    return [decorate(tid, tree, ()) for tid, tree in enumerate(treebank)]


# --- random instances ---------------------------------------------------------


def random_toy_grammar(rng: random.Random) -> LatentGrammar:
    """Small random valid grammar: <= 3 symbols, m <= 2, sparse rules."""
    m = rng.choice([1, 2])
    interminals = ["S"] + (["T"] if rng.random() < 0.5 else [])
    preterminals = ["P", "Q"][: rng.choice([1, 2])]
    vocab = ["a", "b", "c"][: rng.choice([2, 3])]
    symbols = interminals + preterminals

    def contexts(syms: list[str]) -> list[Context]:
        return [(s, StateLabel(h)) for s in syms for h in range(m)]

    lexical: dict[Context, dict[str, float]] = {}
    for ctx in contexts(preterminals):
        words = rng.sample(vocab, rng.randint(1, len(vocab)))
        weights = [rng.random() + 0.1 for _ in words]
        total = sum(weights)
        lexical[ctx] = {w: wt / total for w, wt in zip(words, weights)}

    child_pool = contexts(symbols)
    binary: dict[Context, dict[tuple, float]] = {}
    for ctx in contexts(interminals):
        n_rules = rng.randint(1, 3)
        rules: dict[tuple, float] = {}
        for _ in range(n_rules):
            b = rng.choice(child_pool)
            c = rng.choice(child_pool)
            rules[(b[0], b[1], c[0], c[1])] = rng.random() + 0.1
        total = sum(rules.values())
        binary[ctx] = {k: v / total for k, v in rules.items()}

    root_ctxs = contexts(interminals)
    weights = [rng.random() + 0.1 for _ in root_ctxs]
    total = sum(weights)
    roots = {ctx: w / total for ctx, w in zip(root_ctxs, weights)}
    return LatentGrammar(
        layers=LayerConfig(m),
        roots=roots,
        binary=binary,
        lexical=lexical,
    )


def random_multipath_lattice(rng: random.Random) -> WordLattice:
    """A question chain with random parallel alternatives."""
    from paralat.lattice import ORIGIN_RULE, build_naive

    vocab = ["w0", "w1", "w2", "w3", "w4", "w5"]
    n = rng.randint(3, 6)
    base = [rng.choice(vocab) for _ in range(n)]
    lat = build_naive(base)
    edges = list(lat.edges)
    next_node = n + 1
    for _ in range(rng.randint(1, 4)):
        start = rng.randrange(n)
        end = rng.randint(start + 1, n)
        alt = [rng.choice(vocab) for _ in range(rng.randint(1, 2))]
        prev = start
        for tok in alt[:-1]:
            edges.append(Edge(prev, next_node, tok, ORIGIN_RULE))
            prev = next_node
            next_node += 1
        edges.append(Edge(prev, end, alt[-1], ORIGIN_RULE))
    return WordLattice(source=0, sink=n, edges=tuple(sorted(set(edges))))


def word_salad_grammar(vocab: Sequence[str]) -> LatentGrammar:
    """Grammar deriving any sequence (length >= 2) over ``vocab``."""
    words = sorted(set(vocab))
    s = ("S", StateLabel(0))
    w = ("W", StateLabel(0))
    return LatentGrammar(
        layers=LayerConfig(1),
        roots={s: 1.0},
        binary={
            s: {
                ("W", StateLabel(0), "S", StateLabel(0)): 0.4,
                ("W", StateLabel(0), "W", StateLabel(0)): 0.6,
            }
        },
        lexical={w: {word: 1.0 / len(words) for word in words}},
    )


def reference_draw(rng: random.Random, items: Sequence[tuple]) -> object:
    """Weighted draw proportional to the second tuple element."""
    total = sum(p for _, p in items)
    r = rng.random() * total
    acc = 0.0
    for value, p in items:
        acc += p
        if r < acc:
            return value
    return items[-1][0]


def reference_narrow(pruned: PrunedGrammar, vocab: frozenset[str]) -> PrunedGrammar:
    """Re-restrict a pruned grammar to a smaller vocabulary: keep the words
    in ``vocab``, close over symbols bottom-up one sweep at a time, then
    keep the rules and roots whose symbols survive."""
    lexical = {}
    surviving = set()
    for ctx, entries in pruned.lexical.items():
        kept = tuple(e for e in entries if e[0] in vocab)
        if kept:
            lexical[ctx] = kept
            surviving.add(ctx[0])
    while True:
        added = False
        for ctx, entries in pruned.binary.items():
            if ctx[0] not in surviving and any(
                rhs[0] in surviving and rhs[2] in surviving for rhs, _ in entries
            ):
                surviving.add(ctx[0])
                added = True
        if not added:
            break
    binary = {}
    for ctx, entries in pruned.binary.items():
        kept = tuple(
            e for e in entries if e[0][0] in surviving and e[0][2] in surviving
        )
        if ctx[0] in surviving and kept:
            binary[ctx] = kept
    return PrunedGrammar(
        grammar=pruned.grammar,
        roots=tuple((ctx, p) for ctx, p in pruned.roots if ctx[0] in surviving),
        binary=binary,
        lexical=lexical,
    )


def reference_prune_grammar(grammar: LatentGrammar, lat: WordLattice) -> PrunedGrammar:
    """Restrict ``grammar`` to ``lat``'s vocabulary, sorting each of its
    tables afresh: keep the words on the lattice, close over symbols
    bottom-up one sweep at a time, then keep the rules and roots whose
    symbols survive.  Raises EmptyIntersection when no root survives."""
    vocab = lat.vocabulary()
    lexical = {}
    for ctx, table in grammar.lexical.items():
        kept = tuple((w, table[w]) for w in sorted(table) if w in vocab)
        if kept:
            lexical[ctx] = kept
    surviving = {sym for sym, _ in lexical}
    while True:
        added = {
            sym for (sym, _), table in grammar.binary.items()
            if sym not in surviving
            and any(rhs[0] in surviving and rhs[2] in surviving for rhs in table)
        }
        if not added:
            break
        surviving |= added
    binary = {}
    for ctx, table in grammar.binary.items():
        kept = tuple(
            (rhs, table[rhs])
            for rhs in sorted(table, key=rhs_key)
            if rhs[0] in surviving and rhs[2] in surviving
        )
        if ctx[0] in surviving and kept:
            binary[ctx] = kept
    roots = tuple(
        (ctx, grammar.roots[ctx])
        for ctx in sorted(grammar.roots, key=ctx_key)
        if ctx[0] in surviving
    )
    if not roots:
        raise EmptyIntersection("no grammar root survives over the lattice")
    return PrunedGrammar(grammar=grammar, roots=roots, binary=binary, lexical=lexical)


class _Node:
    __slots__ = ("symbol", "state", "word", "children")

    def __init__(self, symbol: str, state: StateLabel) -> None:
        self.symbol = symbol
        self.state = state
        self.word: str | None = None
        self.children: tuple[_Node, ...] = ()


def reference_sample_one(
    pruned: PrunedGrammar, lat: WordLattice, seed: int, depth_cap: int = DEPTH_CAP
) -> ParaphraseCandidate | SampleFailure:
    """One draw with no memo: the free edges are found by a scan over the
    current lattice, and every emitted word removes conflicting paths and
    narrows the grammar afresh."""
    rng = random.Random(seed)
    grammar = pruned.grammar
    pg = pruned
    current = lat
    consumed: list[Edge] = []
    consumed_set: set[Edge] = set()

    if not pg.roots:
        return SampleFailure("dead-end", seed)
    root_ctx = reference_draw(rng, pg.roots)
    root = _Node(root_ctx[0], root_ctx[1])
    queue: deque[tuple[_Node, int]] = deque([(root, 0)])

    while queue:
        node, depth = queue.popleft()
        if depth > depth_cap:
            return SampleFailure("depth-cap", seed)
        ctx = (node.symbol, node.state)
        if node.symbol in grammar.preterminals:
            support = pg.lexical.get(ctx, ())
            free: dict[str, Edge] = {}
            for e in current.edges:
                if e not in consumed_set and (e.token not in free or e < free[e.token]):
                    free[e.token] = e
            avail = [(w, p) for w, p in support if w in free]
            if not avail:
                return SampleFailure("dead-end", seed)
            word = reference_draw(rng, avail)
            edge = free[word]
            consumed.append(edge)
            consumed_set.add(edge)
            node.word = word
            narrowed = reference_remove_conflicting(current, edge)
            if len(narrowed.edges) != len(current.edges):
                current = narrowed
                pg = reference_narrow(pg, current.vocabulary())
        else:
            support = pg.binary.get(ctx, ())
            if not support:
                return SampleFailure("dead-end", seed)
            rhs = reference_draw(rng, support)
            left = _Node(rhs[0], rhs[1])
            right = _Node(rhs[2], rhs[3])
            node.children = (left, right)
            queue.append((left, depth + 1))
            queue.append((right, depth + 1))

    witness = enumerate_edge_paths(current, 1)[0]
    path = tuple(e for e in witness if e in consumed_set)
    if len(path) != len(consumed):
        raise AssertionError("consumed edges do not lie on one path")
    return ParaphraseCandidate(tokens=derivation_yield(root), consumed_path=path, seed=seed)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def reference_edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Levenshtein distance by the dynamic-programming table, one row per
    token of ``a``."""
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, 1):
        cur = [i]
        for j, tok_b in enumerate(b, 1):
            cur.append(min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (tok_a != tok_b),
            ))
        prev = cur
    return prev[-1]


def _bleu(candidate: Sequence[str], reference: Sequence[str], max_n: int) -> float:
    """Cumulative BLEU with brevity penalty; add-1 smoothing for n >= 2."""
    log_precisions = []
    for n in range(1, max_n + 1):
        cand = _ngrams(candidate, n)
        ref = _ngrams(reference, n)
        matches = sum(min(count, ref[gram]) for gram, count in cand.items())
        total = max(sum(cand.values()), 0)
        if n >= 2:
            matches += 1
            total += 1
        if total == 0 or matches == 0:
            return 0.0
        log_precisions.append(math.log(matches / total))
    brevity = min(0.0, 1.0 - len(reference) / len(candidate))
    return math.exp(brevity + sum(log_precisions) / max_n)


def weight_of(model: ClassifierModel, name: str) -> float:
    """The stored weight of the feature ``name``."""
    return model.weights[FEATURE_NAMES.index(name)]


def reference_compute_features(
    source: Sequence[str],
    candidate: Sequence[str],
    entities: Sequence[tuple[int, int]] = (),
) -> PairFeatures:
    """The pair features with one ``_bleu`` call, and so one count of
    every order up to it, per cumulative BLEU score."""
    src = [t.lower() for t in source]
    cand = [t.lower() for t in candidate]
    bleus = [_bleu(cand, src, n) for n in range(1, 5)]
    reverse4 = _bleu(src, cand, 4)
    overlap = sum((Counter(cand) & Counter(src)).values())
    mentions = Counter(tuple(src[i:j]) for i, j in entities)
    preserved = all(
        _occurrences(cand, mention) >= count for mention, count in mentions.items()
    )
    return PairFeatures(
        bleu1=bleus[0],
        bleu2=bleus[1],
        bleu3=bleus[2],
        bleu4=bleus[3],
        bleu_sym=math.sqrt(bleus[3] * reverse4),
        ter=min(2.0, reference_edit_distance(cand, src) / len(src)),
        length_ratio=len(cand) / len(src),
        unigram_precision=overlap / len(cand),
        unigram_recall=overlap / len(src),
        ne_preserved=1.0 if preserved else 0.0,
    )


_labels = st.sampled_from(["S", "NP", "VP", "NN", "DT", "X"])
_words = st.sampled_from(["a", "b", "cat", "saw", "nochebuena", "Nochebuena"])


def random_trees(depth: int = 3) -> st.SearchStrategy[Tree]:
    """Hypothesis strategy for small trees, unary and n-ary nodes included."""
    leaf = st.builds(lambda l, w: Tree(l, word=w), _labels, _words)
    if depth == 0:
        return leaf
    return st.one_of(
        leaf,
        st.builds(
            lambda l, cs: Tree(l, children=tuple(cs)),
            _labels,
            st.lists(random_trees(depth - 1), min_size=1, max_size=3),
        ),
    )


# --- knowledge-base lookups by scan ------------------------------------------------


def scan_entity_candidates(mention, kb):
    """``semparse.entity_candidates`` over every entity of the KB."""
    mention = tuple(t.lower() for t in mention)
    out = []
    for rank, entity in enumerate(kb.entities):
        surface = entity_surface(entity)
        if surface == mention:
            match = len(surface)
        elif surface[: len(mention)] == mention:
            match = len(mention)
        elif mention[: len(surface)] == surface:
            match = len(surface)
        else:
            continue
        out.append((entity, match, rank))
    out.sort(key=lambda item: (-item[1], item[2], item[0]))
    return out


def scan_subjects(kb, relation, obj):
    return frozenset(s for s, r, o in kb.triples if r == relation and o == obj)


def scan_objects(kb, subj, relation):
    return frozenset(o for s, r, o in kb.triples if r == relation and s == subj)


def scan_edge_options(kb, entity_of, target, n1, n2):
    """``semparse._edge_options`` over every triple of the KB."""
    options = [None]
    found = set()
    for subj, obj, direction in ((n1, n2, "fwd"), (n2, n1, "bwd")):
        for s, r, o in kb.triples:
            if subj == target:
                ok = obj != target and o == entity_of[obj]
            elif obj == target:
                ok = s == entity_of[subj]
            else:
                ok = s == entity_of[subj] and o == entity_of[obj]
            if ok:
                found.add((r, direction))
    options.extend(sorted(found))
    return options


def scan_type_options(kb, entity_of, constrained):
    """``semparse._type_options`` over every type assertion of the KB."""
    options = [None]
    if constrained == "target":
        options.extend(sorted({t for _, t in kb.type_assertions}))
    else:
        options.extend(
            sorted(t for e, t in kb.type_assertions if e == entity_of[constrained])
        )
    return options


# --- k-means with the whole distance tensor ----------------------------------------


def reference_kmeans(points, weights, m, rng, max_iter=50):
    """``estimation._kmeans`` with the n x k x d distance tensor in one piece."""
    n = points.shape[0]
    k = min(m, n)
    centers = np.empty((k, points.shape[1]))
    probs = weights / weights.sum()
    first = rng.choice(n, p=probs)
    centers[0] = points[first]
    dist2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        mass = weights * dist2
        total = mass.sum()
        if total <= 0.0:
            k = c
            centers = centers[:k]
            break
        centers[c] = points[rng.choice(n, p=mass / total)]
        dist2 = np.minimum(dist2, ((points - centers[c]) ** 2).sum(axis=1))

    labels = None
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                w = weights[mask]
                centers[c] = (points[mask] * w[:, None]).sum(axis=0) / w.sum()
    return labels


def reference_cluster_states(vectors, symbols, m, seed):
    """``estimation.cluster_states`` building its points row by row, each
    row normalized by ``np.linalg.norm``, and clustering them with
    :func:`reference_kmeans`; it shares the per-symbol seed."""
    by_symbol = defaultdict(list)
    for key in vectors:
        by_symbol[symbols[key]].append(key)
    states = {}
    for symbol in sorted(by_symbol):
        keys = by_symbol[symbol]
        groups = defaultdict(list)
        for key in keys:
            groups[tuple(sorted(vectors[key].items()))].append(key)
        distinct = sorted(groups)
        if m == 1 or len(distinct) == 1:
            states.update(dict.fromkeys(keys, 0))
            continue
        df = Counter()
        for items in distinct:
            for name, _ in items:
                df[name] += len(groups[items])
        names = sorted(df)
        idf = {name: math.log((1.0 + len(keys)) / (1.0 + df[name])) + 1.0 for name in names}
        points = np.zeros((len(distinct), len(names)))
        for row, items in enumerate(distinct):
            for name, count in items:
                points[row, names.index(name)] = count * idf[name]
            norm = np.linalg.norm(points[row])
            if norm > 0:
                points[row] /= norm
        weights = np.array([float(len(groups[items])) for items in distinct])
        labels = reference_kmeans(points, weights, m, _symbol_seed(seed, symbol))
        for row, items in enumerate(distinct):
            for key in groups[items]:
                states[key] = int(labels[row])
    return StateAssignment(m=m, states=states)


# --- grounding with every state recomputed --------------------------------------


def reference_key(grounded):
    """``GroundedGraph.key`` built from the whole grounding."""
    parts = [f"{nid}={ent}" for nid, ent in grounded.entity_map]
    parts += [
        f"{event}|{n1}|{n2}={'null' if choice is None else choice[0] + ':' + choice[1]}"
        for (event, n1, n2), choice in grounded.edge_map
    ]
    parts += [f"{nid}={t or 'null'}" for nid, t in grounded.type_map]
    return ";".join(parts)


def reference_tuple_features(grounded):
    """The features ``semparse.ground`` gives a grounding, in one pass over
    the whole grounding."""
    graph = grounded.graph
    feats = defaultdict(float)
    feats["classifier_score"] = graph.classifier_score
    feats["lattice_score"] = grounded.lattice_score
    predicates = {
        (event, n1, n2): pred for event, n1, n2, pred in graph.entity_edges()
    }
    words = sorted(set(graph.text))
    for (event, n1, n2), choice in grounded.edge_map:
        pred = predicates[(event, n1, n2)]
        if choice is None:
            feats[f"align|{pred}|null"] += 1.0
            feats["null_edges"] += 1.0
        else:
            relation, direction = choice
            feats[f"align|{pred}|{relation}:{direction}"] += 1.0
            feats["stem_overlap"] += _stem_overlap(pred, relation)
            for word in words:
                feats[f"wordrel|{word}|{relation}"] = 1.0
    type_labels = {nid: label for nid, label, _ in graph.type_nodes}
    for nid, type_name in grounded.type_map:
        label = type_labels[nid]
        if type_name is None:
            feats[f"typealign|{label}|null"] += 1.0
            feats["null_types"] += 1.0
        else:
            feats[f"typealign|{label}|{type_name}"] += 1.0
            feats["stem_overlap"] += _stem_overlap(label, type_name)
    return dict(feats)


def reference_entity_assignments(graph, kb, top):
    """``semparse.entity_assignments`` by sorting the whole product of the
    nodes' candidate lists."""
    per_node = []
    for nid, mention in sorted(graph.entity_nodes):
        cands = entity_candidates(mention, kb)
        if not cands:
            raise NoEntityCandidates(f"{graph.name}: no KB entity matches node {nid!r}")
        per_node.append([(nid, c) for c in cands])
    joint = []
    for combo in itertools.product(*per_node):
        total_match = sum(c[1] for _, c in combo)
        total_rank = sum(c[2] for _, c in combo)
        assignment = tuple((nid, c[0]) for nid, c in combo)
        joint.append(((-total_match, total_rank, assignment), assignment,
                      total_match - 0.01 * total_rank))
    joint.sort(key=lambda item: item[0])
    return [(assignment, score) for _, assignment, score in joint[:top]]


def oracle_best_f1(
    graphs: Sequence[UngroundedGraph],
    kb: KnowledgeGraph,
    gold: frozenset[str] | set[str],
) -> float:
    """Best reachable F1 over all groundings of all graphs (0 if nothing
    grounds)."""
    oracle = oracle_set(graphs, kb, gold)
    if not oracle:
        return 0.0
    return 1.0 - oracle[0].loss


def reference_ground(graph, kb, weights=None, beam=100):
    """``semparse.ground`` scoring every state from scratch at every step."""
    weights = weights or {}

    def truncate(pool):
        scored = []
        for g in pool:
            feats = reference_tuple_features(g)
            scored.append((g, dot_score(weights, feats), feats))
        scored.sort(key=lambda item: (-item[1], reference_key(item[0])))
        return scored[:beam]

    kept = truncate([
        GroundedGraph(graph=graph, entity_map=assignment, edge_map=(), type_map=(),
                      lattice_score=score)
        for assignment, score in entity_assignments(graph, kb)
    ])
    for event, n1, n2, _pred in graph.entity_edges():
        pool = []
        for state, _, _ in kept:
            entity_of = dict(state.entity_map)
            for choice in _edge_options(kb, entity_of, graph.target, n1, n2):
                pool.append(
                    replace(state, edge_map=state.edge_map + (((event, n1, n2), choice),))
                )
        kept = truncate(pool)
    for nid, _label, constrained in graph.type_nodes:
        pool = []
        for state, _, _ in kept:
            entity_of = dict(state.entity_map)
            for choice in _type_options(kb, entity_of, constrained):
                pool.append(replace(state, type_map=state.type_map + ((nid, choice),)))
        kept = truncate(pool)
    return kept


# --- path enumeration by recursion -----------------------------------------------


def reference_enumerate_edge_paths(lat: WordLattice, cap: int) -> list[tuple[Edge, ...]]:
    """``lattice.enumerate_edge_paths`` as one recursive call per edge."""
    out: dict[int, list[Edge]] = defaultdict(list)
    for e in lat.edges:
        out[e.src].append(e)
    for edges in out.values():
        edges.sort()
    paths: list[tuple[Edge, ...]] = []

    def walk(node: int, acc: list[Edge]) -> bool:
        if node == lat.sink:
            paths.append(tuple(acc))
            return len(paths) >= cap
        for e in out.get(node, []):
            acc.append(e)
            if walk(e.dst, acc):
                return True
            acc.pop()
        return False

    walk(lat.source, [])
    return paths


# --- conflict removal by breadth-first walks ---------------------------------------


def reference_remove_conflicting(lat: WordLattice, edge: Edge) -> WordLattice:
    """``lattice.remove_conflicting`` as two breadth-first walks from the
    chosen edge on every call: back from its ``src`` over the incoming
    edges and on from its ``dst`` over the outgoing ones.  An edge is kept
    when it equals the chosen one, ends at a node the first walk reaches
    or starts at one the second reaches; the kept edges are sorted, with
    copies dropped."""
    if edge not in lat.edges:
        raise EdgeNotInLattice(f"{edge} not in lattice")
    inc: dict[int, list[Edge]] = defaultdict(list)
    out: dict[int, list[Edge]] = defaultdict(list)
    for e in lat.edges:
        inc[e.dst].append(e)
        out[e.src].append(e)

    def reach(start: int, forward: bool) -> set[int]:
        seen = {start}
        queue = deque([start])
        while queue:
            for e in (out if forward else inc)[queue.popleft()]:
                nxt = e.dst if forward else e.src
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    before = reach(edge.src, forward=False)
    after = reach(edge.dst, forward=True)
    kept = {e for e in lat.edges if e == edge or e.dst in before or e.src in after}
    return WordLattice(source=lat.source, sink=lat.sink, edges=tuple(sorted(kept)))
