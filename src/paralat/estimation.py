"""Latent-state learning: inside/outside features, per-symbol clustering,
and frequency-count parameter estimation.

The pipeline: every node of every (binarized) tree is mapped to a feature
vector, in one walk per tree; vectors are clustered per nonterminal symbol
into ``m`` states, and a grammar is read off the state-annotated treebank
by relative-frequency counting.  A second, semantic layer can be trained from bag-of-word
features enriched with word alignments of paraphrase pairs; combining both
layers yields the two-layer grammar used for paraphrase lattices.

numpy is used only by the clustering code, and each clustering function
imports it itself: the CLI imports this module for every command, so a
top-level import would make the commands that never train (``parse``,
``paraphrase``, ``semparse-*``) pay numpy's import time and memory.  A
repeated import is a dictionary lookup.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .data_files import records
from .errors import (
    AssignmentMismatch,
    EmptyTreebank,
    EstimationError,
    MissingAlignments,
)
from .grammar import (
    BinaryRhs,
    Context,
    LatentGrammar,
    LayerConfig,
    StateLabel,
)
from .treebank import (
    BIN_PREFIX,
    Path,
    Tree,
    iter_nodes,
    tree_yield,
)

if TYPE_CHECKING:  # annotations only; see the module docstring
    import numpy as np

FeatureVector = dict[str, float]
NodeKey = tuple[int, Path]  # (tree index, node path)

KMEANS_MAX_ITER = 50


@dataclass(frozen=True)
class StateAssignment:
    """Cluster index per (tree, node) for one layer."""

    m: int
    states: Mapping[NodeKey, int]


@dataclass(frozen=True)
class AlignmentRecord:
    qid_a: int
    qid_b: int
    pairs: tuple[tuple[int, int], ...]


def read_alignments(path: str) -> list[AlignmentRecord]:
    """Read "qidA<TAB>qidB<TAB>i-j[,i-j...]" alignment lines."""
    alignments: list[AlignmentRecord] = []
    for lineno, line in records(path):
        line = line.strip()
        parts = line.split("\t")
        if len(parts) != 3:
            raise EstimationError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            qa, qb = int(parts[0]), int(parts[1])
            pairs = tuple(
                (int(i), int(j))
                for i, j in (item.split("-") for item in parts[2].split(","))
            )
        except ValueError as exc:
            raise EstimationError(f"{path}:{lineno}: bad alignment {line!r}") from exc
        alignments.append(AlignmentRecord(qa, qb, pairs))
    return alignments


def aligned_words_index(
    treebank: Sequence[Tree], records: Iterable[AlignmentRecord]
) -> dict[int, dict[int, set[str]]]:
    """Per tree, per token position: the words aligned to that token.

    Alignment indices are validated against the tree yields.
    """
    yields = [tree_yield(t) for t in treebank]
    index: dict[int, dict[int, set[str]]] = defaultdict(lambda: defaultdict(set))
    for rec in records:
        if not (0 <= rec.qid_a < len(treebank) and 0 <= rec.qid_b < len(treebank)):
            raise EstimationError(f"alignment references unknown tree: {rec}")
        ya, yb = yields[rec.qid_a], yields[rec.qid_b]
        for i, j in rec.pairs:
            if i >= len(ya) or j >= len(yb) or i < 0 or j < 0:
                raise EstimationError(f"alignment index out of range: {rec}")
            index[rec.qid_a][i].add(yb[j])
            index[rec.qid_b][j].add(ya[i])
    return index


def _length_bucket(n: int) -> str:
    if n <= 2:
        return str(n)
    if n <= 5:
        return "3-5"
    return "6+"


def extract_features(
    tree: Tree,
    layer: str = "syntactic",
    aligned: Mapping[int, set[str]] | None = None,
) -> dict[Path, FeatureVector]:
    """Feature vector of every node of a binarized tree, keyed by path.

    The syntactic layer captures the local context: the node's rule
    signature, first/last inside terminal, parent and sibling labels
    (``"TOP"`` and ``"none"`` at the root; the sibling is the first other
    child of the parent) and a span-length bucket.  The semantic layer is
    a bag of the inside-yield words plus every word aligned to them in
    paraphrase pairs (``aligned`` maps token positions of this tree to
    aligned words); bag entries are presence indicators.  It has no entry
    for "@" nodes, which inherit their parent's semantic state.
    """
    if layer not in ("syntactic", "semantic"):
        raise EstimationError(f"unknown feature layer {layer!r}")
    if layer == "semantic" and aligned is None:
        raise MissingAlignments("semantic features require alignment data")
    terms = tree_yield(tree)
    features: dict[Path, FeatureVector] = {}

    def walk(node: Tree, path: Path, parent: str, sibling: str, start: int) -> int:
        """Record ``node`` and its descendants; return the end of its span."""
        if node.is_preterminal:
            end, rhs = start + 1, node.word
        else:
            children = node.children
            end = start
            for i, child in enumerate(children):
                other = "none" if len(children) == 1 else children[1 if i == 0 else 0].label
                end = walk(child, path + (i,), node.label, other, end)
            rhs = " ".join(c.label for c in children)
        if layer == "syntactic":
            features[path] = {
                f"rule={node.label}->{rhs}": 1.0,
                f"first={terms[start]}": 1.0,
                f"last={terms[end - 1]}": 1.0,
                f"parent={parent}": 1.0,
                f"sibling={sibling}": 1.0,
                f"len={_length_bucket(end - start)}": 1.0,
            }
        elif not node.label.startswith(BIN_PREFIX):
            words = set(terms[start:end])
            for pos in range(start, end):
                words.update(aligned.get(pos, ()))
            features[path] = {f"w={w}": 1.0 for w in words}
        return end

    walk(tree, (), "TOP", "none", 0)
    return features


# --- clustering -------------------------------------------------------------

def _canonical_items(vec: FeatureVector) -> tuple[tuple[str, float], ...]:
    return tuple(sorted(vec.items()))


def _symbol_seed(seed: int, symbol: str) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(symbol.encode("utf-8"))])


def _sq_distances(points: np.ndarray, squares: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``((points - center) ** 2).sum(axis=1)``, bit for bit, given
    ``squares == points ** 2`` (both C-contiguous).

    Where ``center`` is 0, ``(x - 0) ** 2 == x ** 2`` exactly, so only its
    nonzero columns of ``squares`` are recomputed, in place; each row is
    then summed as it would be, and the columns are restored.
    """
    import numpy as np

    cols = np.flatnonzero(center)
    block = points[:, cols]
    squares[:, cols] = (block - center[cols]) ** 2
    dist = squares.sum(axis=1)
    squares[:, cols] = block ** 2
    return dist


def _kmeans(
    points: np.ndarray, weights: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted Lloyd k-means with k-means++ seeding; returns labels.

    ``points`` holds one C-contiguous row per distinct input, but rows may
    be equal (``cluster_states`` normalizes them); ``weights`` are their
    multiplicities.  Capped at KMEANS_MAX_ITER iterations; ties in
    assignment go to the lowest center index.

    Every row-to-center distance lives in one matrix ``dist`` of
    n x min(m, n) floats per symbol.  Column c is
    :func:`_sq_distances` of center c over all rows: it is computed when
    seeding chooses the center, and again only when an update moves the
    center (the new mean differs from the old one).  Each row is summed
    in the order of the dense ``((points[:, None] - centers[None]) **
    2).sum(axis=2)``, and a column that is not recomputed holds the floats
    a recomputation would give, so seeding's D^2 (the running minimum of
    the columns), the draw probabilities and every ``dist.argmin(axis=1)``
    assignment are the dense ones, bit for bit.
    """
    import numpy as np

    n = points.shape[0]
    k = min(m, n)
    centers = np.empty((k, points.shape[1]))
    dist = np.empty((n, k))
    squares = points ** 2
    probs = weights / weights.sum()
    first = rng.choice(n, p=probs)
    centers[0] = points[first]
    dist[:, 0] = _sq_distances(points, squares, centers[0])
    dist2 = dist[:, 0].copy()
    for c in range(1, k):
        mass = weights * dist2
        total = mass.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centers.
            k = c
            centers, dist = centers[:k], dist[:, :k]
            break
        centers[c] = points[rng.choice(n, p=mass / total)]
        dist[:, c] = _sq_distances(points, squares, centers[c])
        dist2 = np.minimum(dist2, dist[:, c])

    labels = dist.argmin(axis=1)
    for _ in range(KMEANS_MAX_ITER - 1):
        for c in range(k):
            mask = labels == c
            if mask.any():
                w = weights[mask]
                center = (points[mask] * w[:, None]).sum(axis=0) / w.sum()
                if (center != centers[c]).any():
                    centers[c] = center
                    dist[:, c] = _sq_distances(points, squares, center)
        new_labels = dist.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def cluster_states(
    vectors: Mapping[NodeKey, FeatureVector],
    symbols: Mapping[NodeKey, str],
    m: int,
    seed: int,
) -> StateAssignment:
    """Cluster nodes into ``m`` states per nonterminal symbol.

    Vectors are tf-idf weighted (idf over the symbol's own collection) and
    L2-normalized.  Clustering runs over the distinct vectors, ordered
    canonically and weighted by multiplicity, so the result is independent
    of input order and duplicated inputs always share a state.  When a
    symbol has fewer distinct vectors than ``m`` the extra indices stay
    unused.
    """
    import numpy as np

    if m < 1:
        raise EstimationError(f"state count must be >= 1, got {m}")
    if not vectors:
        raise EstimationError("no vectors to cluster")

    by_symbol: dict[str, list[NodeKey]] = defaultdict(list)
    for key in vectors:
        by_symbol[symbols[key]].append(key)

    states: dict[NodeKey, int] = {}
    for symbol in sorted(by_symbol):
        keys = by_symbol[symbol]
        groups: dict[tuple, list[NodeKey]] = defaultdict(list)
        for key in keys:
            groups[_canonical_items(vectors[key])].append(key)
        distinct = sorted(groups)
        if m == 1 or len(distinct) == 1:
            for group in groups.values():
                for key in group:
                    states[key] = 0
            continue

        # tf-idf over the symbol's collection (duplicates included in df).
        df: Counter[str] = Counter()
        for items in distinct:
            mult = len(groups[items])
            for name, _ in items:
                df[name] += mult
        n_total = len(keys)
        names = sorted(df)
        col = {name: i for i, name in enumerate(names)}
        idf = {
            name: math.log((1.0 + n_total) / (1.0 + df[name])) + 1.0 for name in names
        }
        points = np.zeros((len(distinct), len(names)))
        for row, items in enumerate(distinct):
            for name, count in items:
                points[row, col[name]] = count * idf[name]
            norm = np.linalg.norm(points[row])
            if norm > 0:
                points[row] /= norm
        weights = np.array([float(len(groups[items])) for items in distinct])

        labels = _kmeans(points, weights, m, _symbol_seed(seed, symbol))
        for row, items in enumerate(distinct):
            for key in groups[items]:
                states[key] = int(labels[row])
    return StateAssignment(m=m, states=states)


# --- maximum likelihood estimation ------------------------------------------

def _check_coverage(
    treebank: Sequence[Tree], assignment: StateAssignment, layer: str, skip_bin: bool
) -> None:
    for tid, tree in enumerate(treebank):
        for path, node in iter_nodes(tree):
            if skip_bin and node.label.startswith(BIN_PREFIX):
                continue
            if (tid, path) not in assignment.states:
                raise AssignmentMismatch(
                    f"{layer} layer misses tree {tid} node {path}"
                )


def _inherited_semantic(
    sem: StateAssignment, tid: int, path: Path, label: str
) -> int:
    # Binarization artifacts carry the semantic state of the original parent.
    if not label.startswith(BIN_PREFIX):
        return sem.states[(tid, path)]
    probe = path
    while probe:
        probe = probe[:-1]
        if (tid, probe) in sem.states:
            return sem.states[(tid, probe)]
    raise AssignmentMismatch(f"no semantic ancestor for tree {tid} node {path}")


def estimate_mle(
    treebank: Sequence[Tree],
    assignment: StateAssignment,
    semantic: StateAssignment | None = None,
) -> LatentGrammar:
    """Relative-frequency estimates over the state-annotated treebank.

    Root probabilities are root-occurrence counts over the tree count;
    binary and lexical probabilities are conditional on the parent
    (symbol, state) context.  With ``semantic`` given, nodes carry joint
    two-layer states; "@" intermediate symbols inherit the semantic state
    of their original parent node.
    """
    if not treebank:
        raise EmptyTreebank("cannot estimate from an empty treebank")
    _check_coverage(treebank, assignment, "syntactic", skip_bin=False)
    if semantic is not None:
        _check_coverage(treebank, semantic, "semantic", skip_bin=True)
        layers = LayerConfig(assignment.m, semantic.m)
    else:
        layers = LayerConfig(assignment.m)

    def state_at(tid: int, path: Path, label: str) -> StateLabel:
        syn = assignment.states[(tid, path)]
        if semantic is None:
            return StateLabel(syn)
        return StateLabel(syn, _inherited_semantic(semantic, tid, path, label))

    root_counts: Counter[Context] = Counter()
    binary_counts: dict[Context, Counter[BinaryRhs]] = defaultdict(Counter)
    lexical_counts: dict[Context, Counter[str]] = defaultdict(Counter)

    for tid, tree in enumerate(treebank):
        root_counts[(tree.label, state_at(tid, (), tree.label))] += 1
        for path, node in iter_nodes(tree):
            ctx = (node.label, state_at(tid, path, node.label))
            if node.is_preterminal:
                lexical_counts[ctx][node.word] += 1
            else:
                if len(node.children) != 2:
                    raise EstimationError(
                        f"tree {tid} is not binarized at node {path}"
                    )
                left, right = node.children
                rhs = (
                    left.label, state_at(tid, path + (0,), left.label),
                    right.label, state_at(tid, path + (1,), right.label),
                )
                binary_counts[ctx][rhs] += 1

    n_trees = len(treebank)
    roots = {ctx: count / n_trees for ctx, count in root_counts.items()}
    binary = {
        ctx: {rhs: c / sum(table.values()) for rhs, c in table.items()}
        for ctx, table in binary_counts.items()
    }
    lexical = {
        ctx: {word: c / sum(table.values()) for word, c in table.items()}
        for ctx, table in lexical_counts.items()
    }
    grammar = LatentGrammar(layers=layers, roots=roots, binary=binary, lexical=lexical)
    both = grammar.interminals & grammar.preterminals
    if both:
        raise EstimationError(
            f"symbols used both as interminal and preterminal: {sorted(both)}"
        )
    return grammar


def annotate_bilayered(
    treebank: Sequence[Tree],
    syntactic: StateAssignment,
    semantic: StateAssignment,
) -> tuple[list[Tree], LatentGrammar]:
    """Doubly-annotated treebank plus the two-layer grammar.

    Returned trees carry "label-h1-h2" decorations for inspection; the
    grammar is the MLE over the joint annotation.
    """
    grammar = estimate_mle(treebank, syntactic, semantic)

    def decorate(tid: int, tree: Tree, path: Path) -> Tree:
        syn = syntactic.states[(tid, path)]
        sem = _inherited_semantic(semantic, tid, path, tree.label)
        label = f"{tree.label}-{syn}-{sem}"
        if tree.is_preterminal:
            return Tree(label, word=tree.word)
        return Tree(
            label,
            children=tuple(
                decorate(tid, c, path + (i,)) for i, c in enumerate(tree.children)
            ),
        )

    annotated = [decorate(tid, tree, ()) for tid, tree in enumerate(treebank)]
    return annotated, grammar


# --- end-to-end grammar training ---------------------------------------------

def _cluster_layer(
    treebank: Sequence[Tree],
    m: int,
    seed: int,
    layer: str,
    index: Mapping[int, Mapping[int, set[str]]] | None = None,
) -> StateAssignment:
    """Cluster every node that has ``layer`` features (all nodes for the
    syntactic layer, all but "@" nodes for the semantic one)."""
    symbols: dict[NodeKey, str] = {}
    vectors: dict[NodeKey, FeatureVector] = {}
    for tid, tree in enumerate(treebank):
        aligned = None if index is None else index.get(tid, {})
        features = extract_features(tree, layer, aligned)
        for path, node in iter_nodes(tree):
            if path in features:
                symbols[(tid, path)] = node.label
                vectors[(tid, path)] = features[path]
    return cluster_states(vectors, symbols, m, seed)


def train_syntactic_assignment(
    treebank: Sequence[Tree], m: int, seed: int
) -> StateAssignment:
    return _cluster_layer(treebank, m, seed, "syntactic")


def train_semantic_assignment(
    treebank: Sequence[Tree],
    records: Iterable[AlignmentRecord],
    m: int,
    seed: int,
) -> StateAssignment:
    index = aligned_words_index(treebank, records)
    return _cluster_layer(treebank, m, seed, "semantic", index)


def train_grammar(treebank: Sequence[Tree], m: int, seed: int) -> LatentGrammar:
    """One-layer grammar: cluster syntactic states, then count."""
    if not treebank:
        raise EmptyTreebank("cannot train on an empty treebank")
    return estimate_mle(treebank, train_syntactic_assignment(treebank, m, seed))


def train_bilayered_grammar(
    treebank: Sequence[Tree],
    records: Iterable[AlignmentRecord],
    m1: int,
    m2: int,
    seed: int,
) -> tuple[list[Tree], LatentGrammar]:
    """Two-layer grammar from a treebank plus paraphrase-pair alignments."""
    if not treebank:
        raise EmptyTreebank("cannot train on an empty treebank")
    syn = train_syntactic_assignment(treebank, m1, seed)
    sem = train_semantic_assignment(treebank, records, m2, seed)
    return annotate_bilayered(treebank, syn, sem)
