"""Latent-state learning: inside/outside features, per-symbol clustering,
and frequency-count parameter estimation.

The pipeline: one walk per (binarized) tree gives every node its symbol
and its feature vector; vectors are clustered per nonterminal symbol into
``m`` states, and a grammar is read off the treebank and its states by
relative-frequency counting.  The alignments of paraphrase pairs select
the second, semantic layer: given them, the walk gives bag-of-word
features enriched with the aligned words instead of syntactic ones, and
counting over both layers yields the two-layer grammar used for
paraphrase lattices.
Two-layer training returns that grammar with the two state assignments it
was counted from; no state-annotated copy of the treebank is built.

The trees come from ``treebank.normalize`` and ``treebank.binarize``,
which build new nodes only where they change something and share every
unchanged subtree with their input.  Counting reads each node's state
once, in one walk per tree, and that walk checks coverage: a layer is
checked node by node only after the walk fails, to name the first node
it misses.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .data_files import records
from .errors import AssignmentMismatch, EmptyTreebank, EstimationError
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
    """One aligned question pair; ``where`` is the ``path:line`` it was
    read from, if any, and takes no part in equality."""

    qid_a: int
    qid_b: int
    pairs: tuple[tuple[int, int], ...]
    where: str = field(default="", compare=False)


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
        alignments.append(AlignmentRecord(qa, qb, pairs, f"{path}:{lineno}"))
    return alignments


def aligned_words_index(
    treebank: Sequence[Tree], records: Iterable[AlignmentRecord]
) -> dict[int, dict[int, set[str]]]:
    """Per tree, per token position: the words aligned to that token.

    Tree ids and token indices are validated against the treebank and
    the tree yields; an error names the record's ``where``.
    """
    yields = [tree_yield(t) for t in treebank]
    index: dict[int, dict[int, set[str]]] = defaultdict(lambda: defaultdict(set))
    for rec in records:
        where = f"{rec.where}: " if rec.where else ""
        for qid in (rec.qid_a, rec.qid_b):
            if not 0 <= qid < len(treebank):
                raise EstimationError(
                    f"{where}alignment references unknown tree {qid}; "
                    f"the treebank has {len(treebank)} trees"
                )
        ya, yb = yields[rec.qid_a], yields[rec.qid_b]
        for i, j in rec.pairs:
            if not (0 <= i < len(ya) and 0 <= j < len(yb)):
                bad = (rec.qid_a, i, ya) if not 0 <= i < len(ya) else (rec.qid_b, j, yb)
                qid, pos, words = bad
                raise EstimationError(
                    f"{where}alignment index out of range: token {pos} of tree {qid}, "
                    f"which has {len(words)} tokens"
                )
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
    tree: Tree, aligned: Mapping[int, set[str]] | None = None
) -> dict[Path, tuple[str, FeatureVector]]:
    """``(symbol, feature vector)`` of every node of a binarized tree,
    keyed by path, from one walk of the tree.

    Without ``aligned`` the vectors are the syntactic layer's, which
    captures the local context: the node's rule signature, first/last
    inside terminal, parent and sibling labels (``"TOP"`` and ``"none"``
    at the root; the sibling is the first other child of the parent) and
    a span-length bucket.  With ``aligned``, which maps token positions
    of this tree to the words aligned to them in paraphrase pairs (``{}``
    when none are), they are the semantic layer's: a bag of the
    inside-yield words plus every word aligned to them, as presence
    indicators.  The semantic layer has no entry for "@" nodes, which
    inherit their parent's semantic state.
    """
    terms: list[str] = []  # the yield, filled left to right as the walk goes
    features: dict[Path, tuple[str, FeatureVector]] = {}

    def walk(node: Tree, path: Path, parent: str, sibling: str, start: int) -> int:
        """Record ``node`` and its descendants; return the end of its span.

        A node is recorded after its children, so its words are in
        ``terms`` by then."""
        if node.is_preterminal:
            terms.append(node.word)
            end, rhs = start + 1, node.word
        else:
            children = node.children
            end = start
            for i, child in enumerate(children):
                other = "none" if len(children) == 1 else children[1 if i == 0 else 0].label
                end = walk(child, path + (i,), node.label, other, end)
            rhs = " ".join(c.label for c in children)
        if aligned is None:
            features[path] = node.label, {
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
            features[path] = node.label, {f"w={w}": 1.0 for w in words}
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


def _pair_distances(points: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """The n x n matrix whose entry (i, j) is
    ``_sq_distances(points, squares, points[j])[i]``, bit for bit.

    Each row pair is summed once: row j's triangle, from column j on, is
    measured with row j as the center and mirrored into column j.  The
    matrix is exactly symmetric.  Column t contributes the same float to
    the distance of x from center y as to that of y from center x:
    ``(x - y) ** 2 == (y - x) ** 2``, and where one of them is 0 both
    give the other's square.  Each row's terms are summed in the same
    order whatever rows are measured with it.
    """
    import numpy as np

    n = points.shape[0]
    pair = np.empty((n, n))
    for j in range(n):
        pair[j, j:] = _sq_distances(points[j:], squares[j:], points[j])
        pair[j:, j] = pair[j, j:]
    return pair


def _center_columns(pair: np.ndarray, chosen: list[int]) -> np.ndarray:
    """``pair[:, chosen]``, C-contiguous, built in ``pair``'s own buffer.

    Row by row, row i's chosen columns are gathered into one buffer of
    len(chosen) floats and written as row i of the n x len(chosen)
    layout at the front of the buffer.  That row starts no later than
    row i did, so the rows after i are still unread and in place.
    ``pair`` is overwritten.
    """
    import numpy as np

    n, k = pair.shape[0], len(chosen)
    order = np.array(chosen)
    row = np.empty(k)
    flat = pair.reshape(-1)
    for i in range(n):
        np.take(pair[i], order, out=row)
        flat[i * k:(i + 1) * k] = row
    return flat[:n * k].reshape(n, k)


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
    :func:`_sq_distances` of center c over all rows.  Each row is summed
    in the order of the dense ``((points[:, None] - centers[None]) **
    2).sum(axis=2)``, and a column that is not recomputed holds the floats
    a recomputation would give, so seeding's D^2 (the running minimum of
    the columns), the draw probabilities and every ``dist.argmin(axis=1)``
    assignment are the dense ones, bit for bit.

    When m < n, a column is computed when seeding chooses its center.
    When m >= n, every row can be a center, so seeding reads its columns
    from :func:`_pair_distances`, which sums each row pair once; that
    matrix, its columns put in center order in place, becomes ``dist``.
    Either way, a column is computed again only when an update moves its
    center (the new mean differs from the old one).  A seeded center is a
    view of its row until then, so the distances are the one n x min(m, n)
    matrix a symbol holds.  The update takes each center's rows in index
    order from one stable sort of the labels, so its sums are those of a
    boolean mask per center.
    """
    import numpy as np

    n = points.shape[0]
    squares = points ** 2
    every_row = m >= n
    if every_row:
        pair = _pair_distances(points, squares)
    else:
        dist = np.empty((n, m))
    chosen: list[int] = []
    probs = weights / weights.sum()
    while len(chosen) < min(m, n):
        if chosen:
            mass = weights * dist2
            total = mass.sum()
            if total <= 0.0:
                # All remaining points coincide with chosen centers.
                break
            probs = mass / total
        row = int(rng.choice(n, p=probs))
        if every_row:
            column = pair[row]
        else:
            column = _sq_distances(points, squares, points[row])
            dist[:, len(chosen)] = column
        dist2 = np.minimum(dist2, column) if chosen else column.copy()
        chosen.append(row)

    k = len(chosen)
    centers = [points[row] for row in chosen]
    dist = _center_columns(pair, chosen) if every_row else dist[:, :k]
    labels = dist.argmin(axis=1)
    for _ in range(KMEANS_MAX_ITER - 1):
        order = np.argsort(labels, kind="stable")
        ends = np.cumsum(np.bincount(labels, minlength=k)).tolist()
        start = 0
        for c, end in enumerate(ends):
            if end > start:
                rows = order[start:end]
                w = weights[rows]
                center = (points[rows] * w[:, None]).sum(axis=0) / w.sum()
                if (center != centers[c]).any():
                    centers[c] = center
                    dist[:, c] = _sq_distances(points, squares, center)
            start = end
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

    A symbol's points are one matrix, filled by one scatter; each row is
    divided by ``math.sqrt(row.dot(row))``, the float ``np.linalg.norm``
    gives for a 1-D float64 row.  :func:`_kmeans` then holds one n x
    min(m, n) distance matrix for the symbol's n rows: with m >= n it is
    the matrix of every row pair, each pair summed once, and its entries
    are the floats of one column per center, since a pair's squared
    differences are the same floats either way round.
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
        rows, cols, values = [], [], []
        for row, items in enumerate(distinct):
            for name, count in items:
                rows.append(row)
                cols.append(col[name])
                values.append(count * idf[name])
        points = np.zeros((len(distinct), len(names)))
        points[rows, cols] = values
        # np.linalg.norm of a 1-D float64 row is sqrt(row.dot(row)); a zero
        # row is divided by 1.0, which leaves it as it is.
        norms = [math.sqrt(row.dot(row)) for row in points]
        points /= np.array([norm if norm > 0 else 1.0 for norm in norms])[:, None]
        weights = np.array([float(len(groups[items])) for items in distinct])

        labels = _kmeans(points, weights, m, _symbol_seed(seed, symbol)).tolist()
        for label, items in zip(labels, distinct):
            for key in groups[items]:
                states[key] = label
    return StateAssignment(m=m, states=states)


# --- maximum likelihood estimation ------------------------------------------

def _check_coverage(
    treebank: Sequence[Tree], assignment: StateAssignment, semantic_layer: bool
) -> None:
    """Name the first node in tree order that ``assignment`` misses; the
    semantic layer needs no state for "@" nodes."""
    layer = "semantic" if semantic_layer else "syntactic"
    for tid, tree in enumerate(treebank):
        for path, node in iter_nodes(tree):
            if semantic_layer and node.label.startswith(BIN_PREFIX):
                continue
            if (tid, path) not in assignment.states:
                raise AssignmentMismatch(
                    f"{layer} layer misses tree {tid} node {path}"
                )


def _node_state(
    key: NodeKey,
    label: str,
    syntactic: StateAssignment,
    semantic: StateAssignment | None,
    inherited: int | None,
) -> tuple[int, int | None, int | None]:
    """The node's syntactic and semantic states, and the semantic state
    its children inherit (both None without a semantic layer).

    ``inherited`` is the semantic state of the node's nearest proper
    ancestor that has one.  An "@" node takes it as its own: binarization
    artifacts carry the semantic state of the original parent.  Its
    children inherit the "@" node's own entry, if it has one.
    """
    syn = syntactic.states[key]
    if semantic is None:
        return syn, None, None
    if not label.startswith(BIN_PREFIX):
        sem = semantic.states[key]
        return syn, sem, sem
    if inherited is None:
        raise AssignmentMismatch(f"no semantic ancestor for tree {key[0]} node {key[1]}")
    return syn, inherited, semantic.states.get(key, inherited)


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
    of their nearest ancestor that has one, the original parent node.

    Counting is one pre-order walk per tree that reads each node's state
    once, as a child or as the root, and carries it down.  The walk reads
    every node, so it checks coverage as it goes: only when it fails are
    the layers checked in full, syntactic then semantic, so that a
    missing node is reported as the first one in tree order.
    """
    if not treebank:
        raise EmptyTreebank("cannot estimate from an empty treebank")
    if semantic is not None:
        layers = LayerConfig(assignment.m, semantic.m)
    else:
        layers = LayerConfig(assignment.m)

    root_counts: Counter[Context] = Counter()
    binary_counts: dict[Context, Counter[BinaryRhs]] = defaultdict(Counter)
    lexical_counts: dict[Context, Counter[str]] = defaultdict(Counter)

    try:
        for tid, tree in enumerate(treebank):
            syn, sem, inherited = _node_state((tid, ()), tree.label, assignment, semantic, None)
            state = StateLabel(syn, sem)
            root_counts[(tree.label, state)] += 1
            stack = [((), tree, state, inherited)]
            while stack:
                path, node, state, inherited = stack.pop()
                ctx = (node.label, state)
                if node.is_preterminal:
                    lexical_counts[ctx][node.word] += 1
                    continue
                if len(node.children) != 2:
                    raise EstimationError(
                        f"tree {tid} is not binarized at node {path}"
                    )
                left, right = node.children
                left_path, right_path = path + (0,), path + (1,)
                syn, sem, left_inherited = _node_state(
                    (tid, left_path), left.label, assignment, semantic, inherited
                )
                left_state = StateLabel(syn, sem)
                syn, sem, right_inherited = _node_state(
                    (tid, right_path), right.label, assignment, semantic, inherited
                )
                right_state = StateLabel(syn, sem)
                binary_counts[ctx][(left.label, left_state, right.label, right_state)] += 1
                stack.append((right_path, right, right_state, right_inherited))
                stack.append((left_path, left, left_state, left_inherited))
    except (KeyError, EstimationError):
        _check_coverage(treebank, assignment, semantic_layer=False)
        if semantic is not None:
            _check_coverage(treebank, semantic, semantic_layer=True)
        raise

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


# --- end-to-end grammar training ---------------------------------------------

def train_assignment(
    treebank: Sequence[Tree],
    m: int,
    seed: int,
    aligned: Mapping[int, Mapping[int, set[str]]] | None = None,
) -> StateAssignment:
    """Cluster the nodes of ``treebank`` into ``m`` states per symbol.

    Without ``aligned`` every node is clustered on its syntactic
    features.  With ``aligned``, ``aligned_words_index``'s map of the
    treebank, every node but the "@" nodes is clustered on its semantic
    features.
    """
    if not treebank:
        raise EmptyTreebank("cannot train on an empty treebank")
    symbols: dict[NodeKey, str] = {}
    vectors: dict[NodeKey, FeatureVector] = {}
    for tid, tree in enumerate(treebank):
        features = extract_features(tree, None if aligned is None else aligned.get(tid, {}))
        for path, (symbol, vector) in features.items():
            key = (tid, path)
            symbols[key] = symbol
            vectors[key] = vector
    return cluster_states(vectors, symbols, m, seed)


def train_grammar(treebank: Sequence[Tree], m: int, seed: int) -> LatentGrammar:
    """One-layer grammar: cluster syntactic states, then count."""
    return estimate_mle(treebank, train_assignment(treebank, m, seed))


def train_bilayered_grammar(
    treebank: Sequence[Tree],
    records: Iterable[AlignmentRecord],
    m1: int,
    m2: int,
    seed: int,
) -> tuple[tuple[StateAssignment, StateAssignment], LatentGrammar]:
    """Two-layer grammar from a treebank plus paraphrase-pair alignments:
    ``((syntactic, semantic), grammar)``, the two state assignments it
    clustered and the grammar counted from them."""
    syn = train_assignment(treebank, m1, seed)
    sem = train_assignment(treebank, m2, seed, aligned_words_index(treebank, records))
    return (syn, sem), estimate_mle(treebank, syn, sem)
