from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_features,
    node_contexts,
    random_trees,
    reference_annotate_bilayered,
    reference_cluster_states,
    reference_estimate_mle,
    reference_kmeans,
)

from paralat import estimation
from paralat.errors import AssignmentMismatch, EmptyTreebank, EstimationError
from paralat.estimation import (
    AlignmentRecord,
    StateAssignment,
    aligned_words_index,
    cluster_states,
    estimate_mle,
    extract_features,
    read_alignments,
    train_assignment,
    train_bilayered_grammar,
    train_grammar,
)
from paralat.data_files import data_path
from paralat.grammar import StateLabel, save_grammar, serialize_grammar, validate
from paralat.treebank import (
    BIN_PREFIX,
    Tree,
    binarize,
    iter_nodes,
    normalize,
    parse_tree,
    read_treebank,
    tree_yield,
)

# Alignments over the paraphrase triplet that make all three root bags equal:
# every content position maps onto its counterpart(s), and "day" also aligns
# to "celebrated" so tree 0 sees the full shared vocabulary.
TRIPLET_ALIGNMENTS = [
    AlignmentRecord(0, 1, ((0, 0), (1, 0), (2, 1), (3, 2))),
    AlignmentRecord(0, 2, ((0, 0), (1, 0), (1, 3), (2, 1), (3, 2))),
    AlignmentRecord(1, 2, ((0, 0), (0, 3), (1, 1), (2, 2))),
]

# Coordinates: signed zeros, negatives and arbitrary floats in [-4, 4].
_COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]), st.floats(-4.0, 4.0))
_SCALES = st.sampled_from([2.0, 3.0, 0.5, -1.0, 7.0])


@st.composite
def kmeans_inputs(draw):
    """(points, weights, seed): dense or sparse rows, some scaled copies of
    earlier rows and some all zero (with ``-0.0`` entries), optionally
    L2-normalized as ``cluster_states`` does."""
    n, d = draw(st.integers(2, 16)), draw(st.integers(1, 12))
    sparse = draw(st.booleans())
    points = np.zeros((n, d))
    for i in range(n):
        kind = draw(st.sampled_from(["fresh", "copy", "zero"] if i else ["fresh", "zero"]))
        if kind == "copy":
            points[i] = points[draw(st.integers(0, i - 1))] * draw(_SCALES)
        elif kind == "zero":
            points[i] = np.where(np.arange(d) % 2 == 1, -0.0, 0.0)
        else:
            row = np.array(draw(st.lists(_COORDINATES, min_size=d, max_size=d)))
            if sparse:
                row[draw(st.integers(1, d)):] = 0.0
                row = np.roll(row, draw(st.integers(0, d - 1)))
            points[i] = row
    if draw(st.booleans()):
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        points /= np.where(norms > 0, norms, 1.0)
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=float)
    return points, weights, draw(st.integers(0, 2**32 - 1))


@st.composite
def symbol_vectors(draw):
    """(vectors, symbols) over two symbols: bags of up to five features,
    some scaled copies of earlier bags and some all zero."""
    vectors, symbols = {}, {}
    for i in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["fresh", "copy", "zero"] if i else ["fresh", "zero"]))
        if kind == "copy":
            scale = draw(_SCALES)
            source = vectors[(draw(st.integers(0, i - 1)), ())]
            vec = {name: value * scale for name, value in source.items()}
        elif kind == "zero":
            vec = {"a": 0.0, "b": -0.0}
        else:
            names = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=5, unique=True))
            vec = {name: draw(_COORDINATES) for name in names}
        vectors[(i, ())] = vec
        symbols[(i, ())] = draw(st.sampled_from(["NP", "S"]))
    return vectors, symbols


def _lower_leaves(tree: Tree) -> Tree:
    if tree.is_preterminal:
        return Tree(tree.label.lower(), word=tree.word)
    return Tree(tree.label, children=tuple(_lower_leaves(c) for c in tree.children))


def _some_of(keys):
    """No key, three times in four; else one or two of ``keys``."""
    return st.integers(0, 3).flatmap(
        lambda pick: st.lists(st.sampled_from(keys), min_size=1, max_size=2)
        if pick == 3 and keys
        else st.just([])
    )


@st.composite
def counting_inputs(draw):
    """(treebank, syntactic, semantic or None) with faults to report.

    The trees are binarized, but now and then one is left n-ary or given
    an "@" root, and some have a root of four or five children, which
    binarization makes a chain of "@" nodes.  Preterminal labels are
    mostly lowercased, so that most treebanks use no symbol both as an
    interminal and as a preterminal.
    The states cover every node (every non-"@" node, for the semantic
    layer), then some keys are dropped from either layer, at times the
    parent of an "@" node, the key that node inherits from; some "@" nodes
    get a semantic entry of their own.
    """
    distinct = draw(st.integers(0, 5)) > 0
    trees = []
    for raw in draw(st.lists(random_trees(), min_size=1, max_size=3)):
        shape = draw(st.sampled_from(["binary"] * 4 + ["wide"] * 2 + ["n-ary", "@ root"]))
        if shape == "wide":  # binarized into a chain of "@" nodes
            raw = Tree("S", children=tuple(draw(st.lists(random_trees(1), min_size=4, max_size=5))))
        tree = normalize(_lower_leaves(raw) if distinct else raw)
        if shape != "n-ary":
            tree = binarize(tree)
        if shape == "@ root" and not tree.is_preterminal:
            tree = Tree(BIN_PREFIX + tree.label, children=tree.children)
        trees.append(tree)
    labels = {
        (tid, path): node.label for tid, tree in enumerate(trees) for path, node in iter_nodes(tree)
    }
    keys = list(labels)
    bin_keys = [key for key in keys if labels[key].startswith(BIN_PREFIX)]
    m1, m2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    syn = {key: draw(st.integers(0, m1 - 1)) for key in keys}
    for key in draw(_some_of(keys)):
        syn.pop(key, None)
    if not draw(st.booleans()):
        return trees, StateAssignment(m1, syn), None
    sem = {key: draw(st.integers(0, m2 - 1)) for key in keys if key not in bin_keys}
    for key in bin_keys:
        if draw(st.booleans()):
            sem[key] = draw(st.integers(0, m2 - 1))
    if bin_keys:
        for tid, path in draw(_some_of(bin_keys)):
            if path:
                sem.pop((tid, path[:-1]), None)
    for key in draw(_some_of(keys)):
        sem.pop(key, None)
    return trees, StateAssignment(m1, syn), StateAssignment(m2, sem)


def _outcome(call):
    """The result of ``call`` with each grammar table as its list of items
    in insertion order, or the type and message of what it raised."""

    def tables(grammar):
        return (
            grammar.layers,
            list(grammar.roots.items()),
            [(ctx, list(table.items())) for ctx, table in grammar.binary.items()],
            [(ctx, list(table.items())) for ctx, table in grammar.lexical.items()],
        )

    try:
        return tables(call())
    except Exception as exc:  # noqa: BLE001 - the failure is what is compared
        return type(exc), str(exc)


# (S (A a) (@S (B b) (@S (C c) (D d)))): the upper "@S" has a semantic
# entry of its own, which the lower one inherits in place of the root's.
_WIDE = binarize(parse_tree("(S (A a) (B b) (C c) (D d))"))
_WIDE_KEYS = [(0, path) for path, _ in iter_nodes(_WIDE)]


class TestCountingWalk:
    @settings(max_examples=300, deadline=None)
    @given(counting_inputs())
    @example((
        [_WIDE],
        StateAssignment(1, {key: 0 for key in _WIDE_KEYS}),
        StateAssignment(2, {**{key: 0 for key in _WIDE_KEYS if key != (0, (1, 1))}, (0, (1,)): 1}),
    ))
    def test_equals_two_phase_reference(self, inputs):
        trees, syn, sem = inputs
        assert _outcome(lambda: estimate_mle(trees, syn, sem)) == _outcome(
            lambda: reference_estimate_mle(trees, syn, sem)
        )


class TestExtractFeatures:
    def test_preterminal_syntactic(self, triplet_trees):
        # (NN day) inside the leftmost question tree.
        feats = extract_features(triplet_trees[0])[(0, 1)]
        expected = {
            "rule=NN->day": 1.0,
            "first=day": 1.0,
            "last=day": 1.0,
            "parent=WHNP": 1.0,
            "sibling=WP": 1.0,
            "len=1": 1.0,
        }
        assert feats == ("NN", expected)

    def test_root_sentinels(self, triplet_trees):
        _, feats = extract_features(triplet_trees[0])[()]
        assert "parent=TOP" in feats
        assert "sibling=none" in feats
        assert "len=3-5" in feats

    def test_root_case(self):
        # The root has no outside: its span is the whole yield.
        tree = parse_tree("(S (A a) (B b))")
        assert extract_features(tree)[()] == ("S", {
            "rule=S->A B": 1.0,
            "first=a": 1.0,
            "last=b": 1.0,
            "parent=TOP": 1.0,
            "sibling=none": 1.0,
            "len=2": 1.0,
        })
        assert extract_features(tree, aligned={})[()] == ("S", {"w=a": 1.0, "w=b": 1.0})

    def test_preterminal_span(self):
        tree = parse_tree("(S (A a) (B b))")
        assert extract_features(tree)[(0,)] == ("A", {
            "rule=A->a": 1.0,
            "first=a": 1.0,
            "last=a": 1.0,
            "parent=S": 1.0,
            "sibling=B": 1.0,
            "len=1": 1.0,
        })
        assert extract_features(tree, aligned={})[(1,)] == ("B", {"w=b": 1.0})

    def test_figure_whnp_span(self, triplet_trees):
        # WHNP covers "what day"; "is nochebuena" lies outside it.
        _, syntactic = extract_features(triplet_trees[0])[(0,)]
        assert {"first=what", "last=day", "len=2"} <= set(syntactic)
        semantic = extract_features(triplet_trees[0], aligned={})[(0,)]
        assert semantic == ("WHNP", {"w=what": 1.0, "w=day": 1.0})

    @given(random_trees())
    def test_matches_brute_force_reference(self, tree):
        for subject in (tree, binarize(normalize(tree))):
            full = tree_yield(subject)
            aligned = {pos: {f"x{pos % 3}"} for pos in range(0, len(full), 2)}
            assert extract_features(subject) == brute_force_features(subject)
            assert extract_features(subject, aligned) == brute_force_features(subject, aligned)
            # Each reference span is the node's inside yield as one slice of
            # the full yield, so inside and outside partition the tree.
            for node, _, _, (start, end) in node_contexts(subject).values():
                assert full[start:end] == tree_yield(node)

    @given(random_trees())
    def test_symbols_are_the_node_labels(self, tree):
        # The keys are every node (syntactic) or every node but the "@"
        # nodes (semantic), each with its own label as its symbol.
        for subject in (tree, binarize(normalize(tree))):
            labels = {path: node.label for path, node in iter_nodes(subject)}
            unbinarized = {
                path: label for path, label in labels.items() if not label.startswith(BIN_PREFIX)
            }
            for aligned, expected in ((None, labels), ({}, unbinarized)):
                features = extract_features(subject, aligned)
                assert {path: symbol for path, (symbol, _) in features.items()} == expected

    def test_semantic_bag_includes_aligned_words(self, triplet_trees):
        index = aligned_words_index(triplet_trees, TRIPLET_ALIGNMENTS)
        # The "day" leaf spans position 1 of tree 0; day aligns to "when".
        _, feats = extract_features(triplet_trees[0], aligned=index[0])[(0, 1)]
        assert feats["w=day"] == 1.0
        assert feats["w=when"] == 1.0
        assert "w=nochebuena" not in feats


class TestClusterStates:
    def test_state_count_below_one_is_refused(self):
        with pytest.raises(EstimationError, match="state count must be >= 1, got 0"):
            cluster_states({(0, ()): {"x": 1.0}}, {(0, ()): "S"}, m=0, seed=0)

    def test_no_vectors_is_refused(self):
        with pytest.raises(EstimationError, match="no vectors to cluster"):
            cluster_states({}, {}, m=2, seed=0)

    def test_single_state_assigns_zero(self, triplet_trees):
        assignment = train_assignment(triplet_trees, m=1, seed=0)
        assert set(assignment.states.values()) == {0}

    def test_identical_vectors_share_cluster(self):
        vectors = {
            (0, ()): {"x": 1.0},
            (1, ()): {"x": 1.0},
        }
        symbols = {(0, ()): "S", (1, ()): "S"}
        assignment = cluster_states(vectors, symbols, m=2, seed=3)
        assert assignment.states[(0, ())] == assignment.states[(1, ())]

    def test_m24_assignment_covers_every_node(self, triplet_trees):
        assignment = train_assignment(triplet_trees, m=24, seed=0)
        for tid, tree in enumerate(triplet_trees):
            for path, _ in iter_nodes(tree):
                assert (tid, path) in assignment.states
        assert all(s < 24 for s in assignment.states.values())

    def test_deterministic(self, triplet_trees):
        a = train_assignment(triplet_trees, m=4, seed=9)
        b = train_assignment(triplet_trees, m=4, seed=9)
        assert a == b

    def test_permutation_stable_partition(self, triplet_trees):
        a = train_assignment(triplet_trees, m=3, seed=11)
        order = [2, 0, 1]
        shuffled = [triplet_trees[i] for i in order]
        b = train_assignment(shuffled, m=3, seed=11)
        # Same partition up to tree relabeling: nodes co-clustered before
        # must be co-clustered after.
        def partition(assign, tree_order):
            groups = {}
            for (tid, path), state in assign.states.items():
                groups.setdefault(state, set()).add((tree_order[tid], path))
            return {frozenset(g) for g in groups.values()}

        assert partition(a, [0, 1, 2]) == partition(b, order)

    @pytest.mark.parametrize("first_seed", [0, 12, 24, 36])
    def test_blocked_kmeans_equals_one_piece_reference(self, first_seed):
        for seed in range(first_seed, first_seed + 12):
            data = np.random.default_rng(seed)
            n, d, m = int(data.integers(2, 40)), int(data.integers(1, 6)), int(data.integers(1, 8))
            # Small integer coordinates make distance ties common.
            points = np.unique(data.integers(0, 4, size=(n, d)).astype(float), axis=0)
            weights = data.integers(1, 5, size=points.shape[0]).astype(float)
            labels = estimation._kmeans(points, weights, m, np.random.default_rng(seed))
            expected = reference_kmeans(
                points, weights, m, np.random.default_rng(seed), estimation.KMEANS_MAX_ITER
            )
            assert labels.tolist() == expected.tolist()

    @given(kmeans_inputs())
    def test_kmeans_equals_one_piece_reference_on_any_rows(self, inputs):
        points, weights, seed = inputs
        n = points.shape[0]
        for m in (n // 2 + 1, n, n + 1, 2 * n + 1):
            labels = estimation._kmeans(points, weights, m, np.random.default_rng(seed))
            expected = reference_kmeans(
                points, weights, m, np.random.default_rng(seed), estimation.KMEANS_MAX_ITER
            )
            assert labels.tolist() == expected.tolist()

    @given(symbol_vectors(), st.integers(1, 30), st.integers(0, 2**32 - 1))
    @example(
        (
            {(i, ()): vec for i, vec in enumerate(
                [{"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 4.0}, {"a": 0.0}, {"c": -1.5},
                 {"a": 3.0, "b": 6.0}, {"b": 1.0, "c": 1.0}]
            )},
            dict.fromkeys([(i, ()) for i in range(6)], "S"),
        ),
        4,
        1,
    )
    def test_equals_row_by_row_reference(self, inputs, m, seed):
        # The all-zero vector keeps its zero row; scaled copies are equal,
        # or equal but for rounding, once normalized.
        vectors, symbols = inputs
        assert cluster_states(vectors, symbols, m, seed) == reference_cluster_states(
            vectors, symbols, m, seed
        )

    @staticmethod
    def _count_assignments(monkeypatch):
        """Record the rows measured by every ``_sq_distances`` call: one
        call per distance column computed."""
        calls = []
        original = estimation._sq_distances

        def counted(points, squares, center):
            calls.append(points.shape[0])
            return original(points, squares, center)

        monkeypatch.setattr(estimation, "_sq_distances", counted)
        return calls

    def test_seeded_centers_equal_one_piece_reference(self, monkeypatch):
        # m >= n, m > 2n and k < n.  Rows are scaled copies of each other, so
        # some are equal once L2-normalized, as in cluster_states, and some
        # differ only by rounding, so that Lloyd's update can move a center
        # onto a neighbouring row.  When m >= n every row can be a center:
        # seeding measures each row pair once, row j against rows j..n-1,
        # and a column is computed again, over all rows, only for a center
        # the update moved.  When m < n each seeded column covers all rows.
        calls = self._count_assignments(monkeypatch)
        unmoved = moved = 0
        for seed in range(60):
            data = np.random.default_rng(seed)
            n, d = int(data.integers(2, 30)), int(data.integers(1, 5))
            raw = data.integers(0, 3, size=(n, d)) * data.integers(1, 4, size=(n, 1))
            norms = np.linalg.norm(raw, axis=1, keepdims=True)
            points = raw / np.where(norms > 0, norms, 1.0)
            weights = data.integers(1, 5, size=n).astype(float)
            for m in (n // 2 + 1, n, n + 1, 2 * n + 1):
                calls.clear()
                labels = estimation._kmeans(points, weights, m, np.random.default_rng(seed))
                expected = reference_kmeans(
                    points, weights, m, np.random.default_rng(seed), estimation.KMEANS_MAX_ITER
                )
                assert labels.tolist() == expected.tolist()
                if m >= n:
                    assert calls[:n] == list(range(n, 0, -1))
                    assert set(calls[n:]) <= {n}
                    unmoved += len(calls) == n
                    moved += len(calls) > n
                else:
                    assert calls and set(calls) == {n}
        assert unmoved > 100 and moved > 0

    def test_lloyd_runs_only_when_a_row_is_off_center(self, monkeypatch):
        # With m >= 5 seeding measures each row pair once, and with every
        # row on a center no center moves.  With 3 centers, one column per
        # chosen center; the two rows off-center join center 0, whose
        # column is computed again once it moves.
        calls = self._count_assignments(monkeypatch)
        points, weights = np.eye(5), np.ones(5)
        for m in (5, 6, 11):
            calls.clear()
            labels = estimation._kmeans(points, weights, m, np.random.default_rng(0))
            assert sorted(labels) == [0, 1, 2, 3, 4]
            assert calls == [5, 4, 3, 2, 1]
        calls.clear()
        estimation._kmeans(points, weights, 3, np.random.default_rng(0))
        assert calls == [5] * 4

    def test_centers_moved_by_rounding_reassign_only_their_rows(self, monkeypatch):
        # With weight 3, the mean (3x)/3 of a row differs from x in the last
        # bit for some rows, so their centers move: after the one pass over
        # the row pairs, each moved center's column is computed again over
        # all rows, and the other columns are kept.
        calls = self._count_assignments(monkeypatch)
        data = np.random.default_rng(0)
        points = data.random((6, 4))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        weights = np.full(6, 3.0)
        moved = int(((points * 3.0 / 3.0) != points).any(axis=1).sum())
        assert 0 < moved < 6
        labels = estimation._kmeans(points, weights, 6, np.random.default_rng(0))
        assert labels.tolist() == reference_kmeans(
            points, weights, 6, np.random.default_rng(0), estimation.KMEANS_MAX_ITER
        ).tolist()
        assert sorted(labels) == [0, 1, 2, 3, 4, 5]
        assert calls == [6, 5, 4, 3, 2, 1] + [6] * moved

    def test_rows_equal_after_normalization_share_a_state(self, monkeypatch):
        # Three rows, two of them equal once normalized: seeding stops at
        # two centers, but with m >= 3 it has measured every row pair.
        calls = self._count_assignments(monkeypatch)
        keys = [(0, ()), (1, ()), (2, ())]
        vectors = dict(zip(keys, [{"a": 1.0}, {"a": 2.0}, {"b": 1.0}]))
        assignment = cluster_states(vectors, dict.fromkeys(keys, "S"), m=5, seed=3)
        states = [assignment.states[key] for key in keys]
        assert states[0] == states[1] != states[2]
        assert calls == [3, 2, 1]

    # Row widths around numpy's pairwise summation: 8-wide unrolled blocks
    # below 128 elements, halved recursively above.
    WIDE = (9, 129, 288, 700)

    @staticmethod
    def _sparse_rows(data, n, d):
        """``n`` L2-normalized rows of 1-6 nonzero columns out of ``d``; a
        third are scaled copies of earlier rows, so they are equal, or
        equal but for rounding, once normalized."""
        raw = np.zeros((n, d))
        for i in range(n):
            if i >= 3 and data.random() < 1 / 3:
                raw[i] = raw[data.integers(0, i)] * data.integers(2, 6)
            else:
                cols = data.choice(d, size=min(d, int(data.integers(1, 7))), replace=False)
                raw[i, cols] = data.integers(1, 4, size=cols.size) * data.random(cols.size)
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)

    @pytest.mark.parametrize("d", WIDE)
    def test_wide_sparse_rows_equal_one_piece_reference(self, d):
        for seed in range(6):
            data = np.random.default_rng([seed, d])
            n = int(data.integers(20, 50))
            points = self._sparse_rows(data, n, d)
            weights = data.integers(1, 5, size=n).astype(float)
            for m in (n // 2 + 1, n, n + 1, 2 * n + 1):
                labels = estimation._kmeans(points, weights, m, np.random.default_rng(seed))
                expected = reference_kmeans(
                    points, weights, m, np.random.default_rng(seed), estimation.KMEANS_MAX_ITER
                )
                assert labels.tolist() == expected.tolist()

    @pytest.mark.parametrize("d", WIDE)
    def test_sparse_center_distances_are_the_dense_ones(self, d):
        # Bit for bit, over any subset of the rows, for row centers and for
        # denser mean centers; ``squares`` is left as it was.
        data = np.random.default_rng(d)
        points = self._sparse_rows(data, 40, d)
        centers = [points[i] for i in range(0, 40, 3)] + [points[:8].mean(axis=0)]
        for keep in (np.arange(40), np.flatnonzero(data.random(40) < 0.5), np.array([7])):
            rows = points[keep]
            squares = rows ** 2
            for center in centers:
                got = estimation._sq_distances(rows, squares, center)
                dense = ((points - center) ** 2).sum(axis=1)[keep]
                assert got.tobytes() == dense.tobytes()
                assert squares.tobytes() == (rows ** 2).tobytes()

    @pytest.mark.parametrize("d", [1, 7, 8, 9, 127, 128, 129, 257, 288, 700, 1025])
    def test_distance_columns_are_the_three_d_reference_sums(self, d):
        # Each column equals the reference's n x k x d sum over its last
        # axis, bit for bit: dense and sparse rows, centers that are rows
        # and centers that are not (means and random points).
        data = np.random.default_rng([d, 1])
        dense = data.random((30, d))
        dense /= np.linalg.norm(dense, axis=1, keepdims=True)
        for points in (dense, self._sparse_rows(data, 30, d)):
            centers = np.vstack([points[::4], points[:9].mean(axis=0), data.random((2, d))])
            expected = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            squares = points ** 2
            for c, center in enumerate(centers):
                got = estimation._sq_distances(points, squares, center)
                assert got.tobytes() == expected[:, c].tobytes()

    @pytest.mark.parametrize("d", [1, 7, 8, 9, 127, 128, 129, 257, 288, 700, 1025])
    def test_pair_distances_are_the_three_d_reference_sums(self, d):
        # The matrix is symmetric and equals the reference's n x n x d sum
        # over its last axis, bit for bit, for dense rows with negatives,
        # zeros and -0.0 and for sparse rows; ``squares`` is left as it was.
        data = np.random.default_rng([d, 2])
        dense = data.standard_normal((25, d))
        dense[3], dense[5, ::2], dense[7] = 0.0, -0.0, -dense[2]
        signs = np.where(data.random((25, d)) < 0.5, -1.0, 1.0)
        for points in (dense, self._sparse_rows(data, 25, d) * signs):
            squares = points ** 2
            pair = estimation._pair_distances(points, squares)
            expected = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
            assert pair.tobytes() == expected.tobytes()
            assert pair.tobytes() == np.ascontiguousarray(pair.T).tobytes()
            assert squares.tobytes() == (points ** 2).tobytes()

    def test_seeding_measures_only_rows_still_in_play(self, monkeypatch):
        # 30 distinct rows, each twice.  Every center is a new distinct row,
        # and the mean of two equal rows is the row, so no center moves.
        # With m = 30 < 60 each chosen center gets one column over all 60
        # rows; with m >= 60 seeding stops at 30 centers, having measured
        # each row pair once.
        calls = self._count_assignments(monkeypatch)
        distinct = np.eye(64)[:30]
        points = np.vstack([distinct, distinct])
        for m in (30, 60, 121):
            calls.clear()
            labels = estimation._kmeans(points, np.ones(60), m, np.random.default_rng(m))
            assert labels.tolist() == reference_kmeans(
                points, np.ones(60), m, np.random.default_rng(m)
            ).tolist()
            assert calls == ([60] * 30 if m < 60 else list(range(60, 0, -1)))


class TestEstimateMle:
    def _assignment(self, treebank, state_map):
        states = {}
        for tid, tree in enumerate(treebank):
            for path, node in iter_nodes(tree):
                states[(tid, path)] = state_map.get((tid, path), 0)
        return StateAssignment(m=1, states=states)

    def test_frequency_ratios(self):
        # S -> A B three times, S -> A C once, all under state 0.
        trees = [binarize(normalize(parse_tree(s))) for s in (
            "(S (A a) (B b))",
            "(S (A a) (B b))",
            "(S (A a) (B b))",
            "(S (A a) (C c))",
        )]
        grammar = estimate_mle(trees, self._assignment(trees, {}))
        s0 = StateLabel(0)
        table = grammar.binary[("S", s0)]
        assert table[("A", s0, "B", s0)] == pytest.approx(0.75)
        assert table[("A", s0, "C", s0)] == pytest.approx(0.25)

    def test_duplication_leaves_parameters_unchanged(self, triplet_trees):
        assignment = train_assignment(triplet_trees, m=2, seed=4)
        grammar = estimate_mle(triplet_trees, assignment)
        doubled = triplet_trees + triplet_trees
        dstates = dict(assignment.states)
        for (tid, path), st in assignment.states.items():
            dstates[(tid + 3, path)] = st
        doubled_grammar = estimate_mle(
            doubled, StateAssignment(m=assignment.m, states=dstates)
        )
        assert doubled_grammar.binary == grammar.binary
        assert doubled_grammar.lexical == grammar.lexical
        assert doubled_grammar.roots == grammar.roots

    def test_single_tree_root_mass(self):
        tree = binarize(normalize(parse_tree("(S (A a) (B b))")))
        grammar = estimate_mle([tree], self._assignment([tree], {}))
        assert grammar.roots == {("S", StateLabel(0)): 1.0}

    def test_validates_clean(self, triplet_trees):
        grammar = train_grammar(triplet_trees, m=3, seed=2)
        assert validate(grammar).ok

    def test_empty_treebank(self):
        with pytest.raises(EmptyTreebank):
            estimate_mle([], StateAssignment(m=1, states={}))

    def test_tree_that_is_not_binarized(self):
        tree = normalize(parse_tree("(S (A a) (B b) (C c))"))
        with pytest.raises(EstimationError, match=r"tree 0 is not binarized at node \(\)"):
            estimate_mle([tree], self._assignment([tree], {}))

    def test_training_on_an_empty_treebank_is_refused(self):
        with pytest.raises(EmptyTreebank, match="cannot train on an empty treebank"):
            train_grammar([], m=2, seed=0)
        with pytest.raises(EmptyTreebank, match="cannot train on an empty treebank"):
            train_bilayered_grammar([], TRIPLET_ALIGNMENTS, m1=2, m2=2, seed=0)
        with pytest.raises(EmptyTreebank, match="cannot train on an empty treebank"):
            train_assignment([], m=2, seed=0, aligned={})

    def test_deterministic_serialization(self, triplet_trees):
        a = serialize_grammar(train_grammar(triplet_trees, m=4, seed=13))
        b = serialize_grammar(train_grammar(triplet_trees, m=4, seed=13))
        assert a == b

    def test_every_rule_observed(self, triplet_trees):
        # Monotone support: each grammar rule occurs in the treebank.
        assignment = train_assignment(triplet_trees, m=2, seed=4)
        grammar = estimate_mle(triplet_trees, assignment)
        observed = set()
        for tid, tree in enumerate(triplet_trees):
            for path, node in iter_nodes(tree):
                state = StateLabel(assignment.states[(tid, path)])
                if node.is_preterminal:
                    observed.add(("LEX", node.label, state, node.word))
                else:
                    left, right = node.children
                    observed.add((
                        "BIN", node.label, state,
                        left.label, StateLabel(assignment.states[(tid, path + (0,))]),
                        right.label, StateLabel(assignment.states[(tid, path + (1,))]),
                    ))
        for (sym, state), table in grammar.lexical.items():
            for word in table:
                assert ("LEX", sym, state, word) in observed
        for (sym, state), table in grammar.binary.items():
            for (b, sb, c, sc) in table:
                assert ("BIN", sym, state, b, sb, c, sc) in observed


class TestBilayered:
    def test_returns_its_assignments_and_the_grammar_counted_from_them(self, triplet_trees):
        (syn, sem), grammar = train_bilayered_grammar(
            triplet_trees, TRIPLET_ALIGNMENTS, m1=2, m2=3, seed=7
        )
        assert syn == train_assignment(triplet_trees, m=2, seed=7)
        index = aligned_words_index(triplet_trees, TRIPLET_ALIGNMENTS)
        assert sem == train_assignment(triplet_trees, m=3, seed=7, aligned=index)
        assert sem.m == 3
        assert grammar == estimate_mle(triplet_trees, syn, sem)

    def test_labels_follow_two_part_scheme(self, triplet_trees):
        (syn, sem), grammar = train_bilayered_grammar(
            triplet_trees, TRIPLET_ALIGNMENTS, m1=2, m2=2, seed=7
        )
        assert validate(grammar).ok
        for tree in reference_annotate_bilayered(triplet_trees, syn, sem):
            for _, node in iter_nodes(tree):
                base, h1, h2 = node.label.rsplit("-", 2)
                assert base
                assert h1.isdigit() and h2.isdigit()

    def test_m2_one_reduces_to_syntactic(self, triplet_trees):
        _, layered = train_bilayered_grammar(
            triplet_trees, TRIPLET_ALIGNMENTS, m1=2, m2=1, seed=7
        )
        plain = train_grammar(triplet_trees, m=2, seed=7)
        stripped = {
            (sym, StateLabel(st.syn)): prob
            for (sym, st), prob in layered.roots.items()
        }
        assert stripped == dict(plain.roots)
        assert all(st.sem == 0 for _, st in layered.roots)

    def test_shared_bags_cocluster_at_roots(self, triplet_trees):
        # The alignments give all three roots the same semantic bag, so
        # even with m2=2 they must land in the same semantic state.
        (_, sem), _ = train_bilayered_grammar(
            triplet_trees, TRIPLET_ALIGNMENTS, m1=2, m2=2, seed=7
        )
        root_sems = {sem.states[(tid, ())] for tid in range(len(triplet_trees))}
        assert len(root_sems) == 1

    def test_missing_layer_coverage_raises(self, triplet_trees):
        syn = train_assignment(triplet_trees, m=2, seed=1)
        sem = StateAssignment(m=2, states={})
        with pytest.raises(AssignmentMismatch):
            estimate_mle(triplet_trees, syn, sem)

    def test_binarization_root_without_semantic_ancestor_raises(self):
        # Only a tree built in code has an "@" root: read_treebank refuses
        # such a label, and binarize never makes one a root.
        tree = Tree("@S", children=(Tree("A", word="a"), Tree("B", word="b")))
        syn = StateAssignment(m=1, states={(0, path): 0 for path, _ in iter_nodes(tree)})
        sem = StateAssignment(m=1, states={(0, (0,)): 0, (0, (1,)): 0})
        with pytest.raises(AssignmentMismatch, match=r"no semantic ancestor for tree 0 node \(\)"):
            estimate_mle([tree], syn, sem)


class TestTrainedGrammarBytes:
    """The grammars the benchmark and the CLI walkthrough train on the
    bundled data, byte for byte: any change to reading, binarizing,
    feature extraction, seeding, clustering or counting shows here."""

    @staticmethod
    def _digest(grammar, tmp_path) -> str:
        path = tmp_path / "grammar.lpcfg"
        save_grammar(grammar, str(path))
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_bundled_one_and_two_layer_grammars(self, tmp_path):
        trees = [binarize(t) for t in read_treebank(data_path("minitreebank.trees"))]
        plain = train_grammar(trees, m=2, seed=1)
        _, layered = train_bilayered_grammar(
            trees, read_alignments(data_path("alignments.tsv")), m1=2, m2=16, seed=1
        )
        assert self._digest(plain, tmp_path) == (
            "5d08c677655f8925bdb3ae5946ea43c11637978cc40a0b51c4b2ec99f4fa3a9a"
        )
        assert self._digest(layered, tmp_path) == (
            "45c834931ab37b615d2666964a2105a540a926aa9cdc0abe100d0df0eee1d940"
        )


class TestAlignments:
    def test_errors_name_the_record_and_the_range(self, triplet_trees, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("0\t1\t0-0\n\n2\t9\t0-0\n1\t2\t1-4\n0\t1\t7-0\n", encoding="utf-8")
        first, unknown, long_index, wide_index = read_alignments(str(path))
        assert first == AlignmentRecord(0, 1, ((0, 0),))
        assert (first.where, unknown.where) == (f"{path}:1", f"{path}:3")
        for record, message in [
            (unknown, f"{path}:3: alignment references unknown tree 9; the treebank has 3 trees"),
            (long_index, f"{path}:4: alignment index out of range: token 4 of tree 2, "
                         "which has 4 tokens"),
            (wide_index, f"{path}:5: alignment index out of range: token 7 of tree 0, "
                         "which has 4 tokens"),
            (AlignmentRecord(-1, 0, ()),
             "alignment references unknown tree -1; the treebank has 3 trees"),
        ]:
            with pytest.raises(EstimationError) as info:
                aligned_words_index(triplet_trees, [first, record])
            assert str(info.value) == message
