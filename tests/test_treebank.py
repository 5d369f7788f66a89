from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from paralat.errors import (
    EmptyTree,
    NodeNotInTree,
    PreterminalWithMultipleChildren,
    UnbalancedBrackets,
)
from paralat.treebank import (
    Tree,
    binarize,
    debinarize,
    decompose,
    expand_unaries,
    is_binary,
    iter_nodes,
    normalize,
    parse_tree,
    render,
    tree_yield,
)


class TestParseTree:
    def test_four_leaf_question(self):
        tree = parse_tree(
            "(SBARQ (WHNP (WP what) (NN day)) (SQ (AUX is) (NN nochebuena)))"
        )
        assert tree.label == "SBARQ"
        assert tree_yield(tree) == ("what", "day", "is", "nochebuena")
        assert len(tree_yield(tree)) == 4

    def test_minimal_tree(self):
        tree = parse_tree("(X (Y y))")
        assert tree.label == "X"
        assert tree.children[0].word == "y"

    def test_unbalanced(self):
        with pytest.raises(UnbalancedBrackets):
            parse_tree("(X (Y y)")

    def test_trailing_garbage(self):
        with pytest.raises(UnbalancedBrackets):
            parse_tree("(X (Y y)) (Z z)")

    def test_empty_input(self):
        with pytest.raises(EmptyTree):
            parse_tree("   ")

    def test_childless_node(self):
        with pytest.raises(EmptyTree):
            parse_tree("(X)")

    def test_preterminal_with_two_words(self):
        with pytest.raises(PreterminalWithMultipleChildren):
            parse_tree("(X y z)")

    def test_mixed_children(self):
        with pytest.raises(PreterminalWithMultipleChildren):
            parse_tree("(X y (Z z))")

    def test_roundtrip_normalizes_whitespace(self):
        text = "( X  ( Y y )   ( Z z ) )"
        tree = parse_tree(text)
        assert render(tree) == "(X (Y y) (Z z))"
        assert parse_tree(render(tree)) == tree


# Random tree strategy for round-trip properties.
_labels = st.sampled_from(["S", "NP", "VP", "NN", "DT", "X"])
_words = st.sampled_from(["a", "b", "cat", "saw", "nochebuena"])


def _trees(depth: int = 3) -> st.SearchStrategy[Tree]:
    leaf = st.builds(lambda l, w: Tree(l, word=w), _labels, _words)
    if depth == 0:
        return leaf
    return st.one_of(
        leaf,
        st.builds(
            lambda l, cs: Tree(l, children=tuple(cs)),
            _labels,
            st.lists(_trees(depth - 1), min_size=1, max_size=3),
        ),
    )


class TestRoundTrip:
    @given(_trees())
    def test_render_parse_identity(self, tree):
        assert parse_tree(render(tree)) == tree

    @given(_trees())
    def test_normalize_then_expand_preserves_yield(self, tree):
        norm = normalize(tree)
        assert tree_yield(norm) == tuple(w.lower() for w in tree_yield(tree))
        expanded = expand_unaries(norm)
        assert tree_yield(expanded) == tree_yield(norm)


class TestNormalize:
    def test_collapses_preterminal_chain(self):
        tree = parse_tree("(SBARQ (WHNP (WP what)) (SQ (AUX is) (NN x)))")
        norm = normalize(tree)
        assert norm.children[0].label == "WHNP+WP"
        assert norm.children[0].word == "what"

    def test_collapses_internal_chain(self):
        tree = parse_tree("(ROOT (SBARQ (WP what) (NN day)))")
        norm = normalize(tree)
        assert norm.label == "ROOT+SBARQ"
        assert len(norm.children) == 2

    def test_expand_inverts_collapse(self):
        tree = parse_tree("(ROOT (SBARQ (WHNP (WP what)) (SQ (AUX is) (NN x))))")
        norm = normalize(tree)
        assert render(expand_unaries(norm)) == render(tree)

    def test_preserve_case(self):
        tree = parse_tree("(S (NN Praha) (VB Runs))")
        norm = normalize(tree, preserve_case=frozenset(["Praha"]))
        assert tree_yield(norm) == ("Praha", "runs")


class TestBinarize:
    def test_already_binary_identity(self, triplet_trees):
        tree = parse_tree(
            "(SBARQ (WHNP (WP what) (NN day)) (SQ (AUX is) (NN nochebuena)))"
        )
        assert binarize(tree) == tree

    def test_ternary(self):
        tree = parse_tree("(A (B b) (C c) (D d))")
        assert render(binarize(tree)) == "(A (B b) (@A (C c) (D d)))"

    def test_quaternary_right_branching(self):
        tree = parse_tree("(A (B b) (C c) (D d) (E e))")
        assert render(binarize(tree)) == "(A (B b) (@A (C c) (@A (D d) (E e))))"

    def test_figure_tree_shape_unchanged(self, triplet_trees):
        for line, tree in zip(
            [
                "(SBARQ (WHNP (WP what) (NN day)) (SQ (AUX is) (NN nochebuena)))",
                "(SBARQ (WRB when) (SQ (AUX is) (NN nochebuena)))",
                "(SBARQ (WRB when) (SQ (SQ (AUX is) (NN nochebuena)) (JJ celebrated)))",
            ],
            triplet_trees,
        ):
            assert render(tree) == line

    @given(_trees())
    def test_debinarize_inverts(self, tree):
        norm = normalize(tree)
        binary = binarize(norm)
        assert is_binary(binary)
        assert debinarize(binary) == norm

    @given(_trees())
    def test_yield_preserved(self, tree):
        norm = normalize(tree)
        assert tree_yield(binarize(norm)) == tree_yield(norm)


class TestDecompose:
    def test_root_case(self):
        tree = parse_tree("(S (A a) (B b))")
        ctx = decompose(tree, ())
        assert ctx.inside == tree
        assert ctx.parent_label == "TOP"
        assert ctx.sibling_label == "none"
        assert ctx.outside_terminals == ()

    def test_preterminal_case(self):
        tree = parse_tree("(S (A a) (B b))")
        ctx = decompose(tree, (0,))
        assert ctx.inside == Tree("A", word="a")
        assert ctx.span == (0, 1)
        assert ctx.outside_terminals == ("b",)

    def test_figure_whnp_spans(self, triplet_trees):
        ctx = decompose(triplet_trees[0], (0,))
        assert tree_yield(ctx.inside) == ("what", "day")
        assert ctx.outside_terminals == ("is", "nochebuena")

    def test_missing_node(self):
        tree = parse_tree("(S (A a) (B b))")
        with pytest.raises(NodeNotInTree):
            decompose(tree, (5,))

    @given(_trees())
    def test_inside_outside_partition(self, tree):
        full = tree_yield(tree)
        for path, _ in iter_nodes(tree):
            ctx = decompose(tree, path)
            inside = tree_yield(ctx.inside)
            assert len(inside) + len(ctx.outside_terminals) == len(full)
            start, end = ctx.span
            assert full[start:end] == inside
            assert ctx.outside_terminals == full[:start] + full[end:]
