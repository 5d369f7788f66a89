from __future__ import annotations

import pytest
from hypothesis import given

from oracles import (
    debinarize,
    expand_unaries,
    is_binary,
    random_trees,
    reference_binarize,
    reference_normalize,
)

from paralat.errors import (
    EmptyTree,
    PreterminalWithMultipleChildren,
    TreebankError,
    UnbalancedBrackets,
)
from paralat.treebank import (
    Tree,
    binarize,
    iter_nodes,
    normalize,
    parse_tree,
    render,
    tree_yield,
)


class TestTree:
    def test_node_needs_children_or_a_word(self):
        with pytest.raises(TreebankError, match="'X' must have either children or a word"):
            Tree("X")

    def test_node_cannot_have_children_and_a_word(self):
        with pytest.raises(TreebankError, match="'X' must have either children or a word"):
            Tree("X", children=(Tree("Y", word="y"),), word="w")


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

    def test_str_is_the_rendering(self):
        assert str(parse_tree("(X (Y y) (Z z))")) == "(X (Y y) (Z z))"


class TestRoundTrip:
    @given(random_trees())
    def test_render_parse_identity(self, tree):
        assert parse_tree(render(tree)) == tree

    @given(random_trees())
    def test_normalize_then_expand_preserves_yield(self, tree):
        norm = normalize(tree)
        assert tree_yield(norm) == tuple(w.lower() for w in tree_yield(tree))
        expanded = expand_unaries(norm)
        assert tree_yield(expanded) == tree_yield(norm)


def _check_sharing(transform, reference, tree):
    """``transform(tree)`` equals ``reference(tree)``; ``transform`` returns
    a subtree that it leaves unchanged as the same object, and the result
    holds every such subtree, unless it is the only child of its parent
    (which normalization collapses into the parent)."""
    out = transform(tree)
    assert out == reference(tree)
    kept = {id(node) for _, node in iter_nodes(out)}
    nodes = dict(iter_nodes(tree))
    for path, sub in nodes.items():
        unchanged = reference(sub) == sub
        assert (transform(sub) is sub) == unchanged
        if unchanged and (not path or len(nodes[path[:-1]].children) > 1):
            assert id(sub) in kept


class TestNormalize:
    @given(random_trees())
    def test_equals_rebuilding_reference_and_shares_unchanged_subtrees(self, tree):
        _check_sharing(normalize, reference_normalize, tree)
        norm = normalize(tree)
        assert normalize(norm) is norm

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


class TestBinarize:
    @given(random_trees())
    def test_equals_rebuilding_reference_and_shares_unchanged_subtrees(self, tree):
        _check_sharing(binarize, reference_binarize, normalize(tree))
        binary = binarize(normalize(tree))
        assert binarize(binary) is binary

    def test_already_binary_identity(self, triplet_trees):
        tree = parse_tree(
            "(SBARQ (WHNP (WP what) (NN day)) (SQ (AUX is) (NN nochebuena)))"
        )
        assert binarize(tree) == tree

    def test_unary_node_is_refused(self):
        # (A (B b)) parses; only normalize collapses its unary A.
        with pytest.raises(TreebankError, match="cannot binarize unary node 'A'"):
            binarize(parse_tree("(S (A (B b)) (C c))"))

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

    @given(random_trees())
    def test_debinarize_inverts(self, tree):
        norm = normalize(tree)
        binary = binarize(norm)
        assert is_binary(binary)
        assert debinarize(binary) == norm

    @given(random_trees())
    def test_yield_preserved(self, tree):
        norm = normalize(tree)
        assert tree_yield(binarize(norm)) == tree_yield(norm)
