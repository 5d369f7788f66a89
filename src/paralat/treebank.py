"""Bracketed constituency trees: parsing, normalization and binarization.

Trees are immutable.  A preterminal node carries its terminal word directly
(``Tree("NN", word="day")``); all other nodes carry children.  Node handles
are paths: tuples of child indices from the root (the root is ``()``).
Only tests undo normalization or binarization; ``expand_unaries``,
``debinarize`` and ``is_binary`` are in ``tests/oracles.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .data_files import records
from .errors import (
    EmptyTree,
    PreterminalWithMultipleChildren,
    TreebankError,
    UnbalancedBrackets,
)

# Prefix for intermediate symbols introduced by binarization, which no
# treebank label may start with (a label is the token after a bracket).
BIN_PREFIX = "@"
_RESERVED_LABEL = re.compile(r"\(\s*(" + re.escape(BIN_PREFIX) + r"[^\s()]*)")
# Joiner for collapsed unary chains (X -> Y becomes "X+Y").
UNARY_JOIN = "+"
# Most nodes a treebank tree may have.  The node count bounds both the
# nesting depth and the height of the binarized tree, which the recursive
# tree walks descend, so a larger tree is refused before it is parsed.
MAX_TREE_NODES = 400

Path = tuple[int, ...]


@dataclass(frozen=True)
class Tree:
    label: str
    children: tuple["Tree", ...] = ()
    word: str | None = None

    def __post_init__(self) -> None:
        if (self.word is None) == (not self.children):
            raise TreebankError(
                f"node {self.label!r} must have either children or a word"
            )

    @property
    def is_preterminal(self) -> bool:
        return self.word is not None

    def __str__(self) -> str:
        return render(self)


def parse_tree(text: str) -> Tree:
    """Parse one PTB-style bracketed tree.

    Raises UnbalancedBrackets, EmptyTree or PreterminalWithMultipleChildren
    on malformed input.  Round-trips through :func:`render` modulo
    whitespace.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise EmptyTree("no tree in input")
    if tokens[0] != "(":
        raise UnbalancedBrackets(f"tree must start with '(': {text!r}")

    def read(pos: int) -> tuple[Tree, int]:
        # tokens[pos] == "("
        pos += 1
        if pos >= len(tokens) or tokens[pos] in "()":
            raise EmptyTree(f"missing label near token {pos}")
        label = tokens[pos]
        pos += 1
        children: list[Tree] = []
        words: list[str] = []
        while pos < len(tokens) and tokens[pos] != ")":
            if tokens[pos] == "(":
                child, pos = read(pos)
                children.append(child)
            else:
                words.append(tokens[pos])
                pos += 1
        if pos >= len(tokens):
            raise UnbalancedBrackets(f"unclosed bracket for {label!r}")
        pos += 1  # consume ")"
        if words and children:
            raise PreterminalWithMultipleChildren(
                f"{label!r} mixes terminals and subtrees"
            )
        if words:
            if len(words) > 1:
                raise PreterminalWithMultipleChildren(
                    f"preterminal {label!r} has {len(words)} terminals"
                )
            return Tree(label, word=words[0]), pos
        if not children:
            raise EmptyTree(f"node {label!r} has no children")
        return Tree(label, children=tuple(children)), pos

    tree, pos = read(0)
    if pos != len(tokens):
        raise UnbalancedBrackets("trailing content after tree")
    return tree


def render(tree: Tree) -> str:
    """Bracketed text for a tree; inverse of :func:`parse_tree`."""
    if tree.is_preterminal:
        return f"({tree.label} {tree.word})"
    inner = " ".join(render(c) for c in tree.children)
    return f"({tree.label} {inner})"


def tree_yield(tree: Tree) -> tuple[str, ...]:
    if tree.is_preterminal:
        return (tree.word,)
    out: list[str] = []
    for child in tree.children:
        out.extend(tree_yield(child))
    return tuple(out)


def iter_nodes(tree: Tree, path: Path = ()) -> Iterator[tuple[Path, Tree]]:
    """Pre-order traversal of (path, node) pairs."""
    yield path, tree
    for i, child in enumerate(tree.children):
        yield from iter_nodes(child, path + (i,))


def normalize(tree: Tree) -> Tree:
    """Ingestion normalization: collapse unary chains and lowercase tokens.

    A chain X -> Y (single child) becomes one node labeled "X+Y"; chains
    ending in a preterminal become composite preterminals, so normalized
    trees contain only n-ary (n >= 2) nodes and preterminals.  Every
    token is lowercased.  A subtree that normalization leaves unchanged
    is returned as it is, not rebuilt, so the result shares it.
    """
    if tree.is_preterminal:
        word = tree.word.lower()
        return tree if word == tree.word else Tree(tree.label, word=word)
    if len(tree.children) == 1:
        child = normalize(tree.children[0])
        label = tree.label + UNARY_JOIN + child.label
        if child.is_preterminal:
            return Tree(label, word=child.word)
        return Tree(label, children=child.children)
    children = tuple(normalize(c) for c in tree.children)
    if all(new is old for new, old in zip(children, tree.children)):
        return tree
    return Tree(tree.label, children=children)


def binarize(tree: Tree) -> Tree:
    """Right-branching binarization with "@Parent" intermediate symbols.

    A node A with children B C D becomes (A B (@A C D)).  Requires a
    normalized tree (no unary internal nodes).  A subtree that is already
    binary is returned as it is, not rebuilt, so the result shares it.
    """
    if tree.is_preterminal:
        return tree
    if len(tree.children) == 1:
        raise TreebankError(
            f"cannot binarize unary node {tree.label!r}; normalize first"
        )
    children = [binarize(c) for c in tree.children]
    if len(children) == 2 and children[0] is tree.children[0] and children[1] is tree.children[1]:
        return tree
    while len(children) > 2:
        tail = Tree(BIN_PREFIX + tree.label, children=(children[-2], children[-1]))
        children = children[:-2] + [tail]
    return Tree(tree.label, children=tuple(children))


def read_treebank(path: str) -> list[Tree]:
    """Read one bracketed tree per record line, normalized; a tree of
    more than MAX_TREE_NODES nodes, or with a label that starts with
    BIN_PREFIX, is refused."""
    trees: list[Tree] = []
    for lineno, line in records(path):
        nodes = line.count("(")
        if nodes > MAX_TREE_NODES:
            raise TreebankError(
                f"{path}:{lineno}: tree has {nodes} nodes, more than {MAX_TREE_NODES}"
            )
        try:
            tree = parse_tree(line.strip())
        except TreebankError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
        reserved = _RESERVED_LABEL.search(line)
        if reserved:
            raise TreebankError(
                f"{path}:{lineno}: label {reserved[1]!r} starts with {BIN_PREFIX!r}, "
                "which binarization reserves"
            )
        trees.append(normalize(tree))
    return trees
