"""Shared fixtures: the three-paraphrase toy treebank, the hand-built
two-layer grammar over it, and the rewrite-rule lattice fixture."""

from __future__ import annotations

import pytest

from paralat.grammar import LatentGrammar, LayerConfig, StateLabel
from paralat.lattice import ParaphraseRuleDB, build_from_rules
from paralat.treebank import binarize, normalize, parse_tree

TRIPLET_LINES = [
    "(SBARQ (WHNP (WP what) (NN day)) (SQ (AUX is) (NN nochebuena)))",
    "(SBARQ (WRB when) (SQ (AUX is) (NN nochebuena)))",
    "(SBARQ (WRB when) (SQ (SQ (AUX is) (NN nochebuena)) (JJ celebrated)))",
]


@pytest.fixture(scope="session")
def triplet_trees():
    return [binarize(normalize(parse_tree(s))) for s in TRIPLET_LINES]


def _s(syn: int, sem: int) -> StateLabel:
    return StateLabel(syn, sem)


@pytest.fixture(scope="session")
def bilayered_toy_grammar() -> LatentGrammar:
    """Hand-built two-layer grammar over the three paraphrase questions.

    The state annotation mirrors the annotated triplet treebank; on top of
    the counted rules, semantic state 142 under NN carries both "day" and
    "when", making "when" a grammar-attested paraphrase of "day".
    """
    third = 1.0 / 3.0
    roots = {
        ("SBARQ", _s(33, 403)): third,
        ("SBARQ", _s(30, 403)): third,
        ("SBARQ", _s(24, 403)): third,
    }
    binary = {
        ("SBARQ", _s(33, 403)): {("WHNP", _s(7, 291), "SQ", _s(8, 925)): 1.0},
        ("SBARQ", _s(30, 403)): {("WRB", _s(42, 707), "SQ", _s(8, 709)): 1.0},
        ("SBARQ", _s(24, 403)): {("WRB", _s(42, 707), "SQ", _s(17, 709)): 1.0},
        ("WHNP", _s(7, 291)): {("WP", _s(7, 254), "NN", _s(45, 142)): 1.0},
        ("SQ", _s(8, 925)): {("AUX", _s(22, 300), "NN", _s(41, 854)): 1.0},
        ("SQ", _s(8, 709)): {("AUX", _s(12, 300), "NN", _s(41, 854)): 1.0},
        ("SQ", _s(17, 709)): {("SQ", _s(15, 931), "JJ", _s(18, 579)): 1.0},
        ("SQ", _s(15, 931)): {("AUX", _s(29, 300), "NN", _s(30, 854)): 1.0},
    }
    lexical = {
        ("WP", _s(7, 254)): {"what": 1.0},
        ("NN", _s(45, 142)): {"day": 1.0},
        ("AUX", _s(22, 300)): {"is": 1.0},
        ("NN", _s(41, 854)): {"nochebuena": 1.0},
        ("WRB", _s(42, 707)): {"when": 1.0},
        ("AUX", _s(12, 300)): {"is": 1.0},
        ("AUX", _s(29, 300)): {"is": 1.0},
        ("NN", _s(30, 854)): {"nochebuena": 1.0},
        ("JJ", _s(18, 579)): {"celebrated": 1.0},
        ("NN", _s(30, 142)): {"when": 1.0},
    }
    return LatentGrammar(
        layers=LayerConfig(64, 1000),
        roots=roots,
        binary=binary,
        lexical=lexical,
    )


CZECH_QUESTION = "what language do people in czech republic speak ?".split()

PEOPLE_ALTERNATIVES = [
    "citizens",
    "the population",
    "people 's",
    "human beings",
    "members of the public",
]


@pytest.fixture(scope="session")
def czech_rule_db() -> ParaphraseRuleDB:
    rules = [
        (("people",), tuple(alt.split()), 5.0 - i)
        for i, alt in enumerate(PEOPLE_ALTERNATIVES)
    ]
    rules.append((("speak",), ("is", "speaking"), 5.0))
    return ParaphraseRuleDB(rules=tuple(rules))


@pytest.fixture(scope="session")
def czech_lattice(czech_rule_db):
    return build_from_rules(CZECH_QUESTION, czech_rule_db)
