"""Every file loader either loads a mutated copy of its bundled format or
raises a ParalatError; nothing else escapes.  Every line-oriented reader
skips blank and ``#`` lines and a leading byte-order mark alike, and names a
bad line by its ``file:line``."""

from __future__ import annotations

import argparse
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from paralat.classifier import (
    ClassifierModel,
    Gazetteer,
    load_model,
    read_labeled_pairs,
    save_model,
)
from paralat.cli import _load_config, _read_questions
from paralat.data_files import data_path
from paralat.errors import ParalatError
from paralat.estimation import read_alignments
from paralat.grammar import load_grammar, save_grammar
from paralat.lattice import load_rules
from paralat.semparse import (
    PerceptronModel,
    load_kb,
    load_perceptron_weights,
    load_qa,
    load_ungrounded,
    save_perceptron,
)
from paralat.treebank import read_treebank

SEED_LINES = 12  # mutate the head of each bundled file, which shows every line kind

# Fragments that are meaningful to some format, plus a few that break them.
_FRAGMENTS = st.sampled_from([
    "\t", "\n", " ", "\0", "(", ")", "#", "-", ",", "|", ":", "=", "@",
    "nan", "inf", "-1", "0", "1e999", "x", "é", "\x85", "\u2028",
    "ROOT", "BIN", "LEX", "FEATURE", "BIAS", "THRESHOLD", "TARGET", "EDGE",
    "TYPE", "ENTITY", "SCORE", "STEPS", "LPCFG v1", "layers=2", "m2=0",
    "q01_orig.graph", "..", "/",
])
_EDIT = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.one_of(_FRAGMENTS, st.text(max_size=3)),
)


def _read(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return "".join(handle.readlines()[:SEED_LINES])


def _graph_loader(name: str):
    return load_ungrounded(os.path.join(data_path("graphs"), name), name=name)


LOADERS = {
    "treebank": read_treebank,
    "alignments": read_alignments,
    "grammar": load_grammar,
    "rules": load_rules,
    "pairs": read_labeled_pairs,
    "classifier-model": load_model,
    "kb": load_kb,
    "graph": load_ungrounded,
    "qa": lambda path: load_qa(path, _graph_loader),
    "perceptron": load_perceptron_weights,
    "gazetteer": Gazetteer.load,
}


@pytest.fixture(scope="module")
def seed_texts(tmp_path_factory, bilayered_toy_grammar):
    """One valid file of each format: the head of the bundled file, or a
    saved artifact for the formats the toolkit writes."""
    tmp = tmp_path_factory.mktemp("formats")
    save_grammar(bilayered_toy_grammar, str(tmp / "grammar"))
    save_model(ClassifierModel(tuple(0.1 * i for i in range(10)), -0.5, 0.5), str(tmp / "model"))
    save_perceptron(PerceptronModel({"a": 1.5}, {"a": 3.0, "b": -4.0}, 2, 1), str(tmp / "percep"))
    bundled = {
        "treebank": "minitreebank.trees",
        "alignments": "alignments.tsv",
        "rules": "rewrite_rules.tsv",
        "pairs": "classifier_pairs.tsv",
        "kb": "kb.tsv",
        "graph": "graphs/q09_orig.graph",
        "qa": "qa_eval.tsv",
        "gazetteer": "gazetteer.txt",
    }
    texts = {fmt: _read(data_path(name)) for fmt, name in bundled.items()}
    texts["grammar"] = _read(tmp / "grammar")
    texts["classifier-model"] = _read(tmp / "model")
    texts["perceptron"] = _read(tmp / "percep")
    for fmt, text in texts.items():  # the unmutated seeds load
        path = tmp / fmt
        path.write_text(text, encoding="utf-8")
        LOADERS[fmt](str(path))
    return texts


def _mutate(text: str, edits) -> str:
    for op, where, fragment in edits:
        pos = int(where * len(text))
        if op == "insert":
            text = text[:pos] + fragment + text[pos:]
        elif op == "delete":  # the fragment only sets how much goes
            text = text[:pos] + text[pos + len(fragment) + 1:]
        else:
            text = text[:pos] + fragment + text[pos + len(fragment):]
    return text


@pytest.mark.parametrize("fmt", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(edits=st.lists(_EDIT, min_size=1, max_size=4))
def test_mutated_file_loads_or_raises_paralat_error(fmt, edits, seed_texts):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, fmt)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_mutate(seed_texts[fmt], edits))
        try:
            LOADERS[fmt](path)
        except ParalatError:
            pass


# --- the shared rule: which lines are records ---------------------------------

def _questions(path):
    return _read_questions(argparse.Namespace(question=None, input=path))


# format -> (reader, one bad record line); the bad line is None where every
# line that is not blank or a comment is a valid record.
READERS = {
    "treebank": (read_treebank, "(S (NN x)"),
    "alignments": (read_alignments, "1\t2"),
    "grammar": (load_grammar, "BOGUS\t1"),
    "rules": (load_rules, "a\tb"),
    "pairs": (read_labeled_pairs, "a\tb\t2"),
    "gazetteer": (lambda path: list(Gazetteer.load(path).surfaces), None),
    "classifier-model": (load_model, "BOGUS\t1"),
    "kb": (load_kb, "a\tb"),
    "graph": (lambda path: load_ungrounded(path, name="g"), "BOGUS x"),
    "qa": (lambda path: load_qa(path, _graph_loader), "a\tb"),
    "perceptron": (load_perceptron_weights, "BOGUS\t1"),
    "config": (_load_config, "no value"),
    "questions": (_questions, None),
}
EXTRA_TEXTS = {
    "config": "m1 = 4\nseed=3\n",
    "questions": "what day is christmas\nwhen is easter\n",
}
NOISE = ["", " \t ", "# a comment", "  \t# an indented comment"]


def _text_of(fmt, seed_texts) -> str:
    text = EXTRA_TEXTS.get(fmt) or seed_texts[fmt]
    assert text.endswith("\n")
    return text


def _with_noise(text: str) -> str:
    """``text`` with every kind of non-record line before its last line,
    which is a record in every format here."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:-1] + [line + "\n" for line in NOISE] + lines[-1:])


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_blank_and_comment_lines_are_skipped(fmt, seed_texts, tmp_path):
    reader, _bad = READERS[fmt]
    text = _text_of(fmt, seed_texts)
    clean, noisy = tmp_path / "clean", tmp_path / "noisy"
    clean.write_text(text, encoding="utf-8")
    noisy.write_text(_with_noise(text), encoding="utf-8")
    assert reader(str(noisy)) == reader(str(clean))


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_a_leading_byte_order_mark_is_skipped(fmt, seed_texts, tmp_path):
    reader, _bad = READERS[fmt]
    text = _text_of(fmt, seed_texts)
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert reader(str(marked)) == reader(str(plain))


@pytest.mark.parametrize("fmt", sorted(f for f, (_, bad) in READERS.items() if bad))
def test_bad_line_is_named_by_its_physical_line(fmt, seed_texts, tmp_path):
    reader, bad = READERS[fmt]
    text = _with_noise(_text_of(fmt, seed_texts))
    path = tmp_path / "bad"
    path.write_text(text + bad + "\n", encoding="utf-8")
    lineno = text.count("\n") + 1
    with pytest.raises(ParalatError, match=re.escape(f"{path}:{lineno}: ")):
        reader(str(path))
