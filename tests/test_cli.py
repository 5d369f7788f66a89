from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from paralat.classifier import ClassifierModel, save_model
from paralat.cli import build_parser, derive_seed, main
from paralat.data_files import atomic_write, data_path
from paralat.grammar import save_grammar
from paralat.semparse import PerceptronModel, save_perceptron
from paralat.treebank import MAX_TREE_NODES


@pytest.fixture(scope="module")
def grammar_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mini.lpcfg"
    rc = main([
        "train-grammar",
        "--treebank", data_path("minitreebank.trees"),
        "--m1", "2", "--seed", "1",
        "--out", str(path),
    ])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def classifier_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "clf.tsv"
    rc = main([
        "train-classifier",
        "--pairs", data_path("classifier_pairs.tsv"),
        "--gazetteer", data_path("gazetteer.txt"),
        "--epochs", "200", "--seed", "0",
        "--out", str(path),
    ])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def bilayered_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bilayered.lpcfg"
    rc = main([
        "train-bilayered",
        "--treebank", data_path("minitreebank.trees"),
        "--alignments", data_path("alignments.tsv"),
        "--m1", "2", "--m2", "16", "--seed", "1",
        "--out", str(path),
    ])
    assert rc == 0
    return str(path)


class TestHelp:
    @pytest.mark.parametrize("command", sorted(build_parser().commands))
    def test_help_renders(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert out.startswith(f"usage: paralat {command}")
        if command == "train-grammar":
            assert "default 24" in out


class TestExitCodes:
    def test_usage_error_unknown_flag(self):
        assert main(["train-grammar", "--nope"]) == 1

    def test_usage_error_missing_required(self):
        assert main(["train-grammar"]) == 1

    def test_usage_error_no_command(self):
        assert main([]) == 1

    @pytest.mark.parametrize("command", sorted(build_parser().commands))
    def test_no_options_is_one_usage_error_and_writes_nothing(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main([command]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_data_error_missing_file(self, tmp_path):
        rc = main([
            "train-grammar", "--treebank", str(tmp_path / "nope.trees"),
            "--out", str(tmp_path / "g.lpcfg"),
        ])
        assert rc == 2

    def test_data_error_bad_grammar(self, tmp_path):
        bad = tmp_path / "bad.lpcfg"
        bad.write_text("nonsense\n", encoding="utf-8")
        assert main(["validate-grammar", "--grammar", str(bad)]) == 2


def _bad_config(tmp_path, grammar_file, classifier_file):
    config = tmp_path / "bad.cfg"
    config.write_text(
        "treebank={}\nout={}\nm1=abc\n".format(
            data_path("minitreebank.trees"), tmp_path / "g.lpcfg"
        ),
        encoding="utf-8",
    )
    return ["train-grammar", "--config", str(config)]


def _zero_samples(command, inputs_load=True):
    """``command`` with ``--m 0``; without ``inputs_load`` the grammar and
    the classifier do not exist, so an input that loads would exit 2."""
    def argv(tmp_path, grammar_file, classifier_file):
        if not inputs_load:
            grammar_file = classifier_file = str(tmp_path / "missing")
        extra = ["--classifier", classifier_file] if command == "paraphrase" else []
        return [command, "--grammar", grammar_file, "--question", "when is easter",
                "--m", "0", *extra]
    return argv


def _bad_model(kind, value):
    """The trained model with the number on its first ``kind`` line replaced."""
    def argv(tmp_path, grammar_file, classifier_file):
        with open(classifier_file, encoding="utf-8") as handle:
            text = handle.read()
        model = tmp_path / "clf.tsv"
        model.write_text(
            re.sub(rf"(?m)^({kind}\t(?:[^\t\n]*\t)?)[^\t\n]*$", rf"\g<1>{value}", text, count=1),
            encoding="utf-8",
        )
        return ["paraphrase", "--grammar", grammar_file, "--classifier", str(model),
                "--question", "when is easter", "--m", "5"]
    return argv


def _repeated_model_line(kind):
    """The trained model with its first ``kind`` line written again at
    the end, as line 13."""
    def argv(tmp_path, grammar_file, classifier_file):
        with open(classifier_file, encoding="utf-8") as handle:
            text = handle.read()
        model = tmp_path / "clf.tsv"
        model.write_text(text + re.search(rf"(?m)^{kind}\t.*\n", text).group(), encoding="utf-8")
        return ["paraphrase", "--grammar", grammar_file, "--classifier", str(model),
                "--question", "when is easter", "--m", "5"]
    return argv


def _dropped_model_line(prefix):
    """The trained model without its first line that starts with
    ``prefix``."""
    def argv(tmp_path, grammar_file, classifier_file):
        with open(classifier_file, encoding="utf-8") as handle:
            text = handle.read()
        model = tmp_path / "clf.tsv"
        model.write_text(re.sub(rf"(?m)^{prefix}\t.*\n", "", text, count=1), encoding="utf-8")
        return ["paraphrase", "--grammar", grammar_file, "--classifier", str(model),
                "--question", "when is easter", "--m", "5"]
    return argv


def _renamed_model_feature(tmp_path, grammar_file, classifier_file):
    """The trained model with its ``bleu1`` line (line 1) naming ``bleuX``."""
    with open(classifier_file, encoding="utf-8") as handle:
        text = handle.read()
    assert text.startswith("FEATURE\tbleu1\t")
    model = tmp_path / "clf.tsv"
    model.write_text(text.replace("\tbleu1\t", "\tbleuX\t"), encoding="utf-8")
    return ["paraphrase", "--grammar", grammar_file, "--classifier", str(model),
            "--question", "when is easter", "--m", "5"]


def _pairs(line):
    """train-classifier over a pairs file of the one line ``line``."""
    def argv(tmp_path, grammar_file, classifier_file):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(line + "\n", encoding="utf-8")
        return ["train-classifier", "--pairs", str(pairs), "--out", str(tmp_path / "clf.tsv")]
    return argv


def _zero_probability(tmp_path, grammar_file, classifier_file):
    with open(grammar_file, encoding="utf-8") as handle:
        text = handle.read()
    grammar = tmp_path / "zero.lpcfg"
    grammar.write_text(re.sub(r"(?m)^(LEX\t.*\t)[^\t]*$", r"\g<1>0", text, count=1),
                       encoding="utf-8")
    return ["parse", "--grammar", str(grammar), "--question", "when is easter"]


def _deficit_context(tmp_path, grammar_file, classifier_file):
    # Drop every LEX line of the first lexical context; binary rules still
    # reference it.
    with open(grammar_file, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    first = next(line for line in lines if line.startswith("LEX\t"))
    context = "\t".join(first.split("\t")[:3]) + "\t"
    grammar = tmp_path / "deficit.lpcfg"
    grammar.write_text("".join(l for l in lines if not l.startswith(context)), encoding="utf-8")
    return ["sample", "--grammar", str(grammar), "--question", "when is easter"]


def _semparse_eval(tmp_path, weights="", qa=None, graphs_dir=None, steps="1"):
    """semparse-eval over a perceptron file of a ``STEPS steps`` line (none
    if ``steps`` is None) and ``weights`` lines."""
    model = tmp_path / "percep.tsv"
    model.write_text(("" if steps is None else f"STEPS\t{steps}\n") + weights,
                     encoding="utf-8")
    return ["semparse-eval", "--kb", data_path("kb.tsv"), "--qa", qa or data_path("qa_eval.tsv"),
            "--graphs-dir", graphs_dir or data_path("graphs"), "--model", str(model)]


def _perceptron_lines(lines, steps="1"):
    def argv(tmp_path, grammar_file, classifier_file):
        return _semparse_eval(tmp_path, lines, steps=steps)
    return argv


def _graph_score(name, score, weights=""):
    """semparse-eval over graphs whose ``name`` has its one SCORE line
    (line 2) read ``SCORE score``."""
    def argv(tmp_path, grammar_file, classifier_file):
        graphs = tmp_path / "graphs"
        shutil.copytree(data_path("graphs"), graphs)
        graph = graphs / name
        lines = graph.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1].startswith("SCORE ")
        lines[1] = f"SCORE {score}\n"
        graph.write_text("".join(lines), encoding="utf-8")
        return _semparse_eval(tmp_path, weights, graphs_dir=str(graphs))
    return argv


def _kb_line(line):
    """semparse-train over a KB of one triple and then ``line``."""
    def argv(tmp_path, grammar_file, classifier_file):
        kb = tmp_path / "kb.tsv"
        kb.write_text(f"Paris\tcapital.of\tFrance\n{line}\n", encoding="utf-8")
        return ["semparse-train", "--kb", str(kb), "--qa", data_path("qa_train.tsv"),
                "--graphs-dir", data_path("graphs"), "--out", str(tmp_path / "percep.tsv")]
    return argv


def _bad_qa_graph_name(name):
    def argv(tmp_path, grammar_file, classifier_file):
        qa = tmp_path / "qa.tsv"
        qa.write_text(f"what is the capital of france\tq01_orig.graph,{name}\tParis\n",
                      encoding="utf-8")
        return _semparse_eval(tmp_path, qa=str(qa))
    return argv


def _bad_qa_answers(answers):
    def argv(tmp_path, grammar_file, classifier_file):
        qa = tmp_path / "qa.tsv"
        qa.write_text(f"what is the capital of france\tq01_orig.graph\t{answers}\n",
                      encoding="utf-8")
        return ["semparse-train", "--kb", data_path("kb.tsv"), "--qa", str(qa),
                "--graphs-dir", data_path("graphs"), "--out", str(tmp_path / "percep.tsv")]
    return argv


def _bad_rule_score(tmp_path, grammar_file, classifier_file):
    rules = tmp_path / "rules.tsv"
    rules.write_text("when\twhat time\t2.0\nday\tdate\tinf\n", encoding="utf-8")
    return ["build-lattice", "--mode", "rules", "--rules", str(rules),
            "--question", "when is easter"]


def _epochs(command, value):
    """``command`` with ``--epochs value`` over inputs that do not exist,
    so an input that loads would exit 2."""
    def argv(tmp_path, grammar_file, classifier_file):
        missing = str(tmp_path / "missing")
        if command == "train-classifier":
            inputs = ["--pairs", missing, "--out", missing + ".out"]
        else:
            inputs = _semparse_argv(command, missing)[1:]
        return [command, *inputs, "--epochs", value]
    return argv


def _states(command, setting, via_config=False):
    """``command`` with a state count ``setting`` (``"m1=0"``), as a flag
    or a config key, over a treebank that does not exist, so an input
    that loads would exit 2."""
    def argv(tmp_path, grammar_file, classifier_file):
        missing = str(tmp_path / "missing")
        argv = [command, "--treebank", missing, "--out", missing + ".out"]
        if command == "train-bilayered":
            argv += ["--alignments", missing]
        if via_config:
            config = tmp_path / "states.cfg"
            config.write_text(setting + "\n", encoding="utf-8")
            return argv + ["--config", str(config)]
        name, value = setting.split("=")
        return argv + [f"--{name}", value]
    return argv


def _aligned(alignment):
    """train-bilayered over a two-tree treebank and one alignment line."""
    def argv(tmp_path, grammar_file, classifier_file):
        treebank, alignments = tmp_path / "two.trees", tmp_path / "one.tsv"
        treebank.write_text("(S (A a) (B b))\n(S (A c) (B d))\n", encoding="utf-8")
        alignments.write_text(alignment + "\n", encoding="utf-8")
        return ["train-bilayered", "--treebank", str(treebank), "--alignments",
                str(alignments), "--m1", "1", "--m2", "1", "--out", str(tmp_path / "g.lpcfg")]
    return argv


def _reserved_label(command):
    """``command`` over a treebank whose second tree has a label that
    starts as binarization's intermediate labels do."""
    def argv(tmp_path, grammar_file, classifier_file):
        treebank, alignments = tmp_path / "two.trees", tmp_path / "none.tsv"
        treebank.write_text("(S (A a) (B b))\n(@S (A c) (B d))\n", encoding="utf-8")
        alignments.write_text("", encoding="utf-8")
        argv = [command, "--treebank", str(treebank), "--m1", "1",
                "--out", str(tmp_path / "g.lpcfg")]
        if command == "train-bilayered":
            argv += ["--alignments", str(alignments), "--m2", "1"]
        return argv
    return argv


def _one_layer_bilayered(command):
    """``command`` in lattice mode ``bilayered`` over the one-layer
    ``grammar_file`` as ``--bilayered-grammar`` and an --input that holds
    only a comment: a check made per question would never run."""
    def argv(tmp_path, grammar_file, classifier_file):
        questions = tmp_path / "comment.txt"
        questions.write_text("# only a comment\n", encoding="utf-8")
        argv = [command, "--lattice" if command == "sample" else "--mode", "bilayered",
                "--bilayered-grammar", grammar_file, "--input", str(questions)]
        if command != "build-lattice":
            argv += ["--grammar", grammar_file]
        if command == "paraphrase":
            argv += ["--classifier", classifier_file]
        return argv
    return argv


def _missing_mode_input(command, mode):
    """``command`` in lattice ``mode`` without the file that mode reads,
    over an --input that holds only a comment and a grammar and classifier
    that do not exist: a check made per question would never run, and
    any load before the check would exit 2."""
    def argv(tmp_path, grammar_file, classifier_file):
        questions = tmp_path / "comment.txt"
        questions.write_text("# only a comment\n", encoding="utf-8")
        missing = str(tmp_path / "missing")
        argv = [command, "--lattice" if command == "sample" else "--mode", mode,
                "--input", str(questions)]
        if command != "build-lattice":
            argv += ["--grammar", missing]
        if command == "paraphrase":
            argv += ["--classifier", missing]
        return argv
    return argv


def _argv(*args):
    """The command line ``args``, with every ``MISSING`` a file that does
    not exist, so an input that loads before a usage check would exit 2."""
    def argv(tmp_path, grammar_file, classifier_file):
        missing = str(tmp_path / "missing")
        return [missing if arg == "MISSING" else arg for arg in args]
    return argv


class TestBadInputs:
    @pytest.mark.parametrize(
        "make_argv, code, message",
        [
            (_bad_config, 1, "usage error: config key 'm1'"),
            (_zero_samples("sample"), 1, "usage error: --m must be at least 1"),
            (_zero_samples("paraphrase"), 1, "usage error: --m must be at least 1"),
            (_zero_samples("sample", inputs_load=False), 1,
             "usage error: --m must be at least 1, got 0"),
            (_zero_samples("paraphrase", inputs_load=False), 1,
             "usage error: --m must be at least 1, got 0"),
            (_states("train-grammar", "m1=0"), 1, "usage error: --m1 must be at least 1, got 0"),
            (_states("train-grammar", "m1=-3", via_config=True), 1,
             "usage error: --m1 must be at least 1, got -3"),
            (_states("train-bilayered", "m1=0"), 1,
             "usage error: --m1 must be at least 1, got 0"),
            (_states("train-bilayered", "m2=0"), 1,
             "usage error: --m2 must be at least 1, got 0"),
            (_states("train-bilayered", "m2=-1", via_config=True), 1,
             "usage error: --m2 must be at least 1, got -1"),
            (_bad_model("BIAS", "abc"), 2, "clf.tsv:11: bad number 'abc'"),
            (_bad_model("FEATURE", "nan"), 2, "clf.tsv:1: bad number 'nan'"),
            (_bad_model("BIAS", "inf"), 2, "clf.tsv:11: bad number 'inf'"),
            (_bad_model("THRESHOLD", "nan"), 2, "clf.tsv:12: bad number 'nan'"),
            (_repeated_model_line("FEATURE"), 2, "clf.tsv:13: FEATURE 'bleu1' repeats line 1"),
            (_repeated_model_line("BIAS"), 2, "clf.tsv:13: BIAS repeats line 11"),
            (_repeated_model_line("THRESHOLD"), 2, "clf.tsv:13: THRESHOLD repeats line 12"),
            (_renamed_model_feature, 2, "clf.tsv:1: unknown feature 'bleuX'"),
            (_dropped_model_line("FEATURE\tbleu2"), 2, "clf.tsv: missing FEATURE 'bleu2' line"),
            (_dropped_model_line("BIAS"), 2, "clf.tsv: missing BIAS line"),
            (_dropped_model_line("THRESHOLD"), 2, "clf.tsv: missing THRESHOLD line"),
            (_pairs("\tb\t1"), 2, "pairs.tsv:1: empty source or candidate"),
            (_pairs("a b\t \t0"), 2, "pairs.tsv:1: empty source or candidate"),
            (_zero_probability, 2, "out of (0,1]"),
            (_deficit_context, 2, "deficit.lpcfg: invalid grammar: deficit:"),
            (_perceptron_lines("FEATURE\tbias\tabc\n"), 2, "percep.tsv:2: bad weight 'abc'"),
            (_perceptron_lines("FEATURE\tbias\t-inf\n"), 2, "percep.tsv:2: bad weight '-inf'"),
            (_perceptron_lines("FEATURE\tbias\t1.0\nFEATURE\tbias\t2.0\n"), 2,
             "percep.tsv:3: FEATURE 'bias' repeats line 2"),
            (_perceptron_lines("", steps="abc"), 2, "percep.tsv:1: bad STEPS count 'abc'"),
            (_perceptron_lines("SKIPPED\t-x\n"), 2, "percep.tsv:2: bad SKIPPED count '-x'"),
            (_perceptron_lines("STEPS\t2\n"), 2, "percep.tsv:2: STEPS repeats line 1"),
            (_perceptron_lines("SKIPPED\t0\nSKIPPED\t0\n"), 2,
             "percep.tsv:3: SKIPPED repeats line 2"),
            (_perceptron_lines("SKIPPED\t0\nFEATURE\tbias\t1.0\n", steps=None), 2,
             "percep.tsv: missing STEPS line"),
            (_perceptron_lines("FEATURE\tbias\t1.0\n"), 2, "percep.tsv: missing SKIPPED line"),
            # q09_para1's first entity lattice score is 2.0: each product
            # stays finite (0.93e308 and 1.6e308) and their sum overflows.
            (_perceptron_lines("SKIPPED\t0\nFEATURE\tclassifier_score\t1e308\n"
                               "FEATURE\tlattice_score\t8e307\n"), 2,
             "error: q09_para1.graph: grounding score out of float range "
             "(intermediate overflow in fsum)"),
            (_graph_score("q11_orig.graph", "nan"), 2, "q11_orig.graph:2: bad score 'nan'"),
            # q09_para1's entity lattice score is 2.0, so its two products are
            # +inf and -inf.
            (_graph_score("q09_para1.graph", "1e308",
                          "SKIPPED\t0\nFEATURE\tclassifier_score\t10\n"
                          "FEATURE\tlattice_score\t-1e308\n"), 2,
             "error: q09_para1.graph: grounding score out of float range (-inf + inf in fsum)"),
            # q11_orig's one infinite product, 10 * 1e308, meets no product
            # of opposite sign; the graphs before it score below 10.
            (_graph_score("q11_orig.graph", "1e308",
                          "SKIPPED\t0\nFEATURE\tclassifier_score\t10\n"), 2,
             "error: q11_orig.graph: grounding score out of float range "
             "(infinite product in fsum)"),
            (_kb_line("\tcapital.of\tSpain"), 2,
             "kb.tsv:2: empty field in KB line '\\tcapital.of\\tSpain'"),
            (_kb_line("Madrid\t\tSpain"), 2, "kb.tsv:2: empty field in KB line"),
            (_kb_line("Madrid\tcapital.of\t"), 2, "kb.tsv:2: empty field in KB line"),
            (_kb_line("TYPE\t\tcity"), 2, "kb.tsv:2: empty field in KB line"),
            (_kb_line("TYPE\tParis\t"), 2, "kb.tsv:2: empty field in KB line"),
            (_bad_qa_graph_name("q01\0.graph"), 2, "qa.tsv:1: NUL byte in graph name"),
            (_bad_qa_graph_name(""), 2, "qa.tsv:1: cannot read graph ''"),
            (_bad_qa_answers(""), 2, "qa.tsv:1: empty gold answer in ''"),
            (_bad_qa_answers("Paris||Lyon"), 2, "qa.tsv:1: empty gold answer in 'Paris||Lyon'"),
            (_bad_rule_score, 2, "rules.tsv:2: bad score 'inf'"),
            (_argv("build-lattice"), 1, "give exactly one of --question or --input"),
            (_argv("build-lattice", "--question", "when is easter", "--input", "questions.txt"),
             1, "give exactly one of --question or --input"),
            (_argv("build-lattice", "--mode", "rules", "--question", "when is easter"),
             1, "--rules is required for mode 'rules'"),
            (_argv("build-lattice", "--mode", "bilayered", "--question", "when is easter"),
             1, "--bilayered-grammar is required for mode 'bilayered'"),
            (_missing_mode_input("build-lattice", "rules"), 1,
             "usage error: --rules is required for mode 'rules'"),
            (_missing_mode_input("build-lattice", "bilayered"), 1,
             "usage error: --bilayered-grammar is required for mode 'bilayered'"),
            (_missing_mode_input("sample", "rules"), 1,
             "usage error: --rules is required for mode 'rules'"),
            (_missing_mode_input("sample", "bilayered"), 1,
             "usage error: --bilayered-grammar is required for mode 'bilayered'"),
            (_missing_mode_input("paraphrase", "rules"), 1,
             "usage error: --rules is required for mode 'rules'"),
            (_missing_mode_input("paraphrase", "bilayered"), 1,
             "usage error: --bilayered-grammar is required for mode 'bilayered'"),
            (_one_layer_bilayered("build-lattice"), 2,
             "mini.lpcfg: bilayered lattices need a two-layer grammar"),
            (_one_layer_bilayered("sample"), 2,
             "mini.lpcfg: bilayered lattices need a two-layer grammar"),
            (_one_layer_bilayered("paraphrase"), 2,
             "mini.lpcfg: bilayered lattices need a two-layer grammar"),
            (_epochs("train-classifier", "0"), 1,
             "usage error: --epochs must be at least 1, got 0"),
            (_epochs("train-classifier", "-2"), 1,
             "usage error: --epochs must be at least 1, got -2"),
            (_epochs("semparse-train", "-1"), 1,
             "usage error: --epochs must be at least 1, got -1"),
            (_aligned("0\t2\t0-0"), 2, "alignment references unknown tree"),
            (_aligned("0\t1\t0-2"), 2, "alignment index out of range"),
            (_aligned("0\t999\t0-0"), 2,
             "one.tsv:1: alignment references unknown tree 999; the treebank has 2 trees"),
            (_aligned("0\t1\t0-5"), 2,
             "one.tsv:1: alignment index out of range: token 5 of tree 1, which has 2 tokens"),
            (_reserved_label("train-grammar"), 2,
             "two.trees:2: label '@S' starts with '@', which binarization reserves"),
            (_reserved_label("train-bilayered"), 2,
             "two.trees:2: label '@S' starts with '@', which binarization reserves"),
            (_argv("paraphrase", "--mode", "naive", "--question", "what is x",
                             "--classifier", "MISSING"), 1,
             "usage error: missing required option --grammar"),
            (_argv("paraphrase", "--mode", "naive", "--grammar", "MISSING",
                             "--classifier", "MISSING"), 1,
             "usage error: give exactly one of --question or --input"),
            (_argv("sample", "--lattice", "naive", "--grammar", "MISSING"), 1,
             "usage error: give exactly one of --question or --input"),
            (_argv("parse", "--grammar", "MISSING"), 1,
             "usage error: give exactly one of --question or --input"),
            (_argv("build-lattice", "--mode", "rules", "--rules", "MISSING"), 1,
             "usage error: give exactly one of --question or --input"),
            (_argv("semparse-train", "--kb", "MISSING", "--qa", "MISSING",
                             "--graphs-dir", "MISSING"), 1,
             "usage error: missing required option --out"),
            (_argv("semparse-train", "--kb", "MISSING", "--graphs-dir", "MISSING",
                             "--out", "MISSING"), 1,
             "usage error: missing required option --qa"),
            (_argv("semparse-eval", "--kb", "MISSING", "--qa", "MISSING",
                             "--graphs-dir", "MISSING"), 1,
             "usage error: missing required option --model"),
        ],
        ids=["config-m1", "sample-m0", "paraphrase-m0", "sample-m0-before-loading",
             "paraphrase-m0-before-loading",
             "grammar-m1-0", "grammar-m1-config", "bilayered-m1-0", "bilayered-m2-0",
             "bilayered-m2-config", "model-bias", "model-feature-nan",
             "model-bias-inf", "model-threshold-nan", "model-repeated-feature",
             "model-repeated-bias", "model-repeated-threshold", "model-unknown-feature",
             "model-missing-feature", "model-missing-bias", "model-missing-threshold",
             "pairs-empty-source", "pairs-empty-candidate", "grammar-zero",
             "grammar-deficit", "perceptron-weight", "perceptron-weight-inf",
             "perceptron-repeated-feature", "perceptron-steps-not-a-count",
             "perceptron-skipped-negative", "perceptron-repeated-steps",
             "perceptron-repeated-skipped", "perceptron-missing-steps",
             "perceptron-missing-skipped", "perceptron-score-overflow", "graph-score-nan",
             "graph-score-opposite-infinities", "graph-score-infinite-product",
             "kb-empty-subject", "kb-empty-relation",
             "kb-empty-object", "kb-empty-type-entity", "kb-empty-type",
             "qa-graph-nul", "qa-graph-empty", "qa-answer-empty", "qa-answer-alternative-empty",
             "rules-score-inf", "no-question", "two-questions", "rules-missing",
             "bilayered-grammar-missing", "build-lattice-rules-missing-before-loading",
             "build-lattice-bilayered-missing-before-loading",
             "sample-rules-missing-before-loading", "sample-bilayered-missing-before-loading",
             "paraphrase-rules-missing-before-loading",
             "paraphrase-bilayered-missing-before-loading",
             "build-lattice-bilayered-one-layer", "sample-bilayered-one-layer",
             "paraphrase-bilayered-one-layer", "classifier-epochs-0",
             "classifier-epochs-negative", "semparse-epochs-negative", "alignment-unknown-tree",
             "alignment-index-range",
             "alignment-unknown-tree-where", "alignment-index-range-where",
             "grammar-reserved-label", "bilayered-reserved-label",
             "paraphrase-grammar-missing-before-loading",
             "paraphrase-question-missing-before-loading",
             "sample-question-missing-before-loading", "parse-question-missing-before-loading",
             "build-lattice-question-missing-before-loading",
             "semparse-train-out-missing-before-loading",
             "semparse-train-qa-missing-before-loading",
             "semparse-eval-model-missing-before-loading"],
    )
    def test_exit_code_and_message_without_traceback(
        self, make_argv, code, message, tmp_path, grammar_file, classifier_file, capsys
    ):
        assert main(make_argv(tmp_path, grammar_file, classifier_file)) == code
        err = capsys.readouterr().err
        assert message in err
        assert err.startswith("usage error: " if code == 1 else "error: ")
        assert "Traceback" not in err


_GRAPH = "TARGET x\nENTITY e1 france\nEVENT ev1\nEDGE ev1 e1 capital.of\nEDGE ev1 x capital.arg\n"


def _semparse_train_on(tmp_path, sixth_line):
    """semparse-train over one QA line whose graph is ``_GRAPH`` plus a
    sixth line."""
    (tmp_path / "g.graph").write_text(_GRAPH + sixth_line + "\n", encoding="utf-8")
    qa = tmp_path / "qa.tsv"
    qa.write_text("what is the capital of france\tg.graph\tParis\n", encoding="utf-8")
    return ["semparse-train", "--kb", data_path("kb.tsv"), "--qa", str(qa),
            "--graphs-dir", str(tmp_path), "--out", str(tmp_path / "percep.tsv")]


class TestOddQuestionGraphs:
    @pytest.mark.parametrize(
        "sixth_line, message",
        [
            ("TYPE t1 city ev1",
             "type 't1' constrains 'ev1', which is neither target nor an ENTITY"),
            ("TYPE t1 city x", "type 't1' constrains 'x', which is neither target nor an ENTITY"),
            ("TYPE t1 city t2\nTYPE t2 city",
             "type 't1' constrains 't2', which is neither target nor an ENTITY"),
            ("TYPE t1 city e2", "type 't1' constrains 'e2', which is neither target nor an ENTITY"),
            ("ENTITY e1 spain", "ENTITY id 'e1' already names the ENTITY of line 2"),
            ("EVENT ev1", "EVENT id 'ev1' already names the EVENT of line 3"),
            ("ENTITY x paris", "ENTITY id 'x' already names the TARGET of line 1"),
            ("EDGE ev2 x capital.arg", "edge references unknown event 'ev2'"),
            ("EDGE e1 x capital.arg", "edge references unknown event 'e1'"),
            ("EDGE ev1 e2 capital.arg", "edge references unknown node 'e2'"),
            ("EDGE ev1 e1 capital.of", "edge 'ev1 e1 capital.of' repeats line 4"),
            ("TARGET y", "second TARGET"),
        ],
        ids=["type-on-event", "type-on-target-id", "type-on-type", "type-on-unknown",
             "duplicate-entity", "duplicate-event", "entity-is-target", "edge-unknown-event",
             "edge-entity-as-event", "edge-unknown-node", "duplicate-edge", "second-target"],
    )
    def test_rejected_at_its_line_without_traceback(self, sixth_line, message, tmp_path, capsys):
        assert main(_semparse_train_on(tmp_path, sixth_line)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"g.graph:6: {message}" in err
        assert "Traceback" not in err

    def test_type_on_an_entity_trains(self, tmp_path, capsys):
        assert main(_semparse_train_on(tmp_path, "TYPE t1 country e1")) == 0
        assert "5 update steps, 0 skipped examples" in capsys.readouterr().out


def _semparse_argv(command, kb):
    qa = "qa_train.tsv" if command == "semparse-train" else "qa_eval.tsv"
    return [command, "--kb", kb, "--qa", data_path(qa), "--graphs-dir", data_path("graphs"),
            "--model" if command == "semparse-eval" else "--out", kb + ".out"]


# The first file each subcommand reads, given as a Latin-1 file.
_LATIN1_ARGV = {
    "train-grammar": lambda bad: ["train-grammar", "--treebank", bad, "--out", bad + ".out"],
    "train-bilayered": lambda bad: ["train-bilayered", "--config", bad],
    "validate-grammar": lambda bad: ["validate-grammar", "--grammar", bad],
    "parse": lambda bad: ["parse", "--grammar", bad, "--question", "when is easter"],
    "build-lattice": lambda bad: ["build-lattice", "--input", bad],
    "sample": lambda bad: ["sample", "--grammar", bad, "--question", "when is easter"],
    "train-classifier": lambda bad: ["train-classifier", "--pairs", bad, "--out", bad + ".out"],
    # The classifier is read before the grammar.
    "paraphrase": lambda bad: ["paraphrase", "--classifier", bad, "--grammar", bad,
                               "--question", "when is easter"],
    "semparse-train": lambda bad: _semparse_argv("semparse-train", bad),
    "semparse-eval": lambda bad: _semparse_argv("semparse-eval", bad),
}


class TestNonUtf8Input:
    @pytest.mark.parametrize("command", sorted(_LATIN1_ARGV))
    def test_error_without_traceback(self, command, tmp_path, capsys):
        assert set(_LATIN1_ARGV) == set(build_parser().commands)
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("# caf\xe9\n".encode("latin-1"))
        assert main(_LATIN1_ARGV[command](str(bad))) in (1, 2)
        err = capsys.readouterr().err
        assert err.startswith(("usage error: ", "error: "))
        assert "Traceback" not in err


class TestCrlfInputs:
    """Every input file is read with universal newlines, so CRLF copies of
    the bundled inputs give the artifacts that the LF files give: no
    ``\r`` reaches a label, word, KB id or gold answer."""

    @staticmethod
    def _artifacts(inputs: Path, out: Path, crlf: bool) -> dict[str, bytes]:
        """The bytes of a trained grammar, a parse of two questions with
        it, a trained perceptron and its evaluation.  Each command reads
        its inputs, earlier artifacts included, from copies in ``inputs``,
        made CRLF if ``crlf``."""
        graphs = inputs / "graphs"
        graphs.mkdir(parents=True)
        out.mkdir()

        def copy(path, into=inputs) -> str:
            dst = into / Path(path).name
            data = Path(path).read_bytes()
            dst.write_bytes(data.replace(b"\n", b"\r\n") if crlf else data)
            return str(dst)

        for graph in Path(data_path("graphs")).iterdir():
            copy(graph, graphs)
        questions = out / "questions.txt"
        questions.write_text("what day is christmas\nwhen is easter\n", encoding="utf-8")
        kb = copy(data_path("kb.tsv"))
        assert main(["train-grammar", "--treebank", copy(data_path("minitreebank.trees")),
                     "--m1", "2", "--out", str(out / "grammar.lpcfg")]) == 0
        assert main(["parse", "--grammar", copy(out / "grammar.lpcfg"),
                     "--input", copy(questions), "--out", str(out / "parses.txt")]) == 0
        assert main(["semparse-train", "--kb", kb, "--qa", copy(data_path("qa_train.tsv")),
                     "--graphs-dir", str(graphs), "--out", str(out / "percep.tsv")]) == 0
        assert main(["semparse-eval", "--kb", kb, "--qa", copy(data_path("qa_eval.tsv")),
                     "--graphs-dir", str(graphs), "--model", copy(out / "percep.tsv"),
                     "--out", str(out / "eval.tsv")]) == 0
        names = ("grammar.lpcfg", "parses.txt", "percep.tsv", "eval.tsv")
        return {name: (out / name).read_bytes() for name in names}

    def test_bundled_inputs_give_the_lf_artifacts(self, tmp_path):
        lf = self._artifacts(tmp_path / "lf-in", tmp_path / "lf-out", crlf=False)
        crlf = self._artifacts(tmp_path / "crlf-in", tmp_path / "crlf-out", crlf=True)
        assert lf["parses.txt"].count(b"\n") == 2
        assert crlf == lf
        assert all(b"\r" not in data for data in lf.values())


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "write",
        [
            lambda path, grammar: atomic_write(path, "new\n"),
            lambda path, grammar: save_grammar(grammar, path),
            lambda path, grammar: save_model(ClassifierModel((0.0,) * 10, 0.0, 0.5), path),
            lambda path, grammar: save_perceptron(PerceptronModel(), path),
        ],
        ids=["atomic_write", "save_grammar", "save_model", "save_perceptron"],
    )
    def test_failed_replace_keeps_old_bytes(
        self, write, tmp_path, monkeypatch, bilayered_toy_grammar
    ):
        target = tmp_path / "artifact"
        target.write_bytes(b"old bytes\n")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            write(str(target), bilayered_toy_grammar)
        assert target.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


    def test_new_file_gets_umask_mode(self, tmp_path):
        atomic_write(str(tmp_path / "atomic"), "x")
        with open(tmp_path / "plain", "w", encoding="utf-8") as handle:
            handle.write("x")
        assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


_VALID_BODY = (
    "ROOT\tS\t0\t1\n"
    "BIN\tS\t0\tA\t0\tB\t0\t1\n"
    "LEX\tA\t0\ta\t1\n"
    "LEX\tB\t0\tb\t1\n"
)


class TestValidateGrammar:
    def test_fresh_mle_grammar_validates(self, grammar_file, capsys):
        assert main(["validate-grammar", "--grammar", grammar_file]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_invalid_grammar_exits_2(self, tmp_path, bilayered_toy_grammar, capsys):
        import dataclasses

        broken = dataclasses.replace(
            bilayered_toy_grammar,
            roots={k: v * 0.5 for k, v in bilayered_toy_grammar.roots.items()},
        )
        path = tmp_path / "broken.lpcfg"
        save_grammar(broken, str(path))
        assert main(["validate-grammar", "--grammar", str(path)]) == 2
        assert "violation" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "header, body, violation",
        [
            ("layers=1 m1=2 m2=0", _VALID_BODY + "LEX\tB\t2\tb\t1\n",
             "lexical: (B,2) syntactic state out of range"),
            ("layers=2 m1=1 m2=2", _VALID_BODY.replace("\t0\t", "\t0:0\t")
             + "LEX\tB\t0:2\tb\t1\n", "lexical: (B,0:2) semantic state out of range"),
            ("layers=1 m1=1 m2=0", _VALID_BODY.replace("S\t0\t1", "S\t0\t0.5"),
             "root distribution sums to 0.5"),
            ("layers=1 m1=1 m2=0",
             _VALID_BODY.replace("S\t0\t1", "S\t0\t0.5") + "ROOT\tZ\t0\t0.5\n",
             "root symbol 'Z' has no rules"),
            ("layers=1 m1=1 m2=0", _VALID_BODY.replace("B\t0\t1", "B\t0\t0.5"),
             "binary (S,0) sums to 0.5"),
            ("layers=1 m1=1 m2=0", _VALID_BODY.replace("B\t0\t1", "B\t0\t0.5")
             + "BIN\tS\t0\tA\t0\tQ\t0\t0.5\n", "binary rule (S,0) -> A Q uses unknown symbols"),
            ("layers=1 m1=1 m2=0", _VALID_BODY.replace("a\t1", "a\t0.5"),
             "lexical (A,0) sums to 0.5"),
            ("layers=1 m1=2 m2=0", _VALID_BODY.replace("B\t0\t1", "B\t0\t0.5")
             + "BIN\tS\t0\tS\t1\tB\t0\t0.5\n",
             "deficit: interminal context (S,1) has no binary rules"),
            ("layers=1 m1=2 m2=0", _VALID_BODY.replace("A\t0\tB", "A\t1\tB"),
             "deficit: preterminal context (A,1) has no lexical rules"),
        ],
        ids=["syntactic-range", "semantic-range", "root-sum", "root-without-rules",
             "binary-sum", "unknown-symbol", "lexical-sum", "interminal-deficit",
             "preterminal-deficit"],
    )
    def test_each_violation_exits_2_and_is_named(self, header, body, violation, tmp_path, capsys):
        path = tmp_path / "bad.lpcfg"
        path.write_text(f"LPCFG v1 {header}\n{body}", encoding="utf-8")
        assert main(["validate-grammar", "--grammar", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines()[-2:] == [f"violation: {violation}", "1 violation(s)"]
        assert err == f"error: {path}: grammar is invalid\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "[Errno 2] No such file or directory: '{path}'\n"),
            ("", "{path}: empty file\n"),
            ("LPCFG v1 layers=1 m1=1 m2=0\n" + _VALID_BODY + "BIN\tS\t0\tA\t0\tB\t0\t1\n",
             "{path}:6: duplicate binary rule\n"),
        ],
        ids=["missing", "empty", "duplicate-binary-rule"],
    )
    def test_unloadable_grammar_exits_2_and_names_the_file(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.lpcfg"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert main(["validate-grammar", "--grammar", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: " + message.format(path=path))


class TestParse:
    def test_figure_notation(self, tmp_path, bilayered_toy_grammar, capsys):
        path = tmp_path / "toy.lpcfg"
        save_grammar(bilayered_toy_grammar, str(path))
        rc = main([
            "parse", "--grammar", str(path),
            "--question", "what day is nochebuena",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("(SBARQ-33-403 (WHNP-7-291 (WP-7-254 what)")

    def test_failed_question_is_noted_and_batch_goes_on(self, grammar_file, tmp_path, capsys):
        questions = tmp_path / "q.txt"
        questions.write_text("what day is christmas\nzzz qqq\n", encoding="utf-8")
        rc = main(["parse", "--grammar", grammar_file, "--input", str(questions)])
        out, err = capsys.readouterr()
        assert rc == 0
        assert len(out.splitlines()) == 1
        assert out.startswith("(SBARQ-") and out.endswith(" christmas)))\n")
        assert err.splitlines() == ["note: zzz qqq: no derivation covers 'zzz qqq'"]


def _unknown_mode_argv(command, tmp_path):
    """``command`` over an empty --input, with a grammar, rules and
    classifier that do not exist, so any load before the mode check is
    an exit 2."""
    questions = tmp_path / "empty.txt"
    questions.write_text("", encoding="utf-8")
    missing = str(tmp_path / "missing")
    argv = [command, "--input", str(questions), "--rules", missing]
    if command != "build-lattice":
        argv += ["--grammar", missing]
    if command == "paraphrase":
        argv += ["--classifier", missing]
    return argv


class TestUnknownLatticeMode:
    @pytest.mark.parametrize(
        "command, flag",
        [("build-lattice", "--mode"), ("sample", "--lattice"), ("paraphrase", "--mode")],
    )
    def test_flag_is_usage_error_before_loading(self, command, flag, tmp_path, capsys):
        assert main([*_unknown_mode_argv(command, tmp_path), flag, "bogus"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ")
        assert "invalid choice: 'bogus'" in err

    @pytest.mark.parametrize(
        "command, key",
        [("build-lattice", "mode"), ("sample", "lattice"), ("paraphrase", "mode")],
    )
    def test_config_key_is_usage_error_before_loading(self, command, key, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}=bogus\n", encoding="utf-8")
        assert main([*_unknown_mode_argv(command, tmp_path), "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"usage error: config key {key!r}: bad value 'bogus'"]


class TestBlankQuestion:
    @pytest.mark.parametrize("question", ["", "   "], ids=["empty", "spaces"])
    @pytest.mark.parametrize("command", ["parse", "build-lattice", "sample", "paraphrase"])
    def test_usage_error_before_loading(self, command, question, tmp_path, capsys):
        # The grammar, rules and classifier do not exist, so any load
        # before the check is an exit 2.
        missing = str(tmp_path / "missing")
        out = tmp_path / "out.txt"
        argv = [command, "--question", question, "--out", str(out)]
        if command != "build-lattice":
            argv += ["--grammar", missing]
        if command != "parse":
            argv += ["--rules", missing]
        if command == "paraphrase":
            argv += ["--classifier", missing]
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.splitlines() == ["usage error: --question is blank"]
        assert not out.exists()


class TestNonFiniteThreshold:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, flag", [("build-lattice", "--min-score"), ("paraphrase", "--threshold")]
    )
    def test_flag_is_usage_error_before_loading(self, command, flag, value, tmp_path, capsys):
        assert main([*_unknown_mode_argv(command, tmp_path), f"{flag}={value}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and f"{flag}: invalid" in err

    @pytest.mark.parametrize(
        "command, key", [("build-lattice", "min_score"), ("paraphrase", "threshold")]
    )
    def test_config_key_is_usage_error_before_loading(self, command, key, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}=nan\n", encoding="utf-8")
        assert main([*_unknown_mode_argv(command, tmp_path), "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"usage error: config key {key!r}: bad value 'nan'"]


def _wide_tree(children: int) -> str:
    return "(S" + " (X w)" * children + ")"


def _deep_tree(levels: int) -> str:
    return "(A (B b) " * levels + "(B b)" + ")" * levels


class TestTreeSizeBound:
    @pytest.mark.parametrize("line", [_deep_tree(1200), _wide_tree(1200)], ids=["deep", "wide"])
    def test_larger_tree_is_rejected_at_its_line(self, line, tmp_path, capsys):
        treebank = tmp_path / "big.trees"
        treebank.write_text(line + "\n", encoding="utf-8")
        argv = ["train-grammar", "--treebank", str(treebank), "--m1", "2",
                "--out", str(tmp_path / "g.lpcfg")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{treebank}:1: " in err
        assert "Traceback" not in err

    # The widest tree binarizes into the tallest chain; the deepest nests
    # a unary root over a right-branching spine.
    @pytest.mark.parametrize(
        "line", [_wide_tree(MAX_TREE_NODES - 1), "(TOP " + _deep_tree(199) + ")"],
        ids=["wide", "deep"],
    )
    def test_tree_at_the_bound_trains_bilayered(self, line, tmp_path, capsys):
        assert line.count("(") == MAX_TREE_NODES
        treebank, alignments = tmp_path / "big.trees", tmp_path / "none.tsv"
        treebank.write_text(line + "\n", encoding="utf-8")
        alignments.write_text("", encoding="utf-8")
        argv = ["train-bilayered", "--treebank", str(treebank), "--alignments", str(alignments),
                "--m1", "2", "--m2", "4", "--out", str(tmp_path / "g.lpcfg")]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("wrote ")


class TestSample:
    def test_output_format_and_determinism(self, grammar_file, tmp_path):
        out_a = tmp_path / "a.tsv"
        out_b = tmp_path / "b.tsv"
        argv = [
            "sample", "--grammar", grammar_file,
            "--question", "what day is christmas",
            "--lattice", "rules", "--rules", data_path("rewrite_rules.tsv"),
            "--m", "50", "--seed", "3",
        ]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            seed, text = line.split("\t")
            assert seed.isdigit()
            assert text

    def test_failed_question_is_noted_and_batch_goes_on(self, grammar_file, tmp_path, capsys):
        questions = tmp_path / "q.txt"
        questions.write_text(
            "what day is christmas\nzzz qqq\nwhen is easter\n", encoding="utf-8"
        )
        rc = main([
            "sample", "--grammar", grammar_file, "--input", str(questions),
            "--lattice", "rules", "--rules", data_path("rewrite_rules.tsv"),
            "--m", "20", "--seed", "7",
        ])
        out, err = capsys.readouterr()
        assert rc == 0
        assert err.splitlines() == ["note: zzz qqq: no grammar root survives over the lattice"]
        texts = [line.split("\t")[1] for line in out.splitlines()]
        assert any("christmas" in text for text in texts)
        assert any("easter" in text for text in texts)


class TestBuildLattice:
    def test_naive_dump(self, capsys):
        rc = main(["build-lattice", "--mode", "naive", "--question", "why so serious"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "NODE 0" in out
        assert "EDGE 0 1 why input" in out

    @pytest.mark.parametrize("mode", ["naive", "rules", "bilayered"])
    def test_mode_reads_only_its_own_input(self, mode, bilayered_file, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        rules = data_path("rewrite_rules.tsv") if mode == "rules" else missing
        layered = bilayered_file if mode == "bilayered" else missing
        argv = ["build-lattice", "--mode", mode, "--rules", rules,
                "--bilayered-grammar", layered, "--question", "what day is christmas"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("NODE 0\n")
        assert err == ""

    def test_failed_question_is_noted_and_batch_goes_on(self, bilayered_file, tmp_path, capsys):
        questions = tmp_path / "q.txt"
        questions.write_text("what day is christmas\nzzz qqq\n", encoding="utf-8")
        rc = main([
            "build-lattice", "--mode", "bilayered", "--bilayered-grammar", bilayered_file,
            "--input", str(questions),
        ])
        out, err = capsys.readouterr()
        assert rc == 0
        assert out.count("NODE 0\n") == 1
        assert "EDGE 3 4 christmas input" in out
        assert err.splitlines() == ["note: zzz qqq: no derivation covers 'zzz qqq'"]


class TestParaphrase:
    def test_never_emits_input_question(self, grammar_file, classifier_file, tmp_path):
        questions = tmp_path / "q.txt"
        questions.write_text(
            "what day is nochebuena\nwhen is easter\n", encoding="utf-8"
        )
        out = tmp_path / "para.tsv"
        rc = main([
            "paraphrase", "--grammar", grammar_file,
            "--mode", "rules", "--rules", data_path("rewrite_rules.tsv"),
            "--classifier", classifier_file,
            "--gazetteer", data_path("gazetteer.txt"),
            "--input", str(questions),
            "--m", "150", "--seed", "11",
            "--out", str(out),
        ])
        assert rc == 0
        rows = [
            line.split("\t")
            for line in out.read_text(encoding="utf-8").splitlines()
        ]
        assert rows
        for question, candidate, score in rows:
            assert candidate != question
            assert 0.0 <= float(score) <= 1.0

    def test_reruns_byte_identical(self, grammar_file, classifier_file, tmp_path):
        argv = [
            "paraphrase", "--grammar", grammar_file,
            "--mode", "naive",
            "--classifier", classifier_file,
            "--question", "what day is nochebuena",
            "--m", "30", "--seed", "5", "--threshold", "0.0",
        ]
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("rules", "01c8373931e336e83b4e76ab309a70717f9c6860bc0b93b950c8f69f258b94d7"),
            ("bilayered", "07e58644b5163a2975cefa6bdab3be0214fdcca49bf43f6d5e2d7183a0088153"),
        ],
    )
    def test_bundled_outputs_byte_for_byte(
        self, mode, digest, grammar_file, bilayered_file, classifier_file, tmp_path
    ):
        # The held-out questions paraphrased as the benchmark's golden step
        # runs them at its default seed (perfbench/golden.json): any change
        # to lattices, pruning, sampling or the filter shows here.
        out = tmp_path / f"paraphrases-{mode}.tsv"
        lattice_input = (["--rules", data_path("rewrite_rules.tsv")] if mode == "rules"
                         else ["--bilayered-grammar", bilayered_file])
        assert main([
            "paraphrase", "--grammar", grammar_file, "--mode", mode, *lattice_input,
            "--classifier", classifier_file, "--gazetteer", data_path("gazetteer.txt"),
            "--input", data_path("heldout_questions.txt"),
            "--m", "400", "--seed", "7", "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _run_with_config(tmp_path, argv, keys):
    """Output bytes of ``argv`` run with a config file of ``keys`` plus an ``out`` key."""
    out = tmp_path / "by_config"
    config = tmp_path / "run.cfg"
    config.write_text(
        "".join(f"{key}={value}\n" for key, value in {**keys, "out": out}.items()),
        encoding="utf-8",
    )
    assert main([*argv, "--config", str(config)]) == 0
    return out.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        config = tmp_path / "pipeline.cfg"
        grammar_out = tmp_path / "g.lpcfg"
        config.write_text(
            "treebank={}\nm1=2\nseed=1\nout={}\n".format(
                data_path("minitreebank.trees"), grammar_out
            ),
            encoding="utf-8",
        )
        assert main(["train-grammar", "--config", str(config)]) == 0
        assert grammar_out.exists()
        first = grammar_out.read_bytes()
        # A flag overrides the config value.
        assert main([
            "train-grammar", "--config", str(config), "--m1", "3",
        ]) == 0
        assert grammar_out.read_bytes() != first

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path):
        # The mark must not become part of the first key, which would then
        # be ignored as unknown.
        grammars = []
        for name, mark in (("plain", ""), ("marked", "\ufeff")):
            config, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.lpcfg"
            config.write_text(f"{mark}m1=4\nseed=3\n", encoding="utf-8")
            assert main([
                "train-grammar", "--config", str(config),
                "--treebank", data_path("minitreebank.trees"), "--out", str(out),
            ]) == 0
            grammars.append(out.read_bytes())
        assert grammars[0] == grammars[1]

    @pytest.mark.parametrize(
        "command, keys, flags",
        [
            ("paraphrase", {"threshold": "0.7"}, ["--threshold", "0.7"]),
            ("sample", {"lattice": "bilayered", "bilayered_grammar": "{bilayered}"},
             ["--lattice", "bilayered", "--bilayered-grammar", "{bilayered}"]),
        ],
        ids=["float-threshold", "bilayered_grammar"],
    )
    def test_config_key_equals_flag(
        self, command, keys, flags, tmp_path, grammar_file, classifier_file, bilayered_file
    ):
        common = [command, "--grammar", grammar_file, "--question", "what day is nochebuena",
                  "--m", "40", "--seed", "5"]
        if command == "paraphrase":
            common += ["--mode", "rules", "--rules", data_path("rewrite_rules.tsv"),
                       "--classifier", classifier_file]
        keys = {key: value.format(bilayered=bilayered_file) for key, value in keys.items()}
        flags = [flag.format(bilayered=bilayered_file) for flag in flags]
        by_config = _run_with_config(tmp_path, common, keys)
        assert main([*common, *flags, "--out", str(tmp_path / "by_flags")]) == 0
        assert by_config == (tmp_path / "by_flags").read_bytes()
        # The key took effect: the default gives other bytes.
        assert main([*common, "--out", str(tmp_path / "default")]) == 0
        assert by_config != (tmp_path / "default").read_bytes()

    def test_semparse_keys_equal_flags(self, tmp_path):
        data = {"kb": data_path("kb.tsv"), "graphs_dir": data_path("graphs")}
        flags = ["--kb", data["kb"], "--graphs-dir", data["graphs_dir"]]
        model = tmp_path / "model.tsv"
        trained = _run_with_config(
            tmp_path, ["semparse-train", "--epochs", "2"],
            {**data, "qa_train": data_path("qa_train.tsv")},
        )
        assert main(["semparse-train", *flags, "--qa", data_path("qa_train.tsv"),
                     "--epochs", "2", "--out", str(model)]) == 0
        assert trained == model.read_bytes()
        evaluated = _run_with_config(
            tmp_path, ["semparse-eval", "--model", str(model)],
            {**data, "qa_eval": data_path("qa_eval.tsv")},
        )
        assert main(["semparse-eval", *flags, "--qa", data_path("qa_eval.tsv"),
                     "--model", str(model), "--out", str(tmp_path / "eval.tsv")]) == 0
        assert evaluated == (tmp_path / "eval.tsv").read_bytes()

    def test_ignored_keys(self, tmp_path):
        keys = {"kb": data_path("kb.tsv"), "qa_train": data_path("qa_train.tsv"),
                "graphs_dir": data_path("graphs"), "epochs": "2"}
        argv = ["semparse-train"]
        plain = _run_with_config(tmp_path, argv, keys)
        noisy = _run_with_config(tmp_path, argv, {
            **keys, "handler": "nope", "command": "sample", "original_only": "true",
            "config": "nope.cfg", "no_such_key": "1", "m1": "abc",
        })
        assert plain == noisy


class TestSemparse:
    def test_train_then_eval_report(self, tmp_path, capsys):
        model = tmp_path / "model.tsv"
        rc = main([
            "semparse-train",
            "--kb", data_path("kb.tsv"),
            "--qa", data_path("qa_train.tsv"),
            "--graphs-dir", data_path("graphs"),
            "--epochs", "5", "--beam", "100",
            "--out", str(model),
        ])
        assert rc == 0
        report = tmp_path / "report.tsv"
        rc = main([
            "semparse-eval",
            "--kb", data_path("kb.tsv"),
            "--qa", data_path("qa_eval.tsv"),
            "--graphs-dir", data_path("graphs"),
            "--model", str(model),
            "--out", str(report),
        ])
        assert rc == 0
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith("AVG\t")
        avg_f1 = float(lines[-1].split("\t")[3])
        assert 0.0 <= avg_f1 <= 1.0


    def test_original_only_reads_each_first_graph(self, tmp_path):
        # --original-only trains as a QA file that lists only each line's
        # first graph does.
        first_only = tmp_path / "first_only.tsv"
        with open(data_path("qa_train.tsv"), encoding="utf-8") as handle:
            rows = [line.split("\t") for line in handle if line.strip()]
        assert any("," in graphs for _, graphs, _ in rows)
        first_only.write_text(
            "".join(f"{q}\t{graphs.split(',')[0]}\t{gold}" for q, graphs, gold in rows),
            encoding="utf-8",
        )
        common = ["semparse-train", "--kb", data_path("kb.tsv"),
                  "--graphs-dir", data_path("graphs")]
        models = {}
        for name, extra in [("flag", ["--qa", data_path("qa_train.tsv"), "--original-only"]),
                            ("first", ["--qa", str(first_only)]),
                            ("all", ["--qa", data_path("qa_train.tsv")])]:
            models[name] = tmp_path / f"{name}.tsv"
            assert main([*common, *extra, "--out", str(models[name])]) == 0
        assert models["flag"].read_bytes() == models["first"].read_bytes()
        assert models["flag"].read_bytes() != models["all"].read_bytes()


class TestBeamBelowOne:
    """A beam below 1 is a usage error before the KB loads: the KB given
    does not exist, so any load would exit 2."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", ["semparse-train", "semparse-eval"])
    def test_flag_is_usage_error_before_loading(self, command, value, tmp_path, capsys):
        argv = _semparse_argv(command, str(tmp_path / "missing"))
        assert main([*argv, f"--beam={value}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: --beam must be at least 1, got {value}\n"

    @pytest.mark.parametrize("command", ["semparse-train", "semparse-eval"])
    def test_config_key_is_usage_error_before_loading(self, command, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("beam=0\n", encoding="utf-8")
        argv = _semparse_argv(command, str(tmp_path / "missing"))
        assert main([*argv, "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "usage error: --beam must be at least 1, got 0\n"


# Runs each argv of ``sys.argv[1]`` through ``cli.main`` in one fresh
# interpreter; the last stdout line has, after ``import paralat.cli`` and
# after each run, the exit code and whether numpy was loaded.
_NUMPY_PROBE = """
import json, sys
import paralat.cli
report = [["import paralat.cli", 0, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    report.append([argv[0], paralat.cli.main(argv), "numpy" in sys.modules])
print(json.dumps(report))
"""


class TestNumpyOnlyForTraining:
    def test_commands_that_do_not_train_never_load_numpy(
        self, grammar_file, classifier_file, bilayered_file, tmp_path
    ):
        # The test process has numpy loaded already, so the commands run in
        # a fresh interpreter; train-grammar, last, shows the probe sees it.
        question = ["--question", "what day is nochebuena"]
        rules = ["--rules", data_path("rewrite_rules.tsv")]
        model = str(tmp_path / "percep.tsv")
        runs = [
            ["paraphrase", "--grammar", grammar_file, "--mode", "rules", *rules,
             "--classifier", classifier_file, "--gazetteer", data_path("gazetteer.txt"),
             "--m", "30", *question, "--out", str(tmp_path / "rules.tsv")],
            ["paraphrase", "--grammar", grammar_file, "--mode", "bilayered",
             "--bilayered-grammar", bilayered_file, "--classifier", classifier_file,
             "--m", "30", *question, "--out", str(tmp_path / "bilayered.tsv")],
            ["parse", "--grammar", grammar_file, *question, "--out", str(tmp_path / "parse")],
            ["sample", "--grammar", grammar_file, "--m", "30", *question,
             "--out", str(tmp_path / "sample")],
            ["build-lattice", "--mode", "rules", *rules, *question,
             "--out", str(tmp_path / "lattice")],
            ["semparse-train", "--kb", data_path("kb.tsv"), "--qa", data_path("qa_train.tsv"),
             "--graphs-dir", data_path("graphs"), "--epochs", "2", "--out", model],
            ["semparse-eval", "--kb", data_path("kb.tsv"), "--qa", data_path("qa_eval.tsv"),
             "--graphs-dir", data_path("graphs"), "--model", model,
             "--out", str(tmp_path / "eval")],
            ["train-grammar", "--treebank", data_path("minitreebank.trees"), "--m1", "2",
             "--out", str(tmp_path / "g.lpcfg")],
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, json.dumps(runs)],
            env={**os.environ, "PYTHONPATH": str(src)},
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        expected = [["import paralat.cli", 0, False]]
        expected += [[argv[0], 0, argv[0] == "train-grammar"] for argv in runs]
        assert report == expected


# Small pools, so that ids collide and references resolve often.
_IDS = st.sampled_from(["x", "e1", "e2", "ev1", "t1", "target"])
_WORDS = st.lists(
    st.sampled_from(["france", "spain", "paris", "czech", "republic", "people", "the"]),
    min_size=1, max_size=2,
).map(" ".join)
_LABELS = st.sampled_from(["capital.of", "capital.arg", "city", "speak.in", "location.country"])
_GRAPH_LINE = st.one_of(
    st.tuples(st.just("ENTITY"), _IDS, _WORDS),
    st.tuples(st.just("TYPE"), _IDS, _LABELS),
    st.tuples(st.just("TYPE"), _IDS, _LABELS, _IDS),
    st.tuples(st.just("EVENT"), _IDS),
    st.tuples(st.just("EDGE"), _IDS, _IDS, _LABELS),
    st.tuples(st.just("TEXT"), _WORDS),
    st.tuples(st.just("SCORE"), st.sampled_from(["0.5", "-2", "1e-300"])),
).map(" ".join)
# One TARGET line and no other, so that most graphs load once their
# references resolve.
_QUESTION_GRAPH = st.tuples(_IDS, st.lists(_GRAPH_LINE, max_size=8)).map(
    lambda graph: "\n".join([f"TARGET {graph[0]}", *graph[1]]) + "\n"
)
_QA_LINE = st.tuples(
    _WORDS,
    st.lists(st.sampled_from(["g0.graph", "g1.graph"]), min_size=1, max_size=2).map(",".join),
    st.sampled_from(["Paris", "France|Paris", "Madrid", "Nobody"]),
).map("\t".join)


class TestSemparseFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        graphs=st.lists(_QUESTION_GRAPH, min_size=2, max_size=2),
        qa_lines=st.lists(_QA_LINE, min_size=1, max_size=3),
    )
    def test_odd_graphs_train_and_evaluate_or_exit_with_an_error(self, graphs, qa_lines):
        # Graphs that load but are odd (shared ids, edges to events or type
        # nodes, types on any node, one node pair under two labels) run
        # through the real subcommands: an exit code, never an exception.
        with tempfile.TemporaryDirectory() as tmp:
            for i, graph in enumerate(graphs):
                Path(tmp, f"g{i}.graph").write_text(graph, encoding="utf-8")
            qa = Path(tmp, "qa.tsv")
            qa.write_text("".join(line + "\n" for line in qa_lines), encoding="utf-8")
            model = Path(tmp, "percep.tsv")
            common = ["--kb", data_path("kb.tsv"), "--qa", str(qa), "--graphs-dir", tmp]
            trained = main(["semparse-train", *common, "--epochs", "2", "--out", str(model)])
            assert trained in (0, 1, 2)
            if trained != 0:
                model.write_text("STEPS\t0\nSKIPPED\t0\n", encoding="utf-8")
            evaluated = main(["semparse-eval", *common, "--model", str(model),
                              "--out", str(Path(tmp, "report.tsv"))])
            assert evaluated in (0, 1, 2)


def _run_quietly(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; any exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


_FUZZ_WORDS = st.sampled_from(["what", "day", "is", "nochebuena", "when"])
_FUZZ_QUESTION = st.lists(_FUZZ_WORDS, min_size=1, max_size=4).map(" ".join)
# Lines that break the format, validation or a context's sum to 1, and a
# blank one.
_ODD_GRAMMAR_LINES = st.sampled_from([
    "ROOT\tS\t0\tnan", "ROOT\tS\t0", "ROOT\tS\t-1\t1", "ROOT\tS\tx\t1",
    "BIN\tS\t0\tW\t0\tW\t0\t2", "BIN\tW\t0\tW\t0\tW\t0\t1",
    "BIN\tS\t1:2:3\tW\t0\tW\t0\t1", "BIN\tS\t0\tQ\t0\tW\t0\t1",
    "LEX\tW\t0\twhat\t0", "LEX\tS\t0\twhat\t1", "LEX\tW\t0\twhat\t1e-300",
    "LEX\tW\t0:\twhat\t1", "LEX\tW\t0:1\twhat\t1", "LEX\tX\t2\tday\t1", "JUNK", "",
])


@st.composite
def _grammar_files(draw) -> str:
    """A grammar file over interminals S, A and preterminals W, X and a
    few states, whose every root and child context has rules, each
    context's probabilities summing to 1; sometimes with one odd line or
    header."""
    two = draw(st.booleans())
    state = st.sampled_from(["0:0", "1:1", "0:1"] if two else ["0", "1"])

    def ctx(symbols):
        return st.tuples(st.sampled_from(symbols), state)

    roots = draw(st.lists(ctx(["S", "A", "W"]), min_size=1, max_size=2, unique=True))
    anything = ["S", "A", "W", "X"]
    binary = draw(st.lists(st.tuples(ctx(["S", "A"]), ctx(anything), ctx(anything)),
                           max_size=6, unique=True))
    lexical = draw(st.lists(st.tuples(ctx(["W", "X"]), _FUZZ_WORDS), max_size=6, unique=True))
    todo = roots + [child for _, b, c in binary for child in (b, c)]
    have = {rule[0] for rule in binary + lexical}
    while todo:
        lhs = todo.pop()
        if lhs in have:
            continue
        have.add(lhs)
        if lhs[0] in ("S", "A"):
            binary.append((lhs, ("W", lhs[1]), ("X", lhs[1])))
            todo += [("W", lhs[1]), ("X", lhs[1])]
        else:
            lexical.append((lhs, draw(_FUZZ_WORDS)))
    binary_per = Counter(lhs for lhs, _, _ in binary)
    lexical_per = Counter(lhs for lhs, _ in lexical)
    lines = [f"ROOT\t{sym}\t{q}\t{1 / len(roots)!r}" for sym, q in roots]
    lines += ["\t".join(["BIN", *lhs, *b, *c, repr(1 / binary_per[lhs])]) for lhs, b, c in binary]
    lines += ["\t".join(["LEX", *lhs, word, repr(1 / lexical_per[lhs])]) for lhs, word in lexical]
    lines += draw(st.lists(_ODD_GRAMMAR_LINES, max_size=1))
    layers = "layers=2 m1=2 m2=2" if two else "layers=1 m1=2 m2=0"
    header = draw(st.sampled_from([
        f"LPCFG v1 {layers}", f"LPCFG v1 {layers}", f"LPCFG v1 {layers}",
        f"LPCFG v1 {layers.replace('m1=2', 'm1=1')}", "LPCFG v1 layers=2 m1=2 m2=0",
        "LPCFG v1 layers=1 m1=two m2=0", "LPCFG v2 layers=1 m1=2 m2=0",
    ]))
    return "\n".join([header, *draw(st.permutations(lines))]) + "\n"


_RULE_PHRASE = st.lists(
    st.sampled_from(["what", "day", "is", "nochebuena", "when", "Is", "the"]),
    min_size=1, max_size=3,
).map(" ".join)
_RULE_SCORE = st.sampled_from(["1", "0.5", "-2", "0", "1e-320"])
_RULE = st.tuples(_RULE_PHRASE, _RULE_PHRASE, _RULE_SCORE).map("\t".join)
# An empty phrase, a bad score, a wrong field count, and non-records.
_ODD_RULE_LINES = st.one_of(
    st.tuples(_RULE_PHRASE, st.just(" "), _RULE_SCORE).map("\t".join),
    st.tuples(_RULE_PHRASE, _RULE_PHRASE, st.sampled_from(["nan", "inf", "1e999", "x", ""]))
    .map("\t".join),
    st.tuples(_RULE_PHRASE, _RULE_PHRASE).map("\t".join),
    st.tuples(_RULE_PHRASE, _RULE_PHRASE, _RULE_SCORE, _RULE_SCORE).map("\t".join),
    st.sampled_from(["", "# a comment", "  ", "\t\t"]),
)
# Good rules, sometimes with one odd line among them.
_RULE_FILES = st.tuples(
    st.lists(_RULE, max_size=6), st.lists(_ODD_RULE_LINES, max_size=1)
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


class TestGrammarAndRuleFuzz:
    @settings(max_examples=150, deadline=None)
    @given(grammar=_grammar_files(), question=_FUZZ_QUESTION,
           command=st.sampled_from(["parse", "sample"]))
    def test_grammar_files_parse_and_sample_or_exit_with_an_error(
        self, grammar, question, command
    ):
        # About 60% of these grammars validate and reach CKY or the
        # sampler; a file that is refused is named in the error.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "g.lpcfg")
            path.write_text(grammar, encoding="utf-8")
            argv = [command, "--grammar", str(path), "--question", question]
            rc, err = _run_quietly(argv + (["--m", "5"] if command == "sample" else []))
            assert rc in (0, 1, 2)
            if rc == 2:
                assert err.splitlines()[-1].startswith(f"error: {path}")

    @settings(max_examples=150, deadline=None)
    @given(lines=_RULE_FILES, question=_FUZZ_QUESTION,
           min_score=st.sampled_from([[], ["--min-score=0.7"], ["--min-score=-3"]]))
    def test_rule_files_build_lattices_or_exit_with_an_error(self, lines, question, min_score):
        # About half of these files load; a bad line is named by file:line.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "rules.tsv")
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            rc, err = _run_quietly(["build-lattice", "--mode", "rules", "--rules", str(path),
                                    "--question", question, *min_score])
            assert rc in (0, 2)
            if rc == 2:
                assert err.startswith(f"error: {path}:")


def _perfbench_inputs():
    """``perfbench/inputs.py``, loaded read-only (stdlib imports only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDistractorKb:
    def test_distractor_triples_change_no_output(self, tmp_path):
        """Seeded triples over fresh entities that no mention can resolve to
        leave the trained model and the eval report byte-identical."""
        bundled = Path(data_path("kb.tsv"))
        graphs = Path(data_path("graphs"))
        distractor = _perfbench_inputs().write_distractor_kb(
            bundled, graphs, 7, tmp_path, triples=3000, entities=800
        )
        outputs = {}
        for name, kb in (("bundled", bundled), ("distractor", distractor)):
            out = tmp_path / name
            out.mkdir()
            common = ["--kb", str(kb), "--graphs-dir", str(graphs), "--beam", "100"]
            assert main(["semparse-train", *common, "--qa", data_path("qa_train.tsv"),
                         "--epochs", "3", "--out", str(out / "model.tsv")]) == 0
            assert main(["semparse-eval", *common, "--qa", data_path("qa_eval.tsv"),
                         "--model", str(out / "model.tsv"), "--out", str(out / "eval.tsv")]) == 0
            outputs[name] = [(out / f).read_bytes() for f in ("model.tsv", "eval.tsv")]
        assert len(distractor.read_text(encoding="utf-8").splitlines()) >= 3000
        assert outputs["distractor"] == outputs["bundled"]


class TestSeedFanOut:
    def test_fixed_derivation(self):
        assert derive_seed(1, "sample", 0) == derive_seed(1, "sample", 0)
        assert derive_seed(1, "sample", 0) != derive_seed(1, "sample", 1)
        assert derive_seed(1, "sample", 0) != derive_seed(1, "paraphrase", 0)
