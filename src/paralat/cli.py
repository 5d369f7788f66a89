"""Command-line pipeline: grammar training, lattice building, sampling,
classifier training/filtering, and the toy semantic-parsing loop.

Options can come from a flat ``key=value`` config file (``--config``);
explicit flags win.  Grammars are validated before use.  ``sample`` and
``paraphrase`` note a question they cannot sample on stderr and go on.
Artifacts are written atomically.  Exit codes: 0 on success, 1 on usage errors, 2 on
data errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import zlib
from typing import Callable, Sequence

from . import __version__
from .classifier import (
    Gazetteer,
    filter_candidates,
    load_model,
    read_labeled_pairs,
    save_model,
)
from .classifier import train as train_classifier_model
from .cky import cky_viterbi, render_derivation
from .data_files import atomic_write
from .errors import ParalatError, ParseFailure, EmptyIntersection
from .estimation import read_alignments, train_bilayered_grammar, train_grammar
from .grammar import load_grammar, save_grammar, validate
from .lattice import (
    build_bilayered,
    build_from_rules,
    build_naive,
    dump_lattice,
    load_rules,
)
from .sampler import sample_many
from .semparse import (
    evaluate,
    load_kb,
    load_perceptron_weights,
    load_qa,
    load_ungrounded,
    perceptron_train,
    save_perceptron,
)
from .treebank import read_treebank, binarize


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise _UsageError(message)


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    config: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParalatError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            config[key.strip()] = value.strip()
    return config


def _pick(flag, config: dict[str, str], key: str, default, cast=str):
    """Flag value if given, else config value, else the default."""
    if flag is not None:
        return flag
    if key in config:
        try:
            return cast(config[key])
        except ValueError as exc:
            raise _UsageError(f"config key {key!r}: bad value {config[key]!r}") from exc
    return default


def _pick_m(args, config, default: int) -> int:
    m_samples = _pick(args.m, config, "m", default, int)
    if m_samples < 1:
        raise _UsageError(f"--m must be at least 1, got {m_samples}")
    return m_samples


def _require(value, name: str):
    if value is None:
        raise _UsageError(f"missing required option --{name}")
    return value


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write(path, text)


def derive_seed(seed: int, stage: str, index: int) -> int:
    """Fixed per-stage seed fan-out from the single pipeline seed."""
    return (seed * 1000003 + zlib.crc32(stage.encode("utf-8")) + index) % (2**31)


def _read_questions(args, config) -> list[list[str]]:
    question = _pick(args.question, config, "question", None)
    path = _pick(args.input, config, "input", None)
    if (question is None) == (path is None):
        raise _UsageError("give exactly one of --question or --input")
    if question is not None:
        return [question.lower().split()]
    with open(path, encoding="utf-8") as handle:
        return [
            line.lower().split()
            for line in handle.read().splitlines()
            if line.strip() and not line.startswith("#")
        ]


def _load_grammar(path: str):
    """Load a grammar and refuse it unless :func:`validate` passes."""
    grammar = load_grammar(path)
    violations = validate(grammar).violations
    if violations:
        raise ParalatError(f"{path}: invalid grammar: {violations[0]}")
    return grammar


def _build_lattice_for(mode: str, tokens, rules_db, layered_grammar):
    if mode == "naive":
        return build_naive(tokens)
    if mode == "rules":
        if rules_db is None:
            raise _UsageError("--rules is required for mode 'rules'")
        return build_from_rules(tokens, rules_db)
    if mode == "bilayered":
        if layered_grammar is None:
            raise _UsageError("--bilayered-grammar is required for mode 'bilayered'")
        return build_bilayered(tokens, layered_grammar)
    raise _UsageError(f"unknown lattice mode {mode!r}")


def _sample_questions(args, config, mode: str, stage: str, default_m: int):
    """(tokens, candidates) for every question: build its lattice, then
    sample.  A question with no parse or no grammar root over its lattice
    is noted on stderr and skipped; the others go on."""
    grammar = _load_grammar(_require(_pick(args.grammar, config, "grammar", None), "grammar"))
    m_samples = _pick_m(args, config, default_m)
    seed = _pick(args.seed, config, "seed", 1, int)
    rules_path = _pick(args.rules, config, "rules", None)
    rules_db = load_rules(rules_path) if rules_path else None
    layered_path = _pick(args.bilayered_grammar, config, "bilayered_grammar", None)
    layered = _load_grammar(layered_path) if layered_path else None
    sampled = []
    for index, tokens in enumerate(_read_questions(args, config)):
        try:
            lat = _build_lattice_for(mode, tokens, rules_db, layered)
            candidates = sample_many(
                tokens, grammar, lat, m_samples, derive_seed(seed, stage, index)
            )
        except (ParseFailure, EmptyIntersection) as exc:
            print(f"note: {' '.join(tokens)}: {exc}", file=sys.stderr)
            continue
        sampled.append((tokens, candidates))
    return sampled


# --- subcommand handlers -------------------------------------------------------

def _cmd_train_grammar(args, config) -> int:
    treebank_path = _require(_pick(args.treebank, config, "treebank", None), "treebank")
    out = _require(_pick(args.out, config, "out", None), "out")
    m1 = _pick(args.m1, config, "m1", 24, int)
    seed = _pick(args.seed, config, "seed", 1, int)
    trees = [binarize(t) for t in read_treebank(treebank_path)]
    grammar = train_grammar(trees, m=m1, seed=seed)
    save_grammar(grammar, out)
    print(f"wrote {out}: {grammar.rule_count()} rules over {len(trees)} trees")
    return 0


def _cmd_train_bilayered(args, config) -> int:
    treebank_path = _require(_pick(args.treebank, config, "treebank", None), "treebank")
    alignments_path = _require(
        _pick(args.alignments, config, "alignments", None), "alignments"
    )
    out = _require(_pick(args.out, config, "out", None), "out")
    m1 = _pick(args.m1, config, "m1", 24, int)
    m2 = _pick(args.m2, config, "m2", 1000, int)
    seed = _pick(args.seed, config, "seed", 1, int)
    trees = [binarize(t) for t in read_treebank(treebank_path)]
    records = read_alignments(alignments_path)
    _annotated, grammar = train_bilayered_grammar(trees, records, m1=m1, m2=m2, seed=seed)
    save_grammar(grammar, out)
    print(f"wrote {out}: {grammar.rule_count()} rules, layers {m1}x{m2}")
    return 0


def _cmd_validate_grammar(args, config) -> int:
    grammar_path = _require(_pick(args.grammar, config, "grammar", None), "grammar")
    report = validate(load_grammar(grammar_path))
    for note in report.notes:
        print(f"note: {note}")
    for violation in report.violations:
        print(f"violation: {violation}")
    print(f"{len(report.violations)} violation(s)")
    if report.violations:
        raise ParalatError(f"{grammar_path}: grammar is invalid")
    return 0


def _cmd_parse(args, config) -> int:
    grammar = _load_grammar(_require(_pick(args.grammar, config, "grammar", None), "grammar"))
    lines = []
    for tokens in _read_questions(args, config):
        tree = cky_viterbi(tokens, grammar)
        lines.append(render_derivation(tree.root))
    _emit(_pick(args.out, config, "out", None), "\n".join(lines) + "\n")
    return 0


def _cmd_build_lattice(args, config) -> int:
    mode = _pick(args.mode, config, "mode", "naive")
    rules_db = None
    rules_path = _pick(args.rules, config, "rules", None)
    if rules_path is not None:
        rules_db = load_rules(rules_path, _pick(args.min_score, config, "min_score", None, float))
    layered = None
    layered_path = _pick(args.bilayered_grammar, config, "bilayered_grammar", None)
    if layered_path is not None:
        layered = _load_grammar(layered_path)
    chunks = []
    for tokens in _read_questions(args, config):
        chunks.append(dump_lattice(_build_lattice_for(mode, tokens, rules_db, layered)))
    _emit(_pick(args.out, config, "out", None), "".join(chunks))
    return 0


def _cmd_sample(args, config) -> int:
    mode = _pick(args.lattice, config, "lattice", "naive")
    lines = [
        f"{cand.seed}\t{cand.text}"
        for _tokens, candidates in _sample_questions(args, config, mode, "sample", 100)
        for cand in candidates
    ]
    _emit(_pick(args.out, config, "out", None), "\n".join(lines) + "\n" if lines else "")
    return 0


def _cmd_train_classifier(args, config) -> int:
    pairs_path = _require(_pick(args.pairs, config, "pairs", None), "pairs")
    out = _require(_pick(args.out, config, "out", None), "out")
    epochs = _pick(args.epochs, config, "epochs", 200, int)
    seed = _pick(args.seed, config, "seed", 0, int)
    gazetteer_path = _pick(args.gazetteer, config, "gazetteer", None)
    gazetteer = Gazetteer.load(gazetteer_path) if gazetteer_path else None
    model = train_classifier_model(
        read_labeled_pairs(pairs_path), epochs=epochs, seed=seed, gazetteer=gazetteer
    )
    save_model(model, out)
    print(f"wrote {out}: threshold {model.threshold:.6f}")
    return 0


def _cmd_paraphrase(args, config) -> int:
    model = load_model(_require(_pick(args.classifier, config, "classifier", None), "classifier"))
    threshold = _pick(args.threshold, config, "threshold", None, float)
    gazetteer_path = _pick(args.gazetteer, config, "gazetteer", None)
    gazetteer = Gazetteer.load(gazetteer_path) if gazetteer_path else None
    mode = _pick(args.mode, config, "mode", "naive")
    lines = []
    for tokens, candidates in _sample_questions(args, config, mode, "paraphrase", 300):
        question = " ".join(tokens)
        for cand, score in filter_candidates(model, tokens, candidates, gazetteer, threshold):
            lines.append(f"{question}\t{cand.text}\t{score:.6f}")
    _emit(_pick(args.out, config, "out", None), "\n".join(lines) + "\n" if lines else "")
    return 0


def _load_dataset(args, config, qa_key: str):
    kb = load_kb(_require(_pick(args.kb, config, "kb", None), "kb"))
    qa_path = _require(_pick(args.qa, config, qa_key, None), "qa")
    graphs_dir = _require(_pick(args.graphs_dir, config, "graphs_dir", None), "graphs-dir")

    def loader(name: str):
        return load_ungrounded(os.path.join(graphs_dir, name), name=name)

    dataset = load_qa(qa_path, loader)
    if args.original_only:
        dataset = [
            type(ex)(question=ex.question, graphs=ex.graphs[:1], gold=ex.gold)
            for ex in dataset
        ]
    return kb, dataset


def _cmd_semparse_train(args, config) -> int:
    kb, dataset = _load_dataset(args, config, "qa_train")
    out = _require(_pick(args.out, config, "out", None), "out")
    epochs = _pick(args.epochs, config, "epochs", 5, int)
    beam = _pick(args.beam, config, "beam", 100, int)
    seed = _pick(args.seed, config, "seed", 0, int)
    model = perceptron_train(dataset, kb, epochs=epochs, beam=beam, seed=seed)
    save_perceptron(model, out)
    print(
        f"wrote {out}: {model.steps} update steps, {model.skipped} skipped examples"
    )
    return 0


def _cmd_semparse_eval(args, config) -> int:
    kb, dataset = _load_dataset(args, config, "qa_eval")
    weights = load_perceptron_weights(
        _require(_pick(args.model, config, "model", None), "model")
    )
    beam = _pick(args.beam, config, "beam", 100, int)
    report = evaluate(dataset, kb, weights, beam=beam)
    lines = [
        f"{question}\t{p:.4f}\t{r:.4f}\t{f1:.4f}"
        for question, p, r, f1 in report.per_question
    ]
    lines.append(
        f"AVG\t{report.avg_precision:.4f}\t{report.avg_recall:.4f}\t{report.avg_f1:.4f}"
    )
    _emit(_pick(args.out, config, "out", None), "\n".join(lines) + "\n")
    return 0


# --- argument wiring -------------------------------------------------------------

def _add(parser: argparse.ArgumentParser, *names: str, **kwargs) -> None:
    for name in names:
        parser.add_argument(name, default=None, **kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="paralat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"paralat {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name: str, handler: Callable, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", default=None, help="flat key=value config file")
        return p

    p = command("train-grammar", _cmd_train_grammar, "estimate a one-layer grammar")
    _add(p, "--treebank", help="bracketed trees, one per line")
    _add(p, "--m1", type=int, help="latent states per symbol (default 24)")
    _add(p, "--seed", type=int)
    _add(p, "--out", help="grammar file to write")

    p = command("train-bilayered", _cmd_train_bilayered, "estimate a two-layer grammar")
    _add(p, "--treebank")
    _add(p, "--alignments", help="paraphrase-pair word alignments (TSV)")
    _add(p, "--m1", type=int)
    _add(p, "--m2", type=int, help="semantic states (default 1000)")
    _add(p, "--seed", type=int)
    _add(p, "--out")

    p = command("validate-grammar", _cmd_validate_grammar, "check grammar invariants")
    _add(p, "--grammar")

    p = command("parse", _cmd_parse, "print the best derivation of a question")
    _add(p, "--grammar")
    _add(p, "--question")
    _add(p, "--input", help="file with one question per line")
    _add(p, "--out")

    p = command("build-lattice", _cmd_build_lattice, "dump a question word lattice")
    _add(p, "--mode", help="naive | rules | bilayered")
    _add(p, "--question")
    _add(p, "--input")
    _add(p, "--rules", help="rewrite rule TSV for mode 'rules'")
    _add(p, "--min-score", dest="min_score", type=float)
    _add(p, "--bilayered-grammar", dest="bilayered_grammar")
    _add(p, "--out")

    p = command("sample", _cmd_sample, "sample lattice-constrained questions")
    _add(p, "--grammar")
    _add(p, "--question")
    _add(p, "--input")
    _add(p, "--lattice", help="naive | rules | bilayered")
    _add(p, "--rules")
    _add(p, "--bilayered-grammar", dest="bilayered_grammar")
    _add(p, "--m", type=int, help="samples per question")
    _add(p, "--seed", type=int)
    _add(p, "--out")

    p = command("train-classifier", _cmd_train_classifier, "train the paraphrase filter")
    _add(p, "--pairs", help="labeled source<TAB>candidate<TAB>0|1 file")
    _add(p, "--gazetteer")
    _add(p, "--epochs", type=int)
    _add(p, "--seed", type=int)
    _add(p, "--out")

    p = command("paraphrase", _cmd_paraphrase, "end to end: lattice, sample, filter")
    _add(p, "--grammar")
    _add(p, "--mode", help="naive | rules | bilayered")
    _add(p, "--rules")
    _add(p, "--bilayered-grammar", dest="bilayered_grammar")
    _add(p, "--classifier", help="trained classifier model file")
    _add(p, "--gazetteer")
    _add(p, "--question")
    _add(p, "--input")
    _add(p, "--m", type=int)
    _add(p, "--seed", type=int)
    _add(p, "--threshold", type=float, help="override the stored threshold")
    _add(p, "--out")

    p = command("semparse-train", _cmd_semparse_train, "train the grounding model")
    _add(p, "--kb")
    _add(p, "--qa")
    _add(p, "--graphs-dir", dest="graphs_dir")
    _add(p, "--epochs", type=int)
    _add(p, "--beam", type=int)
    _add(p, "--seed", type=int)
    _add(p, "--out")
    p.add_argument("--original-only", action="store_true", dest="original_only")

    p = command("semparse-eval", _cmd_semparse_eval, "evaluate grounding on a QA set")
    _add(p, "--kb")
    _add(p, "--qa")
    _add(p, "--graphs-dir", dest="graphs_dir")
    _add(p, "--model")
    _add(p, "--beam", type=int)
    _add(p, "--out")
    p.add_argument("--original-only", action="store_true", dest="original_only")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            parser.print_help()
            return 1
        config = _load_config(args.config)
        return args.handler(args, config)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParalatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
