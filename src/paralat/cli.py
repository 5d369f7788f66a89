"""Command-line pipeline: grammar training, lattice building, sampling,
classifier training/filtering, and the toy semantic-parsing loop.

Each option's type and default are declared once, on its subcommand.
``--config`` names a flat ``key=value`` file whose keys are option dests
(``bilayered_grammar``, ``graphs_dir``, ``min_score``, and ``qa_train`` /
``qa_eval`` for ``--qa``); its values become the subcommand's defaults,
so explicit flags win.  Unknown keys and value-less flags are ignored.
An unknown lattice mode, or a score threshold that is ``nan`` or
infinite, is a usage error as its flag or config key is read.  Each
subcommand's other usage rules are declared with its options in
``build_parser``: the count options that must be at least 1, the
lattice mode option and the required options.  ``_check_usage`` checks
them after the config file is applied and before the handler runs, so
before any input loads, in this order: exactly one of ``--question``
and ``--input``, and not a blank ``--question``; the counts; the input
of the lattice mode (``--rules`` for ``rules``, ``--bilayered-grammar``
for ``bilayered``); the required options, in declaration order.  The
first broken rule is the usage error.  Grammars are validated before use.
``parse``, ``build-lattice``, ``sample`` and ``paraphrase`` note a
question they cannot handle on stderr and go on.  Artifacts are written
atomically.  Exit codes: 0 on success, 1 on usage errors, 2 on data
errors.
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
from .data_files import atomic_write, finite_float, records
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
    commands: dict[str, _Parser]  # set by build_parser
    # A subcommand's usage rules, declared by build_parser; flags in order.
    counts: tuple[str, ...] = ()  # options that must be at least 1
    mode_flag: str | None = None  # the lattice mode option
    required: tuple[str, ...] = ()  # options that must be given

    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise _UsageError(message)


def _load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    for lineno, line in records(path):
        line = line.strip()
        if "=" not in line:
            raise ParalatError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _apply_config(parser: argparse.ArgumentParser, config: dict[str, str]) -> None:
    """Make each config key that names the dest of one of ``parser``'s
    value-taking options that option's default, cast by its ``type``."""
    defaults = {}
    for action in parser._actions:
        if action.nargs == 0 or action.dest == "config" or action.dest not in config:
            continue
        raw = config[action.dest]
        try:
            value = action.type(raw) if action.type else raw
            if action.choices is not None and value not in action.choices:
                raise ValueError(value)
        except ValueError as exc:
            raise _UsageError(f"config key {action.dest!r}: bad value {raw!r}") from exc
        defaults[action.dest] = value
    parser.set_defaults(**defaults)


_MODE_INPUTS = {"rules": "--rules", "bilayered": "--bilayered-grammar"}


def _check_usage(command: _Parser, args) -> None:
    """Refuse the first usage rule of ``command`` that ``args`` breaks, in
    the order the module docstring gives."""
    def value(flag: str):
        return getattr(args, command._option_string_actions[flag].dest)

    if "question" in vars(args):
        if (args.question is None) == (args.input is None):
            raise _UsageError("give exactly one of --question or --input")
        if args.question is not None and not args.question.split():
            raise _UsageError("--question is blank")
    for flag in command.counts:
        if value(flag) < 1:
            raise _UsageError(f"{flag} must be at least 1, got {value(flag)}")
    if command.mode_flag is not None:
        mode = value(command.mode_flag)
        if mode in _MODE_INPUTS and value(_MODE_INPUTS[mode]) is None:
            raise _UsageError(f"{_MODE_INPUTS[mode]} is required for mode {mode!r}")
    for flag in command.required:
        if value(flag) is None:
            raise _UsageError(f"missing required option {flag}")


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write(path, text)


def derive_seed(seed: int, stage: str, index: int) -> int:
    """Fixed per-stage seed fan-out from the single pipeline seed."""
    return (seed * 1000003 + zlib.crc32(stage.encode("utf-8")) + index) % (2**31)


def _read_questions(args) -> list[list[str]]:
    """The questions of ``--question`` or ``--input``, whichever is given."""
    if args.question is not None:
        return [args.question.lower().split()]
    return [line.lower().split() for _, line in records(args.input)]


def _note(tokens, exc: Exception) -> None:
    """Report a question that is skipped, on stderr."""
    print(f"note: {' '.join(tokens)}: {exc}", file=sys.stderr)


def _load_grammar(path: str):
    """Load a grammar and refuse it unless :func:`validate` passes."""
    grammar = load_grammar(path)
    violations = validate(grammar).violations
    if violations:
        raise ParalatError(f"{path}: invalid grammar: {violations[0]}")
    return grammar


def _lattice_builder(args, mode: str, min_score: float | None = None) -> Callable:
    """``mode``'s lattice builder over the one input that mode reads,
    loaded here; argparse rejects any mode but these three."""
    if mode == "rules":
        rules_db = load_rules(args.rules, min_score)
        return lambda tokens: build_from_rules(tokens, rules_db)
    if mode == "bilayered":
        layered = _load_grammar(args.bilayered_grammar)
        if not layered.layers.two_layer:
            raise ParalatError(
                f"{args.bilayered_grammar}: bilayered lattices need a two-layer grammar"
            )
        return lambda tokens: build_bilayered(tokens, layered)
    return build_naive


def _each_question(args, work: Callable):
    """(tokens, work(index, tokens)) for every question.  A question with
    no parse or no grammar root over its lattice is noted on stderr and
    skipped; the others go on."""
    done = []
    for index, tokens in enumerate(_read_questions(args)):
        try:
            done.append((tokens, work(index, tokens)))
        except (ParseFailure, EmptyIntersection) as exc:
            _note(tokens, exc)
    return done


def _sample_questions(args, mode: str, stage: str):
    """(tokens, candidates) for every question that :func:`_each_question`
    does not skip."""
    grammar = _load_grammar(args.grammar)
    build = _lattice_builder(args, mode)
    return _each_question(
        args,
        lambda index, tokens: sample_many(
            tokens, grammar, build(tokens), args.m, derive_seed(args.seed, stage, index)
        ),
    )


# --- subcommand handlers -------------------------------------------------------

def _cmd_train_grammar(args) -> int:
    trees = [binarize(t) for t in read_treebank(args.treebank)]
    grammar = train_grammar(trees, m=args.m1, seed=args.seed)
    save_grammar(grammar, args.out)
    print(f"wrote {args.out}: {grammar.rule_count()} rules over {len(trees)} trees")
    return 0


def _cmd_train_bilayered(args) -> int:
    trees = [binarize(t) for t in read_treebank(args.treebank)]
    records = read_alignments(args.alignments)
    _, grammar = train_bilayered_grammar(
        trees, records, m1=args.m1, m2=args.m2, seed=args.seed
    )
    save_grammar(grammar, args.out)
    print(f"wrote {args.out}: {grammar.rule_count()} rules, layers {args.m1}x{args.m2}")
    return 0


def _cmd_validate_grammar(args) -> int:
    report = validate(load_grammar(args.grammar))
    for note in report.notes:
        print(f"note: {note}")
    for violation in report.violations:
        print(f"violation: {violation}")
    print(f"{len(report.violations)} violation(s)")
    if report.violations:
        raise ParalatError(f"{args.grammar}: grammar is invalid")
    return 0


def _cmd_parse(args) -> int:
    grammar = _load_grammar(args.grammar)
    trees = _each_question(
        args, lambda index, tokens: render_derivation(cky_viterbi(tokens, grammar).root)
    )
    lines = [tree for _tokens, tree in trees]
    _emit(args.out, "\n".join(lines) + "\n" if lines else "")
    return 0


def _cmd_build_lattice(args) -> int:
    build = _lattice_builder(args, args.mode, args.min_score)
    dumps = _each_question(args, lambda index, tokens: dump_lattice(build(tokens)))
    _emit(args.out, "".join(dump for _tokens, dump in dumps))
    return 0


def _cmd_sample(args) -> int:
    lines = [
        f"{cand.seed}\t{cand.text}"
        for _tokens, candidates in _sample_questions(args, args.lattice, "sample")
        for cand in candidates
    ]
    _emit(args.out, "\n".join(lines) + "\n" if lines else "")
    return 0


def _cmd_train_classifier(args) -> int:
    gazetteer = Gazetteer.load(args.gazetteer) if args.gazetteer else None
    model = train_classifier_model(
        read_labeled_pairs(args.pairs), epochs=args.epochs, seed=args.seed, gazetteer=gazetteer
    )
    save_model(model, args.out)
    print(f"wrote {args.out}: threshold {model.threshold:.6f}")
    return 0


def _cmd_paraphrase(args) -> int:
    model = load_model(args.classifier)
    gazetteer = Gazetteer.load(args.gazetteer) if args.gazetteer else None
    lines = []
    for tokens, candidates in _sample_questions(args, args.mode, "paraphrase"):
        question = " ".join(tokens)
        for cand, score in filter_candidates(model, tokens, candidates, gazetteer, args.threshold):
            lines.append(f"{question}\t{cand.text}\t{score:.6f}")
    _emit(args.out, "\n".join(lines) + "\n" if lines else "")
    return 0


def _load_dataset(args, qa_path: str):
    """The KB and the QA set at ``qa_path``."""
    kb = load_kb(args.kb)

    def loader(name: str):
        return load_ungrounded(os.path.join(args.graphs_dir, name), name=name)

    dataset = load_qa(qa_path, loader)
    if args.original_only:
        dataset = [
            type(ex)(question=ex.question, graphs=ex.graphs[:1], gold=ex.gold)
            for ex in dataset
        ]
    return kb, dataset


def _cmd_semparse_train(args) -> int:
    kb, dataset = _load_dataset(args, args.qa_train)
    model = perceptron_train(dataset, kb, epochs=args.epochs, beam=args.beam)
    save_perceptron(model, args.out)
    print(
        f"wrote {args.out}: {model.steps} update steps, {model.skipped} skipped examples"
    )
    return 0


def _cmd_semparse_eval(args) -> int:
    kb, dataset = _load_dataset(args, args.qa_eval)
    weights = load_perceptron_weights(args.model)
    report = evaluate(dataset, kb, weights, beam=args.beam)
    lines = [
        f"{question}\t{p:.4f}\t{r:.4f}\t{f1:.4f}"
        for question, p, r, f1 in report.per_question
    ]
    lines.append(
        f"AVG\t{report.avg_precision:.4f}\t{report.avg_recall:.4f}\t{report.avg_f1:.4f}"
    )
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


# --- argument wiring -------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="paralat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"paralat {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    parser.commands = sub.choices

    def command(
        name: str, handler: Callable, help_text: str, seed: int | None = None,
        counts: tuple[str, ...] = (), required: tuple[str, ...] = (),
    ) -> _Parser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.counts, p.required = counts, required
        p.add_argument("--config", help="flat key=value config file")
        if seed is not None:
            p.add_argument("--seed", type=int, default=seed)
        return p

    def training(p: argparse.ArgumentParser) -> None:
        p.add_argument("--treebank", help="bracketed trees, one per line")
        p.add_argument("--m1", type=int, default=24,
                       help="latent states per symbol (default %(default)s)")
        p.add_argument("--out", help="grammar file to write")

    def questions(p: argparse.ArgumentParser) -> None:
        p.add_argument("--question")
        p.add_argument("--input", help="file with one question per line")

    def lattice_inputs(p: _Parser, mode_flag: str) -> None:
        p.mode_flag = mode_flag
        p.add_argument(mode_flag, default="naive", choices=("naive", "rules", "bilayered"),
                       help="lattice mode (default %(default)s)")
        p.add_argument("--rules", help="rewrite rule TSV for lattice mode 'rules'")
        p.add_argument("--bilayered-grammar", help="grammar for lattice mode 'bilayered'")

    def sampling(p: _Parser, mode_flag: str, m: int) -> None:
        p.add_argument("--grammar")
        questions(p)
        lattice_inputs(p, mode_flag)
        p.add_argument("--m", type=int, default=m, help="samples per question")
        p.add_argument("--out")

    def dataset(p: argparse.ArgumentParser, qa_dest: str) -> None:
        p.add_argument("--kb")
        p.add_argument("--qa", dest=qa_dest)
        p.add_argument("--graphs-dir")
        p.add_argument("--beam", type=int, default=100)
        p.add_argument("--out")
        p.add_argument("--original-only", action="store_true")

    p = command("train-grammar", _cmd_train_grammar, "estimate a one-layer grammar", seed=1,
                counts=("--m1",), required=("--treebank", "--out"))
    training(p)

    p = command("train-bilayered", _cmd_train_bilayered, "estimate a two-layer grammar", seed=1,
                counts=("--m1", "--m2"), required=("--treebank", "--alignments", "--out"))
    training(p)
    p.add_argument("--alignments", help="paraphrase-pair word alignments (TSV)")
    p.add_argument("--m2", type=int, default=1000, help="semantic states (default %(default)s)")

    p = command("validate-grammar", _cmd_validate_grammar, "check grammar invariants",
                required=("--grammar",))
    p.add_argument("--grammar")

    p = command("parse", _cmd_parse, "print the best derivation of a question",
                required=("--grammar",))
    p.add_argument("--grammar")
    questions(p)
    p.add_argument("--out")

    p = command("build-lattice", _cmd_build_lattice, "dump a question word lattice")
    questions(p)
    lattice_inputs(p, "--mode")
    p.add_argument("--min-score", type=finite_float)
    p.add_argument("--out")

    p = command("sample", _cmd_sample, "sample lattice-constrained questions", seed=1,
                counts=("--m",), required=("--grammar",))
    sampling(p, "--lattice", m=100)

    p = command("train-classifier", _cmd_train_classifier, "train the paraphrase filter", seed=0,
                counts=("--epochs",), required=("--pairs", "--out"))
    p.add_argument("--pairs", help="labeled source<TAB>candidate<TAB>0|1 file")
    p.add_argument("--gazetteer")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--out")

    p = command("paraphrase", _cmd_paraphrase, "end to end: lattice, sample, filter", seed=1,
                counts=("--m",), required=("--grammar", "--classifier"))
    sampling(p, "--mode", m=300)
    p.add_argument("--classifier", help="trained classifier model file")
    p.add_argument("--gazetteer")
    p.add_argument("--threshold", type=finite_float, help="override the stored threshold")

    p = command("semparse-train", _cmd_semparse_train, "train the grounding model",
                counts=("--epochs", "--beam"), required=("--out", "--kb", "--qa", "--graphs-dir"))
    dataset(p, "qa_train")
    p.add_argument("--epochs", type=int, default=5)

    p = command("semparse-eval", _cmd_semparse_eval, "evaluate grounding on a QA set",
                counts=("--beam",), required=("--model", "--kb", "--qa", "--graphs-dir"))
    dataset(p, "qa_eval")
    p.add_argument("--model")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            parser.print_help()
            return 1
        if args.config is not None:
            # Config values become the subcommand's defaults; parsing again
            # lets explicit flags win.
            _apply_config(parser.commands[args.command], _load_config(args.config))
            args = parser.parse_args(argv)
        _check_usage(parser.commands[args.command], args)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParalatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:  # every input file is read as UTF-8
        print(f"error: input is not UTF-8: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
