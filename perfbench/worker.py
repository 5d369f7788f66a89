"""One child process of the benchmark (see run.py).

    worker.py prepare|pass|check '<json params>'

- ``prepare`` writes the workload's generated inputs.
- ``pass`` is one timed pass as a user's CLI calls would make it: imports,
  loading the inputs (set-up), then the measured phase, calling the
  library's public functions in the order of the matching CLI handlers.
  With ``setup_only`` it stops after set-up; with ``trace`` it records
  spans and reports per-layer figures.
- ``check`` runs the real subcommands in-process through
  ``paralat.cli.main`` on the same inputs and checks the output
  invariants.

The result is printed as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import paralat.cli as cli  # the CLI imports every module
from paralat import classifier, estimation, grammar, lattice, sampler, semparse, treebank
from paralat.errors import EmptyIntersection, ParseFailure

import inputs
from tracer import Tracer, layer_metrics

DEFAULT_SEED = 7  # the seed the golden digests are recorded at
TRAIN_SEED = 1  # grammar training seed (the CLI default)
PARAPHRASE_M = 400
SYNTH_M1, SYNTH_M2 = 8, 1000
QA_EPOCHS, QA_BEAM = 5, 100


def digests(out_dir: Path, names) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names
    }


def _data(root: Path) -> Path:
    return root / "src" / "paralat" / "data"


# --- workloads ----------------------------------------------------------------------
#
# Each workload: prepare(root, seed, inp) writes inputs; setup(root, inp)
# loads them; run(state, seed, out) is the measured phase and returns
# (error or None per operation, per-item latencies in ms, items, quality); cli_argvs(root, inp, seed, out)
# gives the matching subcommands; invariants(root, inp, out) lists broken
# output invariants.  ``outputs`` are the artifact files.


class Paraphrase:
    """The held-out questions paraphrased over rules lattices, then over
    bilayered lattices, as ``paralat paraphrase --mode rules`` and
    ``--mode bilayered`` do."""

    modes = ("rules", "bilayered")
    outputs = tuple(f"paraphrases-{mode}.tsv" for mode in modes)

    def prepare(self, root: Path, seed: int, inp: Path) -> None:
        data = _data(root)
        trees = [treebank.binarize(t) for t in treebank.read_treebank(str(data / "minitreebank.trees"))]
        grammar.save_grammar(estimation.train_grammar(trees, m=2, seed=TRAIN_SEED), str(inp / "grammar.lpcfg"))
        gazetteer = classifier.Gazetteer.load(str(data / "gazetteer.txt"))
        model = classifier.train(
            classifier.read_labeled_pairs(str(data / "classifier_pairs.tsv")),
            epochs=200, seed=0, gazetteer=gazetteer,
        )
        classifier.save_model(model, str(inp / "classifier.tsv"))
        records = estimation.read_alignments(str(data / "alignments.tsv"))
        _annotated, layered = estimation.train_bilayered_grammar(
            trees, records, m1=2, m2=16, seed=TRAIN_SEED
        )
        grammar.save_grammar(layered, str(inp / "bilayered.lpcfg"))

    @staticmethod
    def _lattice_input(mode: str, root: Path, inp: Path) -> list[str]:
        if mode == "rules":
            return ["--rules", str(_data(root) / "rewrite_rules.tsv")]
        return ["--bilayered-grammar", str(inp / "bilayered.lpcfg")]

    def setup(self, root: Path, inp: Path) -> dict:
        data = _data(root)
        db = lattice.load_rules(str(data / "rewrite_rules.tsv"))
        layered = grammar.load_grammar(str(inp / "bilayered.lpcfg"))
        text = (data / "heldout_questions.txt").read_text(encoding="utf-8")
        return {
            "grammar": grammar.load_grammar(str(inp / "grammar.lpcfg")),
            "model": classifier.load_model(str(inp / "classifier.tsv")),
            "gazetteer": classifier.Gazetteer.load(str(data / "gazetteer.txt")),
            "build": {
                "rules": lambda tokens: lattice.build_from_rules(tokens, db),
                "bilayered": lambda tokens: lattice.build_bilayered(tokens, layered),
            },
            "questions": [
                line.lower().split()
                for line in text.splitlines()
                if line.strip() and not line.startswith("#")
            ],
        }

    def run(self, state: dict, seed: int, out: Path):
        """One operation and one item per question and lattice mode."""
        ops, item_ms, quality = [], [], {}
        for mode in self.modes:
            errors, latencies, lines, covered = self._paraphrase(state, mode, seed)
            ops += errors
            item_ms += latencies
            (out / f"paraphrases-{mode}.tsv").write_text(
                "\n".join(lines) + "\n" if lines else "", encoding="utf-8"
            )
            n = len(state["questions"])
            quality[f"{mode}.paraphrases_per_question"] = len(lines) / n
            quality[f"{mode}.covered_frac"] = covered / n
        return ops, item_ms, len(item_ms), quality

    @staticmethod
    def _paraphrase(state: dict, mode: str, seed: int):
        ops, item_ms, lines, covered = [], [], [], 0
        clock = time.perf_counter
        build = state["build"][mode]
        for index, tokens in enumerate(state["questions"]):
            question = " ".join(tokens)
            start = clock()
            error = None
            try:
                lat = build(tokens)
                candidates = sampler.sample_many(
                    tokens, state["grammar"], lat, PARAPHRASE_M,
                    cli.derive_seed(seed, "paraphrase", index),
                )
                kept = classifier.filter_candidates(
                    state["model"], tokens, candidates, state["gazetteer"]
                )
                lines.extend(f"{question}\t{cand.text}\t{score:.6f}" for cand, score in kept)
                covered += bool(kept)
            except (ParseFailure, EmptyIntersection):
                pass  # noted by the CLI, an expected outcome
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                error = f"{mode}: {question}: {exc!r}"
            ops.append(error)
            item_ms.append((clock() - start) * 1000.0)
        return ops, item_ms, lines, covered

    def cli_argvs(self, root: Path, inp: Path, seed: int, out: Path) -> list[list[str]]:
        data = _data(root)
        return [
            [
                "paraphrase", "--grammar", str(inp / "grammar.lpcfg"), "--mode", mode,
                *self._lattice_input(mode, root, inp),
                "--classifier", str(inp / "classifier.tsv"),
                "--gazetteer", str(data / "gazetteer.txt"),
                "--input", str(data / "heldout_questions.txt"),
                "--m", str(PARAPHRASE_M), "--seed", str(seed),
                "--out", str(out / f"paraphrases-{mode}.tsv"),
            ]
            for mode in self.modes
        ]

    def invariants(self, root: Path, inp: Path, out: Path) -> list[str]:
        """Every kept paraphrase differs from its question and draws its
        words from the edges of one source-to-sink path of the question's
        lattice (the grammar, not the path, orders them)."""
        state = self.setup(root, inp)
        errors = []
        for mode in self.modes:
            lattices = {}
            for line in (out / f"paraphrases-{mode}.tsv").read_text(encoding="utf-8").splitlines():
                question, text, _score = line.split("\t")
                if question not in lattices:
                    lattices[question] = state["build"][mode](question.split())
                if text == question or not on_one_path(lattices[question], text.split()):
                    errors.append(f"{mode} paraphrase not drawn from one lattice path: {line!r}")
        return errors


def on_one_path(lat, tokens) -> bool:
    """Whether some source-to-sink path of ``lat`` has an edge for each of
    ``tokens`` (as a multiset).  Every node of a lattice lies on a path,
    so once nothing is needed any continuation reaches the sink."""
    out = lat.outgoing()

    @functools.lru_cache(maxsize=None)
    def reach(node: int, need: tuple[tuple[str, int], ...]) -> bool:
        if not need:
            return True
        for edge in out.get(node, ()):
            left = dict(need)
            if edge.token in left:
                left[edge.token] -= 1
                if reach(edge.dst, tuple(sorted((t, c) for t, c in left.items() if c))):
                    return True
            if reach(edge.dst, need):
                return True
        return False

    return reach(lat.source, tuple(sorted(Counter(tokens).items())))


class TrainSynth:
    outputs = ("grammar.lpcfg", "bilayered.lpcfg")

    def prepare(self, root: Path, seed: int, inp: Path) -> None:
        inputs.write_synthetic_treebank(root, seed, inp)

    def setup(self, root: Path, inp: Path) -> dict:
        return {"treebank": str(inp / "synth.trees"), "alignments": str(inp / "synth_alignments.tsv")}

    def run(self, state: dict, seed: int, out: Path):
        """Two operations, the two training jobs; the items are the corpus
        trees, each estimated by both jobs, and each gets the pass's mean
        time per tree."""
        ops = []
        start = time.perf_counter()
        n_trees = 0
        for job in (self._one_layer, self._two_layer):
            try:
                n_trees = job(state, out)
                ops.append(None)
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                ops.append(f"{job.__name__}: {exc!r}")
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return ops, [elapsed_ms / max(n_trees, 1)], n_trees, {}

    @staticmethod
    def _one_layer(state: dict, out: Path) -> int:
        trees = [treebank.binarize(t) for t in treebank.read_treebank(state["treebank"])]
        model = estimation.train_grammar(trees, m=SYNTH_M1, seed=TRAIN_SEED)
        grammar.save_grammar(model, str(out / "grammar.lpcfg"))
        return len(trees)

    @staticmethod
    def _two_layer(state: dict, out: Path) -> int:
        trees = [treebank.binarize(t) for t in treebank.read_treebank(state["treebank"])]
        records = estimation.read_alignments(state["alignments"])
        _annotated, model = estimation.train_bilayered_grammar(
            trees, records, m1=SYNTH_M1, m2=SYNTH_M2, seed=TRAIN_SEED
        )
        grammar.save_grammar(model, str(out / "bilayered.lpcfg"))
        return len(trees)

    def cli_argvs(self, root: Path, inp: Path, seed: int, out: Path) -> list[list[str]]:
        common = ["--treebank", str(inp / "synth.trees"), "--m1", str(SYNTH_M1), "--seed", str(TRAIN_SEED)]
        return [
            ["train-grammar", *common, "--out", str(out / "grammar.lpcfg")],
            [
                "train-bilayered", *common, "--alignments", str(inp / "synth_alignments.tsv"),
                "--m2", str(SYNTH_M2), "--out", str(out / "bilayered.lpcfg"),
            ],
        ]

    def invariants(self, root: Path, inp: Path, out: Path) -> list[str]:
        """Every trained grammar validates and round-trips bit-exactly."""
        errors = []
        for name in self.outputs:
            loaded = grammar.load_grammar(str(out / name))
            report = grammar.validate(loaded)
            if not report.ok:
                errors.append(f"{name}: {len(report.violations)} violation(s)")
            copy = out / f"roundtrip-{name}"
            grammar.save_grammar(loaded, str(copy))
            if copy.read_bytes() != (out / name).read_bytes():
                errors.append(f"{name}: save/load round trip changed the bytes")
        return errors


class GroundKB:
    outputs = ("model.tsv", "eval.tsv")

    def prepare(self, root: Path, seed: int, inp: Path) -> None:
        data = _data(root)
        inputs.write_distractor_kb(data / "kb.tsv", data / "graphs", seed, inp)

    def setup(self, root: Path, inp: Path, kb_path: Path | None = None) -> dict:
        data = _data(root)
        graphs = data / "graphs"

        def loader(name: str):
            return semparse.load_ungrounded(str(graphs / name), name=name)

        return {
            "kb": semparse.load_kb(str(kb_path or inp / "kb_distractors.tsv")),
            "train": semparse.load_qa(str(data / "qa_train.tsv"), loader),
            "eval": semparse.load_qa(str(data / "qa_eval.tsv"), loader),
        }

    def run(self, state: dict, seed: int, out: Path):
        clock = time.perf_counter
        start = clock()
        error = None
        f1 = 0.0
        try:
            model = semparse.perceptron_train(
                state["train"], state["kb"], epochs=QA_EPOCHS, beam=QA_BEAM, seed=0
            )
            semparse.save_perceptron(model, str(out / "model.tsv"))
            weights = semparse.load_perceptron_weights(str(out / "model.tsv"))
            report = semparse.evaluate(state["eval"], state["kb"], weights, beam=QA_BEAM)
            lines = [f"{q}\t{p:.4f}\t{r:.4f}\t{f:.4f}" for q, p, r, f in report.per_question]
            lines.append(
                f"AVG\t{report.avg_precision:.4f}\t{report.avg_recall:.4f}\t{report.avg_f1:.4f}"
            )
            (out / "eval.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            f1 = report.avg_f1
        except Exception as exc:  # noqa: BLE001 - reported as failed operations
            error = repr(exc)
        elapsed_ms = (clock() - start) * 1000.0
        examples = len(state["train"]) + len(state["eval"])
        items = QA_EPOCHS * len(state["train"]) + len(state["eval"])
        # Training and evaluation are one library call each, so the items
        # (example visits) get the pass's mean time per visit.
        return [error] * examples, [elapsed_ms / items], items, {"qa_f1": f1}

    def cli_argvs(self, root: Path, inp: Path, seed: int, out: Path) -> list[list[str]]:
        data = _data(root)
        common = ["--kb", str(inp / "kb_distractors.tsv"), "--graphs-dir", str(data / "graphs"),
                  "--beam", str(QA_BEAM)]
        return [
            ["semparse-train", *common, "--qa", str(data / "qa_train.tsv"),
             "--epochs", str(QA_EPOCHS), "--out", str(out / "model.tsv")],
            ["semparse-eval", *common, "--qa", str(data / "qa_eval.tsv"),
             "--model", str(out / "model.tsv"), "--out", str(out / "eval.tsv")],
        ]

    def invariants(self, root: Path, inp: Path, out: Path) -> list[str]:
        """Averaged weights and eval rows equal those from the bundled KB."""
        reference = out / "bundled-kb"
        reference.mkdir(exist_ok=True)
        self.run(self.setup(root, inp, kb_path=_data(root) / "kb.tsv"), 0, reference)
        return [
            f"{name} differs from the run on the bundled KB"
            for name in self.outputs
            if (out / name).read_bytes() != (reference / name).read_bytes()
        ]


WORKLOADS = {
    "paraphrase": Paraphrase(),
    "train-synth": TrainSynth(),
    "ground-kb": GroundKB(),
}


# --- modes ---------------------------------------------------------------------------

def do_prepare(workload, root: Path, params: dict) -> dict:
    for seed, inp in params["inputs"]:
        Path(inp).mkdir(parents=True, exist_ok=True)
        workload.prepare(root, seed, Path(inp))
    return {}


def do_pass(workload, root: Path, params: dict) -> dict:
    inp, out = Path(params["inputs"]), Path(params["out"])
    tracer = Tracer() if params.get("trace") else None
    with tracer or contextlib.nullcontext():
        state = workload.setup(root, inp)
        setup_s = time.monotonic() - params["t0"]
        if params.get("setup_only"):
            return {"setup_s": setup_s}
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        ops, item_ms, items, quality = workload.run(state, params["seed"], out)
        phase_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        "phase_s": phase_s,
        "ops": len(ops),
        "errors": [err for err in ops if err is not None],
        "item_ms": item_ms,
        "items": items,
        "quality": quality,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "digests": digests(out, workload.outputs)
        if all((out / name).exists() for name in workload.outputs) else {},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
    return result


def _run_cli(argvs: list[list[str]]) -> list[str]:
    errors = []
    for argv in argvs:
        code = cli.main(argv)
        if code != 0:
            errors.append(f"paralat {argv[0]} exited with {code}")
    return errors


def do_check(workload, root: Path, params: dict) -> dict:
    """CLI outputs at the workload seed (and, when asked, at the default
    seed for the golden digests), plus the output invariants."""
    inp, out = Path(params["inputs"]), Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    errors = _run_cli(workload.cli_argvs(root, inp, params["seed"], out))
    result = {"errors": errors, "digests": {}, "golden_run": {}}
    if errors:
        return result
    result["digests"] = digests(out, workload.outputs)
    result["errors"] = workload.invariants(root, inp, out)
    if params.get("golden_inputs"):
        golden_out = out / "golden"
        golden_out.mkdir()
        golden_errors = _run_cli(
            workload.cli_argvs(root, Path(params["golden_inputs"]), DEFAULT_SEED, golden_out)
        )
        result["errors"] += golden_errors
        if not golden_errors:
            result["golden_run"] = digests(golden_out, workload.outputs)
    return result


MODES = {"prepare": do_prepare, "pass": do_pass, "check": do_check}


def main() -> int:
    mode, params = sys.argv[1], json.loads(sys.argv[2])
    root = Path(params["root"]).resolve()
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"paralat imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    os.chdir(params["work"])
    result = MODES[mode](WORKLOADS[params["workload"]], root, params)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
