"""paralat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every pass is a fresh process that
imports the package, loads the workload's inputs (set-up) and then does
the workload's work once, calling the library in the order of the
matching CLI handlers; one client, a closed loop, no threads.  Passes
repeat until ``--seconds`` have gone by.

Correctness: every pass must produce the same output bytes; the real
subcommands, run in-process through ``paralat.cli.main`` on the same
inputs, must produce them too; the outputs must keep their invariants;
and at the default seed they must match the golden digests in
``golden.json``.  At another seed the subcommands are also run at the
default seed and checked against the digests, once per workload and
version of the sources: a stamp under ``.perfbench-work/golden-ok``
records a passed check.  A run whose bytes differ counts all its
operations as failed.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics, their times scaled to a reference host speed: a
fixed load (calibrate.py) gauges the host's speed before the first pass
and after each, and a pass's times are divided by how much slower than
the reference the host ran at its two ends.  With ``--trace 1`` it has the per-layer metrics of
traced passes, which alternate with untraced ones to give the tracing
overhead.  Lines before it spell the figures out, including the
workload's own names for them (questions_per_s, qa_f1, ...).

This process uses only the standard library, so that the peak RSS of a
pass, which a child inherits as a floor from its parent, is its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS  # standard library only

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 7
WORKLOADS = ("paraphrase", "train-synth", "ground-kb")
SETUP_SAMPLES = 7  # set-ups per run; passes count, set-up-only children fill up
RUN_LIMIT_S = 170  # a run, children included, ends within this
# About calibrate.py's median time on the host the benchmark was defined
# on (2 vCPUs of an Intel Xeon, Python 3.11, one BLAS thread): scaled
# times are in seconds of that host at its median speed.
REFERENCE_S = 0.5
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p80_ms": "ms",
}
# Inputs the golden digests need at another seed than the default:
# the paraphrase inputs do not depend on the seed (only sampling does),
# the synthetic corpus does, and the ground-kb outputs must not.
GOLDEN_INPUTS = {
    "paraphrase": "same",
    "train-synth": "own",
    "ground-kb": None,
}
TRACE_UNITS = {"trace.phase_s": "s", "trace.untraced_phase_s": "s", "trace.overhead_frac": "frac"}


class ChildError(Exception):
    pass


class Run:
    """Starts the worker processes of one run, each within the run's time
    limit, and waits for each to end."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
        self.env["TMPDIR"] = str(work)
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"
        self.base = {"root": str(root), "work": str(work), "workload": workload, "seed": seed}

    def child(self, mode: str, **params) -> dict:
        t0 = time.monotonic()
        params = dict(self.base, **params, t0=t0)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, json.dumps(params)],
            env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - t0),
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise ChildError(f"{mode} exited with {proc.returncode}:\n{tail}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def calibrate(self) -> float:
        """Seconds the fixed load of calibrate.py takes now."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "calibrate.py")], env=self.env, capture_output=True,
            text=True, timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise ChildError(f"calibrate.py exited with {proc.returncode}:\n{proc.stderr}")
        return float(proc.stdout)


def percentile(values: list[float], q: int) -> float:
    """``q``-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(run: Run, seconds: float, trace: bool, inputs: str):
    """Passes for about ``seconds``: none starts that would end more than
    half a pass after them.  With ``trace`` untraced and traced passes
    alternate, in pairs."""
    passes, traced = [], []
    start = time.monotonic()
    deadline = start + seconds
    cal_s = [run.calibrate()]
    while True:
        traced_pass = trace and len(traced) < len(passes)
        out = f"{run.base['work']}/pass{len(passes) + len(traced)}"
        result = run.child("pass", inputs=inputs, out=out, trace=traced_pass)
        cal_s.append(run.calibrate())
        result["slowness"] = statistics.fmean(cal_s[-2:]) / REFERENCE_S
        (traced if traced_pass else passes).append(result)
        now = time.monotonic()
        half_pass = (now - start) / (len(passes) + len(traced)) / 2
        if now + half_pass >= deadline and len(traced) == (len(passes) if trace else 0):
            return passes, traced


def source_digest(root: Path) -> str:
    """SHA-256 of the files the outputs depend on: the package with its
    data, the data scripts and the benchmark."""
    sha = hashlib.sha256()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                sha.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def correctness(workload: str, seed: int, runs: list[dict], check: dict,
                golden_due: bool) -> list[str]:
    problems = list(check["errors"])
    for run in runs:
        problems += run["errors"]
    reference = runs[0]["digests"]
    if any(run["digests"] != reference for run in runs):
        problems.append("passes produced different output bytes")
    if check["digests"] != reference:
        problems.append("paralat CLI output differs from the library-driven passes")
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[workload]
    if check["golden_run"]:
        if check["golden_run"] != golden:
            problems.append(f"CLI output at seed {DEFAULT_SEED} differs from golden.json: "
                            f"{json.dumps(check['golden_run'])}")
    elif golden_due and reference != golden:
        problems.append(f"output differs from golden.json (seed {seed}): {json.dumps(reference)}")
    return problems


def end_to_end(passes: list[dict], setups: list[float], failed: int, attempted: int) -> dict:
    """Times are scaled to the reference host speed (calibrate.py), each
    pass's by the host's slowness at its ends; ``setups`` are scaled."""
    phase = sum(p["phase_s"] / p["slowness"] for p in passes)
    item_ms = [ms / p["slowness"] for p in passes for ms in p["item_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_frac": 1.0 - failed / attempted,
        "items_per_s": sum(p["items"] for p in passes) / phase,
        "item_p50_ms": percentile(item_ms, 50),
        "item_p80_ms": percentile(item_ms, 80),
    }


def workload_figures(workload: str, metrics: dict, passes: list[dict], failed_frac: float) -> dict:
    """The end-to-end figures under the workload's own names."""
    quality = passes[0]["quality"]
    figures = {
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": failed_frac,
    }
    if workload == "paraphrase":
        figures.update(
            questions_per_s=metrics["items_per_s"],
            question_p50_ms=metrics["item_p50_ms"],
            question_p80_ms=metrics["item_p80_ms"],
            **quality,
        )
    elif workload == "train-synth":
        figures["trees_per_s"] = metrics["items_per_s"]
    else:
        figures["qa_examples_per_s"] = metrics["items_per_s"]
        figures["qa_f1"] = quality["qa_f1"]
    return figures


def figure_unit(name: str) -> str:
    """Unit of a figure named by its suffix, as ``workload_figures`` names them."""
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_frac", "frac"), ("_f1", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_figures(passes: list[dict], traced: list[dict]) -> dict:
    """Median per-layer figures over the traced passes, plus overhead;
    times are scaled like the end-to-end ones."""

    def scaled(run: dict, name: str, value: float) -> float:
        return value / run["slowness"] if LAYER_UNITS.get(name, "s") == "s" else value

    metrics = {
        name: statistics.median(scaled(t, name, t["layers"][name]) for t in traced)
        for name in traced[0]["layers"]
    }
    untraced = statistics.median(scaled(p, "phase_s", p["phase_s"]) for p in passes)
    traced_s = statistics.median(scaled(t, "phase_s", t["phase_s"]) for t in traced)
    metrics["trace.phase_s"] = traced_s
    metrics["trace.untraced_phase_s"] = untraced
    metrics["trace.overhead_frac"] = traced_s / untraced - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    for needed in (root / "src" / "paralat" / "__init__.py", root / "scripts" / "gen_data.py"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of a paralat checkout",
                  file=sys.stderr)
            return 2

    work = root / ".perfbench-work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(root, work, args.workload, args.seed)
    inputs = str(work / "inputs")
    to_prepare = [(args.seed, inputs)]
    # The outputs are compared with golden.json directly at the default
    # seed, or at any seed where they must not depend on it; otherwise
    # the subcommands run once more at the default seed, unless a stamp
    # shows that these sources passed that check before.
    golden_due = args.seed == DEFAULT_SEED or GOLDEN_INPUTS[args.workload] is None
    stamp = root / ".perfbench-work" / "golden-ok" / f"{args.workload}-{source_digest(root)}"
    golden_inputs = None
    if not golden_due and not stamp.exists():
        if GOLDEN_INPUTS[args.workload] == "same":
            golden_inputs = inputs
        else:
            golden_inputs = str(work / "golden-inputs")
            to_prepare.append((DEFAULT_SEED, golden_inputs))
    try:
        run.child("prepare", inputs=to_prepare)
        passes, traced = measure(run, args.seconds, bool(args.trace), inputs)
        # Set-ups of the passes, then set-up-only passes scaled by the
        # passes' mean slowness.
        slowness = statistics.fmean(p["slowness"] for p in passes)
        setups = [p["setup_s"] / p["slowness"] for p in passes]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setup_s = run.child("pass", inputs=inputs, out="", setup_only=True)["setup_s"]
            setups.append(setup_s / slowness)
        check = run.child("check", inputs=inputs, out=str(work / "cli"), golden_inputs=golden_inputs)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    runs = passes + traced
    problems = correctness(args.workload, args.seed, runs, check, golden_due)
    if not problems and (golden_due or golden_inputs):
        stamp.parent.mkdir(parents=True, exist_ok=True)
        stamp.touch()
    attempted = sum(run["ops"] for run in runs)
    failed = attempted if problems else sum(len(run["errors"]) for run in runs)
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} untraced and {len(traced)} traced "
          f"passes, {attempted} operations, {failed} failed")

    if args.trace:
        metrics = layer_figures(passes, traced)
        units = dict(LAYER_UNITS, **TRACE_UNITS)
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        sampling = metrics["sampler.sample_many_s"] + metrics["lattice.build_s"]
        print(f"  sampler and lattice spans: {sampling / metrics['trace.phase_s']:.1%} "
              "of the traced measured phase")
    else:
        metrics = end_to_end(passes, setups, failed, attempted)
        figures = workload_figures(args.workload, metrics, passes, failed / attempted)
        print(f"  samples: {len(setups)} set-ups, {len(passes)} passes, "
              f"{sum(len(p['item_ms']) for p in passes)} latencies")
        print(f"  host slowness {slowness:.4f} on average: times below are scaled to the reference")
        for name, value in figures.items():
            print(f"  {name} = {value:.6g} {figure_unit(name)}")
        units = UNITS
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
