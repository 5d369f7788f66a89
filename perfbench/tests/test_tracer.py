"""Self-test of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout.  Checks that a traced run restores every
function it wrapped, that tracing leaves the output bytes unchanged, and
that span parents nest along the call chain.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer as tracer_module  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

QUESTIONS = 6
SEED = 7


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every paralat module and traced class."""
    out = {}
    for module in tracer_module._paralat_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(f"{module.__name__}.{name}", attr)] = member
    return out


@pytest.fixture(scope="module")
def paraphrase(tmp_path_factory):
    inp = tmp_path_factory.mktemp("inputs")
    workload = worker.Paraphrase()
    workload.prepare(ROOT, SEED, inp)
    return workload, inp


def _run(workload, inp: Path, out: Path, tracer: Tracer | None = None) -> bytes:
    out.mkdir()
    with tracer or contextlib.nullcontext():
        state = workload.setup(ROOT, inp)
        state["questions"] = state["questions"][:QUESTIONS]
        workload.run(state, SEED, out)
    return b"".join((out / name).read_bytes() for name in workload.outputs)


def test_uninstall_restores_every_wrapped_function(paraphrase, tmp_path):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        wrapped = [key for key, value in before.items() if during[key] is not value]
        assert len(wrapped) >= len(tracer_module.TARGETS)
        # Cross-module bindings are wrapped too, e.g. the sampler's own
        # reference to lattice.remove_conflicting.
        assert ("paralat.sampler", "remove_conflicting") in wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())

    _run(*paraphrase, tmp_path / "traced", Tracer())
    assert all(_bindings()[key] is value for key, value in before.items())


def test_traced_output_bytes_equal_untraced(paraphrase, tmp_path):
    plain = _run(*paraphrase, tmp_path / "plain")
    traced = _run(*paraphrase, tmp_path / "traced", Tracer())
    assert plain and traced == plain


def test_span_parents_nest(paraphrase, tmp_path):
    tracer = Tracer()
    _run(*paraphrase, tmp_path / "traced", tracer)
    spans = tracer.spans
    removals = [span for span in spans if span[0] == "remove_conflicting"]
    assert removals
    for span in removals:
        parent = spans[span[3]]
        assert parent[0] == "sample_one"
        assert spans[parent[3]][0] == "sample_many"
        assert parent[1] <= span[1] <= span[2] <= parent[2]

    metrics = layer_metrics(tracer)
    assert metrics["sampler.draws"] == len(worker.Paraphrase.modes) * QUESTIONS * worker.PARAPHRASE_M
    assert metrics["lattice.remove_conflicting.calls"] == len(removals)
    # Self time excludes the children: sample_one minus its removals.
    own = sum(s[2] - s[1] for s in spans if s[0] == "sample_one")
    inner = sum(s[2] - s[1] for s in removals) + sum(
        s[2] - s[1] for s in spans if s[0] == "enumerate_edge_paths"
    )
    assert metrics["sampler.sample_one_self_s"] == pytest.approx(own - inner)


def test_recursive_spans_count_once(tmp_path):
    from paralat import treebank

    tracer = Tracer()
    with tracer:
        treebank.binarize(treebank.parse_tree("(S (A a) (B b) (C c) (D d))"))
    outer = [s for s, nested in zip(tracer.spans, tracer.nested) if s[0] == "binarize" and not nested]
    assert len(outer) == 1
    assert tracer.calls("binarize") > 1
    assert tracer.total("binarize") == outer[0][2] - outer[0][1]
