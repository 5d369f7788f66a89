"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` replaces each traced public function by a wrapper in
every ``paralat.*`` namespace that binds it (and traced methods on their
class), so calls between modules are caught as well as the benchmark's
own.  Every call records a span (name, start, end, parent span, error
type); ``uninstall`` puts the original objects back.  Observers turn the
arguments and results of some calls into counts, after the span has
closed, so their work is not charged to the span.

``layer_metrics`` reduces the spans to the per-layer figures the
benchmark reports.  Inclusive time counts only the outermost span of a
recursive function; self time is a span's duration minus that of its
direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every traced function or method.
TARGETS = (
    ("paralat.treebank", "read_treebank"),
    ("paralat.treebank", "binarize"),
    ("paralat.estimation", "read_alignments"),
    ("paralat.estimation", "aligned_words_index"),
    ("paralat.estimation", "extract_features"),
    ("paralat.estimation", "cluster_states"),
    ("paralat.estimation", "estimate_mle"),
    ("paralat.grammar", "load_grammar"),
    ("paralat.grammar", "save_grammar"),
    ("paralat.cky", "cky_viterbi"),
    ("paralat.lattice", "build_naive"),
    ("paralat.lattice", "build_from_rules"),
    ("paralat.lattice", "build_bilayered"),
    ("paralat.lattice", "remove_conflicting"),
    ("paralat.lattice", "enumerate_edge_paths"),
    ("paralat.sampler", "prune_grammar"),
    ("paralat.sampler", "sample_one"),
    ("paralat.sampler", "sample_many"),
    ("paralat.classifier", "compute_features"),
    ("paralat.classifier", "ClassifierModel.score"),
    ("paralat.classifier", "filter_candidates"),
    ("paralat.semparse", "load_kb"),
    ("paralat.semparse", "oracle_set"),
    ("paralat.semparse", "ground"),
    ("paralat.semparse", "entity_candidates"),
    ("paralat.semparse", "denotation"),
    ("paralat.semparse", "KnowledgeGraph.subjects"),
    ("paralat.semparse", "KnowledgeGraph.objects"),
    ("paralat.semparse", "KnowledgeGraph.entities_of_type"),
    ("paralat.semparse", "perceptron_train"),
    ("paralat.semparse", "evaluate"),
)

LATTICE_BUILDERS = ("build_naive", "build_from_rules", "build_bilayered")
KB_LOOKUPS = (
    "KnowledgeGraph.subjects",
    "KnowledgeGraph.objects",
    "KnowledgeGraph.entities_of_type",
)


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def _paralat_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "paralat" or name.startswith("paralat."))
    ]


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, error type or None].
        self.spans: list[list] = []
        self.nested: list[bool] = []  # inside an open span of the same name
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._observers = {
            "build_naive": self._lattice_built,
            "build_from_rules": self._lattice_built,
            "build_bilayered": self._lattice_built,
            "remove_conflicting": self._conflicts_removed,
            "sample_one": self._sampled,
            "sample_many": self._sampled_many,
            "filter_candidates": self._filtered,
            "cluster_states": self._clustered,
            "oracle_set": self._oracle_found,
            "load_kb": self._kb_loaded,
        }

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _paralat_modules()
        for module_name, attr in TARGETS:
            owner, name, original = _resolve(module_name, attr)
            wrapper = self._wrap(attr, original)
            if "." in attr:  # a method: patch its class only
                self._restore.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        observe = self._observers.get(name)
        spans, nested, stack, open_ = self.spans, self.nested, self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            nested.append(open_[name] > 0)
            stack.append(index)
            open_[name] += 1
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                open_[name] -= 1
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, result, span[4])

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # --- observers: (args, kwargs, result, error) ------------------------------

    def _lattice_built(self, args, kwargs, result, error) -> None:
        if result is not None:
            self.values["lattice.edges"].append(len(result.edges))

    def _conflicts_removed(self, args, kwargs, result, error) -> None:
        lat, edge = args[0], args[1]
        self.distinct["remove_conflicting"].add((lat.source, lat.sink, lat.edges, edge))

    def _sampled(self, args, kwargs, result, error) -> None:
        reason = getattr(result, "reason", None)
        if reason is not None:
            self.counts["sampler." + reason] += 1

    def _sampled_many(self, args, kwargs, result, error) -> None:
        if result is not None:
            self.counts["sampler.candidates"] += len(result)
        if error == "EmptyIntersection":
            self.counts["sampler.empty_intersection"] += 1

    def _filtered(self, args, kwargs, result, error) -> None:
        candidates = args[2] if len(args) > 2 else kwargs["candidates"]
        self.counts["classifier.candidates"] += len(candidates)
        if result is not None:
            self.counts["classifier.kept"] += len(result)

    def _clustered(self, args, kwargs, result, error) -> None:
        vectors, symbols, m = args[0], args[1], args[2]
        self.values["estimation.kmeans_bytes"].append(float(_kmeans_bytes(vectors, symbols, m)))
        self.values["estimation.cluster.rows"].append(
            float(len({(symbols[key], tuple(sorted(vec.items()))) for key, vec in vectors.items()}))
        )

    def _oracle_found(self, args, kwargs, result, error) -> None:
        self.counts["semparse.oracle_calls"] += 1
        if result:
            self.counts["semparse.oracle_nonempty"] += 1

    def _kb_loaded(self, args, kwargs, result, error) -> None:
        if result is not None:
            self.values["semparse.kb_triples"].append(float(len(result.triples)))

    # --- reductions -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def errors(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name and span[4] is not None)

    def total(self, name: str) -> float:
        """Inclusive seconds of the outermost spans of ``name``."""
        return sum(
            (span[2] - span[1]
             for span, nested in zip(self.spans, self.nested)
             if span[0] == name and not nested),
            0.0,
        )

    def self_times(self) -> dict[str, float]:
        """Seconds per name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, child):
            out[span[0]] += span[2] - span[1] - inner
        return out


def _kmeans_bytes(vectors, symbols, m: int) -> int:
    """Largest n x min(m, n) x d float64 tensor one k-means step of
    ``cluster_states`` broadcasts, over the symbols it clusters (computed
    from the distinct vectors, not measured)."""
    rows: dict[str, set] = defaultdict(set)
    for key, vec in vectors.items():
        rows[symbols[key]].add(tuple(sorted(vec.items())))
    worst = 0
    for distinct in rows.values():
        n = len(distinct)
        if m == 1 or n == 1:
            continue
        d = len({name for items in distinct for name, _ in items})
        worst = max(worst, n * min(m, n) * d * 8)
    return worst


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# name -> unit of every per-layer figure ``layer_metrics`` returns.
LAYER_UNITS = {
    "treebank.read_s": "s",
    "treebank.binarize_s": "s",
    "estimation.features_s": "s",
    "estimation.features.calls": "count",
    "estimation.alignments_s": "s",
    "estimation.cluster_s": "s",
    "estimation.cluster.rows": "count",
    "estimation.kmeans_tensor_mb": "MB",
    "estimation.mle_s": "s",
    "grammar.load_s": "s",
    "grammar.save_s": "s",
    "cky.parse_s": "s",
    "cky.calls": "count",
    "cky.fail_frac": "frac",
    "lattice.build_s": "s",
    "lattice.edges_mean": "count",
    "lattice.remove_conflicting_s": "s",
    "lattice.remove_conflicting.calls": "count",
    "lattice.remove_conflicting.distinct_frac": "frac",
    "lattice.enumerate_edge_paths_s": "s",
    "sampler.sample_many_s": "s",
    "sampler.prune_s": "s",
    "sampler.sample_one_self_s": "s",
    "sampler.draws": "count",
    "sampler.dead_end_frac": "frac",
    "sampler.depth_cap_frac": "frac",
    "sampler.useful_frac": "frac",
    "sampler.empty_intersection": "count",
    "classifier.features_s": "s",
    "classifier.score_s": "s",
    "classifier.filter_self_s": "s",
    "classifier.kept_frac": "frac",
    "semparse.load_kb_s": "s",
    "semparse.oracle_s": "s",
    "semparse.ground_s": "s",
    "semparse.ground.calls": "count",
    "semparse.entity_candidates_s": "s",
    "semparse.denotation_s": "s",
    "semparse.kb_lookups": "count",
    "semparse.train_self_s": "s",
    "semparse.eval_self_s": "s",
    "semparse.oracle_coverage": "frac",
    "semparse.kb_triples": "count",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced pass (0 for layers not exercised).

    ``estimation.kmeans_tensor_mb`` is computed from the clustered vectors
    (10^6 bytes); ``lattice.build_s`` is the builders' self time, so the
    CKY parse inside ``build_bilayered`` counts only under ``cky.parse_s``.
    """
    t = tracer
    own = t.self_times()
    draws = t.calls("sample_one")
    rc_calls = t.calls("remove_conflicting")
    return {
        "treebank.read_s": t.total("read_treebank"),
        "treebank.binarize_s": t.total("binarize"),
        "estimation.features_s": t.total("extract_features"),
        "estimation.features.calls": float(t.calls("extract_features")),
        "estimation.alignments_s": t.total("read_alignments") + t.total("aligned_words_index"),
        "estimation.cluster_s": t.total("cluster_states"),
        "estimation.cluster.rows": _mean(t.values["estimation.cluster.rows"]),
        "estimation.kmeans_tensor_mb": max(t.values["estimation.kmeans_bytes"], default=0.0) / 1e6,
        "estimation.mle_s": t.total("estimate_mle"),
        "grammar.load_s": t.total("load_grammar"),
        "grammar.save_s": t.total("save_grammar"),
        "cky.parse_s": t.total("cky_viterbi"),
        "cky.calls": float(t.calls("cky_viterbi")),
        "cky.fail_frac": _ratio(t.errors("cky_viterbi"), t.calls("cky_viterbi")),
        "lattice.build_s": sum(own.get(name, 0.0) for name in LATTICE_BUILDERS),
        "lattice.edges_mean": _mean(t.values["lattice.edges"]),
        "lattice.remove_conflicting_s": t.total("remove_conflicting"),
        "lattice.remove_conflicting.calls": float(rc_calls),
        "lattice.remove_conflicting.distinct_frac": _ratio(
            len(t.distinct["remove_conflicting"]), rc_calls
        ),
        "lattice.enumerate_edge_paths_s": t.total("enumerate_edge_paths"),
        "sampler.sample_many_s": t.total("sample_many"),
        "sampler.prune_s": t.total("prune_grammar"),
        "sampler.sample_one_self_s": own.get("sample_one", 0.0),
        "sampler.draws": float(draws),
        "sampler.dead_end_frac": _ratio(t.counts["sampler.dead-end"], draws),
        "sampler.depth_cap_frac": _ratio(t.counts["sampler.depth-cap"], draws),
        "sampler.useful_frac": _ratio(t.counts["sampler.candidates"], draws),
        "sampler.empty_intersection": float(t.counts["sampler.empty_intersection"]),
        "classifier.features_s": t.total("compute_features"),
        "classifier.score_s": t.total("ClassifierModel.score"),
        "classifier.filter_self_s": own.get("filter_candidates", 0.0),
        "classifier.kept_frac": _ratio(
            t.counts["classifier.kept"], t.counts["classifier.candidates"]
        ),
        "semparse.load_kb_s": t.total("load_kb"),
        "semparse.oracle_s": t.total("oracle_set"),
        "semparse.ground_s": t.total("ground"),
        "semparse.ground.calls": float(t.calls("ground")),
        "semparse.entity_candidates_s": t.total("entity_candidates"),
        "semparse.denotation_s": t.total("denotation"),
        "semparse.kb_lookups": float(sum(t.calls(name) for name in KB_LOOKUPS)),
        "semparse.train_self_s": own.get("perceptron_train", 0.0),
        "semparse.eval_self_s": own.get("evaluate", 0.0),
        "semparse.oracle_coverage": _ratio(
            t.counts["semparse.oracle_nonempty"], t.counts["semparse.oracle_calls"]
        ),
        "semparse.kb_triples": max(t.values["semparse.kb_triples"], default=0.0),
    }
