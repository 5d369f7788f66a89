"""Paraphrase filtering: MT-style pair features, a dictionary entity
tagger, and a small logistic-regression classifier.

Feature extraction is deterministic and dependency-free: smoothed BLEU up
to order 4 in both directions, word-level edit rate, length ratio, unigram
precision/recall, and an entity-preservation bit from a gazetteer tagger.
A pair's :class:`PairFeatures` is a named tuple: the vector the model weighs.
The edit rate is the word-level Levenshtein distance over the source
length, capped at 2; the distance comes from Myers' bit-vector algorithm
(Myers 1999, JACM 46(3), in Hyyrö's 2001 form for whole sequences), the
same integer as the dynamic-programming table.
:func:`filter_candidates` prepares its source once for all candidates
(``_Source``): the lowercased tokens, the n-gram counts, the masks of the
source as the bit-vector pattern (the distance is symmetric) and the
entity mention counts, so a candidate's features cost only the
candidate's side.
Scoring a stored model is plain Python too.  numpy is imported inside
:func:`train`, its only user, so a command that loads a model and filters
candidates (``paraphrase``) never pays numpy's import time or memory.
Only tests look a stored weight up by feature name (``weight_of``, in
``tests/oracles.py``).
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .data_files import atomic_write, finite_float, records
from .errors import ClassifierError, DegenerateLabels, EmptySentence
from .sampler import ParaphraseCandidate

LEARNING_RATE = 0.1
L2_STRENGTH = 1e-3
HELDOUT_FRACTION = 0.2


class PairFeatures(NamedTuple):
    bleu1: float
    bleu2: float
    bleu3: float
    bleu4: float
    bleu_sym: float
    ter: float
    length_ratio: float
    unigram_precision: float
    unigram_recall: float
    ne_preserved: float


FEATURE_NAMES = PairFeatures._fields


def _grams(tokens: Sequence[str]) -> Iterator[Sequence[Hashable]]:
    """The grams of ``tokens`` by order, 1 to 4, each order's in sentence
    order: the tokens themselves, then tuples; a gram of order n > 1 is
    one of order n - 1 extended by the token after it."""
    yield tokens
    grams = list(zip(tokens, tokens[1:]))
    yield grams
    for n in (2, 3):
        grams = [gram + (tok,) for gram, tok in zip(grams, tokens[n:])]
        yield grams


def _clipped_matches(grams: Iterable[Hashable], reference: dict) -> int:
    """The ``grams`` that match one in ``reference`` (gram -> count), each
    reference gram matched at most as often as it occurs there."""
    left = reference.copy()
    hits = 0
    for gram in grams:
        count = left.get(gram)
        if count:
            left[gram] = count - 1
            hits += 1
    return hits


def _log_precisions(matches: Sequence[int], length: int) -> list[float]:
    """Per-order log precisions of a sentence of ``length`` tokens, given
    its n-gram matches of orders 1 to 4, of which the unigram count is
    not 0; add-1 smoothed for n >= 2."""
    m1, m2, m3, m4 = matches
    return [
        math.log(m1 / length),
        math.log((m2 + 1) / (max(length - 1, 0) + 1)),
        math.log((m3 + 1) / (max(length - 2, 0) + 1)),
        math.log((m4 + 1) / (max(length - 3, 0) + 1)),
    ]


def _pattern(tokens: Sequence[str]) -> tuple[dict[str, int], int, int]:
    """The masks of ``tokens`` as the pattern of :func:`_distance`: per
    distinct token, the bit set of its positions; the mask of all
    positions; and the bit of the last position (0 for no tokens)."""
    peq: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        peq[tok] = peq.get(tok, 0) | (1 << i)
    full = (1 << len(tokens)) - 1
    return peq, full, full ^ (full >> 1)


def _distance(pattern: tuple[dict[str, int], int, int], b: Sequence[str]) -> int:
    """Levenshtein distance between the non-empty token sequence ``a``
    whose :func:`_pattern` is ``pattern`` and the token sequence ``b``.

    Bit ``i`` of ``pv`` and ``mv`` says whether the current column of the
    distance table rises or falls by one from row ``i`` to row ``i + 1``
    (rows follow ``a``); each token of ``b`` advances the column, and
    ``dist`` follows its last row, starting from the length of ``a``,
    the bit length of ``last``.  Python integers carry any number of
    bits, so ``a`` may be of any length.
    """
    peq, full, last = pattern
    pv, mv, dist = full, 0, last.bit_length()
    for tok in b:
        eq = peq.get(tok, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full & ~(xh | pv))
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # Row 0 of the table rises by one per column, so a 1 enters ph.
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (full & ~(xv | ph))
        mv = ph & xv
    return dist


def _occurrences(haystack: Sequence[str], needle: Sequence[str]) -> int:
    if not needle:
        return 0
    count = 0
    i = 0
    while i + len(needle) <= len(haystack):
        if tuple(haystack[i:i + len(needle)]) == tuple(needle):
            count += 1
            i += len(needle)
        else:
            i += 1
    return count


class _Source:
    """A source sentence prepared for scoring candidates against it, from
    its lowercased tokens: their count, their n-gram counts of orders 1
    to 4 (gram -> count), their :func:`_pattern` masks and the counts of
    the entity mentions (the token tuples of the spans ``entities``)."""

    __slots__ = ("length", "grams", "pattern", "mentions")

    def __init__(self, source: Sequence[str], entities: Sequence[tuple[int, int]] = ()) -> None:
        src = [t.lower() for t in source]
        self.length = len(src)
        self.grams = [dict(Counter(grams)) for grams in _grams(src)]
        self.pattern = _pattern(src)
        self.mentions = tuple(Counter(tuple(src[i:j]) for i, j in entities).items())


def compute_features(
    source: Sequence[str],
    candidate: Sequence[str],
    entities: Sequence[tuple[int, int]] = (),
    prepared: _Source | None = None,
) -> PairFeatures:
    """Deterministic pair features; ``entities`` are token spans over the
    source whose surface strings must reappear verbatim in the candidate
    for the preservation bit to be 1.  ``prepared`` is
    ``_Source(source, entities)``, built once by a caller that scores many
    candidates against one source; with it, only the candidate's side is
    computed here."""
    if not source or not candidate:
        raise EmptySentence("both sentences must be non-empty")
    if prepared is None:
        prepared = _Source(source, entities)
    n_src = prepared.length
    cand = [t.lower() for t in candidate]
    n_cand = len(cand)

    # Clipped matches are symmetric, so each order is counted once for
    # both directions.  Every n-gram starts with an (n-1)-gram, so no
    # order above one with no match has a match.
    matches = [0, 0, 0, 0]
    for n, (grams, reference) in enumerate(zip(_grams(cand), prepared.grams)):
        hits = _clipped_matches(grams, reference)
        if not hits:
            break
        matches[n] = hits
    if matches[0]:
        # Cumulative BLEU up to order n, both ways; the smoothed orders
        # above 1 always have a log precision.
        forward = _log_precisions(matches, n_cand)
        brevity = min(0.0, 1.0 - n_src / n_cand)
        bleus = [math.exp(brevity + sum(forward[:n]) / n) for n in range(1, 5)]
        reverse4 = math.exp(
            min(0.0, 1.0 - n_cand / n_src) + sum(_log_precisions(matches, n_src)) / 4
        )
    else:  # every BLEU is 0
        bleus, reverse4 = [0.0] * 4, 0.0
    # The distance is symmetric, so the source, prepared once, is the
    # pattern.
    ter = min(2.0, _distance(prepared.pattern, cand) / n_src)
    overlap = matches[0]
    preserved = all(
        _occurrences(cand, mention) >= count for mention, count in prepared.mentions
    )
    return PairFeatures(
        *bleus,
        math.sqrt(bleus[3] * reverse4),
        ter,
        n_cand / n_src,
        overlap / n_cand,
        overlap / n_src,
        1.0 if preserved else 0.0,
    )


# --- dictionary entity tagger -------------------------------------------------

class Gazetteer:
    """Entity surface forms, matched longest-first and case-insensitively.

    ``surfaces`` holds each distinct non-empty lowercased form once, in
    dictionary order (a dict used as an ordered set).
    """

    def __init__(self, surfaces: Iterable[Sequence[str]]) -> None:
        lowered = (tuple(t.lower() for t in surface) for surface in surfaces)
        self.surfaces: dict[tuple[str, ...], None] = dict.fromkeys(key for key in lowered if key)
        self._max_len = max((len(s) for s in self.surfaces), default=0)

    @classmethod
    def load(cls, path: str) -> "Gazetteer":
        return cls(line.split() for _, line in records(path))

    def tag(self, tokens: Sequence[str]) -> list[tuple[int, int]]:
        """Non-overlapping entity spans, longest match first."""
        lowered = [t.lower() for t in tokens]
        spans: list[tuple[int, int]] = []
        i = 0
        while i < len(lowered):
            match = 0
            for width in range(min(self._max_len, len(lowered) - i), 0, -1):
                if tuple(lowered[i:i + width]) in self.surfaces:
                    match = width
                    break
            if match:
                spans.append((i, i + match))
                i += match
            else:
                i += 1
        return spans


# --- the classifier -----------------------------------------------------------

@dataclass(frozen=True)
class ClassifierModel:
    """Linear model over raw PairFeatures values plus a decision threshold.

    Standardization learned at training time is folded into the stored
    weights, so scoring is a plain dot product.
    """

    weights: tuple[float, ...]
    bias: float
    threshold: float

    def score(self, features: PairFeatures) -> float:
        return _sigmoid(self.bias + sum(map(operator.mul, self.weights, features)))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


LabeledPair = tuple[Sequence[str], Sequence[str], int]


def read_labeled_pairs(path: str) -> list[LabeledPair]:
    """Read "source<TAB>candidate<TAB>0|1" lines; neither side may be
    empty."""
    pairs: list[LabeledPair] = []
    for lineno, line in records(path):
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in ("0", "1"):
            raise ClassifierError(f"{path}:{lineno}: bad labeled pair")
        source, candidate = parts[0].split(), parts[1].split()
        if not source or not candidate:
            raise ClassifierError(f"{path}:{lineno}: empty source or candidate")
        pairs.append((source, candidate, int(parts[2])))
    return pairs


Group = tuple[PairFeatures, int, int]  # (features, label, count)


def _grouped_split(
    rows: list[tuple[PairFeatures, int]], seed: int
) -> tuple[list[Group], list[Group]]:
    """Stratified 80/20 split by distinct (features, label) group.

    Everything downstream works on distinct groups weighted by their
    multiplicity, which keeps training bit-exactly stable when the dataset
    is duplicated; each class keeps at least one group in training.
    """
    by_class: dict[int, dict[tuple, int]] = {0: {}, 1: {}}
    for vec, label in rows:
        by_class[label][vec] = by_class[label].get(vec, 0) + 1
    rng = random.Random(seed)
    train: list[Group] = []
    heldout: list[Group] = []
    for label in (0, 1):
        groups = sorted(by_class[label])
        rng.shuffle(groups)
        class_total = sum(by_class[label].values())
        target = HELDOUT_FRACTION * class_total
        taken = 0
        for pos, vec in enumerate(groups):
            count = by_class[label][vec]
            is_last_for_train = pos == len(groups) - 1
            if taken < target and not is_last_for_train:
                heldout.append((vec, label, count))
                taken += count
            else:
                train.append((vec, label, count))
    return sorted(train), sorted(heldout)


def train(
    pairs: Sequence[LabeledPair],
    epochs: int = 200,
    seed: int = 0,
    gazetteer: Gazetteer | None = None,
) -> ClassifierModel:
    """Logistic regression by full-batch gradient descent.

    Features are standardized with training statistics; the learned
    weights are folded back to the raw feature scale for storage.  The
    decision threshold maximizes positive-class F1 on a held-out 20% split
    (falling back to the training rows when the held-out part is empty or
    single-class).  Deterministic given the seed.
    """
    import numpy as np

    labels = sorted({label for _, _, label in pairs})
    if labels != [0, 1]:
        raise DegenerateLabels(f"need both labels, got {labels}")
    rows: list[tuple[PairFeatures, int]] = []
    for source, candidate, label in pairs:
        spans = gazetteer.tag(source) if gazetteer is not None else ()
        rows.append((compute_features(source, candidate, spans), label))

    train_groups, heldout_groups = _grouped_split(rows, seed)
    points = np.array([vec for vec, _, _ in train_groups])
    y_train = np.array([label for _, label, _ in train_groups], dtype=float)
    counts = np.array([count for _, _, count in train_groups], dtype=float)
    frac = counts / counts.sum()

    mean = frac @ points
    var = frac @ (points - mean) ** 2
    std = np.sqrt(var)
    std[std == 0.0] = 1.0
    x_std = (points - mean) / std

    weights = np.zeros(x_std.shape[1])
    bias = 0.0
    for _ in range(epochs):
        z = np.clip(x_std @ weights + bias, -35.0, 35.0)
        prob = 1.0 / (1.0 + np.exp(-z))
        error = prob - y_train
        grad_w = x_std.T @ (frac * error) + L2_STRENGTH * weights
        grad_b = float(frac @ error)
        weights -= LEARNING_RATE * grad_w
        bias -= LEARNING_RATE * grad_b

    # Fold standardization into raw-scale weights.  The threshold is
    # picked among scores of the stored model, so a pair scores the same
    # here as in filter_candidates.
    model = ClassifierModel(
        weights=tuple(float(w) for w in weights / std),
        bias=float(bias - (weights * mean / std).sum()),
        threshold=0.5,
    )
    tune = heldout_groups
    if not tune or len({label for _, label, _ in tune}) < 2:
        tune = train_groups
    scored = [(model.score(vec), label, count) for vec, label, count in tune]
    best_threshold = 0.5
    best_f1 = -1.0
    for candidate_threshold in sorted({s for s, _, _ in scored}):
        tp = sum(c for s, y, c in scored if y == 1 and s >= candidate_threshold)
        fp = sum(c for s, y, c in scored if y == 0 and s >= candidate_threshold)
        fn = sum(c for s, y, c in scored if y == 1 and s < candidate_threshold)
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        if f1 > best_f1 or (f1 == best_f1 and candidate_threshold < best_threshold):
            best_f1 = f1
            best_threshold = candidate_threshold
    return replace(model, threshold=best_threshold)


def filter_candidates(
    model: ClassifierModel,
    source: Sequence[str],
    candidates: Sequence[ParaphraseCandidate],
    gazetteer: Gazetteer | None = None,
    threshold: float | None = None,
) -> list[tuple[ParaphraseCandidate, float]]:
    """Score candidates and drop those below the threshold.

    The source and its entity spans are prepared once per call and every
    candidate is scored against them.  Returns (candidate, score) pairs
    ordered by descending score, ties by sample seed.
    """
    cut = model.threshold if threshold is None else threshold
    spans = gazetteer.tag(source) if gazetteer is not None else ()
    prepared = _Source(source, spans)
    scored = [
        (cand, model.score(compute_features(source, cand.tokens, spans, prepared)))
        for cand in candidates
    ]
    kept = [(c, s) for c, s in scored if s >= cut]
    kept.sort(key=lambda item: (-item[1], item[0].seed))
    return kept


# --- model file ----------------------------------------------------------------

def save_model(model: ClassifierModel, path: str) -> None:
    lines = [
        f"FEATURE\t{name}\t{format(weight, '.17g')}"
        for name, weight in zip(FEATURE_NAMES, model.weights)
    ]
    lines.append(f"BIAS\t{format(model.bias, '.17g')}")
    lines.append(f"THRESHOLD\t{format(model.threshold, '.17g')}")
    atomic_write(path, "".join(line + "\n" for line in lines))


def load_model(path: str) -> ClassifierModel:
    """Read a model file: one FEATURE line per feature name, one BIAS
    line and one THRESHOLD line, in any order; a missing or repeated line,
    or a FEATURE line that names no feature, is an error."""
    keys = [*(f"FEATURE {name!r}" for name in FEATURE_NAMES), "BIAS", "THRESHOLD"]
    values: dict[str, float] = {}
    seen: dict[str, int] = {}  # line key -> its line number
    for lineno, line in records(path):
        parts = line.split("\t")
        if (parts[0], len(parts)) not in (("FEATURE", 3), ("BIAS", 2), ("THRESHOLD", 2)):
            raise ClassifierError(f"{path}:{lineno}: bad model line")
        if parts[0] == "FEATURE" and parts[1] not in FEATURE_NAMES:
            raise ClassifierError(f"{path}:{lineno}: unknown feature {parts[1]!r}")
        key = parts[0] if len(parts) == 2 else f"{parts[0]} {parts[1]!r}"
        if key in seen:
            raise ClassifierError(f"{path}:{lineno}: {key} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = finite_float(parts[-1])
        except ValueError as exc:
            raise ClassifierError(f"{path}:{lineno}: bad number {parts[-1]!r}") from exc
    for key in keys:
        if key not in values:
            raise ClassifierError(f"{path}: missing {key} line")
    *weights, bias, threshold = (values[key] for key in keys)
    return ClassifierModel(weights=tuple(weights), bias=bias, threshold=threshold)
