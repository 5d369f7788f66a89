"""A fixed load that gauges how fast the host runs the benchmark's code now.

    python3 perfbench/calibrate.py

prints the seconds the load took.  The benchmark runs on a share of a
machine whose speed drifts by a third and more within minutes, which
moves every timing of a run together.  run.py starts this script, as a
process of its own, before the first pass and after each, and divides a
pass's times by the load's mean time at the pass's two ends over run.py's
``REFERENCE_S``: that takes much of the drift out.  The load mixes what
the workloads do: dict and tuple churn, a scan over string triples,
recursive calls and small objects, and a numpy broadcast like k-means'
distance step.  In trials the numpy part alone tracked the paraphrase
workload best and the rest alone ground-kb; the mix came closest on all
three workloads together.  It imports nothing of the program, so no
change to the program can move it.  Changing the load or
``REFERENCE_S`` makes runs before and after the change incomparable.
"""

from __future__ import annotations

import time

import numpy as np


def _churn() -> int:
    counts: dict[int, int] = {}
    rows = []
    for i in range(400_000):
        key = i % 1000
        counts[key] = counts.get(key, 0) + i
        if key == 0:
            rows.append(tuple(counts.values())[:5])
    return len(rows)


def _scan() -> int:
    triples = [(f"e{i % 5000}", f"rel{i % 37}", f"e{(i * 7919) % 5000}") for i in range(80_000)]
    found = 0
    for relation in ("rel3", "rel17", "rel29", "rel1", "rel5", "rel8"):
        for subj, rel, obj in triples:
            if rel == relation and subj < obj:
                found += 1
    return found


def _walk(depth: int, acc: int) -> int:
    if depth == 0:
        return acc + 1
    return _walk(depth - 1, acc) + _walk(depth - 1, acc + depth) % 7


class _Node:
    __slots__ = ("key", "label")

    def __init__(self, key: int, label: str) -> None:
        self.key = key
        self.label = label


def _calls() -> int:
    total = sum(_walk(13, i) for i in range(16))
    nodes = [_Node(i, str(i)) for i in range(80_000)]
    return total + sum(node.key for node in nodes if node.label.endswith("7"))


def _broadcast() -> float:
    points = np.random.default_rng(0).standard_normal((3000, 400))
    centres = points[:8].copy()
    total = 0.0
    for _ in range(3):
        total += float(((points[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2).min())
    return total


def load() -> float:
    return _churn() + _scan() + _calls() + _broadcast()


def main() -> None:
    start = time.perf_counter()
    load()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
