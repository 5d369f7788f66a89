"""Seeded input generators for the benchmark workloads.

Both generators are pure functions of their seed: the same seed gives the
same bytes.  They write only into the directory they are given.

- ``write_synthetic_treebank`` builds a question treebank plus paraphrase
  alignments from the template families of ``scripts/gen_data.py``
  (imported, not copied).  Every cluster instantiates a family with a
  fresh variant of one of its fillers, so the number of distinct feature
  vectors grows with the corpus instead of repeating the bundled ones.
- ``write_distractor_kb`` appends seeded distractor triples to the bundled
  KB.  They reuse existing relation names, add no TYPE lines, and connect
  only fresh entities whose CamelCase surfaces match no question mention,
  so every grounding, denotation and trained weight stays as it was.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

SYNTH_TREES = 1000
SYNTH_DISTINCT = 600
DISTRACTOR_TRIPLES = 20000
DISTRACTOR_ENTITIES = 5000

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# First surface token of every distractor entity; no question mention
# starts with it, so no distractor can become an entity candidate.
_DISTRACTOR_HEAD = "Qz"


def load_gen_data(root: Path):
    """Import ``scripts/gen_data.py`` of the checkout as a module."""
    path = root / "scripts" / "gen_data.py"
    spec = importlib.util.spec_from_file_location("paralat_gen_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _syllables(rng: random.Random, count: int) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(count))


def _variant(filler, rng: random.Random):
    """A fresh filler of the same shape: one-word fillers are strings,
    multi-word fillers tuples whose last word changes."""
    if isinstance(filler, tuple):
        return filler[:-1] + (filler[-1] + _syllables(rng, 2),)
    return filler + _syllables(rng, 2)


def write_synthetic_treebank(
    root: Path, seed: int, out_dir: Path, size: int = SYNTH_TREES,
    distinct: int = SYNTH_DISTINCT,
) -> tuple[Path, Path]:
    """Write ``synth.trees`` and ``synth_alignments.tsv``; return their paths.

    ``distinct`` different trees come from paraphrase clusters (one family,
    a fresh variant of one of its fillers, every template of the family);
    the remaining ``size - distinct`` trees repeat seeded picks of them, and
    the order is shuffled.  Fixing the distinct count keeps the clustering
    work, which grows with it, the same for every seed.  Alignments pair
    the exact token matches of each pair of trees in one cluster, as the
    bundled alignments do.
    """
    from paralat.treebank import parse_tree, tree_yield

    gen = load_gen_data(root)
    rng = random.Random(seed)
    families = sorted(gen.FAMILIES)
    unique: list[tuple[int, str, list[str]]] = []  # (cluster, raw, tokens)
    seen: set[str] = set()
    cluster = 0
    while len(unique) < distinct:
        fillers, templates = gen.FAMILIES[rng.choice(families)]
        filler = _variant(rng.choice(fillers), rng)
        for template in templates[: distinct - len(unique)]:
            raw = template(filler)
            if raw not in seen:
                seen.add(raw)
                unique.append((cluster, raw, list(tree_yield(parse_tree(raw)))))
        cluster += 1
    corpus = unique + [unique[i] for i in rng.choices(range(distinct), k=size - distinct)]
    rng.shuffle(corpus)

    members: dict[int, list[int]] = {}
    for tid, (cid, _raw, _tokens) in enumerate(corpus):
        members.setdefault(cid, []).append(tid)
    records = []
    for cid in sorted(members):
        tids = members[cid]
        for a, tid_a in enumerate(tids):
            for tid_b in tids[a + 1:]:
                toks_a, toks_b = corpus[tid_a][2], corpus[tid_b][2]
                pairs = [
                    f"{i}-{j}"
                    for i, ta in enumerate(toks_a)
                    for j, tb in enumerate(toks_b)
                    if ta == tb
                ]
                if pairs:
                    records.append(f"{tid_a}\t{tid_b}\t{','.join(pairs)}")

    treebank = out_dir / "synth.trees"
    alignments = out_dir / "synth_alignments.tsv"
    treebank.write_text(
        f"# synthetic question treebank, seed {seed}\n"
        + "\n".join(raw for _cid, raw, _tokens in corpus) + "\n",
        encoding="utf-8",
    )
    alignments.write_text("\n".join(records) + "\n", encoding="utf-8")
    return treebank, alignments


def _mention_heads(graphs_dir: Path) -> set[str]:
    heads = set()
    for path in sorted(graphs_dir.glob("*.graph")):
        for line in path.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) >= 3 and parts[0] == "ENTITY":
                heads.add(parts[2].lower())
    return heads


def write_distractor_kb(
    kb_path: Path,
    graphs_dir: Path,
    seed: int,
    out_dir: Path,
    triples: int = DISTRACTOR_TRIPLES,
    entities: int = DISTRACTOR_ENTITIES,
) -> Path:
    """Write ``kb_distractors.tsv``: the bundled KB, then the distractors."""
    if _DISTRACTOR_HEAD.lower() in _mention_heads(graphs_dir):
        raise ValueError(f"a question mention starts with {_DISTRACTOR_HEAD!r}")
    bundled = kb_path.read_text(encoding="utf-8")
    relations = sorted(
        {
            parts[1]
            for parts in (line.split("\t") for line in bundled.splitlines())
            if len(parts) == 3 and parts[0] != "TYPE" and not parts[0].startswith("#")
        }
    )
    rng = random.Random(seed)
    names: list[str] = []
    seen_names: set[str] = set()
    while len(names) < entities:
        name = _DISTRACTOR_HEAD + _syllables(rng, 2).capitalize() + _syllables(rng, 2).capitalize()
        if name not in seen_names:
            seen_names.add(name)
            names.append(name)
    lines: list[str] = []
    seen: set[tuple[str, str, str]] = set()
    while len(lines) < triples:
        subj, obj = rng.sample(names, 2)
        triple = (subj, rng.choice(relations), obj)
        if triple not in seen:
            seen.add(triple)
            lines.append("\t".join(triple))
    out = out_dir / "kb_distractors.tsv"
    out.write_text(bundled.rstrip("\n") + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return out
