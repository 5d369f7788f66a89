"""The latent-state grammar: rule tables, validation and file round-trip.

A grammar has root, binary and lexical parameter tables.  Binary rules
rewrite an interminal into two nonterminals; lexical rules rewrite a
preterminal into a word.  The symbol sets are read off the tables: an
interminal is a symbol with binary rules and a preterminal one with
lexical rules, so they cannot disagree with them.  Every nonterminal
occurrence carries a :class:`StateLabel` with a syntactic state and, in
two-layer grammars, a semantic state.

Probabilities are kept in linear space as the canonical values (the file
format stores them as decimal text that round-trips float64 exactly);
compute paths take logs on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from .data_files import atomic_write
from .errors import MalformedGrammarFile

SUM_TOLERANCE = 1e-9


class StateLabel(NamedTuple):
    syn: int
    sem: int | None = None


class LayerConfig(NamedTuple):
    m1: int
    m2: int | None = None

    @property
    def two_layer(self) -> bool:
        return self.m2 is not None


# (b, state_b, c, state_c) right-hand side of a binary rule
BinaryRhs = tuple[str, StateLabel, str, StateLabel]
Context = tuple[str, StateLabel]


def state_key(state: StateLabel) -> tuple[int, int]:
    """Sort key that tolerates a missing semantic layer."""
    return (state.syn, -1 if state.sem is None else state.sem)


def ctx_key(ctx: Context) -> tuple:
    """Canonical sort key of a (symbol, state) context."""
    return (ctx[0], state_key(ctx[1]))


def rhs_key(rhs: BinaryRhs) -> tuple:
    """Canonical sort key of a binary right-hand side."""
    return (rhs[0], state_key(rhs[1]), rhs[2], state_key(rhs[3]))


def format_state(state: StateLabel) -> str:
    if state.sem is None:
        return str(state.syn)
    return f"{state.syn}:{state.sem}"


def parse_state(text: str, layers: LayerConfig) -> StateLabel:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            if layers.two_layer:
                raise MalformedGrammarFile(f"state {text!r} missing semantic layer")
            return StateLabel(int(parts[0]))
        if len(parts) == 2:
            if not layers.two_layer:
                raise MalformedGrammarFile(f"state {text!r} has unexpected layer")
            return StateLabel(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise MalformedGrammarFile(f"bad state {text!r}") from exc
    raise MalformedGrammarFile(f"bad state {text!r}")


@dataclass(frozen=True)
class LatentGrammar:
    """Root, binary and lexical tables over (symbol, state) contexts.

    The symbol sets are derived from the tables and cached on the
    instance; they are not fields, so equality ignores them.
    """

    layers: LayerConfig
    roots: Mapping[Context, float]
    binary: Mapping[Context, Mapping[BinaryRhs, float]]
    lexical: Mapping[Context, Mapping[str, float]]

    @cached_property
    def interminals(self) -> frozenset[str]:
        """The symbols with binary rules."""
        return frozenset(sym for sym, _ in self.binary)

    @cached_property
    def preterminals(self) -> frozenset[str]:
        """The symbols with lexical rules."""
        return frozenset(sym for sym, _ in self.lexical)

    @property
    def nonterminals(self) -> frozenset[str]:
        return self.interminals | self.preterminals

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(w for table in self.lexical.values() for w in table)

    def rule_count(self) -> int:
        n = len(self.roots)
        n += sum(len(t) for t in self.binary.values())
        n += sum(len(t) for t in self.lexical.values())
        return n


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(grammar: LatentGrammar) -> ValidationReport:
    """Check normalization, symbol usage and support completeness.

    The report lists every violation; an empty list means the grammar is
    safe for parsing and sampling (no reachable context lacks a
    distribution).  What the loader and the MLE already refuse is not
    checked again: a symbol of both kinds, a probability outside (0, 1],
    a grammar without roots.
    """
    bad: list[str] = []
    notes: list[str] = []
    layers = grammar.layers
    if layers.two_layer:
        notes.append(
            f"layer config: {layers.m1} syntactic x {layers.m2} semantic = "
            f"{layers.m1 * layers.m2:,} latent states"
        )
    else:
        notes.append(f"layer config: {layers.m1} latent states")

    def check_state(sym: str, state: StateLabel, where: str) -> None:
        if not 0 <= state.syn < layers.m1:
            bad.append(f"{where}: ({sym},{format_state(state)}) syntactic state out of range")
        if layers.two_layer and not 0 <= state.sem < layers.m2:
            bad.append(f"{where}: ({sym},{format_state(state)}) semantic state out of range")

    total = math.fsum(grammar.roots.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        bad.append(f"root distribution sums to {total!r}")
    for sym, state in grammar.roots:
        check_state(sym, state, "root")
        if sym not in grammar.nonterminals:
            bad.append(f"root symbol {sym!r} has no rules")

    for (sym, state), table in grammar.binary.items():
        check_state(sym, state, "binary")
        total = math.fsum(table.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            bad.append(f"binary ({sym},{format_state(state)}) sums to {total!r}")
        for b, sb, c, sc in table:
            check_state(b, sb, f"binary rhs of ({sym},{format_state(state)})")
            check_state(c, sc, f"binary rhs of ({sym},{format_state(state)})")
            if b not in grammar.nonterminals or c not in grammar.nonterminals:
                bad.append(f"binary rule ({sym},{format_state(state)}) -> {b} {c} uses unknown symbols")

    for (sym, state), table in grammar.lexical.items():
        check_state(sym, state, "lexical")
        total = math.fsum(table.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            bad.append(f"lexical ({sym},{format_state(state)}) sums to {total!r}")

    # Deficit check: every context referenced as a root or as a binary child
    # must have an expansion table of the right kind.
    referenced: set[Context] = set(grammar.roots)
    for table in grammar.binary.values():
        for b, sb, c, sc in table:
            referenced.add((b, sb))
            referenced.add((c, sc))
    for sym, state in sorted(referenced, key=ctx_key):
        if sym in grammar.interminals and (sym, state) not in grammar.binary:
            bad.append(f"deficit: interminal context ({sym},{format_state(state)}) has no binary rules")
        elif sym in grammar.preterminals and (sym, state) not in grammar.lexical:
            bad.append(f"deficit: preterminal context ({sym},{format_state(state)}) has no lexical rules")

    return ValidationReport(violations=tuple(bad), notes=tuple(notes))


# --- serialization ----------------------------------------------------------

def _fmt(prob: float) -> str:
    return format(prob, ".17g")


def save_grammar(grammar: LatentGrammar, path: str) -> None:
    """Write the grammar in canonical order (stable byte-for-byte)."""
    atomic_write(path, serialize_grammar(grammar))


def serialize_grammar(grammar: LatentGrammar) -> str:
    layers = grammar.layers
    lines = [
        f"LPCFG v1 layers={2 if layers.two_layer else 1} "
        f"m1={layers.m1} m2={layers.m2 or 0} "
        f"binarization=right-branching-@ vocab={len(grammar.vocabulary)}"
    ]
    for ctx in sorted(grammar.roots, key=ctx_key):
        sym, state = ctx
        lines.append(f"ROOT\t{sym}\t{format_state(state)}\t{_fmt(grammar.roots[ctx])}")
    for ctx in sorted(grammar.binary, key=ctx_key):
        sym, state = ctx
        table = grammar.binary[ctx]
        for rhs in sorted(table, key=rhs_key):
            b, sb, c, sc = rhs
            lines.append(
                f"BIN\t{sym}\t{format_state(state)}\t{b}\t{format_state(sb)}"
                f"\t{c}\t{format_state(sc)}\t{_fmt(table[rhs])}"
            )
    for ctx in sorted(grammar.lexical, key=ctx_key):
        sym, state = ctx
        for word, prob in sorted(grammar.lexical[ctx].items()):
            lines.append(
                f"LEX\t{sym}\t{format_state(state)}\t{word}\t{_fmt(prob)}"
            )
    return "\n".join(lines) + "\n"


def load_grammar(path: str) -> LatentGrammar:
    """Load a grammar file; raises MalformedGrammarFile on any defect."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise MalformedGrammarFile(f"cannot read {path}: {exc}") from exc
    return deserialize_grammar(text, source=path)


def deserialize_grammar(text: str, source: str = "<string>") -> LatentGrammar:
    if not text:
        raise MalformedGrammarFile(f"{source}: empty file")
    # Physical lines, as ``data_files.records`` numbers them: ``splitlines``
    # would also split at \x0c, \x85, \u2028 and the like.
    lines = text.split("\n")
    header = lines[0].split()
    if header[:2] != ["LPCFG", "v1"]:
        raise MalformedGrammarFile(f"{source}:1: bad header {lines[0]!r}")
    fields = dict(
        item.split("=", 1) for item in header[2:] if "=" in item
    )
    try:
        n_layers = int(fields["layers"])
        m1 = int(fields["m1"])
        m2 = int(fields["m2"])
    except (KeyError, ValueError) as exc:
        raise MalformedGrammarFile(f"{source}:1: bad header {lines[0]!r}") from exc
    if n_layers not in (1, 2) or (n_layers == 2) != (m2 > 0):
        raise MalformedGrammarFile(f"{source}:1: inconsistent layer header")
    layers = LayerConfig(m1, m2 if n_layers == 2 else None)

    roots: dict[Context, float] = {}
    binary: dict[Context, dict[BinaryRhs, float]] = {}
    lexical: dict[Context, dict[str, float]] = {}

    def state_of(token: str, lineno: int) -> StateLabel:
        try:
            return parse_state(token, layers)
        except MalformedGrammarFile as exc:
            raise MalformedGrammarFile(f"{source}:{lineno}: {exc}") from exc

    def prob_of(token: str, lineno: int) -> float:
        try:
            prob = float(token)
        except ValueError as exc:
            raise MalformedGrammarFile(f"{source}:{lineno}: bad probability {token!r}") from exc
        if not 0.0 < prob <= 1.0:
            raise MalformedGrammarFile(f"{source}:{lineno}: probability {token!r} out of (0,1]")
        return prob

    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split("\t")
        kind = parts[0]
        if kind == "ROOT" and len(parts) == 4:
            ctx = (parts[1], state_of(parts[2], lineno))
            if ctx in roots:
                raise MalformedGrammarFile(f"{source}:{lineno}: duplicate root entry")
            roots[ctx] = prob_of(parts[3], lineno)
        elif kind == "BIN" and len(parts) == 8:
            ctx = (parts[1], state_of(parts[2], lineno))
            rhs = (
                parts[3], state_of(parts[4], lineno),
                parts[5], state_of(parts[6], lineno),
            )
            table = binary.setdefault(ctx, {})
            if rhs in table:
                raise MalformedGrammarFile(f"{source}:{lineno}: duplicate binary rule")
            table[rhs] = prob_of(parts[7], lineno)
        elif kind == "LEX" and len(parts) == 5:
            ctx = (parts[1], state_of(parts[2], lineno))
            table = lexical.setdefault(ctx, {})
            if parts[3] in table:
                raise MalformedGrammarFile(f"{source}:{lineno}: duplicate lexical rule")
            table[parts[3]] = prob_of(parts[4], lineno)
        else:
            raise MalformedGrammarFile(f"{source}:{lineno}: unparseable line {line!r}")

    if not roots:
        raise MalformedGrammarFile(f"{source}: header requires at least one ROOT entry")
    grammar = LatentGrammar(layers=layers, roots=roots, binary=binary, lexical=lexical)
    both = grammar.interminals & grammar.preterminals
    if both:
        raise MalformedGrammarFile(
            f"{source}: symbols used as both binary and lexical parents: {sorted(both)}"
        )
    return grammar
