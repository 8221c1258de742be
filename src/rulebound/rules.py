"""Label-rule DSL: parsing, formatting, and crisp evaluation.

A rule file is line oriented; `#` starts a comment and blank lines are
ignored. Each remaining line is one rule:

    A & !B => C | D        implication over label literals
    A & B => FALSE @ 2.5   forbidden conjunction, weight 2.5
    MUTEX(A, B, C)         pairwise-exclusion shorthand

The left side is a conjunction of literals, the right side a disjunction of
literals or the keyword FALSE for an empty one. `!` negates a literal.
`MUTEX(a1, ..., ak)` expands to the k(k-1)/2 rules `ai => !aj` for i < j.
A trailing `@ w` attaches a positive weight (default 1.0); MUTEX rules
inherit it. `MUTEX` and `FALSE` are reserved words and cannot name labels.
Identifiers match [A-Za-z_][A-Za-z0-9_]*. Files are UTF-8 with LF or CRLF.
Rules compile once, in `compile_factors`, and the crisp checks here, the relaxed
penalty and the supervision flags read their factors through one gather,
`factor_values`.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = ("MUTEX", "FALSE")
_BLOCK_SIGNS = np.array((1.0, -1.0, 0.0))  # a factor's sign by its block of [y, 1 - y, 1]


# ---- errors ----


class RuleError(ValueError):
    """A rule, rule set, or rule file failed validation."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class RuleSyntaxError(RuleError):
    pass


class EmptyAntecedentError(RuleSyntaxError):
    pass


class UnknownLabelError(RuleError):
    pass


class DuplicateLiteralError(RuleError):
    pass


class InvalidWeightError(RuleError):
    pass


# ---- types ----


class LabelVocabulary:
    """Ordered unique label names; a label's index is its position in `names`."""

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("vocabulary needs at least one label")
        seen: set[str] = set()
        for name in names:
            if not isinstance(name, str) or not _IDENT_RE.match(name):
                raise ValueError(f"invalid label identifier: {name!r}")
            if name in _RESERVED:
                raise ValueError(f"{name} is a reserved word and cannot name a label")
            if name in seen:
                raise ValueError(f"duplicate label name: {name}")
            seen.add(name)
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelVocabulary) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"LabelVocabulary({list(self.names)!r})"


@dataclass(frozen=True, order=True)
class Literal:
    """One label occurrence, possibly negated."""

    label: int
    negated: bool = False

    def __post_init__(self):
        if self.label < 0:
            raise RuleError(f"label index must be non-negative, got {self.label}")


@dataclass(frozen=True)
class Rule:
    """Conjunctive antecedent implying a disjunctive consequent.

    An empty consequent is the constant FALSE: the antecedent literals must
    not all hold at once. `line` is the rule's 1-based line in its file, or
    None for a rule not parsed from one, and is ignored when comparing rules.
    """

    antecedent: tuple[Literal, ...]
    consequent: tuple[Literal, ...] = ()
    weight: float = 1.0
    line: int | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "antecedent", tuple(self.antecedent))
        object.__setattr__(self, "consequent", tuple(self.consequent))
        object.__setattr__(self, "weight", float(self.weight))
        if not self.antecedent:
            raise EmptyAntecedentError("rule has an empty antecedent")
        for side, lits in (("antecedent", self.antecedent), ("consequent", self.consequent)):
            labels = [lit.label for lit in lits]
            if len(set(labels)) != len(labels):
                raise DuplicateLiteralError(f"a label appears twice in the {side}")
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise InvalidWeightError(f"rule weight must be positive and finite, got {self.weight}")

    @cached_property
    def factors(self) -> tuple[tuple[int, bool], ...]:
        """(label, complemented) per factor of the violation product, antecedent
        then consequent literals in stored order. A factor reads 1 - y[label]
        for a negated antecedent or plain consequent literal, else y[label];
        a crisp vector violates the rule exactly when every factor is 1.
        """
        return tuple((lit.label, lit.negated) for lit in self.antecedent) + tuple(
            (lit.label, not lit.negated) for lit in self.consequent
        )


@dataclass(frozen=True)
class RuleSet:
    """A vocabulary plus rules whose literals index into it.

    The rules are compiled once, by `compile_factors`, into `factor_index`.
    A factor's partial derivative enters the gradient of label
    `factor_labels[r, j]` times `signed_weights[r, j]`, its sign times the
    rule weight. `weights` holds the rule weights in order.
    """

    vocabulary: LabelVocabulary
    rules: tuple[Rule, ...] = ()
    factor_index: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    signed_weights: np.ndarray = field(init=False, repr=False, compare=False)
    factor_labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        index, signs, labels = compile_factors(self.rules, len(self.vocabulary))
        weights = np.array([rule.weight for rule in self.rules], dtype=np.float64)
        object.__setattr__(self, "factor_index", index)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "signed_weights", signs * weights[:, None])
        object.__setattr__(self, "factor_labels", labels)

    def __len__(self) -> int:
        return len(self.rules)


def compile_factors(rules: tuple[Rule, ...], width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rules over `width` labels compiled to (factor index, signs, labels),
    each rules x max factors. Row r of the index holds rule r's factors as
    columns of [y, 1 - y, 1] (see `factor_values`): label + width *
    complemented, padded with the constant column 2 * width. A sign is 1 for
    a y column, -1 for a 1 - y column and 0 for padding, whose label reads 0."""
    top = max((max(rule.factors)[0] for rule in rules), default=0)  # the highest label
    if top >= width:
        raise RuleError(f"rule mentions label index {top} outside {width} labels")
    k = max((len(rule.factors) for rule in rules), default=0)
    pad = [2 * width] * k  # the constant column
    rows = [[label + width * c for label, c in rule.factors] + pad[len(rule.factors) :] for rule in rules]
    index = np.array(rows, dtype=np.intp).reshape(len(rows), k)
    return index, _BLOCK_SIGNS[index // width], index % width


def factor_values(index: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The factors of the rules in a factor index at every row of the (rows x
    width) matrix V, as (factors x rules x rows), in V's dtype: the columns of
    [V, 1 - V, 1] the index names. The crisp checks and the penalty read it."""
    n, width = V.shape
    columns = np.ones((2 * width + 1, n), dtype=V.dtype)  # one row per column
    columns[:width] = V.T
    np.subtract(1, V.T, out=columns[width : 2 * width])
    return columns[index.T]


# ---- lexer ----


_TOKEN_RE = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<arrow>=>)"
    r"|(?P<sym>[!&|(),@])"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    column: int  # 1-based


def _lex(line: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(line):
        match = _TOKEN_RE.match(line, pos)
        if match is None:
            raise RuleSyntaxError(f"unexpected character {line[pos]!r}", line_no, pos + 1)
        kind = match.lastgroup
        if kind != "space":
            tokens.append(_Token(kind, match.group(), match.start() + 1))
        pos = match.end()
    return tokens


# ---- parser ----


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int, resolve):
        self.tokens = tokens
        self.line = line_no
        self.end_column = line_len + 1
        self.resolve = resolve  # (name, line, column) -> label index
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        column = tok.column if tok is not None else self.end_column
        raise RuleSyntaxError(message, self.line, column)

    def is_sym(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "sym" and tok.value == value

    def parse(self) -> list[Rule]:
        first = self.peek()
        second = self.tokens[1] if len(self.tokens) > 1 else None
        if (
            first is not None
            and first.kind == "ident"
            and first.value == "MUTEX"
            and second is not None
            and second.kind == "sym"
            and second.value == "("
        ):
            return self._parse_mutex()
        return [self._parse_clause()]

    def _parse_name(self, context: str) -> tuple[str, _Token]:
        tok = self.peek()
        if tok is None or tok.kind != "ident":
            self.fail(f"expected a label name {context}", tok)
        if tok.value in _RESERVED:
            self.fail(f"{tok.value} is a reserved word and cannot be used as a label", tok)
        return self.take().value, tok

    def _parse_literal(self, used: set[int], side: str) -> Literal:
        negated = False
        tok = self.peek()
        if self.is_sym("!"):
            self.take()
            negated = True
            tok = self.peek()
        name, tok = self._parse_name("after '!'" if negated else f"in the {side}")
        label = self.resolve(name, self.line, tok.column)
        if label in used:
            raise DuplicateLiteralError(
                f"label {name} appears twice in the {side}", self.line, tok.column
            )
        used.add(label)
        return Literal(label, negated)

    def _parse_weight(self) -> float:
        self.take()  # '@'
        tok = self.peek()
        if tok is None or tok.kind != "number":
            self.fail("expected a weight after '@'", tok)
        self.take()
        value = float(tok.value)
        if not (value > 0 and math.isfinite(value)):
            raise InvalidWeightError(
                f"rule weight must be positive and finite, got {tok.value}", self.line, tok.column
            )
        return value

    def _finish(self) -> float:
        weight = 1.0
        if self.is_sym("@"):
            weight = self._parse_weight()
        tok = self.peek()
        if tok is not None:
            self.fail("unexpected input after the rule", tok)
        return weight

    def _parse_clause(self) -> Rule:
        tok = self.peek()
        if tok is not None and tok.kind == "arrow":
            raise EmptyAntecedentError("empty antecedent", self.line, tok.column)
        ant_used: set[int] = set()
        antecedent = [self._parse_literal(ant_used, "antecedent")]
        while self.is_sym("&"):
            self.take()
            antecedent.append(self._parse_literal(ant_used, "antecedent"))
        tok = self.peek()
        if tok is None or tok.kind != "arrow":
            self.fail("expected '=>'", tok)
        self.take()
        consequent: list[Literal] = []
        tok = self.peek()
        if tok is not None and tok.kind == "ident" and tok.value == "FALSE":
            self.take()
        else:
            cons_used: set[int] = set()
            consequent.append(self._parse_literal(cons_used, "consequent"))
            while self.is_sym("|"):
                self.take()
                consequent.append(self._parse_literal(cons_used, "consequent"))
        weight = self._finish()
        return Rule(tuple(antecedent), tuple(consequent), weight, self.line)

    def _parse_mutex(self) -> list[Rule]:
        self.take()  # MUTEX
        self.take()  # '('
        labels: list[int] = []
        used: set[int] = set()
        while True:
            name, tok = self._parse_name("inside MUTEX")
            label = self.resolve(name, self.line, tok.column)
            if label in used:
                raise DuplicateLiteralError(
                    f"label {name} listed twice in MUTEX", self.line, tok.column
                )
            used.add(label)
            labels.append(label)
            if self.is_sym(","):
                self.take()
                continue
            break
        tok = self.peek()
        if tok is None or tok.kind != "sym" or tok.value != ")":
            self.fail("expected ',' or ')' in MUTEX", tok)
        self.take()
        if len(labels) < 2:
            self.fail("MUTEX needs at least two labels", tok)
        weight = self._finish()
        return [
            Rule((Literal(a),), (Literal(b, negated=True),), weight, self.line)
            for i, a in enumerate(labels)
            for b in labels[i + 1 :]
        ]


def parse_rules(text: str, vocab: LabelVocabulary | None = None) -> RuleSet:
    """Parse rule-file text into a RuleSet.

    With `vocab` given every identifier must already be in it; otherwise the
    vocabulary is built from identifiers in order of first appearance.
    Structurally duplicate rules are kept but warned about.
    """
    fixed = vocab
    order: dict[str, int] = {}

    def resolve(name: str, line: int, column: int) -> int:
        if fixed is not None:
            idx = fixed.index.get(name)
            if idx is None:
                raise UnknownLabelError(f"unknown label {name!r}", line, column)
            return idx
        return order.setdefault(name, len(order))

    rules: list[Rule] = []
    seen_clauses: dict[tuple, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]  # strip comments, keep columns
        if not body.strip():
            continue
        tokens = _lex(body, line_no)
        parser = _LineParser(tokens, line_no, len(body), resolve)
        for rule in parser.parse():
            key = (tuple(sorted(rule.antecedent)), tuple(sorted(rule.consequent)))
            if key in seen_clauses:
                warnings.warn(
                    f"duplicate rule at line {line_no} "
                    f"(first seen at line {seen_clauses[key]}): {raw.strip()}",
                    stacklevel=2,
                )
            else:
                seen_clauses[key] = line_no
            rules.append(rule)
    if fixed is None:
        if not order:
            raise RuleError("rule text defines no labels and no vocabulary was given")
        vocab = LabelVocabulary(order)
    return RuleSet(vocab, tuple(rules))


# ---- crisp evaluation ----


def hard_satisfied(rule: Rule, y) -> bool:
    """Crisp semantics: satisfied unless all antecedent literals hold and no consequent literal does.
    Kept off the compiled path: it is the independent reference the compiled penalty is
    checked against, one rule and vector per call, where a compile costs more than the check."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"label vector must be 1-D, got shape {arr.shape}")
    values = arr.tolist()
    if not set(values) <= {0, 1}:
        raise ValueError("label vector entries must be 0 or 1")
    top = max(label for label, _ in rule.factors)
    if top >= len(values):
        raise ValueError(f"label vector of length {len(values)} too short for label index {top}")
    # a factor is 0, and the rule satisfied, where the label equals its complement flag
    return any(values[label] == complemented for label, complemented in rule.factors)


def violated_rules(rs: RuleSet, y) -> list[int]:
    """Indices of rules the label vector violates, ascending."""
    arr = np.asarray(y)
    if arr.ndim != 1 or arr.shape[0] != len(rs.vocabulary):
        raise ValueError(
            f"label vector has shape {arr.shape}, expected ({len(rs.vocabulary)},)"
        )
    return np.flatnonzero(violation_matrix(rs, arr[None, :])[0]).tolist()


def violation_matrix(rs: RuleSet, Y) -> np.ndarray:
    """Boolean matrix (samples x rules), True where a sample's labels violate a rule."""
    arr = np.asarray(Y)
    width = len(rs.vocabulary)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"label matrix has shape {arr.shape}, expected (n, {width})")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("label matrix entries must be 0 or 1")
    # a rule is violated where every one of its factors is 1
    return factor_values(rs.factor_index, arr.astype(np.uint8)).all(axis=0).T


# ---- formatting ----


def format_rule(rule: Rule, vocab: LabelVocabulary) -> str:
    """Canonical text form: literals sorted by label index, weight omitted when 1."""

    def fmt(lit: Literal) -> str:
        return ("!" if lit.negated else "") + vocab.names[lit.label]

    ant = " & ".join(fmt(lit) for lit in sorted(rule.antecedent))
    cons = " | ".join(fmt(lit) for lit in sorted(rule.consequent)) if rule.consequent else "FALSE"
    text = f"{ant} => {cons}"
    if rule.weight != 1.0:
        text += f" @ {rule.weight!r}"
    return text


def reindex_ruleset(rs: RuleSet, vocab: LabelVocabulary) -> RuleSet:
    """Remap rule literals onto `vocab` by label name; the name sets must match."""
    if rs.vocabulary == vocab:
        return rs
    if set(rs.vocabulary.names) != set(vocab.names):
        ours = sorted(set(rs.vocabulary.names) ^ set(vocab.names))
        raise RuleError(f"vocabulary mismatch, labels not shared: {', '.join(ours)}")
    mapping = [vocab.index[name] for name in rs.vocabulary.names]

    def remap(lits: tuple[Literal, ...]) -> tuple[Literal, ...]:
        return tuple(Literal(mapping[lit.label], lit.negated) for lit in lits)

    rules = tuple(
        Rule(remap(r.antecedent), remap(r.consequent), r.weight, r.line) for r in rs.rules
    )
    return RuleSet(vocab, rules)
