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


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered unique label names; a label's index is its position in `names`."""

    names: tuple[str, ...]
    index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        names = tuple(self.names)
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
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "index", {name: i for i, name in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)


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


def compile_factors(rules: tuple[Rule, ...], width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rules over `width` labels compiled to (factor index, signs, labels),
    each rules x max factors. Row r of the index holds rule r's factors, its
    antecedent then its consequent literals in stored order, as columns of
    [y, 1 - y, 1] (see `factor_values`), padded with the constant column
    2 * width. A negated antecedent literal or a plain consequent literal reads
    1 - y, column label + width; any other literal reads y, column label. A
    crisp vector violates a rule exactly when every factor reads 1. A sign is
    1 for a y column, -1 for a 1 - y column and 0 for padding, whose label
    reads 0."""
    top = max((lit.label for rule in rules for lit in rule.antecedent + rule.consequent), default=0)
    if top >= width:
        raise RuleError(f"rule mentions label index {top} outside {width} labels")
    rows = [
        [lit.label + width * lit.negated for lit in rule.antecedent]
        + [lit.label + width * (not lit.negated) for lit in rule.consequent]
        for rule in rules
    ]
    k = max(map(len, rows), default=0)
    pad = [2 * width] * k  # the constant column
    index = np.array([row + pad[len(row) :] for row in rows], dtype=np.intp).reshape(len(rows), k)
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
    """Parses one rule line's tokens. Every error names the column of the token
    it is about, or the column just past the line when the line ended early."""

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

    def at(self, kind: str, value: str | None = None, ahead: int = 0) -> bool:
        """Whether the token `ahead` places on is of `kind` (and `value`, if given)."""
        tok = self.tokens[self.pos + ahead] if self.pos + ahead < len(self.tokens) else None
        return tok is not None and tok.kind == kind and value in (None, tok.value)

    def fail(self, message: str, tok: _Token | None = None, cls: type[RuleError] = RuleSyntaxError):
        """Raise `cls` at `tok`, by default the next token."""
        tok = tok or self.peek()
        raise cls(message, self.line, tok.column if tok is not None else self.end_column)

    def expect(self, kind: str, value: str | None, message: str) -> _Token:
        if not self.at(kind, value):
            self.fail(message)
        return self.take()

    def separated(self, sep: str, item) -> list:
        """One or more `item()` results with the symbol `sep` between them."""
        items = [item()]
        while self.at("sym", sep):
            self.take()
            items.append(item())
        return items

    def parse(self) -> list[Rule]:
        if self.at("ident", "MUTEX") and self.at("sym", "(", ahead=1):
            return self._mutex()
        return [self._clause()]

    def _label(self, context: str, used: set[int], duplicate_message: str) -> int:
        """A label name's index; `used` holds those read before it in the same list."""
        tok = self.expect("ident", None, f"expected a label name {context}")
        if tok.value in _RESERVED:
            self.fail(f"{tok.value} is a reserved word and cannot be used as a label", tok)
        label = self.resolve(tok.value, self.line, tok.column)
        if label in used:
            self.fail(f"label {tok.value} {duplicate_message}", tok, DuplicateLiteralError)
        used.add(label)
        return label

    def _literals(self, sep: str, side: str) -> list[Literal]:
        used: set[int] = set()

        def literal() -> Literal:
            negated = self.at("sym", "!")
            if negated:
                self.take()
            context = "after '!'" if negated else f"in the {side}"
            return Literal(self._label(context, used, f"appears twice in the {side}"), negated)

        return self.separated(sep, literal)

    def _finish(self) -> float:
        """The rule's weight, 1.0 unless `@ w` follows; nothing may come after it."""
        weight = 1.0
        if self.at("sym", "@"):
            self.take()
            tok = self.expect("number", None, "expected a weight after '@'")
            weight = float(tok.value)
            if not (weight > 0 and math.isfinite(weight)):
                message = f"rule weight must be positive and finite, got {tok.value}"
                self.fail(message, tok, InvalidWeightError)
        if self.peek() is not None:
            self.fail("unexpected input after the rule")
        return weight

    def _clause(self) -> Rule:
        if self.at("arrow"):
            self.fail("empty antecedent", cls=EmptyAntecedentError)
        antecedent = self._literals("&", "antecedent")
        self.expect("arrow", None, "expected '=>'")
        consequent = []
        if self.at("ident", "FALSE"):
            self.take()
        else:
            consequent = self._literals("|", "consequent")
        return Rule(antecedent, consequent, self._finish(), self.line)

    def _mutex(self) -> list[Rule]:
        self.pos += 2  # MUTEX (
        used: set[int] = set()
        labels = self.separated(",", lambda: self._label("inside MUTEX", used, "listed twice in MUTEX"))
        close = self.expect("sym", ")", "expected ',' or ')' in MUTEX")
        if len(labels) < 2:
            self.fail("MUTEX needs at least two labels", close)
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


def violated_rules(rs: RuleSet, y) -> list[int]:
    """Indices of rules the label vector violates, ascending."""
    arr = np.asarray(y)
    if arr.ndim != 1 or arr.shape[0] != len(rs.vocabulary):
        raise ValueError(
            f"label vector has shape {arr.shape}, expected ({len(rs.vocabulary)},)"
        )
    return np.flatnonzero(violation_matrix(rs, arr[None, :])[0]).tolist()


def _label_matrix(rs: RuleSet, Y) -> np.ndarray:
    """Y as a uint8 (samples x labels) matrix over the rule set's vocabulary,
    after checking its shape and that it holds only 0 and 1."""
    arr = np.asarray(Y)
    width = len(rs.vocabulary)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"label matrix has shape {arr.shape}, expected (n, {width})")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("label matrix entries must be 0 or 1")
    return arr.astype(np.uint8)


def violation_matrix(rs: RuleSet, Y) -> np.ndarray:
    """Boolean matrix (samples x rules), True where a sample's labels violate a rule."""
    # a rule is violated where every one of its factors is 1
    return factor_values(rs.factor_index, _label_matrix(rs, Y)).all(axis=0).T


# Rows `breaking_flips` takes at a time, so its memory stays flat in the row count.
_FLIP_BLOCK_ROWS = 4096


def breaking_flips(rs: RuleSet, Y) -> np.ndarray:
    """Boolean matrix (samples x labels), True where flipping that one label of
    a sample breaks a rule the sample keeps.

    Flipping label j breaks a kept rule exactly when every factor off j is 1
    and every factor on j is 0. A rule's factors read columns of [y, 1 - y, 1];
    take each column once. A rule with both the y and the 1 - y column of one
    label is violated by no vector, so no flip breaks it. In every other rule
    each label has at most one column, so a flip breaks the rule exactly when
    one of its columns reads 0, and it is the flip of that column's label.
    """
    arr = _label_matrix(rs, Y)
    n, width = arr.shape
    columns = []
    for row in rs.factor_index.tolist():
        read = sorted(set(row) - {2 * width})
        if len({c % width for c in read}) == len(read):
            columns.append(read)
    table = np.zeros((n, width), dtype=bool)
    if not columns:
        return table
    k = max(map(len, columns))
    index = np.array([c + [2 * width] * (k - len(c)) for c in columns], dtype=np.intp)
    labels = (index % width).astype(np.min_scalar_type(width))
    for start in range(0, n, _FLIP_BLOCK_ROWS):
        F = factor_values(index, arr[start : start + _FLIP_BLOCK_ROWS])
        # the (rule, row) pairs, flattened, where one factor reads 0; padding reads 1
        hits = np.flatnonzero(F.sum(axis=0, dtype=np.min_scalar_type(k)) == k - 1)
        # at those pairs the sum is the label of the one factor that reads 0; it
        # may wrap at pairs with more zeros, and those are never read
        zero_label = sum((F[p] == 0) * labels[:, p, None] for p in range(k))
        rows = start + hits % F.shape[2]
        table.ravel()[rows * width + zero_label.ravel()[hits]] = True
    return table


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
