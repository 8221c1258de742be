"""Parser, crisp semantics, and rule formatting."""

import itertools
import random

import numpy as np
import pytest

from rulebound import (
    DuplicateLiteralError,
    EmptyAntecedentError,
    InvalidWeightError,
    LabelVocabulary,
    Literal,
    Rule,
    RuleError,
    RuleSet,
    RuleSyntaxError,
    UnknownLabelError,
    format_rule,
    parse_rules,
    reindex_ruleset,
    violated_rules,
    violation_matrix,
)

import oracles


# ---- parsing basics ----


def test_parse_single_clause():
    rs = parse_rules("cat => animal")
    assert rs.vocabulary.names == ("cat", "animal")
    assert len(rs.rules) == 1
    rule = rs.rules[0]
    assert rule.antecedent == (Literal(0),)
    assert rule.consequent == (Literal(1),)
    assert rule.weight == 1.0
    assert rule.line == 1


def test_parse_negation_conjunction_disjunction():
    rs = parse_rules("a & !b => c | !d")
    assert rs.vocabulary.names == ("a", "b", "c", "d")
    rule = rs.rules[0]
    assert rule.antecedent == (Literal(0), Literal(1, negated=True))
    assert rule.consequent == (Literal(2), Literal(3, negated=True))


def test_parse_false_consequent():
    rs = parse_rules("a & b => FALSE")
    assert rs.rules[0].consequent == ()


def test_parse_weight():
    rs = parse_rules("a => b @ 2.5\na => b | c @ 1e-3")
    assert rs.rules[0].weight == 2.5
    assert rs.rules[1].weight == 1e-3


def test_comments_blank_lines_crlf():
    text = "# header comment\r\n\r\na => b  # trailing\r\n   \t\r\n!b => FALSE\r\n"
    rs = parse_rules(text)
    assert len(rs.rules) == 2
    assert rs.rules[0].line == 3
    assert rs.rules[1].line == 5


def test_vocab_first_appearance_order():
    rs = parse_rules("z => m\nMUTEX(b, a)\nm & q => z")
    assert rs.vocabulary.names == ("z", "m", "b", "a", "q")


def test_fixed_vocab_keeps_order_and_rejects_unknown():
    vocab = LabelVocabulary(("x", "y", "z"))
    rs = parse_rules("z => x", vocab=vocab)
    assert rs.vocabulary is vocab
    assert rs.rules[0].antecedent == (Literal(2),)
    with pytest.raises(UnknownLabelError, match="unknown label"):
        parse_rules("z => w", vocab=vocab)


# ---- MUTEX expansion ----


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_mutex_expansion_count(k):
    names = [f"l{i}" for i in range(k)]
    rs = parse_rules(f"MUTEX({', '.join(names)}) @ 2")
    assert len(rs.rules) == k * (k - 1) // 2
    for rule in rs.rules:
        assert len(rule.antecedent) == 1 and not rule.antecedent[0].negated
        assert len(rule.consequent) == 1 and rule.consequent[0].negated
        assert rule.weight == 2.0


def test_mutex_pairs_exact():
    rs = parse_rules("MUTEX(a, b, c)")
    pairs = [(r.antecedent[0].label, r.consequent[0].label) for r in rs.rules]
    assert pairs == [(0, 1), (0, 2), (1, 2)]


def test_mutex_semantics_match_pairwise_clauses():
    expanded = parse_rules("MUTEX(a, b, c)")
    manual = parse_rules("a => !b\na => !c\nb => !c")
    for y in itertools.product((0, 1), repeat=3):
        assert violated_rules(expanded, y) == violated_rules(manual, y)


# ---- error reporting ----


def test_empty_antecedent_error():
    with pytest.raises(EmptyAntecedentError):
        parse_rules("=> b")


def test_syntax_error_carries_line_and_column():
    with pytest.raises(RuleSyntaxError) as exc:
        parse_rules("a => b\na & => b")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)
    assert "column" in str(exc.value)


# The tables below give each input's exact error: its class, str(err), err.line and
# err.column. A column one past the line's end, its comment stripped, means the line
# ended early.


def _assert_parse_error(text, cls, message, line, column, vocab=None):
    with pytest.raises(RuleError) as exc:
        parse_rules(text, LabelVocabulary(vocab.split()) if vocab else None)
    err = exc.value
    assert (type(err), str(err), err.line, err.column) == (cls, message, line, column)


_SYNTAX = RuleSyntaxError


@pytest.mark.parametrize(
    "text, vocab, cls, message, line, column",
    [
        ("a =>", None, _SYNTAX, "line 1, column 5: expected a label name in the consequent", 1, 5),
        ("a => b |", None, _SYNTAX, "line 1, column 9: expected a label name in the consequent", 1, 9),
        ("a => b c", None, _SYNTAX, "line 1, column 8: unexpected input after the rule", 1, 8),
        ("a => FALSE | b", None, _SYNTAX, "line 1, column 12: unexpected input after the rule", 1, 12),
        ("a => b @ 1 2", None, _SYNTAX, "line 1, column 12: unexpected input after the rule", 1, 12),
        ("MUTEX(a, b) c", None, _SYNTAX, "line 1, column 13: unexpected input after the rule", 1, 13),
        ("a | b => c", None, _SYNTAX, "line 1, column 3: expected '=>'", 1, 3),
        ("a # no arrow", None, _SYNTAX, "line 1, column 3: expected '=>'", 1, 3),
        ("a & & b => c", None, _SYNTAX, "line 1, column 5: expected a label name in the antecedent", 1, 5),
        ("(a) => b", None, _SYNTAX, "line 1, column 1: expected a label name in the antecedent", 1, 1),
        ("a => !", None, _SYNTAX, "line 1, column 7: expected a label name after '!'", 1, 7),
        ("!=> b", None, _SYNTAX, "line 1, column 2: expected a label name after '!'", 1, 2),
        ("MUTEX(a, )", None, _SYNTAX, "line 1, column 10: expected a label name inside MUTEX", 1, 10),
        ("MUTEX(", None, _SYNTAX, "line 1, column 7: expected a label name inside MUTEX", 1, 7),
        ("MUTEX(a b)", None, _SYNTAX, "line 1, column 9: expected ',' or ')' in MUTEX", 1, 9),
        ("MUTEX(a, b", None, _SYNTAX, "line 1, column 11: expected ',' or ')' in MUTEX", 1, 11),
        ("MUTEX(a)", None, _SYNTAX, "line 1, column 8: MUTEX needs at least two labels", 1, 8),
        ("MUTEX a, b", None, _SYNTAX,
         "line 1, column 1: MUTEX is a reserved word and cannot be used as a label", 1, 1),
        ("a => b @", None, _SYNTAX, "line 1, column 9: expected a weight after '@'", 1, 9),
        ("a => b @ # w", None, _SYNTAX, "line 1, column 10: expected a weight after '@'", 1, 10),
        ("a => b @ fast", None, _SYNTAX, "line 1, column 10: expected a weight after '@'", 1, 10),
        ("a $ => b", None, _SYNTAX, "line 1, column 3: unexpected character '$'", 1, 3),
        ("=> b", None, EmptyAntecedentError, "line 1, column 1: empty antecedent", 1, 1),
        ("a => b\na & => b", None, _SYNTAX,
         "line 2, column 5: expected a label name in the antecedent", 2, 5),
        ("a => b\r\n\r\n  c => d @ x", None, _SYNTAX,
         "line 3, column 12: expected a weight after '@'", 3, 12),
        ("# c\n=> b", None, EmptyAntecedentError, "line 2, column 1: empty antecedent", 2, 1),
        ("a => b\nb ; c", None, _SYNTAX, "line 2, column 3: unexpected character ';'", 2, 3),
        ("a => w", "a b c", UnknownLabelError, "line 1, column 6: unknown label 'w'", 1, 6),
        ("w => a", "a b c", UnknownLabelError, "line 1, column 1: unknown label 'w'", 1, 1),
        ("a & !w => b", "a b c", UnknownLabelError, "line 1, column 6: unknown label 'w'", 1, 6),
        ("MUTEX(a, w)", "a b c", UnknownLabelError, "line 1, column 10: unknown label 'w'", 1, 10),
        ("a => b\nc => w @ 0", "a b c", UnknownLabelError, "line 2, column 6: unknown label 'w'", 2, 6),
        ("a & => w", "a b c", _SYNTAX, "line 1, column 5: expected a label name in the antecedent", 1, 5),
    ],
)
def test_malformed_lines_raise_syntax_errors(text, vocab, cls, message, line, column):
    _assert_parse_error(text, cls, message, line, column, vocab)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("FALSE => a", "line 1, column 1: FALSE is a reserved word and cannot be used as a label", 1, 1),
        ("a => b | MUTEX", "line 1, column 10: MUTEX is a reserved word and cannot be used as a label", 1, 10),
        ("MUTEX(a, FALSE)", "line 1, column 10: FALSE is a reserved word and cannot be used as a label", 1, 10),
        ("a & !MUTEX => b", "line 1, column 6: MUTEX is a reserved word and cannot be used as a label", 1, 6),
        ("a => !FALSE", "line 1, column 7: FALSE is a reserved word and cannot be used as a label", 1, 7),
        ("MUTEX", "line 1, column 1: MUTEX is a reserved word and cannot be used as a label", 1, 1),
        ("a => b\nMUTEX => a", "line 2, column 1: MUTEX is a reserved word and cannot be used as a label", 2, 1),
    ],
)
def test_reserved_words_rejected_as_labels(text, message, line, column):
    _assert_parse_error(text, RuleSyntaxError, message, line, column)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("a & a => b", "line 1, column 5: label a appears twice in the antecedent", 1, 5),
        ("a & !a => b", "line 1, column 6: label a appears twice in the antecedent", 1, 6),
        ("a => b | !b", "line 1, column 11: label b appears twice in the consequent", 1, 11),
        ("MUTEX(a, b, a)", "line 1, column 13: label a listed twice in MUTEX", 1, 13),
        ("a => b\nMUTEX(c,c)", "line 2, column 9: label c listed twice in MUTEX", 2, 9),
    ],
)
def test_duplicate_literal_same_side(text, message, line, column):
    _assert_parse_error(text, DuplicateLiteralError, message, line, column)


def test_repeat_across_sides_is_fine():
    rs = parse_rules("a & b => a")
    assert len(rs.rules) == 1


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("a => b @ 0", "line 1, column 10: rule weight must be positive and finite, got 0", 1, 10),
        ("a => b @ -2", "line 1, column 10: rule weight must be positive and finite, got -2", 1, 10),
        ("a => b @ -0.0", "line 1, column 10: rule weight must be positive and finite, got -0.0", 1, 10),
        ("a => b @ +0", "line 1, column 10: rule weight must be positive and finite, got +0", 1, 10),
        ("a => b @ 1e999", "line 1, column 10: rule weight must be positive and finite, got 1e999", 1, 10),
        ("a => b @ 0 x", "line 1, column 10: rule weight must be positive and finite, got 0", 1, 10),
        ("a => b\nMUTEX(a, b) @ -1", "line 2, column 15: rule weight must be positive and finite, got -1", 2, 15),
    ],
)
def test_nonpositive_weight_rejected(text, message, line, column):
    _assert_parse_error(text, InvalidWeightError, message, line, column)


def test_empty_text_without_vocab_rejected():
    with pytest.raises(RuleError, match="no labels"):
        parse_rules("# only a comment\n\n")
    vocab = LabelVocabulary(("a",))
    assert parse_rules("", vocab=vocab).rules == ()


def test_duplicate_clause_warns():
    with pytest.warns(UserWarning, match="duplicate"):
        parse_rules("a & b => c\nb & a => c")
    with pytest.warns(UserWarning, match="duplicate"):
        parse_rules("MUTEX(a, b)\na => !b")


# ---- construction guards ----


def test_rule_constructor_validation():
    with pytest.raises(ValueError):
        Rule((), (Literal(0),))
    with pytest.raises(ValueError):
        Rule((Literal(0), Literal(0)), ())
    with pytest.raises(InvalidWeightError):
        Rule((Literal(0),), (), weight=0.0)
    with pytest.raises(InvalidWeightError):
        Rule((Literal(0),), (), weight=float("nan"))


def test_literal_rejects_negative_label_index():
    # a negative index would read the label vector from its end
    with pytest.raises(RuleError, match="label index must be non-negative, got -1"):
        Literal(-1)
    assert Literal(0).label == 0


def test_vocabulary_validation():
    with pytest.raises(ValueError):
        LabelVocabulary(())
    with pytest.raises(ValueError):
        LabelVocabulary(("a", "a"))
    with pytest.raises(ValueError):
        LabelVocabulary(("9lives",))
    with pytest.raises(ValueError):
        LabelVocabulary(("FALSE",))


def test_ruleset_rejects_out_of_range_labels():
    vocab = LabelVocabulary(("a", "b"))
    with pytest.raises(ValueError):
        RuleSet(vocab, (Rule((Literal(5),), ()),))


# ---- crisp evaluation ----


def test_violation_matrix_hand_cases():
    rs = parse_rules("a => b")
    assert violation_matrix(rs, [(1, 1), (1, 0), (0, 0), (0, 1)]).tolist() == [
        [False],
        [True],
        [False],
        [False],
    ]

    forbid = parse_rules("a & b => FALSE")
    assert violation_matrix(forbid, [(1, 1), (1, 0)]).tolist() == [[True], [False]]


def test_violated_rules_hand_case():
    rs = parse_rules("a => b\nMUTEX(a, c)")
    assert violated_rules(rs, (1, 1, 1)) == [1]
    assert violated_rules(rs, (1, 0, 0)) == [0]
    assert violated_rules(rs, (1, 0, 1)) == [0, 1]
    assert violated_rules(rs, (0, 0, 0)) == []


def test_violated_rules_validation():
    rs = parse_rules("a => b")
    with pytest.raises(ValueError):
        violated_rules(rs, (1,))
    with pytest.raises(ValueError):
        violated_rules(rs, (1, 2))


def test_violation_matrix_matches_per_row_calls():
    rng = random.Random(7)
    vocab = LabelVocabulary(tuple(f"l{i}" for i in range(5)))
    rs = oracles.random_ruleset(rng, vocab, 6)
    Y = np.array([[rng.randint(0, 1) for _ in range(5)] for _ in range(40)])
    V = violation_matrix(rs, Y)
    assert V.shape == (40, 6)
    for i in range(40):
        assert list(np.nonzero(V[i])[0]) == violated_rules(rs, Y[i])


# ---- formatting and round trips ----


def test_format_rule_examples():
    vocab = LabelVocabulary(("a", "b", "c"))
    rs = parse_rules("b & a => !c\na & b => FALSE\na => c @ 2.5", vocab=vocab)
    assert format_rule(rs.rules[0], vocab) == "a & b => !c"
    assert format_rule(rs.rules[1], vocab) == "a & b => FALSE"
    assert format_rule(rs.rules[2], vocab) == "a => c @ 2.5"


def test_format_parse_round_trip_small():
    texts = ["a => b", "a & !b => c | d", "a => FALSE", "a => !b @ 0.25"]
    for text in texts:
        rs = parse_rules(text)
        printed = format_rule(rs.rules[0], rs.vocabulary)
        again = parse_rules(printed, vocab=rs.vocabulary)
        assert again.rules[0] == rs.rules[0], text


def test_reindex_ruleset_by_name():
    rs = parse_rules("a => b\nb => !c")
    target = LabelVocabulary(("c", "b", "a"))
    moved = reindex_ruleset(rs, target)
    assert moved.vocabulary is target
    for y in itertools.product((0, 1), repeat=3):
        # y has order (a, b, c); feed the permuted view to the reindexed set
        permuted = (y[2], y[1], y[0])
        assert violated_rules(rs, y) == violated_rules(moved, permuted)


def test_reindex_ruleset_mismatch():
    rs = parse_rules("a => b")
    with pytest.raises(RuleError, match="vocabulary mismatch"):
        reindex_ruleset(rs, LabelVocabulary(("a", "c")))
