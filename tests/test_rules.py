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
    hard_satisfied,
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


@pytest.mark.parametrize(
    "text",
    [
        "a =>",
        "a => b c",
        "a | b => c",
        "a & & b => c",
        "MUTEX(a)",
        "MUTEX a, b",
        "a => b @",
        "a => b @ fast",
        "a $ => b",
        "(a) => b",
    ],
)
def test_malformed_lines_raise_syntax_errors(text):
    with pytest.raises(RuleSyntaxError):
        parse_rules(text)


@pytest.mark.parametrize("text", ["FALSE => a", "a => b | MUTEX", "MUTEX(a, FALSE)"])
def test_reserved_words_rejected_as_labels(text):
    with pytest.raises(RuleSyntaxError, match="reserved"):
        parse_rules(text)


@pytest.mark.parametrize(
    "text",
    ["a & a => b", "a & !a => b", "a => b | !b", "MUTEX(a, b, a)"],
)
def test_duplicate_literal_same_side(text):
    with pytest.raises(DuplicateLiteralError):
        parse_rules(text)


def test_repeat_across_sides_is_fine():
    rs = parse_rules("a & b => a")
    assert len(rs.rules) == 1


@pytest.mark.parametrize("text", ["a => b @ 0", "a => b @ -2", "a => b @ -0.0"])
def test_nonpositive_weight_rejected(text):
    with pytest.raises(InvalidWeightError):
        parse_rules(text)


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
    with pytest.raises(RuleError):
        hard_satisfied(Rule((Literal(-1),)), (0, 1))
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


def test_hard_satisfied_hand_cases():
    rs = parse_rules("a => b")
    rule = rs.rules[0]
    assert hard_satisfied(rule, (1, 1)) is True
    assert hard_satisfied(rule, (1, 0)) is False
    assert hard_satisfied(rule, (0, 0)) is True
    assert hard_satisfied(rule, (0, 1)) is True

    forbid = parse_rules("a & b => FALSE").rules[0]
    assert hard_satisfied(forbid, (1, 1)) is False
    assert hard_satisfied(forbid, (1, 0)) is True


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


def test_crisp_semantics_match_truth_table_oracle():
    rng = random.Random(90210)
    n_labels = 4
    for _ in range(300):
        rule = oracles.random_rule(rng, n_labels)
        for y in itertools.product((0, 1), repeat=n_labels):
            assert hard_satisfied(rule, y) == oracles.crisp_satisfied(rule, y), (rule, y)


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
