"""Every evaluator of the compiled factor index against references written from the definitions."""

import itertools
import random

import numpy as np
import pytest

from rulebound import (
    LabelVocabulary,
    Literal,
    Rule,
    RuleError,
    RuleSet,
    domain_loss,
    domain_loss_grad,
    flag_inconsistent,
    parse_rules,
    violation_matrix,
)
from rulebound.rules import compile_factors, factor_values

import oracles
import rulebound.relax

# more rows than one block of a domain_loss pass, so the block boundary is crossed
N_ROWS = 1300
N_LABELS = 6


def _rulesets():
    rng = random.Random(2024)
    vocab = LabelVocabulary(tuple(f"l{i}" for i in range(N_LABELS)))
    for _ in range(4):
        rs = oracles.random_ruleset(
            rng, vocab, rng.randint(5, 15), weights=(1.0, 0.5, 2.5, 0.3)
        )
        extra = (
            Rule((Literal(0), Literal(1)), (), 2.0),  # l0 & l1 => FALSE
            Rule((Literal(2),), (Literal(3, negated=True),)),  # a MUTEX pair
            Rule((Literal(4, negated=True),), (Literal(4),), 0.7),  # a label on both sides
        )
        yield RuleSet(vocab, rs.rules + extra)


def _crisp_reference(rs, Y):
    """(violations, flags) of a 0/1 matrix from the definitions: a row violates a
    rule the crisp oracle rejects, and flags every label of such a rule."""
    Y = np.asarray(Y).astype(np.int64)
    violations = np.zeros((len(Y), len(rs.rules)), dtype=bool)
    flags = np.zeros(Y.shape, dtype=np.uint8)
    for i, y in enumerate(Y):
        for r, rule in enumerate(rs.rules):
            if not oracles.crisp_satisfied(rule, y):
                violations[i, r] = True
                for lit in rule.antecedent + rule.consequent:
                    flags[i, lit.label] = 1
    return violations, flags


def _assert_matches_reference(rs, Y):
    violations, flags = _crisp_reference(rs, Y)
    got = violation_matrix(rs, Y)
    assert got.dtype == bool and got.shape == (len(Y), len(rs.rules))
    assert np.array_equal(got, violations)
    assert np.array_equal(flag_inconsistent(rs, Y), flags)


def test_violation_matrix_matches_crisp_oracle():
    npr = np.random.default_rng(11)
    for rs in _rulesets():
        Y = npr.integers(0, 2, size=(N_ROWS, N_LABELS))
        got = violation_matrix(rs, Y)
        assert got.dtype == bool and np.array_equal(got, _crisp_reference(rs, Y)[0])


def test_flag_inconsistent_matches_definition():
    npr = np.random.default_rng(12)
    for rs in _rulesets():
        Y = npr.integers(0, 2, size=(N_ROWS, N_LABELS))
        assert np.array_equal(flag_inconsistent(rs, Y), _crisp_reference(rs, Y)[1])


def test_padding_neither_clears_nor_adds_a_mention_of_label_0():
    # `a => b` has two factors and is padded to the three of `a & b => c`; the
    # padding column reads label 0, which is a
    rs = parse_rules("a => b\na & b => c\n")
    assert rs.factor_index.shape == (2, 3)
    assert flag_inconsistent(rs, np.array([[1, 0, 0]])).tolist() == [[1, 1, 0]]
    _assert_matches_reference(rs, np.array(list(itertools.product((0, 1), repeat=3))))
    # a padded rule that does not mention a, violated alone, leaves a unflagged
    rs = parse_rules("b => c\na & b => c\n", LabelVocabulary(("a", "b", "c")))
    assert flag_inconsistent(rs, np.array([[0, 1, 0]])).tolist() == [[0, 1, 1]]
    _assert_matches_reference(rs, np.array(list(itertools.product((0, 1), repeat=3))))


def test_a_label_on_both_sides_of_one_rule():
    vocab = LabelVocabulary(("a", "b"))
    rs = RuleSet(vocab, (
        Rule((Literal(0, negated=True),), (Literal(0),)),  # !a => a, violated where a = 0
        Rule((Literal(1),), (Literal(1, negated=True),)),  # b => !b, violated where b = 1
        Rule((Literal(0), Literal(1)), (Literal(0, negated=True),)),  # a & b => !a
    ))
    Y = np.array(list(itertools.product((0, 1), repeat=2)))
    assert violation_matrix(rs, Y).tolist() == [
        [True, False, False], [True, True, False], [False, False, False], [False, True, True]
    ]
    _assert_matches_reference(rs, Y)


def test_zero_rules_give_no_columns():
    rs = RuleSet(LabelVocabulary(("a", "b", "c")))
    Y = np.array([[1, 0, 1], [0, 0, 0]])
    assert violation_matrix(rs, Y).shape == (2, 0)
    assert flag_inconsistent(rs, Y).tolist() == [[0, 0, 0], [0, 0, 0]]
    _assert_matches_reference(rs, Y)


def test_one_row_and_every_input_dtype():
    rs = next(_rulesets())
    Y = np.random.default_rng(16).integers(0, 2, size=(64, N_LABELS))
    for rows in (Y[:1], Y):
        for dtype in (np.int64, np.uint8, bool, np.float64):
            _assert_matches_reference(rs, rows.astype(dtype))


def test_factor_values_reads_y_its_complement_and_the_constant():
    rs = parse_rules("a & !b => c\nb => FALSE\n")
    Y = np.array([[1, 0, 0], [0, 1, 1]])
    P = np.array([[0.25, 0.5, 0.75], [1.0, 0.0, 0.125]])
    for V in (Y.astype(np.uint8), P):
        factors = factor_values(rs.factor_index, V)
        assert factors.dtype == V.dtype and factors.shape == (3, 2, 2)
        # rule 0 reads a, 1 - b, 1 - c; rule 1 reads b, then padding's constant 1
        expected = [[V[:, 0], V[:, 1]], [1 - V[:, 1], np.ones(2)], [1 - V[:, 2], np.ones(2)]]
        assert np.array_equal(factors, np.array(expected))


def test_compile_factors_index_signs_and_labels():
    vocab = LabelVocabulary(("a", "b", "c"))
    rules = (Rule((Literal(0), Literal(1, negated=True)), (Literal(2),), 2.0), Rule((Literal(1),), (), 0.5))
    index, plan = compile_factors(rules, len(vocab), np.array([2.0, 0.5]))
    # a y column is the label, a 1 - y column the label plus 3, padding the constant column 6
    assert index.tolist() == [[0, 4, 5], [1, 6, 6]]
    # the live plan drops padding: rule 0's three slots, then rule 1's first, at
    # their factor-major positions j * 2 + r, each signed 1 on y and -1 on 1 - y
    assert plan.slots.tolist() == [0, 2, 4, 1] and plan.labels.tolist() == [0, 1, 2, 1]
    assert plan.signed_weights.tolist() == [2.0, -2.0, -2.0, 0.5] and plan.weight_total == 2.5
    rs = RuleSet(vocab, rules)
    assert np.array_equal(rs.factor_index, index)
    assert all(np.array_equal(ours, theirs) for ours, theirs in zip(rs.plan, plan))
    index, plan = compile_factors((), 3, np.ones(0))
    assert index.shape == (0, 0) and plan.slots.size == 0 and plan.weight_total == 0.0
    with pytest.raises(RuleError, match="label index 3 outside 3 labels"):
        compile_factors((Rule((Literal(3),)),), 3, np.ones(1))


def test_domain_loss_bitwise_matches_product_reference():
    npr = np.random.default_rng(13)
    for rs in _rulesets():
        P = npr.random((N_ROWS, N_LABELS))
        P[npr.random(P.shape) < 0.05] = 0.0
        P[npr.random(P.shape) < 0.05] = 1.0
        for n in (1, 31, 512, 513, N_ROWS):
            assert domain_loss(rs, P[:n]) == oracles.product_domain_loss(rs, P[:n]), n


def test_domain_loss_bits_do_not_depend_on_the_block_size(monkeypatch):
    npr = np.random.default_rng(15)
    rs = next(_rulesets())
    P = npr.random((N_ROWS, N_LABELS))
    P[npr.random(P.shape) < 0.05] = 0.0
    expected = oracles.product_domain_loss(rs, P)
    # one row per block, a few rows, and the whole batch in one block
    for entries in (1, 7 * rs.factor_index.size, 2**40):
        monkeypatch.setattr(rulebound.relax, "_BLOCK_ENTRIES", entries)
        assert domain_loss(rs, P) == expected, entries


def test_domain_loss_grad_bitwise_matches_accumulate_reference():
    npr = np.random.default_rng(14)
    for rs in _rulesets():
        P = npr.random((N_ROWS, N_LABELS))
        P[npr.random(P.shape) < 0.05] = 0.0
        P[npr.random(P.shape) < 0.05] = 1.0
        for n in (1, 31, 512, 513, N_ROWS):
            expected = oracles.penalty_grad_reference(rs, P[:n])
            assert domain_loss_grad(rs, P[:n]).tobytes() == expected.tobytes(), n
