"""Every evaluator of the compiled factor index against references written from the definitions."""

import random

import numpy as np

from rulebound import (
    LabelVocabulary,
    Literal,
    Rule,
    RuleSet,
    domain_loss,
    domain_loss_grad,
    flag_inconsistent,
    violation_matrix,
)

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


def test_violation_matrix_matches_crisp_oracle():
    npr = np.random.default_rng(11)
    for rs in _rulesets():
        Y = npr.integers(0, 2, size=(N_ROWS, N_LABELS))
        expected = [[not oracles.crisp_satisfied(rule, y) for rule in rs.rules] for y in Y]
        assert violation_matrix(rs, Y).tolist() == expected


def test_flag_inconsistent_matches_definition():
    npr = np.random.default_rng(12)
    for rs in _rulesets():
        Y = npr.integers(0, 2, size=(N_ROWS, N_LABELS))
        expected = np.zeros(Y.shape, dtype=np.uint8)
        for i, y in enumerate(Y):
            for rule in rs.rules:
                if not oracles.crisp_satisfied(rule, y):
                    for lit in rule.antecedent + rule.consequent:
                        expected[i, lit.label] = 1
        assert np.array_equal(flag_inconsistent(rs, Y), expected)


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
