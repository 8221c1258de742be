"""Product relaxation of rules: penalty values, gradients, batch loss."""

import itertools
import random

import numpy as np
import pytest

from rulebound import (
    LabelVocabulary,
    Literal,
    Rule,
    RuleSet,
    domain_loss,
    domain_loss_grad,
    parse_rules,
    rule_penalty_batch,
)

import oracles


def _rule(text):
    rs = parse_rules(text)
    return rs.rules[0], rs


# ---- literal values: one-literal rules ----


def test_one_literal_rule_degrees():
    # a => FALSE has degree p_a, and !a => FALSE has degree 1 - p_a
    P = np.array([[0.7, 0.2]])
    assert rule_penalty_batch(Rule((Literal(0),)), P).values[0] == 0.7
    assert rule_penalty_batch(Rule((Literal(0, negated=True),)), P).values[0] == pytest.approx(0.3)
    assert rule_penalty_batch(Rule((Literal(1, negated=True),)), P).values[0] == 0.8


# ---- single-rule penalty: frozen hand values ----


def test_penalty_implication_at_vertex():
    rule, _ = _rule("a => b")
    res = rule_penalty_batch(rule, np.array([[1.0, 0.0]]))
    assert res.values[0] == 1.0
    assert res.grads[0].tolist() == [1.0, -1.0]


def test_penalty_mutex_pair_at_half():
    # a => !b at p = (0.5, 0.5): value 0.5 * 0.5, gradient (0.5, 0.5)
    rule, _ = _rule("a => !b")
    res = rule_penalty_batch(rule, np.array([[0.5, 0.5]]))
    assert res.values[0] == 0.25
    assert res.grads[0].tolist() == [0.5, 0.5]


def test_penalty_forbidden_conjunction():
    # a & b => FALSE: value p_a * p_b
    rule, _ = _rule("a & b => FALSE")
    res = rule_penalty_batch(rule, np.array([[0.5, 0.25]]))
    assert res.values[0] == 0.125
    assert res.grads[0].tolist() == [0.25, 0.5]


def test_penalty_implication_interior_point():
    # a => b: value p_a * (1 - p_b); grad ((1 - p_b), -p_a)
    rule, _ = _rule("a => b")
    res = rule_penalty_batch(rule, np.array([[0.6, 0.3]]))
    assert res.values[0] == pytest.approx(0.42, rel=1e-15)
    assert res.grads[0] == pytest.approx(np.array([0.7, -0.6]), rel=1e-15)


def test_penalty_matches_crisp_at_vertices():
    rng = random.Random(1234)
    n_labels = 4
    for _ in range(200):
        rule = oracles.random_rule(rng, n_labels)
        for y in itertools.product((0, 1), repeat=n_labels):
            res = rule_penalty_batch(rule, np.array([y], dtype=np.float64))
            expected = 0.0 if oracles.crisp_satisfied(rule, y) else 1.0
            assert res.values[0] == expected, (rule, y)


def test_penalty_value_in_unit_interval():
    rng = random.Random(55)
    npr = np.random.default_rng(55)
    for _ in range(100):
        rule = oracles.random_rule(rng, 5)
        p = npr.random(5)
        v = rule_penalty_batch(rule, p[None]).values[0]
        assert 0.0 <= v <= 1.0


def test_penalty_zero_iff_some_factor_zero():
    rule, _ = _rule("a & !b => c")
    interior = np.array([0.4, 0.6, 0.7])
    assert rule_penalty_batch(rule, interior[None]).values[0] > 0.0
    for idx, val in [(0, 0.0), (1, 1.0), (2, 1.0)]:
        p = interior.copy()
        p[idx] = val
        assert rule_penalty_batch(rule, p[None]).values[0] == 0.0, idx


def test_penalty_monotone_in_antecedent_and_consequent():
    rule, _ = _rule("a => b")
    grid = np.linspace(0.0, 1.0, 11)
    vals_up = [rule_penalty_batch(rule, np.array([[pa, 0.3]])).values[0] for pa in grid]
    assert all(b > a for a, b in zip(vals_up, vals_up[1:]))
    vals_down = [rule_penalty_batch(rule, np.array([[0.8, pb]])).values[0] for pb in grid]
    assert all(b < a for a, b in zip(vals_down, vals_down[1:]))


def test_penalty_gradient_matches_finite_differences():
    rng = random.Random(777)
    npr = np.random.default_rng(777)
    for _ in range(200):
        rule = oracles.random_rule(rng, 5)
        p = 0.05 + 0.9 * npr.random(5)
        analytic = rule_penalty_batch(rule, p[None]).grads[0]
        numeric = oracles.fd_grad(lambda q: rule_penalty_batch(rule, q[None]).values[0], p)
        assert oracles.max_rel_err(analytic, numeric, floor=1e-4) < 1e-6


def test_penalty_repeated_label_across_sides():
    # a => a: value p * (1 - p), grad 1 - 2p; the same index accumulates both factors
    rule = Rule((Literal(0),), (Literal(0),))
    res = rule_penalty_batch(rule, np.array([[0.25]]))
    assert res.values[0] == pytest.approx(0.1875, rel=1e-15)
    assert res.grads[0, 0] == pytest.approx(0.5, rel=1e-15)


def test_penalty_batch_rows_are_independent():
    rng = random.Random(321)
    npr = np.random.default_rng(321)
    for _ in range(20):
        rule = oracles.random_rule(rng, 4)
        P = npr.random((7, 4))
        batch = rule_penalty_batch(rule, P)
        assert batch.values.shape == (7,) and batch.grads.shape == (7, 4)
        for i in range(7):
            single = rule_penalty_batch(rule, P[i : i + 1])
            assert batch.values[i] == single.values[0]
            assert np.array_equal(batch.grads[i], single.grads[0])


def test_penalty_batch_validation():
    rule, _ = _rule("a => b")
    with pytest.raises(ValueError, match="empty batch"):
        rule_penalty_batch(rule, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        rule_penalty_batch(rule, np.array([0.5, 0.5]))
    for bad in (1.2, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            rule_penalty_batch(rule, np.array([[0.5, bad]]))
    for label in (2, -1):
        with pytest.raises(ValueError, match="label index"):
            rule_penalty_batch(Rule((Literal(label),)), np.full((1, 2), 0.5))


def test_penalty_deterministic_bitwise():
    rule, _ = _rule("a & b => c | !d")
    p = np.random.default_rng(3).random(4)
    r1 = rule_penalty_batch(rule, p[None])
    r2 = rule_penalty_batch(rule, p[None])
    assert r1.values[0] == r2.values[0]
    assert np.array_equal(r1.grads[0], r2.grads[0])


# ---- batch domain loss ----


def test_domain_loss_empty_ruleset_is_zero():
    vocab = LabelVocabulary(("a", "b"))
    rs = RuleSet(vocab, ())
    P = np.array([[0.2, 0.9], [0.5, 0.5]])
    assert domain_loss(rs, P) == 0.0
    assert np.array_equal(domain_loss_grad(rs, P), np.zeros_like(P))


def test_domain_loss_two_rule_hand_value():
    rs = parse_rules("a => b\na => !c")
    P = np.array([[1.0, 0.0, 1.0]])
    assert domain_loss(rs, P) == 1.0


def test_domain_loss_weighted_hand_value():
    rs = parse_rules("a => b\na => !c @ 3")
    P = np.array([[1.0, 0.0, 0.0]])
    # violations: rule one fully violated, rule two satisfied: (1*1 + 3*0) / 4
    assert domain_loss(rs, P) == 0.25


def test_domain_loss_averages_over_samples():
    rs = parse_rules("a => b")
    P = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert domain_loss(rs, P) == 0.5
    P3 = np.array([[1.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    assert domain_loss(rs, P3) == pytest.approx((1.0 + 0.0 + 0.25) / 3, rel=1e-15)


def test_domain_loss_grad_single_rule_hand_value():
    rs = parse_rules("a => b")
    P = np.array([[0.6, 0.3]])
    g = domain_loss_grad(rs, P)
    assert g == pytest.approx(np.array([[0.7, -0.6]]), rel=1e-15)


def test_domain_loss_grad_matches_finite_differences():
    rng = random.Random(99)
    npr = np.random.default_rng(99)
    vocab = LabelVocabulary(tuple(f"l{i}" for i in range(4)))
    for _ in range(20):
        rs = oracles.random_ruleset(rng, vocab, rng.randint(1, 4), weights=(1.0, 0.5, 2.0))
        P = 0.05 + 0.9 * npr.random((3, 4))
        analytic = domain_loss_grad(rs, P)
        numeric = oracles.fd_grad(lambda Q: domain_loss(rs, Q), P)
        assert oracles.max_rel_err(analytic, numeric, floor=1e-4) < 1e-6


def test_domain_loss_grad_rows_are_independent():
    rng = random.Random(5)
    npr = np.random.default_rng(5)
    vocab = LabelVocabulary(tuple(f"l{i}" for i in range(4)))
    rs = oracles.random_ruleset(rng, vocab, 3)
    P = npr.random((6, 4))
    G = domain_loss_grad(rs, P)
    for i in range(6):
        row = domain_loss_grad(rs, P[i : i + 1])[0]
        assert G[i] == pytest.approx(row / 6, rel=1e-12, abs=1e-15)


def test_domain_loss_validation():
    rs = parse_rules("a => b")
    with pytest.raises(ValueError, match="empty batch"):
        domain_loss(rs, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        domain_loss(rs, np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(ValueError):
        domain_loss(rs, np.array([[0.5, 1.5]]))
    with pytest.raises(ValueError):
        domain_loss_grad(rs, np.array([[np.nan, 0.5]]))
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            domain_loss(rs, np.array([[0.5, bad]]))
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            domain_loss_grad(rs, np.array([[bad, 0.5]]))
