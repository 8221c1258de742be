"""Generated rule sets and probabilities: the penalty kernel against its references."""

import warnings

import numpy as np
import pytest

from rulebound import (
    LabelVocabulary,
    Rule,
    RuleSet,
    domain_loss,
    domain_loss_grad,
    parse_rules,
    rule_penalty_batch,
)

import oracles

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

WEIGHTS = ("", " @ 0.5", " @ 2.5", " @ 0.3", " @ 1.7")


@st.composite
def rulesets(draw):
    """Rule text over l0..l{w-1}: implications with negation, FALSE, a label on
    both sides, MUTEX groups and non-unit weights, parsed against the vocabulary."""
    width = draw(st.integers(1, 7))
    names = [f"l{j}" for j in range(width)]
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        weight = draw(st.sampled_from(WEIGHTS))
        if width >= 2 and draw(st.integers(0, 4)) == 0:
            group = draw(st.lists(st.sampled_from(names), min_size=2, max_size=4, unique=True))
            lines.append(f"MUTEX({', '.join(group)}){weight}")
            continue

        def literals(min_size):
            chosen = draw(st.lists(st.sampled_from(names), min_size=min_size, max_size=3, unique=True))
            return [("!" if draw(st.booleans()) else "") + name for name in chosen]

        # the two sides draw their labels independently, so a label may sit on both
        consequent = " | ".join(literals(0)) or "FALSE"
        lines.append(f"{' & '.join(literals(1))} => {consequent}{weight}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate generated rules are kept, with a warning
        return parse_rules("\n".join(lines), LabelVocabulary(names))


@st.composite
def probabilities(draw, width, max_rows=700):
    """Seeded uniform rows, past one 512-row block, with exact 0 and 1 entries mixed in."""
    n = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.random((n, width))
    for value in (0.0, 1.0):
        P[rng.random(P.shape) < draw(st.sampled_from((0.0, 0.1, 0.5)))] = value
    return P


@settings(deadline=None, database=None)
@given(st.data())
def test_kernel_is_bitwise_equal_to_references(data):
    rs = data.draw(rulesets())
    P = data.draw(probabilities(len(rs.vocabulary)))
    assert domain_loss_grad(rs, P).tobytes() == oracles.penalty_grad_reference(rs, P).tobytes()
    assert domain_loss(rs, P) == (oracles.product_domain_loss(rs, P) if rs.rules else 0.0)
    # one unit-weight rule over one row is normalized by 1 * 1, which is exact
    for rule in rs.rules[:3]:
        one = RuleSet(rs.vocabulary, (Rule(rule.antecedent, rule.consequent),))
        batch = rule_penalty_batch(rule, P[:4])
        for i in range(min(4, len(P))):
            row = P[i : i + 1]
            assert batch.grads[i].tobytes() == oracles.penalty_grad_reference(one, row)[0].tobytes()
            assert batch.values[i] == oracles.product_domain_loss(one, row)


@settings(deadline=None, database=None, max_examples=50)
@given(st.data())
def test_kernel_gradient_matches_finite_differences(data):
    rs = data.draw(rulesets())
    n = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    P = 0.05 + 0.9 * rng.random((n, len(rs.vocabulary)))  # interior: the step stays in [0, 1]
    numeric = oracles.fd_grad(lambda Q: domain_loss(rs, Q), P)
    assert oracles.max_rel_err(domain_loss_grad(rs, P), numeric, floor=1e-4) < 1e-5
