"""Generated rule sets: the penalty kernel, the crisp checks, synthesis and
violating noise against their references."""

import itertools
import warnings

import numpy as np
import pytest

from rulebound import (
    Dataset,
    LabelVocabulary,
    Rule,
    RuleSet,
    domain_loss,
    domain_loss_grad,
    inject_noise,
    SynthesisBudgetError,
    parse_rules,
    synthesize,
    violation_matrix,
)

import oracles

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

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
        for i in range(min(4, len(P))):
            row = P[i : i + 1]
            assert domain_loss_grad(one, row)[0].tobytes() == oracles.penalty_grad_reference(one, row)[0].tobytes()
            assert domain_loss(one, row) == oracles.product_domain_loss(one, row)


@settings(deadline=None, database=None, max_examples=50)
@given(st.data())
def test_kernel_gradient_matches_finite_differences(data):
    rs = data.draw(rulesets())
    n = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    P = 0.05 + 0.9 * rng.random((n, len(rs.vocabulary)))  # interior: the step stays in [0, 1]
    numeric = oracles.fd_grad(lambda Q: domain_loss(rs, Q), P)
    assert oracles.max_rel_err(domain_loss_grad(rs, P), numeric, floor=1e-4) < 1e-5


@st.composite
def label_matrices(draw, width, max_rows=40):
    """Seeded random 0/1 label rows."""
    n = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((n, width)) < draw(st.sampled_from((0.2, 0.5, 0.8)))).astype(np.int64)


def _crisp_violations(rs, Y) -> np.ndarray:
    return np.array([[not oracles.crisp_satisfied(rule, y) for rule in rs.rules] for y in Y], dtype=bool)


@settings(deadline=None, database=None)
@given(st.data())
def test_violation_matrix_equals_crisp_semantics(data):
    rs = data.draw(rulesets())
    Y = data.draw(label_matrices(len(rs.vocabulary)))
    assert violation_matrix(rs, Y).tolist() == _crisp_violations(rs, Y).tolist()


@settings(deadline=None, database=None)
@given(st.data())
def test_domain_loss_at_vertices_is_weighted_crisp_violation_rate(data):
    rs = data.draw(rulesets())
    Y = data.draw(label_matrices(len(rs.vocabulary)))
    expected = 0.0
    if rs.rules:
        # rule by rule, in stored order, as the penalty adds its degrees
        total = np.zeros(len(Y))
        for rule, violated in zip(rs.rules, _crisp_violations(rs, Y).T):
            total = total + rule.weight * violated
        expected = float(np.mean(total / sum(rule.weight for rule in rs.rules)))
    assert domain_loss(rs, Y.astype(np.float64)) == expected


@settings(deadline=None, database=None)
@given(st.data())
def test_violating_noise_flips_one_bit_that_breaks_a_kept_rule(data):
    rs = data.draw(rulesets())
    clean = data.draw(label_matrices(len(rs.vocabulary)))
    rho = data.draw(st.sampled_from((0.3, 1.0)))
    ds = Dataset(np.zeros((len(clean), 1)), clean, rs.vocabulary)
    noisy = inject_noise(ds, rho, data.draw(st.integers(0, 2**32 - 1)), "violating", rs)
    assert noisy.clean_Y.tolist() == clean.tolist()
    for y, y_clean in zip(noisy.Y, clean):
        flipped = np.flatnonzero(y != y_clean)
        assert len(flipped) <= 1
        if len(flipped):
            assert any(
                not oracles.crisp_satisfied(rule, y) and oracles.crisp_satisfied(rule, y_clean)
                for rule in rs.rules
            )
        elif rho == 1.0:  # every row is tried, so a row left alone has no breaking flip
            for j in range(len(y)):
                trial = y_clean.copy()
                trial[j] = 1 - trial[j]
                assert not any(
                    not oracles.crisp_satisfied(rule, trial) and oracles.crisp_satisfied(rule, y_clean)
                    for rule in rs.rules
                )


def _assert_same_dataset(a, b):
    assert a.names == b.names
    for name in ("X", "Y", "clean_Y"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def _n_consistent(rs) -> int:
    vertices = itertools.product((0, 1), repeat=len(rs.vocabulary))
    return sum(all(oracles.crisp_satisfied(rule, y) for rule in rs.rules) for y in vertices)


@settings(deadline=None, database=None)
@given(st.data())
def test_synthesis_is_bitwise_equal_to_the_per_row_reference(data):
    rs = data.draw(rulesets())
    n_consistent = _n_consistent(rs)
    assume(n_consistent >= 2)
    k = data.draw(st.integers(2, min(n_consistent, 6)))
    seed, n, dims = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(1, 30)), data.draw(st.integers(1, 3))
    _assert_same_dataset(synthesize(seed, n, dims, rs, k), oracles.synthesize_per_row(seed, n, dims, rs, k))


@settings(deadline=None, database=None, max_examples=50)
@given(st.data())
def test_synthesis_with_multi_word_seeds_is_bitwise_equal_to_the_per_row_reference(data):
    rs = data.draw(rulesets())
    n_consistent = _n_consistent(rs)
    assume(n_consistent >= 2)
    k = data.draw(st.integers(2, min(n_consistent, 6)))
    seed, n, dims = data.draw(st.integers(2**32, 2**70)), data.draw(st.integers(1, 30)), data.draw(st.integers(1, 3))
    _assert_same_dataset(synthesize(seed, n, dims, rs, k), oracles.synthesize_per_row(seed, n, dims, rs, k))


@settings(deadline=None, database=None)
@given(st.data())
def test_violating_noise_is_bitwise_equal_to_the_per_row_reference(data):
    rs = data.draw(rulesets())
    names = data.draw(st.permutations(rs.vocabulary.names))  # dataset columns in another order
    Y = data.draw(label_matrices(len(names)))
    ds = Dataset(np.zeros((len(Y), 1)), Y, LabelVocabulary(names))
    rho = data.draw(st.sampled_from((0.0, 0.3, 1.0)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    _assert_same_dataset(inject_noise(ds, rho, seed, "violating", rs), oracles.inject_noise_per_row(ds, rho, seed, rs))


WIDE_RULES = """\
MUTEX(l0, l1, l2, l3, l4, l5, l6, l7)
l8 & !l9 => l10 | !l11 @ 2.5
l12 => l0 | l13
l14 & l15 => FALSE @ 0.5
"""


@pytest.mark.parametrize("rules", ["", WIDE_RULES], ids=["no-rules", "16-labels"])
@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
def test_synthesis_and_noise_equal_the_per_row_references(rules, rho):
    rs = RuleSet(LabelVocabulary([f"l{j}" for j in range(16)]), ()) if not rules else parse_rules(rules)
    clean = synthesize(11, 200, 3, rs, 9)
    _assert_same_dataset(clean, oracles.synthesize_per_row(11, 200, 3, rs, 9))
    _assert_same_dataset(inject_noise(clean, rho, 5, "violating", rs), oracles.inject_noise_per_row(clean, rho, 5, rs))


@pytest.mark.parametrize("rules", ["a => FALSE\n!a => FALSE", "a => FALSE\nb => FALSE"],
                         ids=["unsatisfiable", "one-pattern"])
def test_synthesis_budget_error_equals_the_per_row_reference(rules):
    rs = parse_rules(rules)
    with pytest.raises(SynthesisBudgetError) as batched:
        synthesize(0, 10, 2, rs, 2)
    with pytest.raises(SynthesisBudgetError) as per_row:
        oracles.synthesize_per_row(0, 10, 2, rs, 2)
    assert str(batched.value) == str(per_row.value) == (
        "no 2 distinct rule-consistent label vectors within 20000 rejections"
    )
