"""Scoring: F1 variants, exact match, violation rate, correction accounting."""

import random

import numpy as np
import pytest

from rulebound import (
    Dataset,
    LabelVocabulary,
    RuleSet,
    SupervisionState,
    correction_report,
    cvr,
    exact_match,
    f1_scores,
    init_supervision,
    parse_rules,
)

import oracles


# ---- F1 family ----


def test_f1_frozen_hand_case():
    # label 0: tp=1 fp=1 fn=1 -> p=r=f1=1/2... worked through by hand below
    Yref = np.array([[1, 1], [0, 0]])
    Yhat = np.array([[1, 0], [1, 0]])
    per_label, macro, micro = f1_scores(Yhat, Yref)
    # label 0: tp 1, fp 1, fn 0 -> precision 1/2, recall 1, f1 2/3
    assert per_label[0].precision == 0.5
    assert per_label[0].recall == 1.0
    assert per_label[0].f1 == pytest.approx(2 / 3, rel=1e-15)
    # label 1: tp 0, fp 0, fn 1 -> all zero by the 0/0 convention
    assert (per_label[1].precision, per_label[1].recall, per_label[1].f1) == (0.0, 0.0, 0.0)
    assert macro == pytest.approx(1 / 3, rel=1e-15)
    # pooled: tp 1, fp 1, fn 1 -> micro f1 = 2*0.5*0.5 / 1
    assert micro == pytest.approx(0.5, rel=1e-15)
    assert per_label[0].support == 1
    assert per_label[1].support == 1


def test_f1_perfect_and_inverted():
    Y = np.array([[1, 0], [0, 1], [1, 1]])
    per_label, macro, micro = f1_scores(Y, Y)
    assert macro == 1.0 and micro == 1.0
    per_label, macro, micro = f1_scores(1 - Y, Y)
    assert macro == 0.0 and micro == 0.0


def test_f1_empty_label_column_counts_zero():
    Yref = np.array([[0], [0]])
    Yhat = np.array([[0], [0]])
    per_label, macro, micro = f1_scores(Yhat, Yref)
    assert per_label[0].f1 == 0.0 and macro == 0.0 and micro == 0.0
    assert per_label[0].support == 0


def test_micro_equals_flattened_binary_f1():
    rng = np.random.default_rng(31)
    for _ in range(10):
        Yref = rng.integers(0, 2, size=(25, 6))
        Yhat = rng.integers(0, 2, size=(25, 6))
        _, _, micro = f1_scores(Yhat, Yref)
        a, b = Yhat.ravel(), Yref.ravel()
        tp = int(((a == 1) & (b == 1)).sum())
        fp = int(((a == 1) & (b == 0)).sum())
        fn = int(((a == 0) & (b == 1)).sum())
        expected = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        assert micro == pytest.approx(expected, rel=1e-15)


def test_f1_scores_equal_the_label_by_label_reference_bitwise():
    rng = np.random.default_rng(5)
    for n_rows, n_labels in [(0, 3), (1, 1), (7, 20), (40, 5), (300, 12)]:
        Yref = (rng.random((n_rows, n_labels)) < rng.uniform(0, 1)).astype(int)
        Yhat = (rng.random((n_rows, n_labels)) < rng.uniform(0, 1)).astype(int)
        Yhat[:, 0] = 0  # a label never predicted
        per_label, macro, micro = f1_scores(Yhat, Yref)
        ref_per_label, ref_macro, ref_micro = oracles.f1_reference(Yhat, Yref)
        assert [(s.precision, s.recall, s.f1, s.support) for s in per_label] == ref_per_label
        assert all(type(s.support) is int for s in per_label)
        assert (macro, micro) == (ref_macro, ref_micro)


def test_macro_is_unweighted_mean_of_per_label_f1():
    rng = np.random.default_rng(77)
    Yref = rng.integers(0, 2, size=(40, 5))
    Yhat = rng.integers(0, 2, size=(40, 5))
    per_label, macro, _ = f1_scores(Yhat, Yref)
    assert macro == pytest.approx(sum(s.f1 for s in per_label) / 5, rel=1e-15)


def test_f1_sample_permutation_invariance():
    rng = np.random.default_rng(13)
    Yref = rng.integers(0, 2, size=(30, 4))
    Yhat = rng.integers(0, 2, size=(30, 4))
    perm = rng.permutation(30)
    a = f1_scores(Yhat, Yref)
    b = f1_scores(Yhat[perm], Yref[perm])
    assert a[0] == b[0]
    assert a[1:] == b[1:]


def test_f1_label_permutation_permutes_per_label():
    rng = np.random.default_rng(14)
    Yref = rng.integers(0, 2, size=(30, 4))
    Yhat = rng.integers(0, 2, size=(30, 4))
    perm = np.array([2, 0, 3, 1])
    a = f1_scores(Yhat, Yref, names=list("wxyz"))
    b = f1_scores(Yhat[:, perm], Yref[:, perm], names=[list("wxyz")[j] for j in perm])
    assert {s.label: s.f1 for s in a[0]} == {s.label: s.f1 for s in b[0]}
    assert a[1] == pytest.approx(b[1], rel=1e-15)
    assert a[2] == b[2]


def test_f1_validation():
    with pytest.raises(ValueError):
        f1_scores(np.array([[2]]), np.array([[1]]))
    with pytest.raises(ValueError):
        f1_scores(np.array([[1, 0]]), np.array([[1]]))
    with pytest.raises(ValueError):
        f1_scores(np.array([[1]]), np.array([[1]]), names=("a", "b"))


# ---- exact match ----


def test_exact_match_cases():
    Yref = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
    Yhat = np.array([[1, 0], [0, 0], [1, 1], [1, 0]])
    assert exact_match(Yhat, Yref) == 0.5
    assert exact_match(Yref, Yref) == 1.0


# ---- constraint violation rate ----


def test_cvr_no_rules_is_zero():
    rs = RuleSet(LabelVocabulary(("a", "b")), ())
    assert cvr(np.array([[1, 1]]), rs) == 0.0


def test_cvr_hand_cases():
    rs = parse_rules("a => b\na => !c")
    assert cvr(np.array([[1, 0, 1]]), rs) == 1.0  # both rules violated
    assert cvr(np.array([[1, 0, 0], [0, 0, 0]]), rs) == 0.25  # one pair of four
    assert cvr(np.array([[0, 0, 0]]), rs) == 0.0


def test_cvr_matches_brute_force():
    rng = random.Random(606)
    npr = np.random.default_rng(606)
    vocab = LabelVocabulary(tuple(f"l{i}" for i in range(4)))
    for _ in range(20):
        rs = oracles.random_ruleset(rng, vocab, rng.randint(1, 4))
        Y = npr.integers(0, 2, size=(12, 4))
        expected = sum(oracles.brute_force_counts(rs.rules, Y, 4)) / (12 * len(rs.rules))
        assert cvr(Y, rs) == pytest.approx(expected, rel=1e-15)


# ---- correction accounting ----


def _scenario():
    """Four flips, one per outcome bucket, plus a clean position."""
    vocab = LabelVocabulary(("a", "b"))
    clean = np.array([[1, 0], [0, 1], [1, 1], [0, 0], [1, 0]])
    noisy = clean.copy()
    flips = [(0, 0), (1, 1), (2, 0), (3, 1)]
    for i, j in flips:
        noisy[i, j] = 1 - noisy[i, j]
    ds = Dataset(np.zeros((5, 2)), noisy, vocab, clean_Y=clean)
    # flags: positions 0 and 1 and 2 were caught, 3 was not
    F = np.zeros_like(noisy)
    for i, j in flips[:3]:
        F[i, j] = 1
    state = init_supervision(noisy, F, "relabel")
    # correct (0,0) back to its clean value, (1,1) to the wrong value,
    # leave (2,0) masked
    state.targets[0, 0] = clean[0, 0]
    state.origin[0, 0] = 2  # self corrected
    state.targets[1, 1] = 1 - clean[1, 1]
    state.origin[1, 1] = 2
    return state, ds


def test_correction_report_partitions_flips():
    state, ds = _scenario()
    stats = correction_report(state, ds)
    assert stats.n_flipped == 4
    assert stats.n_corrected_right == 1
    assert stats.n_corrected_wrong == 1
    assert stats.n_still_masked == 1
    assert stats.n_undetected == 1
    assert stats.recovery_rate == 0.25
    total = (
        stats.n_corrected_right
        + stats.n_corrected_wrong
        + stats.n_still_masked
        + stats.n_undetected
    )
    assert total == stats.n_flipped


def test_correction_report_requires_noise_record():
    vocab = LabelVocabulary(("a",))
    ds = Dataset(np.zeros((1, 1)), np.array([[1]]), vocab)
    state = init_supervision(ds.Y, np.zeros((1, 1), dtype=np.uint8), "off")
    with pytest.raises(ValueError, match="no noise record"):
        correction_report(state, ds)


def test_correction_report_zero_flips_gives_none_rate():
    vocab = LabelVocabulary(("a",))
    ds = Dataset(np.zeros((2, 1)), np.array([[1], [0]]), vocab, clean_Y=np.array([[1], [0]]))
    state = init_supervision(ds.Y, np.zeros((2, 1), dtype=np.uint8), "relabel")
    stats = correction_report(state, ds)
    assert stats.n_flipped == 0
    assert stats.recovery_rate is None


@pytest.mark.parametrize("seed", range(8))
def test_correction_report_matches_per_flip_oracle(seed):
    rng = np.random.default_rng(seed)
    n, n_labels = rng.integers(1, 40), rng.integers(1, 6)
    clean = rng.integers(0, 2, size=(n, n_labels))
    rho = 0.0 if seed < 2 else rng.random()  # the first two seeds carry no flips
    noisy = np.where(rng.random(clean.shape) < rho, 1 - clean, clean)
    ds = Dataset(np.zeros((n, 1)), noisy, LabelVocabulary(tuple(f"l{j}" for j in range(n_labels))), clean_Y=clean)
    state = SupervisionState(
        rng.integers(0, 2, size=clean.shape), rng.integers(0, 2, size=clean.shape), rng.integers(0, 3, size=clean.shape)
    )
    stats = correction_report(state, ds)
    got = (stats.n_flipped, stats.n_corrected_right, stats.n_corrected_wrong, stats.n_still_masked, stats.n_undetected)
    assert got == oracles.correction_buckets(state, ds)
    assert stats.recovery_rate == (stats.n_corrected_right / stats.n_flipped if stats.n_flipped else None)
