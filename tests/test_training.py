"""Supervision flags, masking, self-correction, the training loop, evaluation."""

import dataclasses

import numpy as np
import pytest

from rulebound import (
    Dataset,
    LabelVocabulary,
    ModelParams,
    ORIGIN_GIVEN,
    ORIGIN_MASKED,
    ORIGIN_SELF_CORRECTED,
    RuleError,
    RuleSet,
    TrainConfig,
    correct_labels,
    evaluate,
    flag_inconsistent,
    forward,
    init_params,
    init_supervision,
    loss_grads,
    parse_rules,
    sgd_step,
    synthesize,
    total_loss_and_grads,
    train,
)
from rulebound import jsonio


def _toy_dataset(seed=0, n=24, rules="a => b\nMUTEX(b, c)"):
    rs = parse_rules(rules)
    ds = synthesize(seed, n, 4, rs, k_patterns=3)
    return ds, rs


# ---- flagging ----


def test_flags_hand_case():
    rs = parse_rules("a => b")
    Y = np.array([[1, 0], [0, 0], [1, 1]])
    F = flag_inconsistent(rs, Y)
    assert F.tolist() == [[1, 1], [0, 0], [0, 0]]


def test_flags_mention_both_polarities():
    rs = parse_rules("a => !b")
    F = flag_inconsistent(rs, np.array([[1, 1]]))
    assert F.tolist() == [[1, 1]]


def test_flags_zero_when_consistent():
    rs = parse_rules("a => b")
    F = flag_inconsistent(rs, np.array([[1, 1], [0, 1], [0, 0]]))
    assert not F.any()


def test_flags_empty_ruleset():
    rs = RuleSet(LabelVocabulary(("a", "b")), ())
    assert not flag_inconsistent(rs, np.array([[1, 0]])).any()


def test_flags_only_touch_mentioned_labels():
    rs = parse_rules("a => b\nc => d")
    Y = np.array([[1, 0, 0, 0]])
    F = flag_inconsistent(rs, Y)
    assert F.tolist() == [[1, 1, 0, 0]]


def test_flags_commute_with_row_permutation():
    rs = parse_rules("a => b\nb => !c")
    rng = np.random.default_rng(8)
    Y = rng.integers(0, 2, size=(30, 3))
    perm = rng.permutation(30)
    assert np.array_equal(flag_inconsistent(rs, Y)[perm], flag_inconsistent(rs, Y[perm]))


# ---- supervision state ----


def test_init_supervision_modes():
    Y = np.array([[1, 0], [0, 1]])
    F = np.array([[1, 0], [0, 0]])
    off = init_supervision(Y, F, "off")
    assert off.mask.all() and (off.origin == ORIGIN_GIVEN).all()
    masked = init_supervision(Y, F, "mask_only")
    assert masked.mask.tolist() == [[0, 1], [1, 1]]
    assert masked.origin[0, 0] == ORIGIN_MASKED
    assert masked.n_masked == 1
    assert np.array_equal(masked.targets, Y.astype(np.float64))
    with pytest.raises(ValueError):
        init_supervision(Y, F, "sometimes")


def _assert_mask_follows_origin(state):
    assert state.mask.dtype == np.uint8
    assert np.array_equal(state.mask, (state.origin != ORIGIN_MASKED).astype(np.uint8))
    assert state.n_masked == int((state.origin == ORIGIN_MASKED).sum())
    with pytest.raises(ValueError, match="read-only"):
        state.mask[0, 0] = 1


@pytest.mark.parametrize("mode", ["off", "mask_only", "relabel"])
def test_mask_is_derived_from_origin(mode):
    rng = np.random.default_rng(41)
    Y = rng.integers(0, 2, size=(30, 5))
    F = rng.integers(0, 2, size=Y.shape)
    state = init_supervision(Y, F, mode)
    _assert_mask_follows_origin(state)
    for tau in (0.95, 0.8, 0.6):
        state, _ = correct_labels(state, rng.random(Y.shape), tau)
        _assert_mask_follows_origin(state)
    if mode != "off":
        assert 0 < state.n_masked < (F == 1).sum()  # some corrections made, some entries still masked


def test_correct_labels_thresholds():
    Y = np.array([[0, 1, 0]])
    F = np.array([[1, 1, 1]])
    state = init_supervision(Y, F, "relabel")
    P = np.array([[0.95, 0.6, 0.05]])
    out, n = correct_labels(state, P, tau=0.9)
    assert n == 2
    assert out.targets.tolist() == [[1.0, 1.0, 0.0]]
    assert out.mask.tolist() == [[1, 0, 1]]
    assert out.origin.tolist() == [[ORIGIN_SELF_CORRECTED, ORIGIN_MASKED, ORIGIN_SELF_CORRECTED]]
    # the input state is never mutated
    assert state.mask.tolist() == [[0, 0, 0]]
    assert state.targets.tolist() == [[0.0, 1.0, 0.0]]


def test_correct_labels_boundary_inclusive():
    # tau chosen dyadic so both thresholds are exact floats
    state = init_supervision(np.array([[0, 0]]), np.array([[1, 1]]), "relabel")
    out, n = correct_labels(state, np.array([[0.75, 0.25]]), tau=0.75)
    assert n == 2
    assert out.targets.tolist() == [[1.0, 0.0]]


def test_correct_labels_ignores_unmasked_entries():
    Y = np.array([[0, 0]])
    F = np.array([[0, 1]])
    state = init_supervision(Y, F, "relabel")
    out, n = correct_labels(state, np.array([[0.99, 0.5]]), tau=0.9)
    assert n == 0 and out is state


def test_corrections_are_permanent():
    state = init_supervision(np.array([[0]]), np.array([[1]]), "relabel")
    once, n1 = correct_labels(state, np.array([[0.95]]), tau=0.9)
    assert n1 == 1 and once.targets[0, 0] == 1.0
    twice, n2 = correct_labels(once, np.array([[0.01]]), tau=0.9)
    assert n2 == 0
    assert twice.targets[0, 0] == 1.0


def test_n_corrected_is_the_running_sum_of_correct_labels_counts():
    rng = np.random.default_rng(43)
    for _ in range(5):
        Y = rng.integers(0, 2, size=(40, 6))
        state = init_supervision(Y, rng.integers(0, 2, size=Y.shape), "relabel")
        assert state.n_corrected == 0
        total = 0
        for tau in rng.uniform(0.55, 0.95, size=6):
            state, n = correct_labels(state, rng.random(Y.shape), tau)
            total += n
            assert state.n_corrected == total
        assert total > 0


def test_correct_labels_validation():
    state = init_supervision(np.array([[0]]), np.array([[1]]), "relabel")
    with pytest.raises(ValueError):
        correct_labels(state, np.array([[0.5]]), tau=0.5)
    with pytest.raises(ValueError):
        correct_labels(state, np.array([[0.5, 0.5]]), tau=0.9)


# ---- training loop ----


def test_history_length_and_monotone_columns():
    ds, rs = _toy_dataset()
    noisy = _with_noise(ds, rs)
    cfg = TrainConfig(epochs=8, warmup_epochs=2, batch_size=8, seed=1)
    _, history, _ = train(noisy, rs, cfg)
    assert len(history) == 8
    epochs = [r.epoch for r in history]
    assert epochs == list(range(1, 9))
    masked = [r.n_masked for r in history]
    assert all(b <= a for a, b in zip(masked, masked[1:]))
    corrected = [r.n_corrected_cumulative for r in history]
    assert all(b >= a for a, b in zip(corrected, corrected[1:]))


def _with_noise(ds, rs, rho=0.25, seed=3):
    from rulebound import inject_noise

    return inject_noise(ds, rho, seed, "violating", rs=rs)


def test_train_deterministic():
    ds, rs = _toy_dataset()
    noisy = _with_noise(ds, rs)
    cfg = TrainConfig(epochs=4, warmup_epochs=1, batch_size=8, seed=5)
    p1, h1, s1 = train(noisy, rs, cfg)
    p2, h2, s2 = train(noisy, rs, cfg)
    for a, b in zip(vars(p1).values(), vars(p2).values()):
        assert np.array_equal(a, b)
    assert h1 == h2
    assert np.array_equal(s1.targets, s2.targets)


def test_train_off_mode_matches_reference_loop():
    ds, rs = _toy_dataset(seed=2)
    cfg = TrainConfig(
        epochs=3, warmup_epochs=0, batch_size=7, learning_rate=0.1, lambda_=0.0,
        hidden_units=5, seed=9, correction_mode="off",
    )
    params, history, state = train(ds, rs, cfg)

    # plain-BCE reference written out longhand
    ref = init_params(9, ds.X.shape[1], 5, len(ds.names))
    T = ds.Y.astype(np.float64)
    M = np.ones_like(T)
    empty = RuleSet(ds.names, ())
    for epoch in range(1, 4):
        order = np.random.default_rng([9, epoch]).permutation(ds.n_samples)
        for start in range(0, ds.n_samples, 7):
            rows = order[start : start + 7]
            _, grads = total_loss_and_grads(ref, ds.X[rows], T[rows], M[rows], empty, 0.0)
            ref = sgd_step(ref, grads, 0.1)
    for a, b in zip(vars(params).values(), vars(ref).values()):
        assert np.array_equal(a, b)
    assert state.mask.all()
    assert (state.origin == ORIGIN_GIVEN).all()


def test_train_relabel_with_penalty_matches_reference_loop():
    # rule 0 has four factors and the MUTEX rules two, so the compiled index
    # pads; 26 rows in batches of 8 leave a last batch of 2
    rs = parse_rules("a & !b => c | d @ 2.5\nMUTEX(b, c)")
    ds = _with_noise(synthesize(4, 26, 3, rs, k_patterns=3), rs, rho=0.5)
    cfg = TrainConfig(
        epochs=4, warmup_epochs=1, batch_size=8, learning_rate=0.3, lambda_=0.7,
        tau=0.55, hidden_units=5, seed=6, correction_mode="relabel",
    )
    params, _, state = train(ds, rs, cfg)

    # the relabel schedule written out longhand
    ref = init_params(6, ds.X.shape[1], 5, len(ds.names))
    ref_state = init_supervision(ds.Y, flag_inconsistent(rs, ds.Y), "relabel")
    assert ref_state.n_masked > 0
    n_corrected = 0
    for epoch in range(1, 5):
        order = np.random.default_rng([6, epoch]).permutation(ds.n_samples)
        M = ref_state.mask
        for start in range(0, ds.n_samples, 8):
            rows = order[start : start + 8]
            grads = loss_grads(ref, ds.X[rows], ref_state.targets[rows], M[rows], rs, 0.7)
            ref = sgd_step(ref, grads, 0.3)
        probs, _ = forward(ref, ds.X)
        ref_state, corrected = correct_labels(ref_state, probs, 0.55)
        n_corrected += corrected
    assert n_corrected > 0
    for a, b in zip(vars(params).values(), vars(ref).values()):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(state.targets, ref_state.targets)
    assert np.array_equal(state.origin, ref_state.origin)


def test_training_steps_compute_no_loss_value(monkeypatch):
    import rulebound.model

    def forbidden(*args):
        raise AssertionError("a training step computed a loss value")

    monkeypatch.setattr(rulebound.model, "bce_masked", forbidden)
    monkeypatch.setattr(rulebound.model, "domain_loss", forbidden)
    ds, rs = _toy_dataset()
    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=8, lambda_=0.5, seed=5)
    _, history, _ = train(_with_noise(ds, rs), rs, cfg)
    assert len(history) == 2  # the epoch records still carry both loss values


def _paper_rules_with_a_fully_flagged_row():
    # the first row breaks all three rules, so every one of its labels is flagged
    rs = parse_rules("MUTEX(A, B)\nA => C\nD => !C")
    Y = np.array([[1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])
    X = np.random.default_rng(0).normal(size=(3, 2))
    return Dataset(X, Y, rs.vocabulary), rs


@pytest.mark.parametrize("mode, batch_size", [("mask_only", 1), ("relabel", 2)])
def test_a_fully_masked_batch_trains_on_the_rule_penalty(mode, batch_size):
    ds, rs = _paper_rules_with_a_fully_flagged_row()
    for seed in range(5):
        cfg = TrainConfig(epochs=3, warmup_epochs=1, batch_size=batch_size, correction_mode=mode, seed=seed)
        params, history, _ = train(ds, rs, cfg)
        assert len(history) == 3
        assert all(np.isfinite(w).all() for w in vars(params).values())


def test_train_rejects_a_fully_masked_dataset_before_any_step(monkeypatch):
    import rulebound.training

    def forbidden(*args):
        raise AssertionError("a step ran on a dataset with no supervised entry")

    monkeypatch.setattr(rulebound.training, "loss_grads", forbidden)
    ds, rs = _paper_rules_with_a_fully_flagged_row()
    only_bad = Dataset(ds.X[:1], ds.Y[:1], ds.names)
    for mode in ("mask_only", "relabel"):
        with pytest.raises(ValueError, match="^no supervision: mask excludes every entry$"):
            train(only_bad, rs, TrainConfig(epochs=2, warmup_epochs=0, correction_mode=mode))


def test_mask_only_never_edits_targets():
    ds, rs = _toy_dataset(seed=4)
    noisy = _with_noise(ds, rs)
    cfg = TrainConfig(
        epochs=6, warmup_epochs=1, batch_size=8, seed=2, correction_mode="mask_only"
    )
    _, history, state = train(noisy, rs, cfg)
    assert np.array_equal(state.targets, noisy.Y.astype(np.float64))
    assert not (state.origin == ORIGIN_SELF_CORRECTED).any()
    assert all(r.n_corrected_cumulative == 0 for r in history)
    # masked entries stay masked for the whole run
    masked = [r.n_masked for r in history]
    assert masked[0] == masked[-1] == state.n_masked


def test_warmup_equal_to_epochs_only_corrects_after_last_record():
    ds, rs = _toy_dataset(seed=6)
    noisy = _with_noise(ds, rs)
    kwargs = dict(epochs=5, batch_size=8, seed=3, tau=0.8)
    relabel = TrainConfig(warmup_epochs=5, correction_mode="relabel", **kwargs)
    masking = TrainConfig(warmup_epochs=5, correction_mode="mask_only", **kwargs)
    p_rel, h_rel, s_rel = train(noisy, rs, relabel)
    p_mask, _, s_mask = train(noisy, rs, masking)
    # parameters never saw a corrected target, so the runs agree bitwise
    for a, b in zip(vars(p_rel).values(), vars(p_mask).values()):
        assert np.array_equal(a, b)
    assert all(r.n_corrected_cumulative == 0 for r in h_rel)
    # the one correction pass at the final boundary shows up in the state
    probs, _ = forward(p_rel, noisy.X)
    expect, n = correct_labels(s_mask, probs, 0.8)
    assert np.array_equal(s_rel.targets, expect.targets)
    assert np.array_equal(s_rel.origin, expect.origin)


def test_relabel_run_actually_corrects(monkeypatch):
    import rulebound.training

    counts, held = [], []

    def counting(state, *args):
        held.append(int((state.origin == ORIGIN_SELF_CORRECTED).sum()))
        state, n_corrected = correct_labels(state, *args)
        counts.append(n_corrected)
        return state, n_corrected

    monkeypatch.setattr(rulebound.training, "correct_labels", counting)
    ds, rs = _toy_dataset(seed=7, n=120)
    noisy = _with_noise(ds, rs, rho=0.3, seed=9)
    cfg = TrainConfig(epochs=20, warmup_epochs=4, batch_size=8, seed=0, tau=0.85)
    _, history, state = train(noisy, rs, cfg)
    assert state.n_masked < init_supervision(
        noisy.Y, flag_inconsistent(rs, noisy.Y), "relabel"
    ).n_masked
    assert (state.origin == ORIGIN_SELF_CORRECTED).sum() > 0
    # a record counts the corrections of the passes at earlier epoch ends, one pass per
    # epoch from warmup_epochs on
    assert len(counts) == 17 and sum(counts) > 0
    passes_before = [max(0, epoch - 4) for epoch in range(1, 21)]
    assert [r.n_corrected_cumulative for r in history] == [sum(counts[:k]) for k in passes_before]
    # the record of epoch e >= warmup_epochs is written off the state that epoch's pass
    # reads, so its count is that state's self-corrected entries
    assert [r.n_corrected_cumulative for r in history[3:]] == held


def _relabelling_run(mode):
    ds, rs = _toy_dataset(seed=7, n=60)
    noisy = _with_noise(ds, rs, rho=0.3, seed=9)
    cfg = TrainConfig(
        epochs=8, warmup_epochs=2, batch_size=8, learning_rate=0.3, lambda_=0.4, seed=2, tau=0.7, correction_mode=mode
    )
    return noisy, rs, cfg


@pytest.mark.parametrize("mode", ["off", "mask_only", "relabel"])
def test_epoch_loop_from_the_given_flags_is_train(mode):
    from rulebound.model import bce_masked
    from rulebound.relax import domain_loss
    from rulebound.training import _epochs

    ds, rs, cfg = _relabelling_run(mode)
    params, history, state = train(ds, rs, cfg)
    start = init_supervision(ds.Y, flag_inconsistent(rs, ds.Y), mode)
    ends = list(_epochs(ds, rs, cfg, start))
    assert [e.epoch for e in ends] == list(range(1, 9))
    assert ends[0].before is start
    for prev, e in zip(ends, ends[1:]):
        assert e.before is prev.after
    records = []
    for e in ends:
        assert e.probs.tobytes() == forward(e.params, ds.X)[0].tobytes()
        bce = bce_masked(e.probs, e.before.targets, e.before.mask)
        dom = domain_loss(rs, e.probs)
        records.append((e.epoch, bce, dom, bce + cfg.lambda_ * dom, e.before.n_masked, e.before.n_corrected))
    assert [tuple(vars(r).values()) for r in history] == records
    for a, b in zip(vars(params).values(), vars(ends[-1].params).values()):
        assert a.tobytes() == b.tobytes()
    assert state.targets.tobytes() == ends[-1].after.targets.tobytes()
    assert state.origin.tobytes() == ends[-1].after.origin.tobytes()
    if mode == "relabel":
        assert state.n_corrected > 0 and history[-1].n_corrected_cumulative > 0
    else:
        assert all(e.after is e.before for e in ends)


def test_epoch_loop_from_no_flags_in_relabel_mode_is_train_without_correction():
    from rulebound.training import _epochs

    ds, rs, cfg = _relabelling_run("relabel")
    params, _, state = train(ds, rs, dataclasses.replace(cfg, correction_mode="off"))
    ends = list(_epochs(ds, rs, cfg, init_supervision(ds.Y, np.zeros_like(ds.Y), "relabel")))
    assert len(ends) == cfg.epochs
    for a, b in zip(vars(params).values(), vars(ends[-1].params).values()):
        assert a.tobytes() == b.tobytes()
    assert state.targets.tobytes() == ends[-1].after.targets.tobytes()
    assert state.origin.tobytes() == ends[-1].after.origin.tobytes()


def test_train_rejects_foreign_vocabulary():
    ds, _ = _toy_dataset()
    other = parse_rules("p => q")
    with pytest.raises(RuleError):
        train(ds, other, TrainConfig(epochs=1, warmup_epochs=0))


# ---- evaluation ----


def _saturated_params(n_labels):
    # features are the labels themselves, recentred; big weights push probs to 0/1
    W1 = np.eye(n_labels) * 6.0
    b1 = np.zeros(n_labels)
    W2 = np.eye(n_labels) * 50.0
    b2 = np.zeros(n_labels)
    return ModelParams(W1, b1, W2, b2)


def test_evaluate_perfect_predictions():
    rs = parse_rules("a => b")
    Y = np.array([[1, 1], [0, 1], [0, 0], [1, 1]])
    X = (Y - 0.5).astype(np.float64)
    ds = Dataset(X, Y, rs.vocabulary)
    report = evaluate(_saturated_params(2), ds, rs)
    assert report.eval_target == "given"
    assert report.macro_f1 == 1.0
    assert report.micro_f1 == 1.0
    assert report.exact_match == 1.0
    assert report.cvr == 0.0
    assert report.correction is None


def test_evaluate_prefers_clean_labels():
    rs = parse_rules("a => b")
    Y = np.array([[1, 1], [0, 0]])
    noisy = Y.copy()
    noisy[0, 1] = 0
    X = (Y - 0.5).astype(np.float64)
    ds = Dataset(X, noisy, rs.vocabulary, clean_Y=Y)
    report = evaluate(_saturated_params(2), ds, rs)
    assert report.eval_target == "clean"
    # the model reproduces the clean labels, so scores are perfect even
    # though the stored noisy labels disagree
    assert report.macro_f1 == 1.0


def test_evaluate_threshold_is_inclusive_at_half():
    rs = parse_rules("a => b")
    Y = np.ones((3, 2), dtype=np.int64)
    X = np.zeros((3, 2))
    ds = Dataset(X, Y, rs.vocabulary)
    params = ModelParams(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
    report = evaluate(params, ds, rs, threshold=0.5)  # all probs are exactly 0.5
    assert report.macro_f1 == 1.0 and report.exact_match == 1.0


def test_evaluate_threshold_validation():
    ds, rs = _toy_dataset()
    params = init_params(0, ds.X.shape[1], 4, len(ds.names))
    with pytest.raises(ValueError):
        evaluate(params, ds, rs, threshold=0.0)
    with pytest.raises(ValueError):
        evaluate(params, ds, rs, threshold=1.0)


def test_history_jsonl_layout(tmp_path):
    ds, rs = _toy_dataset()
    cfg = TrainConfig(epochs=3, warmup_epochs=1, batch_size=8)
    _, history, _ = train(ds, rs, cfg)
    path = tmp_path / "history.jsonl"
    jsonio.dump_lines(history, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    import json

    first = json.loads(lines[0])
    assert list(first) == ["epoch", "bce", "domain_loss", "total", "n_masked", "n_corrected_cumulative"]
    assert first["epoch"] == 1
