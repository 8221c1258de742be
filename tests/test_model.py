"""MLP forward pass, masked BCE, combined loss gradients, SGD, checkpoints."""

import math
import random

import numpy as np
import pytest

from rulebound import (
    BCE_CLAMP,
    LabelVocabulary,
    ModelParams,
    RuleSet,
    TrainConfig,
    bce_masked,
    forward,
    init_params,
    load_model,
    domain_loss,
    loss_grads,
    parse_rules,
    save_model,
    sgd_step,
    total_loss_and_grads,
)
from rulebound.model import _bce_grad_probs

import oracles


def _empty_rs(n_labels):
    return RuleSet(LabelVocabulary(tuple(f"l{i}" for i in range(n_labels))), ())


# ---- initialization ----


def test_init_deterministic_and_bounded():
    a = init_params(3, 4, 5, 2)
    b = init_params(3, 4, 5, 2)
    c = init_params(4, 4, 5, 2)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    assert not np.array_equal(a.W1, c.W1)
    assert np.all(np.abs(a.W1) <= 1 / math.sqrt(4))
    assert np.all(np.abs(a.W2) <= 1 / math.sqrt(5))
    assert np.array_equal(a.b1, np.zeros(5))
    assert np.array_equal(a.b2, np.zeros(2))


def test_init_draw_order_pinned():
    # W1 must be drawn before W2 from np.random.default_rng(seed), row-major
    params = init_params(11, 3, 2, 4)
    rng = np.random.default_rng(11)
    W1 = rng.uniform(-1 / math.sqrt(3), 1 / math.sqrt(3), size=(2, 3))
    W2 = rng.uniform(-1 / math.sqrt(2), 1 / math.sqrt(2), size=(4, 2))
    assert np.array_equal(params.W1, W1)
    assert np.array_equal(params.W2, W2)


def test_init_validation():
    with pytest.raises(ValueError):
        init_params(0, 0, 3, 2)


# ---- forward pass ----


def test_forward_zero_params_gives_half():
    params = ModelParams(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)), np.zeros(2))
    probs, hidden = forward(params, np.array([[5.0, -1.0], [0.0, 0.0]]))
    assert np.array_equal(probs, np.full((2, 2), 0.5))
    assert np.array_equal(hidden, np.zeros((2, 3)))


def test_forward_hand_computed_scalar_chain():
    params = ModelParams(np.array([[0.5]]), np.array([0.25]), np.array([[2.0]]), np.array([-1.0]))
    probs, _ = forward(params, np.array([[3.0]]))
    h = math.tanh(0.5 * 3.0 + 0.25)
    expected = 1.0 / (1.0 + math.exp(-(2.0 * h - 1.0)))
    assert probs[0, 0] == pytest.approx(expected, rel=1e-15)


def test_forward_probs_strictly_inside_unit_interval():
    params = init_params(0, 4, 6, 3)
    X = np.random.default_rng(1).normal(size=(20, 4)) * 10
    probs, _ = forward(params, X)
    assert np.all(probs > 0) and np.all(probs < 1)


@pytest.mark.filterwarnings("error")
def test_forward_probabilities_match_two_branch_sigmoid_bitwise():
    from rulebound.model import _sigmoid

    edges = np.array([0.0, 1e-300, 5e-324, 36.8, 709.8, 745.2, 800.0])
    edges = np.concatenate([edges, -edges])  # -0.0 too, which forward's matmul does not return here
    assert _sigmoid(edges).tobytes() == oracles.sigmoid_reference(edges).tobytes()
    # one hidden unit saturated at exactly 1 and -1 makes W2's column the logits
    params = ModelParams(np.ones((1, 1)), np.zeros(1), edges[:, None], np.zeros(len(edges)))
    probs, _ = forward(params, np.array([[20.0], [-20.0]]))
    assert probs.tobytes() == oracles.sigmoid_reference(np.array([edges, -edges])).tobytes()
    rng = np.random.default_rng(17)
    for scale in (0.1, 3.0, 200.0):
        init = init_params(5, 4, 6, 3)
        params = ModelParams(init.W1 * scale, init.b1, init.W2 * scale, rng.normal(size=3) * scale)
        X = rng.normal(size=(50, 4)) * scale
        probs, hidden = forward(params, X)
        logits = hidden @ params.W2.T + params.b2
        assert probs.tobytes() == oracles.sigmoid_reference(logits).tobytes()
    assert np.abs(logits).max() > 100  # the largest scale saturates


def test_forward_shape_validation():
    params = init_params(0, 4, 3, 2)
    with pytest.raises(ValueError):
        forward(params, np.zeros((5, 3)))


# ---- masked binary cross entropy ----


def test_bce_half_probability_is_log_two():
    P = np.full((2, 3), 0.5)
    T = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.float64)
    M = np.ones_like(T)
    assert bce_masked(P, T, M) == pytest.approx(math.log(2), rel=1e-15)


def test_bce_hand_value_two_entries():
    P = np.array([[0.8, 0.25]])
    T = np.array([[1.0, 0.0]])
    M = np.array([[1.0, 1.0]])
    expected = (-math.log(0.8) - math.log(0.75)) / 2
    assert bce_masked(P, T, M) == pytest.approx(expected, rel=1e-14)


def test_bce_masked_entries_do_not_contribute():
    T = np.array([[1.0, 0.0], [0.0, 1.0]])
    M = np.array([[1.0, 0.0], [1.0, 1.0]])
    P1 = np.array([[0.9, 0.1], [0.2, 0.7]])
    P2 = np.array([[0.9, 0.99], [0.2, 0.7]])  # differs only at the masked entry
    assert bce_masked(P1, T, M) == bce_masked(P2, T, M)
    # normalizer is the count of unmasked entries, not the matrix size
    expected = (-math.log(0.9) - math.log(0.8) - math.log(0.7)) / 3
    assert bce_masked(P1, T, M) == pytest.approx(expected, rel=1e-14)


def test_bce_all_masked_is_an_error():
    with pytest.raises(ValueError, match="no supervision"):
        bce_masked(np.array([[0.5]]), np.array([[1.0]]), np.array([[0.0]]))


def test_all_masked_batch_steps_on_the_rule_penalty_alone():
    rs = parse_rules("MUTEX(a, b)\na => c\nd => !c")
    params = init_params(2, 3, 5, 4)
    X = np.random.default_rng(1).normal(size=(2, 3))
    T = np.ones((2, 4))
    M = np.zeros((2, 4))
    # no unmasked entry: no BCE gradient, and no division by the zero count
    assert all(not g.any() for g in loss_grads(params, X, T, M, rs, 0.0).as_tuple())
    grads = loss_grads(params, X, T, M, rs, 0.7)
    numeric = oracles.fd_param_grads(lambda p: 0.7 * domain_loss(rs, forward(p, X)[0]), params)
    for analytic, fd in zip(grads.as_tuple(), numeric.as_tuple()):
        assert oracles.max_rel_err(analytic, fd, floor=1e-4) < 1e-5
    with pytest.raises(ValueError, match="no supervision"):  # the loss value stays undefined
        total_loss_and_grads(params, X, T, M, rs, 0.7)


def test_bce_clamps_extreme_probabilities():
    P = np.array([[0.0]])
    T = np.array([[1.0]])
    M = np.array([[1.0]])
    assert bce_masked(P, T, M) == pytest.approx(-math.log(BCE_CLAMP), rel=1e-12)
    assert math.isfinite(bce_masked(np.array([[1.0]]), np.array([[0.0]]), M))


def test_bce_gradient_clamp_window_is_closed():
    # the window is [BCE_CLAMP, 1 - BCE_CLAMP], both edges in: 0 only just outside
    lo, hi = BCE_CLAMP, 1.0 - BCE_CLAMP
    P = np.array([[lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)]])
    T = np.array([[1.0, 0.0, 1.0, 0.0]])
    grad = _bce_grad_probs(P, T, np.ones_like(P), 4.0)
    assert grad[0, :2].tolist() == [(lo - 1.0) / (lo * (1.0 - lo)) / 4.0, hi / (hi * (1.0 - hi)) / 4.0]
    assert grad[0, 2:].tolist() == [0.0, 0.0]


def test_bce_shape_validation():
    with pytest.raises(ValueError, match="share one shape"):
        bce_masked(np.full((2, 2), 0.5), np.zeros((2, 3)), np.ones((2, 2)))


# ---- combined loss and gradients ----


def test_lambda_zero_equals_bce_alone():
    rs = parse_rules("l0 => l1")
    params = init_params(2, 3, 4, 2)
    X = np.random.default_rng(2).normal(size=(6, 3))
    T = np.random.default_rng(3).integers(0, 2, size=(6, 2)).astype(np.float64)
    M = np.ones_like(T)
    loss0, grads0 = total_loss_and_grads(params, X, T, M, rs, lambda_=0.0)
    probs, _ = forward(params, X)
    assert loss0 == bce_masked(probs, T, M)
    # an empty rule set must short-circuit identically for any lambda
    loss_e, grads_e = total_loss_and_grads(params, X, T, M, _empty_rs(2), lambda_=5.0)
    assert loss_e == loss0
    for a, b in zip(grads0.as_tuple(), grads_e.as_tuple()):
        assert np.array_equal(a, b)


def test_domain_term_increases_loss_on_violation():
    rs = parse_rules("l0 => l1")
    params = init_params(5, 3, 4, 2)
    X = np.random.default_rng(4).normal(size=(5, 3))
    T = np.zeros((5, 2))
    M = np.ones_like(T)
    base, _ = total_loss_and_grads(params, X, T, M, rs, lambda_=0.0)
    mixed, _ = total_loss_and_grads(params, X, T, M, rs, lambda_=2.0)
    assert mixed > base  # probabilities are interior, so some violation mass exists


def test_total_loss_gradients_match_finite_differences():
    rng = random.Random(42)
    vocab = LabelVocabulary(("l0", "l1", "l2"))
    rs = oracles.random_ruleset(rng, vocab, 2)
    params = init_params(9, 4, 5, 3)
    npr = np.random.default_rng(9)
    X = npr.normal(size=(6, 4))
    T = npr.integers(0, 2, size=(6, 3)).astype(np.float64)
    M = np.ones_like(T)
    M[0, 1] = 0.0
    loss, grads = total_loss_and_grads(params, X, T, M, rs, lambda_=0.7)
    assert math.isfinite(loss)
    numeric = oracles.fd_param_grads(
        lambda p: total_loss_and_grads(p, X, T, M, rs, lambda_=0.7)[0], params
    )
    for a, n in zip(grads.as_tuple(), numeric.as_tuple()):
        assert oracles.max_rel_err(a, n, floor=1e-3) < 1e-5


@pytest.mark.parametrize(
    "lambda_, rules",
    [(0.0, "l0 => l1 | !l2"), (0.8, "l0 => l1 | !l2\nMUTEX(l1, l2) @ 1.5"), (3.0, None)],
)
def test_gradient_only_step_matches_total_loss_and_grads(lambda_, rules):
    vocab = LabelVocabulary(("l0", "l1", "l2"))
    rs = parse_rules(rules, vocab) if rules else _empty_rs(3)
    params = init_params(17, 4, 5, 3)
    npr = np.random.default_rng(17)
    X = npr.normal(size=(9, 4))
    T = npr.integers(0, 2, size=(9, 3)).astype(np.float64)
    M = (npr.random((9, 3)) > 0.3).astype(np.uint8)
    M[0] = 0
    loss, grads = total_loss_and_grads(params, X, T, M, rs, lambda_)
    for a, b in zip(loss_grads(params, X, T, M, rs, lambda_).as_tuple(), grads.as_tuple()):
        assert a.tobytes() == b.tobytes()
    probs, _ = forward(params, X)
    expected = bce_masked(probs, T, M)
    if lambda_ > 0 and rs.rules:
        expected = expected + lambda_ * domain_loss(rs, probs)
    assert loss == expected


def test_negative_lambda_rejected():
    params = init_params(0, 2, 2, 2)
    with pytest.raises(ValueError):
        total_loss_and_grads(
            params, np.zeros((1, 2)), np.ones((1, 2)), np.ones((1, 2)), _empty_rs(2), lambda_=-1.0
        )


@pytest.mark.parametrize("lambda_", [math.nan, math.inf])
def test_loss_grads_rejects_non_finite_lambda(lambda_):
    params = init_params(0, 2, 3, 2)
    rs = parse_rules("a => b")
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        loss_grads(params, np.ones((4, 2)), np.ones((4, 2)), np.ones((4, 2)), rs, lambda_)


# ---- SGD ----


def test_sgd_step_hand_value_and_purity():
    params = ModelParams(np.array([[1.0]]), np.array([0.5]), np.array([[2.0]]), np.array([0.0]))
    grads = ModelParams(np.array([[4.0]]), np.array([1.0]), np.array([[-2.0]]), np.array([8.0]))
    out = sgd_step(params, grads, 0.25)
    assert out.W1[0, 0] == 0.0 and out.b1[0] == 0.25
    assert out.W2[0, 0] == 2.5 and out.b2[0] == -2.0
    assert params.W1[0, 0] == 1.0  # input untouched


def test_sgd_two_half_steps_equal_one_full_step_on_fixed_grads():
    params = init_params(8, 3, 3, 2)
    grads = ModelParams(*(np.full_like(a, 0.125) for a in params.as_tuple()))
    one = sgd_step(params, grads, 0.5)
    two = sgd_step(sgd_step(params, grads, 0.25), grads, 0.25)
    for a, b in zip(one.as_tuple(), two.as_tuple()):
        assert np.array_equal(a, b)  # dyadic values, so bitwise equality holds


def test_sgd_rejects_bad_learning_rate():
    params = init_params(0, 2, 2, 2)
    with pytest.raises(ValueError):
        sgd_step(params, params, 0.0)


@pytest.mark.parametrize("learning_rate", [math.nan, math.inf])
def test_sgd_rejects_non_finite_learning_rate(learning_rate):
    params = init_params(0, 2, 2, 2)
    with pytest.raises(ValueError, match="learning rate must be positive"):
        sgd_step(params, params, learning_rate)


# ---- checkpoints ----


def test_checkpoint_round_trip(tmp_path):
    cfg = TrainConfig(epochs=3, warmup_epochs=1, seed=12)
    params = init_params(21, 4, 3, 2)
    path = tmp_path / "model.json"
    save_model(params, path, seed=21, config=cfg)
    loaded, seed, echo = load_model(path)
    for a, b in zip(params.as_tuple(), loaded.as_tuple()):
        assert np.array_equal(a, b)
    assert seed == 21
    assert echo == cfg.as_dict()
    assert echo["lambda"] == 1.0


def test_checkpoint_bytes_deterministic(tmp_path):
    params = init_params(5, 3, 2, 2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(params, p1, seed=5)
    save_model(params, p2, seed=5)
    assert p1.read_bytes() == p2.read_bytes()
    _, _, echo = load_model(p1)
    assert echo is None


@pytest.mark.parametrize("config", [None, TrainConfig(epochs=3, warmup_epochs=1, seed=9)])
def test_checkpoint_bytes_match_generic_serializer(tmp_path, config):
    params = init_params(3, 7, 5, 4)
    params.b2[1] = -0.0
    params.W2[0, 0] = 5e-324
    path = tmp_path / "model.json"
    save_model(params, path, seed=3, config=config)
    assert path.read_bytes() == oracles.checkpoint_json(params, 3, config).encode()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_model(path)
    path.write_text('{"dims": {"n_features": 2}}')
    with pytest.raises(ValueError, match="malformed checkpoint"):
        load_model(path)


def test_save_model_rejects_non_finite(tmp_path):
    params = ModelParams(np.array([[np.inf]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(ValueError, match="non-finite"):
        save_model(params, tmp_path / "m.json", seed=0)


# ---- configuration ----


def test_train_config_defaults_round_trip():
    cfg = TrainConfig()
    d = cfg.as_dict()
    assert d["lambda"] == 1.0 and "lambda_" not in d
    assert TrainConfig(**{("lambda_" if k == "lambda" else k): v for k, v in d.items()}) == cfg


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"epochs": 0},
        {"batch_size": 0},
        {"lambda_": -0.5},
        {"warmup_epochs": -1},
        {"warmup_epochs": 31},
        {"tau": 0.5},
        {"tau": 1.0},
        {"hidden_units": 0},
        {"seed": -1},
        {"correction_mode": "sometimes"},
        {"epochs": True},
        {"learning_rate": "fast"},
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [({"epochs": 2.7}, "epochs"), ({"seed": 1.9}, "seed"), ({"hidden_units": 3.99}, "hidden_units"),
     ({"batch_size": float("inf")}, "batch_size"), ({"warmup_epochs": float("nan")}, "warmup_epochs")],
)
def test_train_config_rejects_fractional_integers(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        TrainConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"lambda_": None}, "lambda must be a number, got None"),
     ({"lambda_": True}, "lambda must be a number, got True"),
     ({"epochs": "6"}, "epochs must be a number, got '6'"),
     ({"learning_rate": "0.1"}, "learning_rate must be a number, got '0.1'"),
     ({"seed": " 7 "}, "seed must be a number, got ' 7 '"),
     ({"tau": "nan"}, "tau must be a number, got 'nan'"),
     # an integer past the float range reads as the float token 1e400 does
     ({"tau": 10**400}, "tau must be finite, got inf"),
     ({"lambda_": -(10**400)}, "lambda must be finite, got -inf"),
     ({"epochs": 10**400}, "epochs must be an integer, got inf")],
)
def test_train_config_messages_name_the_config_key(kwargs, message):
    with pytest.raises(ValueError) as err:
        TrainConfig(**kwargs)
    assert str(err.value) == message


def test_train_config_coerces_json_numbers():
    cfg = TrainConfig(epochs=3.0, warmup_epochs=0, learning_rate=1, seed=2.0)
    assert cfg.epochs == 3 and isinstance(cfg.epochs, int)
    assert cfg.learning_rate == 1.0 and isinstance(cfg.learning_rate, float)
