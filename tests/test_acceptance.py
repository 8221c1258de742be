"""Acceptance suite: the seven shipped guarantees, one printed verdict line each.

Criterion 4 pins a full experiment; its regression bounds were captured by
running that exact pipeline once and widening the observed values by 20%.
"""

import io
import itertools
import json
import random
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from rulebound import (
    Dataset,
    LabelVocabulary,
    Literal,
    Rule,
    RuleSet,
    TrainConfig,
    audit,
    correction_report,
    evaluate,
    init_params,
    inject_noise,
    parse_rules,
    save_model,
    sgd_step,
    synthesize,
    total_loss_and_grads,
    train,
    violation_matrix,
)
from rulebound.cli import run as cli_run
from rulebound.rules import (
    DuplicateLiteralError,
    EmptyAntecedentError,
    InvalidWeightError,
    RuleSyntaxError,
    UnknownLabelError,
    column_table,
    format_rule,
    rule_products,
)

import oracles


@contextmanager
def _criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {title}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {title}")


# ---- criterion 1: gradient oracle ----


def test_criterion_1_gradients_match_finite_differences():
    with _criterion(1, "analytic gradients vs central differences"):
        t0 = time.perf_counter()
        rng = random.Random(2024)
        npr = np.random.default_rng(2024)
        lambdas = [0.0, 0.5, 2.0]
        for case in range(20):
            n = rng.randint(2, 8)
            d = rng.randint(1, 5)
            h = rng.randint(1, 6)
            n_labels = rng.randint(2, 4)
            vocab = LabelVocabulary(tuple(f"l{i}" for i in range(n_labels)))
            rs = oracles.random_ruleset(
                rng, vocab, rng.randint(0, 4), weights=(1.0, 0.5, 2.0)
            )
            lambda_ = lambdas[case % 3]
            params = init_params(case, d, h, n_labels)
            X = npr.normal(size=(n, d))
            T = npr.integers(0, 2, size=(n, n_labels)).astype(np.float64)
            M = (npr.random((n, n_labels)) < 0.8).astype(np.float64)
            if not M.any():
                M[0, 0] = 1.0
            _, analytic = total_loss_and_grads(params, X, T, M, rs, lambda_)
            numeric = oracles.fd_param_grads(
                lambda p: total_loss_and_grads(p, X, T, M, rs, lambda_)[0],
                params,
                h=1e-6,
            )
            for a, b in zip(vars(analytic).values(), vars(numeric).values()):
                err = oracles.max_rel_err(a, b, floor=1e-3)
                assert err < 1e-5, (case, err)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"gradient oracle took {elapsed:.2f} s"


# ---- criterion 2: crisp consistency, exhaustive ----


def test_criterion_2_penalty_agrees_with_hard_semantics_everywhere():
    with _criterion(2, "relaxed penalty equals hard violation at every vertex"):
        t0 = time.perf_counter()
        labels = range(4)

        def polarised(subset):
            return itertools.product(*[(Literal(l), Literal(l, negated=True)) for l in subset])

        antecedents = [
            a
            for k in (1, 2, 3)
            for subset in itertools.combinations(labels, k)
            for a in polarised(subset)
        ]
        consequents = [()] + [
            c
            for k in (1, 2, 3)
            for subset in itertools.combinations(labels, k)
            for c in polarised(subset)
        ]
        assert len(antecedents) == 64 and len(consequents) == 65
        vertices = list(itertools.product((0, 1), repeat=4))
        P = np.array(vertices, dtype=np.float64)
        vocab = LabelVocabulary(("a", "b", "c", "d"))
        rs = RuleSet(vocab, tuple(Rule(ant, cons) for ant in antecedents for cons in consequents))
        # the forward kernel of domain_loss and the crisp checks: rules x vertices
        relaxed = rule_products(column_table(P), rs.factor_index)
        checked = 0
        for rule, degrees in zip(rs.rules, relaxed):
            hard = np.array(
                [0.0 if oracles.crisp_satisfied(rule, y) else 1.0 for y in vertices]
            )
            assert np.array_equal(degrees, hard), format_rule(rule, vocab)
            checked += len(vertices)
        assert checked == 64 * 65 * 16
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"crisp consistency sweep took {elapsed:.2f} s"


# ---- criterion 3: parser suite ----


def test_criterion_3_parser_round_trip_and_errors():
    with _criterion(3, "format/parse round trip, MUTEX counts, parse errors"):
        rng = random.Random(808)
        vocab = LabelVocabulary(tuple(f"lab{i}" for i in range(6)))
        weights = (1.0, 0.5, 2.5, 0.125, 3.0)
        for i in range(1000):
            raw = oracles.random_rule(rng, 6, weights=weights)
            # formatting canonicalizes literal order, so round-trip identity
            # is stated on the canonical form
            rule = Rule(
                tuple(sorted(raw.antecedent)), tuple(sorted(raw.consequent)), raw.weight
            )
            text = format_rule(rule, vocab)
            parsed = parse_rules(text, vocab=vocab)
            assert len(parsed.rules) == 1
            assert parsed.rules[0] == rule, text
            if i % 10 == 0:  # literal order never changes meaning
                vertices = list(itertools.product((0, 1), repeat=6))
                expected = [[not oracles.crisp_satisfied(raw, y)] for y in vertices]
                assert violation_matrix(parsed, vertices).tolist() == expected, text

        for k in range(2, 7):
            names = ", ".join(f"lab{i}" for i in range(k))
            expanded = parse_rules(f"MUTEX({names})", vocab=vocab)
            assert len(expanded.rules) == k * (k - 1) // 2

        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules("lab0 & => lab1", vocab=vocab)
        assert exc.value.line == 1 and exc.value.column is not None
        with pytest.raises(UnknownLabelError):
            parse_rules("lab0 => nosuch", vocab=vocab)
        with pytest.raises(DuplicateLiteralError):
            parse_rules("lab0 & lab0 => lab1", vocab=vocab)
        with pytest.raises(InvalidWeightError):
            parse_rules("lab0 => lab1 @ -1", vocab=vocab)
        with pytest.raises(EmptyAntecedentError):
            parse_rules("=> lab1", vocab=vocab)


# ---- criterion 4: the noise-recovery experiment ----

# Captured from one run of the exact pipeline below (synthesis seed 7, noise
# seed 11, training seed 4 in both arms); the bounds are those values +-20%.
_OBSERVED = {
    "n_flipped": 410,
    "full_macro_f1": 0.78255209523151203,
    "base_macro_f1": 0.77053395028453975,
    "f1_margin": 0.012018144946972287,
    "cvr_margin": 0.015333333333333332,
    "recovery_rate": 0.97560975609756095,
    "right_minus_wrong": 400,
}


def _band(value, lo_factor=0.8, hi_factor=1.2):
    return lo_factor * value, hi_factor * value


def test_criterion_4_noise_recovery_experiment():
    with _criterion(4, "rule-guided training beats the plain baseline"):
        t0 = time.perf_counter()
        vocab = LabelVocabulary(("A", "B", "C", "D", "E"))
        rs = parse_rules("MUTEX(A, B)\nA => C\nD => !C\n", vocab=vocab)
        clean = synthesize(7, 2000, 8, rs, k_patterns=6)
        assert audit(clean, rs).violating_samples == 0
        noisy = inject_noise(clean, 0.2, 11, "violating", rs=rs)

        shared = dict(
            learning_rate=0.05, epochs=60, batch_size=32, warmup_epochs=15,
            tau=0.9, hidden_units=16, seed=4,
        )
        full_cfg = TrainConfig(lambda_=1.0, correction_mode="relabel", **shared)
        base_cfg = TrainConfig(lambda_=0.0, correction_mode="off", **shared)
        p_full, _, s_full = train(noisy, rs, full_cfg)
        p_base, _, _ = train(noisy, rs, base_cfg)
        r_full = evaluate(p_full, noisy, rs)
        r_base = evaluate(p_base, noisy, rs)
        stats = correction_report(s_full, noisy)

        assert r_full.eval_target == "clean" and r_base.eval_target == "clean"

        # (a) constrained predictions violate the rules less often
        assert r_full.cvr <= r_base.cvr
        lo, hi = _band(_OBSERVED["cvr_margin"])
        assert lo <= r_base.cvr - r_full.cvr <= hi

        # (b) and score at least as well against the clean labels
        assert r_full.macro_f1 >= r_base.macro_f1
        lo, hi = _band(_OBSERVED["f1_margin"])
        assert lo <= r_full.macro_f1 - r_base.macro_f1 <= hi
        lo, hi = _band(_OBSERVED["full_macro_f1"])
        assert lo <= r_full.macro_f1 <= hi
        lo, hi = _band(_OBSERVED["base_macro_f1"])
        assert lo <= r_base.macro_f1 <= hi

        # (c) self-correction recovered flips, and mostly correctly
        assert stats.recovery_rate is not None and stats.recovery_rate > 0
        assert stats.n_corrected_right > stats.n_corrected_wrong
        lo, hi = _band(_OBSERVED["recovery_rate"])
        assert lo <= stats.recovery_rate <= min(hi, 1.0)
        lo, hi = _band(_OBSERVED["right_minus_wrong"])
        assert lo <= stats.n_corrected_right - stats.n_corrected_wrong <= hi
        lo, hi = _band(_OBSERVED["n_flipped"])
        assert lo <= stats.n_flipped <= hi
        # violating-mode flips always touch a label of a newly violated rule,
        # so flagging catches every one of them
        assert stats.n_undetected == 0

        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"experiment took {elapsed:.1f} s"


# ---- criterion 5: degeneracy to plain BCE ----


def test_criterion_5_off_mode_is_bitwise_plain_bce(tmp_path):
    with _criterion(5, "mode off with lambda 0 equals a plain BCE loop"):
        rs = parse_rules("a => b\nMUTEX(b, c)")
        ds = synthesize(31, 120, 5, rs, k_patterns=4)
        cfg = TrainConfig(
            learning_rate=0.08, epochs=4, batch_size=16, lambda_=0.0,
            warmup_epochs=0, hidden_units=6, seed=13, correction_mode="off",
        )
        params, _, _ = train(ds, rs, cfg)

        ref = init_params(13, 5, 6, 3)
        T = ds.Y.astype(np.float64)
        M = np.ones_like(T)
        empty = RuleSet(ds.names, ())
        for epoch in range(1, 5):
            order = np.random.default_rng([13, epoch]).permutation(120)
            for start in range(0, 120, 16):
                rows = order[start : start + 16]
                _, grads = total_loss_and_grads(ref, ds.X[rows], T[rows], M[rows], empty, 0.0)
                ref = sgd_step(ref, grads, 0.08)

        a_path, b_path = tmp_path / "schedule.json", tmp_path / "reference.json"
        save_model(params, a_path, seed=13, config=None)
        save_model(ref, b_path, seed=13, config=None)
        assert a_path.read_bytes() == b_path.read_bytes()


# ---- criterion 6: CLI determinism ----


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run(argv)
    assert code == 0, argv
    return buf.getvalue()


def test_criterion_6_cli_subcommands_are_deterministic(tmp_path):
    with _criterion(6, "every CLI subcommand is byte-deterministic"):
        rules = tmp_path / "rules.txt"
        rules.write_text("MUTEX(a, b)\na => c\n")
        outputs = {}
        for tag in ("one", "two"):
            work = tmp_path / tag
            work.mkdir()
            data = work / "data.jsonl"
            noisy = work / "noisy.jsonl"
            model = work / "model.json"
            history = work / "history.jsonl"
            report = work / "report.json"
            report2 = work / "report_eval.json"
            stdout = []
            stdout.append(_run_cli(
                ["synth", "--rules", str(rules), "--out", str(data), "--n", "40",
                 "--dims", "3", "--patterns", "4", "--seed", "5"]
            ))
            stdout.append(_run_cli(
                ["noise", "--in", str(data), "--out", str(noisy), "--rho", "0.25",
                 "--mode", "violating", "--seed", "2", "--rules", str(rules)]
            ))
            stdout.append(_run_cli(["audit", "--rules", str(rules), "--data", str(noisy), "--json"]))
            stdout.append(_run_cli(
                ["train", "--rules", str(rules), "--data", str(noisy), "--epochs", "3",
                 "--warmup", "1", "--batch", "8", "--hidden", "4", "--seed", "1",
                 "--out-model", str(model), "--out-history", str(history),
                 "--out-report", str(report)]
            ))
            stdout.append(_run_cli(
                ["eval", "--rules", str(rules), "--data", str(noisy), "--model", str(model),
                 "--out-report", str(report2)]
            ))
            stdout.append(_run_cli(
                ["eval", "--rules", str(rules), "--data", str(noisy), "--model", str(model)]
            ))
            outputs[tag] = {
                "stdout": stdout,
                "files": {
                    p.name: p.read_bytes()
                    for p in (data, noisy, model, history, report, report2)
                },
            }
        assert outputs["one"]["stdout"] == outputs["two"]["stdout"]
        assert outputs["one"]["files"] == outputs["two"]["files"]


# ---- criterion 7: audit oracle ----


def test_criterion_7_audit_matches_brute_force_counts():
    with _criterion(7, "audit counts equal truth-table counts"):
        rng = random.Random(515)
        npr = np.random.default_rng(515)
        for case in range(100):
            n_labels = rng.randint(2, 4)
            vocab = LabelVocabulary(tuple(f"l{i}" for i in range(n_labels)))
            rs = oracles.random_ruleset(rng, vocab, rng.randint(1, 5))
            n = rng.randint(5, 30)
            Y = npr.integers(0, 2, size=(n, n_labels))
            ds = Dataset(npr.normal(size=(n, 2)), Y, vocab)
            report = audit(ds, rs)
            expected_counts = oracles.brute_force_counts(rs.rules, Y, n_labels)
            assert [row["count"] for row in report.per_rule] == expected_counts, case
            bad_rows = {
                i
                for i in range(n)
                if any(
                    tuple(int(v) for v in Y[i]) in oracles.violating_assignments(r, n_labels)
                    for r in rs.rules
                )
            }
            assert {row["sample"] for row in report.per_sample} == bad_rows
            assert report.violating_samples == len(bad_rows)
            assert report.fraction == len(bad_rows) / n
