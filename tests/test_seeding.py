"""Synthesis computes each row's generator state instead of building it: the
states and draws against numpy's own SeedSequence and default_rng, bit for
bit, so that a numpy upgrade which changed either fails here; and the grown
candidate blocks of the pattern search against the one-draw reference."""

import numpy as np
import pytest

from rulebound import LabelVocabulary, SynthesisBudgetError, parse_rules, synthesize
from rulebound import data

import oracles

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# seeds of one, two and three 32-bit words, and the word boundaries
SEEDS = st.one_of(
    st.integers(0, 2**70),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70]),
)
ROWS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8)


@settings(deadline=None, database=None, max_examples=200)
@given(SEEDS, ROWS)
def test_row_states_equal_seed_sequence(seed, rows):
    states = data._row_seed_states(seed, np.array(rows, dtype=np.uint32))
    assert states.dtype == np.uint64 and states.shape == (len(rows), 4)
    for i, state in zip(rows, states):
        expected = np.random.SeedSequence([seed, 1, i]).generate_state(4, np.uint64)
        assert state.tobytes() == expected.tobytes()


@settings(deadline=None, database=None, max_examples=100)
@given(SEEDS, ROWS, st.integers(2, 40), st.integers(1, 20))
def test_row_generators_draw_as_default_rng(seed, rows, k, dims):
    for i, rng in zip(rows, data._row_generators(seed, np.array(rows, dtype=np.uint32))):
        reference = np.random.default_rng([seed, 1, i])
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.integers(k) == reference.integers(k)
        assert rng.normal(0.0, 0.3, size=dims).tobytes() == reference.normal(0.0, 0.3, size=dims).tobytes()


def test_row_generators_cover_every_row_in_order():
    rows = np.arange(300, dtype=np.uint32)
    draws = [rng.random() for rng in data._row_generators(2**33 + 1, rows)]
    assert draws == [np.random.default_rng([2**33 + 1, 1, i]).random() for i in range(300)]


def test_synthesis_rejects_rows_past_the_32_bit_index():
    rs = parse_rules("a => b")
    with pytest.raises(ValueError, match="at most 2\\*\\*32 samples"):
        synthesize(0, 2**32 + 1, 1, rs, 2)


@pytest.mark.parametrize(
    "rules, k, n_consistent",
    [("a => FALSE\n!a => FALSE", 4, 0), ("b => FALSE\nc => FALSE\nd => FALSE", 4, 2)],
    ids=["unsatisfiable", "two-patterns"],  # the second leaves a free: 0000 and 1000
)
def test_budget_runs_out_inside_a_grown_block(monkeypatch, rules, k, n_consistent):
    rs = parse_rules(rules, LabelVocabulary(("a", "b", "c", "d")))
    blocks = []
    check = data.violation_matrix

    def recording(rs, Y):
        blocks.append(len(Y))
        return check(rs, Y)

    monkeypatch.setattr(data, "violation_matrix", recording)
    with pytest.raises(SynthesisBudgetError) as grown:
        synthesize(3, 10, 2, rs, k)
    with pytest.raises(SynthesisBudgetError) as per_row:
        oracles.synthesize_per_row(3, 10, 2, rs, k)
    assert str(grown.value) == str(per_row.value) == (
        f"no {k} distinct rule-consistent label vectors within {10_000 * k} rejections"
    )
    # every rejection, every acceptance and the raising draw were examined; the last block
    # grew past the missing patterns, and the search stopped before its end
    examined = 10_000 * k + n_consistent + 1
    assert len(blocks) > 2 and blocks[-1] > k
    assert sum(blocks[:-1]) < examined < sum(blocks)
    # the budget is checked per draw, and never sizes a block
    assert blocks == sorted(blocks)


@pytest.mark.parametrize("seed", [16, 28, 56, 89])
def test_budget_runs_out_on_the_draw_that_would_find_the_last_pattern(monkeypatch, seed):
    # 3 rejections per pattern make a budget of 6; each seed draws its 2nd consistent
    # pattern right after its 6th rejection, so a search that examined that draw would pass
    rs = parse_rules("a => b\nb => c")
    oracles.synthesize_per_row(seed, 10, 2, rs, 2, budget=7)
    with pytest.raises(SynthesisBudgetError) as per_row:
        oracles.synthesize_per_row(seed, 10, 2, rs, 2, budget=6)
    monkeypatch.setattr(data, "_REJECTIONS_PER_PATTERN", 3)
    with pytest.raises(SynthesisBudgetError) as grown:
        synthesize(seed, 10, 2, rs, 2)
    assert str(grown.value) == str(per_row.value) == (
        "no 2 distinct rule-consistent label vectors within 6 rejections"
    )


def test_blocks_stay_within_the_row_cap_when_patterns_exceed_it(monkeypatch):
    # 24 of the 32 vectors over five labels keep a => b; the search needs 12 of them
    # from blocks of at most 8 rows, so even the first block is cut to the cap
    rs = parse_rules("a => b", LabelVocabulary(("a", "b", "c", "d", "e")))
    blocks = []
    check = data.violation_matrix

    def recording(rs, Y):
        blocks.append(len(Y))
        return check(rs, Y)

    monkeypatch.setattr(data, "_SEARCH_ROWS", 8)
    monkeypatch.setattr(data, "violation_matrix", recording)
    grown = synthesize(5, 30, 3, rs, 12)
    assert blocks and max(blocks) <= 8
    per_row = oracles.synthesize_per_row(5, 30, 3, rs, 12)
    assert grown.X.tobytes() == per_row.X.tobytes()
    assert grown.Y.tobytes() == per_row.Y.tobytes()
    assert grown.clean_Y.tobytes() == per_row.clean_Y.tobytes()
