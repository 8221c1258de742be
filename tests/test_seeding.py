"""Synthesis computes each row's generator state and draws instead of asking
numpy for them: the states and draws against numpy's own SeedSequence and
default_rng, bit for bit, so that a numpy upgrade which changed either fails
here; each row's pick and normals, replayed from its PCG64 words, against
`integers` and `normal`, with every branch of the replay taken, the rows
numpy's bounded draw rejects included; the ziggurat tables the replay reads
from numpy against numpy's own draws; and the grown candidate blocks of the
pattern search against the one-draw reference."""

import collections
import tracemalloc

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
    for i, rng in zip(rows, data._row_generators(*data._pcg64_seeded(seed, np.array(rows, dtype=np.uint32)))):
        reference = np.random.default_rng([seed, 1, i])
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.integers(k) == reference.integers(k)
        assert rng.normal(0.0, 0.3, size=dims).tobytes() == reference.normal(0.0, 0.3, size=dims).tobytes()


@settings(deadline=None, database=None, max_examples=100)
@given(SEEDS, st.integers(1, 12), st.one_of(st.integers(2, 40), st.integers(2, 2**20)), st.integers(1, 20))
def test_row_draws_equal_default_rng(seed, n, k, dims):
    picks, noise = data._row_draws(seed, n, dims, k)
    assert picks.dtype == np.intp and noise.shape == (n, dims)
    for i in range(n):
        reference = np.random.default_rng([seed, 1, i])
        assert picks[i] == reference.integers(k)
        assert noise[i].tobytes() == reference.normal(0.0, 0.3, size=dims).tobytes()


def test_rows_whose_bounded_draw_rejects_are_drawn_again(monkeypatch):
    # numpy's bounded draw rejects a word with odds below k / 2**32; at k = 1048321
    # 9 of these 20000 rows do, and their picks come from a second 32-bit output
    seed, n, k = 5, 20_000, 1_048_321
    calls = []
    pcg64_seeded = data._pcg64_seeded

    def recording(seed, rows):
        calls.append(rows.tolist())
        return pcg64_seeded(seed, rows)

    monkeypatch.setattr(data, "_pcg64_seeded", recording)
    monkeypatch.setattr(data, "_DRAW_ROWS", n)  # one block, so one seeding of every row
    picks, noise = data._row_draws(seed, n, 2, k)
    rejected = []
    for i in range(n):
        reference = np.random.default_rng([seed, 1, i])
        assert picks[i] == reference.integers(k)
        # a draw that took both halves of the first word left no 32-bit half buffered
        if not reference.bit_generator.state["has_uint32"]:
            rejected.append(i)
        assert noise[i].tobytes() == reference.normal(0.0, 0.3, size=2).tobytes()
    assert len(rejected) == 9
    assert calls == [list(range(n)), rejected]


def test_a_negative_zero_normal_is_scaled_to_positive_zero(monkeypatch):
    # normal(0.0, 0.3) returns 0.0 + 0.3 * z, which is +0.0 for z = -0.0; the word
    # of layer 2 with sign 1 and rabs = 0 is drawn as -0.0 by the fast path
    negative_zero = 1 << 8 | 2
    outputs = []
    pcg64_output = data._pcg64_output

    def forcing(hi, lo):
        words = pcg64_output(hi, lo)
        outputs.append(len(words))
        if len(outputs) == 2:  # the block's first normal words; the first output is the picks' word
            words[:] = negative_zero
        return words

    monkeypatch.setattr(data, "_pcg64_output", forcing)
    _, noise = data._row_draws(3, 50, 4, 6)
    assert outputs == [50] * 5
    for i in range(50):
        reference = np.random.default_rng([3, 1, i])
        reference.integers(6)
        reference.bit_generator.random_raw()  # the forced word, drawn as one
        z = np.concatenate([[-0.0], reference.standard_normal(size=3)])
        assert noise[i].tobytes() == (0.0 + 0.3 * z).tobytes()
    assert not np.signbit(noise[:, 0]).any()


def _forced_draw(word):
    """standard_normal on the word `word`, and whether it read that word only."""
    bit_generator = np.random.PCG64(0)
    data._forced(bit_generator, word)
    z = np.random.Generator(bit_generator).standard_normal()
    # the state (0, word) outputs word, so one step on the generator is in it
    return z, bit_generator.state["state"]["state"] == word


def test_ziggurat_tables_are_numpys_draws_and_bounds():
    scale, bound = data._ziggurat_tables()
    assert scale.shape == bound.shape == (512,)
    assert scale[256:].tobytes() == (-scale[:256]).tobytes()
    assert bound[256:].tobytes() == bound[:256].tobytes()
    assert bound[1] == 0  # layer 1 never takes the fast path
    for idx in set(range(256)) - {1}:
        # rabs = 1 and sign 0 draws wi[idx] on the fast path
        z, one_word = _forced_draw(1 << 9 | idx)
        assert one_word and z == scale[idx]
        # the largest rabs the replay takes as fast is fast in numpy too: the
        # bound never exceeds numpy's threshold
        rabs = int(bound[idx]) - 1
        assert 2**51 < rabs < 2**52
        for sign in (0, 1):
            z, one_word = _forced_draw(rabs << 9 | sign << 8 | idx)
            assert one_word and z == rabs * scale[sign << 8 | idx]


def test_row_draws_take_every_branch_at_widths_1_to_80(monkeypatch):
    # at k = 1048321 one of seed 28's first 150 rows rejects its pick, and five
    # leave the fast path first in layer 0's tail
    seed, n, k = 28, 150, 1_048_321
    _, bound = data._ziggurat_tables()
    monkeypatch.setattr(data, "_DRAW_ROWS", 64)  # blocks of 64 rows, the last one part full
    finished = []
    row_generators = data._row_generators

    def recording(hi, *limbs):
        finished.append(len(hi))
        return row_generators(hi, *limbs)

    monkeypatch.setattr(data, "_row_generators", recording)
    branches = collections.Counter()
    for width in range(1, 81):
        finished.clear()
        picks, noise = data._row_draws(seed, n, width, k)
        expected_finished = 0
        for i in range(n):
            reference = np.random.default_rng([seed, 1, i])
            assert picks[i] == reference.integers(k)
            rejected = not reference.bit_generator.state["has_uint32"]
            assert noise[i].tobytes() == reference.normal(0.0, 0.3, size=width).tobytes()
            # the row's normal words, read as the replay reads them with its own tables
            words = np.random.default_rng([seed, 1, i]).bit_generator.random_raw(width + 1)[1:]
            rabs = ((words >> np.uint64(9)) & np.uint64(2**52 - 1)).astype(np.float64)
            slow = np.flatnonzero(rabs >= bound[(words & np.uint64(0x1FF)).astype(np.intp)])
            if rejected:
                branch = "rejected pick"
            elif width >= data._REPLAY_WIDTH_LIMIT:
                branch = "drawn by numpy"
            elif not len(slow):
                branch = "all fast"
            else:
                layer = int(words[slow[0]] & np.uint64(0xFF))
                branch = {0: "layer-0 tail", 1: "layer 1"}.get(layer, "other slow layer")
            branches[branch] += 1
            expected_finished += branch != "all fast"
        # the rows the replay handed to numpy, to finish or to draw again
        assert sum(finished) == expected_finished
    assert set(branches) == {
        "rejected pick", "drawn by numpy", "all fast", "layer-0 tail", "layer 1", "other slow layer"
    }, branches


def test_row_draws_memory_stays_flat_in_the_row_count():
    data._ziggurat_tables()
    tracemalloc.start()
    try:
        picks, noise = data._row_draws(12, 100_000, 16, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the outputs, and temporaries of a few blocks
    assert peak < 1.25 * (picks.nbytes + noise.nbytes)


def test_row_generators_cover_every_row_in_order():
    rows = np.arange(300, dtype=np.uint32)
    draws = [rng.random() for rng in data._row_generators(*data._pcg64_seeded(2**33 + 1, rows))]
    assert draws == [np.random.default_rng([2**33 + 1, 1, i]).random() for i in range(300)]


def test_synthesis_rejects_rows_past_the_32_bit_index():
    rs = parse_rules("a => b")
    with pytest.raises(ValueError, match="at most 2\\*\\*32 samples"):
        synthesize(0, 2**32 + 1, 1, rs, 2)


@pytest.mark.usefixtures("time_limit")
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


@pytest.mark.usefixtures("time_limit")
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
