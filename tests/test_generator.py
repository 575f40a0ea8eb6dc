"""The synthetic generator against its scalar-draw reference.

``generate_synthetic`` computes its draws from PCG64's raw words
(``data._Pcg64Draws``). ``generate_synthetic_oracle`` below is the
straightforward loop of scalar ``Generator`` calls it replaces; both must
give the same records, ground truth and final generator state.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinctr import data
from dinctr.data import GroundTruth, Records, SyntheticConfig, _Pcg64Draws, generate_synthetic
from dinctr.numerics import make_rng, sigmoid


def generate_synthetic_oracle(config: SyntheticConfig):
    """The generator as one scalar ``Generator`` call per draw; returns the
    records, the ground truth and the generator after its last draw."""
    config.validate()
    rng = make_rng(config.seed)
    K = config.num_clusters

    cluster_members: list[list[int]] = [[] for _ in range(K)]
    for item in range(config.num_items):
        cluster_members[item % K].append(item)

    user_behaviors: list[list[int]] = []
    for _ in range(config.num_users):
        dominant = int(rng.integers(K))
        n_b = int(rng.integers(config.behaviors_min, config.behaviors_max + 1))
        history = []
        for _ in range(n_b):
            if K == 1 or rng.random() < config.cluster_concentration:
                cluster = dominant
            else:
                offset = 1 + int(rng.integers(K - 1))
                cluster = (dominant + offset) % K
            members = cluster_members[cluster]
            history.append(members[int(rng.integers(len(members)))])
        user_behaviors.append(history)

    users, items, lengths, labels, timestamps, bids = [], [], [], [], [], []
    true_probs = []
    for i in range(config.impressions):
        user = int(rng.integers(config.num_users))
        ad = int(rng.integers(config.num_items))
        history = user_behaviors[user]
        ad_cluster = ad % K
        matches = sum(1 for item in history if item % K == ad_cluster)
        match_fraction = matches / len(history)
        p = sigmoid(config.base_logit + config.signal_strength * match_fraction)
        label = 1 if rng.random() < p else 0
        bid = float(rng.uniform(0.1, 2.0))
        users.append(f"u{user}")
        items += [f"i{ad}", *(f"i{item}" for item in history)]
        lengths.append(len(history))
        labels.append(label)
        timestamps.append(data._BASE_TIMESTAMP + i)
        bids.append(bid)
        true_probs.append(p)
    records = Records.of(users, items, lengths, labels, timestamps, bids)

    truth = GroundTruth(
        item_clusters={f"i{item}": item % K for item in range(config.num_items)},
        true_probs=true_probs,
        config=config.to_dict(),
    )
    return records, truth, rng


def generate_with_rng(config: SyntheticConfig):
    """``generate_synthetic`` plus the generator it drew from."""
    made = []

    def capture(seed, stream=0):
        made.append(make_rng(seed, stream))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "make_rng", capture)
        records, truth = generate_synthetic(config)
    (rng,) = made
    return records, truth, rng


def assert_same_as_oracle(config: SyntheticConfig):
    records, truth, rng = generate_with_rng(config)
    want_records, want_truth, want_rng = generate_synthetic_oracle(config)
    assert records == want_records
    assert truth.true_probs == want_truth.true_probs
    assert truth.item_clusters == want_truth.item_clusters
    assert truth.config == want_truth.config
    assert rng.bit_generator.state == want_rng.bit_generator.state
    return rng, want_rng


@st.composite
def small_configs(draw):
    num_clusters = draw(st.integers(1, 6))
    behaviors_min = draw(st.integers(1, 5))
    return SyntheticConfig(
        num_users=draw(st.integers(1, 8)),
        num_items=draw(st.integers(num_clusters, 3 * num_clusters + 4)),
        num_clusters=num_clusters,
        behaviors_min=behaviors_min,
        behaviors_max=draw(st.integers(behaviors_min, behaviors_min + 4)),
        impressions=draw(st.integers(1, 40)),
        signal_strength=draw(st.floats(0.0, 20.0)),
        base_logit=draw(st.floats(-5.0, 5.0)),
        cluster_concentration=draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0))),
        seed=draw(st.integers(0, 2**32)),
    )


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(config=small_configs())
    @example(config=SyntheticConfig(num_users=6, num_items=9, num_clusters=1, impressions=30, seed=4))
    @example(config=SyntheticConfig(num_users=1, num_items=12, num_clusters=3, impressions=30, seed=5))
    @example(config=SyntheticConfig(num_users=7, num_items=5, num_clusters=5, impressions=30, seed=6))
    @example(config=SyntheticConfig(num_users=7, num_items=20, behaviors_min=3, behaviors_max=3, impressions=30, seed=7))
    @example(config=SyntheticConfig(num_users=7, num_items=20, cluster_concentration=1.0, impressions=30, seed=8))
    def test_small_configs(self, config):
        assert_same_as_oracle(config)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_config(self, seed):
        assert_same_as_oracle(SyntheticConfig(seed=seed, impressions=2_000))

    def test_stream_continues_after_generation(self):
        """A draw after generating continues the scalar calls' stream, from
        either buffered-half state."""
        ends = set()
        for seed in range(1, 9):
            config = SyntheticConfig(num_users=5, num_items=12, num_clusters=3, impressions=7 + seed, seed=seed)
            rng, want_rng = assert_same_as_oracle(config)
            ends.add(rng.bit_generator.state["has_uint32"])
            after = [rng.integers(1000), rng.random(), rng.integers(7), rng.integers(2**40), rng.integers(3)]
            want = [want_rng.integers(1000), want_rng.random(), want_rng.integers(7), want_rng.integers(2**40),
                    want_rng.integers(3)]
            assert after == want
        assert ends == {0, 1}


def replay_pair(seed: int, buffered_half: bool):
    """A generator and a replay of an identical one, both with (or both
    without) a buffered 32-bit half."""
    rng, twin = make_rng(seed), make_rng(seed)
    if buffered_half:
        rng.integers(2)
        twin.integers(2)
    assert rng.bit_generator.state["has_uint32"] == int(buffered_half)
    return rng, twin, _Pcg64Draws(twin)


def halves(seed: int, n_words: int) -> np.ndarray:
    """The 32-bit halves ``integers`` consumes, in order: low, then high."""
    words = make_rng(seed).bit_generator.random_raw(n_words)
    return np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()


class TestReplay:
    @pytest.mark.parametrize("buffered_half", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 3 * 2**61])
    def test_matches_generator(self, n, buffered_half):
        rng, twin, draws = replay_pair(11, buffered_half)
        got, want = [], []
        for step in range(40):
            if step % 3 == 2:
                got.append(draws.random())
                want.append(rng.random())
            else:
                got.append(draws.integers(n))
                want.append(int(rng.integers(n)))
        draws.sync()
        assert got == want
        assert twin.bit_generator.state == rng.bit_generator.state

    def test_mixed_ranges_keep_the_buffered_half(self):
        """A full-word draw between two 32-bit draws leaves the buffered
        half for the second one."""
        ranges = [7, 2**40, 7, 2**32 + 1, 100_000, 1, 3, 2**32, 5]
        rng, twin, draws = replay_pair(12, False)
        for _ in range(10):
            for n in ranges:
                assert draws.integers(n) == int(rng.integers(n))
                assert draws.random() == rng.random()
        draws.sync()
        assert twin.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("n", [100_000, 3_000_000_000])
    def test_lemire_rejection(self, n):
        """At the first half word Lemire's method rejects, both draw again."""
        seed = 13
        x = halves(seed, 1 << 17)
        leftover = (x * np.uint64(n)) & np.uint64(0xFFFFFFFF)
        rejected = np.flatnonzero(leftover < np.uint64((2**32 - n) % n))
        assert rejected.size, "no rejection in the searched stream"
        first = int(rejected[0])
        rng, twin, draws = replay_pair(seed, False)
        got = [draws.integers(n) for _ in range(first + 3)]
        assert got == [int(v) for v in (rng.integers(n) for _ in range(first + 3))]
        draws.sync()
        assert twin.bit_generator.state == rng.bit_generator.state
        # The draw at that position skipped the rejected half for the next accepted one.
        accepted = np.setdiff1d(np.arange(first + 1, first + 20), rejected)[0]
        assert got[first] == (int(x[accepted]) * n) >> 32 != (int(x[first]) * n) >> 32

    def test_full_word_rejection(self):
        """64-bit Lemire (n > 2**32) rejects a word about a quarter of the time here."""
        n = 3 * 2**61
        words = make_rng(14).bit_generator.random_raw(64).astype(object)
        threshold = (2**64 - n) % n
        assert any((w * n) % 2**64 < threshold for w in words)
        rng, twin, draws = replay_pair(14, False)
        assert [draws.integers(n) for _ in range(40)] == [int(rng.integers(n)) for _ in range(40)]
        draws.sync()
        assert twin.bit_generator.state == rng.bit_generator.state

    def test_nothing_drawn_leaves_the_state(self):
        rng, twin, draws = replay_pair(15, True)
        assert draws.integers(1) == 0
        draws.sync()
        assert twin.bit_generator.state == rng.bit_generator.state
