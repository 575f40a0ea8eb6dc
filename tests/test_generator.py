"""The synthetic generator: its draws against a per-record reference, the
distributions it promises, and pinned digests of two small datasets.

``generate_synthetic`` draws whole arrays from one seeded ``Generator`` and
builds the records with array gathers. ``generate_synthetic_oracle`` below
makes the same draws in the documented order and builds every history and
impression with plain Python loops; both must give the same records, ground
truth and final generator state.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinctr import data
from dinctr.config import RunConfig
from dinctr.data import GroundTruth, Records, generate_synthetic, save_ground_truth, save_jsonl
from dinctr.numerics import make_rng, sigmoid
from helpers import same_records


def generate_synthetic_oracle(config: RunConfig):
    """The generator as per-user and per-impression loops over the documented
    draws; returns the records, the ground truth and the generator after its
    last draw."""
    rng = make_rng(config.seed)
    K, n = config.num_clusters, config.impressions

    dominant = rng.integers(K, size=config.num_users).tolist()
    n_behaviors = rng.integers(config.behaviors_min, config.behaviors_max + 1, size=config.num_users).tolist()
    slots = [(u, j) for u in range(config.num_users) for j in range(n_behaviors[u])]
    clusters = [[dominant[u]] * n_behaviors[u] for u in range(config.num_users)]
    if K > 1:
        stray = rng.random(len(slots)) >= config.cluster_concentration
        strays = [slot for slot, s in zip(slots, stray) if s]
        for (u, j), offset in zip(strays, rng.integers(K - 1, size=len(strays)).tolist()):
            clusters[u][j] = (dominant[u] + 1 + offset) % K
    cluster_members = [list(range(k, config.num_items, K)) for k in range(K)]
    picks = rng.integers([len(cluster_members[clusters[u][j]]) for u, j in slots]).tolist()
    histories: list[list[int]] = [[] for _ in range(config.num_users)]
    for (u, j), pick in zip(slots, picks):
        histories[u].append(cluster_members[clusters[u][j]][pick])

    user_draws = rng.integers(config.num_users, size=n).tolist()
    ad_draws = rng.integers(config.num_items, size=n).tolist()
    click_u = rng.random(n).tolist()
    bid_draws = rng.uniform(0.1, 2.0, size=n).tolist()

    users, items, lengths, labels, timestamps, bids = [], [], [], [], [], []
    true_probs = []
    for i, (user, ad) in enumerate(zip(user_draws, ad_draws)):
        history = histories[user]
        matches = sum(1 for item in history if item % K == ad % K)
        p = sigmoid(config.base_logit + config.signal_strength * (matches / len(history)))
        users.append(f"u{user}")
        items += [f"i{ad}", *(f"i{item}" for item in history)]
        lengths.append(len(history))
        labels.append(1 if click_u[i] < p else 0)
        timestamps.append(data._BASE_TIMESTAMP + i)
        bids.append(bid_draws[i])
        true_probs.append(p)
    records = Records.of(users, items, lengths, labels, timestamps, bids)

    truth = GroundTruth(
        item_clusters={f"i{item}": item % K for item in range(config.num_items)},
        true_probs=true_probs,
        config={key: getattr(config, key) for key in data.GENERATOR_KEYS},
    )
    return records, truth, rng


def generate_with_rng(config: RunConfig):
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


def assert_same_as_oracle(config: RunConfig):
    records, truth, rng = generate_with_rng(config)
    want_records, want_truth, want_rng = generate_synthetic_oracle(config)
    assert same_records(records, want_records)
    assert truth.true_probs == want_truth.true_probs
    assert truth.item_clusters == want_truth.item_clusters
    assert truth.config == want_truth.config
    assert rng.bit_generator.state == want_rng.bit_generator.state
    return rng, want_rng


@st.composite
def small_configs(draw):
    num_clusters = draw(st.integers(1, 6))
    behaviors_min = draw(st.integers(1, 5))
    return RunConfig(
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
    @example(config=RunConfig(num_users=6, num_items=9, num_clusters=1, impressions=30, seed=4))
    @example(config=RunConfig(num_users=1, num_items=12, num_clusters=3, impressions=30, seed=5))
    @example(config=RunConfig(num_users=7, num_items=5, num_clusters=5, impressions=30, seed=6))
    @example(config=RunConfig(num_users=7, num_items=20, behaviors_min=3, behaviors_max=3, impressions=30, seed=7))
    @example(config=RunConfig(num_users=7, num_items=20, cluster_concentration=1.0, impressions=30, seed=8))
    def test_small_configs(self, config):
        assert_same_as_oracle(config)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_config(self, seed):
        assert_same_as_oracle(RunConfig(seed=seed, impressions=2_000))

    def test_stream_continues_after_generation(self):
        """The generator makes the documented draws and no others: a draw
        after generating continues the reference's stream."""
        for seed in range(1, 5):
            config = RunConfig(num_users=5, num_items=12, num_clusters=3, impressions=7 + seed, seed=seed)
            rng, want_rng = assert_same_as_oracle(config)
            assert [rng.integers(1000), rng.random()] == [want_rng.integers(1000), want_rng.random()]


class TestReplay:
    """A seed replays whole: seeds on either side of 32 and 64-bit word
    boundaries match the reference, and a seed that differs only above its
    low 32 bits gives other data."""

    @pytest.mark.parametrize("single_cluster", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 3 * 2**61])
    def test_matches_generator(self, seed, single_cluster):
        config = RunConfig(num_users=6, num_items=14, num_clusters=1 if single_cluster else 4,
                                 impressions=40, cluster_concentration=0.6, seed=seed)
        assert_same_as_oracle(config)
        records, _ = generate_synthetic(config)
        config.seed = seed ^ 2**32
        assert not same_records(generate_synthetic(config)[0], records)


def histories(records: Records) -> list[list[int]]:
    """Each record's behavior items, as integer ids."""
    items = [int(tok[1:]) for tok in records.items]
    return [items[s + 1 : s + 1 + n] for s, n in zip(records.starts.tolist(), records.lengths.tolist())]


def user_histories(records: Records) -> dict[int, list[int]]:
    """Each shown user's history; every impression of a user carries the same one."""
    out: dict[int, list[int]] = {}
    for user, history in zip(records.users, histories(records)):
        assert out.setdefault(int(user[1:]), history) == history
    return out


class TestDistributions:
    def test_full_concentration_keeps_every_behavior_in_the_dominant_cluster(self):
        config = RunConfig(num_users=60, num_items=50, num_clusters=7, impressions=3_000,
                                 cluster_concentration=1.0, seed=21)
        records, _ = generate_synthetic(config)
        dominant = make_rng(config.seed).integers(config.num_clusters, size=config.num_users)  # the first draw
        shown = user_histories(records)
        assert len(shown) == config.num_users
        for user, history in shown.items():
            assert {item % config.num_clusters for item in history} == {dominant[user]}

    def test_strays_spread_over_the_other_clusters(self):
        """A behavior stays in the dominant cluster with probability
        ``cluster_concentration``; otherwise its cluster is uniform over the
        other K - 1. Counts are checked within 5 sigma."""
        K, c = 4, 0.55
        config = RunConfig(num_users=3_000, num_items=40, num_clusters=K, behaviors_min=8, behaviors_max=12,
                                 impressions=30_000, cluster_concentration=c, seed=22)
        records, _ = generate_synthetic(config)
        dominant = make_rng(config.seed).integers(K, size=config.num_users)
        offsets = Counter()
        for user, history in user_histories(records).items():
            offsets.update((item - dominant[user]) % K for item in history)
        total = sum(offsets.values())
        for offset, share in [(0, c)] + [(o, (1 - c) / (K - 1)) for o in range(1, K)]:
            assert abs(offsets[offset] - total * share) < 5 * math.sqrt(total * share * (1 - share)), offsets

    def test_items_are_uniform_within_their_cluster(self):
        """23 items in 7 clusters: clusters 0-1 hold four items, 2-6 three.
        Every item is drawn, and only from its own cluster, at about its
        cluster's rate."""
        config = RunConfig(num_users=2_000, num_items=23, num_clusters=7, impressions=20_000, seed=23)
        records, truth = generate_synthetic(config)
        picked = Counter(item for history in user_histories(records).values() for item in history)
        assert set(picked) == set(range(config.num_items))
        by_cluster = Counter()
        for item, count in picked.items():
            by_cluster[truth.item_clusters[f"i{item}"]] += count
        for item, count in picked.items():
            k = item % 7
            expect, share = by_cluster[k] / len(range(k, 23, 7)), 1 / len(range(k, 23, 7))
            assert abs(count - expect) < 5 * math.sqrt(by_cluster[k] * share * (1 - share))

    def test_history_lengths_cover_the_range(self):
        config = RunConfig(num_users=300, num_items=30, behaviors_min=3, behaviors_max=9, impressions=6_000,
                                 seed=24)
        records, _ = generate_synthetic(config)
        assert set(records.lengths.tolist()) == set(range(3, 10))

    @pytest.mark.parametrize("num_clusters, num_items", [(1, 9), (4, 10), (7, 23)])
    def test_true_probs_are_the_sigmoid_of_the_records_match_fraction(self, num_clusters, num_items):
        """Recomputed from the written records alone, exactly: K = 1 and
        numbers of items that K does not divide included."""
        config = RunConfig(num_users=30, num_items=num_items, num_clusters=num_clusters, impressions=500,
                                 signal_strength=7.5, base_logit=-2.0, seed=25)
        records, truth = generate_synthetic(config)
        ads = np.array([int(records.items[s][1:]) for s in records.starts.tolist()])
        matches = np.array([sum(item % num_clusters == ad % num_clusters for item in history)
                            for ad, history in zip(ads.tolist(), histories(records))])
        want = sigmoid(config.base_logit + config.signal_strength * (matches / records.lengths))
        assert truth.true_probs == want.tolist()
        if num_clusters == 1:
            assert set(truth.true_probs) == {float(sigmoid(config.base_logit + config.signal_strength))}


def dataset_bytes(config: RunConfig, tmp_path) -> bytes:
    """The dataset and metadata files ``ctr generate`` would write."""
    records, truth = generate_synthetic(config)
    save_jsonl(records, tmp_path / "data.jsonl")
    save_ground_truth(truth, tmp_path / "meta.json")
    return (tmp_path / "data.jsonl").read_bytes() + (tmp_path / "meta.json").read_bytes()


class TestReproducibility:
    def test_same_seed_same_bytes_other_seed_other_data(self, tmp_path):
        config = RunConfig(num_users=20, num_items=30, impressions=300, seed=31)
        first = dataset_bytes(config, tmp_path)
        assert dataset_bytes(config, tmp_path) == first
        config.seed = 32
        assert dataset_bytes(config, tmp_path) != first

    @pytest.mark.parametrize("config, digest", [
        (RunConfig(num_users=8, num_items=13, num_clusters=3, behaviors_min=2, behaviors_max=6,
                         impressions=40, cluster_concentration=0.7, seed=41),
         "cc24fc0170c71b04cb1bf95a41e52e637962a60de768d77cb9059ff985100c10"),
        (RunConfig(num_users=5, num_items=6, num_clusters=1, behaviors_min=1, behaviors_max=3,
                         impressions=25, seed=42),
         "2d44a643dadec755823c6af0aff68cf2f31272349fc02905bb3c10890ff3fbb7"),
    ])
    def test_pinned_digests(self, config, digest, tmp_path):
        """Pinned with NumPy 2.4.6. The digest covers the dataset and metadata bytes."""
        got = hashlib.sha256(dataset_bytes(config, tmp_path)).hexdigest()
        assert got == digest, (
            f"dataset sha256 is {got} under numpy {np.__version__}, not the pinned {digest}. "
            "Either the generator's draws changed, or NumPy changed its Generator streams, "
            "which NEP 19 allows between versions; in that case repin the digests."
        )
