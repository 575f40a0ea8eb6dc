import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dinctr.metrics import (
    GaucResult,
    accuracy,
    auc,
    gauc,
    log_loss,
    rank_ads,
)
from dinctr.numerics import make_rng
from dinctr.optim import bce_loss


def brute_force_auc(scores, labels):
    """Exhaustive positive-negative pair counting with half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def random_instance(rng, n_max=200, tie_prone=False):
    n = int(rng.integers(2, n_max + 1))
    labels = rng.integers(0, 2, size=n)
    while labels.min() == labels.max():
        labels = rng.integers(0, 2, size=n)
    if tie_prone:
        scores = rng.integers(0, 5, size=n).astype(np.float64) / 4.0
    else:
        scores = rng.random(n)
    return scores, labels


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_reversed_ranking(self):
        assert auc([0.1, 0.9], [1, 0]) == 0.0

    def test_all_tied_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_brute_force_on_random_instances(self):
        rng = make_rng(100)
        for trial in range(300):
            scores, labels = random_instance(rng, n_max=60, tie_prone=trial % 2 == 0)
            assert abs(auc(scores, labels) - brute_force_auc(scores, labels)) < 1e-12

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="undefined AUC"):
            auc([0.4, 0.6], [1, 1])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=50)
    def test_monotone_transform_invariance(self, seed):
        rng = make_rng(seed)
        scores, labels = random_instance(rng, n_max=40)
        transformed = np.exp(3.0 * scores) + 7.0  # strictly monotone
        assert auc(scores, labels) == auc(transformed, labels)

    def test_negated_scores_complement(self):
        rng = make_rng(5)
        scores = rng.permutation(20) / 20.0  # distinct, no ties
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 0, 1
        assert abs(auc(scores, labels) + auc(-scores, labels) - 1.0) < 1e-12


def brute_force_gauc(scores, labels, keys, mode):
    """Two-pass reference: per-group brute-force AUC, then a weighted mean."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    keys = np.asarray(keys)
    total = 0.0
    weight_sum = 0.0
    used = 0
    for key in np.unique(keys):
        sel = keys == key
        y = labels[sel]
        if y.min() == y.max():
            continue
        w = float((y == 1).sum()) if mode == "clicks" else float(y.size)
        total += w * brute_force_auc(scores[sel], y)
        weight_sum += w
        used += 1
    return total / weight_sum, used


def gauc_oracle(scores, labels, keys, weight_mode="impressions"):
    """The per-group loop GAUC used to be: one boolean mask and one AUC per
    group, O(N * G), each AUC by exhaustive pair counting (``auc`` shares
    gauc's code, so it is no oracle). Both AUCs divide an exact count by
    the same product, so the sort-based gauc must give exactly this result."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    k = np.asarray(keys)
    keys, weights, aucs = [], [], []
    skipped = 0
    for key in np.unique(k):
        sel = k == key
        y_g = y[sel]
        n_pos = int((y_g == 1).sum())
        if n_pos == 0 or n_pos == y_g.size:
            skipped += 1
            continue
        keys.append(int(key))
        weights.append(float(n_pos if weight_mode == "clicks" else y_g.size))
        aucs.append(brute_force_auc(s[sel], y_g))
    if not keys:
        raise ValueError("no usable groups: every group has a single class")
    value = sum(w * a for w, a in zip(weights, aucs)) / sum(weights)
    return GaucResult(float(value), np.array(keys), np.array(weights), np.array(aucs), n_groups_skipped=skipped)


@st.composite
def grouped_instances(draw):
    """Scores with heavy ties, singleton and single-class groups, and group
    keys that are unsorted, negative or far apart."""
    n = draw(st.integers(min_value=1, max_value=60))
    key_pool = draw(st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=1, max_size=12, unique=True))
    keys = draw(st.lists(st.sampled_from(key_pool), min_size=n, max_size=n))
    if draw(st.booleans()):
        scores = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n))
    else:
        scores = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    return np.array(scores), np.array(labels), np.array(keys, dtype=np.int64)


class TestGauc:
    def test_single_group_equals_auc(self):
        rng = make_rng(7)
        scores, labels = random_instance(rng, n_max=50)
        keys = np.zeros(scores.size, dtype=np.int64)
        result = gauc(scores, labels, keys)
        assert result.value == auc(scores, labels)
        assert result.n_groups_used == 1

    @given(grouped_instances())
    @settings(deadline=None, max_examples=200)
    def test_auc_is_the_one_group_gauc_bit_for_bit(self, instance):
        scores, labels, _ = instance
        assume(labels.min() != labels.max())
        one_group = gauc(scores, labels, np.zeros(labels.size, dtype=np.int64)).aucs[0]
        assert np.float64(auc(scores, labels)).tobytes() == one_group.tobytes()

    def test_two_group_weighted_mean_example(self):
        # group A: 3 records, AUC 1.0; group B: 1 usable pair is impossible with
        # one record, so give B two records with AUC 0.5 and weight it down to
        # the documented 3:1 by trimming A to weight 3.
        scores = np.array([0.9, 0.8, 0.1, 0.5, 0.5])
        labels = np.array([1, 1, 0, 1, 0])
        keys = np.array([0, 0, 0, 1, 1])
        result = gauc(scores, labels, keys, "impressions")
        # weights: group 0 -> 3 impressions (AUC 1.0), group 1 -> 2 (AUC 0.5)
        assert abs(result.value - (3 * 1.0 + 2 * 0.5) / 5) < 1e-15

    def test_exact_075_with_click_weights(self):
        # clicks mode: group 0 has 3 clicks (AUC 1.0), group 1 has 1 click
        # (AUC 0.5) -> (3*1 + 1*0.5) / 4 = 0.875, the weighted-mean example
        scores = np.array([0.9, 0.8, 0.7, 0.1, 0.5, 0.5])
        labels = np.array([1, 1, 1, 0, 1, 0])
        keys = np.array([0, 0, 0, 0, 1, 1])
        result = gauc(scores, labels, keys, "clicks")
        assert result.value == 0.875
        assert result.weights.tolist() == [3.0, 1.0]

    def test_matches_two_pass_brute_force(self):
        rng = make_rng(8)
        for trial in range(200):
            mode = "clicks" if trial % 2 else "impressions"
            n = int(rng.integers(10, 120))
            scores = rng.random(n)
            labels = rng.integers(0, 2, size=n)
            keys = rng.integers(0, 6, size=n)
            try:
                result = gauc(scores, labels, keys, mode)
            except ValueError:
                continue  # no usable group in this draw
            expect, used = brute_force_gauc(scores, labels, keys, mode)
            assert abs(result.value - expect) < 1e-12
            assert result.n_groups_used == used

    def test_single_class_groups_skipped_and_counted(self):
        scores = np.array([0.9, 0.1, 0.7, 0.6])
        labels = np.array([1, 0, 1, 1])
        keys = np.array([0, 0, 1, 1])
        result = gauc(scores, labels, keys)
        assert result.n_groups_used == 1
        assert result.n_groups_skipped == 1
        assert result.value == 1.0

    def test_value_within_group_auc_range(self):
        rng = make_rng(9)
        for _ in range(50):
            n = int(rng.integers(20, 80))
            scores = rng.random(n)
            labels = rng.integers(0, 2, size=n)
            keys = rng.integers(0, 4, size=n)
            try:
                result = gauc(scores, labels, keys)
            except ValueError:
                continue
            assert result.aucs.min() - 1e-12 <= result.value <= result.aucs.max() + 1e-12

    @given(grouped_instances(), st.sampled_from(["impressions", "clicks"]))
    @settings(deadline=None, max_examples=300)
    def test_equals_per_group_oracle_exactly(self, instance, mode):
        scores, labels, keys = instance
        try:
            expect = gauc_oracle(scores, labels, keys, mode)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                gauc(scores, labels, keys, mode)
            return
        got = gauc(scores, labels, keys, mode)
        assert got.value == expect.value
        for name in ("keys", "weights", "aucs"):  # one entry per usable group, in key order
            assert getattr(got, name).tolist() == getattr(expect, name).tolist(), name
        assert (got.n_groups_used, got.n_groups_skipped) == (expect.n_groups_used, expect.n_groups_skipped)
        assert type(got.n_groups_used) is int and type(got.n_groups_skipped) is int

    def test_cost_is_one_sort_not_one_pass_per_group(self):
        """60k records in 30k groups: the per-group loop needs 30k masks of
        60k entries (seconds); one sort takes tens of milliseconds."""
        rng = make_rng(14)
        n = 60_000
        keys = rng.permutation(n) // 2
        scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        tic = time.perf_counter()
        result = gauc(scores, labels, keys)
        assert time.perf_counter() - tic < 0.5
        assert result.n_groups_used + result.n_groups_skipped == n // 2

    def test_no_usable_groups_raises(self):
        with pytest.raises(ValueError, match="no usable groups"):
            gauc([0.5, 0.6], [1, 1], [0, 0])

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError, match="weight_mode"):
            gauc([0.5, 0.6], [1, 0], [0, 0], "conversions")


class TestLogLossAccuracy:
    def test_log_loss_ln2(self):
        assert abs(log_loss(np.full(8, 0.5), np.tile([1.0, 0.0], 4)) - math.log(2)) < 1e-15

    def test_log_loss_hand_example(self):
        assert abs(log_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0])) - 0.164252) < 1e-6

    def test_log_loss_is_shared_with_training_loss(self):
        rng = make_rng(10)
        p = rng.uniform(0.01, 0.99, size=50)
        y = rng.integers(0, 2, size=50).astype(np.float64)
        assert log_loss(p, y) == bce_loss(p, y)[0]

    def test_accuracy_cases(self):
        assert accuracy([0.9, 0.1], [1, 0]) == 1.0
        assert accuracy([0.9, 0.1], [0, 1]) == 0.0
        assert accuracy([0.5], [1]) == 1.0  # score exactly at threshold predicts 1

    def test_accuracy_flipped_labels_complement(self):
        rng = make_rng(11)
        scores = rng.uniform(0.01, 0.99, size=40)  # no scores at the threshold
        labels = rng.integers(0, 2, size=40)
        assert abs(accuracy(scores, labels) + accuracy(scores, 1 - labels) - 1.0) < 1e-12


def ranked_ids(ad_ids, bids, probs):
    order, _ = rank_ads(ad_ids, bids, probs)
    return [ad_ids[i] for i in order]


@st.composite
def candidate_sets(draw):
    """Candidates with tied eCPMs (zero bids and ctrs, -0.0 bids, repeated
    values), repeated ids, and ids that differ only in a trailing NUL or a
    lone surrogate."""
    n = draw(st.integers(min_value=1, max_value=40))
    names = ["a", "a\x00", "b", "B", "\ud800", "東京", "", "a b", "10", "9"]
    id_pool = draw(st.lists(st.sampled_from(names), min_size=1))
    ids = draw(st.lists(st.sampled_from(id_pool), min_size=n, max_size=n))
    bids = draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 1e300, 5e-324]), min_size=n, max_size=n))
    probs = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 5e-324]), min_size=n, max_size=n))
    return ids, bids, probs


class TestBusinessFormulas:
    def test_ecpm(self):
        """eCPM is ctr * bid with no per-mille factor, returned in input order."""
        _, ecpm = rank_ads(["a", "b", "c", "d"], [2.0, 5.0, 0.0, 3.0], [0.05, 0.0, 0.3, 0.1])
        assert ecpm.tolist() == [0.05 * 2.0, 0.0, 0.0, 0.1 * 3.0]
        assert abs(ecpm[0] - 0.10) < 1e-15

    def test_ecpm_validation(self):
        with pytest.raises(ValueError, match="'x'.*bid"):
            rank_ads(["x"], [-1.0], [0.5])
        for ctr in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="'x'.*ctr"):
                rank_ads(["x"], [1.0], [ctr])

    def test_rank_ads_by_expected_value(self):
        assert ranked_ids(["a", "b"], [1.0, 3.0], [0.10, 0.05]) == ["b", "a"]  # 0.15 > 0.10

    def test_rank_ties_broken_by_ad_id(self):
        assert ranked_ids(["z", "a"], [2.0, 1.0], [0.05, 0.10]) == ["a", "z"]

    def test_rank_single_candidate(self):
        order, ecpm = rank_ads(["solo"], [1.0], [0.5])
        assert order.tolist() == [0] and ecpm.tolist() == [0.5]

    def test_rank_empty_raises(self):
        with pytest.raises(ValueError, match="no candidates"):
            rank_ads([], [], [])

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="equal-length"):
            rank_ads(["a", "b"], [1.0], [0.5, 0.5])

    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError, match="'y'.*bid"):
            rank_ads(["x", "y"], [1.0, -0.5], [0.1, 0.1])  # names the first bad candidate

    @pytest.mark.parametrize("bid", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_bid_rejected(self, bid):
        with pytest.raises(ValueError, match="'x'.*finite"):
            rank_ads(["x"], [bid], [0.1])

    @given(candidate_sets())
    @settings(deadline=None, max_examples=300)
    def test_order_equals_python_sorted(self, candidates):
        ids, bids, probs = candidates
        order, ecpm = rank_ads(ids, bids, probs)
        expect = sorted(range(len(ids)), key=lambda i: (-(probs[i] * bids[i]), ids[i]))
        assert order.tolist() == expect
        assert ecpm.tolist() == [p * b for p, b in zip(probs, bids)]


class TestEvalMetrics:
    def test_counts_and_ranges(self):
        """The metrics `ctr eval` reports, each from the function that computes it."""
        rng = make_rng(12)
        n = 200
        scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        keys = rng.integers(0, 12, size=n)
        grouped = gauc(scores, labels, keys)
        assert 0.0 <= auc(scores, labels) <= 1.0
        assert 0.0 <= grouped.value <= 1.0
        assert log_loss(scores, labels) >= 0.0
        assert 0.0 <= accuracy(scores, labels) <= 1.0
        total_groups = np.unique(keys).size
        assert grouped.n_groups_used + grouped.n_groups_skipped == total_groups
        assert grouped.keys.size == grouped.weights.size == grouped.aucs.size == grouped.n_groups_used
