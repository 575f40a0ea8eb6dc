"""Ranking and classification metrics plus the ad-business formulas.

AUC is the Mann-Whitney statistic computed from midranks, so tied scores
earn half credit and the result matches exhaustive pair counting exactly.
Grouped AUC partitions records by a group key (users), skips groups that
lack both classes, and averages the per-group AUCs with impression- or
click-count weights, renormalized over the usable groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-7
WEIGHT_MODES = ("impressions", "clicks")


def _group_aucs(scores: np.ndarray, labels: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each group's first record, size, positive count and AUC, in ascending key order.

    One stable sort by (group, score), then segment reductions over the
    sorted order: group starts, and tie runs within a group, each of which
    gets the mean of the 1-based ranks it spans. A group's AUC is its
    Mann-Whitney U over n_pos * n_neg, NaN when it lacks a class. Ranks are
    half-integers, so the rank sums are exact in any order.
    """
    n = scores.size
    order = np.lexsort((scores, groups))
    g = groups[order]
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = g[1:] != g[:-1]
    new_run = new_group.copy()
    new_run[1:] |= np.diff(scores[order]) != 0
    run = np.cumsum(new_run) - 1
    group = np.cumsum(new_group) - 1
    run_start = np.flatnonzero(new_run)
    group_start = np.flatnonzero(new_group)
    counts = np.diff(run_start, append=n)
    ranks = (run_start - group_start[group[run_start]] + (counts + 1) / 2.0)[run]
    pos = (labels == 1)[order]
    n_records = np.bincount(group)
    n_pos = np.bincount(group, weights=pos)
    pos_rank_sum = np.bincount(group, weights=np.where(pos, ranks, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):  # single-class groups
        aucs = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n_records - n_pos))
    return order[group_start], n_records, n_pos, aucs


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative.

    (# concordant pairs + 0.5 * # tied pairs) / (#pos * #neg), computed in
    O(n log n) via a rank sum. Requires both classes to be present.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"shape mismatch: scores {s.shape} vs labels {y.shape}")
    n_pos = int((y == 1).sum())
    if n_pos == 0 or n_pos == s.size:
        raise ValueError("undefined AUC: need at least one positive and one negative label")
    return float(_group_aucs(s, y, np.zeros(s.size, dtype=np.intp))[3][0])


@dataclass
class GaucResult:
    """The grouped AUC and its usable groups, one array entry per group in
    ascending key order: the group's key, weight and AUC."""

    value: float
    keys: np.ndarray
    weights: np.ndarray
    aucs: np.ndarray
    n_groups_skipped: int

    @property
    def n_groups_used(self) -> int:
        return int(self.keys.size)


def gauc(scores, labels, groups, weight_mode: str = "impressions") -> GaucResult:
    """Group-weighted AUC over a partition of the records.

    ``groups`` holds each record's group key (a user index). Groups with
    only one class (or, in clicks mode, zero clicks) are skipped; the
    remaining per-group AUCs are combined as sum(w_i * auc_i) / sum(w_i)
    with w_i the group's impression or click count. Raises when no group is
    usable.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    k = np.asarray(groups)
    if not (s.shape == y.shape == k.shape) or s.ndim != 1:
        raise ValueError("scores, labels and groups must be equal-length vectors")
    first, n_records, n_pos, group_auc = _group_aucs(s, y, k)
    weight = n_pos if weight_mode == "clicks" else n_records.astype(np.float64)
    usable = (n_pos > 0) & (n_pos < n_records)
    if not usable.any():
        raise ValueError("no usable groups: every group has a single class")
    weights, aucs = weight[usable], group_auc[usable]
    # Python's left-to-right sums, so the value does not depend on NumPy's
    # pairwise summation order.
    w, a = weights.tolist(), aucs.tolist()
    return GaucResult(
        value=sum(wi * ai for wi, ai in zip(w, a)) / sum(w),
        keys=k[first[usable]],
        weights=weights,
        aucs=aucs,
        n_groups_skipped=int(usable.size - usable.sum()),
    )


def bce_loss(probs, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its per-record gradient.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs; the
    gradient is taken at the clamped value so the two stay consistent.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: probs {p.shape} vs labels {y.shape}")
    if p.size == 0:
        raise ValueError("empty batch")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    dprobs = (pc - y) / (pc * (1.0 - pc)) / p.size
    return loss, dprobs


def log_loss(scores, labels) -> float:
    """Mean binary cross-entropy; shares the training-loss implementation."""
    return bce_loss(scores, labels)[0]


def accuracy(scores, labels) -> float:
    """Fraction of records where (score >= 0.5) matches the label."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.size == 0:
        raise ValueError("scores and labels must be equal-length non-empty vectors")
    return float(np.mean((s >= 0.5) == (y == 1)))


def rank_ads(ad_ids, bids, probs) -> tuple[np.ndarray, np.ndarray]:
    """Candidate order by eCPM = p * bid descending, ties broken by ad_id ascending.

    Returns the order (indices into the inputs) and each candidate's eCPM,
    in input order. eCPM is the expected value of one impression, with no
    per-mille scaling. Bids must be finite and >= 0 and probabilities in
    [0, 1].
    """
    b = np.asarray(bids, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if not len(ad_ids) == b.size == p.size or b.ndim != 1 or p.ndim != 1:
        raise ValueError("ad_ids, bids and probs must be equal-length vectors")
    if not b.size:
        raise ValueError("no candidates to rank")
    ok = np.isfinite(b) & (b >= 0.0) & (p >= 0.0) & (p <= 1.0)
    if not ok.all():
        i = int(np.argmin(ok))  # the first bad candidate
        raise ValueError(
            f"candidate {ad_ids[i]!r}: needs a finite bid >= 0 and a ctr in [0, 1], "
            f"got bid {float(b[i])!r}, ctr {float(p[i])!r}"
        )
    ecpm = p * b
    # Two stable sorts, the secondary key first: equal eCPMs stay in ad_id
    # order and equal ids in input order, as Python's sorted would leave them.
    by_id = np.array(sorted(range(b.size), key=ad_ids.__getitem__), dtype=np.intp)
    return by_id[np.argsort(-ecpm[by_id], kind="stable")], ecpm
