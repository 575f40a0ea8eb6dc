"""Ranking and classification metrics plus the ad-business formulas.

AUC is the Mann-Whitney statistic computed from midranks, so tied scores
earn half credit and the result matches exhaustive pair counting exactly.
Grouped AUC partitions records by a group key (users), skips groups that
lack both classes, and averages the per-group AUCs with impression- or
click-count weights, renormalized over the usable groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .optim import bce_loss

WEIGHT_MODES = ("impressions", "clicks")


def _midranks(scores: np.ndarray, groups: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-based ranks with ties averaged, restarting in every group.

    One stable sort by (group, score), then segment reductions over the
    sorted order: group starts, and tie runs within a group, each of which
    gets the mean of the ranks it spans. ``groups=None`` is one group.
    Returns the sort order, each sorted record's group number (0, 1, ...
    in ascending key order) and its rank. Ranks are half-integers, so sums
    of them are exact in any order.
    """
    n = scores.size
    order = np.argsort(scores, kind="mergesort") if groups is None else np.lexsort((scores, groups))
    new_group = np.zeros(n, dtype=bool)
    if groups is not None:
        g = groups[order]
        new_group[1:] = g[1:] != g[:-1]
    new_group[:1] = True
    new_run = new_group.copy()
    new_run[1:] |= np.diff(scores[order]) != 0
    run = np.cumsum(new_run) - 1
    group = np.cumsum(new_group) - 1
    run_start = np.flatnonzero(new_run)
    group_start = np.flatnonzero(new_group)
    counts = np.diff(run_start, append=n)
    avg = run_start - group_start[group[run_start]] + (counts + 1) / 2.0
    return order, group, avg[run]


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative.

    (# concordant pairs + 0.5 * # tied pairs) / (#pos * #neg), computed in
    O(n log n) via a rank sum. Requires both classes to be present.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"shape mismatch: scores {s.shape} vs labels {y.shape}")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("undefined AUC: need at least one positive and one negative label")
    order, _, ranks = _midranks(s)
    u = ranks[pos[order]].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass
class GroupAuc:
    group_key: int
    weight: float
    auc: float
    n_records: int


@dataclass
class GaucResult:
    value: float
    groups: list[GroupAuc]
    n_groups_used: int
    n_groups_skipped: int


def gauc(scores, labels, group_keys, weight_mode: str = "impressions") -> GaucResult:
    """Group-weighted AUC over a partition of the records.

    Groups with only one class (or, in clicks mode, zero clicks) are
    skipped; the remaining per-group AUCs are combined as
    sum(w_i * auc_i) / sum(w_i) with w_i the group's impression or click
    count. Raises when no group is usable.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    k = np.asarray(group_keys)
    if not (s.shape == y.shape == k.shape) or s.ndim != 1:
        raise ValueError("scores, labels and group_keys must be equal-length vectors")
    order, group, ranks = _midranks(s, k)
    pos = (y == 1)[order]
    n_records = np.bincount(group)
    n_pos = np.bincount(group, weights=pos)
    n_neg = n_records - n_pos
    pos_rank_sum = np.bincount(group, weights=np.where(pos, ranks, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):  # single-class groups, dropped below
        group_auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    weight = n_pos if weight_mode == "clicks" else n_records.astype(np.float64)
    usable = (n_pos > 0) & (n_neg > 0)
    first = np.flatnonzero(np.diff(group, prepend=-1))
    groups = [
        GroupAuc(group_key=int(key), weight=w, auc=a, n_records=m)
        for key, w, a, m in zip(
            k[order[first[usable]]].tolist(),
            weight[usable].tolist(),
            group_auc[usable].tolist(),
            n_records[usable].tolist(),
        )
    ]
    skipped = int(n_records.size - len(groups))
    if not groups:
        raise ValueError("no usable groups: every group has a single class")
    total = sum(g.weight for g in groups)
    value = sum(g.weight * g.auc for g in groups) / total
    return GaucResult(
        value=float(value),
        groups=groups,
        n_groups_used=len(groups),
        n_groups_skipped=skipped,
    )


def log_loss(scores, labels) -> float:
    """Mean binary cross-entropy; shares the training-loss implementation."""
    return bce_loss(scores, labels)[0]


def accuracy(scores, labels, threshold: float = 0.5) -> float:
    """Fraction of records where (score >= threshold) matches the label."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.size == 0:
        raise ValueError("scores and labels must be equal-length non-empty vectors")
    return float(np.mean((s >= threshold) == (y == 1)))


def ecpm(ctr_rate: float, bid: float) -> float:
    """Expected value of one impression, ctr * bid.

    No per-mille scaling is applied; multiply by 1000 yourself if you want
    the conventional cost-per-thousand figure.
    """
    if not 0.0 <= ctr_rate <= 1.0:
        raise ValueError(f"ctr must be in [0, 1], got {ctr_rate}")
    if bid < 0.0:
        raise ValueError(f"bid must be >= 0, got {bid}")
    return ctr_rate * bid


@dataclass
class AdCandidate:
    ad_id: str
    bid: float
    predicted_ctr: float

    def __post_init__(self):
        if not math.isfinite(self.bid):
            raise ValueError(f"candidate {self.ad_id!r}: bid must be finite, got {self.bid!r}")
        if self.bid < 0.0:
            raise ValueError(f"candidate {self.ad_id!r}: bid must be >= 0")


def rank_ads(candidates: list[AdCandidate]) -> list[AdCandidate]:
    """Sort by eCPM descending, ties broken by ad_id ascending."""
    if not candidates:
        raise ValueError("no candidates to rank")
    return sorted(candidates, key=lambda c: (-ecpm(c.predicted_ctr, c.bid), c.ad_id))


@dataclass
class EvalReport:
    """One model's metrics on one dataset, with the per-group breakdown."""

    auc: float
    gauc: float
    log_loss: float
    accuracy: float
    n_records: int
    n_groups_used: int
    n_groups_skipped: int
    weight_mode: str = "impressions"
    per_group: list[GroupAuc] = field(default_factory=list)


def evaluate(scores, labels, group_keys, weight_mode: str = "impressions") -> EvalReport:
    """Full metric sweep for one model on one scored dataset."""
    g = gauc(scores, labels, group_keys, weight_mode)
    return EvalReport(
        auc=auc(scores, labels),
        gauc=g.value,
        log_loss=log_loss(scores, labels),
        accuracy=accuracy(scores, labels),
        n_records=int(np.asarray(scores).size),
        n_groups_used=g.n_groups_used,
        n_groups_skipped=g.n_groups_skipped,
        weight_mode=weight_mode,
        per_group=g.groups,
    )
