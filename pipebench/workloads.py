"""Workload definitions and the inputs the benchmark writes for each run.

A workload is a `ctr` config (generator plus training knobs) and the shape
of the serving traffic sent after training: rank contexts, candidate sets
and cold-start predict lines. Everything here is a pure function of the
workload and the seed, so one seed always gives the same input files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # flat `ctr --config` keys: generator and training knobs
    n_contexts: int  # distinct rank contexts, cycled by the rank requests
    cold_contexts: int  # how many of them are cold-start (unknown user, empty history); not timed
    context_len: int  # behaviors in a warm rank context
    candidates: int  # candidate ads per rank request
    rank_requests: int  # closed-loop rank requests per round
    cold_share: float  # cold-start predict lines, as a share of the validation records
    claim: bool  # check the paper's attention-vs-base GAUC margin

    @property
    def impressions(self) -> int:
        return self.config["impressions"]

    @property
    def n_val(self) -> int:
        # The CLI's temporal split: round(N * val_fraction) records, default 0.2.
        return int(round(self.impressions * self.config.get("val_fraction", 0.2)))

    @property
    def n_train(self) -> int:
        return self.impressions - self.n_val

    @property
    def n_cold(self) -> int:
        return int(round(self.n_val * self.cold_share))


WORKLOADS = {
    # The README's attention-vs-base recipe: a tiny vocabulary and short
    # histories, so attention kernels, the MLP and per-step Python overhead
    # do the work, and rank requests cost mostly interpreter start-up.
    "din-experiment": Workload(
        name="din-experiment",
        config={
            "num_users": 500,
            "num_items": 200,
            "impressions": 25_000,
            "signal_strength": 16,
            "epochs": 8,
            "lr": 0.01,
            "batch_size": 128,
            "timing": False,
        },
        n_contexts=4,
        cold_contexts=0,
        context_len=16,
        candidates=20,
        rank_requests=8,
        cold_share=0.0,
        claim=True,
    ),
    # The paper's traffic shape: 1e5 items (a vocabulary of ~8.6e4 seen),
    # 1e4 users, histories that straddle max_seq_len so truncation is used,
    # cold-start serving traffic and 1e4-candidate ranks. Costs that grow
    # with the vocabulary or the data dominate. Histories are kept short
    # because the generator's per-draw Python loop bounds what a run can
    # afford. The cold-start shares (1 of 2 rank contexts, predict lines at
    # 10% of the validation count, 2% unknown candidate ads) are chosen, not
    # measured: neither the paper nor this repository gives real ones. Cold
    # rank requests are sent and checked but left out of rank_ms, so the
    # share of them does not set that metric.
    "long-tail": Workload(
        name="long-tail",
        config={
            "num_users": 10_000,
            "num_items": 100_000,
            "num_clusters": 100,
            "behaviors_min": 12,
            "behaviors_max": 24,
            "max_seq_len": 16,
            "impressions": 30_000,
            "epochs": 1,
            "lr": 0.01,
            "batch_size": 128,
            "timing": False,
        },
        n_contexts=2,
        cold_contexts=1,
        context_len=24,
        candidates=10_000,
        rank_requests=4,
        cold_share=0.1,
        claim=False,
    ),
    # Test-size workload for the benchmark's own tests; not in BENCHMARK.json.
    "tiny": Workload(
        name="tiny",
        config={
            "num_users": 30,
            "num_items": 40,
            "impressions": 600,
            "behaviors_min": 4,
            "behaviors_max": 12,
            "max_seq_len": 8,
            "epochs": 1,
            "batch_size": 64,
            "timing": False,
        },
        n_contexts=2,
        cold_contexts=1,
        context_len=10,
        candidates=12,
        rank_requests=2,
        cold_share=0.1,
        claim=False,
    ),
}


CONFIG = "config.json"


def context_path(c: int) -> str:
    return f"context_{c}.json"


def candidates_path(c: int) -> str:
    return f"candidates_{c}.jsonl"


COLD_LINES = "cold_start.jsonl"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_jsonl(path: str, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def write_inputs(w: Workload, seed: int, workdir: str) -> None:
    """Write the config, rank contexts, candidate sets and cold-start lines.

    Token names follow the generator's scheme (`u<k>`, `i<k>`), so warm
    contexts and candidates mostly hit the vocabulary; `cold_*` tokens never
    do. Bids are finite and rounded to cents, so equal p*bid ties occur among
    unknown ads (they share the OOV embedding) and exercise the ad_id
    tie-break. NaN bids are left out: `ctr rank` mishandles them.
    """
    with open(os.path.join(workdir, CONFIG), "w", encoding="utf-8") as fh:
        json.dump(w.config, fh, sort_keys=True)
    num_users = w.config["num_users"]
    num_items = w.config["num_items"]
    rng = _rng(seed, 1)
    for c in range(w.n_contexts):
        if c < w.cold_contexts:
            ctx = {"user_id": f"cold_u{c}", "behavior_ids": []}
        else:
            items = rng.integers(num_items, size=w.context_len)
            ctx = {"user_id": f"u{int(rng.integers(num_users))}", "behavior_ids": [f"i{int(i)}" for i in items]}
        with open(os.path.join(workdir, context_path(c)), "w", encoding="utf-8") as fh:
            json.dump(ctx, fh)
        n_known = min(w.candidates - max(2, w.candidates // 50), num_items)
        known = rng.choice(num_items, size=n_known, replace=False)
        ads = [f"i{int(i)}" for i in known] + [f"cold_i{k}" for k in range(w.candidates - n_known)]
        bids = np.round(rng.uniform(0.1, 2.0, size=len(ads)), 2)
        bids[n_known:] = bids[n_known]  # unknown ads: equal p and equal bid, so ties
        order = rng.permutation(len(ads))
        _write_jsonl(
            os.path.join(workdir, candidates_path(c)),
            ({"ad_id": ads[i], "bid": float(bids[i])} for i in order),
        )
    cold = []
    for k in range(w.n_cold):
        kind = k % 3
        user = f"cold_u{k}" if kind != 1 else f"u{int(rng.integers(num_users))}"
        ad = f"cold_i{k}" if kind != 2 else f"i{int(rng.integers(num_items))}"
        history = [] if kind != 0 else [f"i{int(i)}" for i in rng.integers(num_items, size=3)]
        cold.append({"user_id": user, "ad_id": ad, "behavior_ids": history})
    _write_jsonl(os.path.join(workdir, COLD_LINES), cold)


def load_context(workdir: str, c: int) -> dict:
    with open(os.path.join(workdir, context_path(c)), encoding="utf-8") as fh:
        return json.load(fh)


def load_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
