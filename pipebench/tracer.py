"""Span tracing of `dinctr` layers, installed from outside the program.

Each public function is wrapped where its caller looks it up: `cli` holds
its own references to `train`, `save_checkpoint` and `load_checkpoint`;
`cli` calls `data.*` and `metrics.*` through the module; `model` calls
`kernels.*` through the module; `optim.train` looks up `adam_step`,
`bce_loss` and `l2_penalty` as module globals and imports `gauc` from
`metrics` when called; `metrics.log_loss` calls its own imported `bce_loss`. Spans are kept in memory and written once, after the
traced pass. A function missing from the program is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

KERNELS = (
    "attention_scores",
    "masked_softmax",
    "weighted_pool",
    "pool_backward",
    "softmax_backward",
    "scores_backward",
    "uniform_weights",
    "scatter_add_rows",
)

# (module, attribute path on it, span name)
TARGETS = (
    [("dinctr.data", fn, f"data.{fn}") for fn in (
        "generate_synthetic", "save_jsonl", "save_ground_truth", "load_jsonl", "build_vocab", "split", "encode")]
    + [("dinctr.kernels", fn, f"kernels.{fn}") for fn in KERNELS]
    + [
        ("dinctr.model", "DinModel.forward", "model.forward"),
        ("dinctr.model", "DinModel.backward", "model.backward"),
        ("dinctr.cli", "save_checkpoint", "model.save_checkpoint"),
        ("dinctr.cli", "load_checkpoint", "model.load_checkpoint"),
        ("dinctr.cli", "train", "optim.train"),
        ("dinctr.optim", "adam_step", "optim.adam_step"),
        ("dinctr.optim", "l2_penalty", "optim.l2_penalty"),
        ("dinctr.optim", "bce_loss", "optim.bce_loss"),
        ("dinctr.metrics", "bce_loss", "optim.bce_loss"),  # metrics.log_loss's own reference
        ("dinctr.metrics", "gauc", "metrics.gauc"),
        ("dinctr.metrics", "auc", "metrics.auc"),
        ("dinctr.metrics", "rank_ads", "metrics.rank_ads"),
    ]
)

# A call of the key made directly inside the value is folded into the
# caller's span: per-group AUC is part of what GAUC costs.
FOLDED = {"metrics.auc": "metrics.gauc"}

STAGES = ("generate", "train_din", "train_base", "eval", "compare", "predict", "rank")

# Per-layer self-time metric -> span name.
SELF_TIMES = {
    **{f"data.{fn}_s": f"data.{fn}" for fn in (
        "generate_synthetic", "save_jsonl", "save_ground_truth", "load_jsonl", "build_vocab", "split", "encode")},
    **{f"kernels.{fn}_s": f"kernels.{fn}" for fn in KERNELS},
    "model.forward_self_s": "model.forward",
    "model.backward_self_s": "model.backward",
    "model.save_checkpoint_s": "model.save_checkpoint",
    "model.load_checkpoint_s": "model.load_checkpoint",
    "optim.adam_step_s": "optim.adam_step",
    "optim.l2_penalty_s": "optim.l2_penalty",
    "optim.bce_loss_s": "optim.bce_loss",
    "optim.train_self_s": "optim.train",
    "metrics.gauc_s": "metrics.gauc",
    "metrics.auc_s": "metrics.auc",
    "metrics.rank_ads_s": "metrics.rank_ads",
}


def _nbytes(obj) -> int:
    """Bytes of every ndarray reachable through dataclass fields, dicts and sequences."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_nbytes(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []  # (name, parent index, start, end)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: dict[str, float] = defaultdict(float)
        self.hook_s = 0.0
        self._stack: list[list] = []  # [name, span index, start, time covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self._last_batch = None

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.spans.append((name, self._stack[-1][1] if self._stack else -1, 0.0, 0.0))
        self._stack.append([name, len(self.spans) - 1, time.perf_counter(), 0.0])

    def exit(self) -> float:
        end = time.perf_counter()
        name, idx, start, covered = self._stack.pop()
        dur = end - start
        self.spans[idx] = (name, self.spans[idx][1], start, end)
        self.self_time[name] += dur - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += dur
        return dur

    def _wrap(self, fn, name: str, hook):
        fold_into = FOLDED.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if fold_into and tracer._stack and tracer._stack[-1][0] == fold_into:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                ret = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                # Counting runs outside every span and is charged to no layer.
                t = time.perf_counter()
                hook(args, ret)
                dt = time.perf_counter() - t
                tracer.hook_s += dt
                if tracer._stack:
                    tracer._stack[-1][3] += dt
            return ret

        traced.__wrapped__ = fn
        return traced

    # -- counters read at the layer boundaries -----------------------------

    def _hooks(self) -> dict:
        c = self.counts

        def loaded(args, ret):
            c["data.records_loaded"] += len(ret)

        def encoded(args, ret):
            batch = ret[0]
            c["data.tokens_encoded"] += int(np.count_nonzero(batch.mask)) + 2 * len(batch)

        def forward(args, ret):
            self._last_batch = args[1]
            c["model.item_vocab_rows"] = args[0].config.item_vocab

        def backward(args, ret):
            c["grad_bytes"] += _nbytes(ret)
            b = self._last_batch
            if b is not None:
                c["grad_rows"] += np.unique(np.concatenate([b.behavior_idx[b.mask], b.ad_idx])).size

        def saved(args, ret):
            c["model.checkpoint_bytes"] = max(c["model.checkpoint_bytes"], os.path.getsize(args[3]))

        def grouped(args, ret):
            c["metrics.gauc_groups"] += ret.n_groups_used + ret.n_groups_skipped

        def ranked(args, ret):
            c["metrics.candidates_ranked"] += len(args[0])

        return {
            "data.load_jsonl": loaded,
            "data.encode": encoded,
            "model.forward": forward,
            "model.backward": backward,
            "model.save_checkpoint": saved,
            "metrics.gauc": grouped,
            "metrics.rank_ads": ranked,
        }

    def install(self) -> None:
        hooks = self._hooks()
        for module, path, name in TARGETS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                continue
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hooks.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out = {metric: self.self_time.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        c = self.counts
        steps = self.calls["model.backward"]
        rows = c["model.item_vocab_rows"]
        touched = c["grad_rows"] / steps if steps else 0.0
        out.update(
            {
                "data.records_loaded": c["data.records_loaded"],
                "data.tokens_encoded": c["data.tokens_encoded"],
                "model.forward_calls": self.calls["model.forward"],
                "model.grad_bytes_per_step": c["grad_bytes"] / steps if steps else 0.0,
                "model.grad_rows_touched_per_step": touched,
                "model.item_vocab_rows": rows,
                "model.grad_rows_useful_share": touched / rows if rows else 0.0,
                "model.checkpoint_bytes": c["model.checkpoint_bytes"],
                "optim.steps": self.calls["optim.adam_step"],
                "metrics.gauc_groups": c["metrics.gauc_groups"],
                "metrics.candidates_ranked": c["metrics.candidates_ranked"],
            }
        )
        return out

    def unattributed_shares(self) -> dict[str, float]:
        """Per stage: the share of its wall time that no layer span covers.

        Stages are the root spans, so a stage's self time is exactly that part.
        """
        wall: dict[str, float] = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent == -1:
                wall[name] += end - start
        return {s: self.self_time[s] / wall[s] if wall[s] else 0.0 for s in STAGES}

    def write_spans(self, path: str) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start_s", "end_s"],
                    "spans": [[n, p, round(s - t0, 7), round(e - t0, 7)] for n, p, s, e in self.spans],
                    "self_s": dict(self.self_time),
                    "calls": dict(self.calls),
                },
                fh,
            )
