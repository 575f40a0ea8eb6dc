"""Command-line pipeline: generate -> train -> eval -> predict -> rank.

One executable, subcommand per stage, everything deterministic given
(config file, flags, seed). Configuration precedence is defaults < config
file < command-line flags, and every report echoes the resolved config.
Machine-readable output (JSON/JSONL/CSV) goes to stdout; progress notes go
to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields, make_dataclass

import numpy as np

from . import data as D
from . import metrics as M
from .model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from .numerics import grad_check, make_rng
from .optim import TrainConfig, bce_loss, l2_penalty, save_history, train

GRADCHECK_THRESHOLD = 1e-4


class _RunConfigMethods:
    def to_dict(self) -> dict:
        return D.fields_dict(self)

    def validate(self) -> None:
        if self.model not in ("din", "base"):
            raise ValueError(f"model must be 'din' or 'base', got {self.model!r}")
        if self.split_mode not in ("temporal", "random"):
            raise ValueError(f"split_mode must be 'temporal' or 'random', got {self.split_mode!r}")
        self.synthetic_config().validate()
        self.train_config().validate()
        self.model_config(item_vocab=2, user_vocab=2).validate()  # the smallest vocabularies it accepts

    def _sub_config(self, cls, **given):
        """``cls`` built from this config's fields of the same names, plus ``given``."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}, **given)

    def synthetic_config(self) -> D.SyntheticConfig:
        return self._sub_config(D.SyntheticConfig)

    def train_config(self) -> TrainConfig:
        return self._sub_config(TrainConfig)

    def model_config(self, item_vocab: int, user_vocab: int) -> ModelConfig:
        return self._sub_config(
            ModelConfig,
            item_vocab=item_vocab,
            user_vocab=user_vocab,
            hidden=tuple(self.hidden),
            use_attention=self.model == "din",
        )


# The model fields a run sets, by run key: the vocabulary sizes come from the
# data, and use_attention from the run key `model`.
_MODEL_KEYS = {"model": "use_attention"} | {
    f.name: f.name for f in fields(ModelConfig) if f.name not in ("item_vocab", "user_vocab", "use_attention")
}
_PATH_DEFAULTS = {
    "dataset": "data/impressions.jsonl",
    "metadata": "data/metadata.json",
    "checkpoint": "out/model.ckpt",
    "history": "out/history.csv",
    "report": "out/report.json",
}


def _run_fields() -> list:
    """(name, type, default) of every run key: ``model``, each sub-config
    field once (``seed`` is in two of them) and the paths."""
    model_fields = [f for f in fields(ModelConfig) if f.name in _MODEL_KEYS]
    specs = {}
    for f in (*fields(D.SyntheticConfig), *fields(TrainConfig), *model_fields):
        specs.setdefault(f.name, (f.name, f.type, f.default))
    return [("model", "str", "din"), *specs.values(), *((k, "str", v) for k, v in _PATH_DEFAULTS.items())]


RunConfig = make_dataclass(
    "RunConfig",
    _run_fields(),
    bases=(_RunConfigMethods,),
    namespace={"__module__": __name__, "__doc__": "Every setting of a run: the sub-configs' fields and the paths."},
)


def resolve_config(config_path: str | None, overrides: dict) -> tuple[RunConfig, set]:
    """defaults < file < flags; returns the config and explicitly-set keys."""
    values = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"{config_path}: config file must hold a JSON object")
        values = D.parse_fields(RunConfig, file_values, config_path)
    values |= D.parse_fields(RunConfig, {k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg, set(values)


def _open_output(path: str):
    """``--output``: stdout for '-', else a file that is replaced whole or not at all."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else D.atomic_open(path)


def _write_report(path: str, payload: dict) -> None:
    with D.atomic_open(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(cfg: RunConfig) -> int:
    records, truth = D.generate_synthetic(cfg.synthetic_config())
    D.save_jsonl(records, cfg.dataset)
    D.save_ground_truth(truth, cfg.metadata)
    n_pos = sum(r.label for r in records)
    _emit(
        {
            "dataset": cfg.dataset,
            "metadata": cfg.metadata,
            "n_records": len(records),
            "n_positive": n_pos,
            "empirical_ctr": n_pos / len(records),
            "mean_true_p": float(np.mean(truth.true_probs)),
            "config": cfg.to_dict(),
        }
    )
    return 0


def _load_split(cfg: RunConfig, which: str) -> list[D.ImpressionRecord]:
    records = D.load_jsonl(cfg.dataset)
    if which == "all":
        return records
    train_recs, val_recs = D.split(records, cfg.split_mode, cfg.val_fraction, cfg.seed)
    return train_recs if which == "train" else val_recs


def cmd_train(cfg: RunConfig) -> int:
    if not os.path.exists(cfg.dataset):
        raise FileNotFoundError(f"dataset not found: {cfg.dataset}")
    records = D.load_jsonl(cfg.dataset)
    user_vocab, item_vocab = D.build_vocab(records)
    train_recs, val_recs = D.split(records, cfg.split_mode, cfg.val_fraction, cfg.seed)
    train_batch, enc_stats = D.encode(train_recs, user_vocab, item_vocab, cfg.max_seq_len)
    val_batch, _ = D.encode(val_recs, user_vocab, item_vocab, cfg.max_seq_len)
    model = init_model(cfg.model_config(item_vocab.size, user_vocab.size), make_rng(cfg.seed, stream=1))
    _note(f"training {cfg.model} model on {len(train_batch)} records ({len(val_batch)} validation)")
    model, history = train(model, train_batch, val_batch, cfg.train_config())
    save_checkpoint(model, user_vocab, item_vocab, cfg.checkpoint, run_config=cfg.to_dict())
    save_history(history, cfg.history)
    last = history.epochs[-1]
    _emit(
        {
            "checkpoint": cfg.checkpoint,
            "history": cfg.history,
            "model": cfg.model,
            "epochs_run": len(history),
            "final_train_loss": last.train_loss,
            "final_val_loss": last.val_loss,
            "final_val_gauc": last.val_gauc,
            "encode_stats": enc_stats.to_dict(),
            "config": cfg.to_dict(),
        }
    )
    return 0


def _check_model_overrides(cfg: RunConfig, explicit: set, stored: ModelConfig) -> None:
    """Explicit model hyperparameters must agree with the checkpoint."""
    given = cfg.model_config(stored.item_vocab, stored.user_vocab)
    for key, name in _MODEL_KEYS.items():
        if key in explicit and getattr(given, name) != getattr(stored, name):
            raise ValueError(
                f"checkpoint/model-config mismatch on {key!r}: checkpoint has "
                f"{name}={getattr(stored, name)!r}, config says {name}={getattr(given, name)!r}"
            )


def _single_eval(cfg: RunConfig, checkpoint_path: str, which: str, model, user_vocab, batch) -> dict:
    probs = model.predict(batch)
    by_impressions = M.evaluate(probs, batch.labels, batch.group_keys, "impressions")
    by_clicks = M.gauc(probs, batch.labels, batch.group_keys, "clicks")
    return {
        "checkpoint": checkpoint_path,
        "dataset": cfg.dataset,
        "split": which,
        "n_records": by_impressions.n_records,
        "auc": by_impressions.auc,
        "log_loss": by_impressions.log_loss,
        "accuracy": by_impressions.accuracy,
        "gauc_impressions": {
            "value": by_impressions.gauc,
            "n_groups_used": by_impressions.n_groups_used,
            "n_groups_skipped": by_impressions.n_groups_skipped,
        },
        "gauc_clicks": {
            "value": by_clicks.value,
            "n_groups_used": by_clicks.n_groups_used,
            "n_groups_skipped": by_clicks.n_groups_skipped,
        },
        "per_group": [
            {"group": user_vocab.decode(g.group_key), "weight": g.weight, "auc": g.auc}
            for g in by_impressions.per_group
        ],
        "config": cfg.to_dict(),
    }


_COMPARE_METRICS = ("auc", "gauc_impressions", "gauc_clicks", "log_loss", "accuracy")


def _metric_value(report: dict, name: str) -> float:
    v = report[name]
    return v["value"] if isinstance(v, dict) else v


def cmd_eval(
    cfg: RunConfig,
    explicit: set,
    checkpoints: list[str],
    which: str,
    report_path: str | None,
    groups_csv: str | None = None,
) -> int:
    for ck in checkpoints:
        if not os.path.exists(ck):
            raise FileNotFoundError(f"checkpoint not found: {ck}")
    # The dataset is read and split once. Checkpoints trained on the same
    # file have equal vocabularies, so a compare encodes it once too.
    records = vocab = batch = None
    reports = []
    for ck in checkpoints:
        model, user_vocab, item_vocab, _ = load_checkpoint(ck)
        _check_model_overrides(cfg, explicit, model.config)
        if records is None:
            records = _load_split(cfg, which)
        if (user_vocab.tokens, item_vocab.tokens) != vocab:
            vocab = (user_vocab.tokens, item_vocab.tokens)
            batch, _ = D.encode(records, user_vocab, item_vocab, cfg.max_seq_len)
        reports.append(_single_eval(cfg, ck, which, model, user_vocab, batch))
    if groups_csv:
        with D.atomic_open(groups_csv) as fh:
            fh.write("group,weight,auc\n")
            for row in reports[0]["per_group"]:
                fh.write(f"{row['group']},{repr(row['weight'])},{repr(row['auc'])}\n")
    if len(reports) == 1:
        payload = reports[0]
        if report_path:
            _write_report(report_path, payload)
        _emit(payload)
        return 0
    names = []
    for ck in checkpoints:
        stem = os.path.splitext(os.path.basename(ck))[0]
        names.append(stem if stem not in names else f"{stem}_{len(names)}")
    lines = ["metric," + ",".join(names)]
    for metric in _COMPARE_METRICS:
        row = [metric] + [repr(_metric_value(r, metric)) for r in reports]
        lines.append(",".join(row))
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if report_path:
        _write_report(report_path, {"models": dict(zip(names, reports)), "metrics": list(_COMPARE_METRICS)})
    return 0


def cmd_predict(checkpoint_path: str, input_path: str, output_path: str) -> int:
    model, user_vocab, item_vocab, _ = load_checkpoint(checkpoint_path)
    records = D.load_jsonl(input_path, require_label=False)
    if not records:
        return 0
    batch, _ = D.encode(records, user_vocab, item_vocab, model.config.max_seq_len)
    probs = model.predict(batch)
    with _open_output(output_path) as out:
        for rec, p in zip(records, probs):
            out.write(json.dumps({"user_id": rec.user_id, "ad_id": rec.ad_id, "p": float(p)}) + "\n")
    return 0


def cmd_rank(checkpoint_path: str, candidates_path: str, context_path: str | None, output_path: str) -> int:
    model, user_vocab, item_vocab, _ = load_checkpoint(checkpoint_path)
    user_id = ""
    behaviors: list[str] = []
    if context_path:
        with open(context_path, "r", encoding="utf-8") as fh:
            ctx = json.load(fh)
        if not isinstance(ctx, dict):
            raise ValueError(f"{context_path}: expected a JSON object")
        user_id = D.parse_id(ctx.get("user_id", ""), context_path, "user_id")
        behaviors = D.parse_behavior_ids(ctx.get("behavior_ids", []), context_path)
    raw = []
    for line_no, obj in D.iter_jsonl(candidates_path):
        if "ad_id" not in obj:
            raise ValueError(f"line {line_no}: candidate missing ad_id")
        if "bid" not in obj or obj["bid"] is None:
            raise ValueError(f"candidate {obj['ad_id']!r} missing bid (line {line_no})")
        ad_id = D.parse_id(obj["ad_id"], f"line {line_no}", "ad_id")
        raw.append((ad_id, D.parse_bid(obj["bid"], f"line {line_no} (candidate {ad_id!r})")))
    if not raw:
        raise ValueError("no candidates to rank")
    records = [
        D.ImpressionRecord(user_id=user_id, ad_id=ad_id, behavior_ids=behaviors, label=0, timestamp=0, bid=bid)
        for ad_id, bid in raw
    ]
    batch, _ = D.encode(records, user_vocab, item_vocab, model.config.max_seq_len)
    probs = model.predict(batch)
    ranked = M.rank_ads(
        [M.AdCandidate(ad_id=r[0], bid=r[1], predicted_ctr=float(p)) for r, p in zip(raw, probs)]
    )
    with _open_output(output_path) as out:
        for c in ranked:
            out.write(
                json.dumps(
                    {"ad_id": c.ad_id, "p": c.predicted_ctr, "bid": c.bid, "ecpm": M.ecpm(c.predicted_ctr, c.bid)}
                )
                + "\n"
            )
    return 0


def gradcheck_model(use_attention: bool, seed: int, eps: float = 1e-5, l2_lambda: float = 1e-5):
    """Max relative error of the analytic gradients on a tiny random model."""
    from .data import EncodedBatch

    rng = make_rng(seed, stream=3)
    config = ModelConfig(
        item_vocab=20,
        user_vocab=6,
        dim=4,
        hidden=(8,),
        max_seq_len=6,
        temperature=1.0,
        use_attention=use_attention,
    )
    model = init_model(config, rng)
    B, T = 4, config.max_seq_len
    behavior_idx = np.zeros((B, T), dtype=np.int64)
    for b in range(B):
        length = int(rng.integers(1, T + 1))
        behavior_idx[b, :length] = rng.integers(2, config.item_vocab, size=length)
    batch = EncodedBatch(
        ad_idx=rng.integers(2, config.item_vocab, size=B).astype(np.int64),
        behavior_idx=behavior_idx,
        mask=behavior_idx != 0,
        labels=rng.integers(0, 2, size=B).astype(np.float64),
        group_keys=np.zeros(B, dtype=np.int64),
        user_idx=rng.integers(2, config.user_vocab, size=B).astype(np.int64),
    )

    def loss_at(flat: np.ndarray) -> float:
        probe = model.copy()
        probe.set_flat_params(flat)
        probs, cache = probe.forward(batch)
        loss, _ = bce_loss(probs, batch.labels)
        grads = probe.backward(cache, np.zeros(B))  # zero grads, batch-touched rows
        return loss + l2_penalty(probe, l2_lambda, grads)

    probs, cache = model.forward(batch)
    loss, dprobs = bce_loss(probs, batch.labels)
    grads = model.backward(cache, dprobs)
    l2_penalty(model, l2_lambda, grads)
    analytic = grads.flat(model.params)
    return grad_check(loss_at, model.flat_params(), analytic, eps=eps), model


def cmd_gradcheck(cfg: RunConfig, eps: float) -> int:
    error, _ = gradcheck_model(cfg.model == "din", cfg.seed, eps=eps, l2_lambda=cfg.l2_lambda)
    passed = bool(error < GRADCHECK_THRESHOLD)
    _emit(
        {
            "model": cfg.model,
            "max_rel_error": error,
            "threshold": GRADCHECK_THRESHOLD,
            "eps": eps,
            "passed": passed,
        }
    )
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_GENERATOR_FLAGS = tuple(f.name for f in fields(D.SyntheticConfig) if f.name != "seed")
# seed is a flag of every command, and timing is set by --no-timing.
_TRAIN_FLAGS = (*_MODEL_KEYS, *(f.name for f in fields(TrainConfig) if f.name not in ("seed", "timing")))


def _add_config_flags(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if key == "model":
            parser.add_argument(flag, choices=("din", "base"), default=None)
        elif key == "split_mode":
            parser.add_argument(flag, choices=("temporal", "random"), default=None)
        elif key == "use_user_profile":
            parser.add_argument(flag, action="store_const", const=True, default=None)
        else:
            parser.add_argument(flag, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctr",
        description="CTR prediction pipeline: synthetic ad logs, attention-pooled model, ranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON config file (flat keys)")
        p.add_argument("--seed", default=None)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset plus ground-truth metadata")
    common(p_gen)
    p_gen.add_argument("--dataset", default=None, help="output JSONL path")
    p_gen.add_argument("--metadata", default=None, help="output ground-truth JSON path")
    _add_config_flags(p_gen, _GENERATOR_FLAGS)

    p_train = sub.add_parser("train", help="train a model and write checkpoint + history CSV")
    common(p_train)
    p_train.add_argument("--dataset", default=None)
    p_train.add_argument("--checkpoint", default=None)
    p_train.add_argument("--history", default=None)
    p_train.add_argument("--no-timing", action="store_true", help="write 0.0 in the history seconds column for byte-reproducible output")
    _add_config_flags(p_train, _TRAIN_FLAGS)

    p_eval = sub.add_parser("eval", help="evaluate one checkpoint, or compare two side by side")
    common(p_eval)
    p_eval.add_argument("--dataset", default=None)
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--compare", nargs=2, metavar=("CKPT_A", "CKPT_B"), default=None)
    p_eval.add_argument("--split", choices=("train", "val", "all"), default="val")
    p_eval.add_argument("--report", default=None, help="also write the report to this path")
    p_eval.add_argument("--groups-csv", default=None, help="write the per-group table as group,weight,auc CSV")
    _add_config_flags(p_eval, ("split_mode", "val_fraction", "dim", "hidden", "max_seq_len", "temperature", "model"))

    p_pred = sub.add_parser("predict", help="score impressions from a JSONL file")
    common(p_pred)
    p_pred.add_argument("--checkpoint", default=None)
    p_pred.add_argument("--input", required=True, help="JSONL with user_id, ad_id, behavior_ids")
    p_pred.add_argument("--output", default="-", help="output JSONL path, '-' for stdout")

    p_rank = sub.add_parser("rank", help="rank bid-carrying candidates by eCPM for one user context")
    common(p_rank)
    p_rank.add_argument("--checkpoint", default=None)
    p_rank.add_argument("--candidates", required=True, help="JSONL with ad_id and bid per line")
    p_rank.add_argument("--context", default=None, help="JSON file with user_id and behavior_ids")
    p_rank.add_argument("--output", default="-", help="output JSONL path, '-' for stdout")

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    common(p_gc)
    p_gc.add_argument("--model", choices=("din", "base"), default=None)
    p_gc.add_argument("--eps", type=float, default=1e-5)

    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The config keys given as flags. eval's --report names the file this run
    writes; the config key of that name is only echoed."""
    given = vars(args)
    overrides = {f.name: given[f.name] for f in fields(RunConfig) if f.name in given and f.name != "report"}
    if given.get("no_timing"):
        overrides["timing"] = False
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, explicit = resolve_config(args.config, _overrides_from_args(args))
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            checkpoints = list(args.compare) if args.compare else [cfg.checkpoint]
            return cmd_eval(cfg, explicit, checkpoints, args.split, args.report, args.groups_csv)
        if args.command == "predict":
            return cmd_predict(cfg.checkpoint, args.input, args.output)
        if args.command == "rank":
            return cmd_rank(cfg.checkpoint, args.candidates, args.context, args.output)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, args.eps)
        raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:  # deliberate: every failure becomes a nonzero exit
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
