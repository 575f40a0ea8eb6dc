"""Command-line pipeline: generate -> train -> eval -> predict -> rank.

One executable, subcommand per stage, everything deterministic given
(config file, flags, seed). Configuration precedence is defaults < config
file < command-line flags; reports echo the resolved config, eval's with the
scored checkpoint's model keys and path. JSON, JSONL and CSV output goes to
stdout; progress notes go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import data as D
from . import metrics as M
from .config import RunConfig
from .model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from .numerics import make_rng
from .optim import check_gradients, save_history, train

GRADCHECK_THRESHOLD = 1e-4

# The run keys a checkpoint's model fixes; `model` is its use_attention.
_MODEL_KEYS = ("model", "dim", "hidden", "max_seq_len", "temperature", "use_user_profile")


def resolve_config(config_path: str | None, flags: dict) -> RunConfig:
    """defaults < file < flags; ``flags`` holds the run keys given on the command line."""
    values = {}
    if config_path:
        file_values = D.read_json(config_path)
        if not isinstance(file_values, dict):
            raise ValueError(f"{config_path}: config file must hold a JSON object")
        values = D.parse_fields(RunConfig, file_values, config_path)
    return RunConfig(**values | D.parse_fields(RunConfig, flags))


def _open_output(path: str):
    """stdout for '-', else a file that is replaced whole or not at all."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else D.atomic_open(path, newline="")


def _write_json(path: str, obj: dict) -> None:
    with _open_output(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _write_csv(path: str, rows) -> None:
    with _open_output(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(cfg: RunConfig, args: argparse.Namespace) -> int:
    records, truth = D.generate_synthetic(cfg)
    D.save_jsonl(records, cfg.dataset)
    D.save_ground_truth(truth, cfg.metadata)
    n_pos = int(records.labels.sum())
    _write_json(
        "-",
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


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not os.path.exists(cfg.dataset):
        raise FileNotFoundError(f"dataset not found: {cfg.dataset}")
    records = D.load_jsonl(cfg.dataset)
    user_vocab, item_vocab = D.build_vocab(records)
    train_rows, val_rows = D.split(records, cfg.split_mode, cfg.val_fraction, cfg.seed)
    train_batch, enc_stats = D.encode(records.take(train_rows), user_vocab, item_vocab, cfg.max_seq_len)
    val_batch, _ = D.encode(records.take(val_rows), user_vocab, item_vocab, cfg.max_seq_len)
    del records  # training needs only the batches
    model = init_model(cfg.model_config(item_vocab.size, user_vocab.size), make_rng(cfg.seed, stream=1))
    _note(f"training {cfg.model} model on {len(train_batch)} records ({len(val_batch)} validation)")
    model, history = train(model, train_batch, val_batch, cfg)
    save_checkpoint(model, user_vocab, item_vocab, cfg.checkpoint, run_config=cfg.to_dict())
    save_history(history, cfg.history)
    last = history[-1]
    _write_json(
        "-",
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


def _scored_config(cfg: RunConfig, args: argparse.Namespace, stored: ModelConfig) -> RunConfig:
    """``cfg`` with the checkpoint's model keys, the config the report echoes.
    Model keys given as flags must agree with the checkpoint. A config
    file's model keys are settings for training, like its epochs, and the
    checkpoint's own are used."""
    given, scored = cfg.to_dict(), stored.to_dict() | {"model": "din" if stored.use_attention else "base"}
    for key in _MODEL_KEYS:
        if getattr(args, key, None) is not None and given[key] != scored[key]:
            raise ValueError(
                f"checkpoint/model-config mismatch on {key!r}: checkpoint has "
                f"{key}={scored[key]!r}, config says {key}={given[key]!r}"
            )
    return replace(cfg, **{key: scored[key] for key in _MODEL_KEYS})


def _single_eval(cfg: RunConfig, which: str, model, user_vocab, batch) -> dict:
    probs = model.predict(batch)
    by_impressions = M.gauc(probs, batch.labels, batch.user_idx, "impressions")
    by_clicks = M.gauc(probs, batch.labels, batch.user_idx, "clicks")
    groups = zip(by_impressions.keys.tolist(), by_impressions.weights.tolist(), by_impressions.aucs.tolist())
    return {
        "checkpoint": cfg.checkpoint,
        "dataset": cfg.dataset,
        "split": which,
        "n_records": len(batch),
        "auc": M.auc(probs, batch.labels),
        "log_loss": M.log_loss(probs, batch.labels),
        "accuracy": M.accuracy(probs, batch.labels),
        **{
            name: {"value": r.value, "n_groups_used": r.n_groups_used, "n_groups_skipped": r.n_groups_skipped}
            for name, r in (("gauc_impressions", by_impressions), ("gauc_clicks", by_clicks))
        },
        "per_group": [{"group": user_vocab.decode(k), "weight": w, "auc": a} for k, w, a in groups],
        "config": cfg.to_dict(),
    }


_COMPARE_METRICS = ("auc", "gauc_impressions", "gauc_clicks", "log_loss", "accuracy")


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    checkpoints, which = args.compare or [cfg.checkpoint], args.split
    for ck in checkpoints:
        if not os.path.exists(ck):
            raise FileNotFoundError(f"checkpoint not found: {ck}")
    # The dataset is read and split once, and encoded with each checkpoint's
    # vocabularies and max_seq_len. Checkpoints trained on the same file with
    # the same width share both, so a compare usually encodes it once.
    records = encoding = batch = None
    reports = []
    for ck in checkpoints:
        model, user_vocab, item_vocab, _ = load_checkpoint(ck)
        scored = _scored_config(replace(cfg, checkpoint=ck), args, model.config)
        if records is None:
            records = D.load_jsonl(cfg.dataset)
            if which != "all":
                train_rows, val_rows = D.split(records, cfg.split_mode, cfg.val_fraction, cfg.seed)
                records = records.take(train_rows if which == "train" else val_rows)
        if (user_vocab.tokens, item_vocab.tokens, model.config.max_seq_len) != encoding:
            encoding = (user_vocab.tokens, item_vocab.tokens, model.config.max_seq_len)
            batch, _ = D.encode(records, user_vocab, item_vocab, model.config.max_seq_len)
        reports.append(_single_eval(scored, which, model, user_vocab, batch))
    if args.groups_csv:
        rows = [[r["group"], repr(r["weight"]), repr(r["auc"])] for r in reports[0]["per_group"]]
        _write_csv(args.groups_csv, [["group", "weight", "auc"], *rows])
    if len(reports) == 1:
        if args.report:
            _write_json(args.report, reports[0])
        _write_json("-", reports[0])
        return 0
    names = []
    for ck in checkpoints:
        stem = os.path.splitext(os.path.basename(ck))[0]
        names.append(stem if stem not in names else f"{stem}_{len(names)}")
    rows = [[m, *(repr(r[m]["value"] if isinstance(r[m], dict) else r[m]) for r in reports)] for m in _COMPARE_METRICS]
    _write_csv("-", [["metric", *names], *rows])
    if args.report:
        _write_json(args.report, {"models": dict(zip(names, reports)), "metrics": list(_COMPARE_METRICS)})
    return 0


# Output lines with the bytes json.dumps gives (see data.json_str).
_PREDICT_LINE = '{"user_id": %s, "ad_id": %s, "p": %r}\n'
_RANK_LINE = '{"ad_id": %s, "p": %r, "bid": %r, "ecpm": %r}\n'


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> int:
    model, user_vocab, item_vocab, _ = load_checkpoint(cfg.checkpoint)
    records = D.load_jsonl(args.input, require_label=False)
    batch, _ = D.encode(records, user_vocab, item_vocab, model.config.max_seq_len)
    probs = model.predict(batch).tolist() if len(records) else []
    users, ads = map(D.json_str, records.users), map(D.json_str, records.items[records.starts])
    with _open_output(args.output) as out:
        out.write("".join(map(_PREDICT_LINE.__mod__, zip(users, ads, probs))))
    return 0


def cmd_rank(cfg: RunConfig, args: argparse.Namespace) -> int:
    model, user_vocab, item_vocab, _ = load_checkpoint(cfg.checkpoint)
    user_id = ""
    behaviors: list[str] = []
    if args.context:
        ctx = D.read_json(args.context)
        if not isinstance(ctx, dict):
            raise ValueError(f"{args.context}: expected a JSON object")
        user_id = D.parse_id(ctx.get("user_id", ""), args.context, "user_id")
        behaviors = D.parse_behavior_ids(ctx.get("behavior_ids", []), args.context)
    ads, bids = [], []
    for line_no, obj in D.iter_jsonl(args.candidates):
        if "ad_id" not in obj:
            raise ValueError(f"line {line_no}: candidate missing ad_id")
        if "bid" not in obj or obj["bid"] is None:
            raise ValueError(f"candidate {obj['ad_id']!r} missing bid (line {line_no})")
        ads.append(D.parse_id(obj["ad_id"], f"line {line_no}", "ad_id"))
        bids.append(D.parse_bid(obj["bid"], f"line {line_no} (candidate {ads[-1]!r})"))
    if not ads:
        raise ValueError("no candidates to rank")
    # The context is encoded once (its ad slot is unused); each candidate's
    # row repeats it, with the candidate's ad.
    context = D.Records.of([user_id], ["", *behaviors], [len(behaviors)], [0], [0], [np.nan])
    batch = D.encode(context, user_vocab, item_vocab, model.config.max_seq_len)[0].take(np.zeros(len(ads), dtype=int))
    batch.ad_idx = item_vocab.lookup(ads)
    probs, bids = model.predict(batch), np.array(bids)
    # Positional, ad ids first: the benchmark's tracer counts candidates as len(args[0]).
    order, ecpm = M.rank_ads(ads, bids, probs)
    ids = map(D.json_str, map(ads.__getitem__, order.tolist()))
    columns = (probs[order].tolist(), bids[order].tolist(), ecpm[order].tolist())
    with _open_output(args.output) as out:
        out.write("".join(map(_RANK_LINE.__mod__, zip(ids, *columns))))
    return 0


def gradcheck_model(use_attention: bool, seed: int, eps: float = 1e-5, l2_lambda: float = 1e-5) -> float:
    """Max relative error of the analytic gradients on a tiny random model."""
    rng = make_rng(seed, stream=3)
    config = ModelConfig(
        item_vocab=20, user_vocab=6, dim=4, hidden=(8,), max_seq_len=6, temperature=1.0, use_attention=use_attention,
        use_user_profile=False,
    )
    model = init_model(config, rng)
    B, T = 4, config.max_seq_len
    behavior_idx = np.zeros((B, T), dtype=np.int64)
    for b in range(B):
        length = int(rng.integers(1, T + 1))
        behavior_idx[b, :length] = rng.integers(2, config.item_vocab, size=length)
    batch = D.EncodedBatch(
        ad_idx=rng.integers(2, config.item_vocab, size=B).astype(np.int64),
        behavior_idx=behavior_idx,
        labels=rng.integers(0, 2, size=B).astype(np.float64),
        user_idx=rng.integers(2, config.user_vocab, size=B).astype(np.int64),
    )
    return check_gradients(model, batch, l2_lambda, eps)


def cmd_gradcheck(cfg: RunConfig, args: argparse.Namespace) -> int:
    error = gradcheck_model(cfg.model == "din", cfg.seed, eps=args.eps, l2_lambda=cfg.l2_lambda)
    passed = bool(error < GRADCHECK_THRESHOLD)
    _write_json("-", {"model": cfg.model, "max_rel_error": error, "threshold": GRADCHECK_THRESHOLD,
                      "eps": args.eps, "passed": passed})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_TRAIN_FLAGS = (*_MODEL_KEYS, "epochs", "batch_size", "lr", "l2_lambda", "patience", "split_mode", "val_fraction")
_CHOICES = {"model": ("din", "base"), "split_mode": ("temporal", "random")}
_HELP = {  # by (command, key): generate's dataset is an output, the other commands' an input
    ("generate", "dataset"): "output JSONL path",
    ("generate", "metadata"): "output ground-truth JSON path",
    ("train", "timing"): "write 0.0 in the history seconds column for byte-reproducible output",
}


def _add_config_flags(parser: argparse.ArgumentParser, command: str, keys) -> None:
    """A flag per run key; an absent flag is None, so the config file's value stands."""
    for key in keys:
        flag, text = "--" + key.replace("_", "-"), _HELP.get((command, key))
        if key == "timing":
            parser.add_argument("--no-timing", dest="timing", action="store_const", const=False, help=text)
        elif key == "use_user_profile":
            parser.add_argument(flag, action="store_const", const=True, help=text)
        else:
            parser.add_argument(flag, choices=_CHOICES.get(key), help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctr",
        description="CTR prediction pipeline: synthetic ad logs, attention-pooled model, ranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str, keys) -> argparse.ArgumentParser:
        """A subcommand that runs ``handler(cfg, args)``, with --config and the flags of ``("seed", *keys)``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=handler)
        p.add_argument("--config", help="JSON config file (flat keys)")
        _add_config_flags(p, name, ("seed", *keys))
        return p

    command("generate", cmd_generate, "write a synthetic dataset plus ground-truth metadata",
            ("dataset", "metadata", *D.GENERATOR_KEYS[:-1]))  # seed is the last generator key
    command("train", cmd_train, "train a model and write checkpoint + history CSV",
            ("dataset", "checkpoint", "history", "timing", *_TRAIN_FLAGS))

    p_eval = command("eval", cmd_eval, "evaluate one checkpoint, or compare two side by side",
                     ("dataset", "checkpoint"))
    p_eval.add_argument("--compare", nargs=2, metavar=("CKPT_A", "CKPT_B"))
    p_eval.add_argument("--split", choices=("train", "val", "all"), default="val")
    p_eval.add_argument("--report", help="also write the report to this path")
    p_eval.add_argument("--groups-csv",
                        help="write the per-group table as group,weight,auc CSV (CKPT_A's with --compare)")
    _add_config_flags(p_eval, "eval",
                      ("split_mode", "val_fraction", "dim", "hidden", "max_seq_len", "temperature", "model"))

    p_pred = command("predict", cmd_predict, "score impressions from a JSONL file", ("checkpoint",))
    p_pred.add_argument("--input", required=True, help="JSONL with user_id, ad_id, behavior_ids")
    p_pred.add_argument("--output", default="-", help="output JSONL path, '-' for stdout")

    p_rank = command("rank", cmd_rank, "rank bid-carrying candidates by eCPM for one user context", ("checkpoint",))
    p_rank.add_argument("--candidates", required=True, help="JSONL with ad_id and bid per line")
    p_rank.add_argument("--context", help="JSON file with user_id and behavior_ids")
    p_rank.add_argument("--output", default="-", help="output JSONL path, '-' for stdout")

    p_gc = command("gradcheck", cmd_gradcheck, "finite-difference check of the analytic gradients", ("model",))
    p_gc.add_argument("--eps", type=float, default=1e-5)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig) if getattr(args, f.name, None) is not None}
    try:
        return args.run(resolve_config(args.config, flags), args)
    except Exception as exc:  # deliberate: every failure becomes a nonzero exit
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
