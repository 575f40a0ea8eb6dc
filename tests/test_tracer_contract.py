"""The names and fields `pipebench/tracer.py` reads from dinctr still exist.

The tracer wraps program functions from outside `src/` and skips one it
cannot find, so a renamed function or batch field would quietly zero a
per-layer metric. The benchmark's own tests live outside this suite; these
tests load the tracer read-only and check its side of the contract here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from dinctr import data as D
from dinctr.config import RunConfig
from dinctr.cli import main
from dinctr.metrics import gauc, rank_ads
from dinctr.model import init_model, save_checkpoint
from dinctr.numerics import make_rng
from dinctr.optim import bce_loss

TRACER_PATH = Path(__file__).resolve().parents[1] / "pipebench" / "tracer.py"

# Wrapped by the tracer but deleted from the program; its metric reads 0.
KNOWN_MISSING = {("dinctr.kernels", "scatter_add_rows")}


def load_tracer():
    spec = importlib.util.spec_from_file_location("pipebench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, path: str):
    """The object the tracer would wrap, looked up the way ``Tracer.install`` does."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def tiny_batch():
    records, _ = D.generate_synthetic(RunConfig(num_users=6, num_items=12, impressions=40, seed=1))
    users, items = D.build_vocab(records)
    batch, stats = D.encode(records, users, items, 5)
    return batch, stats, users, items


def test_every_target_resolves():
    tracer = load_tracer()
    missing = {(module, path) for module, path, _ in tracer.TARGETS if not callable(resolve(module, path))}
    assert missing <= KNOWN_MISSING


def test_encode_hook_reads_the_batch():
    batch, stats, _, _ = tiny_batch()
    for name in ("mask", "behavior_idx", "ad_idx"):
        assert isinstance(getattr(batch, name), np.ndarray)
    tracer = load_tracer().Tracer()
    tracer._hooks()["data.encode"]((), (batch, stats))
    assert tracer.counts["data.tokens_encoded"] == np.count_nonzero(batch.behavior_idx) + 2 * len(batch) > 0


def test_forward_and_backward_hooks_read_the_batch_and_gradients():
    batch, _, users, items = tiny_batch()
    model = init_model(RunConfig(max_seq_len=5).model_config(items.size, users.size), make_rng(1, stream=1))
    probs, cache = model.forward(batch)
    grads = model.backward(cache, bce_loss(probs, batch.labels)[1])
    tracer = load_tracer().Tracer()
    hooks = tracer._hooks()
    hooks["model.forward"]((model, batch), (probs, cache))
    hooks["model.backward"]((model, cache, None), grads)
    assert tracer.counts["model.item_vocab_rows"] == items.size
    assert tracer.counts["grad_rows"] == grads.rows["item_emb"].size > 0
    assert tracer.counts["grad_bytes"] > 0


def test_gauc_hook_reads_the_group_counts():
    rng = make_rng(3)
    result = gauc(rng.random(50), rng.integers(0, 2, size=50), rng.integers(0, 8, size=50))
    assert isinstance(result.n_groups_used, int) and isinstance(result.n_groups_skipped, int)
    tracer = load_tracer().Tracer()
    tracer._hooks()["metrics.gauc"]((), result)
    assert tracer.counts["metrics.gauc_groups"] == result.n_groups_used + result.n_groups_skipped == 8


def test_rank_hook_reads_the_candidate_count(tmp_path, capsys):
    """``ctr rank`` passes the ad ids first, so the hook's ``len(args[0])`` is
    the number of candidates ranked."""
    ad_ids, bids, probs = ["i3", "cold", "i1"], [1.0, 2.0, 0.5], [0.2, 0.1, 0.4]
    tracer = load_tracer().Tracer()
    tracer._hooks()["metrics.rank_ads"]((ad_ids, bids, probs), rank_ads(ad_ids, bids, probs))
    assert tracer.counts["metrics.candidates_ranked"] == 3

    _, _, users, items = tiny_batch()
    model = init_model(RunConfig(max_seq_len=5).model_config(items.size, users.size), make_rng(1, stream=1))
    checkpoint, candidates = tmp_path / "model.ckpt", tmp_path / "candidates.jsonl"
    save_checkpoint(model, users, items, checkpoint)
    candidates.write_text("".join(f'{{"ad_id": "{a}", "bid": {b}}}\n' for a, b in zip(ad_ids * 2, bids * 2)))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert main(["rank", "--checkpoint", str(checkpoint), "--candidates", str(candidates)]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.count("\n") == tracer.counts["metrics.candidates_ranked"] == 6


def test_load_and_encode_hooks_read_what_the_program_returns(tmp_path):
    """``len(load_jsonl(path))`` is the record count and ``encode`` returns
    ``(EncodedBatch, EncodeStats)``: the ``len(ret)`` and ``ret[0]`` the hooks read."""
    records, _ = D.generate_synthetic(RunConfig(num_users=6, num_items=12, impressions=40, seed=1))
    path = tmp_path / "data.jsonl"
    D.save_jsonl(records, path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join([b"\n", *lines[:20], b" \t\r\n", *lines[20:]]))  # two blank lines
    non_blank = sum(1 for line in path.read_bytes().split(b"\n") if line.strip(b" \t\r\n"))
    loaded = D.load_jsonl(path)
    assert len(loaded) == non_blank == 40
    users, items = D.build_vocab(loaded)
    ret = D.encode(loaded, users, items, 5)
    assert type(ret) is tuple and len(ret) == 2
    assert isinstance(ret[0], D.EncodedBatch) and isinstance(ret[1], D.EncodeStats)
    tracer = load_tracer().Tracer()
    hooks = tracer._hooks()
    hooks["data.load_jsonl"]((path,), loaded)
    hooks["data.encode"]((loaded, users, items, 5), ret)
    assert tracer.counts["data.records_loaded"] == non_blank
    assert tracer.counts["data.tokens_encoded"] == np.count_nonzero(ret[0].behavior_idx) + 2 * len(ret[0])
