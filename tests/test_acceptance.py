"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. The DIN-vs-base experiment uses the calibrated recipe described in
the README (generator signal_strength=16, epochs=25, lr=0.01, batch 128;
all other knobs at package defaults): at the generator's default signal
strength the Bayes-optimal ranker itself sits too close to the pass
thresholds for the comparison to clear measurement noise, so the signal
knob was calibrated once against that oracle and then frozen.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from dinctr import data as D
from dinctr import kernels
from dinctr import metrics as M
from dinctr.cli import main
from dinctr.config import RunConfig
from dinctr.model import init_model, load_checkpoint, save_checkpoint
from dinctr.numerics import make_rng
from dinctr.optim import AdamState, Gradients, adam_step, train
from helpers import same_records

SEEDS = (1, 2, 3)
EXPERIMENT = {
    "signal_strength": 16.0,
    "epochs": 25,
    "lr": 0.01,
    "batch_size": 128,
}


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"acceptance criterion {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}", flush=True)
    assert passed, f"criterion {criterion}: {detail}"


@dataclass
class Run:
    gauc: float
    val_losses: list
    seconds: float
    pad_row_zero: bool


def _train_one(seed: int, use_attention: bool, signal_strength: float) -> Run:
    cfg = RunConfig(seed=seed, **{**EXPERIMENT, "signal_strength": signal_strength})
    records, _ = D.generate_synthetic(cfg)
    train_rows, val_rows = D.split(records, cfg.split_mode, cfg.val_fraction, seed)
    users, items = D.build_vocab(records)
    train_batch, _ = D.encode(records.take(train_rows), users, items, cfg.max_seq_len)
    val_batch, _ = D.encode(records.take(val_rows), users, items, cfg.max_seq_len)
    model_config = cfg.model_config(items.size, users.size)
    model_config.use_attention = use_attention
    model = init_model(model_config, make_rng(seed, stream=1))
    tic = time.perf_counter()
    model, history = train(model, train_batch, val_batch, cfg)
    seconds = time.perf_counter() - tic
    return Run(
        gauc=history[-1].val_gauc,
        val_losses=[e.val_loss for e in history],
        seconds=seconds,
        pad_row_zero=not model.params["item_emb"][0].any(),
    )


@pytest.fixture(scope="module")
def experiment_runs():
    """3 seeds x {attention, uniform} at the calibrated signal strength."""
    return {
        (seed, name): _train_one(seed, name == "din", EXPERIMENT["signal_strength"])
        for seed in SEEDS
        for name in ("din", "base")
    }


@pytest.fixture(scope="module")
def null_runs():
    """Same recipe with the click signal switched off entirely."""
    out = {}
    for seed in SEEDS:
        cfg = RunConfig(seed=seed, **{**EXPERIMENT, "signal_strength": 0.0})
        records, _ = D.generate_synthetic(cfg)
        train_rows, val_rows = D.split(records, cfg.split_mode, cfg.val_fraction, seed)
        users, items = D.build_vocab(records)
        train_batch, _ = D.encode(records.take(train_rows), users, items, cfg.max_seq_len)
        val_batch, _ = D.encode(records.take(val_rows), users, items, cfg.max_seq_len)
        for name in ("din", "base"):
            model_config = cfg.model_config(items.size, users.size)
            model_config.use_attention = name == "din"
            model = init_model(model_config, make_rng(seed, stream=1))
            model, _ = train(model, train_batch, val_batch, cfg)
            out[(seed, name)] = M.auc(model.predict(val_batch), val_batch.labels)
    return out


def test_criterion_1_gradient_fidelity(capsys):
    """Analytic backward vs central differences for both model flavors."""
    tic = time.perf_counter()
    errors = {}
    for flavor in ("din", "base"):
        code = main(["gradcheck", "--model", flavor, "--eps", "1e-5"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        errors[flavor] = payload["max_rel_error"]
        assert code == 0
    elapsed = time.perf_counter() - tic
    ok = all(e < 1e-4 for e in errors.values()) and elapsed < 10.0
    with capsys.disabled():
        report(1, ok, f"max rel error din={errors['din']:.2e} base={errors['base']:.2e} in {elapsed:.1f}s (<1e-4, <10s)")


def test_criterion_2_auc_matches_brute_force(capsys):
    """1000 seeded instances, n <= 200, ties included, within 1e-12."""
    rng = make_rng(2024)
    tic = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        while labels.min() == labels.max():
            labels = rng.integers(0, 2, size=n)
        if trial % 2 == 0:
            scores = rng.integers(0, 8, size=n).astype(np.float64) / 7.0  # heavy ties
        else:
            scores = rng.random(n)
        fast = M.auc(scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        brute = (wins + 0.5 * ties) / (pos.size * neg.size)
        worst = max(worst, abs(fast - brute))
    elapsed = time.perf_counter() - tic
    ok = worst < 1e-12 and elapsed < 30.0
    with capsys.disabled():
        report(2, ok, f"1000 instances, worst |fast-brute|={worst:.2e} in {elapsed:.1f}s (<1e-12, <30s)")


def test_criterion_3_gauc_correctness(capsys):
    rng = make_rng(2025)
    # single group: grouped metric collapses to plain AUC, exactly
    scores = rng.random(60)
    labels = rng.integers(0, 2, size=60)
    labels[:2] = (0, 1)
    single_ok = M.gauc(scores, labels, np.zeros(60, dtype=np.int64)).value == M.auc(scores, labels)

    # the (AUC 1.0, weight 3) + (AUC 0.5, weight 1) -> 0.875 example, exact
    s = np.array([0.9, 0.8, 0.7, 0.1, 0.5, 0.5])
    y = np.array([1, 1, 1, 0, 1, 0])
    k = np.array([0, 0, 0, 0, 1, 1])
    example_ok = M.gauc(s, y, k, "clicks").value == 0.875

    worst = 0.0
    checked = 0
    while checked < 200:
        n = int(rng.integers(10, 150))
        scores = rng.integers(0, 6, size=n).astype(np.float64) / 5.0 if checked % 2 else rng.random(n)
        labels = rng.integers(0, 2, size=n)
        keys = rng.integers(0, 7, size=n)
        mode = "clicks" if checked % 3 == 0 else "impressions"
        try:
            got = M.gauc(scores, labels, keys, mode)
        except ValueError:
            continue
        total = weight_sum = 0.0
        for key in np.unique(keys):
            sel = keys == key
            yk = labels[sel]
            if yk.min() == yk.max():
                continue
            pos = scores[sel][yk == 1]
            neg = scores[sel][yk == 0]
            auc_k = ((pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (
                pos.size * neg.size
            )
            w = float(pos.size) if mode == "clicks" else float(yk.size)
            total += w * auc_k
            weight_sum += w
        worst = max(worst, abs(got.value - total / weight_sum))
        checked += 1
    ok = single_ok and example_ok and worst < 1e-12
    with capsys.disabled():
        report(3, ok, f"single-group exact={single_ok}, 0.875 example exact={example_ok}, "
                      f"200 instances worst diff={worst:.2e} (<1e-12)")


def test_criterion_4_attention_invariants(capsys):
    rng = make_rng(2026)
    sums_ok = pads_ok = shift_ok = True
    for _ in range(50):
        B, T, d = 6, 9, 5
        behav = rng.normal(size=(B, T, d))
        ad = rng.normal(size=(B, d))
        mask = np.zeros((B, T), dtype=bool)
        for b in range(B):
            mask[b, : int(rng.integers(1, T + 1))] = True
        scores = kernels.attention_scores(behav, ad, 1.0)
        w = kernels.masked_softmax(scores, mask)
        sums_ok &= bool(np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12))
        pads_ok &= bool((w[~mask] == 0.0).all())
        shifted = kernels.masked_softmax(np.where(mask, scores + 10.0, scores), mask)
        shift_ok &= bool(np.allclose(w, shifted, atol=1e-12, rtol=0))

    uniform_exact = np.array_equal(
        kernels.masked_softmax(np.zeros((1, 4)) + 2.5, np.ones((1, 4), dtype=bool)),
        np.full((1, 4), 0.25),
    )

    # permuting one record's behaviors moves its prediction by < 1e-12
    config = RunConfig().model_config(item_vocab=40, user_vocab=6)
    model = init_model(config, make_rng(9, stream=1))
    idx = np.zeros((1, config.max_seq_len), dtype=np.int64)
    idx[0, :10] = rng.integers(2, 40, size=10)
    perm = idx.copy()
    perm[0, :10] = rng.permutation(idx[0, :10])
    make_batch = lambda bi: D.EncodedBatch(
        ad_idx=np.array([3], dtype=np.int64),
        behavior_idx=bi,
        labels=np.array([1.0]),
        user_idx=np.array([2], dtype=np.int64),
    )
    delta = abs((model.predict(make_batch(idx)) - model.predict(make_batch(perm))).item())
    perm_ok = delta < 1e-12

    ok = sums_ok and pads_ok and shift_ok and uniform_exact and perm_ok
    with capsys.disabled():
        report(4, ok, f"sum-to-1 {sums_ok}, exact pad zeros {pads_ok}, shift invariance {shift_ok}, "
                      f"uniform exact {uniform_exact}, permutation delta={delta:.1e} (<1e-12)")


def test_criterion_5_attention_beats_uniform_pooling(experiment_runs, capsys):
    margins, dins, times = [], [], []
    for seed in SEEDS:
        din = experiment_runs[(seed, "din")]
        base = experiment_runs[(seed, "base")]
        margins.append(din.gauc - base.gauc)
        dins.append(din.gauc)
        times.extend([din.seconds, base.seconds])
    ok = all(m >= 0.01 for m in margins) and all(g > 0.60 for g in dins) and max(times) < 300.0
    detail = ", ".join(
        f"seed {s}: din={experiment_runs[(s, 'din')].gauc:.4f} margin={m:+.4f}" for s, m in zip(SEEDS, margins)
    )
    with capsys.disabled():
        report(5, ok, f"{detail}; max run {max(times):.0f}s (margin>=0.01, din>0.60, <300s)")


def test_criterion_6_null_signal_near_chance(null_runs, capsys):
    ok = all(0.47 <= v <= 0.53 for v in null_runs.values())
    lo, hi = min(null_runs.values()), max(null_runs.values())
    with capsys.disabled():
        report(6, ok, f"alpha=0 validation AUC range [{lo:.4f}, {hi:.4f}] within [0.47, 0.53]")


def test_criterion_7_validation_loss_declines(experiment_runs, capsys):
    ok = True
    worst = ""
    for (seed, name), run in experiment_runs.items():
        e1, e5 = run.val_losses[0], run.val_losses[4]
        if not e5 < e1:
            ok = False
            worst = f" (seed {seed} {name}: ep1={e1:.4f} ep5={e5:.4f})"
    with capsys.disabled():
        report(7, ok, f"epoch-5 val loss < epoch-1 val loss for all {len(experiment_runs)} runs{worst}")


def test_criterion_8_byte_identical_artifacts(tmp_path, capsys):
    """Two runs with identical (seed, config, data) must produce identical
    bytes. The config disables wall-clock timing (timing=false), the one
    physically nondeterministic output field; checkpoint and report bytes
    are additionally compared under default timing."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "num_users": 50, "num_items": 40, "impressions": 2000,
        "epochs": 3, "batch_size": 128, "lr": 0.005, "timing": False,
    }))
    dataset = str(tmp_path / "d.jsonl")
    ck = str(tmp_path / "m.ckpt")
    hist = str(tmp_path / "h.csv")
    rep = str(tmp_path / "r.json")

    def run_pipeline():
        assert main(["generate", "--config", str(config_path), "--dataset", dataset]) == 0
        assert main(["train", "--config", str(config_path), "--dataset", dataset,
                     "--checkpoint", ck, "--history", hist]) == 0
        assert main(["eval", "--config", str(config_path), "--dataset", dataset,
                     "--checkpoint", ck, "--report", rep]) == 0
        return open(dataset, "rb").read(), open(ck, "rb").read(), open(hist, "rb").read(), open(rep, "rb").read()

    first = run_pipeline()
    second = run_pipeline()
    capsys.readouterr()
    identical = [a == b for a, b in zip(first, second)]

    # default timing: numeric artifacts still reproduce byte for byte
    config2 = tmp_path / "config_timed.json"
    config2.write_text(json.dumps({
        "num_users": 50, "num_items": 40, "impressions": 2000,
        "epochs": 3, "batch_size": 128, "lr": 0.005,
    }))
    assert main(["generate", "--config", str(config2), "--dataset", dataset]) == 0
    assert main(["train", "--config", str(config2), "--dataset", dataset,
                 "--checkpoint", ck, "--history", hist]) == 0
    ck1 = open(ck, "rb").read()
    assert main(["train", "--config", str(config2), "--dataset", dataset,
                 "--checkpoint", ck, "--history", hist]) == 0
    ck2 = open(ck, "rb").read()
    capsys.readouterr()
    timed_ok = ck1 == ck2

    ok = all(identical) and timed_ok
    with capsys.disabled():
        report(8, ok, f"dataset/checkpoint/history/report byte-identical={identical}, "
                      f"checkpoint identical under default timing={timed_ok}")


def test_criterion_9_adam_recurrence(capsys):
    # two-step hand trace, executed independently right here
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    m = v = 0.0
    p_ref = 1.0
    for t in (1, 2):
        g = 1.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
    def one_weight(g):  # the gradient of a parameter vector that is one MLP weight
        return Gradients(mlp=np.array([g]), rows=np.zeros(0, dtype=np.int64), row_grads=np.zeros((0, 1)))

    flat = np.array([1.0])
    state = AdamState(m=np.zeros(1), v=np.zeros(1), lr=lr)
    adam_step(state, flat, one_weight(1.0))
    adam_step(state, flat, one_weight(1.0))
    trace_ok = abs(flat[0] - p_ref) < 1e-12

    flat0 = np.array([1.0])
    state0 = AdamState(m=np.zeros(1), v=np.zeros(1), lr=0.0)
    for g in (1.0, -3.0, 0.5):
        adam_step(state0, flat0, one_weight(g))
    noop_ok = flat0[0] == 1.0

    # pad row pinned through a real training run
    cfg = RunConfig(num_users=30, num_items=25, impressions=800, epochs=2, batch_size=64, lr=0.01)
    records, _ = D.generate_synthetic(cfg)
    tr, vr = D.split(records, "temporal", 0.2, 1)
    users, items = D.build_vocab(records)
    tb, _ = D.encode(records.take(tr), users, items, 32)
    vb, _ = D.encode(records.take(vr), users, items, 32)
    model = init_model(cfg.model_config(items.size, users.size), make_rng(1, stream=1))
    model, _ = train(model, tb, vb, cfg)
    pad_ok = not model.params["item_emb"][0].any()

    ok = trace_ok and noop_ok and pad_ok
    with capsys.disabled():
        report(9, ok, f"two-step trace within 1e-12: {trace_ok}, lr=0 no-op: {noop_ok}, pad row zero: {pad_ok}")


def test_criterion_10_round_trips(tmp_path, capsys):
    records, _ = D.generate_synthetic(RunConfig(num_users=20, num_items=15, impressions=300, seed=13))
    path = tmp_path / "roundtrip.jsonl"
    D.save_jsonl(records, path)
    jsonl_ok = same_records(D.load_jsonl(path), records)

    cfg = RunConfig(num_users=20, num_items=15)
    users, items = D.build_vocab(records)
    model = init_model(cfg.model_config(items.size, users.size), make_rng(13, stream=1))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, users, items, p1, run_config=cfg.to_dict())
    loaded, u2, i2, rc = load_checkpoint(p1)
    save_checkpoint(loaded, u2, i2, p2, run_config=rc)
    ckpt_ok = p1.read_bytes() == p2.read_bytes()

    ok = jsonl_ok and ckpt_ok
    with capsys.disabled():
        report(10, ok, f"jsonl load(save(x)) == x: {jsonl_ok}, checkpoint save-load-save byte-identical: {ckpt_ok}")
