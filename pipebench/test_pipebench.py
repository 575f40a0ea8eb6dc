"""Tests of the benchmark itself: schemas, a tiny run of every stage and
check, and each check's verdict on outputs known to be wrong.

Run with `pytest pipebench`. Nothing here asserts a timing.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import workloads as W
from tracer import SELF_TIMES, STAGES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "pipebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_schema():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "pipebench/run.py"]
    assert spec["paths"] == ["pipebench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["name"] in W.WORKLOADS
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec).encode()) <= 64 * 1024


def test_per_layer_spec_covers_every_traced_value():
    listed = {m["name"] for m in load_spec()["per_layer"]}
    assert set(SELF_TIMES) <= listed
    assert {f"trace.unattributed_share.{s}" for s in STAGES} <= listed
    assert {"cli.import_s", "trace.overhead_s"} <= listed


# -- tiny end-to-end runs ---------------------------------------------------


def parse_result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and isinstance(result["failed"], int)
    return result, json.loads(lines[-2])["info"]


def test_tiny_run_every_stage_and_check():
    result, info = parse_result(run_bench("--workload", "tiny", "--seed", "5", "--seconds", "1", "--trace", "0"))
    w = W.WORKLOADS["tiny"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == info["rounds"] * (6 + w.rank_requests)
    spec = load_spec()["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"]) and value["value"] > 0


def test_tiny_traced_run_reports_every_layer():
    result, _ = parse_result(run_bench("--workload", "tiny", "--seed", "6", "--seconds", "1", "--trace", "1"))
    assert result["correct"] is True and result["failed"] == 0
    spec = load_spec()["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    for name in SELF_TIMES:
        assert values[name] > 0, name
    assert values["optim.steps"] > 0 and values["model.forward_calls"] > values["optim.steps"]
    assert 0 < values["model.grad_rows_useful_share"] <= 1
    assert values["metrics.candidates_ranked"] == W.WORKLOADS["tiny"].rank_requests * W.WORKLOADS["tiny"].candidates
    for s in STAGES:
        assert 0 <= values[f"trace.unattributed_share.{s}"] < 1
    spans = json.load(open(os.path.join(ROOT, ".pipebench_work", "tiny", "spans.json")))
    assert {s[0] for s in spans["spans"] if s[1] == -1} == set(STAGES)


def test_rank_ms_times_warm_requests_only():
    import run

    ops = [run.Op("rank", 0, 0.2), run.Op("rank", 0, 5.0, cold=True), run.Op("rank", 0, 0.4)]
    assert run.end_to_end(W.WORKLOADS["tiny"], [0.1], ops, None)["rank_ms"] == pytest.approx(300.0)


def test_same_seed_same_inputs(tmp_path):
    w = W.WORKLOADS["tiny"]
    for d in ("a", "b"):
        os.makedirs(tmp_path / d)
        W.write_inputs(w, 9, str(tmp_path / d))
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the tracer -------------------------------------------------------------


def test_tracer_restores_what_it_wraps():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dinctr import cli, kernels, model

    before = (kernels.attention_scores, model.DinModel.forward, cli.train)
    tracer = Tracer()
    tracer.install()
    assert kernels.attention_scores is not before[0]
    tracer.uninstall()
    assert (kernels.attention_scores, model.DinModel.forward, cli.train) == before


def test_tracer_charges_log_loss_to_bce_loss():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dinctr import metrics

    tracer = Tracer()
    tracer.install()
    try:
        metrics.log_loss(np.array([0.3, -0.2]), np.array([1.0, 0.0]))
    finally:
        tracer.uninstall()
    assert tracer.calls["optim.bce_loss"] == 1


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.enter("stage")
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.exit()
    outer = tracer.exit()
    tracer.exit()
    inner_span = tracer.spans[2]
    assert tracer.self_time["outer"] == pytest.approx(outer - (inner_span[3] - inner_span[2]))
    assert tracer.spans[1][1] == 0 and tracer.spans[2][1] == 1


# -- each check on good and bad outputs ---------------------------------------


def brute_auc(s, y):
    pairs = [(a, b) for a, la in zip(s, y) if la == 1 for b, lb in zip(s, y) if lb == 0]
    return sum(1.0 if a > b else 0.5 if a == b else 0.0 for a, b in pairs) / len(pairs)


def test_pair_auc_and_gauc():
    rng = np.random.default_rng(0)
    s = np.round(rng.random(60), 1)  # ties
    y = rng.integers(0, 2, 60)
    assert checks.pair_auc(s, y) == pytest.approx(brute_auc(s, y), abs=1e-15)
    assert checks.pair_auc([0.1, 0.2], [1, 1]) is None
    groups = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
    y[40:] = 1  # group c has one class: skipped
    value, used, skipped = checks.pair_gauc(s, y, groups)
    want = (20 * brute_auc(s[:20], y[:20]) + 20 * brute_auc(s[20:40], y[20:40])) / 40
    assert (used, skipped) == (2, 1) and value == pytest.approx(want, abs=1e-15)


def test_check_generate():
    rng = np.random.default_rng(1)
    p = rng.uniform(0.2, 0.4, 5000)
    labels = (rng.random(5000) < p).astype(int)
    assert checks.check_generate({"n_records": 5000}, labels, p, 5000) == []
    assert checks.check_generate({"n_records": 4999}, labels, p, 5000)
    assert checks.check_generate({"n_records": 5000}, np.ones(5000, int), p, 5000)


def test_check_train():
    good = {"epochs_run": 2, "final_train_loss": 0.5, "final_val_loss": 0.6, "final_val_gauc": 0.55}
    assert checks.check_train(good, 2) == []
    assert checks.check_train(good, 3)
    assert checks.check_train({**good, "final_val_loss": math.nan}, 2)


def eval_report(p, y, users):
    g, used, skipped = checks.pair_gauc(p, y, users)
    return {"n_records": len(y), "auc": checks.pair_auc(p, y),
            "gauc_impressions": {"value": g, "n_groups_used": used, "n_groups_skipped": skipped}}


def test_check_eval():
    rng = np.random.default_rng(2)
    p, y = rng.random(200), rng.integers(0, 2, 200)
    users = [f"u{i % 17}" for i in range(200)]
    report = eval_report(p, y, users)
    assert checks.check_eval(report, p, y, users) == []
    assert checks.check_eval({**report, "auc": report["auc"] + 1e-6}, p, y, users)
    assert checks.check_eval(report, p[::-1], y, users)


def compare_text(din: dict, base: dict) -> str:
    rows = ["metric,din,base"] + [f"{m},{din[m]!r},{base[m]!r}" for m in checks.COMPARE_METRICS]
    return "\n".join(rows) + "\n"


def test_check_compare():
    din = {"auc": 0.7, "gauc_impressions": 0.68, "gauc_clicks": 0.69, "log_loss": 0.5, "accuracy": 0.75}
    base = {**din, "gauc_impressions": 0.64}
    report = {k: ({"value": v} if k.startswith("gauc") else v) for k, v in din.items()}
    assert checks.check_compare(compare_text(din, base), report, claim=True) == []
    assert checks.check_compare(compare_text({**din, "auc": 0.71}, base), report, claim=False)
    close = {**base, "gauc_impressions": 0.675}
    assert checks.check_compare(compare_text(din, close), report, claim=False) == []
    assert checks.check_compare(compare_text(din, close), report, claim=True)
    assert checks.check_compare("not a table", report, claim=False)


def test_check_predict():
    inputs = [{"user_id": "u1", "ad_id": "i1"}, {"user_id": "u2", "ad_id": "i2"}]
    good = [{"user_id": "u1", "ad_id": "i1", "p": 0.3}, {"user_id": "u2", "ad_id": "i2", "p": 0.4}]
    assert checks.check_predict(inputs, good) == []
    assert checks.check_predict(inputs, good[::-1])
    assert checks.check_predict(inputs, good[:1])
    assert checks.check_predict(inputs, [good[0], {**good[1], "p": math.nan}])
    assert checks.check_predict(inputs, [good[0], {**good[1], "p": 1.0}])


def ranked_lines(cands, p):
    rows = [{"ad_id": c["ad_id"], "p": p[c["ad_id"]], "bid": c["bid"], "ecpm": p[c["ad_id"]] * c["bid"]} for c in cands]
    return sorted(rows, key=lambda r: (-r["ecpm"], r["ad_id"]))


def test_check_rank():
    cands = [{"ad_id": "a", "bid": 1.0}, {"ad_id": "b", "bid": 2.0}, {"ad_id": "c", "bid": 1.0}, {"ad_id": "d", "bid": 0.5}]
    p = {"a": 0.2, "b": 0.1, "c": 0.2, "d": 0.3}  # a, b and c tie on p*bid = 0.2
    good = ranked_lines(cands, p)
    assert [r["ad_id"] for r in good] == ["a", "b", "c", "d"]
    assert checks.check_rank(cands, good, p) == []
    assert checks.check_rank(cands, [good[1], good[0], *good[2:]], p)  # tie broken the wrong way
    assert checks.check_rank(cands, good[:-1], p)  # a candidate dropped
    assert checks.check_rank(cands, [{**good[0], "ecpm": 0.25}, *good[1:]], p)
    assert checks.check_rank(cands, good, {**p, "a": 0.21})  # p differs from predict
    assert checks.check_rank(cands, [{**good[0], "bid": math.nan}, *good[1:]], p)
    assert checks.check_rank(cands, [{**good[0], "bid": 3.0}, *good[1:]], p)
