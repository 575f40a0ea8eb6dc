"""End-to-end exercises of the ctr command-line pipeline.

Commands run in-process through main(argv) so exit codes and stdout are
checked directly. Small synthetic configs keep each case fast.
"""

import argparse
import builtins
import csv
import io
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from dinctr.cli import RunConfig, build_parser, main
from dinctr.data import SyntheticConfig
from dinctr.model import ModelConfig, load_checkpoint
from dinctr.optim import TrainConfig

TINY = {
    "num_users": 40,
    "num_items": 30,
    "impressions": 1200,
    "epochs": 3,
    "batch_size": 128,
    "lr": 0.005,
    "timing": False,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **extra):
    cfg = dict(TINY)
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def pipeline(tmp_path, capsys):
    """Generate a tiny dataset and train both model flavors once."""
    config = write_config(tmp_path)
    dataset = str(tmp_path / "data.jsonl")
    metadata = str(tmp_path / "meta.json")
    code, out, _ = run_cli(capsys, "generate", "--config", config, "--dataset", dataset, "--metadata", metadata)
    assert code == 0
    checkpoints = {}
    for name in ("din", "base"):
        ck = str(tmp_path / f"{name}.ckpt")
        hist = str(tmp_path / f"{name}_history.csv")
        code, out, _ = run_cli(
            capsys, "train", "--config", config, "--dataset", dataset,
            "--checkpoint", ck, "--history", hist, "--model", name,
        )
        assert code == 0
        checkpoints[name] = (ck, hist)
    return {"config": config, "dataset": dataset, "metadata": metadata, "checkpoints": checkpoints,
            "tmp_path": tmp_path}


class TestGenerate:
    def test_stats_json_and_files(self, tmp_path, capsys):
        config = write_config(tmp_path)
        dataset = str(tmp_path / "d.jsonl")
        metadata = str(tmp_path / "m.json")
        code, out, _ = run_cli(capsys, "generate", "--config", config, "--dataset", dataset, "--metadata", metadata)
        assert code == 0
        stats = json.loads(out)
        assert stats["n_records"] == 1200
        assert 0.0 < stats["empirical_ctr"] < 1.0
        assert stats["config"]["num_users"] == 40
        assert os.path.exists(dataset) and os.path.exists(metadata)

    def test_repeat_is_byte_identical(self, tmp_path, capsys):
        config = write_config(tmp_path)
        d1, d2 = str(tmp_path / "d1.jsonl"), str(tmp_path / "d2.jsonl")
        m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        assert run_cli(capsys, "generate", "--config", config, "--dataset", d1, "--metadata", m1)[0] == 0
        assert run_cli(capsys, "generate", "--config", config, "--dataset", d2, "--metadata", m2)[0] == 0
        assert open(d1, "rb").read() == open(d2, "rb").read()
        assert open(m1, "rb").read() == open(m2, "rb").read()

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        config = write_config(tmp_path, impressions=0)
        code, _, err = run_cli(capsys, "generate", "--config", config, "--dataset", str(tmp_path / "x.jsonl"))
        assert code != 0
        assert "error" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"impresions": 100}))
        code, _, err = run_cli(capsys, "generate", "--config", str(path))
        assert code != 0
        assert "impresions" in err

    @pytest.mark.parametrize("key,value", [("signal_strength", float("inf")), ("base_logit", float("nan"))])
    def test_non_finite_generator_float_rejected(self, tmp_path, capsys, key, value):
        """signal_strength Infinity used to exit 0 and write bare NaN into
        the metadata's true_probs, which is not JSON."""
        config = write_config(tmp_path, **{key: value})
        metadata = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "generate", "--config", config, "--dataset", str(tmp_path / "d.jsonl"),
                                 "--metadata", str(metadata))
        assert code != 0 and out == ""
        assert key in err and "must be finite" in err
        assert not metadata.exists()


class TestStrictConfigValues:
    """Config values are read as their field's type, never truncated or cast
    from true/false; errors name the config key or the flag."""

    def generate(self, tmp_path, capsys, **extra):
        config = write_config(tmp_path, **extra)
        return run_cli(capsys, "generate", "--config", config, "--dataset", str(tmp_path / "d.jsonl"),
                       "--metadata", str(tmp_path / "m.json"))

    def test_fractional_int_in_file_rejected(self, tmp_path, capsys):
        code, out, err = self.generate(tmp_path, capsys, num_users=5.7)  # used to generate with 5 users
        assert code != 0 and out == ""
        assert "config key 'num_users'" in err and "5.7" in err

    def test_bool_for_int_in_file_rejected(self, tmp_path, capsys):
        code, out, err = self.generate(tmp_path, capsys, impressions=True)  # used to generate 1 record
        assert code != 0 and out == ""
        assert "config key 'impressions'" in err and "True" in err

    def test_fractional_epochs_in_file_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, epochs=1.9)  # used to train 1 epoch
        code, out, err = run_cli(capsys, "train", "--config", config, "--dataset", str(tmp_path / "absent.jsonl"))
        assert code != 0 and out == ""
        assert "config key 'epochs'" in err

    def test_fractional_epochs_flag_names_flag(self, tmp_path, capsys):
        config = write_config(tmp_path)  # used to fail with a bare "invalid literal for int()"
        code, out, err = run_cli(capsys, "train", "--config", config, "--epochs", "1.9",
                                 "--dataset", str(tmp_path / "absent.jsonl"))
        assert code != 0 and out == ""
        assert "--epochs expects an integer" in err and "'1.9'" in err

    def test_bool_for_float_rejected(self, tmp_path, capsys):
        code, _, err = self.generate(tmp_path, capsys, signal_strength=True)
        assert code != 0
        assert "config key 'signal_strength'" in err

    def test_non_integer_hidden_width_names_key(self, tmp_path, capsys):
        code, _, err = self.generate(tmp_path, capsys, hidden="64,x")
        assert code != 0
        assert "config key 'hidden'" in err

    @pytest.mark.parametrize(
        "key,value",
        [("lr", -1.0), ("lr", 0.0), ("lr", float("nan")), ("temperature", float("inf")),
         ("l2_lambda", float("nan"))],
    )
    def test_out_of_range_training_value_rejected(self, tmp_path, capsys, key, value):
        """These used to train, or fail after training started naming no key."""
        config = write_config(tmp_path, **{key: value})
        code, out, err = run_cli(capsys, "train", "--config", config, "--dataset", str(tmp_path / "absent.jsonl"))
        assert code != 0 and out == ""
        assert f"{key} must be a finite number" in err

    @pytest.mark.parametrize("value", [None, ["a"], 7])
    def test_non_string_path_rejected(self, tmp_path, capsys, monkeypatch, value):
        """{"dataset": null} used to exit 0 and write a file named None, and
        ["a"] one named ['a']."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "dataset": value}))
        code, out, err = run_cli(capsys, "generate", "--config", str(path), "--metadata", "m.json")
        assert code != 0 and out == ""
        assert "config key 'dataset' expects a string" in err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("key,value", [("use_user_profile", "yes"), ("timing", 0), ("timing", "false")])
    def test_non_boolean_for_boolean_rejected(self, tmp_path, capsys, key, value):
        """These used to be read as true or false."""
        code, out, err = self.generate(tmp_path, capsys, **{key: value})
        assert code != 0 and out == ""
        assert f"config key {key!r} expects a boolean" in err

    def test_integral_values_keep_their_echo(self, tmp_path, capsys):
        echoes = []
        for extra in ({"num_users": 40, "signal_strength": 4}, {"num_users": 40.0, "signal_strength": 4.0}):
            config = write_config(tmp_path, **extra)
            code, out, _ = run_cli(capsys, "generate", "--config", config, "--dataset", str(tmp_path / "d.jsonl"),
                                   "--metadata", str(tmp_path / "m.json"))
            assert code == 0
            echoes.append(json.loads(out)["config"])
        assert echoes[0] == echoes[1]
        assert json.dumps(echoes[0]["num_users"]) == "40" and json.dumps(echoes[0]["signal_strength"]) == "4.0"


class TestTrain:
    def test_history_has_one_row_per_epoch(self, pipeline):
        _, hist = pipeline["checkpoints"]["din"]
        with open(hist, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "val_gauc", "seconds"]
        assert len(rows) == 1 + TINY["epochs"]

    def test_flavors_differ_only_in_attention_flag(self, pipeline):
        din, _, _, _ = load_checkpoint(pipeline["checkpoints"]["din"][0])
        base, _, _, _ = load_checkpoint(pipeline["checkpoints"]["base"][0])
        assert din.config.use_attention and not base.config.use_attention
        for key in din.params:
            assert din.params[key].shape == base.params[key].shape

    def test_rerun_is_byte_identical(self, pipeline, capsys):
        ck, hist = pipeline["checkpoints"]["din"]
        before_ck = open(ck, "rb").read()
        before_hist = open(hist, "rb").read()
        code, _, _ = run_cli(
            capsys, "train", "--config", pipeline["config"], "--dataset", pipeline["dataset"],
            "--checkpoint", ck, "--history", hist, "--model", "din",
        )
        assert code == 0
        assert open(ck, "rb").read() == before_ck
        assert open(hist, "rb").read() == before_hist

    def test_missing_dataset_nonzero_exit(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, _, err = run_cli(capsys, "train", "--config", config, "--dataset", str(tmp_path / "absent.jsonl"))
        assert code != 0
        assert "not found" in err

    def test_reserved_pad_token_in_history_trains(self, tmp_path, capsys):
        dataset = tmp_path / "pad.jsonl"
        lines = []
        for i in range(60):
            history = ["<pad>"] if i % 3 == 0 else ["<pad>", f"i{i % 5}"] if i % 3 == 1 else [f"i{i % 7}"]
            lines.append(json.dumps({"user_id": f"u{i % 4}", "ad_id": f"i{i % 6}", "behavior_ids": history,
                                     "label": (i // 4) % 2, "ts": i}))
        dataset.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            capsys, "train", "--config", write_config(tmp_path, epochs=2, batch_size=16), "--dataset", str(dataset),
            "--checkpoint", str(tmp_path / "m.ckpt"), "--history", str(tmp_path / "h.csv"),
        )
        assert code == 0, err
        report = json.loads(out)
        assert np.isfinite(report["final_train_loss"]) and np.isfinite(report["final_val_loss"])
        assert report["encode_stats"]["n_oov_tokens"] > 0

    def test_flag_overrides_file(self, tmp_path, capsys):
        config = write_config(tmp_path, epochs=2)
        dataset = str(tmp_path / "d.jsonl")
        run_cli(capsys, "generate", "--config", config, "--dataset", dataset)
        ck = str(tmp_path / "m.ckpt")
        hist = str(tmp_path / "h.csv")
        code, out, _ = run_cli(
            capsys, "train", "--config", config, "--dataset", dataset,
            "--checkpoint", ck, "--history", hist, "--epochs", "4",
        )
        assert code == 0
        assert json.loads(out)["epochs_run"] == 4


class TestEval:
    def test_report_fields(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        code, out, _ = run_cli(
            capsys, "eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"], "--checkpoint", ck,
        )
        assert code == 0
        report = json.loads(out)
        for key in ("auc", "log_loss", "accuracy", "gauc_impressions", "gauc_clicks", "n_records", "per_group"):
            assert key in report
        assert report["split"] == "val"
        used = report["gauc_impressions"]["n_groups_used"]
        assert used == len(report["per_group"]) > 0

    def test_untrained_model_near_chance(self, tmp_path, capsys):
        """Fresh random parameters carry no label signal: AUC in [0.45, 0.55]."""
        config = write_config(tmp_path, impressions=4000, epochs=1)
        dataset = str(tmp_path / "d.jsonl")
        run_cli(capsys, "generate", "--config", config, "--dataset", dataset)
        from dinctr import data as D
        from dinctr.cli import resolve_config
        from dinctr.model import init_model, save_checkpoint
        from dinctr.numerics import make_rng

        cfg, _ = resolve_config(config, {"dataset": dataset})
        records = D.load_jsonl(dataset)
        users, items = D.build_vocab(records)
        model = init_model(cfg.model_config(items.size, users.size), make_rng(cfg.seed, stream=1))
        ck = str(tmp_path / "fresh.ckpt")
        save_checkpoint(model, users, items, ck, run_config=cfg.to_dict())
        code, out, _ = run_cli(capsys, "eval", "--config", config, "--dataset", dataset,
                               "--checkpoint", ck, "--split", "all")
        assert code == 0
        assert 0.45 <= json.loads(out)["auc"] <= 0.55

    def test_repeat_evaluation_identical(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        args = ("eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"], "--checkpoint", ck)
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_groups_csv_export(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        groups_path = pipeline["tmp_path"] / "groups.csv"
        code, out, _ = run_cli(
            capsys, "eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"],
            "--checkpoint", ck, "--groups-csv", str(groups_path),
        )
        assert code == 0
        with open(groups_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["group", "weight", "auc"]
        report = json.loads(out)
        assert len(rows) - 1 == report["gauc_impressions"]["n_groups_used"]
        for row in rows[1:]:
            assert 0.0 <= float(row[2]) <= 1.0

    def test_compare_encodes_once_and_matches_single_evals(self, pipeline, capsys, monkeypatch):
        from dinctr import data as D

        din_ck, _ = pipeline["checkpoints"]["din"]
        base_ck, _ = pipeline["checkpoints"]["base"]
        common = ("eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"])
        singles = {}
        for name, ck in (("din", din_ck), ("base", base_ck)):
            report = pipeline["tmp_path"] / f"{name}_report.json"
            assert run_cli(capsys, *common, "--checkpoint", ck, "--report", str(report))[0] == 0
            singles[name] = json.loads(report.read_text())
        calls = {"load_jsonl": 0, "encode": 0}
        for fn in calls:
            original = getattr(D, fn)

            def counted(*args, _fn=fn, _original=original, **kwargs):
                calls[_fn] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(D, fn, counted)
        report = pipeline["tmp_path"] / "compare_report.json"
        code, _, _ = run_cli(capsys, *common, "--compare", din_ck, base_ck, "--report", str(report))
        assert code == 0
        assert calls == {"load_jsonl": 1, "encode": 1}  # same training file, one vocabulary
        models = json.loads(report.read_text())["models"]
        for name, single in singles.items():  # "config" echoes each run's own flags
            assert {**models[name], "config": None} == {**single, "config": None}

    def test_compare_table_is_strict_csv(self, pipeline, capsys):
        din_ck, _ = pipeline["checkpoints"]["din"]
        base_ck, _ = pipeline["checkpoints"]["base"]
        code, out, _ = run_cli(
            capsys, "eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"],
            "--compare", din_ck, base_ck,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["metric", "din", "base"]
        metrics = [r[0] for r in rows[1:]]
        assert metrics == ["auc", "gauc_impressions", "gauc_clicks", "log_loss", "accuracy"]
        for row in rows[1:]:
            float(row[1]), float(row[2])  # two parseable model columns

    def test_model_config_mismatch_rejected(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        code, _, err = run_cli(
            capsys, "eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"],
            "--checkpoint", ck, "--dim", "16",
        )
        assert code != 0
        assert "mismatch" in err


class TestPredict:
    def test_one_output_line_per_input(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        inputs = pipeline["tmp_path"] / "in.jsonl"
        lines = open(pipeline["dataset"]).read().splitlines()[:5]
        inputs.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "predict", "--checkpoint", ck, "--input", str(inputs))
        assert code == 0
        preds = [json.loads(l) for l in out.splitlines()]
        assert len(preds) == 5
        for p in preds:
            assert set(p) == {"user_id", "ad_id", "p"}
            assert 0.0 < p["p"] < 1.0

    def test_oov_everything_still_scores(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        inputs = pipeline["tmp_path"] / "oov.jsonl"
        inputs.write_text('{"user_id": "stranger", "ad_id": "brand-new", "behavior_ids": ["mystery"]}\n')
        code, out, _ = run_cli(capsys, "predict", "--checkpoint", ck, "--input", str(inputs))
        assert code == 0
        p = json.loads(out)["p"]
        assert 0.0 < p < 1.0

    def test_reserved_pad_token_in_history_still_scores(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        inputs = pipeline["tmp_path"] / "pad.jsonl"
        inputs.write_text(
            '{"user_id": "u1", "ad_id": "i1", "behavior_ids": ["<pad>"]}\n'
            '{"user_id": "<pad>", "ad_id": "<pad>", "behavior_ids": ["<pad>", "<oov>", "i2"]}\n'
        )
        code, out, _ = run_cli(capsys, "predict", "--checkpoint", ck, "--input", str(inputs))
        assert code == 0
        for line in out.splitlines():
            assert 0.0 < json.loads(line)["p"] < 1.0

    def test_malformed_line_reports_number(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        inputs = pipeline["tmp_path"] / "bad.jsonl"
        inputs.write_text('{"user_id": "u", "ad_id": "a", "behavior_ids": []}\nnot json\n')
        code, _, err = run_cli(capsys, "predict", "--checkpoint", ck, "--input", str(inputs))
        assert code != 0
        assert "line 2" in err

    def test_matches_library_forward(self, pipeline, capsys):
        from dinctr import data as D

        ck, _ = pipeline["checkpoints"]["din"]
        model, users, items, _ = load_checkpoint(ck)
        records = D.load_jsonl(pipeline["dataset"])[:8]
        batch, _ = D.encode(records, users, items, model.config.max_seq_len)
        expect = model.predict(batch)
        inputs = pipeline["tmp_path"] / "in8.jsonl"
        inputs.write_text("\n".join(open(pipeline["dataset"]).read().splitlines()[:8]) + "\n")
        _, out, _ = run_cli(capsys, "predict", "--checkpoint", ck, "--input", str(inputs))
        got = np.array([json.loads(l)["p"] for l in out.splitlines()])
        np.testing.assert_array_equal(got, expect)


class TestRank:
    def candidates(self, tmp_path, rows):
        path = tmp_path / "cands.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return str(path)

    def test_sorted_by_ecpm(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        cands = self.candidates(pipeline["tmp_path"], [
            {"ad_id": "i1", "bid": 1.0},
            {"ad_id": "i2", "bid": 3.0},
            {"ad_id": "i3", "bid": 0.2},
        ])
        context = pipeline["tmp_path"] / "ctx.json"
        context.write_text(json.dumps({"user_id": "u1", "behavior_ids": ["i4", "i5"]}))
        code, out, _ = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands, "--context", str(context))
        assert code == 0
        ranked = [json.loads(l) for l in out.splitlines()]
        assert len(ranked) == 3
        ecpms = [r["ecpm"] for r in ranked]
        assert ecpms == sorted(ecpms, reverse=True)
        for r in ranked:
            assert set(r) == {"ad_id", "p", "bid", "ecpm"}
            assert abs(r["ecpm"] - r["p"] * r["bid"]) < 1e-15

    def test_single_candidate(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        cands = self.candidates(pipeline["tmp_path"], [{"ad_id": "i1", "bid": 0.7}])
        code, out, _ = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands)
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_non_finite_bid_rejected_with_line(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        cands = self.candidates(pipeline["tmp_path"], [
            {"ad_id": "i1", "bid": 1.0},
            {"ad_id": "i2", "bid": float("nan")},
            {"ad_id": "i3", "bid": 2.0},
        ])
        assert "NaN" in open(cands).read()  # a bare NaN, as Python's json writes and reads it
        code, out, err = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands)
        assert code != 0
        assert out == ""
        assert "'i2'" in err and "line 2" in err and "finite" in err

    def test_reserved_pad_token_in_context_still_ranks(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        cands = self.candidates(pipeline["tmp_path"], [{"ad_id": "i1", "bid": 1.0}, {"ad_id": "i2", "bid": 2.0}])
        context = pipeline["tmp_path"] / "pad_ctx.json"
        context.write_text(json.dumps({"user_id": "u1", "behavior_ids": ["<pad>"]}))
        code, out, _ = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands, "--context", str(context))
        assert code == 0
        for line in out.splitlines():
            assert 0.0 < json.loads(line)["p"] < 1.0

    def test_negative_bid_rejected_with_line(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        cands = self.candidates(pipeline["tmp_path"], [{"ad_id": "i1", "bid": 1.0}, {"ad_id": "i2", "bid": -0.5}])
        code, out, err = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands)
        assert code != 0
        assert out == ""
        assert "'i2'" in err and "line 2" in err and "field 'bid'" in err

    def test_string_context_history_rejected(self, pipeline, capsys):
        """A history given as one string is an error, not split into characters."""
        ck, _ = pipeline["checkpoints"]["din"]
        cands = self.candidates(pipeline["tmp_path"], [{"ad_id": "i1", "bid": 1.0}])
        context = pipeline["tmp_path"] / "str_ctx.json"
        context.write_text(json.dumps({"user_id": "u1", "behavior_ids": "i31"}))
        code, out, err = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands, "--context", str(context))
        assert code != 0
        assert out == ""
        assert "str_ctx.json" in err and "field 'behavior_ids'" in err

    def test_missing_bid_names_candidate(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        cands = self.candidates(pipeline["tmp_path"], [{"ad_id": "i1", "bid": 1.0}, {"ad_id": "naked"}])
        code, _, err = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands)
        assert code != 0
        assert "naked" in err and "bid" in err

    def test_null_context_user_rejected(self, pipeline, capsys):
        """A null user_id used to rank as the user "None"."""
        ck, _ = pipeline["checkpoints"]["din"]
        cands = self.candidates(pipeline["tmp_path"], [{"ad_id": "i1", "bid": 1.0}])
        context = pipeline["tmp_path"] / "null_ctx.json"
        context.write_text(json.dumps({"user_id": None, "behavior_ids": ["i4"]}))
        code, out, err = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands, "--context", str(context))
        assert code != 0
        assert out == ""
        assert "null_ctx.json" in err and "field 'user_id'" in err

    def test_integer_context_user_reads_as_digits(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        cands = self.candidates(pipeline["tmp_path"], [{"ad_id": "i1", "bid": 1.0}, {"ad_id": "i2", "bid": 2.0}])
        outs = []
        for user in (1, "1"):
            context = pipeline["tmp_path"] / "int_ctx.json"
            context.write_text(json.dumps({"user_id": user, "behavior_ids": ["i4"]}))
            code, out, _ = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands, "--context", str(context))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class HalfWrite:
    """A file whose first write keeps half its data and then fails, as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _output_case(name, pipeline):
    """(argv, the file it writes) for each command output."""
    p, tmp = pipeline, pipeline["tmp_path"]
    out = tmp / "out"
    out.mkdir(exist_ok=True)
    din, _ = p["checkpoints"]["din"]
    base, _ = p["checkpoints"]["base"]
    evaluate = ["eval", "--config", p["config"], "--dataset", p["dataset"], "--checkpoint", din]
    cands = tmp / "cands.jsonl"
    cands.write_text('{"ad_id": "i1", "bid": 1.0}\n{"ad_id": "i2", "bid": 2.0}\n')
    target = str(out / name)
    return {
        "report.json": evaluate + ["--report", target],
        "groups.csv": evaluate + ["--groups-csv", target],
        "compare.json": ["eval", "--config", p["config"], "--dataset", p["dataset"], "--compare", din, base,
                         "--report", target],
        "history.csv": ["train", "--config", p["config"], "--dataset", p["dataset"], "--epochs", "1",
                        "--checkpoint", str(out / "m.ckpt"), "--history", target],
        "predict.jsonl": ["predict", "--checkpoint", din, "--input", p["dataset"], "--output", target],
        "rank.jsonl": ["rank", "--checkpoint", din, "--candidates", str(cands), "--output", target],
        "data.jsonl": ["generate", "--config", p["config"], "--dataset", target, "--metadata", str(out / "m.json")],
        "meta.json": ["generate", "--config", p["config"], "--dataset", str(out / "d.jsonl"), "--metadata", target],
    }[name], target


class TestAtomicOutputs:
    @pytest.mark.parametrize(
        "name",
        ["report.json", "groups.csv", "compare.json", "history.csv", "predict.jsonl", "rank.jsonl", "data.jsonl",
         "meta.json"],
    )
    def test_failed_write_keeps_previous_output(self, pipeline, capsys, monkeypatch, name):
        """Every file a command writes is replaced whole or not at all: a write
        that fails half-way leaves the previous file byte-identical and no
        temporary file behind."""
        argv, target = _output_case(name, pipeline)
        assert run_cli(capsys, *argv)[0] == 0
        before = open(target, "rb").read()
        listing = sorted(os.listdir(os.path.dirname(target)))
        real_open = builtins.open

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and isinstance(file, (str, os.PathLike)) and os.fspath(file).startswith(target):
                return HalfWrite(fh)
            return fh

        monkeypatch.setattr(builtins, "open", failing_open)
        code, _, err = run_cli(capsys, *argv)
        monkeypatch.undo()
        assert code == 1 and "disk full" in err
        assert open(target, "rb").read() == before
        assert sorted(os.listdir(os.path.dirname(target))) == listing

    @pytest.mark.parametrize(
        "name",
        ["report.json", "groups.csv", "compare.json", "history.csv", "predict.jsonl", "rank.jsonl", "data.jsonl",
         "meta.json"],
    )
    def test_missing_output_directory_is_created(self, pipeline, capsys, name):
        """predict and rank --output new/p.jsonl used to fail naming the
        internal new/p.jsonl.<pid>.tmp."""
        argv, target = _output_case(name, pipeline)
        nested = os.path.join(os.path.dirname(target), "new", name)
        code, _, err = run_cli(capsys, *[nested if arg == target else arg for arg in argv])
        assert code == 0, err
        assert os.listdir(os.path.dirname(nested)) == [name]


class TestGradcheck:
    @pytest.mark.parametrize("model", ["din", "base"])
    def test_passes_for_both_flavors(self, model, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--model", model)
        assert code == 0
        report = json.loads(out)
        assert report["max_rel_error"] < 1e-4
        assert report["model"] == model

    def test_seeded_rerun_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "gradcheck", "--model", "din", "--seed", "5")
        _, out2, _ = run_cli(capsys, "gradcheck", "--model", "din", "--seed", "5")
        assert out1 == out2


class TestConfigSchema:
    """RunConfig is the flat union of the sub-configs; these catch drift."""

    def test_defaults_agree_with_sub_configs(self):
        assert RunConfig().synthetic_config() == SyntheticConfig()
        assert RunConfig().train_config() == TrainConfig()
        assert RunConfig().model_config(40, 6) == ModelConfig(40, 6)

    def test_model_config_follows_model_flag(self):
        cfg = RunConfig(model="base", dim=4, hidden=(8,), use_user_profile=True)
        assert cfg.model_config(40, 6) == ModelConfig(40, 6, dim=4, hidden=(8,), use_attention=False,
                                                       use_user_profile=True)

    def test_every_run_field_has_one_home(self):
        sub = {f.name for cls in (SyntheticConfig, TrainConfig, ModelConfig) for f in fields(cls)}
        paths = {"dataset", "metadata", "checkpoint", "history", "report"}
        assert {f.name for f in fields(RunConfig)} - sub == {"model"} | paths

    def test_model_config_dict_round_trip(self):
        c = ModelConfig(40, 6, dim=4, hidden=(8, 3), max_seq_len=7, temperature=0.5, use_attention=False,
                        use_user_profile=True)
        assert c.to_dict()["hidden"] == [8, 3]
        assert ModelConfig.from_dict(c.to_dict()) == c

    def test_flags_of_every_command(self):
        """Deriving the flags from the config fields keeps the command line."""
        parser = build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: [s for a in sub._actions for s in a.option_strings] for name, sub in commands.choices.items()}
        common = ["-h", "--help", "--config", "--seed"]
        assert flags == {
            "generate": common + [
                "--dataset", "--metadata", "--num-users", "--num-items", "--num-clusters", "--behaviors-min",
                "--behaviors-max", "--impressions", "--signal-strength", "--base-logit", "--cluster-concentration"],
            "train": common + [
                "--dataset", "--checkpoint", "--history", "--no-timing", "--model", "--dim", "--hidden",
                "--max-seq-len", "--temperature", "--use-user-profile", "--epochs", "--batch-size", "--lr",
                "--l2-lambda", "--patience", "--split-mode", "--val-fraction"],
            "eval": common + [
                "--dataset", "--checkpoint", "--compare", "--split", "--report", "--groups-csv", "--split-mode",
                "--val-fraction", "--dim", "--hidden", "--max-seq-len", "--temperature", "--model"],
            "predict": common + ["--checkpoint", "--input", "--output"],
            "rank": common + ["--checkpoint", "--candidates", "--context", "--output"],
            "gradcheck": common + ["--model", "--eps"],
        }

    def test_config_echo_keys(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "generate", "--config", write_config(tmp_path),
                               "--dataset", str(tmp_path / "d.jsonl"), "--metadata", str(tmp_path / "m.json"))
        assert code == 0
        assert sorted(json.loads(out)["config"]) == [
            "base_logit", "batch_size", "behaviors_max", "behaviors_min", "checkpoint", "cluster_concentration",
            "dataset", "dim", "epochs", "hidden", "history", "impressions", "l2_lambda", "lr", "max_seq_len",
            "metadata", "model", "num_clusters", "num_items", "num_users", "patience", "report", "seed",
            "signal_strength", "split_mode", "temperature", "timing", "use_user_profile", "val_fraction",
        ]
