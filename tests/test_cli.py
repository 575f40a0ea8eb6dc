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
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dinctr.cli import build_parser, main
from dinctr.config import RunConfig
from dinctr.data import Records, Vocabulary, encode, parse_fields
from dinctr.model import DinModel, ModelConfig, init_model, load_checkpoint, save_checkpoint
from dinctr.numerics import make_rng

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
        assert f"{key} must be in " in err
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
        assert f"{key} must be in " in err

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

    @pytest.mark.parametrize("value", ["1.5", "0", "nan"])
    def test_val_fraction_checked_before_data_is_read(self, tmp_path, capsys, value):
        """--val-fraction 1.5 used to pass until the split, so a missing
        dataset was reported instead."""
        code, out, err = run_cli(capsys, "train", "--config", write_config(tmp_path), "--val-fraction", value,
                                 "--dataset", str(tmp_path / "missing.jsonl"))
        assert code != 0 and out == ""
        assert err == f"error: val_fraction must be in (0, 1), got {float(value)}\n"

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_negative_seed_rejected_before_data_is_read(self, tmp_path, capsys, monkeypatch, command, source):
        """--seed -2 used to load, split and encode the dataset, then fail with
        "expected non-negative integer", naming no key."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "generate", "--config", write_config(tmp_path), "--dataset", "d.jsonl",
                       "--metadata", "m.json")[0] == 0
        config = write_config(tmp_path, **({"seed": -2} if source == "file" else {}))
        paths = {"generate": ("--dataset", "new.jsonl", "--metadata", "new.json"),
                 "train": ("--dataset", "d.jsonl", "--checkpoint", "m.ckpt", "--history", "h.csv")}[command]
        flag = ("--seed", "-2") if source == "flag" else ()
        code, out, err = run_cli(capsys, command, "--config", config, *flag, *paths)
        assert (code, out, err) == (1, "", "error: seed must be in [0, inf), got -2\n")
        assert sorted(os.listdir(tmp_path)) == ["config.json", "d.jsonl", "m.json"]

    @pytest.mark.parametrize(
        "raw,message",
        [(b'{"num_users": 5,', "line 1 column 17: invalid JSON: Expecting property name enclosed in double quotes"),
         (b'{"dataset": "\xe9"}', "line 1 column 14: not UTF-8 text: invalid continuation byte")],
    )
    def test_unreadable_config_file_names_file_line_and_column(self, tmp_path, capsys, monkeypatch, raw, message):
        """These used to print json's or the codec's bare message, naming no file."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_bytes(raw)
        code, out, err = run_cli(capsys, "generate", "--config", "config.json")
        assert (code, out, err) == (1, "", f"error: config.json: {message}\n")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize(
        "raw,message",
        [(b'{"num_users": ' + b"1" * 5000 + b"}", "line 1 column 1: invalid JSON: Exceeds the limit (4300 digits)"),
         (b"[" * 100_000, "line 1 column 1: invalid JSON: maximum recursion depth exceeded")],
        ids=["5000-digits", "100000-nested"],
    )
    def test_undecodable_config_file_names_file(self, tmp_path, capsys, monkeypatch, raw, message):
        """Valid JSON syntax that json cannot decode used to print its bare
        ValueError or RecursionError, naming no file."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_bytes(raw)
        code, out, err = run_cli(capsys, "generate", "--config", "config.json")
        assert (code, out) == (1, "") and err.startswith(f"error: config.json: {message}")
        assert os.listdir(tmp_path) == ["config.json"]

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


class TestSizeCaps:
    """A size key past its cap used to end in NumPy's own message, naming
    neither the key nor the file, or (epochs) loop without end."""

    @pytest.mark.parametrize("key", ["num_users", "num_items", "num_clusters", "behaviors_min", "behaviors_max",
                                     "impressions", "epochs", "dim", "hidden", "max_seq_len"])
    def test_size_key_of_2_to_the_70_names_key(self, tmp_path, capsys, key):
        # The missing dataset ends an accepted config's run before anything is allocated.
        config = write_config(tmp_path, **{key: [2**70] if key == "hidden" else 2**70})
        code, out, err = run_cli(capsys, "train", "--config", config, "--dataset", str(tmp_path / "missing.jsonl"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {key} must be in [1, ") and err.endswith(f"], got {2**70}\n")

    @pytest.mark.parametrize("command", [["predict", "--input"], ["rank", "--candidates"], ["eval", "--dataset"]])
    def test_header_max_seq_len_of_2_to_the_70_names_path_and_key(self, tmp_path, capsys, command):
        """max_seq_len sets no array shape, so the header used to load."""
        config = ModelConfig(item_vocab=12, user_vocab=5, dim=3, hidden=(4,), max_seq_len=5, temperature=1.0,
                             use_attention=True, use_user_profile=False)
        path = tmp_path / "long.ckpt"
        save_checkpoint(init_model(config, make_rng(5, stream=1)), Vocabulary(["u1", "u2", "u3"]),
                        Vocabulary([f"i{k}" for k in range(10)]), path)
        raw = path.read_bytes()
        start = raw.index(b"\n") + 1
        end = raw.index(b"\n", start)
        header = json.loads(raw[start:end])
        header["config"]["max_seq_len"] = 2**70
        path.write_bytes(raw[:start] + json.dumps(header).encode() + raw[end:])
        code, out, err = run_cli(capsys, command[0], "--checkpoint", str(path), command[1], str(tmp_path / "in.jsonl"))
        assert (code, out, err) == (1, "", f"error: {path}: max_seq_len must be in [1, 4096], got {2**70}\n")


class TestNonFiniteOutput:
    """JSON has no NaN. Three checkpoints used to make predict and eval exit
    0 with NaN probabilities and scores in their output, and rank blamed a
    candidate for the checkpoint's NaN."""

    COMMANDS = ("predict", "eval", "rank")

    def run(self, pipeline, capsys, command, ck):
        if command == "predict":
            return run_cli(capsys, "predict", "--checkpoint", ck, "--input", pipeline["dataset"])
        if command == "eval":
            return run_cli(capsys, "eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"],
                           "--checkpoint", ck)
        candidates = pipeline["tmp_path"] / "cands.jsonl"
        candidates.write_text('{"ad_id": "i1", "bid": 1.0}\n{"ad_id": "i2", "bid": 2.0}\n')
        return run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", str(candidates))

    def edited(self, pipeline, name, edit):
        """din.ckpt with ``edit(model)`` applied, saved as ``name``."""
        model, users, items, run_config = load_checkpoint(pipeline["checkpoints"]["din"][0])
        edit(model)
        path = str(pipeline["tmp_path"] / name)
        save_checkpoint(model, users, items, path, run_config=run_config)
        return path

    @pytest.mark.parametrize("command", COMMANDS)
    def test_nan_output_bias_does_not_load(self, pipeline, capsys, command):
        def nan_bias(model):
            model.flat[-1] = np.nan  # the payload's last value

        path = self.edited(pipeline, "nan.ckpt", nan_bias)
        code, out, err = self.run(pipeline, capsys, command, path)
        assert (code, out, err) == (1, "", f"error: {path}: non-finite value nan in b2 of the checkpoint payload\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_overflowing_attention_names_the_checkpoint(self, pipeline, capsys, command):
        """Item rows x 1e160 are finite, but the attention scores overflow."""
        def scale(model):
            model.params["item_emb"][...] *= 1e160

        path = self.edited(pipeline, "huge_rows.ckpt", scale)
        code, out, err = self.run(pipeline, capsys, command, path)
        assert (code, out) == (1, "") and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: {path}: non-finite click probability nan at batch row 0"), err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_temperature_below_its_end_names_the_file_and_key(self, pipeline, capsys, command):
        """temperature 5e-324 made 1 / temperature infinite, and every probability NaN."""
        path = pipeline["tmp_path"] / "cold.ckpt"
        raw = Path(pipeline["checkpoints"]["din"][0]).read_bytes()
        start = raw.index(b"\n") + 1
        end = raw.index(b"\n", start)
        header = json.loads(raw[start:end])
        header["config"]["temperature"] = 5e-324
        path.write_bytes(raw[:start] + json.dumps(header).encode() + raw[end:])
        code, out, err = self.run(pipeline, capsys, command, str(path))
        assert (code, out, err) == (1, "", f"error: {path}: temperature must be in [1e-308, inf), got 5e-324\n")

    def test_json_writer_rejects_nan_and_writes_nothing(self, tmp_path):
        from dinctr.cli import _write_json

        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(str(path), {"log_loss": float("nan")})
        assert not path.exists()


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
        assert report["n_records"] == 240  # the validation split: 20% of 1,200 impressions
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

        cfg = resolve_config(config, {"dataset": dataset})
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

    def test_groups_csv_quotes_user_ids(self, pipeline, capsys):
        """User ids holding a comma or a quote read back as one field each;
        the rows used to be joined with bare commas."""
        tmp_path = pipeline["tmp_path"]
        records = [json.loads(line) for line in open(pipeline["dataset"])]
        for rec in records:
            k = rec["user_id"][1:]
            rec["user_id"] = f"u,{k}" if int(k) % 2 else f'u"{k}'
        dataset = tmp_path / "odd_ids.jsonl"
        dataset.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        common = ("--config", pipeline["config"], "--dataset", str(dataset))
        ck, groups_path = str(tmp_path / "odd.ckpt"), tmp_path / "odd_groups.csv"
        assert run_cli(capsys, "train", *common, "--checkpoint", ck, "--history", str(tmp_path / "odd.csv"))[0] == 0
        code, out, _ = run_cli(capsys, "eval", *common, "--checkpoint", ck, "--groups-csv", str(groups_path))
        assert code == 0
        with open(groups_path, newline="") as fh:
            rows = list(csv.reader(fh))
        per_group = json.loads(out)["per_group"]
        assert rows == [["group", "weight", "auc"]] + [[g["group"], repr(g["weight"]), repr(g["auc"])] for g in per_group]
        groups = {row[0] for row in rows[1:]}
        assert any("," in g for g in groups) and any('"' in g for g in groups)

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

    def test_compare_groups_csv_is_the_first_checkpoints_table(self, pipeline, capsys):
        """``--compare CKPT_A CKPT_B --groups-csv`` writes CKPT_A's table, the
        bytes a single eval of CKPT_A writes. CKPT_B is din with its output
        layer negated, so every group's AUC is 1 - din's and the two tables
        differ by construction (din and base can tie on a tiny dataset)."""
        tmp_path = pipeline["tmp_path"]
        din_ck = pipeline["checkpoints"]["din"][0]
        model, user_vocab, item_vocab, run_config = load_checkpoint(din_ck)
        last = model.n_layers - 1
        for name in (f"w{last}", f"b{last}"):
            np.negative(model.params[name], out=model.params[name])
        save_checkpoint(model, user_vocab, item_vocab, tmp_path / "flipped.ckpt", run_config)
        cks = {"din": din_ck, "flipped": str(tmp_path / "flipped.ckpt")}
        common = ("eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"])
        for first, second in (("din", "flipped"), ("flipped", "din")):
            single, compared = tmp_path / f"{first}_groups.csv", tmp_path / f"{first}_{second}_groups.csv"
            assert run_cli(capsys, *common, "--checkpoint", cks[first], "--groups-csv", str(single))[0] == 0
            code, _, _ = run_cli(capsys, *common, "--compare", cks[first], cks[second], "--groups-csv", str(compared))
            assert code == 0
            assert compared.read_bytes() == single.read_bytes()
        assert (tmp_path / "din_groups.csv").read_bytes() != (tmp_path / "flipped_groups.csv").read_bytes()

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

    def test_histories_cut_to_the_checkpoint_width(self, tmp_path, capsys):
        """Without --max-seq-len, eval and compare encode with each
        checkpoint's max_seq_len, as training's validation did; eval used to
        encode with the run config's (32) and report another GAUC."""
        dataset = str(tmp_path / "d.jsonl")
        generate = ("generate", "--dataset", dataset, "--metadata", str(tmp_path / "m.json"))
        assert run_cli(capsys, *generate, "--num-users", "60", "--impressions", "3000", "--seed", "1")[0] == 0
        val_gauc = {}
        for width in ("4", "32"):
            code, out, _ = run_cli(capsys, "train", "--dataset", dataset, "--checkpoint", str(tmp_path / f"w{width}.ckpt"),
                                   "--history", str(tmp_path / f"w{width}.csv"), "--max-seq-len", width, "--epochs", "2")
            assert code == 0
            val_gauc[f"w{width}"] = json.loads(out)["final_val_gauc"]
        checkpoints = [str(tmp_path / f"{name}.ckpt") for name in val_gauc]
        for name, ck in zip(val_gauc, checkpoints):
            code, out, _ = run_cli(capsys, "eval", "--dataset", dataset, "--checkpoint", ck)
            assert code == 0
            assert json.loads(out)["gauc_impressions"]["value"] == val_gauc[name]
        report = tmp_path / "compare.json"
        assert run_cli(capsys, "eval", "--dataset", dataset, "--compare", *checkpoints, "--report", str(report))[0] == 0
        models = json.loads(report.read_text())["models"]
        assert {name: m["gauc_impressions"]["value"] for name, m in models.items()} == val_gauc

    def test_echoes_hold_only_run_keys(self, pipeline, capsys):
        """Reports and checkpoints echo the run keys; eval's --report flag is
        not one (the config key `report` used to be echoed, and never read)."""
        din, _ = pipeline["checkpoints"]["din"]
        base, _ = pipeline["checkpoints"]["base"]
        single, compare = pipeline["tmp_path"] / "r.json", pipeline["tmp_path"] / "c.json"
        common = ("eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"])
        assert run_cli(capsys, *common, "--checkpoint", din, "--report", str(single))[0] == 0
        assert run_cli(capsys, *common, "--compare", din, base, "--report", str(compare))[0] == 0
        echoes = [json.loads(single.read_text())["config"], load_checkpoint(din)[3]]
        echoes += [m["config"] for m in json.loads(compare.read_text())["models"].values()]
        for echo in echoes:
            assert "report" not in echo
            assert sorted(echo) == sorted(f.name for f in fields(RunConfig))

    def test_model_config_mismatch_rejected(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        code, _, err = run_cli(
            capsys, "eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"],
            "--checkpoint", ck, "--dim", "16",
        )
        assert code != 0
        assert "mismatch" in err

    @pytest.fixture()
    def odd_model(self, tmp_path, capsys):
        """A config with max_seq_len 8, a model trained with it, and an odd
        model trained with --max-seq-len 6 and every other model flag."""
        config = write_config(tmp_path, epochs=1, max_seq_len=8)
        dataset = str(tmp_path / "d.jsonl")
        assert run_cli(capsys, "generate", "--config", config, "--dataset", dataset,
                       "--metadata", str(tmp_path / "m.json"))[0] == 0
        checkpoints = {}
        for name, flags in (("model", ()), ("odd", ("--model", "base", "--dim", "4", "--hidden", "5,3",
                                                    "--max-seq-len", "6", "--temperature", "0.5",
                                                    "--use-user-profile"))):
            checkpoints[name] = str(tmp_path / f"{name}.ckpt")
            code, _, err = run_cli(capsys, "train", "--config", config, "--dataset", dataset, *flags,
                                   "--checkpoint", checkpoints[name], "--history", str(tmp_path / f"{name}.csv"))
            assert code == 0, err
        return config, dataset, checkpoints

    def test_config_model_keys_do_not_block_a_compare(self, odd_model, capsys):
        """A config file's model keys are training settings: a compare of
        checkpoints of other widths reads the same with and without it (it
        used to exit 1 on the config's max_seq_len 8 against the odd 6)."""
        config, dataset, cks = odd_model
        compare = ("eval", "--dataset", dataset, "--compare", cks["odd"], cks["model"])
        code, with_config, err = run_cli(capsys, *compare, "--config", config)
        assert code == 0, err
        assert (code, with_config) == run_cli(capsys, *compare)[:2]
        assert with_config.splitlines()[0] == "metric,odd,model"

    def test_config_model_keys_are_not_checked(self, odd_model, capsys):
        config, dataset, cks = odd_model
        code, out, err = run_cli(capsys, "eval", "--config", config, "--dataset", dataset, "--checkpoint", cks["odd"])
        assert code == 0, err
        code, plain, _ = run_cli(capsys, "eval", "--dataset", dataset, "--checkpoint", cks["odd"])
        assert code == 0
        # the echo holds the checkpoint's model keys, and the data is encoded at its width
        assert json.loads(out)["config"]["max_seq_len"] == 6
        assert {**json.loads(out), "config": None} == {**json.loads(plain), "config": None}

    def test_compare_report_echoes_each_scored_model(self, pipeline, capsys):
        """Each compare entry echoes its own checkpoint's model keys and path;
        the base entry used to echo the run config's model, din."""
        din, _ = pipeline["checkpoints"]["din"]
        base, _ = pipeline["checkpoints"]["base"]
        report = pipeline["tmp_path"] / "compare.json"
        code, _, err = run_cli(capsys, "eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"],
                               "--compare", din, base, "--report", str(report))
        assert code == 0, err
        models = json.loads(report.read_text())["models"]
        assert models["base"]["config"]["model"] == "base" and models["din"]["config"]["model"] == "din"
        assert (models["din"]["config"]["checkpoint"], models["base"]["config"]["checkpoint"]) == (din, base)

    def test_compare_report_echoes_the_odd_models_training_flags(self, odd_model, capsys, tmp_path):
        config, dataset, cks = odd_model
        report = tmp_path / "compare.json"
        code, _, err = run_cli(capsys, "eval", "--config", config, "--dataset", dataset,
                               "--compare", cks["odd"], cks["model"], "--report", str(report))
        assert code == 0, err
        echo = json.loads(report.read_text())["models"]["odd"]["config"]
        trained = {"model": "base", "dim": 4, "hidden": [5, 3], "max_seq_len": 6, "temperature": 0.5,
                   "use_user_profile": True, "checkpoint": cks["odd"]}
        assert {key: echo[key] for key in trained} == trained

    def test_mismatch_message_names_run_keys(self, pipeline, capsys):
        ck, _ = pipeline["checkpoints"]["din"]
        code, _, err = run_cli(capsys, "eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"],
                               "--checkpoint", ck, "--model", "base")
        assert code == 1
        assert "mismatch on 'model': checkpoint has model='din', config says model='base'" in err

    def test_model_flags_that_agree_pass(self, odd_model, capsys):
        """Flags equal to the checkpoint's model keys pass, `hidden` among
        them: a list in the checkpoint, a tuple from the flag."""
        _, dataset, cks = odd_model
        common = ("eval", "--dataset", dataset, "--checkpoint", cks["model"])
        code, out, err = run_cli(capsys, *common, "--hidden", "64,32", "--max-seq-len", "8", "--model", "din")
        assert code == 0, err
        assert {**json.loads(out), "config": None} == {**json.loads(run_cli(capsys, *common)[1]), "config": None}

    def test_compare_table_quotes_stems(self, pipeline, capsys):
        """Stems holding a comma or a quote are CSV-quoted; the table used to
        split them into extra columns."""
        tmp_path = pipeline["tmp_path"]
        a, b = tmp_path / "a,b.ckpt", tmp_path / 'q"x.ckpt'
        a.write_bytes(Path(pipeline["checkpoints"]["din"][0]).read_bytes())
        b.write_bytes(Path(pipeline["checkpoints"]["base"][0]).read_bytes())
        code, out, err = run_cli(capsys, "eval", "--config", pipeline["config"], "--dataset", pipeline["dataset"],
                                 "--compare", str(a), str(b))
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["metric", "a,b", 'q"x']
        assert {len(row) for row in rows} == {3}


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

    def test_empty_input_empties_the_output(self, pipeline, capsys):
        """An empty input gives an empty output file; a previous run's
        predictions used to stay in place."""
        ck, _ = pipeline["checkpoints"]["din"]
        inputs, output = pipeline["tmp_path"] / "empty.jsonl", pipeline["tmp_path"] / "p.jsonl"
        inputs.write_text("")
        output.write_text('{"old": 1}\n')
        code, out, _ = run_cli(capsys, "predict", "--checkpoint", ck, "--input", str(inputs), "--output", str(output))
        assert code == 0 and out == ""
        assert output.read_text() == ""

    def test_matches_library_forward(self, pipeline, capsys):
        from dinctr import data as D

        ck, _ = pipeline["checkpoints"]["din"]
        model, users, items, _ = load_checkpoint(ck)
        records = D.load_jsonl(pipeline["dataset"]).take(slice(0, 8))
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
        assert f"{cands}: line 2: field 'bid'" in err and "finite" in err

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
        assert f"{cands}: line 2: field 'bid'" in err

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
        assert f"{cands}: line 2: missing required field 'bid'" in err

    def test_invalid_json_context_names_file_line_and_column(self, pipeline, capsys):
        """A context that is not JSON used to fail with json's bare message."""
        ck, _ = pipeline["checkpoints"]["din"]
        cands = self.candidates(pipeline["tmp_path"], [{"ad_id": "i1", "bid": 1.0}])
        context = pipeline["tmp_path"] / "bad_ctx.json"
        context.write_text('{"user_id": "u1",\n "behavior_ids": ["i4" "i5"]}')
        code, out, err = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands, "--context", str(context))
        assert code == 1 and out == ""
        assert err == f"error: {context}: line 2 column 24: invalid JSON: Expecting ',' delimiter\n"

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

    @pytest.mark.parametrize("history", [[], ["i4"], [f"i{k % 30}" for k in range(45)], ["<pad>", "unseen"]],
                             ids=["empty", "one", "truncated", "reserved-and-unseen"])
    def test_scores_equal_one_record_per_candidate(self, pipeline, capsys, history):
        """The context is encoded once and shared; every candidate still gets
        the probability of its own record."""
        ck, _ = pipeline["checkpoints"]["din"]
        ads = ["i1", "i2", "unseen-ad", "<pad>", "i29"]
        cands = self.candidates(pipeline["tmp_path"], [{"ad_id": a, "bid": 1.0} for a in ads])
        context = pipeline["tmp_path"] / "ctx.json"
        context.write_text(json.dumps({"user_id": "u3", "behavior_ids": history}))
        code, out, _ = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", cands, "--context", str(context))
        assert code == 0
        model, users, items, _ = load_checkpoint(ck)
        per_record = Records.of(["u3"] * len(ads), [t for a in ads for t in (a, *history)], [len(history)] * len(ads),
                                [0] * len(ads), [0] * len(ads), [np.nan] * len(ads))
        want = dict(zip(ads, model.predict(encode(per_record, users, items, model.config.max_seq_len)[0]).tolist()))
        assert {r["ad_id"]: r["p"] for r in map(json.loads, out.splitlines())} == want

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


class TestOutputLines:
    """predict and rank lines hold exactly the bytes json.dumps gives."""

    IDS = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "naïve 東京 🚀", "\ud800", 12, -3, "i1"]
    FLOATS = [0.0, 1.0, 5e-324, 0.1 + 0.2]

    def fixed_probabilities(self, monkeypatch):
        floats = np.array(self.FLOATS)
        monkeypatch.setattr(DinModel, "predict", lambda model, batch: np.resize(floats, len(batch)))

    def test_predict_lines_equal_json_dumps(self, pipeline, capsys, monkeypatch):
        ck, _ = pipeline["checkpoints"]["din"]
        objs = [{"user_id": u, "ad_id": self.IDS[-1 - i], "behavior_ids": self.IDS[i:]} for i, u in enumerate(self.IDS)]
        inputs, output = pipeline["tmp_path"] / "weird_in.jsonl", pipeline["tmp_path"] / "weird_out.jsonl"
        inputs.write_text("".join(json.dumps(o) + "\n" for o in objs))
        self.fixed_probabilities(monkeypatch)
        code, _, err = run_cli(capsys, "predict", "--checkpoint", ck, "--input", str(inputs), "--output", str(output))
        assert code == 0, err
        p = np.resize(self.FLOATS, len(objs)).tolist()
        want = [{"user_id": str(o["user_id"]), "ad_id": str(o["ad_id"]), "p": p[i]} for i, o in enumerate(objs)]
        assert output.read_bytes() == "".join(json.dumps(o) + "\n" for o in want).encode("ascii")

    def test_rank_lines_equal_json_dumps(self, pipeline, capsys, monkeypatch):
        ck, _ = pipeline["checkpoints"]["din"]
        bids = [*self.FLOATS, 2, 0.7, 5e-324, 1e300]
        cands = pipeline["tmp_path"] / "weird_cands.jsonl"
        cands.write_text("".join(json.dumps({"ad_id": a, "bid": b}) + "\n" for a, b in zip(self.IDS, bids)))
        context = pipeline["tmp_path"] / "weird_ctx.json"
        context.write_text(json.dumps({"user_id": "\ud800", "behavior_ids": self.IDS}))
        self.fixed_probabilities(monkeypatch)
        code, out, err = run_cli(capsys, "rank", "--checkpoint", ck, "--candidates", str(cands), "--context",
                                 str(context))
        assert code == 0, err
        p = np.resize(self.FLOATS, len(bids)).tolist()
        rows = [{"ad_id": str(a), "p": p_a, "bid": float(b), "ecpm": p_a * b} for a, b, p_a in zip(self.IDS, bids, p)]
        want = sorted(rows, key=lambda r: (-r["ecpm"], r["ad_id"]))
        assert out == "".join(json.dumps(o) + "\n" for o in want)


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

    def test_module_run_keeps_stderr_clean(self):
        """``python -m dinctr.cli`` runs the module once: importing the package
        must not import cli first, or runpy warns on stderr and runs it twice."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "dinctr.cli", "gradcheck", "--model", "base"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["passed"] is True

    def test_seeded_rerun_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "gradcheck", "--model", "din", "--seed", "5")
        _, out2, _ = run_cli(capsys, "gradcheck", "--model", "din", "--seed", "5")
        assert out1 == out2


class TestConfigSchema:
    """RunConfig declares every run key once; the flags, the echoes and the
    checkpoint's model config all come from it."""

    def test_model_config_follows_model_flag(self):
        cfg = RunConfig(model="base", dim=4, hidden=(8,), use_user_profile=True)
        assert cfg.model_config(40, 6) == ModelConfig(40, 6, dim=4, hidden=(8,), max_seq_len=32, temperature=1.0,
                                                       use_attention=False, use_user_profile=True)

    def test_echo_reads_back_as_the_same_config(self):
        """The checkpoint's run_config echo is to_dict(); read as a config
        file it gives the config back, tuples and all."""
        cfg = RunConfig(model="base", split_mode="random", val_fraction=0.3, num_users=7, signal_strength=2.5, seed=0,
                        epochs=2, lr=0.05, patience=1, timing=False, hidden=(8, 3), temperature=0.5,
                        use_user_profile=True, dataset="d.jsonl", history="h.csv")
        echo = json.loads(json.dumps(cfg.to_dict()))
        assert cfg != RunConfig()
        assert RunConfig(**parse_fields(RunConfig, echo, "file")) == cfg

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

    @pytest.mark.parametrize("command, argv, expected", [
        *[("train", argv, expected) for argv, expected in (
            ([], {}),
            (["--hidden", "5,3"], {"hidden": (5, 3)}),
            (["--seed", "4"], {"seed": 4}),
            (["--model", "base"], {"model": "base"}),
            (["--split-mode", "random"], {"split_mode": "random"}),
            (["--use-user-profile"], {"use_user_profile": True}),
            (["--no-timing"], {"timing": False}),
        )],
        *[("eval", argv, expected) for argv, expected in (
            ([], {}),
            (["--dim", "4"], {"dim": 4}),
            (["--hidden", "5,3", "--max-seq-len", "6"], {"hidden": (5, 3), "max_seq_len": 6}),
            (["--temperature", "0.5", "--model", "base"], {"temperature": 0.5, "model": "base"}),
        )],
    ])
    def test_flag_sets_its_run_key(self, tmp_path, capsys, monkeypatch, command, argv, expected):
        """A flag of each kind (text, choices, --use-user-profile, --no-timing)
        sets the RunConfig field of its name; a key without a flag keeps the
        config file's value."""
        from dinctr import cli

        file_values = {**TINY, "timing": True, "hidden": [7], "seed": 9, "dim": 6, "max_seq_len": 8}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(file_values))
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg, args: seen.append(cfg) or 0)
        assert run_cli(capsys, command, "--config", str(config), *argv) == (0, "", "")
        assert seen == [RunConfig(**parse_fields(RunConfig, file_values, "file") | expected)]

    @pytest.mark.parametrize("command", ["generate", "eval"])
    def test_report_is_not_a_config_key(self, tmp_path, capsys, monkeypatch, command):
        """A config holding "report" used to be accepted, echoed and never read:
        eval wrote no report there, and generate exited 0."""
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, report="r.json")
        code, out, err = run_cli(capsys, command, "--config", config)
        assert code == 1 and out == ""
        assert err == f"error: {config}: unknown config key 'report'\n"
        assert os.listdir(tmp_path) == ["config.json"]

    def test_config_echo_keys(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "generate", "--config", write_config(tmp_path),
                               "--dataset", str(tmp_path / "d.jsonl"), "--metadata", str(tmp_path / "m.json"))
        assert code == 0
        assert sorted(json.loads(out)["config"]) == [
            "base_logit", "batch_size", "behaviors_max", "behaviors_min", "checkpoint", "cluster_concentration",
            "dataset", "dim", "epochs", "hidden", "history", "impressions", "l2_lambda", "lr", "max_seq_len",
            "metadata", "model", "num_clusters", "num_items", "num_users", "patience", "seed",
            "signal_strength", "split_mode", "temperature", "timing", "use_user_profile", "val_fraction",
        ]
