"""The accepted values of every numeric config key, driven through ``main``.

Each numeric run key goes through a config file and, where ``ctr train``
has one, through its flag. The property: ``ctr train`` exits 1 with
exactly one ``error:`` line on stderr and nothing on stdout, and that line
names the key exactly when the table below rejects the value; otherwise it
reports the missing dataset, which ends every accepted run before any data
is read, so no case allocates or loops on the value it checks. Each
numeric model key goes through a checkpoint header: ``ctr predict`` exits 0
with lines that strict JSON reads and probabilities in [0, 1], or exits 1
with one error line naming the file, and the key too when the table
rejects the value.

Every file the program reads as JSON goes through one decoder. A dataset
line, a predict input line, a candidate line, a rank context, a config
file, a ground-truth file and a checkpoint header that is not UTF-8, not
JSON or not a JSON object each give the same error, naming the file, the
line and the column. Fuzzed predict, candidate and context inputs, driven
through ``main``, exit 0 with well-formed output or exit 1 with one error
line that names the file.

The table is written out here, not read from the declarations in
``config.py`` and ``model.py``, so a declaration that drifts fails.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinctr.cli import main
from dinctr.config import RunConfig
from dinctr.data import Vocabulary, load_ground_truth
from dinctr.model import ModelConfig, init_model, save_checkpoint
from dinctr.numerics import make_rng
from helpers import RECORD_LINES

INF = math.inf

# key: (low, high, low included, high included). An integer key takes only
# integers, so NaN and the infinities are rejected whatever its range.
INTEGER_KEYS = {
    "num_users": (1, 2**22, True, True),
    "num_items": (1, 2**23, True, True),
    "num_clusters": (1, 2**23, True, True),
    "behaviors_min": (1, 2**12, True, True),
    "behaviors_max": (1, 2**12, True, True),
    "impressions": (1, 2**21, True, True),
    "seed": (0, INF, True, False),
    "epochs": (1, 2**20, True, True),
    "batch_size": (1, INF, True, False),
    "patience": (0, INF, True, False),
    "dim": (1, 2**10, True, True),
    "hidden": (1, 2**15, True, True),  # each entry
    "max_seq_len": (1, 2**12, True, True),
}
FLOAT_KEYS = {
    "val_fraction": (0.0, 1.0, False, False),
    "signal_strength": (0.0, INF, True, False),
    "base_logit": (-INF, INF, False, False),
    "cluster_concentration": (0.0, 1.0, False, True),
    "lr": (0.0, INF, False, False),
    "l2_lambda": (0.0, INF, True, False),
    "temperature": (1e-308, INF, True, False),
}
RUN_KEYS = INTEGER_KEYS | FLOAT_KEYS
HEADER_KEYS = {
    "item_vocab": (2, 2**24, True, True),
    "user_vocab": (2, 2**24, True, True),
    **{key: RUN_KEYS[key] for key in ("dim", "hidden", "max_seq_len", "temperature")},
}
# The numeric keys `ctr train` takes as flags.
TRAIN_FLAGS = ("seed", "epochs", "batch_size", "patience", "dim", "hidden", "max_seq_len", "val_fraction", "lr",
               "l2_lambda", "temperature")
# A key bounded by another is drawn with the other at its slack end.
PARTNERS = {
    "num_items": {"num_clusters": 1},
    "num_clusters": {"num_items": 2**23},
    "behaviors_min": {"behaviors_max": 2**12},
    "behaviors_max": {"behaviors_min": 1},
}
SPECIALS = (0, -1, 2**63, -(2**63), 2**70, math.nan, INF, -INF)


def accepted(key: str, value) -> bool:
    low, high, low_in, high_in = {**RUN_KEYS, **HEADER_KEYS}[key]
    if key in INTEGER_KEYS or key in ("item_vocab", "user_vocab"):
        if isinstance(value, float):
            return False
    return (low < value or (low_in and value == low)) and (value < high or (high_in and value == high))


def ends(key: str) -> list:
    """The finite ends of the key's range and their nearest neighbours."""
    low, high, _, _ = {**RUN_KEYS, **HEADER_KEYS}[key]
    step = (lambda v, d: v + d) if isinstance(low, int) else (lambda v, d: math.nextafter(v, d * INF))
    return [step(end, d) if d else end for end in (low, high) if math.isfinite(end) for d in (-1, 0, 1)]


def near_ends(key: str):
    """Values within a few steps of the key's finite ends, or anywhere for a float key."""
    low, high, _, _ = {**RUN_KEYS, **HEADER_KEYS}[key]
    if isinstance(low, int):
        return st.one_of(*(st.integers(end - 4, end + 4) for end in (low, high) if math.isfinite(end)))
    near = [st.floats(end - 1e-6, end + 1e-6) for end in (low, high) if math.isfinite(end)]
    return st.one_of(*near, st.floats(allow_nan=True, allow_infinity=True))


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundaries")


def check_train(workdir, key: str, value, route: str) -> None:
    missing = str(workdir / "missing.jsonl")
    config, flags = dict(PARTNERS.get(key, {})), []
    entry = [value] if key == "hidden" else value
    if route == "file":
        config[key] = entry
    else:
        flags = [f"--{key.replace('_', '-')}={value!r}"]
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(["train", "--config", str(path), *flags, "--dataset", missing])
    assert (code, out) == (1, ""), err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    if accepted(key, value):
        assert err == f"error: dataset not found: {missing}\n"
    else:
        assert key in err or f"--{key.replace('_', '-')}" in err, err
        assert "dataset not found" not in err


ROUTES = [(key, "file") for key in RUN_KEYS] + [(key, "flag") for key in TRAIN_FLAGS]


@pytest.mark.parametrize("key,route", ROUTES)
def test_special_values_and_exact_ends(workdir, key, route):
    for value in (*SPECIALS, *ends(key)):
        check_train(workdir, key, value, route)


@pytest.mark.parametrize("key,route", ROUTES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_values_near_the_ends(workdir, key, route, data):
    check_train(workdir, key, data.draw(near_ends(key), label=key), route)


@pytest.fixture(scope="module")
def checkpoint(workdir):
    """A saved tiny model, its header and payload, and a prediction input."""
    config = ModelConfig(item_vocab=12, user_vocab=5, dim=3, hidden=(4,), max_seq_len=5, temperature=1.0,
                         use_attention=True, use_user_profile=False)
    path = workdir / "m.ckpt"
    save_checkpoint(init_model(config, make_rng(5, stream=1)), Vocabulary([f"u{k}" for k in range(3)]),
                    Vocabulary([f"i{k}" for k in range(10)]), path)
    raw = path.read_bytes()
    start = raw.index(b"\n") + 1
    end = raw.index(b"\n", start) + 1
    inputs = workdir / "in.jsonl"
    inputs.write_text('{"user_id": "u1", "ad_id": "i2", "behavior_ids": ["i3", "i4"]}\n'
                      '{"user_id": "u9", "ad_id": "i5", "behavior_ids": []}\n')
    return raw[:start], json.loads(raw[start:end]), raw[end:], str(inputs)


def reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def check_header(workdir, checkpoint, key: str, value) -> None:
    magic, header, payload, inputs = checkpoint
    path = workdir / "edited.ckpt"
    config = {**header["config"], key: [value] if key == "hidden" else value}
    path.write_bytes(magic + json.dumps({**header, "config": config}).encode() + b"\n" + payload)
    code, out, err = run(["predict", "--checkpoint", str(path), "--input", inputs])
    if code == 0:
        assert err == "" and len(out.splitlines()) == 2
        for line in out.splitlines():
            assert 0.0 <= json.loads(line, parse_constant=reject_constant)["p"] <= 1.0, line
        return
    assert (code, out) == (1, "") and err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1, err
    if not accepted(key, value):
        assert key in err, err


@pytest.mark.parametrize("key", HEADER_KEYS)
def test_header_special_values_and_exact_ends(workdir, checkpoint, key):
    for value in (*SPECIALS, *ends(key)):
        check_header(workdir, checkpoint, key, value)


@pytest.mark.parametrize("key", HEADER_KEYS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_header_values_near_the_ends(workdir, checkpoint, key, data):
    check_header(workdir, checkpoint, key, data.draw(near_ends(key), label=key))


GOOD_RECORD = b'{"user_id": "u1", "ad_id": "i2", "behavior_ids": ["i3", "i4"], "label": 1, "ts": 5}'
GOOD_CANDIDATE = b'{"ad_id": "i1", "bid": 1.0}'


@pytest.fixture(scope="module")
def candidates(workdir):
    path = workdir / "candidates.jsonl"
    path.write_bytes(GOOD_CANDIDATE + b"\n")
    return str(path)


def strict_json_lines(out: str) -> list:
    return [json.loads(line, parse_constant=reject_constant) for line in out.splitlines()]


def check_failure(code: int, out: str, err: str, prefixes) -> None:
    """Exit 1, no output and one error line that starts with one of ``prefixes``."""
    assert (code, out) == (1, "") and len(err.splitlines()) == 1, err
    assert err.startswith(tuple(f"error: {p}" for p in prefixes)), err


@settings(max_examples=200, deadline=None)
@given(line=RECORD_LINES)
def test_predict_input_line(workdir, checkpoint, line):
    path = workdir / "fuzz_in.jsonl"
    path.write_bytes(GOOD_RECORD + b"\n" + line + b"\n")
    code, out, err = run(["predict", "--checkpoint", str(workdir / "m.ckpt"), "--input", str(path)])
    if code:
        return check_failure(code, out, err, [f"{path}: line 2"])
    rows = strict_json_lines(out)
    assert err == "" and len(rows) == 1 + bool(line.strip(b" \t\r"))
    assert rows[0]["user_id"] == "u1" and rows[0]["ad_id"] == "i2"
    assert all(set(r) == {"user_id", "ad_id", "p"} and 0.0 <= r["p"] <= 1.0 for r in rows), rows


def check_ranked(out: str, n: int) -> None:
    rows = strict_json_lines(out)
    assert len(rows) == n and all(set(r) == {"ad_id", "p", "bid", "ecpm"} and 0.0 <= r["p"] <= 1.0 for r in rows)
    assert [r["ecpm"] for r in rows] == sorted((r["ecpm"] for r in rows), reverse=True), rows


@settings(max_examples=200, deadline=None)
@given(line=RECORD_LINES)
def test_rank_candidate_line(workdir, checkpoint, line):
    path = workdir / "fuzz_candidates.jsonl"
    path.write_bytes(GOOD_CANDIDATE + b"\n" + line + b"\n")
    code, out, err = run(["rank", "--checkpoint", str(workdir / "m.ckpt"), "--candidates", str(path)])
    if code:
        return check_failure(code, out, err, [f"{path}: line 2"])
    assert err == ""
    check_ranked(out, 1 + bool(line.strip(b" \t\r")))


@settings(max_examples=200, deadline=None)
@given(content=RECORD_LINES)
def test_rank_context_file(workdir, checkpoint, candidates, content):
    """A context that cannot be decoded is named with its line and column; one
    whose user_id or behavior_ids is not accepted, with the field."""
    path = workdir / "fuzz_context.json"
    path.write_bytes(content)
    code, out, err = run(["rank", "--checkpoint", str(workdir / "m.ckpt"), "--candidates", candidates,
                          "--context", str(path)])
    if code:
        return check_failure(code, out, err, [f"{path}: line ", f"{path}: field "])
    assert err == ""
    check_ranked(out, 1)


# Each boundary's file holds the bad input on its line 2.
BAD_INPUTS = [
    (b'{"ad_id": "i1",, }', "line 2 column 16: invalid JSON: Expecting property name enclosed in double quotes"),
    (b'{"ad_id": "\xff"}', "line 2 column 12: not UTF-8 text: invalid start byte"),
    (b"[1, 2]", "line 2 column 1: expected a JSON object"),
]
BOUNDARIES = ("dataset", "predict", "candidates", "context", "config", "ground_truth", "checkpoint")


def read_boundary(workdir, checkpoint, candidates, boundary: str, path: str) -> str:
    """The error the program gives when it reads ``path`` at ``boundary``."""
    if boundary == "ground_truth":  # read only by the library
        with pytest.raises(ValueError) as info:
            load_ground_truth(path)
        return str(info.value)
    ck, inputs = str(workdir / "m.ckpt"), checkpoint[3]
    argv = {
        "dataset": ["eval", "--checkpoint", ck, "--dataset", path],
        "predict": ["predict", "--checkpoint", ck, "--input", path],
        "candidates": ["rank", "--checkpoint", ck, "--candidates", path],
        "context": ["rank", "--checkpoint", ck, "--candidates", candidates, "--context", path],
        "config": ["train", "--config", path, "--dataset", str(workdir / "missing.jsonl")],
        "checkpoint": ["predict", "--checkpoint", path, "--input", inputs],
    }[boundary]
    code, out, err = run(argv)
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, err
    return err[len("error: ") : -1]


@pytest.mark.parametrize("bad,message", BAD_INPUTS, ids=["invalid-json", "not-utf8", "not-an-object"])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_every_boundary_names_file_line_and_column(workdir, checkpoint, candidates, boundary, bad, message):
    magic, _, payload, _ = checkpoint
    first = {"dataset": GOOD_RECORD, "predict": GOOD_RECORD, "candidates": GOOD_CANDIDATE, "checkpoint": magic[:-1]}
    path = workdir / f"bad_{boundary}"
    path.write_bytes(first.get(boundary, b"") + b"\n" + bad + b"\n" + (payload if boundary == "checkpoint" else b""))
    assert read_boundary(workdir, checkpoint, candidates, boundary, str(path)) == f"{path}: {message}"


def test_table_covers_every_numeric_key():
    def numeric(cls):
        return {f.name for f in fields(cls) if f.type in ("int", "float", "tuple[int, ...]")}

    assert set(RUN_KEYS) == numeric(RunConfig) and set(HEADER_KEYS) == numeric(ModelConfig)
