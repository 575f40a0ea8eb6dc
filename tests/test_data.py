import json
import math
import os
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dinctr.config import RunConfig
from dinctr.data import (
    GENERATOR_KEYS,
    NO_HISTORY_TOKEN,
    EncodeStats,
    Records,
    Vocabulary,
    atomic_open,
    build_vocab,
    encode,
    generate_synthetic,
    load_ground_truth,
    load_jsonl,
    save_ground_truth,
    save_jsonl,
    split,
)
from dinctr.numerics import sigmoid


class Row(NamedTuple):
    """One record's values; ``bid`` is None when the record has none."""

    user: str
    ad: str
    behaviors: list
    label: int
    ts: int
    bid: float | None


def rec(user="u1", ad="a1", behaviors=("b1",), label=0, ts=0, bid=None):
    return Row(user, ad, list(behaviors), label, ts, bid)


def recs(*rows) -> Records:
    """Records holding ``rows`` in order."""
    return Records.of(
        [r.user for r in rows],
        [t for r in rows for t in (r.ad, *r.behaviors)],
        [len(r.behaviors) for r in rows],
        [r.label for r in rows],
        [r.ts for r in rows],
        [math.nan if r.bid is None else r.bid for r in rows],
    )


def rows_of(records: Records) -> list:
    """The rows of ``records``, read back through ``starts`` and ``lengths``."""
    items = records.items.tolist()
    return [
        Row(user, items[s], items[s + 1 : s + 1 + k], label, ts, None if math.isnan(bid) else bid)
        for user, s, k, label, ts, bid in zip(
            records.users.tolist(), records.starts.tolist(), records.lengths.tolist(), records.labels.tolist(),
            records.timestamps.tolist(), records.bids.tolist(),
        )
    ]


class TestVocabulary:
    def test_construction_order_ad_before_behaviors(self):
        users, items = build_vocab(recs(rec(user="u9", ad="a", behaviors=("b", "a"))))
        assert items.lookup(["a", "b", NO_HISTORY_TOKEN]).tolist() == [2, 3, 4]  # reserved token appended last
        assert items.tokens[:2] == [Vocabulary.PAD, Vocabulary.OOV]
        assert items.lookup([Vocabulary.PAD, Vocabulary.OOV]).tolist() == [1, 1]  # spelled in data, not padding
        assert users.lookup(["u9"]).tolist() == [2]

    def test_rebuild_is_identical(self):
        records = recs(*(rec(user=f"u{i % 3}", ad=f"a{i % 5}", behaviors=(f"b{i % 7}",)) for i in range(30)))
        _, items1 = build_vocab(records)
        _, items2 = build_vocab(records)
        assert items1.tokens == items2.tokens

    def test_frozen_unknown_token_encodes_to_oov(self):
        _, items = build_vocab(recs(rec()))
        assert items.lookup(["never-seen"]).tolist() == [1]

    def test_frozen_vocab_never_grows(self):
        _, items = build_vocab(recs(rec()))
        size = items.size
        items.lookup(["never-seen"])
        assert items.size == size
        assert "never-seen" not in items

    def test_index_token_round_trip(self):
        _, items = build_vocab(recs(rec(ad="x", behaviors=("y", "z"))))
        for tok in ("x", "y", "z"):
            assert items.decode(items.lookup([tok])[0]) == tok


class TestEncode:
    def setup_method(self):
        self.records = recs(rec(user="u1", ad="a", behaviors=("x", "y"), label=1, ts=5))
        self.users, self.items = build_vocab(self.records)

    def test_padding_and_mask(self):
        batch, _ = encode(self.records, self.users, self.items, max_seq_len=4)
        ix, iy = self.items.lookup(["x", "y"])
        np.testing.assert_array_equal(batch.behavior_idx[0], [ix, iy, 0, 0])
        np.testing.assert_array_equal(batch.mask[0], [True, True, False, False])
        assert batch.labels[0] == 1.0

    def test_truncation_keeps_most_recent_tail(self):
        records = recs(rec(behaviors=tuple(f"b{i}" for i in range(6))))
        users, items = build_vocab(records)
        batch, stats = encode(records, users, items, max_seq_len=4)
        kept = [items.decode(i) for i in batch.behavior_idx[0]]
        assert kept == ["b2", "b3", "b4", "b5"]
        assert stats.n_truncated == 1

    def test_empty_history_gets_reserved_token(self):
        records = recs(rec(behaviors=()))
        users, items = build_vocab(records)
        batch, stats = encode(records, users, items, max_seq_len=3)
        assert batch.behavior_idx[0, 0] == items.tokens.index(NO_HISTORY_TOKEN)
        np.testing.assert_array_equal(batch.mask[0], [True, False, False])
        assert stats.n_empty_history == 1

    def test_mask_iff_nonzero_index(self):
        config = RunConfig(num_users=20, num_items=15, impressions=300, seed=9)
        records, _ = generate_synthetic(config)
        users, items = build_vocab(records)
        batch, _ = encode(records, users, items, max_seq_len=16)
        np.testing.assert_array_equal(batch.mask, batch.behavior_idx != 0)
        assert batch.mask.any(axis=1).all()  # every record has a live slot

    def test_oov_tokens_counted(self):
        other = recs(rec(ad="unknown-ad", behaviors=("unknown-item",)))
        batch, stats = encode(other, self.users, self.items, max_seq_len=4)
        assert batch.ad_idx[0] == 1
        assert batch.behavior_idx[0, 0] == 1
        assert stats.n_oov_tokens >= 2


RESERVED = (Vocabulary.PAD, Vocabulary.OOV)


def build_vocab_oracle(rows):
    """Token lists grown one token at a time, each kept on first sight:
    users, then per record the ad before its behaviors, `<no_history>` last."""
    users, items = list(RESERVED), list(RESERVED)

    def add(tokens, tok):
        if tok not in tokens:
            tokens.append(tok)

    for r in rows:
        add(users, r.user)
        add(items, r.ad)
        for tok in r.behaviors:
            add(items, tok)
    add(items, NO_HISTORY_TOKEN)
    return users, items


def encode_oracle(rows, users, items, max_seq_len):
    """One lookup per token. Unknown tokens and tokens spelled like a
    reserved one encode as OOV and are counted."""
    n = len(rows)
    stats = EncodeStats(n_records=n)

    def look(vocab, tok):
        if tok in RESERVED or tok not in vocab:
            stats.n_oov_tokens += 1
            return 1
        return vocab.tokens.index(tok)

    ad_idx = np.zeros(n, dtype=np.int64)
    user_idx = np.zeros(n, dtype=np.int64)
    behavior_idx = np.zeros((n, max_seq_len), dtype=np.int64)
    labels = np.zeros(n)
    for i, r in enumerate(rows):
        user_idx[i] = look(users, r.user)
        ad_idx[i] = look(items, r.ad)
        seq = r.behaviors
        if len(seq) > max_seq_len:
            seq = seq[-max_seq_len:]
            stats.n_truncated += 1
        if not seq:
            behavior_idx[i, 0] = items.tokens.index(NO_HISTORY_TOKEN)
            stats.n_empty_history += 1
        for t, tok in enumerate(seq):
            behavior_idx[i, t] = look(items, tok)
        labels[i] = float(r.label)
    return ad_idx, user_idx, behavior_idx, labels, stats


def assert_encode_matches_oracle(records, users, items, max_seq_len):
    batch, stats = encode(records, users, items, max_seq_len)
    ad_idx, user_idx, behavior_idx, labels, expect = encode_oracle(rows_of(records), users, items, max_seq_len)
    np.testing.assert_array_equal(batch.ad_idx, ad_idx)
    np.testing.assert_array_equal(batch.user_idx, user_idx)
    np.testing.assert_array_equal(batch.behavior_idx, behavior_idx)
    np.testing.assert_array_equal(batch.mask, behavior_idx != 0)
    np.testing.assert_array_equal(batch.labels, labels)
    for arr in (batch.ad_idx, batch.user_idx, batch.behavior_idx):
        assert arr.dtype == np.int64
    assert stats == expect
    assert batch.mask.any(axis=1).all()
    return stats


class TestEncodeOracle:
    def records(self):
        records, _ = generate_synthetic(RunConfig(num_users=30, num_items=25, impressions=400, seed=12))
        extra = [
            rec(user="u-new", ad="a-new", behaviors=()),
            rec(user=Vocabulary.PAD, ad=Vocabulary.OOV, behaviors=(Vocabulary.PAD,)),
            rec(ad=Vocabulary.PAD, behaviors=("i3", Vocabulary.OOV, Vocabulary.PAD, "never-seen")),
            rec(user="u1", ad="i2", behaviors=(NO_HISTORY_TOKEN, "i4")),
        ]
        rows = rows_of(records)
        return recs(*rows[:200], *extra, *rows[200:])

    def test_build_vocab_matches_per_token_adds(self):
        records = self.records()
        users, items = build_vocab(records)
        o_users, o_items = build_vocab_oracle(rows_of(records))
        assert users.tokens == o_users
        assert items.tokens == o_items
        assert items.lookup(o_items[2:]).tolist() == list(range(2, len(o_items)))

    @pytest.mark.parametrize("max_seq_len", [1, 10, 40])
    def test_generated_data_with_oov_truncation_and_empty(self, max_seq_len):
        records = self.records()
        users, items = build_vocab(records.take(slice(0, 150)))  # the rest meets unseen tokens
        stats = assert_encode_matches_oracle(records, users, items, max_seq_len)
        assert stats.n_oov_tokens > 0 and stats.n_empty_history == 1
        assert (stats.n_truncated > 0) == (max_seq_len < 32)

    def test_reserved_spellings_encode_as_oov(self):
        records = recs(
            rec(user=Vocabulary.PAD, ad=Vocabulary.PAD, behaviors=(Vocabulary.PAD,)),
            rec(user=Vocabulary.OOV, ad="a", behaviors=(Vocabulary.PAD, "b", Vocabulary.OOV)),
        )
        users, items = build_vocab(records)
        assert Vocabulary.PAD not in items.tokens[2:] and Vocabulary.OOV not in items.tokens[2:]
        batch, stats = encode(records, users, items, max_seq_len=4)
        np.testing.assert_array_equal(batch.behavior_idx[:, 0], [1, 1])
        np.testing.assert_array_equal(batch.ad_idx, [1, items.tokens.index("a")])
        np.testing.assert_array_equal(batch.user_idx, [1, 1])
        np.testing.assert_array_equal(batch.mask.sum(axis=1), [1, 3])
        assert stats.n_oov_tokens == 2 + 1 + 3  # users, ads, behaviors
        assert_encode_matches_oracle(records, users, items, 4)

    def test_zero_records(self):
        users, items = build_vocab(recs(rec()))
        batch, stats = encode(recs(), users, items, max_seq_len=3)
        assert batch.behavior_idx.shape == (0, 3) and len(batch) == 0
        assert stats == EncodeStats()


class TestSplit:
    def test_temporal_eight_day_example(self):
        # 8 uniform "days" of 10 records each; fraction 1/8 peels off the last day
        records = recs(*(rec(ad=f"a{d}_{i}", ts=d * 86_400 + i) for d in range(8) for i in range(10)))
        train_side, val_side = (records.take(rows) for rows in split(records, "temporal", 0.125))
        assert len(val_side) == 10
        assert all(r.ts >= 7 * 86_400 for r in rows_of(val_side))
        assert max(r.ts for r in rows_of(train_side)) < 7 * 86_400

    def test_random_same_seed_identical(self):
        records = recs(*(rec(ad=f"a{i}", ts=i) for i in range(50)))
        a = [records.take(rows) for rows in split(records, "random", 0.3, seed=11)]
        b = [records.take(rows) for rows in split(records, "random", 0.3, seed=11)]
        assert rows_of(a[0]) == rows_of(b[0])
        assert rows_of(a[1]) == rows_of(b[1])

    def test_partition_is_exact(self):
        records = recs(*(rec(ad=f"a{i}", ts=i % 7) for i in range(41)))
        train_rows, val_rows = split(records, "random", 0.25, seed=2)
        assert sorted(np.concatenate([train_rows, val_rows]).tolist()) == list(range(41))
        train_side, val_side = records.take(train_rows), records.take(val_rows)
        assert len(train_side) + len(val_side) == 41
        all_ids = sorted(r.ad for r in rows_of(records))
        assert sorted(r.ad for r in rows_of(train_side) + rows_of(val_side)) == all_ids

    def test_degenerate_fraction_raises(self):
        records = recs(rec(), rec())
        with pytest.raises(ValueError):
            split(records, "temporal", 0.9999)
        with pytest.raises(ValueError):
            split(records, "temporal", 1.5)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            split(recs(rec(), rec()), "stratified", 0.5)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        config = RunConfig(num_users=10, num_items=12, impressions=100, seed=4)
        records, _ = generate_synthetic(config)
        path = tmp_path / "data.jsonl"
        save_jsonl(records, path)
        assert load_jsonl(path) == records

    def test_missing_label_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"user_id":"u","ad_id":"a","behavior_ids":[],"label":1,"ts":0}\n'
            '{"user_id":"u","ad_id":"a","behavior_ids":[],"ts":0}\n'
        )
        with pytest.raises(ValueError, match="line 2.*label"):
            load_jsonl(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user_id":"u","ad_id":"a","behavior_ids":[],"label":0,"ts":0}\n{oops\n')
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(path)

    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(load_jsonl(path)) == 0 and load_jsonl(path) == recs()

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        path.write_text('{"user_id":"u","ad_id":"a","behavior_ids":["b"],"label":1,"ts":3,"debug":42}\n')
        assert rows_of(load_jsonl(path)) == [rec(user="u", ad="a", behaviors=("b",), label=1, ts=3)]

    @pytest.mark.parametrize("bid", ["NaN", "Infinity", "-Infinity", '"abc"'])
    def test_non_finite_bid_names_line_and_field(self, tmp_path, bid):
        path = tmp_path / "bids.jsonl"
        path.write_text(
            '{"user_id":"u","ad_id":"a","behavior_ids":[],"label":1,"ts":0,"bid":1.0}\n'
            f'{{"user_id":"u","ad_id":"a","behavior_ids":[],"label":1,"ts":0,"bid":{bid}}}\n'
        )
        with pytest.raises(ValueError, match="line 2: field 'bid'"):
            load_jsonl(path)

    def test_negative_bid_names_line_and_field(self, tmp_path):
        path = tmp_path / "bids.jsonl"
        path.write_text(
            '{"user_id":"u","ad_id":"a","behavior_ids":[],"label":1,"ts":0,"bid":0.0}\n'
            '{"user_id":"u","ad_id":"a","behavior_ids":[],"label":1,"ts":0,"bid":-3.0}\n'
        )
        with pytest.raises(ValueError, match="line 2: field 'bid' must be a finite number >= 0"):
            load_jsonl(path)

    @pytest.mark.parametrize(
        "field,value",
        [("behavior_ids", '"i31"'), ("behavior_ids", "null"), ("label", "true"), ("label", "1.0"),
         ("ts", "1.9"), ("ts", '"7"')],
    )
    def test_coercible_field_rejected_with_line_and_field(self, tmp_path, field, value):
        """A value of the wrong JSON type is an error, never split, cast or truncated."""
        good = {"user_id": "u", "ad_id": "a", "behavior_ids": ["i3", "i1"], "label": 1, "ts": 5}
        bad = json.dumps({**good, field: "VALUE"}).replace('"VALUE"', value)
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(good) + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=f"line 2: field '{field}'"):
            load_jsonl(path)

    def test_bid_optional_and_preserved(self, tmp_path):
        path = tmp_path / "bids.jsonl"
        save_jsonl(recs(rec(bid=1.25), rec(ad="a2")), path)
        loaded = load_jsonl(path)
        assert loaded.bids[0] == 1.25
        assert math.isnan(loaded.bids[1])
        assert [r.bid for r in rows_of(loaded)] == [1.25, None]


class TestJsonlTypes:
    GOOD = {"user_id": "u", "ad_id": "a", "behavior_ids": ["i3", "i1"], "label": 1, "ts": 5}

    def load_second_line(self, tmp_path, line: bytes):
        path = tmp_path / "typed.jsonl"
        path.write_bytes(json.dumps(self.GOOD).encode() + b"\n" + line + b"\n")
        return load_jsonl(path)

    @pytest.mark.parametrize(
        "field,value",
        [("user_id", None), ("user_id", True), ("ad_id", 1.5), ("ad_id", ["a"]), ("behavior_ids", ["i1", None]),
         ("behavior_ids", [2.0]), ("bid", "1.5"), ("bid", True), ("bid", 10**400)],
    )
    def test_wrong_type_rejected_with_line_and_field(self, tmp_path, field, value):
        """An ID is text or an integer and a bid is a JSON number: null is not
        read as "None", "1.5" not cast to 1.5, true not read as 1.0."""
        line = json.dumps({**self.GOOD, field: value}).encode()
        with pytest.raises(ValueError, match=f"line 2: field '{field}'"):
            self.load_second_line(tmp_path, line)

    def test_integer_ids_read_as_their_digits(self, tmp_path):
        line = json.dumps({**self.GOOD, "user_id": 12, "ad_id": -3, "behavior_ids": [7, "i7"]}).encode()
        loaded = rows_of(self.load_second_line(tmp_path, line))[1]
        assert (loaded.user, loaded.ad, loaded.behaviors) == ("12", "-3", ["7", "i7"])

    @pytest.mark.parametrize(
        "line,message",
        [(b'{"user_id": "\xff"}', "line 2: not UTF-8"), (b"{} {}", "line 2: invalid JSON: Extra data"),
         (b"1" * 5000, "line 2: invalid JSON"), (b"[1, 2]", "line 2: expected a JSON object")],
        ids=["not-utf8", "two-values", "huge-integer", "array"],
    )
    def test_unreadable_line_names_its_number(self, tmp_path, line, message):
        with pytest.raises(ValueError, match=message):
            self.load_second_line(tmp_path, line)

    @pytest.mark.parametrize(
        "line",
        ["\xa0" + json.dumps(GOOD) + "\x1c", "\x0c", "\u2028" + json.dumps(GOOD), json.dumps(GOOD) + "\x85"],
        ids=["nbsp-and-separator", "form-feed-only", "line-separator", "next-line"],
    )
    def test_non_json_whitespace_around_a_line_rejected(self, tmp_path, line):
        """The loader used to strip every Unicode whitespace character, so these
        lines loaded (or were skipped as blank) although json.loads rejects them."""
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
        with pytest.raises(ValueError, match="line 2: invalid JSON"):
            self.load_second_line(tmp_path, line.encode())

    def test_crlf_and_json_whitespace_load(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        good = json.dumps(self.GOOD).encode()
        path.write_bytes(good + b"\r\n \t" + good + b" \t\r\n\r\n \n")
        assert rows_of(load_jsonl(path)) == [rec(user="u", ad="a", behaviors=("i3", "i1"), label=1, ts=5)] * 2


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
_ID = st.text(max_size=4) | st.integers()
# Each field: a well-typed value or any JSON value; any field may be absent.
_FIELDS = {
    "user_id": _ID,
    "ad_id": _ID,
    "behavior_ids": st.lists(_ID, max_size=4),
    "label": st.sampled_from([0, 1]),
    "ts": st.integers(),
    "bid": st.none() | st.floats(min_value=0.0, max_value=5.0) | st.integers(min_value=0, max_value=5),
}
_OBJECTS = st.fixed_dictionaries({}, optional={k: v | _JSON for k, v in _FIELDS.items()} | {"extra": _JSON})
_LINES = st.one_of(
    _OBJECTS.map(lambda o: json.dumps(o).encode()),
    _JSON.map(lambda v: json.dumps(v).encode()),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=12).map(str.encode),
    st.binary(max_size=12).filter(lambda b: b"\n" not in b),
)


def _field_ok(name, value) -> bool:
    """The record contract, field by field."""
    if name in ("user_id", "ad_id"):
        return type(value) in (str, int)
    if name == "behavior_ids":
        return type(value) is list and all(type(t) in (str, int) for t in value)
    if name == "label":
        return type(value) is int and value in (0, 1)
    if name == "ts":
        return type(value) is int
    try:  # bid: absent/null, or a finite JSON number >= 0
        return value is None or (type(value) in (int, float) and math.isfinite(float(value)) and value >= 0)
    except OverflowError:
        return False


class TestJsonlFuzz:
    @given(_LINES, st.booleans())
    @settings(deadline=None, max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_each_line_gives_a_faithful_record_or_names_line_and_field(self, tmp_path, line, require_label):
        """Line 2 is fuzzed. The loader either returns a record holding exactly
        the line's values, or raises a ValueError that names line 2 and, for a
        bad field, that field; never another exception, never a cast value."""
        path = tmp_path / "fuzz.jsonl"
        path.write_bytes(json.dumps(TestJsonlTypes.GOOD).encode() + b"\n" + line + b"\n")
        try:
            records = load_jsonl(path, require_label=require_label)
        except ValueError as exc:
            msg = str(exc)
            assert msg.startswith("line 2: "), msg
            named = msg.split("field ")[1].split("'")[1] if "field '" in msg else None
            if named is not None:
                obj = json.loads(line.decode())
                assert named not in obj or not _field_ok(named, obj[named]), msg
            return
        text = line.decode().strip(" \t\r\n")  # the JSON whitespace, as json.loads skips it
        if len(records) == 1:  # a blank line
            assert not text
            return
        obj = json.loads(text)
        rec = rows_of(records)[1]
        required = ("user_id", "ad_id", "behavior_ids") + (("label", "ts") if require_label else ())
        assert all(k in obj and _field_ok(k, obj[k]) for k in required)
        assert all(_field_ok(k, obj[k]) for k in _FIELDS if k in obj)
        assert rec == Row(
            user=str(obj["user_id"]),
            ad=str(obj["ad_id"]),
            behaviors=[str(t) for t in obj["behavior_ids"]],
            label=obj.get("label", 0),
            ts=obj.get("ts", 0),
            bid=None if obj.get("bid") is None else float(obj["bid"]),
        )
        assert records.labels.dtype == np.int64 and records.bids.dtype == np.float64
        assert type(rec.label) is int and type(rec.ts) is int
        assert rec.bid is None or type(rec.bid) is float


_RESERVED_OR_COMMON = st.sampled_from([Vocabulary.PAD, Vocabulary.OOV, NO_HISTORY_TOKEN, "a", "b"])
_TOKENS = _RESERVED_OR_COMMON | st.text(max_size=3) | st.integers(-3, 30)


@st.composite
def jsonl_files(draw):
    """(require_label, JSON objects) for a file of records: string and integer
    IDs, reserved spellings, empty and long histories, with and without a
    bid; in predict mode label and ts may be absent."""
    require_label = draw(st.booleans())
    scalar = {"label": st.sampled_from([0, 1]), "ts": st.integers(-2, 3) | st.integers(),
              "bid": st.floats(0.0, 5.0) | st.integers(0, 5)}
    required = {"user_id": _TOKENS, "ad_id": _TOKENS, "behavior_ids": st.lists(_TOKENS, max_size=12)}
    if require_label:
        required |= {"label": scalar.pop("label"), "ts": scalar.pop("ts")}
    objs = draw(st.lists(st.fixed_dictionaries(required, optional=scalar), min_size=1, max_size=30))
    return require_label, objs


def row_of_obj(obj) -> Row:
    """What a JSON object should load as: IDs as text, label and ts 0 when absent."""
    bid = obj.get("bid")
    return Row(str(obj["user_id"]), str(obj["ad_id"]), [str(t) for t in obj["behavior_ids"]], obj.get("label", 0),
               obj.get("ts", 0), None if bid is None else float(bid))


class TestFileBoundary:
    @given(jsonl_files(), st.integers(1, 8), st.integers(0, 12), st.sampled_from([0.25, 0.5]))
    @settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_loaded_columns_match_the_per_record_oracles(self, tmp_path, file, max_seq_len, prefix, fraction):
        """Records written as JSONL and read back give the vocabularies,
        batch arrays, stats and splits of the per-record oracles."""
        require_label, objs = file
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        records = load_jsonl(path, require_label=require_label)
        rows = [row_of_obj(o) for o in objs]
        assert rows_of(records) == rows

        users, items = build_vocab(records)
        assert (users.tokens, items.tokens) == build_vocab_oracle(rows)
        if 0 < prefix < len(rows):  # later records meet tokens the vocabularies lack
            users, items = build_vocab(records.take(np.arange(prefix)))
        batch, stats = encode(records, users, items, max_seq_len)
        ad_idx, user_idx, behavior_idx, labels, expect = encode_oracle(rows, users, items, max_seq_len)
        for got, want in ((batch.ad_idx, ad_idx), (batch.user_idx, user_idx), (batch.behavior_idx, behavior_idx),
                          (batch.labels, labels)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        assert stats == expect

        n_val = round(len(rows) * fraction)
        if 1 <= n_val < len(rows):
            order = sorted(range(len(rows)), key=lambda i: rows[i].ts)
            train_side, val_side = (records.take(rows) for rows in split(records, "temporal", fraction))
            assert rows_of(train_side) == [rows[i] for i in order[: len(rows) - n_val]]
            assert rows_of(val_side) == [rows[i] for i in order[len(rows) - n_val :]]


class TestLineFormat:
    IDS = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "naïve 東京 🚀", "\ud800", "12", "", "<pad>"]
    FLOATS = [0.0, 1.0, 5e-324, 0.1 + 0.2]

    def test_save_jsonl_lines_equal_json_dumps(self, tmp_path):
        rows = [
            rec(user=u, ad=self.IDS[-1 - i], behaviors=self.IDS[i:], label=i % 2, ts=(-1) ** i * 10 ** (3 * i),
                bid=self.FLOATS[i % 4] if i % 5 else None)
            for i, u in enumerate(self.IDS)
        ]
        assert any(abs(r.ts) > 2**63 for r in rows)  # beyond int64
        path = tmp_path / "weird.jsonl"
        save_jsonl(recs(*rows), path)
        want = [
            {"user_id": r.user, "ad_id": r.ad, "behavior_ids": r.behaviors, "label": r.label, "ts": r.ts}
            | ({} if r.bid is None else {"bid": r.bid})
            for r in rows
        ]
        assert path.read_bytes() == "".join(json.dumps(o) + "\n" for o in want).encode("ascii")
        assert load_jsonl(path) == recs(*rows)


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("previous\n")
        with pytest.raises(OSError, match="disk full"):
            with atomic_open(path) as fh:
                fh.write("half of a new rep")
                raise OSError("disk full")
        assert path.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_completed_write_replaces_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("previous\n")
        with atomic_open(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_failed_dataset_write_keeps_previous_dataset(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_jsonl(recs(rec(), rec(ad="a2")), path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="record 2: bid must be finite"):
            save_jsonl(recs(rec(ad="a3"), rec(bid=math.inf)), path)  # JSON has no infinity
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["data.jsonl"]


class TestGenerator:
    def test_deterministic(self):
        config = RunConfig(num_users=25, num_items=30, impressions=400, seed=123)
        r1, t1 = generate_synthetic(config)
        r2, t2 = generate_synthetic(config)
        assert r1 == r2
        assert t1.true_probs == t2.true_probs
        assert t1.item_clusters == t2.item_clusters

    def test_round_robin_clusters(self):
        config = RunConfig(num_users=5, num_items=23, num_clusters=7, impressions=50, seed=1)
        _, truth = generate_synthetic(config)
        for tok, cluster in truth.item_clusters.items():
            assert cluster == int(tok[1:]) % 7

    def test_null_signal_ctr_matches_base_rate(self):
        config = RunConfig(num_users=50, num_items=40, impressions=8000, signal_strength=0.0, seed=5)
        records, truth = generate_synthetic(config)
        base_rate = sigmoid(config.base_logit)
        assert all(p == base_rate for p in truth.true_probs)
        ctr_hat = np.mean(records.labels)
        sigma = math.sqrt(base_rate * (1 - base_rate) / len(records))
        assert abs(ctr_hat - base_rate) < 3 * sigma

    def test_full_match_probability_closed_form(self):
        assert abs(sigmoid(0.0 + 4.0 * 1.0) - 0.9820137900379085) < 1e-12

    def test_empirical_ctr_tracks_mean_true_p(self):
        config = RunConfig(seed=2, impressions=25_000)
        records, truth = generate_synthetic(config)
        p = np.array(truth.true_probs)
        ctr_hat = np.mean(records.labels)
        sigma = math.sqrt(float(np.sum(p * (1 - p))) / len(p) ** 2)
        assert abs(ctr_hat - p.mean()) < 3 * sigma

    def test_matched_impressions_have_higher_true_p(self):
        """Monte Carlo over the generator's own metadata: impressions whose ad
        cluster matches the user's dominant behavior cluster carry higher
        ground-truth click probability."""
        config = RunConfig(seed=3)
        records, truth = generate_synthetic(config)
        dominant = {}
        for r in rows_of(records):
            if r.user not in dominant:
                clusters = [truth.item_clusters[b] for b in r.behaviors]
                dominant[r.user] = max(set(clusters), key=clusters.count)
        matched, unmatched = [], []
        for r, p in zip(rows_of(records), truth.true_probs):
            if truth.item_clusters[r.ad] == dominant[r.user]:
                matched.append(p)
            else:
                unmatched.append(p)
        assert np.mean(matched) > np.mean(unmatched) + 0.3

    def test_timestamps_increase_with_generation_order(self):
        records, _ = generate_synthetic(RunConfig(num_users=5, num_items=10, impressions=40, seed=6))
        ts = records.timestamps.tolist()
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)

    def test_config_validation(self):
        """A RunConfig is checked when it is made, before any draw."""
        for bad in ({"impressions": 0}, {"signal_strength": -1.0}, {"behaviors_min": 0}, {"num_clusters": 0},
                    {"cluster_concentration": 1.2}, {"seed": -1}):
            with pytest.raises(ValueError):
                RunConfig(**bad)

    def test_ground_truth_echoes_the_generator_keys(self):
        _, truth = generate_synthetic(RunConfig(num_users=5, num_items=10, impressions=30, seed=8, epochs=9))
        assert tuple(truth.config) == GENERATOR_KEYS and GENERATOR_KEYS[-1] == "seed"
        assert truth.config["num_users"] == 5 and truth.config["seed"] == 8

    def test_ground_truth_round_trip(self, tmp_path):
        _, truth = generate_synthetic(RunConfig(num_users=5, num_items=10, impressions=30, seed=8))
        path = tmp_path / "meta.json"
        save_ground_truth(truth, path)
        loaded = load_ground_truth(path)
        assert loaded.item_clusters == truth.item_clusters
        assert loaded.true_probs == truth.true_probs
        assert loaded.config == truth.config


class TestGroundTruthFile:
    """load_ground_truth checks values instead of casting them; errors name
    the file and the field."""

    def load(self, tmp_path, obj):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(obj))
        return load_ground_truth(path)

    @pytest.mark.parametrize("cluster", ["3", 2.7, 3.0, True, None])
    def test_cluster_id_must_be_an_integer(self, tmp_path, cluster):
        """"3" used to load as 3 and 2.7 as 2."""
        with pytest.raises(ValueError, match=r"meta\.json: field 'item_clusters' maps 'i1' to .*not an integer"):
            self.load(tmp_path, {"item_clusters": {"i0": 0, "i1": cluster}, "true_probs": [0.5]})

    @pytest.mark.parametrize("prob", [True, "0.5", None, -0.1, 1.5, float("nan"), float("inf")])
    def test_probability_must_be_a_number_in_unit_interval(self, tmp_path, prob):
        """true used to load as 1.0."""
        with pytest.raises(ValueError, match=r"meta\.json: field 'true_probs' entry 1 must be a number in \[0, 1\]"):
            self.load(tmp_path, {"item_clusters": {"i0": 0}, "true_probs": [0.5, prob]})

    @pytest.mark.parametrize(
        "obj,message",
        [
            ({"true_probs": [0.5]}, "field 'item_clusters' must be an object, but it is missing"),
            ({"item_clusters": {"i0": 0}}, "field 'true_probs' must be a list, but it is missing"),
            ({"item_clusters": [0], "true_probs": [0.5]}, "field 'item_clusters' must be an object, got [0]"),
            ({"item_clusters": {}, "true_probs": {"0": 0.5}}, "field 'true_probs' must be a list"),
            ({"item_clusters": {}, "true_probs": [], "config": [1]}, "field 'config' must be an object, got [1]"),
            ([{"i0": 0}], "ground truth must be a JSON object"),
        ],
    )
    def test_malformed_file_names_path_and_field(self, tmp_path, obj, message):
        """A missing item_clusters used to raise a bare KeyError, and a
        top-level list a TypeError."""
        with pytest.raises(ValueError) as info:
            self.load(tmp_path, obj)
        assert str(info.value).startswith(f"{tmp_path / 'meta.json'}: {message}")

    @pytest.mark.parametrize(
        "raw,where",
        [(b'{"item_clusters": {},\n "true_probs": [0.5,]}', "line 2 column 21: invalid JSON"),
         (b'{"item_clusters": {"i\xff": 0}}', "line 1 column 22: not UTF-8 text")],
    )
    def test_unreadable_json_names_path_line_and_column(self, tmp_path, raw, where):
        """A syntax error used to name neither the file nor, for bad UTF-8, the place."""
        path = tmp_path / "meta.json"
        path.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            load_ground_truth(path)
        assert str(info.value).startswith(f"{path}: {where}")

    def test_integral_probabilities_and_missing_config_load(self, tmp_path):
        truth = self.load(tmp_path, {"item_clusters": {"i0": 0, "i1": 1}, "true_probs": [0, 1, 0.25]})
        assert truth.true_probs == [0.0, 1.0, 0.25] and all(type(p) is float for p in truth.true_probs)
        assert truth.item_clusters == {"i0": 0, "i1": 1} and truth.config == {}
