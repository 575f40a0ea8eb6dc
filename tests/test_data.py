import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dinctr.data import (
    NO_HISTORY_TOKEN,
    EncodeStats,
    ImpressionRecord,
    SyntheticConfig,
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


def rec(user="u1", ad="a1", behaviors=("b1",), label=0, ts=0, bid=None):
    return ImpressionRecord(user, ad, list(behaviors), label, ts, bid)


class TestVocabulary:
    def test_construction_order_ad_before_behaviors(self):
        users, items = build_vocab([rec(user="u9", ad="a", behaviors=("b", "a"))])
        assert items.encode("a") == 2
        assert items.encode("b") == 3
        assert items.encode(Vocabulary.PAD) == 0
        assert items.encode(Vocabulary.OOV) == 1
        assert items.encode(NO_HISTORY_TOKEN) == 4  # reserved token appended last
        assert users.encode("u9") == 2

    def test_rebuild_is_identical(self):
        records = [rec(user=f"u{i % 3}", ad=f"a{i % 5}", behaviors=(f"b{i % 7}",)) for i in range(30)]
        _, items1 = build_vocab(records)
        _, items2 = build_vocab(records)
        assert items1.tokens == items2.tokens

    def test_frozen_unknown_token_encodes_to_oov(self):
        _, items = build_vocab([rec()])
        assert items.encode("never-seen") == 1

    def test_frozen_vocab_never_grows(self):
        _, items = build_vocab([rec()])
        size = items.size
        items.encode("never-seen")
        assert items.size == size
        assert "never-seen" not in items

    def test_index_token_round_trip(self):
        _, items = build_vocab([rec(ad="x", behaviors=("y", "z"))])
        for tok in ("x", "y", "z"):
            assert items.decode(items.encode(tok)) == tok


class TestEncode:
    def setup_method(self):
        self.records = [rec(user="u1", ad="a", behaviors=("x", "y"), label=1, ts=5)]
        self.users, self.items = build_vocab(self.records)

    def test_padding_and_mask(self):
        batch, _ = encode(self.records, self.users, self.items, max_seq_len=4)
        ix, iy = self.items.encode("x"), self.items.encode("y")
        np.testing.assert_array_equal(batch.behavior_idx[0], [ix, iy, 0, 0])
        np.testing.assert_array_equal(batch.mask[0], [True, True, False, False])
        assert batch.labels[0] == 1.0

    def test_truncation_keeps_most_recent_tail(self):
        records = [rec(behaviors=tuple(f"b{i}" for i in range(6)))]
        users, items = build_vocab(records)
        batch, stats = encode(records, users, items, max_seq_len=4)
        kept = [items.decode(i) for i in batch.behavior_idx[0]]
        assert kept == ["b2", "b3", "b4", "b5"]
        assert stats.n_truncated == 1

    def test_empty_history_gets_reserved_token(self):
        records = [rec(behaviors=())]
        users, items = build_vocab(records)
        batch, stats = encode(records, users, items, max_seq_len=3)
        assert batch.behavior_idx[0, 0] == items.encode(NO_HISTORY_TOKEN)
        np.testing.assert_array_equal(batch.mask[0], [True, False, False])
        assert stats.n_empty_history == 1

    def test_mask_iff_nonzero_index(self):
        config = SyntheticConfig(num_users=20, num_items=15, impressions=300, seed=9)
        records, _ = generate_synthetic(config)
        users, items = build_vocab(records)
        batch, _ = encode(records, users, items, max_seq_len=16)
        np.testing.assert_array_equal(batch.mask, batch.behavior_idx != 0)
        assert batch.mask.any(axis=1).all()  # every record has a live slot

    def test_oov_tokens_counted(self):
        other = [rec(ad="unknown-ad", behaviors=("unknown-item",))]
        batch, stats = encode(other, self.users, self.items, max_seq_len=4)
        assert batch.ad_idx[0] == 1
        assert batch.behavior_idx[0, 0] == 1
        assert stats.n_oov_tokens >= 2


RESERVED = (Vocabulary.PAD, Vocabulary.OOV)


def build_vocab_oracle(records):
    """Token lists grown one token at a time, each kept on first sight:
    users, then per record the ad before its behaviors, `<no_history>` last."""
    users, items = list(RESERVED), list(RESERVED)

    def add(tokens, tok):
        if tok not in tokens:
            tokens.append(tok)

    for r in records:
        add(users, r.user_id)
        add(items, r.ad_id)
        for tok in r.behavior_ids:
            add(items, tok)
    add(items, NO_HISTORY_TOKEN)
    return users, items


def encode_oracle(records, users, items, max_seq_len):
    """One lookup per token. Unknown tokens and tokens spelled like a
    reserved one encode as OOV and are counted."""
    n = len(records)
    stats = EncodeStats(n_records=n)

    def look(vocab, tok):
        if tok in RESERVED or tok not in vocab:
            stats.n_oov_tokens += 1
            return 1
        return vocab.encode(tok)

    ad_idx = np.zeros(n, dtype=np.int64)
    user_idx = np.zeros(n, dtype=np.int64)
    behavior_idx = np.zeros((n, max_seq_len), dtype=np.int64)
    labels = np.zeros(n)
    for i, r in enumerate(records):
        user_idx[i] = look(users, r.user_id)
        ad_idx[i] = look(items, r.ad_id)
        seq = r.behavior_ids
        if len(seq) > max_seq_len:
            seq = seq[-max_seq_len:]
            stats.n_truncated += 1
        if not seq:
            behavior_idx[i, 0] = items.encode(NO_HISTORY_TOKEN)
            stats.n_empty_history += 1
        for t, tok in enumerate(seq):
            behavior_idx[i, t] = look(items, tok)
        labels[i] = float(r.label)
    return ad_idx, user_idx, behavior_idx, labels, stats


def assert_encode_matches_oracle(records, users, items, max_seq_len):
    batch, stats = encode(records, users, items, max_seq_len)
    ad_idx, user_idx, behavior_idx, labels, expect = encode_oracle(records, users, items, max_seq_len)
    np.testing.assert_array_equal(batch.ad_idx, ad_idx)
    np.testing.assert_array_equal(batch.user_idx, user_idx)
    np.testing.assert_array_equal(batch.group_keys, user_idx)
    np.testing.assert_array_equal(batch.behavior_idx, behavior_idx)
    np.testing.assert_array_equal(batch.mask, behavior_idx != 0)
    np.testing.assert_array_equal(batch.labels, labels)
    for arr in (batch.ad_idx, batch.user_idx, batch.group_keys, batch.behavior_idx):
        assert arr.dtype == np.int64
    assert stats == expect
    assert batch.mask.any(axis=1).all()
    return stats


class TestEncodeOracle:
    def records(self):
        records, _ = generate_synthetic(SyntheticConfig(num_users=30, num_items=25, impressions=400, seed=12))
        extra = [
            rec(user="u-new", ad="a-new", behaviors=()),
            rec(user=Vocabulary.PAD, ad=Vocabulary.OOV, behaviors=(Vocabulary.PAD,)),
            rec(ad=Vocabulary.PAD, behaviors=("i3", Vocabulary.OOV, Vocabulary.PAD, "never-seen")),
            rec(user="u1", ad="i2", behaviors=(NO_HISTORY_TOKEN, "i4")),
        ]
        return records[:200] + extra + records[200:]

    def test_build_vocab_matches_per_token_adds(self):
        records = self.records()
        users, items = build_vocab(records)
        o_users, o_items = build_vocab_oracle(records)
        assert users.tokens == o_users
        assert items.tokens == o_items
        assert all(items.encode(t) == i for i, t in enumerate(o_items))

    @pytest.mark.parametrize("max_seq_len", [1, 10, 40])
    def test_generated_data_with_oov_truncation_and_empty(self, max_seq_len):
        records = self.records()
        users, items = build_vocab(records[:150])  # the rest meets unseen tokens
        stats = assert_encode_matches_oracle(records, users, items, max_seq_len)
        assert stats.n_oov_tokens > 0 and stats.n_empty_history == 1
        assert (stats.n_truncated > 0) == (max_seq_len < 32)

    def test_reserved_spellings_encode_as_oov(self):
        records = [
            rec(user=Vocabulary.PAD, ad=Vocabulary.PAD, behaviors=(Vocabulary.PAD,)),
            rec(user=Vocabulary.OOV, ad="a", behaviors=(Vocabulary.PAD, "b", Vocabulary.OOV)),
        ]
        users, items = build_vocab(records)
        assert Vocabulary.PAD not in items.tokens[2:] and Vocabulary.OOV not in items.tokens[2:]
        batch, stats = encode(records, users, items, max_seq_len=4)
        np.testing.assert_array_equal(batch.behavior_idx[:, 0], [1, 1])
        np.testing.assert_array_equal(batch.ad_idx, [1, items.encode("a")])
        np.testing.assert_array_equal(batch.user_idx, [1, 1])
        np.testing.assert_array_equal(batch.mask.sum(axis=1), [1, 3])
        assert stats.n_oov_tokens == 2 + 1 + 3  # users, ads, behaviors
        assert_encode_matches_oracle(records, users, items, 4)

    def test_zero_records(self):
        users, items = build_vocab([rec()])
        batch, stats = encode([], users, items, max_seq_len=3)
        assert batch.behavior_idx.shape == (0, 3) and len(batch) == 0
        assert stats == EncodeStats()


class TestSplit:
    def test_temporal_eight_day_example(self):
        # 8 uniform "days" of 10 records each; fraction 1/8 peels off the last day
        records = [rec(ad=f"a{d}_{i}", ts=d * 86_400 + i) for d in range(8) for i in range(10)]
        train_side, val_side = split(records, "temporal", 0.125)
        assert len(val_side) == 10
        assert all(r.timestamp >= 7 * 86_400 for r in val_side)
        assert max(r.timestamp for r in train_side) < 7 * 86_400

    def test_random_same_seed_identical(self):
        records = [rec(ad=f"a{i}", ts=i) for i in range(50)]
        a = split(records, "random", 0.3, seed=11)
        b = split(records, "random", 0.3, seed=11)
        assert [r.ad_id for r in a[0]] == [r.ad_id for r in b[0]]
        assert [r.ad_id for r in a[1]] == [r.ad_id for r in b[1]]

    def test_partition_is_exact(self):
        records = [rec(ad=f"a{i}", ts=i % 7) for i in range(41)]
        train_side, val_side = split(records, "random", 0.25, seed=2)
        assert len(train_side) + len(val_side) == 41
        all_ids = sorted(r.ad_id for r in records)
        assert sorted(r.ad_id for r in train_side + val_side) == all_ids

    def test_degenerate_fraction_raises(self):
        records = [rec(), rec()]
        with pytest.raises(ValueError):
            split(records, "temporal", 0.9999)
        with pytest.raises(ValueError):
            split(records, "temporal", 1.5)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            split([rec(), rec()], "stratified", 0.5)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        config = SyntheticConfig(num_users=10, num_items=12, impressions=100, seed=4)
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
        assert load_jsonl(path) == []

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        path.write_text('{"user_id":"u","ad_id":"a","behavior_ids":["b"],"label":1,"ts":3,"debug":42}\n')
        [loaded] = load_jsonl(path)
        assert loaded == rec(user="u", ad="a", behaviors=("b",), label=1, ts=3)

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
        save_jsonl([rec(bid=1.25), rec(ad="a2")], path)
        loaded = load_jsonl(path)
        assert loaded[0].bid == 1.25
        assert loaded[1].bid is None


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
        loaded = self.load_second_line(tmp_path, line)[1]
        assert (loaded.user_id, loaded.ad_id, loaded.behavior_ids) == ("12", "-3", ["7", "i7"])

    @pytest.mark.parametrize(
        "line,message",
        [(b'{"user_id": "\xff"}', "line 2: not UTF-8"), (b"{} {}", "line 2: invalid JSON: Extra data"),
         (b"1" * 5000, "line 2: invalid JSON"), (b"[1, 2]", "line 2: expected a JSON object")],
        ids=["not-utf8", "two-values", "huge-integer", "array"],
    )
    def test_unreadable_line_names_its_number(self, tmp_path, line, message):
        with pytest.raises(ValueError, match=message):
            self.load_second_line(tmp_path, line)


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
                obj = json.loads(line.decode().strip())
                assert named not in obj or not _field_ok(named, obj[named]), msg
            return
        text = line.decode().strip()  # the loader strips Unicode whitespace too
        if len(records) == 1:  # a blank line
            assert not text
            return
        obj = json.loads(text)
        rec = records[1]
        required = ("user_id", "ad_id", "behavior_ids") + (("label", "ts") if require_label else ())
        assert all(k in obj and _field_ok(k, obj[k]) for k in required)
        assert all(_field_ok(k, obj[k]) for k in _FIELDS if k in obj)
        assert rec == ImpressionRecord(
            user_id=str(obj["user_id"]),
            ad_id=str(obj["ad_id"]),
            behavior_ids=[str(t) for t in obj["behavior_ids"]],
            label=obj.get("label", 0),
            timestamp=obj.get("ts", 0),
            bid=None if obj.get("bid") is None else float(obj["bid"]),
        )
        assert type(rec.label) is int and type(rec.timestamp) is int
        assert rec.bid is None or type(rec.bid) is float


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
        save_jsonl([rec(), rec(ad="a2")], path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_jsonl([rec(ad="a3"), rec(label="not a label")], path)  # fails on the second record
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["data.jsonl"]


class TestGenerator:
    def test_deterministic(self):
        config = SyntheticConfig(num_users=25, num_items=30, impressions=400, seed=123)
        r1, t1 = generate_synthetic(config)
        r2, t2 = generate_synthetic(config)
        assert r1 == r2
        assert t1.true_probs == t2.true_probs
        assert t1.item_clusters == t2.item_clusters

    def test_round_robin_clusters(self):
        config = SyntheticConfig(num_users=5, num_items=23, num_clusters=7, impressions=50, seed=1)
        _, truth = generate_synthetic(config)
        for tok, cluster in truth.item_clusters.items():
            assert cluster == int(tok[1:]) % 7

    def test_null_signal_ctr_matches_base_rate(self):
        config = SyntheticConfig(num_users=50, num_items=40, impressions=8000, signal_strength=0.0, seed=5)
        records, truth = generate_synthetic(config)
        base_rate = sigmoid(config.base_logit)
        assert all(p == base_rate for p in truth.true_probs)
        ctr_hat = np.mean([r.label for r in records])
        sigma = math.sqrt(base_rate * (1 - base_rate) / len(records))
        assert abs(ctr_hat - base_rate) < 3 * sigma

    def test_full_match_probability_closed_form(self):
        assert abs(sigmoid(0.0 + 4.0 * 1.0) - 0.9820137900379085) < 1e-12

    def test_empirical_ctr_tracks_mean_true_p(self):
        config = SyntheticConfig(seed=2, impressions=25_000)
        records, truth = generate_synthetic(config)
        p = np.array(truth.true_probs)
        ctr_hat = np.mean([r.label for r in records])
        sigma = math.sqrt(float(np.sum(p * (1 - p))) / len(p) ** 2)
        assert abs(ctr_hat - p.mean()) < 3 * sigma

    def test_matched_impressions_have_higher_true_p(self):
        """Monte Carlo over the generator's own metadata: impressions whose ad
        cluster matches the user's dominant behavior cluster carry higher
        ground-truth click probability."""
        config = SyntheticConfig(seed=3)
        records, truth = generate_synthetic(config)
        dominant = {}
        for r in records:
            if r.user_id not in dominant:
                clusters = [truth.item_clusters[b] for b in r.behavior_ids]
                dominant[r.user_id] = max(set(clusters), key=clusters.count)
        matched, unmatched = [], []
        for r, p in zip(records, truth.true_probs):
            if truth.item_clusters[r.ad_id] == dominant[r.user_id]:
                matched.append(p)
            else:
                unmatched.append(p)
        assert np.mean(matched) > np.mean(unmatched) + 0.3

    def test_timestamps_increase_with_generation_order(self):
        records, _ = generate_synthetic(SyntheticConfig(num_users=5, num_items=10, impressions=40, seed=6))
        ts = [r.timestamp for r in records]
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(impressions=0))
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(signal_strength=-1.0))
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(behaviors_min=0))
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(num_clusters=0))
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(cluster_concentration=1.2))

    def test_ground_truth_round_trip(self, tmp_path):
        _, truth = generate_synthetic(SyntheticConfig(num_users=5, num_items=10, impressions=30, seed=8))
        path = tmp_path / "meta.json"
        save_ground_truth(truth, path)
        loaded = load_ground_truth(path)
        assert loaded.item_clusters == truth.item_clusters
        assert loaded.true_probs == truth.true_probs
        assert loaded.config == truth.config
