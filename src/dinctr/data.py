"""Ad-impression records, vocabularies, encoding, splits, and the synthetic
ad-log generator.

The generator produces a clickstream with a known ground-truth click
process: items belong to clusters, each user's behavior history is drawn
from a cluster-preference distribution, and the click probability of an
impression rises with the fraction of the user's history that lives in the
shown ad's cluster. That makes per-ad, localized attention over the history
the signal a model has to recover, and gives tests an exact oracle.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from operator import attrgetter, length_hint
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .numerics import make_rng, sigmoid

PAD_INDEX = 0
OOV_INDEX = 1
NO_HISTORY_TOKEN = "<no_history>"


def fields_dict(obj) -> dict:
    """A dataclass's fields by name, tuples as lists (as JSON holds them)."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _parse_int(value, text: bool) -> int:
    if text:
        return int(value)
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise TypeError


def _parse_float(value, text: bool) -> float:
    if text or type(value) in (int, float):
        return float(value)
    raise TypeError


def _parse_int_tuple(value, text: bool) -> tuple[int, ...]:
    if text:
        return tuple(int(v) for v in value.split(",") if v.strip())
    if not isinstance(value, (list, tuple)):
        raise TypeError
    return tuple(_parse_int(v, False) for v in value)


def _parse_exact(kind: type):
    def parse(value, text: bool):
        if type(value) is not kind:
            raise TypeError
        return value

    return parse


# Field annotations are strings (postponed evaluation): the parser for each,
# and the noun its error message uses.
_FIELD_PARSERS = {
    "int": (_parse_int, "an integer"),
    "float": (_parse_float, "a number"),
    "bool": (_parse_exact(bool), "a boolean"),
    "str": (_parse_exact(str), "a string"),
    "tuple[int, ...]": (_parse_int_tuple, "a list of integers"),
}


def parse_fields(cls, values: dict, where: Optional[str] = None) -> dict:
    """``values`` read strictly as the types dataclass ``cls`` declares.

    ``where`` names the JSON file (or checkpoint) the values come from. A
    JSON value must already have its field's type: an integral number such
    as 40.0 is an integer, but true/false is never a number, a fraction is
    never an integer and nothing is cast to a string or a boolean. With
    ``where=None`` the values are command-line flags, whose text is parsed
    as the field's type (``--hidden 64,32``). Errors name the file and the
    config key, or the flag.
    """
    types = {f.name: f.type for f in fields(cls)}
    parsed = {}
    for key, value in values.items():
        if key not in types:
            raise ValueError(f"{where or 'flags'}: unknown config key {key!r}")
        parse, noun = _FIELD_PARSERS[types[key]]
        try:
            parsed[key] = parse(value, where is None and type(value) is str)
        except (TypeError, ValueError, OverflowError):
            name = f"{where}: config key {key!r}" if where else "--" + key.replace("_", "-")
            raise ValueError(f"{name} expects {noun}, got {value!r}") from None
    return parsed


@dataclass(slots=True)
class ImpressionRecord:
    """One ad display/click event."""

    user_id: str
    ad_id: str
    behavior_ids: list[str]
    label: int
    timestamp: int
    bid: Optional[float] = None


class Vocabulary:
    """Token-to-index map with reserved indices 0 (padding) and 1 (OOV).

    Indices >= 2 follow the tokens' first-seen order. The map is fixed at
    construction: unknown tokens encode to the OOV index.
    """

    PAD = "<pad>"
    OOV = "<oov>"

    def __init__(self, tokens: Iterable[str] = ()):
        # One pass over a dict keeps first-seen order and drops repeats; the
        # reserved tokens go first, so they keep indices 0 and 1.
        self._index: dict[str, int] = dict.fromkeys(chain((self.PAD, self.OOV), tokens))
        self._tokens: list[str] = list(self._index)
        self._index.update(zip(self._tokens, range(len(self._tokens))))

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def size(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> list[str]:
        """All tokens including the two reserved ones, in index order."""
        return list(self._tokens)

    def encode(self, token: str) -> int:
        return self._index.get(token, OOV_INDEX)

    def decode(self, index: int) -> str:
        return self._tokens[index]

    def __contains__(self, token: str) -> bool:
        return token in self._index


def build_vocab(records: Sequence[ImpressionRecord]) -> tuple[Vocabulary, Vocabulary]:
    """First-seen-order vocabularies for users and items.

    Ads and behavior IDs share the single item vocabulary (one embedding
    space for both). Per record the ad token is registered before its
    behaviors. The reserved `<no_history>` item token is appended last; it
    is a normal trainable index used to stand in for empty histories.
    """
    if not records:
        raise ValueError("cannot build a vocabulary from zero records")
    users = Vocabulary(map(attrgetter("user_id"), records))
    item_tokens: list[str] = []
    add_ad, add_behaviors = item_tokens.append, item_tokens.extend
    for rec in records:
        add_ad(rec.ad_id)
        add_behaviors(rec.behavior_ids)
    item_tokens.append(NO_HISTORY_TOKEN)
    return users, Vocabulary(item_tokens)


@dataclass
class EncodedBatch:
    """Index-encoded impressions in fixed-shape arrays.

    Four arrays are stored: ``ad_idx``, ``behavior_idx``, ``labels`` and
    ``user_idx``. The width T of ``behavior_idx`` is the ``max_seq_len`` of
    the model that scores the batch. ``mask`` is derived, not stored: it is
    True exactly where ``behavior_idx`` is not the PAD index, and every
    record keeps at least one live slot (empty histories get the
    `<no_history>` token in slot 0).
    """

    ad_idx: np.ndarray  # (B,) int64
    behavior_idx: np.ndarray  # (B, T) int64, 0-padded
    labels: np.ndarray  # (B,) float64 in {0, 1}
    user_idx: np.ndarray  # (B,) int64, also the group key of grouped metrics

    def __len__(self) -> int:
        return int(self.ad_idx.shape[0])

    @property
    def mask(self) -> np.ndarray:
        """(B, T) bool, True at the live slots; a new array on every read."""
        return self.behavior_idx != PAD_INDEX

    def take(self, indices: np.ndarray) -> "EncodedBatch":
        """The rows at ``indices``: a copy for an index array (minibatching),
        views of these arrays for a slice (chunked scoring)."""
        return EncodedBatch(
            ad_idx=self.ad_idx[indices],
            behavior_idx=self.behavior_idx[indices],
            labels=self.labels[indices],
            user_idx=self.user_idx[indices],
        )


@dataclass
class EncodeStats:
    """Silent-handling counters surfaced by encode()."""

    n_records: int = 0
    n_oov_tokens: int = 0
    n_truncated: int = 0
    n_empty_history: int = 0

    def to_dict(self) -> dict:
        return fields_dict(self)


def _lookup(vocab: Vocabulary, tokens: Iterable[str], count: int) -> np.ndarray:
    """Index of each of ``count`` tokens; unknown and reserved tokens get OOV_INDEX.

    A token spelled like a reserved one comes from data, not from padding,
    so it must not encode to PAD_INDEX and empty a mask row.
    """
    idx = np.fromiter(map(vocab._index.get, tokens, repeat(OOV_INDEX)), dtype=np.int64, count=count)
    return np.maximum(idx, OOV_INDEX, out=idx)  # PAD_INDEX is the only index below OOV_INDEX


def encode(
    records: Sequence[ImpressionRecord],
    user_vocab: Vocabulary,
    item_vocab: Vocabulary,
    max_seq_len: int,
) -> tuple[EncodedBatch, EncodeStats]:
    """Encode records against fixed vocabularies.

    Histories longer than ``max_seq_len`` keep their most recent tail;
    shorter ones are right-padded with index 0. OOV tokens (including
    tokens spelled like the reserved `<pad>`/`<oov>`) and truncations are
    handled silently and counted in the returned stats.
    """
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be >= 1")
    n = len(records)
    T = max_seq_len
    user_idx = _lookup(user_vocab, map(attrgetter("user_id"), records), n)
    ad_idx = _lookup(item_vocab, map(attrgetter("ad_id"), records), n)
    lengths = np.fromiter((len(rec.behavior_ids) for rec in records), dtype=np.int64, count=n)
    kept = np.minimum(lengths, T)
    mask = np.arange(T) < kept[:, None]
    behavior_idx = np.zeros((n, T), dtype=np.int64)
    tail_idx = _lookup(item_vocab, chain.from_iterable(rec.behavior_ids[-T:] for rec in records), int(kept.sum()))
    behavior_idx[mask] = tail_idx
    empty = kept == 0
    behavior_idx[empty, 0] = item_vocab.encode(NO_HISTORY_TOKEN)
    stats = EncodeStats(
        n_records=n,
        n_oov_tokens=sum(int(np.count_nonzero(idx == OOV_INDEX)) for idx in (user_idx, ad_idx, tail_idx)),
        n_truncated=int(np.count_nonzero(lengths > T)),
        n_empty_history=int(np.count_nonzero(empty)),
    )
    batch = EncodedBatch(
        ad_idx=ad_idx,
        behavior_idx=behavior_idx,
        labels=np.fromiter(map(attrgetter("label"), records), dtype=np.float64, count=n),
        user_idx=user_idx,
    )
    return batch, stats


def check_split(mode: str, fraction: float) -> None:
    """Raise ValueError unless ``split`` accepts ``mode`` and ``fraction``."""
    if mode not in ("temporal", "random"):
        raise ValueError(f"split_mode must be 'temporal' or 'random', got {mode!r}")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"validation fraction must be in (0, 1), got {fraction}")


def split(
    records: Sequence[ImpressionRecord],
    mode: str,
    fraction: float,
    seed: int = 0,
) -> tuple[list[ImpressionRecord], list[ImpressionRecord]]:
    """Partition into (train, validation).

    temporal: stable-sort by timestamp, the last ``fraction`` of records is
    validation. random: seeded shuffle, then the same tail split. Each
    record lands on exactly one side.
    """
    check_split(mode, fraction)
    recs = list(records)
    n = len(recs)
    n_val = int(round(n * fraction))
    if n_val < 1 or n_val >= n:
        raise ValueError(f"split of {n} records with fraction {fraction} leaves an empty side")
    if mode == "temporal":
        order = sorted(range(n), key=lambda i: recs[i].timestamp)
        ordered = [recs[i] for i in order]
    else:
        perm = make_rng(seed).permutation(n)
        ordered = [recs[i] for i in perm]
    return ordered[: n - n_val], ordered[n - n_val:]


# ---------------------------------------------------------------------------
# File persistence
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` and rename it over ``path`` when
    the block ends, so readers see the old file or the whole new one. A
    missing parent directory is created.

    If the block raises, the temporary file is removed and ``path`` keeps
    its previous contents. Text modes default to UTF-8.
    """
    if "b" not in mode:
        kwargs.setdefault("encoding", "utf-8")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


_REQUIRED_KEYS = ("user_id", "ad_id", "behavior_ids", "label", "ts")


def record_to_obj(rec: ImpressionRecord) -> dict:
    obj = {
        "user_id": rec.user_id,
        "ad_id": rec.ad_id,
        "behavior_ids": list(rec.behavior_ids),
        "label": int(rec.label),
        "ts": int(rec.timestamp),
    }
    if rec.bid is not None:
        obj["bid"] = float(rec.bid)
    return obj


def parse_bid(value, where: str) -> float:
    """A bid as a finite float >= 0; ``where`` (a line) leads the error message.

    Only a JSON number is a bid: text and true/false are rejected, not cast.
    """
    bid = math.nan
    if type(value) in (int, float):
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            bid = float(value)
    if not (math.isfinite(bid) and bid >= 0.0):
        raise ValueError(f"{where}: field 'bid' must be a finite number >= 0, got {value!r}")
    return bid


def parse_id(value, where: str, name: str) -> str:
    """An ID as text: a JSON string, or a JSON integer read as its digits."""
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    raise ValueError(f"{where}: field {name!r} must be a string or an integer, got {value!r}")


def parse_behavior_ids(value, where: str) -> list[str]:
    """A behavior history: a JSON list of IDs (see ``parse_id``); a string is
    not split. A list that holds only strings is returned as it is."""
    if not isinstance(value, list):
        raise ValueError(f"{where}: field 'behavior_ids' must be a list, got {value!r}")
    if all(map(str.__instancecheck__, value)):  # the usual case, one pass in C
        return value
    return [parse_id(t, where, "behavior_ids") for t in value]


_LABELLED_KEYS = frozenset(_REQUIRED_KEYS)
_PREDICT_KEYS = _LABELLED_KEYS - {"label", "ts"}


def obj_to_record(obj: dict, line_no: int, require_label: bool = True) -> ImpressionRecord:
    # require_label=False is the prediction-input mode: label and ts optional.
    where = f"line {line_no}"
    if not obj.keys() >= (_LABELLED_KEYS if require_label else _PREDICT_KEYS):
        missing = next(k for k in _REQUIRED_KEYS if k not in obj)
        raise ValueError(f"{where}: missing required field {missing!r}")
    # type() rather than isinstance(): JSON true/false must not pass as 1/0.
    label = obj.get("label", 0)
    if type(label) is not int or label not in (0, 1):
        raise ValueError(f"{where}: field 'label' must be 0 or 1, got {label!r}")
    ts = obj.get("ts", 0)
    if type(ts) is not int:
        raise ValueError(f"{where}: field 'ts' must be an integer, got {ts!r}")
    bid = obj.get("bid")
    return ImpressionRecord(
        parse_id(obj["user_id"], where, "user_id"),
        parse_id(obj["ad_id"], where, "ad_id"),
        parse_behavior_ids(obj["behavior_ids"], where),
        label,
        ts,
        None if bid is None else parse_bid(bid, where),
    )


def save_jsonl(records: Sequence[ImpressionRecord], path) -> None:
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(json.dumps(record_to_obj(rec)) + "\n")


_decode_json = json.JSONDecoder().raw_decode


def iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    """(1-based line number, object) per non-blank line.

    Lines end at a newline byte. A line that is not UTF-8 text holding one
    JSON object raises ValueError naming its number.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj, end = _decode_json(line)  # json.loads without its per-call wrapper
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except UnicodeDecodeError as exc:
                raise ValueError(f"line {line_no}: not UTF-8 text: {exc.reason}") from exc
            except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an integer too long to convert
                raise ValueError(f"line {line_no}: invalid JSON: {getattr(exc, 'msg', exc)}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"line {line_no}: expected a JSON object")
            yield line_no, obj


def load_jsonl(path, require_label: bool = True) -> list[ImpressionRecord]:
    """Read one record per line; unknown keys are ignored.

    A malformed line raises ValueError naming its 1-based line number. An
    empty file is an empty list.
    """
    return [obj_to_record(obj, line_no, require_label=require_label) for line_no, obj in iter_jsonl(path)]


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic ad-log generator.

    The click process is sigmoid(base_logit + signal_strength * f) where f
    is the fraction of the user's behaviors that fall in the shown ad's
    cluster. ``cluster_concentration`` is the probability mass a user puts
    on their dominant interest cluster; the remainder spreads uniformly
    over the other clusters.
    """

    num_users: int = 500
    num_items: int = 200
    num_clusters: int = 10
    behaviors_min: int = 8
    behaviors_max: int = 32
    impressions: int = 25_000
    signal_strength: float = 4.0
    base_logit: float = -1.0
    cluster_concentration: float = 0.8
    seed: int = 1

    def validate(self) -> None:
        if self.num_users < 1 or self.num_items < 1 or self.impressions < 1:
            raise ValueError("num_users, num_items and impressions must be positive")
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if self.num_clusters > self.num_items:
            raise ValueError("num_clusters cannot exceed num_items")
        if not (math.isfinite(self.signal_strength) and math.isfinite(self.base_logit)):
            raise ValueError("signal_strength and base_logit must be finite")
        if self.signal_strength < 0.0:
            raise ValueError("signal_strength must be >= 0")
        if not 1 <= self.behaviors_min <= self.behaviors_max:
            raise ValueError("behavior count range must satisfy 1 <= min <= max")
        if not 0.0 < self.cluster_concentration <= 1.0:
            raise ValueError("cluster_concentration must be in (0, 1]")

    def to_dict(self) -> dict:
        return fields_dict(self)


@dataclass
class GroundTruth:
    """Generator-side truth kept for oracle tests and calibration."""

    item_clusters: dict[str, int]
    true_probs: list[float]
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return fields_dict(self)

    @classmethod
    def from_dict(cls, obj, where: str = "ground truth") -> "GroundTruth":
        """The truth ``to_dict`` gave, checked, not cast: cluster ids are JSON
        integers, probabilities finite JSON numbers in [0, 1], and ``config``
        (optional) an object. Errors name ``where`` and the field."""
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: ground truth must be a JSON object")
        obj = {"config": {}, **obj}
        for name, kind in (("item_clusters", dict), ("true_probs", list), ("config", dict)):
            if not isinstance(obj.get(name), kind):
                got = f"got {obj[name]!r}" if name in obj else "but it is missing"
                raise ValueError(f"{where}: field {name!r} must be {'an object' if kind is dict else 'a list'}, {got}")
        clusters, probs = obj["item_clusters"], obj["true_probs"]
        for item, cluster in clusters.items():
            if type(cluster) is not int:  # not true, 2.7 or "3"
                raise ValueError(f"{where}: field 'item_clusters' maps {item!r} to {cluster!r}, not an integer")
        for i, p in enumerate(probs):
            if type(p) not in (int, float) or not 0.0 <= p <= 1.0:  # also rejects NaN
                raise ValueError(f"{where}: field 'true_probs' entry {i} must be a number in [0, 1], got {p!r}")
        return cls(item_clusters=dict(clusters), true_probs=[float(p) for p in probs], config=obj["config"])


_BASE_TIMESTAMP = 1_700_000_000


class _Pcg64Draws:
    """A seeded PCG64 ``Generator``'s scalar ``integers(n)`` and ``random()``
    draws, computed from its raw 64-bit words.

    NumPy draws ``integers(n)`` for n <= 2**32 by Lemire's method on a
    32-bit half word: the low half of a fresh word, or the high half the bit
    generator buffered from the previous one (``has_uint32``/``uinteger``).
    Larger n use Lemire on a full word, and ``random()`` is
    ``(w >> 11) * 2**-53`` of a full word; neither touches the buffered
    half. The same arithmetic on words pulled in blocks with ``random_raw``
    gives the same values at a fraction of a scalar call's cost. ``sync()``,
    called once at the end, leaves the generator exactly where the scalar
    calls would have.
    """

    _BLOCK = 1 << 14

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        self._start = self._bitgen.state
        self._has_half = bool(self._start["has_uint32"])
        self._half = self._start["uinteger"]
        self._pulled = 0
        self._words = iter(())
        self._next_word = self._words.__next__

    def _refill(self) -> int:
        self._words = iter(self._bitgen.random_raw(self._BLOCK).tolist())
        self._next_word = self._words.__next__
        self._pulled += self._BLOCK
        return self._next_word()

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for n >= 1; n == 1 draws nothing."""
        if n == 1:
            return 0
        if n > 1 << 32:
            while True:
                try:
                    m = self._next_word() * n
                except StopIteration:
                    m = self._refill() * n
                leftover = m & 0xFFFFFFFFFFFFFFFF
                if leftover >= n or leftover >= ((1 << 64) - n) % n:
                    return m >> 64
        while True:
            if self._has_half:
                self._has_half = False
                m = self._half * n
            else:
                try:
                    word = self._next_word()
                except StopIteration:
                    word = self._refill()
                self._has_half = True
                self._half = word >> 32
                m = (word & 0xFFFFFFFF) * n
            leftover = m & 0xFFFFFFFF
            # Lemire rejects below (2**32 - n) % n, which is < n: test n first, as NumPy does.
            if leftover >= n or leftover >= ((1 << 32) - n) % n:
                return m >> 32

    def random(self) -> float:
        """``Generator.random()``."""
        try:
            word = self._next_word()
        except StopIteration:
            word = self._refill()
        return (word >> 11) * 2.0**-53

    def sync(self) -> None:
        """Move the generator to where the replayed draws leave it."""
        used = self._pulled - length_hint(self._words)
        self._bitgen.state = self._start
        self._bitgen.advance(used)  # also clears the buffered half
        state = self._bitgen.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        self._bitgen.state = state


def generate_synthetic(config: SyntheticConfig) -> tuple[list[ImpressionRecord], GroundTruth]:
    """Draw an ad log with a known click process.

    Items go round-robin into clusters (item i -> cluster i mod K). Each
    user gets a dominant cluster and a behavior history sampled from their
    preference distribution; each impression shows a uniformly random ad to
    a uniformly random user and clicks with the match-fraction sigmoid.
    Timestamps increase by one per impression so temporal splits follow
    generation order. All randomness flows from ``config.seed``, as scalar
    ``Generator`` draws in a fixed order (replayed by ``_Pcg64Draws``).
    """
    config.validate()
    draws = _Pcg64Draws(make_rng(config.seed))
    integers, random = draws.integers, draws.random
    K = config.num_clusters
    cluster_members = [range(k, config.num_items, K) for k in range(K)]
    n_counts = config.behaviors_max - config.behaviors_min + 1
    concentration = config.cluster_concentration

    user_behaviors: list[list[int]] = []
    for _ in range(config.num_users):
        dominant = integers(K)
        n_b = config.behaviors_min + integers(n_counts)
        history = []
        for _ in range(n_b):
            if K == 1 or random() < concentration:
                cluster = dominant
            else:
                cluster = (dominant + 1 + integers(K - 1)) % K
            members = cluster_members[cluster]
            history.append(members[integers(len(members))])
        user_behaviors.append(history)

    # Per impression: user, ad, the click uniform and the bid uniform.
    users, ads, click_u, bid_u = [], [], [], []
    num_users, num_items = config.num_users, config.num_items
    for _ in range(config.impressions):
        users.append(integers(num_users))
        ads.append(integers(num_items))
        click_u.append(random())
        bid_u.append(random())
    draws.sync()

    # Behaviors per (user, cluster), as sorted user * K + cluster keys.
    lengths = np.fromiter(map(len, user_behaviors), dtype=np.int64, count=num_users)
    behaviors = np.fromiter(chain.from_iterable(user_behaviors), dtype=np.int64, count=int(lengths.sum()))
    keys, counts = np.unique(np.repeat(np.arange(num_users), lengths) * K + behaviors % K, return_counts=True)
    user, ad = np.array(users, dtype=np.int64), np.array(ads, dtype=np.int64)
    wanted = user * K + ad % K
    pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    matches = np.where(keys[pos] == wanted, counts[pos], 0)
    p = sigmoid(config.base_logit + config.signal_strength * (matches / lengths[user]))
    labels = (np.array(click_u) < p).astype(np.int64).tolist()
    bids = (0.1 + (2.0 - 0.1) * np.array(bid_u)).tolist()  # Generator.uniform(0.1, 2.0)

    tokens = [[f"i{item}" for item in history] for history in user_behaviors]
    records = [
        ImpressionRecord(f"u{u}", f"i{a}", tokens[u], label, _BASE_TIMESTAMP + i, bid)
        for i, (u, a, label, bid) in enumerate(zip(users, ads, labels, bids))
    ]
    truth = GroundTruth(
        item_clusters={f"i{item}": item % K for item in range(num_items)},
        true_probs=p.tolist(),
        config=config.to_dict(),
    )
    return records, truth


def save_ground_truth(truth: GroundTruth, path) -> None:
    # json.dumps encodes in C; json.dump would take the pure-Python encoder.
    text = json.dumps(truth.to_dict(), sort_keys=True, separators=(",", ":"))
    with atomic_open(path) as fh:
        fh.write(text + "\n")


def load_ground_truth(path) -> GroundTruth:
    with open(path, "r", encoding="utf-8") as fh:
        return GroundTruth.from_dict(json.load(fh), str(path))
