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
from typing import Iterable, Iterator, Optional

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


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``first[r], first[r] + 1, ..., first[r] + counts[r] - 1`` for every row r, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(first - (ends - counts), counts)


@dataclass(eq=False)
class Records:
    """Ad display/click events as columns, one row per impression.

    ``items`` holds, row after row, the row's ad and then its behaviors,
    oldest first: row r's ad is ``items[starts[r]]`` and its behaviors are
    the ``lengths[r]`` entries after it. IDs are str. A row without a bid
    holds NaN in ``bids``; a bid is finite.
    """

    users: np.ndarray  # (n,) object, str
    items: np.ndarray  # (n + lengths.sum(),) object, str
    starts: np.ndarray  # (n,) int64
    lengths: np.ndarray  # (n,) int64
    labels: np.ndarray  # (n,) int64 in {0, 1}
    timestamps: np.ndarray  # (n,) int64; object if an integer does not fit
    bids: np.ndarray  # (n,) float64

    @classmethod
    def of(cls, users, items, lengths, labels, timestamps, bids) -> "Records":
        """Records from column values (sequences or arrays); ``starts`` follows from ``lengths``."""
        lengths = np.asarray(lengths, dtype=np.int64)
        try:
            timestamps = np.asarray(timestamps, dtype=np.int64)
        except OverflowError:  # a JSON integer has no size limit
            timestamps = np.array(timestamps, dtype=object)
        labels, bids = np.asarray(labels, dtype=np.int64), np.asarray(bids, dtype=np.float64)
        users, items = np.asarray(users, dtype=object), np.asarray(items, dtype=object)
        return cls(users, items, np.cumsum(lengths + 1) - (lengths + 1), lengths, labels, timestamps, bids)

    def __len__(self) -> int:
        return int(self.users.shape[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, Records) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name), equal_nan=f.name == "bids")
            for f in fields(self)
        )

    def take(self, rows) -> "Records":
        """The rows at ``rows`` (an index array or a slice), with their tokens."""
        lengths = self.lengths[rows]
        items = self.items[_ranges(self.starts[rows], lengths + 1)]
        return Records.of(self.users[rows], items, lengths, self.labels[rows], self.timestamps[rows], self.bids[rows])


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

    @property
    def size(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> list[str]:
        """All tokens including the two reserved ones, in index order."""
        return list(self._tokens)

    def lookup(self, tokens) -> np.ndarray:
        """Index of each token (a sequence or array); unknown and reserved tokens get OOV_INDEX.

        A token spelled like a reserved one comes from data, not from padding,
        so it must not encode to PAD_INDEX and empty a mask row.
        """
        idx = np.fromiter(map(self._index.get, tokens, repeat(OOV_INDEX)), dtype=np.int64, count=len(tokens))
        return np.maximum(idx, OOV_INDEX, out=idx)  # PAD_INDEX is the only index below OOV_INDEX

    def decode(self, index: int) -> str:
        return self._tokens[index]

    def __contains__(self, token: str) -> bool:
        return token in self._index


def build_vocab(records: Records) -> tuple[Vocabulary, Vocabulary]:
    """First-seen-order vocabularies for users and items.

    Ads and behavior IDs share the single item vocabulary (one embedding
    space for both), registered in ``records.items`` order: per record the
    ad before its behaviors. The reserved `<no_history>` item token is
    appended last; it is a normal trainable index used to stand in for
    empty histories.
    """
    if not len(records):
        raise ValueError("cannot build a vocabulary from zero records")
    return Vocabulary(records.users), Vocabulary(chain(records.items, (NO_HISTORY_TOKEN,)))


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


def encode(
    records: Records,
    user_vocab: Vocabulary,
    item_vocab: Vocabulary,
    max_seq_len: int,
) -> tuple[EncodedBatch, EncodeStats]:
    """Encode records against fixed vocabularies.

    Histories longer than ``max_seq_len`` keep their most recent tail;
    shorter ones are right-padded with index 0. OOV tokens (including
    tokens spelled like the reserved `<pad>`/`<oov>`) and truncations are
    handled silently and counted in the returned stats. Only the kept
    tokens are gathered from ``records.items`` and looked up.
    """
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be >= 1")
    n, T, lengths = len(records), max_seq_len, records.lengths
    kept = np.minimum(lengths, T)
    user_idx = user_vocab.lookup(records.users)
    ad_idx = item_vocab.lookup(records.items[records.starts])
    tail_idx = item_vocab.lookup(records.items[_ranges(records.starts + 1 + lengths - kept, kept)])
    behavior_idx = np.zeros((n, T), dtype=np.int64)
    behavior_idx[np.arange(T) < kept[:, None]] = tail_idx
    empty = kept == 0
    behavior_idx[empty, 0] = item_vocab.lookup((NO_HISTORY_TOKEN,))
    stats = EncodeStats(
        n_records=n,
        n_oov_tokens=sum(int(np.count_nonzero(idx == OOV_INDEX)) for idx in (user_idx, ad_idx, tail_idx)),
        n_truncated=int(np.count_nonzero(lengths > T)),
        n_empty_history=int(np.count_nonzero(empty)),
    )
    return EncodedBatch(ad_idx, behavior_idx, records.labels.astype(np.float64), user_idx), stats


def check_split(mode: str, fraction: float) -> None:
    """Raise ValueError unless ``split`` accepts ``mode`` and ``fraction``."""
    if mode not in ("temporal", "random"):
        raise ValueError(f"split_mode must be 'temporal' or 'random', got {mode!r}")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"validation fraction must be in (0, 1), got {fraction}")


def split(records: Records, mode: str, fraction: float, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Partition the rows into (train, validation) row indices, for ``records.take``.

    temporal: stable-sort by timestamp, the last ``fraction`` of records is
    validation. random: seeded shuffle, then the same tail split. Each
    record lands on exactly one side.
    """
    check_split(mode, fraction)
    n = len(records)
    n_val = int(round(n * fraction))
    if n_val < 1 or n_val >= n:
        raise ValueError(f"split of {n} records with fraction {fraction} leaves an empty side")
    order = np.argsort(records.timestamps, kind="stable") if mode == "temporal" else make_rng(seed).permutation(n)
    return order[: n - n_val], order[n - n_val :]


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


def parse_bid(value, where: str) -> float:
    """A bid as a finite float >= 0; ``where`` (a line) leads the error message.

    Only a JSON number is a bid: text and true/false are rejected, not cast.
    """
    bid = value if type(value) is float else math.nan
    if type(value) is int:
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

# json.dumps's own string encoder. A line formatted from it, %d for integers
# and repr for finite floats holds the bytes json.dumps gives.
json_str = json.encoder.encode_basestring_ascii
_RECORD_LINE = '{"user_id": %s, "ad_id": %s, "behavior_ids": [%s], "label": %d, "ts": %d'


def save_jsonl(records: Records, path) -> None:
    """One JSON object per record, as ``load_jsonl`` reads it; ``bid`` only
    where the record has one."""
    with_bid, without_bid = _RECORD_LINE + ', "bid": %r}\n', _RECORD_LINE + "}\n"
    with atomic_open(path) as fh:
        infinite = np.flatnonzero(np.isinf(records.bids))
        if infinite.size:
            raise ValueError(f"record {infinite[0] + 1}: bid must be finite, got {records.bids[infinite[0]]!r}")
        items = records.items.tolist()
        columns = (records.users, records.starts, records.lengths, records.labels, records.timestamps, records.bids)
        for user, s, k, label, ts, bid in zip(*(c.tolist() for c in columns)):
            row = (json_str(user), json_str(items[s]), ", ".join(map(json_str, items[s + 1 : s + 1 + k])), label, ts)
            fh.write(with_bid % (*row, bid) if bid == bid else without_bid % row)  # NaN: no bid


_decode_json = json.JSONDecoder().raw_decode


def iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    """(1-based line number, object) per non-blank line.

    Lines end at a newline byte. A line that is not UTF-8 text holding one
    JSON object, with only JSON whitespace (space, tab, CR, LF) around it,
    raises ValueError naming its number.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip(" \t\r\n")
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


def read_json(path):
    """The JSON value in file ``path``; ValueError names the path, line and column if it is not UTF-8 JSON."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line, column, what = head.count(b"\n") + 1, exc.start - head.rfind(b"\n"), f"not UTF-8 text: {exc.reason}"
    except json.JSONDecodeError as exc:
        line, column, what = exc.lineno, exc.colno, f"invalid JSON: {exc.msg}"
    except (ValueError, RecursionError) as exc:  # an integer too long to convert, or nesting too deep
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    raise ValueError(f"{path}: line {line} column {column}: {what}")


def load_jsonl(path, require_label: bool = True) -> Records:
    """Read one record per line into columns; unknown keys are ignored.

    With ``require_label=False`` (prediction input) label and ts may be
    absent and read as 0. A malformed line raises ValueError naming its
    1-based line number and the field. An empty file gives zero records.
    """
    required = _LABELLED_KEYS if require_label else _PREDICT_KEYS
    users, items, lengths, labels, stamps, bids = [], [], [], [], [], []
    for line_no, obj in iter_jsonl(path):
        where = f"line {line_no}"
        if not obj.keys() >= required:
            missing = next(k for k in _REQUIRED_KEYS if k not in obj)
            raise ValueError(f"{where}: missing required field {missing!r}")
        # type() rather than isinstance(): JSON true/false must not pass as 1/0.
        label = obj.get("label", 0)
        if type(label) is not int or label not in (0, 1):
            raise ValueError(f"{where}: field 'label' must be 0 or 1, got {label!r}")
        ts = obj.get("ts", 0)
        if type(ts) is not int:
            raise ValueError(f"{where}: field 'ts' must be an integer, got {ts!r}")
        users.append(parse_id(obj["user_id"], where, "user_id"))
        items.append(parse_id(obj["ad_id"], where, "ad_id"))
        behaviors = parse_behavior_ids(obj["behavior_ids"], where)
        items += behaviors
        lengths.append(len(behaviors))
        labels.append(label)
        stamps.append(ts)
        bid = obj.get("bid")
        bids.append(math.nan if bid is None else parse_bid(bid, where))
    return Records.of(users, items, lengths, labels, stamps, bids)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


# The run keys the generator reads, echoed in the ground truth's ``config``.
GENERATOR_KEYS = ("num_users", "num_items", "num_clusters", "behaviors_min", "behaviors_max", "impressions",
                  "signal_strength", "base_logit", "cluster_concentration", "seed")


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


def generate_synthetic(config) -> tuple[Records, GroundTruth]:
    """Draw an ad log with a known click process, from a ``RunConfig``'s ``GENERATOR_KEYS``.

    Items go round-robin into clusters (item i -> cluster i mod K). Each
    user gets a dominant cluster and a behavior history sampled from their
    preference distribution; each impression shows a uniformly random ad to
    a uniformly random user and clicks with the match-fraction sigmoid.
    Timestamps increase by one per impression so temporal splits follow
    generation order.

    All randomness flows from ``config.seed`` as array draws from one
    ``Generator``, in this order: the users' dominant clusters and history
    lengths; which behaviors stray from the dominant cluster (K > 1 only);
    each stray's cluster, uniform over the other K - 1; each behavior's item,
    uniform within its cluster; then the impressions' users, ads, click
    uniforms and bid uniforms. A seed gives the same dataset on one NumPy
    version; NEP 19 lets a new version change the streams.
    """
    rng = make_rng(config.seed)
    K, num_users, num_items, n = config.num_clusters, config.num_users, config.num_items, config.impressions
    dominant = rng.integers(K, size=num_users)
    lengths = rng.integers(config.behaviors_min, config.behaviors_max + 1, size=num_users)
    owner = np.repeat(np.arange(num_users), lengths)
    cluster = dominant[owner]
    if K > 1:
        stray = rng.random(cluster.size) >= config.cluster_concentration
        cluster[stray] = (cluster[stray] + 1 + rng.integers(K - 1, size=int(stray.sum()))) % K
    behaviors = cluster + K * rng.integers((num_items - cluster + K - 1) // K)  # cluster k: k, k + K, ...
    user, ad = rng.integers(num_users, size=n), rng.integers(num_items, size=n)
    click_u, bid_u = rng.random(n), rng.random(n)

    # Behaviors per (user, cluster), as sorted user * K + cluster keys.
    keys, counts = np.unique(owner * K + cluster, return_counts=True)
    wanted = user * K + ad % K
    pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    matches = np.where(keys[pos] == wanted, counts[pos], 0)
    p = sigmoid(config.base_logit + config.signal_strength * (matches / lengths[user]))
    labels = (click_u < p).astype(np.int64)
    bids = 0.1 + (2.0 - 0.1) * bid_u  # Generator.uniform(0.1, 2.0)

    # Per impression the ad, then the user's history: the history's item ids
    # with one slot before it, which the ad then overwrites.
    row_lengths = lengths[user]
    item_ids = behaviors[_ranges(np.cumsum(lengths)[user] - row_lengths - 1, row_lengths + 1)]
    item_names = np.array([f"i{item}" for item in range(num_items)], dtype=object)
    user_names = np.array([f"u{u}" for u in range(num_users)], dtype=object)
    timestamps = _BASE_TIMESTAMP + np.arange(n, dtype=np.int64)
    records = Records.of(user_names[user], item_names[item_ids], row_lengths, labels, timestamps, bids)
    records.items[records.starts] = item_names[ad]
    truth = GroundTruth(
        item_clusters=dict(zip(item_names.tolist(), (np.arange(num_items) % K).tolist())),
        true_probs=p.tolist(),
        config={key: getattr(config, key) for key in GENERATOR_KEYS},
    )
    return records, truth


def save_ground_truth(truth: GroundTruth, path) -> None:
    # json.dumps encodes in C; json.dump would take the pure-Python encoder.
    text = json.dumps(truth.to_dict(), sort_keys=True, separators=(",", ":"))
    with atomic_open(path) as fh:
        fh.write(text + "\n")


def load_ground_truth(path) -> GroundTruth:
    return GroundTruth.from_dict(read_json(path), str(path))
