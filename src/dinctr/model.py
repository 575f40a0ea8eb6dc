"""The attention-pooled CTR model and its hand-derived backward pass.

Architecture, per impression: look up the behavior embeddings V_i and the
ad embedding V_a from one shared item table; score each behavior by its
affinity to the ad, s_i = (V_i . V_a) / temperature; turn the scores into
weights with a masked softmax (or uniform 1/N weights for the attention-free
base model); pool the history into a user vector V_u = sum_i w_i V_i; feed
concat(V_u, V_a, V_u * V_a) to a small rectifier MLP ending in a sigmoid
unit. The elementwise-product block hands the affinity signal V_u . V_a to
the first layer directly (its coordinates sum to the dot product).

Both model flavors share identical parameter shapes; only the pooling
differs, so attention is the lone experimental variable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import kernels
from .data import PAD_INDEX, EncodedBatch, Vocabulary, atomic_open, fields_dict, parse_fields
from .numerics import sigmoid

# predict() scores at most this many rows per forward pass, so the memory
# of its intermediates stays bounded whatever the input size.
PREDICT_CHUNK_ROWS = 4096


@dataclass
class ModelConfig:
    """The checkpoint's model schema, checked when made; a run's comes from ``RunConfig.model_config``."""

    item_vocab: int
    user_vocab: int
    dim: int
    hidden: tuple[int, ...]
    max_seq_len: int
    temperature: float
    use_attention: bool
    use_user_profile: bool

    def __post_init__(self) -> None:
        if self.item_vocab < 2 or self.user_vocab < 2:
            raise ValueError("vocab sizes must include the reserved indices (>= 2)")
        if self.dim < 1 or self.max_seq_len < 1:
            raise ValueError("dim and max_seq_len must be positive")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be positive")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError(f"temperature must be a finite number > 0, got {self.temperature!r}")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, in the model's parameter order."""
        shapes: dict[str, tuple[int, ...]] = {"item_emb": (self.item_vocab, self.dim)}
        if self.use_user_profile:
            shapes["user_emb"] = (self.user_vocab, self.dim)
        dims = [(4 if self.use_user_profile else 3) * self.dim, *self.hidden, 1]
        for i in range(len(dims) - 1):
            shapes[f"w{i}"] = (dims[i], dims[i + 1])
            shapes[f"b{i}"] = (dims[i + 1],)
        return shapes

    def to_dict(self) -> dict:
        return fields_dict(self)

    @classmethod
    def from_dict(cls, obj, where: str = "model config") -> "ModelConfig":
        """The config ``to_dict`` gave: an object with every field, each read
        by its declared type as ``parse_fields`` reads it; errors name ``where``."""
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: checkpoint header has no config object")
        missing = [f.name for f in fields(cls) if f.name not in obj]
        if missing:
            raise ValueError(f"{where}: config lacks {', '.join(map(repr, missing))}")
        values = parse_fields(cls, obj, where)
        try:
            return cls(**values)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@dataclass
class ForwardCache:
    """Intermediates saved by forward() for the matching backward()."""

    batch: EncodedBatch
    mask: np.ndarray  # (B, T) bool, the batch's live slots
    behav_emb: np.ndarray  # (B, T, d)
    ad_emb: np.ndarray  # (B, d)
    weights: np.ndarray  # (B, T)
    pooled: np.ndarray  # (B, d)
    pre_acts: list[np.ndarray]  # per layer, pre-activation
    post_acts: list[np.ndarray]  # per layer input (post previous activation); [0] is the MLP input
    probs: np.ndarray  # (B,)


@dataclass
class Gradients:
    """Parameter gradients for one batch.

    ``dense`` holds the MLP blocks at their parameter shapes. Embedding
    tables are stored as what the batch touched: ``rows[name]`` is the
    sorted, PAD-free array of row indices and ``row_grads[name]`` their
    gradients, shape (len(rows), d). Every other row's gradient is zero and
    the optimizer leaves it alone (lazy/sparse semantics).
    """

    dense: dict[str, np.ndarray]
    rows: dict[str, np.ndarray] = field(default_factory=dict)
    row_grads: dict[str, np.ndarray] = field(default_factory=dict)


def _sum_rows(idx: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows that share an index in ``idx``; ``cols`` holds the rows
    column-major, shape (d, len(idx)).

    Returns the sorted distinct indices without PAD_INDEX and their sums,
    shape (rows, d). ``bincount`` adds each cell's contributions in input
    order, starting from 0.0, exactly as ``np.add.at`` into a zeroed table
    does, so the sums are bit-identical to that dense scatter.
    """
    rows, inv = np.unique(idx, return_inverse=True)
    sums = np.stack([np.bincount(inv, weights=col, minlength=rows.size) for col in cols], axis=1)
    if rows.size and rows[0] == PAD_INDEX:
        return rows[1:], sums[1:]
    return rows, sums


class DinModel:
    """Embedding tables plus MLP head; attention toggled by config."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params
        self._check_params()

    # -- construction -----------------------------------------------------

    def _check_params(self) -> None:
        """Every parameter is a C-contiguous float64 array of its config's
        shape: the in-place updates and the checkpoint payload rely on it."""
        expect = self.config.param_shapes()
        if set(expect) != set(self.params):
            raise ValueError(f"parameter keys {sorted(self.params)} != expected {sorted(expect)}")
        for name, shape in expect.items():
            p = self.params[name]
            if not (isinstance(p, np.ndarray) and p.dtype == np.float64 and p.flags.c_contiguous):
                got = f"{p.dtype}, contiguous={p.flags.c_contiguous}" if isinstance(p, np.ndarray) else type(p).__name__
                raise TypeError(f"parameter {name} must be a C-contiguous float64 array, got {got}")
            if p.shape != shape:
                raise ValueError(f"parameter {name} has shape {p.shape}, expected {shape}")

    @property
    def n_layers(self) -> int:
        return len(self.config.hidden) + 1

    # -- forward ----------------------------------------------------------

    def _validate_batch(self, batch: EncodedBatch) -> np.ndarray:
        """Check ``batch`` against this model and return its mask."""
        c = self.config
        width = batch.behavior_idx.shape[1]
        if width != c.max_seq_len:
            raise ValueError(f"batch is {width} behavior slots wide, but the model's max_seq_len is {c.max_seq_len}")
        for name, idx, bound in (
            ("ad", batch.ad_idx, c.item_vocab),
            ("behavior", batch.behavior_idx, c.item_vocab),
            ("user", batch.user_idx, c.user_vocab),
        ):
            if idx.size and (idx.min() < 0 or idx.max() >= bound):
                bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
                raise IndexError(f"{name} index {bad} out of range for vocab of {bound}")
        mask = batch.mask
        live = mask.any(axis=1)
        if not live.all():
            raise ValueError(f"batch row {int(np.argmin(live))} has no live behavior slot in its mask")
        return mask

    def forward(self, batch: EncodedBatch) -> tuple[np.ndarray, ForwardCache]:
        """Per-record click probabilities plus cached intermediates."""
        mask = self._validate_batch(batch)
        c = self.config
        item = self.params["item_emb"]
        behav = np.take(item, batch.behavior_idx, axis=0)  # (B, T, d) gather
        ad = np.take(item, batch.ad_idx, axis=0)  # (B, d)
        if c.use_attention:
            scores = kernels.attention_scores(behav, ad, 1.0 / c.temperature)
            weights = kernels.masked_softmax(scores, mask)
        else:
            weights = kernels.uniform_weights(mask)
        pooled = kernels.weighted_pool(behav, weights)

        blocks = [pooled, ad, pooled * ad]
        if c.use_user_profile:
            blocks.append(np.take(self.params["user_emb"], batch.user_idx, axis=0))
        h = np.concatenate(blocks, axis=1)  # the MLP input

        pre_acts: list[np.ndarray] = []
        post_acts: list[np.ndarray] = []
        for i in range(self.n_layers):
            post_acts.append(h)
            z = h @ self.params[f"w{i}"] + self.params[f"b{i}"]
            pre_acts.append(z)
            if i < self.n_layers - 1:
                h = np.maximum(z, 0.0)
        logits = pre_acts[-1][:, 0]
        probs = sigmoid(logits)
        cache = ForwardCache(
            batch=batch,
            mask=mask,
            behav_emb=behav,
            ad_emb=ad,
            weights=weights,
            pooled=pooled,
            pre_acts=pre_acts,
            post_acts=post_acts,
            probs=probs,
        )
        return probs, cache

    def predict(self, batch: EncodedBatch) -> np.ndarray:
        """Click probabilities, scored in views of PREDICT_CHUNK_ROWS rows.

        Each record's probability depends on its own row only, so the result
        equals ``forward(batch)[0]`` while the intermediates stay bounded.
        """
        self._validate_batch(batch)  # errors name rows of the whole batch
        return np.concatenate(
            [
                self.forward(batch.take(slice(start, start + PREDICT_CHUNK_ROWS)))[0]
                for start in range(0, max(len(batch), 1), PREDICT_CHUNK_ROWS)
            ]
        )

    # -- backward ---------------------------------------------------------

    def backward(self, cache: Optional[ForwardCache], dprobs: np.ndarray) -> Gradients:
        """Analytic gradients for every parameter touched by the batch.

        ``dprobs`` is dLoss/dProb per record. The attention path carries the
        softmax Jacobian into both the behavior and the ad embeddings. Each
        embedding table's gradient covers only the rows the batch looked up,
        never the padding row, so its size follows the batch, not the
        vocabulary.
        """
        if cache is None:
            raise ValueError("backward requires the forward cache for this batch")
        c = self.config
        batch = cache.batch
        B = len(batch)
        d = c.dim
        dprobs = np.asarray(dprobs, dtype=np.float64)
        if dprobs.shape != (B,):
            raise ValueError(f"upstream gradient shape {dprobs.shape} != ({B},)")

        dense: dict[str, np.ndarray] = {}

        p = cache.probs
        dlogit = dprobs * p * (1.0 - p)
        g = dlogit[:, None]
        for i in range(self.n_layers - 1, -1, -1):
            dense[f"w{i}"] = cache.post_acts[i].T @ g
            dense[f"b{i}"] = g.sum(axis=0)
            g = g @ self.params[f"w{i}"].T
            if i > 0:
                g = g * (cache.pre_acts[i - 1] > 0.0)
        dx = g

        dpooled = dx[:, :d] + dx[:, 2 * d : 3 * d] * cache.ad_emb
        dad = dx[:, d : 2 * d] + dx[:, 2 * d : 3 * d] * cache.pooled

        # Each live slot's behavior gradient, w * dpooled (+ ds * ad), is
        # built on the live slots only (padded slots are never looked up),
        # column-major, so every product runs along the slots.
        live = np.flatnonzero(cache.mask)
        row = live // cache.mask.shape[1]
        dbehav = np.take(dpooled.T, row, axis=1) * np.take(cache.weights, live)
        if c.use_attention:
            dweights = kernels.pool_backward(cache.behav_emb, dpooled)
            dscores = kernels.softmax_backward(cache.weights, dweights)
            ds, dad_att = kernels.scores_backward(cache.behav_emb, dscores, 1.0 / c.temperature)
            dbehav += np.take(cache.ad_emb.T, row, axis=1) * np.take(ds, live)
            dad = dad + dad_att

        grads = Gradients(dense=dense)
        grads.rows["item_emb"], grads.row_grads["item_emb"] = _sum_rows(
            np.concatenate([np.take(batch.behavior_idx, live), batch.ad_idx]), np.concatenate([dbehav, dad.T], axis=1)
        )
        if c.use_user_profile:
            grads.rows["user_emb"], grads.row_grads["user_emb"] = _sum_rows(batch.user_idx, dx[:, 3 * d :].T)
        return grads


def init_model(config: ModelConfig, rng: np.random.Generator) -> DinModel:
    """Fresh parameters: embeddings ~ U(-0.05, 0.05), MLP weights Glorot
    uniform, biases zero, padding rows pinned to zero.

    The draw order is ``param_shapes`` order (item table, user table, then
    layers front to back), so one seed yields bitwise-identical models.
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in config.param_shapes().items():
        if name.endswith("_emb"):
            params[name] = rng.uniform(-0.05, 0.05, size=shape)
            params[name][PAD_INDEX, :] = 0.0
        elif name.startswith("w"):
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = rng.uniform(-limit, limit, size=shape)
        else:
            params[name] = np.zeros(shape)
    return DinModel(config, params)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Layout (version 1):
#   magic line  b"DINCTR-CKPT v1\n"
#   header line: canonical JSON (sorted keys, compact separators) + b"\n"
#                with config, vocab token lists, optional run metadata, and
#                an array manifest (name + shape, in parameter order)
#   payload:     the manifest's arrays as little-endian float64, C order
#
# Canonical JSON plus a fixed payload order makes save -> load -> save
# byte-identical.

_CKPT_MAGIC = b"DINCTR-CKPT v1\n"


def save_checkpoint(
    model: DinModel,
    user_vocab: Vocabulary,
    item_vocab: Vocabulary,
    path,
    run_config: Optional[dict] = None,
) -> None:
    names = list(model.config.param_shapes())
    header = {
        "format": "dinctr-checkpoint",
        "version": 1,
        "config": model.config.to_dict(),
        "user_tokens": user_vocab.tokens[2:],
        "item_tokens": item_vocab.tokens[2:],
        "run_config": run_config,
        "arrays": [{"name": k, "shape": list(model.params[k].shape)} for k in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(blob)
        fh.write(b"\n")
        for key in names:
            fh.write(model.params[key].astype("<f8", copy=False).tobytes(order="C"))


def load_checkpoint(path) -> tuple[DinModel, Vocabulary, Vocabulary, Optional[dict]]:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a dinctr checkpoint (bad magic)")
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or an integer too long to convert
            raise ValueError(f"{path}: corrupt checkpoint header") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: corrupt checkpoint header (not a JSON object)")
        version = header.get("version")
        if type(version) is not int or version != 1:  # true and 1.0 are not the integer 1
            raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
        config = ModelConfig.from_dict(header.get("config"), str(path))
        shapes = config.param_shapes()
        # The payload is cut by the manifest, so it must name every parameter,
        # in save_checkpoint's order and shape: a reordered manifest would
        # otherwise load another parameter's bytes without error.
        if header.get("arrays") != [{"name": k, "shape": list(v)} for k, v in shapes.items()]:
            listed = ", ".join(f"{k} {v}" for k, v in shapes.items())
            raise ValueError(f"{path}: the array manifest must list exactly {listed}, in this order")
        params: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            # Read straight into the array: a transient bytes copy of a large
            # table would stay in the process's heap for the rest of the run.
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise ValueError(f"{path}: truncated checkpoint payload")
            params[name] = arr
        if fh.read(1):
            raise ValueError(f"{path}: unexpected bytes after the checkpoint payload")
    model = DinModel(config, params)
    user_vocab = _checkpoint_vocab(path, header, "user", config.user_vocab)
    item_vocab = _checkpoint_vocab(path, header, "item", config.item_vocab)
    return model, user_vocab, item_vocab, header.get("run_config")


def _checkpoint_vocab(path, header: dict, name: str, rows: int) -> Vocabulary:
    """The vocabulary behind a ``rows``-row index space: exactly ``rows - 2``
    distinct, non-reserved string tokens, so every token has its own row."""
    tokens = header.get(f"{name}_tokens")
    if not (isinstance(tokens, list) and all(map(str.__instancecheck__, tokens))):
        raise ValueError(f"{path}: {name}_tokens must be a list of strings")
    vocab = Vocabulary(tokens)
    if len(tokens) != rows - 2 or vocab.size != rows:
        raise ValueError(
            f"{path}: {len(tokens)} {name} tokens ({vocab.size - 2} distinct and not reserved) "
            f"for {name}_vocab={rows} in its config, which needs {rows - 2}"
        )
    return vocab
