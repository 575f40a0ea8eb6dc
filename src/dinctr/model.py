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
from .data import EncodedBatch, Vocabulary, atomic_open, fields_dict, parse_fields
from .numerics import sigmoid

PAD_ROW = 0

# predict() scores at most this many rows per forward pass, so the memory
# of its intermediates stays bounded whatever the input size.
PREDICT_CHUNK_ROWS = 4096


@dataclass
class ModelConfig:
    item_vocab: int
    user_vocab: int
    dim: int = 8
    hidden: tuple[int, ...] = (64, 32)
    max_seq_len: int = 32
    temperature: float = 1.0
    use_attention: bool = True
    use_user_profile: bool = False

    def validate(self) -> None:
        if self.item_vocab < 2 or self.user_vocab < 2:
            raise ValueError("vocab sizes must include the reserved indices (>= 2)")
        if self.dim < 1 or self.max_seq_len < 1:
            raise ValueError("dim and max_seq_len must be positive")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be positive")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError(f"temperature must be a finite number > 0, got {self.temperature!r}")

    @property
    def mlp_input_dim(self) -> int:
        base = 3 * self.dim
        return base + (self.dim if self.use_user_profile else 0)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, in the model's parameter order."""
        shapes: dict[str, tuple[int, ...]] = {"item_emb": (self.item_vocab, self.dim)}
        if self.use_user_profile:
            shapes["user_emb"] = (self.user_vocab, self.dim)
        dims = [self.mlp_input_dim, *self.hidden, 1]
        for i in range(len(dims) - 1):
            shapes[f"w{i}"] = (dims[i], dims[i + 1])
            shapes[f"b{i}"] = (dims[i + 1],)
        return shapes

    def to_dict(self) -> dict:
        return fields_dict(self)

    @classmethod
    def from_dict(cls, obj: dict, where: str = "model config") -> "ModelConfig":
        """The config ``to_dict`` gave: every field present, each read by its
        declared type as ``parse_fields`` reads it; errors name ``where``."""
        missing = [f.name for f in fields(cls) if f.name not in obj]
        if missing:
            raise ValueError(f"{where}: config lacks {', '.join(map(repr, missing))}")
        return cls(**parse_fields(cls, obj, where))


@dataclass
class ForwardCache:
    """Intermediates saved by forward() for the matching backward()."""

    batch: EncodedBatch
    behav_emb: np.ndarray  # (B, T, d)
    ad_emb: np.ndarray  # (B, d)
    weights: np.ndarray  # (B, T)
    pooled: np.ndarray  # (B, d)
    x: np.ndarray  # (B, F) MLP input
    pre_acts: list[np.ndarray]  # per layer, pre-activation
    post_acts: list[np.ndarray]  # per layer input (post previous activation)
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

    def flat(self, params: dict[str, np.ndarray]) -> np.ndarray:
        """All gradients as one vector laid out like ``DinModel.flat_params``,
        with zeros for the embedding rows the batch did not touch."""
        parts = []
        for name, p in params.items():
            if name in self.rows:
                g = np.zeros_like(p)
                g[self.rows[name]] = self.row_grads[name]
            else:
                g = self.dense[name]
            parts.append(g.ravel())
        return np.concatenate(parts)


def _sum_rows(idx: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows of ``vals`` that share an index in ``idx``.

    Returns the sorted distinct indices without PAD_ROW and their sums.
    ``bincount`` adds each output cell's contributions in input order,
    starting from 0.0, exactly as ``np.add.at`` into a zeroed table does,
    so the sums are bit-identical to that dense scatter.
    """
    rows, inv = np.unique(idx, return_inverse=True)
    d = vals.shape[1]
    cells = (inv[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(cells, weights=vals.ravel(), minlength=rows.size * d).reshape(rows.size, d)
    if rows.size and rows[0] == PAD_ROW:
        return rows[1:], sums[1:]
    return rows, sums


class DinModel:
    """Embedding tables plus MLP head; attention toggled by config."""

    EMBEDDING_PARAMS = ("item_emb", "user_emb")

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        config.validate()
        self.config = config
        self.params = params
        self._check_shapes()

    # -- construction -----------------------------------------------------

    def _check_shapes(self) -> None:
        expect = self.config.param_shapes()
        if set(expect) != set(self.params):
            raise ValueError(f"parameter keys {sorted(self.params)} != expected {sorted(expect)}")
        for name, shape in expect.items():
            if self.params[name].shape != shape:
                raise ValueError(f"parameter {name} has shape {self.params[name].shape}, expected {shape}")

    @property
    def n_layers(self) -> int:
        return len(self.config.hidden) + 1

    def copy(self) -> "DinModel":
        return DinModel(self.config, {k: v.copy() for k, v in self.params.items()})

    def flat_params(self) -> np.ndarray:
        """All parameters concatenated in key-insertion order."""
        return np.concatenate([self.params[k].ravel() for k in self.params])

    def set_flat_params(self, flat: np.ndarray) -> None:
        offset = 0
        for k in self.params:
            size = self.params[k].size
            self.params[k][...] = flat[offset : offset + size].reshape(self.params[k].shape)
            offset += size
        if offset != flat.size:
            raise ValueError(f"flat vector has {flat.size} entries, expected {offset}")

    # -- forward ----------------------------------------------------------

    def _validate_batch(self, batch: EncodedBatch) -> None:
        c = self.config
        for name, idx, bound in (
            ("ad", batch.ad_idx, c.item_vocab),
            ("behavior", batch.behavior_idx, c.item_vocab),
            ("user", batch.user_idx, c.user_vocab),
        ):
            if idx.size and (idx.min() < 0 or idx.max() >= bound):
                bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
                raise IndexError(f"{name} index {bad} out of range for vocab of {bound}")
        live = batch.mask.any(axis=1)
        if not live.all():
            raise ValueError(f"batch row {int(np.argmin(live))} has no live behavior slot in its mask")

    def forward(self, batch: EncodedBatch) -> tuple[np.ndarray, ForwardCache]:
        """Per-record click probabilities plus cached intermediates."""
        self._validate_batch(batch)
        c = self.config
        item = self.params["item_emb"]
        behav = item[batch.behavior_idx]  # (B, T, d) gather
        ad = item[batch.ad_idx]  # (B, d)
        mask = batch.mask
        if c.use_attention:
            scores = kernels.attention_scores(behav, ad, mask, 1.0 / c.temperature)
            weights = kernels.masked_softmax(scores, mask)
        else:
            weights = kernels.uniform_weights(mask)
        pooled = kernels.weighted_pool(behav, weights)

        blocks = [pooled, ad, pooled * ad]
        if c.use_user_profile:
            blocks.append(self.params["user_emb"][batch.user_idx])
        x = np.concatenate(blocks, axis=1)

        pre_acts: list[np.ndarray] = []
        post_acts: list[np.ndarray] = []
        h = x
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
            behav_emb=behav,
            ad_emb=ad,
            weights=weights,
            pooled=pooled,
            x=x,
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

        dweights, dbehav = kernels.pool_backward(cache.behav_emb, cache.weights, dpooled)
        if c.use_attention:
            dscores = kernels.softmax_backward(cache.weights, dweights)
            dbehav_att, dad_att = kernels.scores_backward(
                cache.behav_emb, cache.ad_emb, dscores, 1.0 / c.temperature
            )
            dbehav = dbehav + dbehav_att
            dad = dad + dad_att

        live = batch.mask.reshape(-1)
        grads = Gradients(dense=dense)
        grads.rows["item_emb"], grads.row_grads["item_emb"] = _sum_rows(
            np.concatenate([batch.behavior_idx.reshape(-1)[live], batch.ad_idx]),
            np.concatenate([dbehav.reshape(-1, d)[live], dad]),
        )
        if c.use_user_profile:
            grads.rows["user_emb"], grads.row_grads["user_emb"] = _sum_rows(batch.user_idx, dx[:, 3 * d :])
        return grads


def init_model(config: ModelConfig, rng: np.random.Generator) -> DinModel:
    """Fresh parameters: embeddings ~ U(-0.05, 0.05), MLP weights Glorot
    uniform, biases zero, padding rows pinned to zero.

    The draw order (item table, user table, then layers front to back) is
    fixed, so one seed yields bitwise-identical models.
    """
    config.validate()
    params: dict[str, np.ndarray] = {}
    params["item_emb"] = rng.uniform(-0.05, 0.05, size=(config.item_vocab, config.dim))
    params["item_emb"][PAD_ROW, :] = 0.0
    if config.use_user_profile:
        params["user_emb"] = rng.uniform(-0.05, 0.05, size=(config.user_vocab, config.dim))
        params["user_emb"][PAD_ROW, :] = 0.0
    dims = [config.mlp_input_dim, *config.hidden, 1]
    for i in range(len(dims) - 1):
        limit = np.sqrt(6.0 / (dims[i] + dims[i + 1]))
        params[f"w{i}"] = rng.uniform(-limit, limit, size=(dims[i], dims[i + 1]))
        params[f"b{i}"] = np.zeros(dims[i + 1])
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


def _checkpoint_config(path, header: dict) -> ModelConfig:
    config = header.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"{path}: checkpoint header has no config object")
    config = ModelConfig.from_dict(config, str(path))
    try:
        config.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config


def load_checkpoint(path) -> tuple[DinModel, Vocabulary, Vocabulary, Optional[dict]]:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a dinctr checkpoint (bad magic)")
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: corrupt checkpoint header") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: corrupt checkpoint header (not a JSON object)")
        if header.get("version") != 1:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
        config = _checkpoint_config(path, header)
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
