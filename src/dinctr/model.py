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
import os
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Optional

import numpy as np

from . import kernels
from .data import (PAD_INDEX, EncodedBatch, Vocabulary, accepts, atomic_open, check_fields, decode_object, fields_dict,
                   parse_fields)
from .numerics import sigmoid

# predict() scores at most this many rows per forward pass, so the memory
# of its intermediates stays bounded whatever the input size.
PREDICT_CHUNK_ROWS = 4096


@dataclass
class ModelConfig:
    """The checkpoint's model schema, checked when made; a run's comes from ``RunConfig.model_config``."""

    item_vocab: int = accepts("[2, 16777216]")  # the two reserved indices included
    user_vocab: int = accepts("[2, 16777216]")
    dim: int = accepts("[1, 1024]")
    hidden: tuple[int, ...] = accepts("[1, 32768]")  # each layer's width
    max_seq_len: int = accepts("[1, 4096]")
    temperature: float = accepts("[1e-308, inf)")  # 1 / temperature, the attention's scale, stays finite
    use_attention: bool
    use_user_profile: bool

    def __post_init__(self) -> None:
        check_fields(self)

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

    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes().values())

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

    ``mlp`` is the MLP tail of ``DinModel.flat``'s layout. The embedding
    matrix ``DinModel.emb`` is stored as what the batch touched: ``rows``
    holds its sorted, padding-free row indices and ``row_grads`` their
    gradients, shape (len(rows), d). Every other row's gradient is zero and
    the optimizer leaves it alone (lazy/sparse semantics).
    """

    mlp: np.ndarray
    rows: np.ndarray
    row_grads: np.ndarray


def _sum_rows(idx: np.ndarray, cols: np.ndarray, pads: tuple[int, int], n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows that share an index in ``idx``, each in [0, ``n_rows``);
    ``cols`` holds the rows column-major, shape (d, len(idx)).

    Returns the sorted distinct indices without the two ``pads`` and their sums,
    shape (rows, d). A table with no more rows than ``idx`` has entries is
    read by one presence pass over its ``n_rows`` flags, O(n_rows); a larger
    one by the sort in ``np.unique``, O(len(idx) log len(idx)), which does
    not touch the table. ``bincount`` adds each cell's contributions in input
    order, starting from 0.0, exactly as ``np.add.at`` into a zeroed table
    does, so either way the sums are bit-identical to that dense scatter.
    """
    if n_rows <= idx.size:
        present = np.zeros(n_rows, dtype=bool)
        present[idx] = True
        rows, inv = present.nonzero()[0], (present.cumsum() - 1).take(idx)
    else:
        rows, inv = np.unique(idx, return_inverse=True)
    sums = np.stack([np.bincount(inv, weights=col, minlength=rows.size) for col in cols], axis=1)
    keep = (rows != pads[0]) & (rows != pads[1])
    return (rows, sums) if keep.all() else (rows[keep], sums[keep])


class DinModel:
    """Embedding tables plus MLP head; attention toggled by config. Every
    parameter lives in ``flat``, one float64 vector in ``param_shapes``
    order; ``params`` holds named views of it, and ``emb`` views its head as
    one matrix: the item rows, then the user rows. The views are writable,
    so ``params["w0"] *= 2`` scales the weights in ``flat``; only rebinding
    a name (``params["w0"] = x``) raises, and it raises after an augmented
    assignment has already written the view in place."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        c = self.config = config
        blocks, start = [], 0
        for name, shape in c.param_shapes().items():
            blocks.append((name, slice(start, start + math.prod(shape)), shape))
            start = blocks[-1][1].stop
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.flags.c_contiguous):
            got = (f"{flat.dtype}, contiguous={flat.flags.c_contiguous}" if isinstance(flat, np.ndarray)
                   else type(flat).__name__)
            raise TypeError(f"parameters must be a C-contiguous float64 array, got {got}")
        if flat.shape != (start,):
            raise ValueError(f"parameter vector has shape {flat.shape}, expected ({start},)")
        self.flat, self.params = flat, MappingProxyType({name: flat[s].reshape(shape) for name, s, shape in blocks})
        head = (c.item_vocab + c.user_vocab * c.use_user_profile) * c.dim
        self.emb = flat[:head].reshape(-1, c.dim)
        self._mlp = [(name, slice(s.start - head, s.stop - head), shape)
                     for name, s, shape in blocks if s.start >= head]

    def mlp_views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a vector laid out as the MLP tail, named as ``params``."""
        return {name: vec[s].reshape(shape) for name, s, shape in self._mlp}

    @property
    def n_layers(self) -> int:
        return len(self.config.hidden) + 1

    # -- forward ----------------------------------------------------------

    def validate_batch(self, batch: EncodedBatch) -> np.ndarray:
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

    def forward(self, batch: EncodedBatch, *, checked: bool = False) -> tuple[np.ndarray, ForwardCache]:
        """Per-record click probabilities plus cached intermediates.
        ``checked`` skips ``validate_batch``: its callers (``predict`` and
        ``optim.train``) have run it on the whole batch this one is cut from."""
        mask = batch.mask if checked else self.validate_batch(batch)
        c = self.config
        n_layers = self.n_layers
        item = self.params["item_emb"]
        behav = item.take(batch.behavior_idx, axis=0)  # (B, T, d) gather
        ad = item.take(batch.ad_idx, axis=0)  # (B, d)
        if c.use_attention:
            scores = kernels.attention_scores(behav, ad, 1.0 / c.temperature)
            weights = kernels.masked_softmax(scores, mask)
        else:
            weights = kernels.uniform_weights(mask)
        pooled = kernels.weighted_pool(behav, weights)

        blocks = [pooled, ad, pooled * ad]
        if c.use_user_profile:
            blocks.append(self.params["user_emb"].take(batch.user_idx, axis=0))
        h = np.concatenate(blocks, axis=1)  # the MLP input

        pre_acts: list[np.ndarray] = []
        post_acts: list[np.ndarray] = []
        for i in range(n_layers):
            post_acts.append(h)
            z = h @ self.params[f"w{i}"] + self.params[f"b{i}"]
            pre_acts.append(z)
            if i < n_layers - 1:
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
        """Click probabilities, scored in views of PREDICT_CHUNK_ROWS rows, so
        the intermediates stay bounded. A record's probability depends on its
        own row only in exact arithmetic: the MLP's matrix products can round
        a row differently with its chunk's row count (on OpenBLAS, in chunks
        under 4 rows), so this equals ``forward(batch)[0]`` to the last bits.

        Raises FloatingPointError on a non-finite probability. Finite
        parameters large enough to overflow the attention scores or the MLP
        make one: that error, not a NaN score, is the contract, and the
        overflow raises no RuntimeWarning of its own.
        """
        self.validate_batch(batch)  # errors name rows of the whole batch
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports an overflow
            probs = np.concatenate(
                [
                    self.forward(batch.take(slice(start, start + PREDICT_CHUNK_ROWS)), checked=True)[0]
                    for start in range(0, max(len(batch), 1), PREDICT_CHUNK_ROWS)
                ]
            )
        finite = np.isfinite(probs)
        if not finite.all():
            row = int(finite.argmin())
            raise FloatingPointError(f"non-finite click probability {probs[row]} at batch row {row}: the "
                                     "parameters are not finite or overflow the forward pass")
        return probs

    # -- backward ---------------------------------------------------------

    def backward(self, cache: Optional[ForwardCache], dprobs: np.ndarray) -> Gradients:
        """Analytic gradients for every parameter touched by the batch.

        ``dprobs`` is dLoss/dProb per record. The attention path carries the
        softmax Jacobian into both the behavior and the ad embeddings. The
        embedding gradient covers only the rows of ``emb`` the batch looked
        up, never a padding row, so its size follows the batch, not the
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

        mlp = np.empty(self.flat.size - self.emb.size)
        p = cache.probs
        dlogit = dprobs * p * (1.0 - p)
        g = dlogit[:, None]
        for i in range(self.n_layers - 1, -1, -1):
            (_, w, shape), (_, b, _) = self._mlp[2 * i : 2 * i + 2]
            np.matmul(cache.post_acts[i].T, g, out=mlp[w].reshape(shape))
            g.sum(axis=0, out=mlp[b])
            g = g @ self.params[f"w{i}"].T
            if i > 0:
                g = g * (cache.pre_acts[i - 1] > 0.0)
        dx = g

        dpooled = dx[:, :d] + dx[:, 2 * d : 3 * d] * cache.ad_emb
        dad = dx[:, d : 2 * d] + dx[:, 2 * d : 3 * d] * cache.pooled

        # Each live slot's behavior gradient, w * dpooled (+ ds * ad), is
        # built on the live slots only (padded slots are never looked up),
        # column-major, so every product runs along the slots.
        live = cache.mask.ravel().nonzero()[0]
        row = live // cache.mask.shape[1]
        dbehav = dpooled.T.take(row, axis=1) * cache.weights.take(live)
        if c.use_attention:
            dweights = kernels.pool_backward(cache.behav_emb, dpooled)
            dscores = kernels.softmax_backward(cache.weights, dweights)
            ds, dad_att = kernels.scores_backward(cache.behav_emb, dscores, 1.0 / c.temperature)
            dbehav += cache.ad_emb.T.take(row, axis=1) * ds.take(live)
            dad = dad + dad_att

        # One row space: a user's row in ``emb`` is item_vocab + its index.
        idx, cols = [batch.behavior_idx.take(live), batch.ad_idx], [dbehav, dad.T]
        if c.use_user_profile:
            idx.append(batch.user_idx + c.item_vocab)
            cols.append(dx[:, 3 * d :].T)
        pads = (PAD_INDEX, c.item_vocab + PAD_INDEX)
        rows = _sum_rows(np.concatenate(idx), np.concatenate(cols, axis=1), pads, self.emb.shape[0])
        return Gradients(mlp, *rows)


def init_model(config: ModelConfig, rng: np.random.Generator) -> DinModel:
    """Fresh parameters: embeddings ~ U(-0.05, 0.05), MLP weights Glorot
    uniform, biases zero, padding rows pinned to zero.

    The draw order is ``param_shapes`` order (item table, user table, then
    layers front to back), so one seed yields bitwise-identical models.
    """
    model = DinModel(config, np.zeros(config.param_count()))
    for name, p in model.params.items():
        if name.endswith("_emb"):
            p[...] = rng.uniform(-0.05, 0.05, size=p.shape)
            p[PAD_INDEX, :] = 0.0
        elif name.startswith("w"):
            limit = np.sqrt(6.0 / (p.shape[0] + p.shape[1]))
            p[...] = rng.uniform(-limit, limit, size=p.shape)
    return model


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Layout (version 1):
#   magic line  b"DINCTR-CKPT v1\n"
#   header line: canonical JSON (sorted keys, compact separators) + b"\n"
#                with config, vocab token lists, optional run metadata, and
#                an array manifest (name + shape, in parameter order)
#   payload:     the manifest's arrays as little-endian float64, C order:
#                DinModel.flat, written and read whole
#
# Canonical JSON plus a fixed payload order makes save -> load -> save
# byte-identical.

_CKPT_MAGIC = b"DINCTR-CKPT v1\n"


def save_checkpoint(model: DinModel, user_vocab: Vocabulary, item_vocab: Vocabulary, path,
                    run_config: Optional[dict] = None) -> None:
    header = {
        "format": "dinctr-checkpoint",
        "version": 1,
        "config": model.config.to_dict(),
        "user_tokens": user_vocab.tokens[2:],
        "item_tokens": item_vocab.tokens[2:],
        "run_config": run_config,
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in model.params.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(blob)
        fh.write(b"\n")
        fh.write(model.flat.astype("<f8", copy=False))


def load_checkpoint(path) -> tuple[DinModel, Vocabulary, Vocabulary, Optional[dict]]:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a dinctr checkpoint (bad magic)")
        header = decode_object(fh.readline(), path, line=2)  # the magic is line 1
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
        # The payload's size is checked in Python ints before allocating: a
        # header can imply more bytes than NumPy can allocate or index.
        nbytes, left = 8 * config.param_count(), os.fstat(fh.fileno()).st_size - fh.tell()
        if nbytes > left:
            raise ValueError(f"{path}: truncated checkpoint payload")
        if nbytes < left:
            raise ValueError(f"{path}: unexpected bytes after the checkpoint payload")
        # Read straight into the vector: a transient bytes copy of a large
        # table would stay in the process's heap for the rest of the run.
        flat = np.empty(nbytes // 8, dtype="<f8")
        if fh.readinto(flat.view(np.uint8)) != nbytes:
            raise ValueError(f"{path}: truncated checkpoint payload")
    finite = np.isfinite(flat)
    if not finite.all():
        at, end = int(finite.argmin()), 0
        for name, shape in shapes.items():
            end += math.prod(shape)
            if at < end:
                raise ValueError(f"{path}: non-finite value {flat[at]} in {name} of the checkpoint payload")
    model = DinModel(config, flat)
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
