"""The step's objective (cross-entropy plus L2), its gradient check, Adam, and the training loop.

Adam's moments share ``DinModel.flat``'s layout. The embedding matrix gets
lazy (sparse) Adam semantics: the optimizer reads its gradient as the
compact rows the batch touched (``Gradients.rows`` and ``row_grads``), and
a row's moment accumulators move only when that row appears in the batch,
so untouched rows stay perfectly stationary and a step costs what the
batch touched, not the vocabulary. The L2 penalty covers all MLP weight
matrices plus the embedding rows touched by the current batch; biases and
the padding rows are never penalized.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, fields
from typing import Optional

import numpy as np

from . import metrics  # train calls metrics.gauc through the module, so a wrapper set on it sees the call
from .config import RunConfig
from .data import EncodedBatch, atomic_open
from .metrics import bce_loss
from .model import DinModel, Gradients
from .numerics import grad_check, make_rng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def l2_penalty(model: DinModel, lam: float, grads: Gradients, *, value: bool = True) -> Optional[float]:
    """lam * sum(w^2) over MLP weights and batch-touched embedding rows.

    The matching contribution 2*lam*w is added to ``grads`` in place;
    touched rows come from ``grads.rows``. With ``value=False`` only the
    gradient is folded in, the sums are skipped and None is returned.
    """
    if lam < 0.0:
        raise ValueError("l2 lambda must be >= 0")
    if lam == 0.0:
        return 0.0
    penalty = 0.0
    dense = model.mlp_views(grads.mlp)
    for i in range(model.n_layers):
        w = model.params[f"w{i}"]
        if value:
            penalty += float((w * w).sum())
        dense[f"w{i}"] += 2.0 * lam * w
    if grads.rows.size:
        sub = model.emb.take(grads.rows, axis=0)
        if value:
            penalty += float((sub * sub).sum())
        grads.row_grads += 2.0 * lam * sub
    return lam * penalty if value else None


def objective(model: DinModel, batch: EncodedBatch, l2_lambda: float, *,
              training: bool = False) -> tuple[float, Optional[float], Gradients]:
    """A training step's (bce, penalty, grads): forward, mean BCE, backward,
    then ``l2_penalty``, whose gradient is folded into ``grads``.

    ``training=True`` is ``train``'s call on a minibatch of the training set
    it has checked whole: the forward pass skips the batch checks, and the
    penalty, which ``train`` does not report, is not summed (None)."""
    probs, cache = model.forward(batch, checked=training)
    loss, dprobs = bce_loss(probs, batch.labels)
    grads = model.backward(cache, dprobs)
    return loss, l2_penalty(model, l2_lambda, grads, value=not training), grads


def check_gradients(model: DinModel, batch: EncodedBatch, l2_lambda: float = 0.0, eps: float = 1e-5) -> float:
    """Max relative error of ``objective``'s gradients against central
    differences of bce + penalty (``numerics.grad_check``, which perturbs
    ``model.flat`` in place and restores it). The embedding gradient is
    compared as the full matrix, zero in the rows the batch did not touch."""
    _, _, grads = objective(model, batch, l2_lambda)
    emb = np.zeros_like(model.emb)
    emb[grads.rows] = grads.row_grads

    def loss() -> float:
        bce, penalty, _ = objective(model, batch, l2_lambda)
        return bce + penalty

    return grad_check(loss, model.flat, np.concatenate([emb.ravel(), grads.mlp]), eps)


@dataclass
class AdamState:
    """First/second moment accumulators, laid out as ``DinModel.flat``, and one step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3


def adam_step(state: AdamState, flat: np.ndarray, grads: Gradients) -> None:
    """One in-place Adam update of the parameter vector ``flat``, with bias
    correction. Its MLP tail (the last ``grads.mlp.size`` entries) updates
    densely; in its head, the embedding matrix, only the rows in
    ``grads.rows`` move, and no padding row is ever among them."""
    for block, g in (("MLP", grads.mlp), ("embedding rows", grads.row_grads)):
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in the {block}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    head = flat.size - grads.mlp.size
    _adam_update(flat[head:], state.m[head:], state.v[head:], grads.mlp, state.lr, bc1, bc2)
    if grads.rows.size:
        # Each embedding row is viewed as one np.void element, so a row is
        # gathered and scattered as one copy, not as d float copies.
        g = grads.row_grads
        row = np.dtype((np.void, g.itemsize * g.shape[1]))
        p, m, v = flat[:head].view(row), state.m[:head].view(row), state.v[:head].view(row)
        p_rows, m_rows, v_rows = p.take(grads.rows), m.take(grads.rows), v.take(grads.rows)
        _adam_update(p_rows.view(np.float64), m_rows.view(np.float64), v_rows.view(np.float64), g.ravel(),
                     state.lr, bc1, bc2)
        p[grads.rows], m[grads.rows], v[grads.rows] = p_rows, m_rows, v_rows


def _adam_update(p, m, v, g, lr, bc1, bc2) -> None:
    """Adam on one block, in place: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g
    and p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), with these operations in this
    order, so the result is bit-identical to the out-of-place formula."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    step = np.divide(m, bc1)
    step *= lr
    den = np.divide(v, bc2)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    step /= den
    p -= step


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_gauc: float
    seconds: float


def save_history(epochs: list[EpochStats], path) -> None:
    """The history CSV: ``EpochStats``'s field names, then one row per epoch."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(EpochStats)])
        writer.writerows(map(astuple, epochs))


def train(
    model: DinModel,
    train_batch: EncodedBatch,
    val_batch: EncodedBatch,
    config: RunConfig,
) -> tuple[DinModel, list[EpochStats]]:
    """Epoch/minibatch training with per-epoch validation tracking.

    Each epoch reshuffles with a seeded stream, walks minibatches through
    forward/backward/adam with the L2 contribution folded into the
    gradients, then records validation log loss and impression-weighted
    grouped AUC. Returns the final model, or the best-validation-GAUC model
    when ``patience`` is set (stopping early after that many epochs without
    improvement). Fully deterministic given (seed, config, data).
    """
    n = len(train_batch)
    if n == 0:
        raise ValueError("empty training set")
    if len(val_batch) == 0:
        raise ValueError("empty validation set")
    model.validate_batch(train_batch)  # once, so each minibatch skips it
    state = AdamState(m=np.zeros_like(model.flat), v=np.zeros_like(model.flat), lr=config.lr)
    shuffle_rng = make_rng(config.seed, stream=2)
    history: list[EpochStats] = []
    best_gauc = -np.inf
    best_flat = None
    stale = 0

    for epoch in range(1, config.epochs + 1):
        tic = time.perf_counter()
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            mb = train_batch.take(order[start : start + config.batch_size])
            loss, _, grads = objective(model, mb, config.l2_lambda, training=True)
            adam_step(state, model.flat, grads)
            loss_sum += loss * len(mb)
        val_probs = model.predict(val_batch)
        val_loss = metrics.log_loss(val_probs, val_batch.labels)
        val_gauc = metrics.gauc(val_probs, val_batch.labels, val_batch.user_idx, "impressions").value
        seconds = time.perf_counter() - tic if config.timing else 0.0
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=loss_sum / n,
                val_loss=val_loss,
                val_gauc=val_gauc,
                seconds=seconds,
            )
        )
        if config.patience > 0:
            if val_gauc > best_gauc:
                best_gauc = val_gauc
                best_flat = model.flat.copy()
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break

    if best_flat is not None:
        model.flat[...] = best_flat
    return model, history
