"""The step's objective (cross-entropy plus L2), its gradient check, Adam, and the training loop.

Embedding tables get lazy (sparse) Adam semantics: the optimizer reads
their gradients as the compact rows the batch touched (``Gradients.rows``
and ``Gradients.row_grads``), and a row's moment accumulators move only
when that row appears in the batch, so untouched rows stay perfectly
stationary and a step costs what the batch touched, not the vocabulary.
The L2 penalty covers all MLP weight matrices plus the embedding rows
touched by the current batch; biases and the padding row are never
penalized.
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


def l2_penalty(model: DinModel, lam: float, grads: Gradients) -> float:
    """lam * sum(w^2) over MLP weights and batch-touched embedding rows.

    The matching contribution 2*lam*w is added to ``grads`` in place;
    touched rows come from ``grads.rows``.
    """
    if lam < 0.0:
        raise ValueError("l2 lambda must be >= 0")
    if lam == 0.0:
        return 0.0
    penalty = 0.0
    for i in range(model.n_layers):
        w = model.params[f"w{i}"]
        penalty += float(np.sum(w * w))
        grads.dense[f"w{i}"] += 2.0 * lam * w
    for name, rows in grads.rows.items():
        if rows.size:
            sub = np.take(model.params[name], rows, axis=0)
            penalty += float(np.sum(sub * sub))
            grads.row_grads[name] += 2.0 * lam * sub
    return lam * penalty


def objective(model: DinModel, batch: EncodedBatch, l2_lambda: float) -> tuple[float, float, Gradients]:
    """A training step's (bce, penalty, grads): forward, mean BCE, backward,
    then ``l2_penalty``, whose gradient is folded into ``grads``."""
    probs, cache = model.forward(batch)
    loss, dprobs = bce_loss(probs, batch.labels)
    grads = model.backward(cache, dprobs)
    return loss, l2_penalty(model, l2_lambda, grads), grads


def check_gradients(model: DinModel, batch: EncodedBatch, l2_lambda: float = 0.0, eps: float = 1e-5) -> float:
    """Max relative error of ``objective``'s gradients against central
    differences of bce + penalty (``numerics.grad_check``, which perturbs
    the model's own arrays in place and restores them). Embedding gradients
    are compared as full tables, zero in the rows the batch did not touch."""
    _, _, grads = objective(model, batch, l2_lambda)
    analytic = dict(grads.dense)
    for name, rows in grads.rows.items():
        analytic[name] = np.zeros_like(model.params[name])
        analytic[name][rows] = grads.row_grads[name]

    def loss() -> float:
        bce, penalty, _ = objective(model, batch, l2_lambda)
        return bce + penalty

    return grad_check(loss, model.params, analytic, eps)


@dataclass
class AdamState:
    """First/second moment accumulators, one step counter for all blocks."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    lr: float = 1e-3


def adam_step(state: AdamState, params: dict[str, np.ndarray], grads: Gradients) -> None:
    """One in-place Adam update with bias correction.

    Embedding parameters update lazily: only the rows in ``grads.rows``
    move, by their ``grads.row_grads``; the padding row is never among
    them. Every other block updates densely.
    """
    for block in (grads.dense, grads.row_grads):
        for name, g in block.items():
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient in parameter block {name!r}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        m, v = state.m[name], state.v[name]
        rows = grads.rows.get(name)
        if rows is None:
            _adam_update(p, m, v, grads.dense[name], state.lr, bc1, bc2)
        elif rows.size:
            # np.take gathers rows far faster than fancy indexing on a large table.
            p_rows, m_rows, v_rows = (np.take(a, rows, axis=0) for a in (p, m, v))
            _adam_update(p_rows, m_rows, v_rows, grads.row_grads[name], state.lr, bc1, bc2)
            p[rows], m[rows], v[rows] = p_rows, m_rows, v_rows


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
    m, v = ({k: np.zeros_like(p) for k, p in model.params.items()} for _ in range(2))
    state = AdamState(m=m, v=v, lr=config.lr)
    shuffle_rng = make_rng(config.seed, stream=2)
    history: list[EpochStats] = []
    best_gauc = -np.inf
    best_params: Optional[dict[str, np.ndarray]] = None
    stale = 0

    for epoch in range(1, config.epochs + 1):
        tic = time.perf_counter()
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            mb = train_batch.take(order[start : start + config.batch_size])
            loss, _, grads = objective(model, mb, config.l2_lambda)
            adam_step(state, model.params, grads)
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
                best_params = {k: p.copy() for k, p in model.params.items()}
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break

    if config.patience > 0 and best_params is not None:
        model.params = best_params
    return model, history
