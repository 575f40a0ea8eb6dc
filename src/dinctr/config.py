"""Every setting of a run, declared once and checked when made.

The fields are the flat keys of a ``ctr --config`` file; ``data.parse_fields``
reads their annotation strings to parse config files and flags. Construction
raises ValueError on any value the pipeline would reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import check_split, fields_dict
from .model import ModelConfig


@dataclass
class RunConfig:
    """``model`` is "din" (attention pooling) or "base" (uniform pooling). The
    generator clicks with sigmoid(base_logit + signal_strength * f), f the
    share of the user's behaviors in the ad's cluster; a user puts
    ``cluster_concentration`` of their mass on their dominant cluster."""

    model: str = "din"
    split_mode: str = "temporal"
    val_fraction: float = 0.2
    # the synthetic generator
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
    # training
    epochs: int = 5
    batch_size: int = 256
    lr: float = 1e-3
    l2_lambda: float = 1e-5
    patience: int = 0  # 0 disables early stopping
    timing: bool = True
    # the model
    dim: int = 8
    hidden: tuple[int, ...] = (64, 32)
    max_seq_len: int = 32
    temperature: float = 1.0
    use_user_profile: bool = False
    # files
    dataset: str = "data/impressions.jsonl"
    metadata: str = "data/metadata.json"
    checkpoint: str = "out/model.ckpt"
    history: str = "out/history.csv"

    def __post_init__(self) -> None:
        if self.model not in ("din", "base"):
            raise ValueError(f"model must be 'din' or 'base', got {self.model!r}")
        check_split(self.split_mode, self.val_fraction)
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
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be a finite number > 0, got {self.lr!r}")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0.0):
            raise ValueError(f"l2_lambda must be a finite number >= 0, got {self.l2_lambda!r}")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        self.hidden = tuple(self.hidden)
        self.model_config(item_vocab=2, user_vocab=2)  # checks the model keys on the smallest vocabularies
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return fields_dict(self)

    def model_config(self, item_vocab: int, user_vocab: int) -> ModelConfig:
        """The checkpoint's model schema: this run's hyperparameters on the data's vocabularies."""
        return ModelConfig(
            item_vocab, user_vocab, dim=self.dim, hidden=self.hidden, max_seq_len=self.max_seq_len,
            temperature=self.temperature, use_attention=self.model == "din", use_user_profile=self.use_user_profile,
        )
