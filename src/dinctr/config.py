"""Every setting of a run, declared once and checked when made.

The fields are the flat keys of a ``ctr --config`` file; ``data.parse_fields``
reads their annotation strings to parse config files and flags. Each numeric
or choice key declares its accepted values on its field (``data.accepts``),
and construction raises ValueError naming the key on any value outside them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import SPLIT_MODES, VAL_FRACTIONS, accepts, check_fields, fields_dict
from .model import ModelConfig


@dataclass
class RunConfig:
    """``model`` is "din" (attention pooling) or "base" (uniform pooling). The
    generator clicks with sigmoid(base_logit + signal_strength * f), f the
    share of the user's behaviors in the ad's cluster; a user puts
    ``cluster_concentration`` of their mass on their dominant cluster."""

    model: str = accepts(("din", "base"), "din")
    split_mode: str = accepts(SPLIT_MODES, "temporal")
    val_fraction: float = accepts(VAL_FRACTIONS, 0.2)
    # the synthetic generator
    num_users: int = accepts("[1, 4194304]", 500)
    num_items: int = accepts("[1, 8388608]", 200)
    num_clusters: int = accepts("[1, 8388608]", 10)
    behaviors_min: int = accepts("[1, 4096]", 8)
    behaviors_max: int = accepts("[1, 4096]", 32)
    impressions: int = accepts("[1, 2097152]", 25_000)
    signal_strength: float = accepts("[0, inf)", 4.0)
    base_logit: float = accepts("(-inf, inf)", -1.0)
    cluster_concentration: float = accepts("(0, 1]", 0.8)
    seed: int = accepts("[0, inf)", 1)
    # training
    epochs: int = accepts("[1, 1048576]", 5)
    batch_size: int = accepts("[1, inf)", 256)
    lr: float = accepts("(0, inf)", 1e-3)
    l2_lambda: float = accepts("[0, inf)", 1e-5)
    patience: int = accepts("[0, inf)", 0)  # 0 disables early stopping
    timing: bool = True
    # the model, whose keys declare their accepted values on ModelConfig
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
        check_fields(self)
        if self.num_clusters > self.num_items:
            raise ValueError("num_clusters cannot exceed num_items")
        if self.behaviors_min > self.behaviors_max:
            raise ValueError("behaviors_min cannot exceed behaviors_max")
        self.hidden = tuple(self.hidden)
        self.model_config(item_vocab=2, user_vocab=2)  # checks the model keys on the smallest vocabularies

    def to_dict(self) -> dict:
        return fields_dict(self)

    def model_config(self, item_vocab: int, user_vocab: int) -> ModelConfig:
        """The checkpoint's model schema: this run's hyperparameters on the data's vocabularies."""
        return ModelConfig(
            item_vocab, user_vocab, dim=self.dim, hidden=self.hidden, max_seq_len=self.max_seq_len,
            temperature=self.temperature, use_attention=self.model == "din", use_user_profile=self.use_user_profile,
        )
