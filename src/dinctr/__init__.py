"""dinctr: a self-contained CTR prediction engine.

Attention-weighted behavior pooling over user histories, an MLP head
trained from scratch with Adam on binary cross-entropy, grouped ranking
metrics, a synthetic ad-log generator with known ground truth, and a CLI
covering the full generate -> train -> evaluate -> rank pipeline.
"""

from .config import RunConfig
from .data import (
    EncodedBatch,
    GroundTruth,
    Records,
    Vocabulary,
    build_vocab,
    encode,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    split,
)
from .metrics import (
    accuracy,
    auc,
    bce_loss,
    gauc,
    log_loss,
    rank_ads,
)
from .model import (
    DinModel,
    ModelConfig,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import grad_check, make_rng, sigmoid
from .optim import AdamState, adam_step, l2_penalty, train

__version__ = "0.1.0"

__all__ = [
    "EncodedBatch",
    "GroundTruth",
    "Records",
    "RunConfig",
    "Vocabulary",
    "build_vocab",
    "encode",
    "generate_synthetic",
    "load_jsonl",
    "save_jsonl",
    "split",
    "accuracy",
    "auc",
    "bce_loss",
    "gauc",
    "log_loss",
    "rank_ads",
    "DinModel",
    "ModelConfig",
    "init_model",
    "load_checkpoint",
    "save_checkpoint",
    "grad_check",
    "make_rng",
    "sigmoid",
    "AdamState",
    "adam_step",
    "l2_penalty",
    "train",
    "__version__",
]
