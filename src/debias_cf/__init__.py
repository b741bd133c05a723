"""Collaborative-filtering training and evaluation with popularity-bias
correction: contrastive alignment/uniformity objectives, inverse-propensity
weighting with learned relation-space propensities, a synthetic
missing-not-at-random click generator, and full-ranking top-K evaluation."""

from .data import (
    InteractionSet,
    SplitBundle,
    generate_synthetic_world,
    sample_clicks,
    split_unbiased_protocol,
)
from .embedding import EmbeddingTable, init_model, save_checkpoint
from .errors import ConfigError, DataError, DebiasCfError, NumericalError
from .evaluation import evaluate_topk
from .losses import ideal_alignment_loss
from .trainer import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DebiasCfError",
    "EmbeddingTable",
    "InteractionSet",
    "NumericalError",
    "SplitBundle",
    "TrainConfig",
    "evaluate_topk",
    "generate_synthetic_world",
    "ideal_alignment_loss",
    "init_model",
    "sample_clicks",
    "save_checkpoint",
    "split_unbiased_protocol",
    "train",
]
