"""Desk-scale semantic segmentation with a dense multi-label
region-consistency module."""

__version__ = "0.1.0"

from .model import ModelConfig, build_model, forward, predict_labels  # noqa: F401
from .synth_data import SceneSpec, read_corpus, write_corpus  # noqa: F401
from .train import TrainConfig, evaluate, grad_check, run_experiment  # noqa: F401
