"""Deterministic simulator for heterogeneous federated learning under label noise."""

from .data import Dataset
from .nn import Hyperparams, ModelParams
from .protocol import AblationFlags, StrategyConfig

__version__ = "0.1.0"

__all__ = [
    "AblationFlags",
    "Dataset",
    "Hyperparams",
    "ModelParams",
    "StrategyConfig",
    "__version__",
]
