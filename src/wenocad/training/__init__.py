from .dataset import DX, Dataset, generate_dataset, jump_label, smooth_label
from .loss import (
    Batch,
    LossBreakdown,
    gradient,
    predict_derivative,
    total_loss,
    total_loss_and_gradient,
)
from .optim import AdamWState, adamw_init, adamw_step
from .loop import EpochStats, Hyperparams, read_train_config, train, write_history

__all__ = [
    "AdamWState",
    "Batch",
    "DX",
    "Dataset",
    "EpochStats",
    "Hyperparams",
    "LossBreakdown",
    "adamw_init",
    "adamw_step",
    "generate_dataset",
    "gradient",
    "jump_label",
    "predict_derivative",
    "read_train_config",
    "smooth_label",
    "total_loss",
    "total_loss_and_gradient",
    "train",
    "write_history",
]
