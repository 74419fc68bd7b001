"""Losses, datasets, gradient oracles, and the finite-difference verifier."""
from .data import Dataset, DatasetCursor, StreamExhausted
from .gradcheck import (GradCheckReport, convexity_spot_check, fd_check,
                        lipschitz_audit, smoothness_audit)
from .loss import (GLMLoss, Huber1DLoss, HuberMeanLoss, LinkFamily, LossSpec,
                   RATIONAL_L0, RATIONAL_L1, ZeroLoss, erm_grad, glm_loss,
                   huber_1d_loss, huber_mean_loss, rational_link, square_link,
                   synthetic_nonconvex_loss, tanh_link)

__all__ = [
    "Dataset", "DatasetCursor", "StreamExhausted",
    "GradCheckReport", "fd_check", "lipschitz_audit", "smoothness_audit",
    "convexity_spot_check",
    "LossSpec", "HuberMeanLoss", "Huber1DLoss", "GLMLoss", "LinkFamily",
    "erm_grad", "glm_loss", "huber_1d_loss", "huber_mean_loss",
    "rational_link", "square_link", "tanh_link", "synthetic_nonconvex_loss",
    "RATIONAL_L0", "RATIONAL_L1", "ZeroLoss",
]
