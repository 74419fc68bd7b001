"""Experiment harness: configs, synthetic data, seeded sweeps, scaling fits."""
from .config import ExperimentConfig, build_loss
from .experiment import param_hash, read_csv_rows, run_experiment, run_single
from .fitting import ScalingFit, median_by_x, scaling_fit
from .rng import stream, stream_seed
from .synthetic import FiniteSupportDistribution, gen_support, gen_synthetic

__all__ = [
    "ExperimentConfig", "build_loss", "run_experiment", "run_single",
    "read_csv_rows", "param_hash", "ScalingFit", "scaling_fit", "median_by_x",
    "stream", "stream_seed", "FiniteSupportDistribution", "gen_support",
    "gen_synthetic",
]
