"""Pseudospectral Navier-Stokes / stochastic Cahn-Hilliard simulator on the torus."""

from .constitutive import DoubleWell, FreeEnergySpec, QuadraticWell, TanhMixing, ViscositySpec, ZeroFunction
from .ensemble import EnsembleConfig, martingale_test, run_paths, run_trajectory, sweep
from .noise import NoiseSpec, geometric_noise, silent_noise
from .scheme import ApproxParams, InitialData, SchemeState, step
from .spectral import TorusGrid

__version__ = "0.1.0"

__all__ = [
    "TorusGrid",
    "FreeEnergySpec",
    "ViscositySpec",
    "DoubleWell",
    "QuadraticWell",
    "TanhMixing",
    "ZeroFunction",
    "NoiseSpec",
    "geometric_noise",
    "silent_noise",
    "ApproxParams",
    "InitialData",
    "SchemeState",
    "step",
    "EnsembleConfig",
    "run_trajectory",
    "run_paths",
    "martingale_test",
    "sweep",
]
