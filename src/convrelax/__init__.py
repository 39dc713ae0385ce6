"""Randomized convex relaxations for one-hidden-layer non-overlapping
convolutional ReLU networks: planted-model recovery, dual certificates,
phase-transition experiments, and a rotation-regression pipeline."""

import os

# BLAS on one thread unless the caller says otherwise: a threaded BLAS
# rounds products differently, and an Optimal pair's bits, and so the
# sweep tables' errors, would follow the thread count.  It takes effect
# only if numpy has not been loaded yet.  A sweep's spec sidecar records
# these variables.
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_ENV:
    os.environ.setdefault(_var, "1")

from . import baseline, certify, cli, mnistreg, model, qpsolve, relax, sweep
from .model import Dataset, PlantedModel, forward, residual, sample_planted
from .qpsolve import ConvexProgram, KktSummary, SolveReport, SolveStatus, check_kkt, least_squares, solve
from .relax import (
    FitResult,
    RecoveryOutcome,
    assess,
    build,
    fit,
    fit_amplified,
    pseudoinverse_recovery,
)
from .certify import ActiveSets, Certificate, active_sets, check_cone_condition, cone_generators, dual_solve
from .baseline import GdConfig, fd_check, gd_fit, loss_grad
from .sweep import GridSpec, PhaseCell, estimate_boundary, run_grid, write_csv

__version__ = "0.1.0"
