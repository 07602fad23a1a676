"""Planar compressible magnetohydrodynamic flow between two walls.

One-dimensional finite-volume laboratory for the full nonisentropic system
(density, longitudinal and transverse velocity, transverse magnetic field,
temperature) with temperature-dependent heat conduction and vacuum-capable
initial data, plus the diagnostics and verification instruments that watch
the quantities the underlying a-priori theory controls.
"""

from .config import ConfigError, RunConfig, parse_config, render_config
from .diagnostics import (
    CSV_COLUMNS,
    DiagnosticsAccumulator,
    DiagnosticsRecord,
    check_alpha,
    default_alpha,
    density_bound_monitor,
    entropy_functional,
    norm_suite,
    total_energy,
    total_mass,
)
from .initial import (
    SCENARIOS,
    CompatibilityReport,
    InitialData,
    compatibility_residuals,
    load_initial_table,
    regularize,
    scenario,
)
from .model import VACUUM_RHO, Grid, PhysParams, State, kappa, pressure
from .solver import (
    Forcing,
    NumericalError,
    PicardError,
    PositivityError,
    SchemeConfig,
    SimulationError,
    StepReport,
    consistency_residuals,
    run,
    stable_dt,
    step,
)
from .verification import (
    MMS_CASES,
    ContinuationReport,
    MMSCase,
    MMSReport,
    continuation_study,
    embedding_check,
    mms_convergence,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "CompatibilityReport",
    "ConfigError",
    "ContinuationReport",
    "DiagnosticsAccumulator",
    "DiagnosticsRecord",
    "Forcing",
    "Grid",
    "InitialData",
    "MMSCase",
    "MMSReport",
    "MMS_CASES",
    "NumericalError",
    "PhysParams",
    "PicardError",
    "PositivityError",
    "RunConfig",
    "SCENARIOS",
    "SchemeConfig",
    "SimulationError",
    "State",
    "StepReport",
    "VACUUM_RHO",
    "check_alpha",
    "compatibility_residuals",
    "consistency_residuals",
    "continuation_study",
    "default_alpha",
    "density_bound_monitor",
    "embedding_check",
    "entropy_functional",
    "kappa",
    "load_initial_table",
    "mms_convergence",
    "norm_suite",
    "parse_config",
    "pressure",
    "regularize",
    "render_config",
    "run",
    "scenario",
    "stable_dt",
    "step",
    "total_energy",
    "total_mass",
    "__version__",
]
