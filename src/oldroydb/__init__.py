"""Pseudo-spectral Oldroyd-B simulation with Littlewood-Paley energy analysis."""

from .fields import (
    FieldError,
    ScalarField,
    SkewTensorField,
    SpectralField,
    SymTensorField,
    VectorField,
)
from .grid import GridError, TorusGrid
from .littlewood_paley import (
    DyadicPartition,
    besov_norm,
    build_partition,
    dyadic_block,
    hybrid_norm,
    paraproduct,
    remainder,
)
from .monitor import (
    EnergyLedger,
    KappaConstants,
    check_global_bound,
    compute_kappas,
    stability_experiment,
)
from .operators import (
    advect,
    deformation,
    div_tensor,
    g_alpha,
    inner_product,
    l2_norm,
    leray_project,
    vorticity,
)
from .snapshots import read_field, write_field
from .solver import (
    ConfigError,
    DivergenceError,
    FluidParams,
    InitSpec,
    Simulation,
    SolverConfig,
    friedrichs_truncate,
    simulate,
)

__version__ = "0.1.0"
