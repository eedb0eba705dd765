"""Coupled Ricci iteration on the discrete periodic torus."""

from . import errors
from .config import RunConfig, build_run_config, eval_field_expr, load_config_file
from .functionals import (
    EnergyLedger,
    am_energy,
    cke_residual,
    ding,
    ding_first_variation,
    i_functional,
    j_functional,
    l_functional,
    ricci_potentials,
)
from .grid import (
    HessianField,
    PeriodicGrid,
    hessian,
    read_field,
    write_field,
)
from .iteration import (
    IterationConfig,
    IterationState,
    MonotoneReport,
    check_monotone,
    run,
    step_gauss_seidel,
)
from .monge_ampere import (
    BackgroundGeometry,
    SolveReport,
    continuity_solve,
    is_admissible,
    ma_density,
    solve_tke,
)
from .oracle import (
    StackedSystem,
    dense_newton,
    oracle_ding_descent,
    oracle_fixed_point,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundGeometry",
    "EnergyLedger",
    "HessianField",
    "IterationConfig",
    "IterationState",
    "MonotoneReport",
    "PeriodicGrid",
    "RunConfig",
    "SolveReport",
    "StackedSystem",
    "am_energy",
    "build_run_config",
    "check_monotone",
    "cke_residual",
    "continuity_solve",
    "dense_newton",
    "ding",
    "ding_first_variation",
    "errors",
    "eval_field_expr",
    "hessian",
    "i_functional",
    "is_admissible",
    "j_functional",
    "l_functional",
    "load_config_file",
    "ma_density",
    "oracle_ding_descent",
    "oracle_fixed_point",
    "read_field",
    "ricci_potentials",
    "run",
    "solve_tke",
    "step_gauss_seidel",
    "write_field",
]
