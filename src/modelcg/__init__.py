"""Model-function conditional gradient solvers for constrained non-smooth
non-convex minimization, with proximal baselines and a regression benchmark.
"""

from .geometry import (
    Box,
    ConstraintSet,
    L1Ball,
    L2Ball,
    NuclearBall,
    ProductSet,
    Simplex,
)
from .inner import PiecewiseLinearSubproblem, pdhg_solve, primal_dual_gap
from .models import (
    AdditiveCompositeOracle,
    GaussNewtonOracle,
    LinearModelOracle,
    ProximalModelOracle,
    WeightedL1,
)
from .baselines import ProxLinearConfig, prox_linear_bt_solve, prox_linear_ls_solve
from .solver import (
    LineSearchParams,
    SolverConfig,
    SolverTrace,
    armijo_search,
    mcgm_solve,
    rate_certificate,
)
from .regression import generate_regression_data, load_dataset, save_dataset
from .runner import run_comparison

__all__ = [
    "Box",
    "ConstraintSet",
    "L1Ball",
    "L2Ball",
    "NuclearBall",
    "ProductSet",
    "Simplex",
    "PiecewiseLinearSubproblem",
    "pdhg_solve",
    "primal_dual_gap",
    "AdditiveCompositeOracle",
    "GaussNewtonOracle",
    "LinearModelOracle",
    "ProximalModelOracle",
    "WeightedL1",
    "ProxLinearConfig",
    "prox_linear_bt_solve",
    "prox_linear_ls_solve",
    "LineSearchParams",
    "SolverConfig",
    "SolverTrace",
    "armijo_search",
    "mcgm_solve",
    "rate_certificate",
    "generate_regression_data",
    "load_dataset",
    "save_dataset",
    "run_comparison",
]

__version__ = "0.1.0"
