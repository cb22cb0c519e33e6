"""galmin: weighted GCD-sum forms, multiplicative energy minimization over
the probability simplex, and Dirichlet character experiments."""

from .arith import FactorSieve, build_sieve
from .constants import VariationalConstants, solve_beta
from .forms import KernelKind, WeightVector
from .minimize import (
    MinimizationResult,
    exact_quadratic_minimum,
    grid_oracle,
    minimize_energy,
    minimize_quadratic,
)

__version__ = "0.1.0"

__all__ = [
    "FactorSieve",
    "build_sieve",
    "VariationalConstants",
    "solve_beta",
    "KernelKind",
    "WeightVector",
    "MinimizationResult",
    "exact_quadratic_minimum",
    "grid_oracle",
    "minimize_energy",
    "minimize_quadratic",
    "__version__",
]
