"""framelab: a numerical laboratory for continuous frames and Beurling-type densities.

Subpackages:
  space         points, balls, point sets, measures on R^d
  kernels       Paley-Wiener / Fock / Gabor-Gaussian reproducing kernels
  quadrature    deterministic ball, shell and complement integration on one grid
  finframe      exact finite-dimensional frame oracle
  density       generalized Beurling density estimation
  localization  tail and localization-defect diagnostics
  verify        scenario runner and machine-readable reports
"""
from .space import (
    AtomicMeasure,
    Ball,
    CountingMeasure,
    Lattice,
    LebesgueMeasure,
    PointSet,
    annular_ratio,
    ball_mass,
    separation,
)
from .kernels import (
    FockKernel,
    GaborGaussianKernel,
    PaleyWienerKernel,
    TabulatedKernel,
    diagonal_bounds,
    kernel_eval,
    normalized_inner,
)
from .quadrature import IntegralResult, QuadConfig, integrate_ball, integrate_complement
from .finframe import (
    FiniteFrame,
    canonical_dual,
    comparison_residual,
    diagonal_terms,
    frame_bounds,
    frame_operator,
    gram,
    project,
    riesz_bounds,
)
from .density import DensitySchedule, classical_density, density, lattice_schedule
from .localization import (
    FramePairSpec,
    double_tail,
    hap_check,
    localization_defect,
    mean_value_check,
    tail_sup,
)
from .verify import corollary_parseval_check, gram_truncation_study, run, theorem_main_table

__version__ = "0.1.0"
