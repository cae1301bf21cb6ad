"""framelab: a numerical laboratory for continuous frames and Beurling-type densities.

Subpackages:
  space         points, balls, point sets, measures on R^d
  kernels       Paley-Wiener / Fock / Gabor-Gaussian reproducing kernels
  quadrature    deterministic ball and complement integration on one grid of the line
  finframe      exact finite-dimensional frame oracle
  density       generalized Beurling density estimation
  localization  kernel tails, double tails and localization defects
  verify        scenario runner and machine-readable reports
"""
from .space import (
    AtomicMeasure,
    Ball,
    CountingMeasure,
    Lattice,
    LebesgueMeasure,
    PointSet,
)
from .kernels import (
    FockKernel,
    GaborGaussianKernel,
    PaleyWienerKernel,
    TabulatedKernel,
)
from .quadrature import IntegralResult, QuadConfig, integrate_ball, integrate_complement
from .finframe import (
    FiniteFrame,
    canonical_dual,
    comparison_residual,
    frame_bounds,
    project,
)
from .density import DensitySchedule, density, lattice_schedule
from .localization import FramePairSpec, double_tail, localization_defect, tail_sup
from .verify import corollary_parseval_check, gram_truncation_study, run, theorem_main_table

__version__ = "0.1.0"
