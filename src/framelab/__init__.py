"""framelab: a numerical laboratory for continuous frames and Beurling-type densities.

Modules, each imported by name (``from framelab.verify import run``);
``import framelab`` loads none of them:
  space         points, balls, point sets, measures on R^d
  kernels       Paley-Wiener / Fock / Gabor-Gaussian reproducing kernels
  quadrature    deterministic ball and complement integration on one grid of the line
  finframe      exact finite-dimensional frame oracle
  density       generalized Beurling density estimation
  localization  kernel tails, double tails and localization defects
  verify        scenario runner and machine-readable reports
  cli           the ``framelab`` command
"""

__version__ = "0.1.0"
