"""Seeded jittered lattices: separated point sets whose truth follows from their density.

Moving each point of αZ^d by less than α/2 keeps it separated and leaves both
Beurling densities at 1/α^d.  So in the Fock space (Seip 1992; Seip and
Wallstén 1992) a jittered αZ² is a frame for α < 1, a Riesz sequence for
α > 1, and neither at α = 1; in Paley-Wiener with band π (Beurling; Kahane;
Landau) a jittered αZ is a frame for α < 1 and a Riesz sequence for α > 1,
and at α = 1 a jitter below 1/4 gives a Riesz basis (Kadec).  Each case
below is αZ^d on the indices −48…48, moved by
``default_rng(seed).uniform(-0.2α, 0.2α)`` per coordinate, and read by
``gram_truncation_study`` at its scenario's default ``gram_radii``.  The
test asserts only what the truth allows: no frame evidence where the set is
no frame, and no Riesz evidence where it is no Riesz sequence.  Each
Paley-Wiener case also reads both densities within ``tolerances.density`` of
1/α under ``density_schedule`` at ``density_rmax`` 16, and a second test
asserts that the estimate converged: the seven sets ``PW_UNCONVERGED`` lists
read a trend of 0.0625, one count in a ball of length 16, and are strict
xfails (ROADMAP items 16 and 22).  The Fock half of that check waits for
ROADMAP item 17: its ball scans take ~2.3 s a case.

Today's rule (ROADMAP items 1 and 22) gives false evidence in the four cases
``FALSE_EVIDENCE`` lists, each a strict xfail: Fock frame evidence at α = 1
(seeds 0 and 1) and at α = 1.1 (seed 0), and Paley-Wiener frame evidence at
α = 1.05 (seed 3).  Missing evidence is no failure, since desk-scale
evidence may stay silent: it misses 8 of the 15 Fock frames (all five at
α = 0.95) and 10 of the 15 Fock Riesz sequences, and 4 of the 20
Paley-Wiener frames (α ≤ 1; three at α = 1) and 2 of its 20 Riesz
sequences (α ≥ 1).
"""
import json

import numpy as np
import pytest

from framelab.cli import main
from framelab.density import density
from framelab.kernels import FockKernel, PaleyWienerKernel
from framelab.space import CountingMeasure, LebesgueMeasure, PointSet
from framelab.verify import DEFAULTS, density_schedule, gram_truncation_study

FAMILIES = {"fock": (FockKernel, 2), "paley-wiener": (PaleyWienerKernel, 1)}
ALPHAS = (0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25)
SEEDS = range(5)
FALSE_EVIDENCE = {("fock", 1.0, 0), ("fock", 1.0, 1), ("fock", 1.1, 0), ("paley-wiener", 1.05, 3)}
REASON = "the frame-evidence rule misreads a separated set whose truth its density gives (ROADMAP items 1 and 22)"


def jittered_lattice(alpha: float, dim: int, seed: int) -> np.ndarray:
    """αZ^dim on the indices −48…48 in meshgrid "ij" order, each coordinate moved uniformly by at most 0.2α."""
    ax = np.arange(-48, 49)
    grid = np.stack(np.meshgrid(*[ax] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    return alpha * grid + np.random.default_rng(seed).uniform(-0.2 * alpha, 0.2 * alpha, size=grid.shape)


def cases():
    for family in FAMILIES:
        for alpha in ALPHAS:
            for seed in SEEDS:
                known = (family, alpha, seed) in FALSE_EVIDENCE
                marks = pytest.mark.xfail(strict=True, reason=REASON) if known else ()
                yield pytest.param(family, alpha, seed, marks=marks, id=f"{family}-{alpha}-seed{seed}")


@pytest.mark.parametrize("family, alpha, seed", cases())
def test_no_evidence_the_truth_forbids(family, alpha, seed):
    kernel, dim = FAMILIES[family]
    points = PointSet(jittered_lattice(alpha, dim, seed))
    study = gram_truncation_study(kernel(), points, DEFAULTS[family]["gram_radii"])
    # Fock is neither at α = 1; Paley-Wiener is a Riesz basis there, so both kinds may show
    no_frame = alpha >= 1 if family == "fock" else alpha > 1
    no_riesz = alpha <= 1 if family == "fock" else alpha < 1
    assert not (no_frame and study["frame_evidence"])
    assert not (no_riesz and study["riesz_evidence"])


@pytest.mark.parametrize("alpha, seed", [pytest.param(a, s, id=f"{a}-seed{s}") for a in ALPHAS for s in SEEDS])
def test_paley_wiener_density_reads_one_over_alpha(alpha, seed):
    # bounded jitter leaves both Beurling densities at 1/α; convergence is not asserted, as the trend at
    # r_max 16 against 8 stays above its tolerance in 7 of the 35 cases, each within 0.04 of 1/α
    counting, lebesgue = CountingMeasure(PointSet(jittered_lattice(alpha, 1, seed))), LebesgueMeasure(1)
    dens = density(counting, lebesgue, density_schedule(counting, lebesgue, 16.0))
    tol = DEFAULTS["paley-wiener"]["tolerances"]["density"]
    assert abs(dens.upper - 1.0 / alpha) <= tol
    assert abs(dens.lower - 1.0 / alpha) <= tol


PW_UNCONVERGED = {(0.9, 2), (0.9, 3), (1.05, 0), (1.05, 4), (1.25, 2), (1.25, 3), (1.25, 4)}
UNCONVERGED_REASON = (
    "the trend at r_max 16 against 8 reads 0.0625, above its tolerance, while both bounds lie within 0.04 of 1/α: "
    "the convergence rule reads a bounded jitter as drift (ROADMAP items 16 and 22)"
)


@pytest.mark.parametrize(
    "alpha, seed",
    [
        pytest.param(
            a,
            s,
            id=f"{a}-seed{s}",
            marks=pytest.mark.xfail(strict=True, reason=UNCONVERGED_REASON) if (a, s) in PW_UNCONVERGED else (),
        )
        for a in ALPHAS
        for s in SEEDS
    ],
)
def test_paley_wiener_density_converges(alpha, seed):
    counting, lebesgue = CountingMeasure(PointSet(jittered_lattice(alpha, 1, seed))), LebesgueMeasure(1)
    assert density(counting, lebesgue, density_schedule(counting, lebesgue, 16.0)).converged


@pytest.mark.xfail(strict=True, reason=f"sampling-density: CONTRADICTION on a valid config; {REASON}")
def test_valid_point_set_gives_no_contradiction(tmp_path, capsys):
    # 1.05Z² jittered by at most 0.21 (jittered_lattice(1.05, 2, 36) up to rounding): a Riesz sequence
    # whose Gram windows the rule reads as a frame, beside an upper density ~0.92 < 1
    ax = np.arange(-48, 49)
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    points = 1.05 * grid + np.random.default_rng(36).uniform(-0.21, 0.21, size=(9409, 2))
    csv = tmp_path / "pts.csv"
    np.savetxt(csv, points, fmt="%.17g", delimiter=",", header="x1,x2", comments="")
    cfg = {"scenario": "fock", "points_csv": str(csv), "density_rmax": 16}
    main(["run", "--config", json.dumps(cfg), "--out-dir", str(tmp_path / "out")])
    assert "CONTRADICTION" not in capsys.readouterr().out
