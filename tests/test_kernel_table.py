"""A kernel is one class plus its ``kernels.KERNELS`` entry.

No module dispatches on a kernel's type: ``verify._gram_spectrum`` reads a
kernel's ``quarter_turn`` and ``twin``, ``localization`` looks its record up by
``profile``, and the CLI's kernel schema is built from each class's
``params``.  So a class that subclasses no kernel but declares Fock's
attributes and forwards Fock's Gram entries is Fock to every module, bit for
bit.
"""
import numpy as np
import pytest

from framelab import cli, verify
from framelab.kernels import KERNELS, FockKernel
from framelab.localization import FramePairSpec, localization_defect
from framelab.space import Ball, CountingMeasure, Lattice, LebesgueMeasure


class ForwardedFock:
    """Fock's declarations and Gram entries, in a class that is no kernel's subclass."""

    dim = FockKernel.dim
    mode_density = FockKernel.mode_density
    profile = FockKernel.profile
    quarter_turn = FockKernel.quarter_turn
    twin = FockKernel.twin

    def normalized_cross(self, x, y):
        return FockKernel().normalized_cross(x, y)


@pytest.mark.parametrize("scale, radius", [(0.5, 3.5), (0.8, 4.5)])
def test_gram_spectrum_of_a_new_class_is_focks_in_four_blocks(scale, radius, monkeypatch):
    pts = Lattice(scale, 2).points_in_ball(Ball([0.0, 0.0], radius))
    want = verify._gram_spectrum(FockKernel(), pts)
    blocks = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: blocks.append(len(H)) or eigvalsh(H))
    got = verify._gram_spectrum(ForwardedFock(), pts)
    assert len(blocks) == 4 and sum(blocks) == len(pts)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "f, g",
    [
        (LebesgueMeasure(2), CountingMeasure(Lattice(0.8, 2))),
        (CountingMeasure(Lattice(0.8, 2)), CountingMeasure(Lattice(0.9, 2))),
        (LebesgueMeasure(2), LebesgueMeasure(2)),
    ],
    ids=["lebesgue-lattice", "lattice-lattice", "lebesgue-lebesgue"],
)
def test_localization_rows_of_a_new_class_are_focks(f, g):
    for r in (4.0, 8.0):
        ball = Ball([0.0, 0.0], r)
        want = localization_defect(FramePairSpec(FockKernel(), f, g, [0.1, 0.2]), ball)
        assert localization_defect(FramePairSpec(ForwardedFock(), f, g, [0.1, 0.2]), ball) == want


def test_kernel_schema_is_what_the_table_declares():
    properties = cli._KERNEL_SCHEMA["properties"]
    assert properties["kernel"]["enum"] == list(KERNELS)
    # every param some class declares, once: no two kernels share a param name
    declared = [(name, shape) for cls in KERNELS.values() for name, shape in cls.params.items()]
    assert list(properties["params"]["properties"].items()) == declared
