"""Relations an evaluation keeps when the cloud changes but the part does not.

A turn of the whole cloud about the product axis, a shift along it, a
change of units, a shuffle of its rows and the sections named in reverse
order each leave every angle and every length of the part as it is (the
lengths scale with the units, and the azimuths turn with the cloud). Each
relation is checked against the evaluation of the unchanged cloud, so it
holds for any pose code, not only for the one that wrote the reference
outputs. Gauss-Newton angles move within its stopping tolerance.
"""

import math

import numpy as np
import pytest

from helibend import HelixSpec, evaluate_cloud, generate
from helibend.geometry import TRACE, rotation_z
from helibend.torsion import GAUSS_NEWTON

SECTIONS = 60
ANGLE_TOL = {TRACE: 1e-12, GAUSS_NEWTON: 1e-7}  # rad
LENGTH_RTOL = 1e-12


@pytest.fixture(scope="module")
def part():
    amp = math.radians(3.0)
    spec = HelixSpec(sections=SECTIONS, points_per_section=100, noise_sigma=0.02, rng_seed=3,
                     twist_profile=lambda i: amp * math.sin(2.0 * math.pi * i / (SECTIONS - 1)))
    return generate(spec)


@pytest.fixture(scope="module")
def unchanged(part):
    """The evaluation of the unchanged cloud by each fitter, labeled and not."""
    return {(fitter, labeled): evaluate(part.points, part.labels if labeled else None, fitter)
            for fitter in ANGLE_TOL for labeled in (True, False)}


def evaluate(points, labels, fitter):
    if labels is None:
        return evaluate_cloud(points, expected_sections=SECTIONS, fitter=fitter)
    return evaluate_cloud(points, labels=labels, fitter=fitter)


def assert_same_part(want, got, fitter, scale=1.0, turn=0.0, reverse=False):
    """``got`` reads the part ``want`` reads, with its lengths times
    ``scale``, its azimuths turned by ``turn`` and, if ``reverse``, its
    sections in reverse order."""
    order = slice(None, None, -1 if reverse else 1)
    np.testing.assert_allclose(got.theta_x[order], want.theta_x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.theta_y_rectified[order], want.theta_y_rectified,
                               rtol=0, atol=ANGLE_TOL[fitter])
    turned = np.remainder(got.azimuth_phi[order] - want.azimuth_phi - turn + math.pi,
                          2.0 * math.pi) - math.pi
    np.testing.assert_allclose(turned, 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.centroid_radius[order], scale * want.centroid_radius,
                               rtol=LENGTH_RTOL, atol=0)
    lengths = ("radius", "arc_length", "helical_arc_length", "pitch_per_radian")
    for name in lengths:
        assert getattr(got.arc, name) == pytest.approx(
            scale * getattr(want.arc, name), rel=LENGTH_RTOL, abs=0), name
    assert got.arc.central_angle == pytest.approx(want.arc.central_angle,
                                                  rel=LENGTH_RTOL, abs=0)


@pytest.mark.parametrize("fitter", sorted(ANGLE_TOL))
def test_turn_about_the_product_axis(part, unchanged, fitter):
    got = evaluate(part.points @ rotation_z(0.7).T, part.labels, fitter)
    assert_same_part(unchanged[fitter, True], got, fitter, turn=0.7)


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
@pytest.mark.parametrize("turn", [2.5, -1.0])
def test_turn_across_the_azimuth_seam(part, unchanged, turn, labeled):
    # The part spans azimuths 0 to pi, so a turn by 2.5 rad carries it across +-pi.
    got = evaluate(part.points @ rotation_z(turn).T, part.labels if labeled else None, TRACE)
    assert_same_part(unchanged[TRACE, labeled], got, TRACE, turn=turn)


@pytest.mark.parametrize("fitter", sorted(ANGLE_TOL))
def test_shift_along_the_product_axis(part, unchanged, fitter):
    got = evaluate(part.points + [0.0, 0.0, 25.0], part.labels, fitter)
    assert_same_part(unchanged[fitter, True], got, fitter)


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("fitter", sorted(ANGLE_TOL))
def test_change_of_units(part, unchanged, fitter, scale):
    got = evaluate(part.points * scale, part.labels, fitter)
    assert_same_part(unchanged[fitter, True], got, fitter, scale=scale)


@pytest.mark.parametrize("fitter", sorted(ANGLE_TOL))
def test_shuffled_rows(part, unchanged, fitter):
    order = np.random.default_rng(0).permutation(len(part.points))
    got = evaluate(part.points[order], part.labels[order], fitter)
    assert_same_part(unchanged[fitter, True], got, fitter)


@pytest.mark.parametrize("fitter", sorted(ANGLE_TOL))
def test_sections_named_in_reverse_order(part, unchanged, fitter):
    got = evaluate(part.points, SECTIONS - 1 - part.labels, fitter)
    assert_same_part(unchanged[fitter, True], got, fitter, reverse=True)
