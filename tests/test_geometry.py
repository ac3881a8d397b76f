import math
import pickle
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from helibend import (
    BOOKSTEIN,
    TRACE,
    Conic2D,
    EllipseParams,
    HelixSpec,
    canonicalize_section,
    conic_to_params,
    fit_bookstein,
    fit_gauss_newton,
    fit_trace,
    fold_half_open,
    generate,
    params_to_conic,
)
from helibend.errors import DegenerateSection, NotAnEllipse, TooFewPoints
from helibend.geometry import (
    EllipseParams,
    conics_to_params,
    normalize_conic,
    normalize_conics,
    params_to_conics,
    rotation_z,
)

from helpers import random_ellipse, random_helix_spec


class TestCentroid:
    def test_ellipse_samples_against_direct_summation(self):
        t = 2 * math.pi * np.arange(1000) / 1000
        pts = np.column_stack(
            (5 + 7 * np.cos(t), -3 + 2 * np.sin(t), 2 + 0 * t)
        )
        got = canonicalize_section(pts).centroid
        # independent oracle: plain compensated summation, no numpy reductions
        oracle = [math.fsum(pts[:, k]) / len(pts) for k in range(3)]
        assert np.allclose(got, oracle, atol=1e-12)
        assert np.all(np.abs(got - np.array([5.0, -3.0, 2.0])) < 0.05)


class TestFold:
    def test_identity_on_branch(self):
        for x in (-1.5, -0.3, 0.0, 0.7, math.pi / 2):
            assert fold_half_open(x) == pytest.approx(x, abs=1e-15)

    def test_half_open_boundary(self):
        assert fold_half_open(-math.pi / 2) == pytest.approx(math.pi / 2)
        assert fold_half_open(math.pi / 2) == pytest.approx(math.pi / 2)

    def test_wraps(self):
        assert fold_half_open(math.pi) == pytest.approx(0.0, abs=1e-15)
        assert fold_half_open(2.0) == pytest.approx(2.0 - math.pi)
        assert fold_half_open(-2.0) == pytest.approx(math.pi - 2.0)


class TestEllipseParams:
    def test_rejects_center_of_wrong_shape(self):
        with pytest.raises(ValueError, match="center"):
            EllipseParams(np.zeros(3), 2.0, 1.0, 0.0)

    def test_rejects_minor_longer_than_major(self):
        with pytest.raises(ValueError, match="semi_major >= semi_minor"):
            EllipseParams(np.zeros(2), 1.0, 2.0, 0.0)

    @pytest.mark.parametrize("orientation", [-math.pi / 2, 2.0])
    def test_rejects_orientation_outside_half_open_range(self, orientation):
        with pytest.raises(ValueError, match="orientation"):
            EllipseParams(np.zeros(2), 2.0, 1.0, orientation)

    def test_center_is_a_read_only_copy(self):
        c = np.array([1.0, 2.0])
        params = EllipseParams(c, 3.0, 2.0, 0.1)
        c[0] = 99.0
        assert params.center.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            params.center[1] = 5.0

    @pytest.mark.parametrize("params", [
        EllipseParams(np.array([1.5, -2.0]), 5.0, 2.0, 0.7),
        EllipseParams.from_axes(np.array([-3.0, 4.0]), 2.0, 2.0, 0.7),
    ], ids=["ellipse", "circle"])
    def test_pickle_round_trip_keeps_every_field_and_a_read_only_centre(self, params):
        # A forked child sends its fits back pickled.
        copy = pickle.loads(pickle.dumps(params))
        assert copy.center.tolist() == params.center.tolist()
        assert astuple(copy)[1:] == astuple(params)[1:]
        with pytest.raises(ValueError, match="read-only"):
            copy.center[0] = 0.0

    def test_from_axes_swaps_to_major_first(self):
        params = EllipseParams.from_axes(np.zeros(2), 1.0, 2.0, 0.3)
        assert (params.semi_major, params.semi_minor) == (2.0, 1.0)
        assert params.orientation == pytest.approx(0.3 + math.pi / 2 - math.pi)
        assert params.orientation_defined

    def test_from_axes_folds_the_angle(self):
        params = EllipseParams.from_axes(np.zeros(2), 2.0, 1.0, 3.0)
        assert params.orientation == fold_half_open(3.0)

    def test_from_axes_circle_has_no_orientation(self):
        params = EllipseParams.from_axes(np.zeros(2), 2.0, 2.0 * (1 - 1e-7), 0.7)
        assert params.orientation == 0.0
        assert not params.orientation_defined


class TestCanonicalize:
    def _section_at(self, center, n=12, radius=3.0):
        t = 2 * math.pi * np.arange(n) / n
        pts = np.column_stack((np.zeros(n), radius * np.cos(t), radius * np.sin(t)))
        return pts + np.asarray(center, dtype=float)

    def test_zero_azimuth_is_pure_translation(self):
        pts = self._section_at((150.0, 0.0, 25.0))
        sec = canonicalize_section(pts)
        assert sec.azimuth_phi == pytest.approx(0.0, abs=1e-12)
        assert sec.centroid_radius == pytest.approx(150.0, abs=1e-9)
        assert np.allclose(sec.centroid, [150.0, 0.0, 25.0], atol=1e-9)
        assert np.allclose(sec.points_canonical, pts - sec.centroid, atol=1e-12)

    def test_quarter_turn(self):
        pts = self._section_at((0.0, 80.0, -4.0))
        sec = canonicalize_section(pts)
        assert sec.azimuth_phi == pytest.approx(math.pi / 2, abs=1e-12)
        assert np.allclose(sec.points_canonical.mean(axis=0), 0.0, atol=1e-9)

    def test_helix_section_pose(self):
        # oracle: generator ground truth at phi = 0.7, R = 120
        spec = HelixSpec(radius=120.0, extent=0.7, sections=2, rng_seed=5)
        part = generate(spec)
        last = part.points[part.labels == 1]
        sec = canonicalize_section(last)
        assert sec.azimuth_phi == pytest.approx(0.7, abs=1e-9)
        assert sec.centroid_radius == pytest.approx(120.0, abs=1e-9)

    def test_round_trip_and_rigidity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            spec = random_helix_spec(rng)
            part = generate(spec)
            pts = part.points[part.labels == 0]
            sec = canonicalize_section(pts)
            back = sec.points_canonical @ rotation_z(sec.azimuth_phi).T + sec.centroid
            assert np.max(np.abs(back - pts)) < 1e-9
            d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            d_out = np.linalg.norm(
                sec.points_canonical[:, None] - sec.points_canonical[None, :], axis=-1
            )
            assert np.max(np.abs(d_in - d_out)) < 1e-9

    def test_rotated_centroid_lands_on_x_axis(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pts = self._section_at(rng.uniform(-100, 100, 3))
            try:
                sec = canonicalize_section(pts)
            except DegenerateSection:
                continue
            ctr = pts.mean(axis=0)
            moved = rotation_z(-sec.azimuth_phi) @ ctr
            assert abs(math.atan2(moved[1], moved[0])) < 1e-12

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            canonicalize_section(self._section_at((10, 0, 0), n=5))

    def test_on_axis_is_degenerate(self):
        with pytest.raises(DegenerateSection):
            canonicalize_section(self._section_at((0.0, 0.0, 30.0)))


def canonical_bits(section):
    """Every bit of a CanonicalSection, -0.0 and layout-free."""
    return (section.points_canonical.tobytes(order="C"), section.centroid.tobytes(),
            section.azimuth_phi.hex(), section.centroid_radius.hex())


def reference_bits(points):
    """canonical_bits of one section, computed as the section-by-section
    code did; the mean sums each column in the order of the points' layout."""
    ctr = points.mean(axis=0)
    phi = math.atan2(ctr[1], ctr[0])
    rot = rotation_z(-phi)
    return ((points @ rot.T + (-rot @ ctr)).tobytes(order="C"), ctr.tobytes(), phi.hex(),
            math.hypot(ctr[0], ctr[1]).hex())


class TestCanonicalizeStack:
    @staticmethod
    def stack(count=7, n=40):
        spec = HelixSpec(sections=count, points_per_section=n, noise_sigma=0.05, rng_seed=17)
        part = generate(spec)
        return part.points.reshape(count, n, 3)

    @pytest.mark.parametrize("layout", ["C", "F", "list", "list-F"])
    def test_each_section_is_its_own_canonicalization(self, layout):
        stack = self.stack()
        if layout == "F":
            stack = np.asfortranarray(stack)
        elif layout == "list":
            stack = list(stack)
        elif layout == "list-F":
            stack = [np.asfortranarray(section) for section in stack]
        got = canonicalize_section(stack)
        assert isinstance(got, list) and len(got) == len(stack)
        expected = [reference_bits(section) for section in stack]
        assert [canonical_bits(c) for c in got] == expected
        assert [canonical_bits(canonicalize_section(section)) for section in stack] == expected

    def test_single_section_is_not_a_stack(self):
        section = self.stack()[2]
        assert canonical_bits(canonicalize_section(section)) == canonical_bits(
            canonicalize_section(section[None])[0])

    def test_empty_stack(self):
        assert canonicalize_section(np.empty((0, 10, 3))) == []

    @pytest.mark.parametrize("kinds", [("on-axis", "non-finite"), ("non-finite", "on-axis")])
    def test_raises_the_earliest_failing_section(self, kinds):
        stack = self.stack().copy()
        first, later = 2, 5
        for i, kind in zip((first, later), kinds):
            if kind == "on-axis":
                stack[i] -= stack[i].mean(axis=0) * [1.0, 1.0, 0.0]
            else:
                stack[i, 3, 2] = math.nan
        failures = []
        for i, section in enumerate(stack):
            try:
                canonicalize_section(section)
            except (DegenerateSection, ValueError) as exc:
                failures.append((i, exc))
        assert [i for i, _ in failures] == [first, later]
        expected = failures[0][1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(expected)) as caught:
                canonicalize_section(stack)
        assert type(caught.value) is type(expected)
        assert str(caught.value) == str(expected)
        assert caught.value.section == first

    def test_too_small_stack_raises_for_its_first_section(self):
        with pytest.raises(TooFewPoints, match="got 5") as caught:
            canonicalize_section(self.stack()[:, :5])
        assert caught.value.section == 0

    def test_rejects_a_stack_of_planar_points(self):
        with pytest.raises(ValueError, match=r"\(S, n, 3\)"):
            canonicalize_section(np.zeros((4, 10, 2)))


@pytest.mark.parametrize("stage, dim", [(fit_trace, 2), (fit_bookstein, 2),
                                         (fit_gauss_newton, 2), (canonicalize_section, 3)])
def test_unequal_sections_name_the_first_that_differs(stage, dim):
    rng = np.random.default_rng(40)
    sections = [rng.normal(size=(n, dim)) for n in (10, 10, 12, 9)]
    with pytest.raises(ValueError) as caught:
        stage(sections)
    assert str(caught.value) == ("section 2 has 12 points but section 0 has 10; "
                                 "a stack needs sections of equal point count")


@pytest.mark.parametrize("stage, dim", [(fit_trace, 2), (fit_bookstein, 2),
                                         (fit_gauss_newton, 2), (canonicalize_section, 3)])
def test_sections_of_unequal_shape_name_the_first_that_differs(stage, dim):
    rng = np.random.default_rng(41)
    for odd in ((10, dim + 1), (10,)):
        sections = [rng.normal(size=shape) for shape in ((10, dim), (10, dim), odd, (10, dim - 1))]
        with pytest.raises(ValueError) as caught:
            stage(sections)
        assert str(caught.value) == (f"section 2 has shape {odd} but section 0 has {(10, dim)}; "
                                     "a stack needs sections of equal shape")


class TestConicConversion:
    def test_unit_circle_trace(self):
        params = conic_to_params(Conic2D(0.5, 0.0, 0.5, 0.0, 0.0, -0.5))
        assert np.allclose(params.center, 0.0)
        assert params.semi_major == pytest.approx(1.0, abs=1e-12)
        assert params.semi_minor == pytest.approx(1.0, abs=1e-12)
        assert not params.orientation_defined

    def test_axis_aligned_ellipse(self):
        params = conic_to_params(Conic2D(0.2, 0.0, 0.8, 0.0, 0.0, -0.8))
        assert params.semi_major == pytest.approx(2.0, abs=1e-12)
        assert params.semi_minor == pytest.approx(1.0, abs=1e-12)
        assert params.orientation == pytest.approx(0.0, abs=1e-12)

    def test_params_to_conic_examples(self):
        circle = EllipseParams(np.zeros(2), 1.0, 1.0, 0.0, orientation_defined=False)
        c = normalize_conic(params_to_conic(circle), TRACE)
        assert (c.a11, c.a12, c.a22, c.c) == pytest.approx((0.5, 0.0, 0.5, -0.5), abs=1e-15)
        c = normalize_conic(params_to_conic(circle), BOOKSTEIN)
        r = 1 / math.sqrt(2)
        assert (c.a11, c.a22, c.c) == pytest.approx((r, r, -r), abs=1e-15)
        ell = EllipseParams(np.zeros(2), 2.0, 1.0, 0.0)
        c = normalize_conic(params_to_conic(ell), TRACE)
        assert (c.a11, c.a22, c.c) == pytest.approx((0.2, 0.8, -0.8), abs=1e-15)

    def test_conic_zero_on_boundary(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = random_ellipse(rng)
            for tag in (TRACE, BOOKSTEIN):
                conic = normalize_conic(params_to_conic(params), tag)
                residuals = conic.evaluate(params.boundary_points(32))
                assert np.max(np.abs(residuals)) < 1e-10

    def test_round_trip(self):
        params = EllipseParams(np.array([3.0, -1.0]), 5.0, 2.0, 0.4)
        back = conic_to_params(normalize_conic(params_to_conic(params), TRACE))
        assert np.allclose(back.center, params.center, atol=1e-10)
        assert back.semi_major == pytest.approx(5.0, abs=1e-10)
        assert back.semi_minor == pytest.approx(2.0, abs=1e-10)
        assert back.orientation == pytest.approx(0.4, abs=1e-10)

    def test_round_trip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            params = random_ellipse(rng)
            for tag in (TRACE, BOOKSTEIN):
                back = conic_to_params(normalize_conic(params_to_conic(params), tag))
                scale = params.semi_major
                assert np.max(np.abs(back.center - params.center)) < 1e-9 * max(
                    1.0, float(np.abs(params.center).max())
                )
                assert abs(back.semi_major - params.semi_major) < 1e-9 * scale
                assert abs(back.semi_minor - params.semi_minor) < 1e-9 * scale
                assert fold_half_open(back.orientation - params.orientation) == pytest.approx(
                    0.0, abs=1e-9
                )

    def test_constraint_exact(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            params = random_ellipse(rng)
            c = normalize_conic(params_to_conic(params), TRACE)
            assert abs(c.a11 + c.a22 - 1.0) < 1e-12
            c = normalize_conic(params_to_conic(params), BOOKSTEIN)
            assert abs(c.a11**2 + 2 * c.a12**2 + c.a22**2 - 1.0) < 1e-12

    def test_hyperbola_rejected(self):
        with pytest.raises(NotAnEllipse) as err:
            conic_to_params(Conic2D(1.0, 0.0, -1.0, 0.0, 0.0, -1.0))
        assert err.value.conic is not None

    def test_imaginary_ellipse_rejected(self):
        with pytest.raises(NotAnEllipse):
            conic_to_params(Conic2D(0.5, 0.0, 0.5, 0.0, 0.0, 0.5))


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def ellipse_bits(p):
    return hexes([*p.center, p.semi_major, p.semi_minor, p.orientation])


class TestStackedConversions:
    """The stacked conversions against the per-conic arithmetic they
    replace, written out here as the reference."""

    @staticmethod
    def ellipses(count, seed):
        rng = np.random.default_rng(seed)
        return [EllipseParams.from_axes(rng.uniform(-100, 100, 2), *rng.uniform(0.5, 60, 2),
                                        rng.uniform(-1.5, 1.5)) for _ in range(count)]

    def test_params_to_conics_matches_the_outer_products(self):
        params = self.ellipses(2000, 40)
        # A square by pow and by multiplication differ on some of these.
        assert any(p.semi_major**2 != p.semi_major * p.semi_major for p in params)
        got = params_to_conics(params)
        for row, p in zip(got, params):
            ca, sa = math.cos(p.orientation), math.sin(p.orientation)
            u, w = np.array([ca, sa]), np.array([-sa, ca])
            a = np.outer(u, u) / p.semi_major**2 + np.outer(w, w) / p.semi_minor**2
            b = -2.0 * a @ p.center
            c = float(p.center @ a @ p.center) - 1.0
            assert hexes(row) == hexes([a[0, 0], a[0, 1], a[1, 1], b[0], b[1], c])

    def test_conics_to_params_matches_one_at_a_time(self):
        params = self.ellipses(300, 41)
        coef = params_to_conics(params)
        coef[::3] *= -1.0  # the sign flip
        coef[7, 5] += 2.0  # F(centre) = +1: no real points
        coef[11, 1] = 10.0  # not definite
        good = [k for k in range(len(coef)) if k not in (7, 11)]
        got = conics_to_params(coef[good])
        for k, p in zip(good, got, strict=True):
            row = coef[k]
            alone = conic_to_params(Conic2D(*row.tolist()))
            a11, a12, a22, b1, b2, c = (-row if row[0] + row[2] < 0.0 else row).tolist()
            a = np.array([[a11, a12], [a12, a22]])
            center = np.linalg.solve(a, -0.5 * np.array([b1, b2]))
            u, v = center.tolist()
            k_value = a11 * u * u + 2.0 * a12 * u * v + a22 * v * v + b1 * u + b2 * v + c
            evals, evecs = np.linalg.eigh(a)
            axes = np.sqrt(-k_value / evals)
            expected = EllipseParams.from_axes(center, float(axes[0]), float(axes[1]),
                                               math.atan2(evecs[1, 0], evecs[0, 0]))
            assert ellipse_bits(p) == ellipse_bits(expected) == ellipse_bits(alone)
        # A stack that holds one failing row raises that row's own error.
        for k in (7, 11):
            stack = coef[good[:9] + [k] + good[9:]]
            with pytest.raises(NotAnEllipse) as alone:
                conic_to_params(Conic2D(*coef[k].tolist()))
            with pytest.raises(NotAnEllipse) as caught:
                conics_to_params(stack)
            assert str(caught.value) == str(alone.value)
            assert caught.value.conic == alone.value.conic

    def test_unknown_constraint_rejected(self):
        ring = params_to_conic(EllipseParams(np.array([1.0, 2.0]), 3.0, 2.0, 0.5))
        with pytest.raises(ValueError, match="unknown constraint: 'taubin'"):
            normalize_conics(np.array([astuple(ring)]), "taubin")

    @pytest.mark.parametrize("constraint, message", [
        (TRACE, "trace-normalization impossible"), (BOOKSTEIN, "quadratic part vanishes")])
    def test_normalize_failure_spares_the_other_rows_and_warns_nothing(self, constraint, message):
        # A stack raises its failing row's own error; a stack without it
        # normalizes each row as alone.
        flat = Conic2D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        ring = params_to_conic(EllipseParams(np.array([1.0, 2.0]), 3.0, 2.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAnEllipse, match=message) as alone:
                normalize_conic(flat, constraint)
            with pytest.raises(NotAnEllipse) as caught:
                normalize_conics(np.array([astuple(ring), astuple(flat)]), constraint)
            rows = normalize_conics(np.array([astuple(ring), astuple(ring)]), constraint)
        assert alone.value.conic == caught.value.conic == flat
        assert str(caught.value) == str(alone.value)
        assert Conic2D(*rows[1].tolist()) == normalize_conic(ring, constraint)
