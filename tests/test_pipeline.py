import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from helibend import (
    HelixSpec,
    canonicalize_section,
    detect_direction,
    evaluate_cloud,
    evaluate_sections,
    fit_trace,
    fold_half_open,
    generate,
    geometry,
    observe_torsion,
    segment_sections,
    torsion,
)
from helibend.errors import (
    AmbiguousBranch,
    DegenerateConfiguration,
    DegenerateSection,
    HelibendError,
    NotAnEllipse,
    TooFewSections,
)
from helibend.geometry import rotation_z

from helpers import random_helix_spec


class TestNoiseFreeRecovery:
    def test_planar_arc_degenerate_case(self):
        # no twist, no tilt, no pitch: everything should read zero
        spec = HelixSpec(pitch_per_turn=0.0, helix_angle=0.0, sections=10, rng_seed=1)
        part = generate(spec)
        result = evaluate_cloud(part.points, labels=part.labels)
        assert np.max(np.abs(result.theta_x)) < 1e-9
        assert np.max(np.abs(result.theta_y_rectified)) < 1e-9

    def test_random_specs_recover_truth(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            spec = random_helix_spec(rng)
            part = generate(spec)
            result = evaluate_cloud(part.points, labels=part.labels)
            assert np.max(np.abs(result.theta_x - part.truth.theta_x)) < 1e-7
            assert np.max(np.abs(result.theta_y_rectified - part.truth.theta_y)) < 1e-7
            geo = result.arc
            planar = spec.radius * spec.extent
            assert abs(geo.arc_length - planar) / planar < 1e-6
            p = spec.pitch_per_turn / (2 * math.pi)
            helical = math.sqrt(spec.radius**2 + p**2) * spec.extent
            assert abs(geo.helical_arc_length - helical) / helical < 1e-6

    def test_constant_five_degree_twist(self):
        twist = math.radians(5.0)
        spec = HelixSpec(sections=12, twist_profile=lambda i: twist, rng_seed=9)
        part = generate(spec)
        result = evaluate_cloud(part.points, labels=part.labels)
        assert np.max(np.abs(result.theta_y_rectified - twist)) < 1e-8

    @pytest.mark.parametrize("fitter", ["trace", "bookstein", "gauss-newton"])
    def test_all_fitters_exact(self, fitter):
        spec = HelixSpec(
            sections=8, twist_profile=lambda i: 0.1 + 0.02 * i, rng_seed=3
        )
        part = generate(spec)
        result = evaluate_cloud(part.points, labels=part.labels, fitter=fitter)
        assert np.max(np.abs(result.theta_y_rectified - part.truth.theta_y)) < 1e-7


class TestPipelinePlumbing:
    def test_unlabeled_cloud_path(self):
        spec = HelixSpec(
            radius=150.0, semi_major=3.0, semi_minor=2.0, extent=4.0, sections=20,
            points_per_section=24, rng_seed=5,
        )
        part = generate(spec)
        result = evaluate_cloud(part.points, expected_sections=20)
        assert len(result.fits) == 20
        assert np.max(np.abs(result.theta_x - part.truth.theta_x)) < 1e-7

    def test_section_records_consistent(self):
        spec = HelixSpec(sections=6, rng_seed=6)
        part = generate(spec)
        result = evaluate_cloud(part.points, labels=part.labels)
        for i in range(spec.sections):
            assert result.azimuth_phi[i] == pytest.approx(part.truth.phi[i], abs=1e-9)
            assert result.centroid_radius[i] == pytest.approx(spec.radius, abs=1e-9)
        assert result.fits.converged
        # workers and gn_max_iterations are keyword-only, so a call that
        # swaps the two ints cannot pass silently
        groups = segment_sections(part.points, labels=part.labels)
        with pytest.raises(TypeError):
            evaluate_sections(groups, "trace", 5, 1, 50)
        with pytest.raises(TypeError):
            evaluate_cloud(part.points, part.labels, None, "trace", 5, 50, 1)
        with pytest.raises(TypeError):
            observe_torsion([], [], "trace", 50, 1)

    def test_fast_twist_evaluates_without_warning(self):
        # the reading folds from 1.4 to -1.4; the nearest branch is -1.4 + pi
        twists = [0.7, 1.4, -1.4, -1.4]
        spec = HelixSpec(sections=4, twist_profile=lambda i: twists[i], rng_seed=10)
        part = generate(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            result = evaluate_sections(segment_sections(part.points, labels=part.labels))
        raw = [f.params.orientation for f in result.fits]
        assert np.max(np.abs(np.array(raw) - twists)) < 1e-8
        off = [fold_half_open(r - t) for r, t in zip(result.theta_y_rectified, twists)]
        assert np.max(np.abs(off)) < 1e-8

    def test_ambiguous_branch_warns_and_evaluates(self):
        # a 45 degree twist sits exactly between two branches
        spec = HelixSpec(sections=4, twist_profile=lambda i: math.pi / 4, rng_seed=11)
        part = generate(spec)
        with pytest.warns(AmbiguousBranch):
            result = evaluate_sections(segment_sections(part.points, labels=part.labels))
        assert len(result.fits) == 4

    def test_noisy_evaluation_stays_close(self):
        spec = HelixSpec(
            sections=20, noise_sigma=0.05, helix_angle=0.3,
            twist_profile=lambda i: 0.1 * math.sin(i / 3.0), rng_seed=7,
        )
        part = generate(spec)
        result = evaluate_cloud(part.points, labels=part.labels)
        assert np.max(np.abs(result.theta_x - part.truth.theta_x)) < 0.05
        assert np.max(np.abs(result.theta_y_rectified - part.truth.theta_y)) < 0.05
        geo = result.arc
        assert geo.radius == pytest.approx(spec.radius, rel=1e-3)

    def test_single_section_fails_arc_geometry(self):
        spec = HelixSpec(sections=2, rng_seed=8)
        part = generate(spec)
        groups = segment_sections(part.points, labels=part.labels)
        with pytest.raises(TooFewSections):
            evaluate_sections(groups[:1])


class TestRampTracking:
    """Linear twist ramps over 60 sections at sigma 0.02 mm: the rectified
    reading follows the twist through every quarter turn it passes."""

    @pytest.mark.parametrize("ramp_deg", [100.0, 170.0, 300.0, -400.0])
    def test_rectified_twist_follows_the_ramp(self, ramp_deg):
        ramp = math.radians(ramp_deg)
        spec = HelixSpec(sections=60, noise_sigma=0.02, rng_seed=3,
                         twist_profile=lambda i: ramp * i / 59)
        part = generate(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            result = evaluate_cloud(part.points, labels=part.labels)
        assert np.max(np.abs(result.theta_y_rectified - part.truth.theta_y)) < 5e-3


def fit_row(fit):
    p = fit.params
    return ([float(v).hex() for v in (*p.center, p.semi_major, p.semi_minor, p.orientation,
                                      fit.rms_algebraic_residual, fit.rms_geometric_residual)],
            fit.iterations, fit.converged)


def ragged_groups(sections, points_per_section, seed):
    """Sections of a noisy labeled part, every 25th one point short and every
    31st three points short."""
    spec = HelixSpec(sections=sections, points_per_section=points_per_section,
                     noise_sigma=0.02, rng_seed=seed)
    part = generate(spec)
    groups = segment_sections(part.points, labels=part.labels)
    return [g[:len(g) - (i % 25 == 7) - 3 * (i % 31 == 11)] for i, g in enumerate(groups)]


def in_canonical_frame(group, local):
    """Points with canonical coordinates ``local`` (zero mean) placed at the
    centroid and azimuth of ``group``."""
    centroid = group.mean(axis=0)
    return local @ rotation_z(math.atan2(centroid[1], centroid[0])).T + centroid


def failing_section(kind, count):
    """Zero-mean canonical coordinates whose (z, x) projection is a line or
    both branches of a hyperbola."""
    s = np.linspace(-1.5, 1.5, count if kind == "line" else count // 2)
    if kind == "line":
        return np.column_stack((0.0 * s, 0.0 * s, s))
    branch = np.column_stack((2.0 * np.sinh(s), 0.0 * s, np.cosh(s)))
    return np.vstack((branch, -branch))


# Collinear points have no trace fit (nor trace init) and a hyperbola's
# best-fit conic is not an ellipse.
EARLIEST_FAILURES = [
    (("line", "hyperbola"), DegenerateConfiguration),
    (("hyperbola", "line"), NotAnEllipse),
]


def assert_earliest_failing_section_raises(fitter, kinds, error):
    # The later failing section has the part's common size, so its block is
    # fitted before the earlier section's.
    groups = ragged_groups(12, 20, 22)
    first, later = 3, 8
    groups[first] = in_canonical_frame(groups[first], failing_section(kinds[0], 16))
    groups[later] = in_canonical_frame(groups[later], failing_section(kinds[1], 20))
    # What a loop fitting one section at a time raises.
    canonical = [canonicalize_section(g) for g in groups]
    failures = []
    for i, (c, d) in enumerate(zip(canonical, detect_direction(canonical))):
        try:
            observe_torsion([c], [d.theta_x], fitter)
        except HelibendError as exc:
            failures.append((i, exc))
    assert [(i, type(exc)) for i, exc in failures][0] == (first, error)
    assert [i for i, _ in failures] == [first, later]
    with pytest.raises(error) as caught:
        evaluate_sections(groups, fitter=fitter)
    assert str(caught.value) == str(failures[0][1])
    assert caught.value.section == first
    if error is NotAnEllipse:
        assert caught.value.conic == failures[0][1].conic


def assert_ragged_part_fits_each_section_as_alone(fitter):
    n = 20
    groups = ragged_groups(geometry._BLOCK_POINTS // n * 6 // 5, n, 21)
    sizes = [len(g) for g in groups]
    assert len(set(sizes)) >= 3
    # More sections of the common size than one block holds.
    assert sizes.count(n) > geometry._BLOCK_POINTS // n
    result = evaluate_sections(groups, fitter=fitter)
    canonical = [canonicalize_section(g) for g in groups]
    alone = [observe_torsion([c], [d.theta_x], fitter)[0]
             for c, d in zip(canonical, detect_direction(canonical))]
    assert [fit_row(f) for f in result.fits] == [fit_row(f) for f in alone]
    assert [f.conic for f in result.fits] == [f.conic for f in alone]
    assert result.fits.iterations == sum(f.iterations for f in alone)


class TestTraceBlocks:
    def test_ragged_part_fits_each_section_as_alone(self):
        assert_ragged_part_fits_each_section_as_alone("trace")

    @pytest.mark.parametrize("kinds, error", EARLIEST_FAILURES)
    def test_earliest_failing_section_raises(self, kinds, error):
        assert_earliest_failing_section_raises("trace", kinds, error)

    def test_blocks_hold_at_most_the_block_limit(self, monkeypatch):
        stacks = []

        def recorded(points):
            stacks.append(np.shape(points))
            return fit_trace(points)

        monkeypatch.setattr(torsion, "fit_trace", recorded)
        groups = ragged_groups(300, 20, 23)
        evaluate_sections(groups, fitter="trace")
        assert sum(shape[0] for shape in stacks) == 300
        assert all(shape[0] * shape[1] <= geometry._BLOCK_POINTS for shape in stacks)
        # One block per size but the common one, whose sections fill two.
        assert len(stacks) == len({len(g) for g in groups}) + 1


class TestGaussNewtonBlocks:
    def test_ragged_part_fits_each_section_as_alone(self):
        assert_ragged_part_fits_each_section_as_alone("gauss-newton")

    @pytest.mark.parametrize("kinds, error", EARLIEST_FAILURES)
    def test_earliest_failing_section_raises(self, kinds, error):
        assert_earliest_failing_section_raises("gauss-newton", kinds, error)


class TestCanonicalizeBlocks:
    @pytest.mark.parametrize("kinds, error, message", [
        (("on-axis", "non-finite"), DegenerateSection, "on the product axis"),
        (("non-finite", "on-axis"), ValueError, "non-finite"),
    ])
    def test_earliest_failing_section_raises(self, kinds, error, message):
        # The later failing section has the part's common size, so its block
        # is canonicalized before the earlier section's.
        groups = ragged_groups(12, 20, 24)
        first, later = 7, 8
        assert len(groups[first]) != len(groups[later]) == 20
        for i, kind in zip((first, later), kinds):
            if kind == "on-axis":
                groups[i] = groups[i] - groups[i].mean(axis=0) * [1.0, 1.0, 0.0]
            else:
                groups[i] = groups[i].copy()
                groups[i][5, 1] = math.inf
        with pytest.raises(error, match=message) as caught:
            evaluate_sections(groups)
        assert caught.value.section == first


# float.hex of (azimuth_phi, centroid_radius, theta_x, line_rms, raw theta_y)
# per section of PINNED_PART, as section-by-section code computed them.
_PINNED_FRONT = [
    ("0x1.2a7952c46781dp-12", "0x1.dfc1bfc6e3a81p+6", "0x1.9ac41f2141d80p-3", "0x1.27002e8de83a3p-6"),
    ("0x1.91c715cf260d1p-2", "0x1.e037e273473c3p+6", "0x1.9a731fa3ce0c0p-3", "0x1.2b56baf8337f9p-6"),
    ("0x1.924a75273d2bcp-1", "0x1.dfeb23d755c36p+6", "0x1.9a9b45bd9aea0p-3", "0x1.370a8998b525ep-6"),
    ("0x1.2d79afb4f6fc7p+0", "0x1.e00b6810f0b15p+6", "0x1.9a0ee4f0d12c0p-3", "0x1.464499a080b48p-6"),
    ("0x1.9233f2c2635d8p+0", "0x1.e012b6b2db61cp+6", "0x1.9a4ac751886a0p-3", "0x1.56cc69f72a5b1p-6"),
    ("0x1.f68c1ea95e332p+0", "0x1.dfcdda29ff805p+6", "0x1.99e4fb56621c0p-3", "0x1.5d2886b0f0df4p-6"),
    ("0x1.2d9ec1d2a5512p+1", "0x1.e030959b9635dp+6", "0x1.9a1131ee840a0p-3", "0x1.59a4a8253849fp-6"),
    ("0x1.5fe4b4e901da0p+1", "0x1.dfd867db4ee9fp+6", "0x1.99c36fb5a8ba0p-3", "0x1.56cba2a3f71bdp-6"),
    ("0x1.9213c449afc7bp+1", "0x1.e01d5576d3cf6p+6", "0x1.99b208160ddb0p-3", "0x1.53c83a7d621a9p-6"),
]
PINNED = {
    "trace": [*zip(_PINNED_FRONT, [
        "0x1.2e86208f62000p-10", "0x1.61efcd5013180p-6", "0x1.554e89b852900p-5",
        "0x1.02fea04634980p-4", "0x1.40a7375c7eca0p-4", "0x1.acfe99508f640p-4",
        "0x1.e7b8afc0d6c60p-4", "0x1.1a38c52013840p-3", "0x1.4b98b72ce7670p-3"])],
    "gauss-newton": [*zip(_PINNED_FRONT, [
        "0x1.f6b2d5bdbfa70p-10", "0x1.6a4a110b60c47p-6", "0x1.5886d174e5d98p-5",
        "0x1.058f9fac30070p-4", "0x1.3f2b986ad6df9p-4", "0x1.a93b5a3675977p-4",
        "0x1.e6f014506e9d3p-4", "0x1.1a57a039370ebp-3", "0x1.49f326aa442ccp-3"])],
}


@pytest.mark.parametrize("fitter", sorted(PINNED))
def test_pinned_part_keeps_its_bits(fitter):
    # A labeled part with every 7th point dropped, so its sections hold 20
    # or 21 points: a change of summation order or memory layout in any
    # stage before the fit moves some of these bits.
    part = generate(HelixSpec(sections=9, points_per_section=24, noise_sigma=0.02,
                              rng_seed=31, twist_profile=lambda i: 0.02 * i))
    keep = np.arange(len(part.points)) % 7 != 3
    result = evaluate_cloud(part.points[keep], labels=part.labels[keep], fitter=fitter)
    got = [((float(phi).hex(), float(radius).hex(), float(theta).hex(), float(rms).hex()),
            fit.params.orientation.hex())
           for phi, radius, theta, rms, fit in zip(result.azimuth_phi, result.centroid_radius,
                                                  result.theta_x, result.line_rms, result.fits)]
    assert got == PINNED[fitter]


def test_every_benchmark_trace_target_exists(monkeypatch):
    # The benchmark's per-layer metrics wrap these names; a renamed one
    # would be skipped and its metrics would silently go missing.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    with tracing.installed(tracing.Tracer()) as missing:
        assert missing == []
