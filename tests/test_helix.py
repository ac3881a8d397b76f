import math
import warnings

import numpy as np
import pytest

from helibend import (
    EllipseParams,
    HelixSpec,
    arc_parameters,
    canonicalize_section,
    generate,
    helix,
    segment_sections,
)
from helibend.errors import (
    EmptyCloud,
    InvalidSpec,
    NonMonotonicAzimuth,
    SectionCountMismatch,
    TooFewSections,
    UnderfilledSection,
)
from helibend.geometry import direction_rotation, rotation_z, twist_rotation

from helpers import random_helix_spec


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = HelixSpec(noise_sigma=0.1, rng_seed=42)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_noise(self):
        a = generate(HelixSpec(noise_sigma=0.1, rng_seed=1))
        b = generate(HelixSpec(noise_sigma=0.1, rng_seed=2))
        assert not np.array_equal(a.points, b.points)

    def test_truth_record_shapes(self):
        spec = HelixSpec(sections=7, points_per_section=10)
        part = generate(spec)
        assert part.points.shape == (70, 3)
        assert part.labels.shape == (70,)
        assert part.truth.phi.shape == (7,)
        assert part.truth.centroids.shape == (7, 3)
        assert np.all(np.diff(part.truth.phi) > 0)

    def test_single_section_rejected(self):
        with pytest.raises(InvalidSpec) as err:
            generate(HelixSpec(sections=1))
        assert err.value.field == "sections"

    def test_minimum_two_sections_ok(self):
        part = generate(HelixSpec(sections=2))
        assert len(np.unique(part.labels)) == 2

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"semi_major": 3.0, "semi_minor": 5.0}, "semi_minor"),
            ({"radius": 5.0, "semi_major": 8.0}, "radius"),
            ({"points_per_section": 4}, "points_per_section"),
            ({"extent": 0.0}, "extent"),
            ({"helix_angle": 2.0}, "helix_angle"),
            ({"noise_sigma": -0.1}, "noise_sigma"),
            ({"radius": math.nan}, "radius"),
            ({"radius": math.inf}, "radius"),
            ({"semi_major": math.inf}, "semi_major"),
            ({"pitch_per_turn": math.nan}, "pitch_per_turn"),
            ({"extent": math.inf}, "extent"),
            ({"noise_sigma": math.nan}, "noise_sigma"),
            ({"twist_profile": lambda i: math.nan}, "twist_profile"),
            ({"twist_profile": lambda i: 0.0 if i < 3 else math.inf}, "twist_profile"),
            ({"rng_seed": -1}, "rng_seed"),
            ({"rng_seed": 1.5}, "rng_seed"),
            ({"sections": 2.5}, "sections"),
            ({"points_per_section": 10.5}, "points_per_section"),
        ],
    )
    def test_invalid_fields(self, kwargs, field):
        with pytest.raises(InvalidSpec) as err:
            generate(HelixSpec(**kwargs))
        assert err.value.field == field

    def test_noise_is_isotropic_per_axis(self):
        sigma = 0.25
        spec = HelixSpec(sections=50, points_per_section=2400, noise_sigma=sigma, rng_seed=9)
        noisy = generate(spec)
        clean = generate(
            HelixSpec(sections=50, points_per_section=2400, noise_sigma=0.0, rng_seed=9)
        )
        residual = noisy.points - clean.points
        assert residual.shape[0] >= 100_000
        for axis in range(3):
            var = float(np.var(residual[:, axis]))
            assert abs(var - sigma**2) < 0.05 * sigma**2

    def test_section_centroids_match_truth(self):
        spec = HelixSpec(sections=9, rng_seed=10)
        part = generate(spec)
        for i in range(9):
            pts = part.points[part.labels == i]
            assert np.max(np.abs(pts.mean(axis=0) - part.truth.centroids[i])) < 1e-9


def _reference_points(spec):
    """The whole cloud built in one loop over the sections, every noise draw
    taken in section order: what every cut of the section stream must join to."""
    n = spec.points_per_section
    base = np.zeros((n, 3))
    base[:, [2, 0]] = EllipseParams(np.zeros(2), spec.semi_major, spec.semi_minor,
                                    0.0).boundary_points(n)
    rng = np.random.default_rng(spec.rng_seed)
    points = []
    for i in range(spec.sections):
        phi = spec.extent * i / (spec.sections - 1)
        center = np.array((spec.radius * math.cos(phi), spec.radius * math.sin(phi),
                           spec.pitch_per_turn / (2.0 * math.pi) * phi))
        rot = (rotation_z(phi) @ direction_rotation(spec.helix_angle)
               @ twist_rotation(spec.twist_at(i)))
        section = base @ rot.T + center
        if spec.noise_sigma > 0.0:
            section = section + rng.normal(0.0, spec.noise_sigma, section.shape)
        points.append(section)
    return np.concatenate(points)


class TestSectionStream:
    SPECS = {
        "noise-free": HelixSpec(sections=11, points_per_section=13),
        "noisy": HelixSpec(sections=11, points_per_section=13, noise_sigma=0.3, rng_seed=4),
        "twisted": HelixSpec(sections=11, points_per_section=13, noise_sigma=0.05,
                             rng_seed=8, twist_profile=lambda i: 0.1 * math.sin(i)),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("cuts", [[], [1], [5], [10], [3, 4, 9], list(range(1, 11))])
    def test_cuts_join_to_the_whole_cloud(self, monkeypatch, name, cuts):
        spec = self.SPECS[name]
        expected = _reference_points(spec)
        # Skip the earlier sections' noise in chunks of 7 draws, most of them
        # whole and the last one short.
        monkeypatch.setattr(helix, "_SKIP_DRAWS", 7)
        part = generate(spec)
        bounds = [0, *cuts, spec.sections]
        joined = [section for first, stop in zip(bounds, bounds[1:])
                  for section in part.sections(first, stop)]
        assert len(joined) == spec.sections
        assert np.concatenate(joined).tobytes() == expected.tobytes()
        assert part.points.tobytes() == expected.tobytes()
        assert np.array_equal(part.labels, np.repeat(np.arange(spec.sections), 13))

    def test_twist_profile_called_once_per_section(self):
        calls = []
        part = generate(HelixSpec(sections=6, twist_profile=lambda i: calls.append(i) or 0.0))
        list(part.sections(2, 5))
        part.points
        assert calls == list(range(6))

    @pytest.mark.parametrize("kwargs, section, where", [
        # Centroid z overflows from section 1 on.
        ({"pitch_per_turn": 1e308, "helix_angle": 0.17, "extent": 1.7e8}, 1, "inf]"),
        # Finite centroids, but the outline pushes x past the largest double.
        ({"radius": 1.79e308, "semi_major": 1e307, "semi_minor": 1e306,
          "helix_angle": 0.17, "extent": 0.17}, 0, "[inf, "),
        # Noise alone overflows.
        ({"noise_sigma": 1e308, "sections": 3}, 0, "inf"),
    ], ids=["centroid", "outline", "noise"])
    def test_overflowing_spec_names_the_first_section(self, kwargs, section, where):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSpec, match=rf"^section {section} has a non-finite point: "
                                                  r"\[.*\]$") as err:
                generate(HelixSpec(points_per_section=6, **kwargs))
        assert where in str(err.value)
        assert err.value.section == section

    def test_overflowing_azimuth_is_invalid(self):
        with pytest.raises(InvalidSpec, match=r"^azimuth is inf at section 2$") as err:
            generate(HelixSpec(extent=1.2e308, sections=3))
        assert err.value.field == "extent"

    def test_large_finite_spec_is_generated(self):
        spec = HelixSpec(radius=1e306, semi_major=1e305, semi_minor=1e304, sections=3,
                         points_per_section=6, noise_sigma=1e300)
        assert np.isfinite(generate(spec).points).all()


class TestSegmentSections:
    def test_labeled_grouping_is_exact(self):
        part = generate(HelixSpec(sections=12, rng_seed=11))
        groups = segment_sections(part.points, labels=part.labels)
        assert len(groups) == 12
        n = 48
        for i, group in enumerate(groups):
            assert np.array_equal(group, part.points[i * n : (i + 1) * n])

    @pytest.mark.parametrize(
        "labels",
        [
            np.tile(np.arange(5), 8),  # interleaved
            np.repeat([-7, -2, 0, 3], 10)[::-1],  # negative, descending in file order
            np.repeat([100, 4, 97, 12, 55], [6, 9, 7, 12, 6]),  # non-contiguous values
            np.full(20, 42),  # a single label
            np.random.default_rng(3).choice([-5, 1, 9, 1000], size=120),
            np.choose(np.repeat(np.arange(6), 8), [0, 1, 3, 2, 4, 5]),  # two labels swapped
            np.random.default_rng(4).permutation(np.repeat(np.arange(7), 9)),  # shuffled
            np.repeat(np.arange(6), 8)[::-1],  # descending
        ],
    )
    def test_labeled_grouping_matches_mask_reference(self, labels):
        pts = np.random.default_rng(len(labels)).normal(size=(len(labels), 3))
        groups = segment_sections(pts, labels=labels)
        # reference: one boolean mask per label value, in label order
        expected = [pts[labels == value] for value in np.unique(labels)]
        assert len(groups) == len(expected)
        for got, want in zip(groups, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "labels",
        [
            np.repeat(np.arange(6), 8),  # as synth writes a part
            np.repeat([-3, 0, 2, 40], [6, 9, 7, 12]),  # unequal runs of increasing values
            np.full(9, 7),  # a single label
            np.repeat([-0.0, 0.0, 1.5], 6),  # -0.0 and 0.0 are one group
            np.repeat([False, True], [6, 7]),
        ],
    )
    def test_ordered_labels_give_views_of_the_rows(self, labels):
        pts = np.random.default_rng(len(labels)).normal(size=(len(labels), 3))
        groups = segment_sections(pts, labels=labels)
        # reference: the rows gathered by one stable sort of the labels
        order = np.argsort(labels, kind="stable")
        counts = np.unique(labels, return_counts=True)[1]
        expected = np.split(pts[order], np.cumsum(counts)[:-1])
        assert len(groups) == len(expected)
        for got, want in zip(groups, expected):
            assert np.shares_memory(got, pts)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "labels, expected_sections, error, message",
        [
            # -0.0 and 0.0 are one group, named by its first label in file order
            ([-0.0, 0.0, -0.0, 0.0] + [1.0] * 6, None, UnderfilledSection,
             "section -0.0 holds 4 points; need 6"),
            ([1.0] * 6 + [0.0, -0.0, 0.0, -0.0], None, UnderfilledSection,
             "section 0.0 holds 4 points; need 6"),
            ([-0.0] * 6 + [0.0] * 6, 2, SectionCountMismatch,
             "labels name 1 sections, but 2 were expected"),
            ([False] * 4 + [True] * 6, None, UnderfilledSection,
             "section False holds 4 points; need 6"),
            ([True] * 6 + [False] * 4, None, UnderfilledSection,
             "section False holds 4 points; need 6"),
            ([7], None, UnderfilledSection, "section 7 holds 1 points; need 6"),
            ([7], 2, SectionCountMismatch, "labels name 1 sections, but 2 were expected"),
            ([0] * 6 + [1] * 5 + [2] * 6, None, UnderfilledSection,
             "section 1 holds 5 points; need 6"),
            ([0.0] * 6 + [np.nan] + [1.0] * 6, None, ValueError, "labels contain NaN"),
        ],
    )
    def test_labeled_names_and_messages(self, labels, expected_sections, error, message):
        pts = np.arange(3.0 * len(labels)).reshape(-1, 3)
        with pytest.raises(error) as err:
            segment_sections(pts, expected_sections=expected_sections, labels=np.array(labels))
        assert str(err.value) == message

    def test_labels_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"one value per point, got shape \(12, 1\)"):
            segment_sections(np.ones((12, 3)), labels=np.zeros((12, 1)))

    def test_nan_label_rejected(self):
        labels = np.repeat([0.0, 1.0, np.nan], 6)
        with pytest.raises(ValueError, match="NaN"):
            segment_sections(np.zeros((18, 3)) + np.arange(18)[:, None], labels=labels)

    def test_labeled_expected_sections_must_match(self):
        part = generate(HelixSpec(sections=5, rng_seed=17))
        groups = segment_sections(part.points, expected_sections=5, labels=part.labels)
        assert len(groups) == 5
        with pytest.raises(SectionCountMismatch, match="labels name 5 sections, but 3"):
            segment_sections(part.points, expected_sections=3, labels=part.labels)

    def test_unlabeled_recovers_separated_sections(self):
        # sections separated by > 3x their own angular width
        spec = HelixSpec(
            radius=150.0,
            semi_major=3.0,
            semi_minor=2.0,
            extent=5.5,
            sections=40,
            points_per_section=24,
            rng_seed=12,
        )
        part = generate(spec)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(part.points))
        groups = segment_sections(part.points[perm], expected_sections=40)
        assert len(groups) == 40
        truth_sets = [
            {tuple(p) for p in part.points[part.labels == i]} for i in range(40)
        ]
        for group in groups:
            got = {tuple(p) for p in group}
            assert got in truth_sets  # zero misassignments

    def test_part_crossing_pi_seam(self):
        spec = HelixSpec(extent=1.0, sections=8, rng_seed=13)
        part = generate(spec)
        # rotate the whole part so its azimuth range straddles +-pi
        ang = math.pi - 0.5
        rot = np.array(
            [
                [math.cos(ang), -math.sin(ang), 0.0],
                [math.sin(ang), math.cos(ang), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        rotated = part.points @ rot.T
        groups = segment_sections(rotated, expected_sections=8)
        assert len(groups) == 8
        assert all(len(g) == 48 for g in groups)

    def test_single_section_requested(self):
        part = generate(HelixSpec(sections=4, rng_seed=14))
        groups = segment_sections(part.points, expected_sections=1)
        assert len(groups) == 1
        assert len(groups[0]) == len(part.points)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            segment_sections(np.empty((0, 3)), expected_sections=3)

    def test_underfilled_section(self):
        part = generate(HelixSpec(sections=2, points_per_section=6, rng_seed=15))
        with pytest.raises(UnderfilledSection):
            segment_sections(part.points, expected_sections=4)

    def test_more_sections_than_the_points_split_into(self):
        # 12 points have 11 gaps between azimuths: 13 sections need 12 cuts
        part = generate(HelixSpec(sections=2, points_per_section=6, rng_seed=15))
        with pytest.raises(UnderfilledSection, match="fewer points than requested sections"):
            segment_sections(part.points, expected_sections=13)

    def test_underfilled_labeled_group_names_its_label(self):
        # labels 3 and 5: the short group is the second one but labeled 5
        part = generate(HelixSpec(sections=2, points_per_section=8, rng_seed=16))
        labels = np.where(part.labels == 0, 3, 5)
        with pytest.raises(UnderfilledSection, match="section 5 holds 4 points"):
            segment_sections(part.points[:12], labels=labels[:12])

    def test_labels_of_wrong_length_rejected(self):
        part = generate(HelixSpec(sections=2, rng_seed=17))
        with pytest.raises(ValueError, match="labels length"):
            segment_sections(part.points, labels=part.labels[:-1])

    def test_unlabeled_without_section_count_rejected(self):
        part = generate(HelixSpec(sections=2, rng_seed=18))
        with pytest.raises(ValueError, match="expected_sections must be >= 1"):
            segment_sections(part.points)


def poses(sections):
    """The azimuth, centroid radius and axial position columns of sections."""
    return ([s.azimuth_phi for s in sections], [s.centroid_radius for s in sections],
            [s.centroid[2] for s in sections])


class TestArcParameters:
    def _sections_for(self, spec):
        part = generate(spec)
        groups = segment_sections(part.points, labels=part.labels)
        return [canonicalize_section(g) for g in groups]

    def test_thirty_degree_arc(self):
        sections = self._sections_for(
            HelixSpec(radius=100.0, pitch_per_turn=0.0, extent=math.pi / 6, sections=2)
        )
        geo = arc_parameters(*poses(sections))
        assert geo.central_angle == pytest.approx(math.pi / 6, abs=1e-12)
        assert geo.arc_length == pytest.approx(52.35987755982988, abs=1e-4)

    def test_semicircle(self):
        sections = self._sections_for(
            HelixSpec(radius=50.0, pitch_per_turn=0.0, semi_major=6.0, semi_minor=4.0,
                      extent=math.pi, sections=5)
        )
        geo = arc_parameters(*poses(sections))
        assert geo.central_angle == pytest.approx(math.pi, abs=1e-12)
        assert geo.arc_length == pytest.approx(157.07963267948966, abs=1e-4)

    def test_helical_length_closed_form(self):
        spec = HelixSpec(radius=120.0, pitch_per_turn=60.0, extent=math.pi / 2, sections=10)
        geo = arc_parameters(*poses(self._sections_for(spec)))
        p = 60.0 / (2 * math.pi)
        expected = math.sqrt(120.0**2 + p**2) * math.pi / 2
        assert geo.helical_arc_length == pytest.approx(expected, rel=1e-6)
        assert geo.pitch_per_radian == pytest.approx(p, rel=1e-6)

    def test_multi_turn_unwrap(self):
        spec = HelixSpec(radius=90.0, extent=3.0 * math.pi, sections=60)
        geo = arc_parameters(*poses(self._sections_for(spec)))
        assert geo.central_angle == pytest.approx(3.0 * math.pi, abs=1e-9)

    def test_subarc_additivity(self):
        rng = np.random.default_rng(16)
        spec = random_helix_spec(rng)
        sections = self._sections_for(spec)
        total = arc_parameters(*poses(sections)).central_angle
        for cut in (1, len(sections) // 2, len(sections) - 2):
            left = arc_parameters(*poses(sections[: cut + 1])).central_angle
            right = arc_parameters(*poses(sections[cut:])).central_angle
            assert abs((left + right) - total) < 1e-12

    def test_too_few_sections(self):
        sections = self._sections_for(HelixSpec(sections=2))
        with pytest.raises(TooFewSections):
            arc_parameters(*poses(sections[:1]))

    def test_back_bending_rejected(self):
        sections = self._sections_for(HelixSpec(extent=1.0, sections=6))
        reordered = [sections[0], sections[3], sections[1]]
        with pytest.raises(NonMonotonicAzimuth):
            arc_parameters(*poses(reordered))

    @pytest.mark.parametrize("first, reverse", [(4, False), (4, True), (0, False)],
                             ids=["swap-4-5", "reversed-part-swap-4-5", "swap-0-1"])
    def test_back_bending_names_the_later_section(self, first, reverse):
        # sections first and first + 1 swapped: the first step against the
        # part's sweep ends at section first + 1
        sections = self._sections_for(HelixSpec(extent=1.0, sections=10))[::-1 if reverse else 1]
        sections[first], sections[first + 1] = sections[first + 1], sections[first]
        with pytest.raises(NonMonotonicAzimuth) as caught:
            arc_parameters(*poses(sections))
        assert caught.value.section == first + 1

    def test_section_centroid_recovery(self):
        spec = HelixSpec(sections=5, rng_seed=17)
        part = generate(spec)
        groups = segment_sections(part.points, labels=part.labels)
        for i, g in enumerate(groups):
            sec = canonicalize_section(g)
            assert np.max(np.abs(sec.centroid - part.truth.centroids[i])) < 1e-9
