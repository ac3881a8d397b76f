import dataclasses
import math
import warnings

import numpy as np
import pytest

from helibend import (
    HelixSpec,
    Line2D,
    canonicalize_section,
    detect_direction,
    fit_tls_line,
    fold_half_open,
    generate,
    rectify_direction,
    segment_sections,
    surface_direction_angle,
)
from helibend.errors import IsotropicScatter, TooFewPoints
from helibend.linefit import LineOffsetWarning


def orthogonal_sse(points, a, b, c):
    pts = np.asarray(points, dtype=float)
    return float(np.sum((a * pts[:, 0] + b * pts[:, 1] + c) ** 2))


class TestTlsLine:
    def test_vertical_line(self):
        line = fit_tls_line([(0, 0), (0, 1), (0, 2)])
        assert (line.a, line.b, line.c) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    def test_diagonal_line(self):
        line = fit_tls_line([(0, 0), (1, 1), (2, 2)])
        r = 1 / math.sqrt(2)
        # u - v = 0 up to the sign convention
        assert (line.a, line.b) == pytest.approx((r, -r), abs=1e-12)
        assert line.c == pytest.approx(0.0, abs=1e-12)

    def test_two_distinct_points_exact(self):
        line = fit_tls_line([(1.0, 2.0), (4.0, 6.0)])
        assert abs(line.distances([(1.0, 2.0), (4.0, 6.0)])).max() < 1e-12

    def test_noisy_slope_against_dense_scan(self):
        # oracle: 1-D scan of orthogonal SSE over the line angle
        rng = np.random.default_rng(55)
        u = rng.uniform(-1, 1, 500)
        v = 3.0 * u + 1.0
        normal = np.array([-3.0, 1.0]) / math.sqrt(10)
        noise = rng.normal(0, 0.01, 500)
        pts = np.column_stack((u + noise * normal[0], v + noise * normal[1]))
        line = fit_tls_line(pts)
        slope = -line.a / line.b
        assert abs(slope - 3.0) / 3.0 < 0.005

        mean = pts.mean(axis=0)
        best = math.inf
        for ang in np.linspace(0, math.pi, 200_000, endpoint=False):
            a, b = math.cos(ang), math.sin(ang)
            c = -(a * mean[0] + b * mean[1])
            best = min(best, orthogonal_sse(pts, a, b, c))
        got = orthogonal_sse(pts, line.a, line.b, line.c)
        assert got <= best + 1e-10

    def test_orthogonal_optimality_perturbation(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            pts = rng.uniform(-5, 5, (30, 2)) * np.array([1.0, 0.2])
            ang = rng.uniform(0, math.pi)
            rot = np.array(
                [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
            )
            pts = pts @ rot.T + rng.uniform(-3, 3, 2)
            line = fit_tls_line(pts)
            mean = pts.mean(axis=0)
            sse = orthogonal_sse(pts, line.a, line.b, line.c)
            theta0 = math.atan2(line.b, line.a)
            for delta in (1e-4, -1e-4):
                a = math.cos(theta0 + delta)
                b = math.sin(theta0 + delta)
                c = -(a * mean[0] + b * mean[1])
                assert orthogonal_sse(pts, a, b, c) > sse

    def test_axis_swap_symmetry(self):
        rng = np.random.default_rng(57)
        pts = rng.uniform(-2, 2, (40, 2)) * np.array([1.0, 0.1]) + np.array([0.5, 3.0])
        line = fit_tls_line(pts)
        swapped = fit_tls_line(pts[:, ::-1])
        assert swapped.a == pytest.approx(abs(line.b), abs=1e-12)
        assert abs(swapped.b) == pytest.approx(abs(line.a), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(58)
        pts = rng.uniform(-2, 2, (40, 2)) * np.array([1.0, 0.15])
        first = fit_tls_line(pts)
        base = math.atan2(first.b, first.a)
        for rho in (0.3, -1.2, 2.5):
            rot = np.array(
                [[math.cos(rho), -math.sin(rho)], [math.sin(rho), math.cos(rho)]]
            )
            line = fit_tls_line(pts @ rot.T)
            got = math.atan2(line.b, line.a)
            assert abs(fold_half_open((got - base) - rho)) < 1e-10

    def test_isotropic_scatter(self):
        square = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        with pytest.raises(IsotropicScatter):
            fit_tls_line(square)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_tls_line([(1.0, 1.0)])
        with pytest.raises(TooFewPoints):
            fit_tls_line([(1.0, 1.0), (1.0, 1.0)])

    def test_isotropic_noise_angle_unbiased(self):
        # sigma_u = sigma_v makes the TLS angle estimate unbiased
        rng = np.random.default_rng(59)
        true_angle = 0.4
        direction = np.array([math.sin(true_angle), math.cos(true_angle)])
        errors = []
        for _ in range(300):
            s = rng.uniform(-2, 2, 120)
            pts = np.outer(s, direction) + rng.normal(0, 0.05, (120, 2))
            line = fit_tls_line(pts)
            got = surface_direction_angle(line)
            errors.append(fold_half_open(got - true_angle))
        errors = np.array(errors)
        se = errors.std(ddof=1) / math.sqrt(len(errors))
        assert abs(errors.mean()) < 3 * se


class TestDirectionAngle:
    def test_vertical_line_is_zero(self):
        assert surface_direction_angle(Line2D(1.0, 0.0, 0.0)) == 0.0

    def test_diagonal_line(self):
        r = 1 / math.sqrt(2)
        assert surface_direction_angle(Line2D(r, -r, 0.0)) == pytest.approx(math.pi / 4)

    def test_horizontal_line_boundary(self):
        assert surface_direction_angle(Line2D(0.0, 1.0, 0.0)) == pytest.approx(math.pi / 2)

    def test_exact_limits(self):
        assert surface_direction_angle(Line2D(1.0, 0.0, 0.0)) == 0.0
        assert surface_direction_angle(Line2D(0.0, 1.0, 0.0)) == math.pi / 2

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError, match="a\\^2 \\+ b\\^2 = 1"):
            Line2D(1.0, 1.0, 0.0)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="degenerate line"):
            Line2D.normalized(0.0, 0.0, 1.0)


class TestRectifyDirection:
    def test_identity_on_branch(self):
        line = Line2D(1.0, 0.0, 0.0)
        assert rectify_direction(0.0, line) == 0.0
        assert rectify_direction(0.3, line) == pytest.approx(0.3)

    def test_idempotent_and_sign_flip_invariant(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            a, b = rng.normal(0, 1, 2)
            if math.hypot(a, b) < 1e-6:
                continue
            c = rng.normal()
            line = Line2D.normalized(a, b, c)
            flipped = Line2D.normalized(-a, -b, -c)
            assert line == flipped  # normalization merges the two signs
            raw = surface_direction_angle(line)
            once = rectify_direction(raw, line)
            assert rectify_direction(once, line) == once
            assert -math.pi / 2 < once <= math.pi / 2

    def test_sweep_monotone_and_exact(self):
        # noise-free synthetic sweep of the true direction angle
        trues = np.radians(np.linspace(-80, 80, 33))
        outputs = []
        for true in trues:
            spec = HelixSpec(helix_angle=float(true), sections=5, extent=0.5, rng_seed=1)
            part = generate(spec)
            groups = segment_sections(part.points, labels=part.labels)
            canon = [canonicalize_section(g) for g in groups]
            res = detect_direction(canon, window=5)
            for r in res:
                assert abs(r.theta_x - true) < 1e-9
            outputs.append(res[0].theta_x)
        assert np.all(np.diff(outputs) > 0)


def shifted_sections(sections, points_per_section=48):
    """Canonical sections with section-specific shifts, which make the
    parallel-axis term of a pooled scatter matter."""
    spec = HelixSpec(sections=sections, points_per_section=points_per_section,
                     noise_sigma=0.05, rng_seed=6)
    part = generate(spec)
    groups = segment_sections(part.points, labels=part.labels)
    return [
        dataclasses.replace(c, points_canonical=c.points_canonical + [0.0, 0.3 * i, -0.2 * i])
        for i, c in enumerate(map(canonicalize_section, groups))
    ]


def assert_window_lines_fit_every_window_point(sections, window):
    # the reference fits the stacked points of each window directly
    canon = shifted_sections(sections)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LineOffsetWarning)
        res = detect_direction(canon, window=window)
    half = window // 2
    assert len(res) == sections
    for i, r in enumerate(res):
        points = np.vstack([c.points_canonical for c in canon[max(0, i - half) : i + half + 1]])
        line = fit_tls_line(points[:, 1:])
        assert (r.line.a, r.line.b, r.line.c) == pytest.approx((line.a, line.b, line.c), abs=1e-12)
        assert r.theta_x == pytest.approx(surface_direction_angle(line), abs=1e-12)
        rms = math.sqrt(np.mean(np.square(line.distances(points[:, 1:]))))
        assert r.rms_orthogonal_residual == pytest.approx(rms, rel=1e-9)


class TestDetectDirection:
    def test_window_below_one_rejected_and_no_sections_give_none(self):
        with pytest.raises(ValueError, match="window must be >= 1"):
            detect_direction(shifted_sections(3), window=0)
        assert detect_direction([]) == []

    def test_window_clamps_at_ends(self):
        spec = HelixSpec(sections=3, rng_seed=2)
        part = generate(spec)
        groups = segment_sections(part.points, labels=part.labels)
        canon = [canonicalize_section(g) for g in groups]
        res = detect_direction(canon, window=5)
        assert len(res) == 3
        for r in res:
            assert abs(r.theta_x - spec.helix_angle) < 1e-9

    def test_clean_part_produces_no_offset_warning(self):
        spec = HelixSpec(sections=8, rng_seed=3)
        part = generate(spec)
        groups = segment_sections(part.points, labels=part.labels)
        canon = [canonicalize_section(g) for g in groups]
        with warnings.catch_warnings():
            warnings.simplefilter("error", LineOffsetWarning)
            detect_direction(canon)

    def test_tightly_aligned_window_on_correct_part_does_not_warn(self):
        # a 1000 x 400 part at sigma 0.02 mm whose sections 23-27 once tripped
        # the warning when the line was fitted to major-chord endpoints only,
        # which happened to line up to a residual of about 0.004 mm
        amp = math.radians(3.0)
        spec = HelixSpec(
            radius=120.0, pitch_per_turn=60.0, semi_major=8.0, semi_minor=5.0,
            helix_angle=math.atan2(60.0 / (2 * math.pi), 120.0),
            twist_profile=lambda i: amp * math.sin(2 * math.pi * i / 999), extent=3.0,
            sections=1000, points_per_section=400, noise_sigma=0.02, rng_seed=18,
        )
        part = generate(spec)
        groups = segment_sections(part.points, labels=part.labels)
        canon = [canonicalize_section(g) for g in groups[:50]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", LineOffsetWarning)
            detect_direction(canon)

    def test_offset_sections_warn(self):
        spec = HelixSpec(sections=8, noise_sigma=0.02, rng_seed=3)
        part = generate(spec)
        groups = segment_sections(part.points, labels=part.labels)
        shifted = [
            dataclasses.replace(c, points_canonical=c.points_canonical + [0.0, 0.5, 0.0])
            for c in map(canonicalize_section, groups)
        ]
        with pytest.warns(LineOffsetWarning, match="check canonicalization"):
            detect_direction(shifted)

    def test_isotropic_window_names_its_section(self):
        # section 3 made a circle in the YZ plane: at window 1 its own
        # window's scatter has equal principal variances
        part = generate(HelixSpec(sections=6, rng_seed=6))
        canon = canonicalize_section(segment_sections(part.points, labels=part.labels))
        t = 2.0 * math.pi * np.arange(48) / 48
        circle = np.column_stack([np.zeros(48), np.cos(t), np.sin(t)])
        canon[3] = dataclasses.replace(canon[3], points_canonical=circle)
        with pytest.raises(IsotropicScatter) as caught:
            detect_direction(canon, window=1)
        assert caught.value.section == 3

    def test_window_line_is_the_fit_to_every_window_point(self):
        assert_window_lines_fit_every_window_point(sections=7, window=3)

    @pytest.mark.parametrize("sections, window", [(7, 1), (7, 4), (7, 7), (3, 5)],
                             ids=["window-1", "window-4", "window-7", "part-shorter-than-window"])
    def test_every_window_line_is_the_fit_to_its_points(self, sections, window):
        assert_window_lines_fit_every_window_point(sections, window)

    def test_pinned_window_bits(self):
        # float.hex of (theta_x, rms_orthogonal_residual, line.c) per window,
        # as pooling each window on its own computed them. 400-point sections
        # make a scatter taken as one array times its own transpose (syrk)
        # round differently from the general matmul (gemm); window 4 pools 5
        # sections, so this covers the interior and the clamped windows.
        pinned = [
            ("0x1.9861f9042e280p-3", "0x1.1ba29ab57f2d0p-2", "-0x1.55ae4bce8d1bbp-2"),
            ("0x1.968df5b388e20p-3", "0x1.81674b9a602b4p-2", "-0x1.002ab8577b031p-1"),
            ("0x1.9490ca7953d60p-3", "0x1.e5d631dcff7d2p-2", "-0x1.556b65bc1fb33p-1"),
            ("0x1.94069a90dbf10p-3", "0x1.e5dad50eb7b0dp-2", "-0x1.00096f323509dp+0"),
            ("0x1.946f61dbf8c50p-3", "0x1.e5efd2b47cbcfp-2", "-0x1.55691ad746440p+0"),
            ("0x1.94846a40d4060p-3", "0x1.e5eb25896fd9ep-2", "-0x1.aac52f6be2701p+0"),
            ("0x1.949076c7f5b60p-3", "0x1.e5eef169bd62ap-2", "-0x1.001087fe7edf3p+1"),
            ("0x1.968d7e7c8ceb0p-3", "0x1.818e4e66ae960p-2", "-0x1.15839667fee9ep+1"),
            ("0x1.98adc13632680p-3", "0x1.1bd48262bda5dp-2", "-0x1.2afd099f6baa3p+1"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LineOffsetWarning)
            res = detect_direction(shifted_sections(9, 400), window=4)
        assert [(r.theta_x.hex(), float(r.rms_orthogonal_residual).hex(), float(r.line.c).hex())
                for r in res] == pinned

    # float.hex of (a, b, c, theta_x, rms_orthogonal_residual) per window.
    # Both parts have windows clamped at each end and interior windows.
    @pytest.mark.parametrize("sections, window, pinned", [
        (7, 5, [
            ("0x1.f5cc4b8047a26p-1", "-0x1.96cc0b88a5432p-3", "-0x1.55c22e743b881p-2",
             "0x1.99854b54f7a00p-3", "0x1.1b33323ce50f6p-2"),
            ("0x1.f5edaa951f5a7p-1", "-0x1.943739fd07acdp-3", "-0x1.002f1782e1e4dp-1",
             "0x1.96e320de93460p-3", "0x1.818d71b8564b9p-2"),
            ("0x1.f60ac30bf8d80p-1", "-0x1.91f3794d4b636p-3", "-0x1.556b9ac21cd9dp-1",
             "0x1.9493cf3b591b0p-3", "0x1.e5aeea90abc48p-2"),
            ("0x1.f612705cacb37p-1", "-0x1.9159ef8aa459bp-3", "-0x1.0008a4874d3f8p+0",
             "0x1.93f73b0ae1a20p-3", "0x1.e5af4c4ffa0f0p-2"),
            ("0x1.f61dafffdd6d2p-1", "-0x1.90788905d0638p-3", "-0x1.555110e6e67f0p+0",
             "0x1.93116216f59e0p-3", "0x1.e5bb3f50ad37fp-2"),
            ("0x1.f60198e1bd9c3p-1", "-0x1.92aa74391ea9ep-3", "-0x1.8027744533709p+0",
             "0x1.954e6cfb311a0p-3", "0x1.813db561d0f85p-2"),
            ("0x1.f5e6f67558debp-1", "-0x1.94bc52b30736ep-3", "-0x1.ab04c32e638f1p+0",
             "0x1.976ae62f39e50p-3", "0x1.1ac6783f9555fp-2"),
        ]),
        (12, 9, [
            ("0x1.f6083d3f6c772p-1", "-0x1.9225dfcba2d6cp-3", "-0x1.556f218737be4p-1",
             "0x1.94c735c63b700p-3", "0x1.e59590c10bfdcp-2"),
            ("0x1.f62c5f8714073p-1", "-0x1.8f517c0923511p-3", "-0x1.aa8b7726736b6p-1",
             "0x1.91e48aa7c5c40p-3", "0x1.24a4f161e4610p-1"),
            ("0x1.f6585c2b75ac4p-1", "-0x1.8bd86593925ecp-3", "-0x1.ff7cc896d971ep-1",
             "0x1.8e5a3614e0e40p-3", "0x1.5646eecebb830p-1"),
            ("0x1.f68d1b9746d9ep-1", "-0x1.87a36d4cc7a2ep-3", "-0x1.2a1b94d956a8cp+0",
             "0x1.8a10c49d80280p-3", "0x1.87bba3faf6188p-1"),
            ("0x1.f6c1238533affp-1", "-0x1.837132275e7eap-3", "-0x1.54659a53dba8cp+0",
             "0x1.85ca8fb2c1d20p-3", "0x1.b9074bd335aebp-1"),
            ("0x1.f6c2c0b8fea73p-1", "-0x1.834fadbf45237p-3", "-0x1.a97c0642a7a0ep+0",
             "0x1.85a86d8df3ba0p-3", "0x1.b8ffdb527001ep-1"),
            ("0x1.f6c1af2af817ap-1", "-0x1.8365de9f0ad63p-3", "-0x1.fe97323e874e0p+0",
             "0x1.85bf06d9a6040p-3", "0x1.b907dbe731bd8p-1"),
            ("0x1.f6be9ae386ccap-1", "-0x1.83a5c955b1bc2p-3", "-0x1.29dc2c888cb83p+1",
             "0x1.86001e996d600p-3", "0x1.b9017a8ca6884p-1"),
            ("0x1.f688e41d152a8p-1", "-0x1.87f9f660a5041p-3", "-0x1.3f6c6f696b602p+1",
             "0x1.8a68ee93cbbd0p-3", "0x1.87b01f6becb8ep-1"),
            ("0x1.f65b1928a29dbp-1", "-0x1.8ba0c8249f5e9p-3", "-0x1.54f9efe8d7e84p+1",
             "0x1.8e21872a6ca70p-3", "0x1.5634e4d90788ap-1"),
            ("0x1.f6326aca53fccp-1", "-0x1.8ed7cbf10b4d3p-3", "-0x1.6a8711bf6524ap+1",
             "0x1.916879b715210p-3", "0x1.24918a4d54e2ep-1"),
            ("0x1.f60c20755090ap-1", "-0x1.91d831a0ce20cp-3", "-0x1.8016e84ae0c5bp+1",
             "0x1.9477fd1345ca0p-3", "0x1.e5569ea070f92p-2"),
        ]),
    ], ids=["7-sections-window-5", "12-sections-window-9"])
    def test_pinned_clamped_and_interior_window_bits(self, sections, window, pinned):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LineOffsetWarning)
            res = detect_direction(shifted_sections(sections), window=window)
        assert [tuple(float(v).hex() for v in (r.line.a, r.line.b, r.line.c, r.theta_x,
                                               r.rms_orthogonal_residual))
                for r in res] == pinned

    def test_even_window_pools_the_next_odd_width(self):
        spec = HelixSpec(sections=9, noise_sigma=0.05, rng_seed=8)
        part = generate(spec)
        canon = canonicalize_section(segment_sections(part.points, labels=part.labels))
        assert detect_direction(canon, window=4) == detect_direction(canon, window=5)
        assert detect_direction(canon, window=4) != detect_direction(canon, window=3)

    def test_line_passes_near_origin_after_canonicalization(self):
        spec = HelixSpec(sections=8, helix_angle=0.35, rng_seed=4)
        part = generate(spec)
        groups = segment_sections(part.points, labels=part.labels)
        canon = [canonicalize_section(g) for g in groups]
        for r in detect_direction(canon):
            assert abs(r.line.c) < 1e-6 * spec.semi_major

    @pytest.mark.parametrize(
        "twist, sigma, tol",
        [
            (math.pi / 2 - 1e-9, 0.0, 1e-6),
            (math.pi / 2, 0.0, 1e-9),
            (-math.pi / 2, 0.0, 1e-9),
            (math.pi / 2, 0.02, 5e-3),
            (-math.pi / 2, 0.02, 5e-3),
        ],
        ids=["near-90", "90", "minus-90", "90-noisy", "minus-90-noisy"],
    )
    def test_fully_twisted_section(self, twist, sigma, tol):
        # the major axis lies along x, which the ZY projection drops, so the
        # projected sections are short segments of the minor axis
        spec = HelixSpec(
            twist_profile=lambda i: twist, sections=4, noise_sigma=sigma, rng_seed=5
        )
        part = generate(spec)
        groups = segment_sections(part.points, labels=part.labels)
        canon = [canonicalize_section(g) for g in groups]
        res = detect_direction(canon)
        for r in res:
            assert abs(r.theta_x - spec.helix_angle) < tol
