"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Tolerances are pinned here and nowhere else. Criterion 4's Monte-Carlo
configuration (partial 108-degree arcs, sigma = 1% of the semi-minor axis)
was frozen after confirming the stability ordering is reproducible across
independent seeds; see the README's accuracy notes.
"""

import contextlib
import math
import time

import numpy as np

from helibend import (
    EllipseParams,
    Line2D,
    evaluate_cloud,
    fit_bookstein,
    fit_gauss_newton,
    fit_trace,
    fold_half_open,
    generate,
    point_to_ellipse_distance,
    rectify_direction,
    rectify_torsion,
    surface_direction_angle,
)
from helibend.cli import main
from helibend.linefit import fit_tls_line

from helpers import arc_points, random_ellipse, random_helix_spec


@contextlib.contextmanager
def criterion(number, label, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[criterion {number}] {label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_exact_fit_exactness():
    with criterion(1, "exact-fit exactness, 50 ellipses x 3 fitters", budget_s=5.0):
        rng = np.random.default_rng(1001)
        for _ in range(50):
            truth = random_ellipse(rng)
            pts = truth.boundary_points(8, t0=rng.uniform(0, 2 * math.pi))
            scale = truth.semi_major
            trace = fit_trace(pts)
            bookstein = fit_bookstein(pts)
            gauss = fit_gauss_newton(pts)
            for fit in (trace, bookstein, gauss):
                got = fit.params
                assert np.max(np.abs(got.center - truth.center)) < 1e-8 * scale
                assert abs(got.semi_major - truth.semi_major) < 1e-8 * scale
                assert abs(got.semi_minor - truth.semi_minor) < 1e-8 * scale
                assert abs(fold_half_open(got.orientation - truth.orientation)) < 1e-8
            ct, cb = trace.conic, bookstein.conic
            assert abs(ct.a11 + ct.a22 - 1.0) < 1e-12
            assert abs(cb.a11**2 + 2 * cb.a12**2 + cb.a22**2 - 1.0) < 1e-12


def test_criterion_2_noise_free_pipeline():
    with criterion(2, "end-to-end noise-free recovery, 20 random specs", budget_s=30.0):
        rng = np.random.default_rng(1002)
        for _ in range(20):
            spec = random_helix_spec(rng)
            part = generate(spec)
            result = evaluate_cloud(part.points, labels=part.labels)
            assert np.max(np.abs(result.theta_x - part.truth.theta_x)) < 1e-7
            assert np.max(np.abs(result.theta_y_rectified - part.truth.theta_y)) < 1e-7
            geo = result.arc
            planar = spec.radius * spec.extent
            assert abs(geo.arc_length - planar) / planar < 1e-6
            pitch = spec.pitch_per_turn / (2 * math.pi)
            helical = math.sqrt(spec.radius**2 + pitch**2) * spec.extent
            assert abs(geo.helical_arc_length - helical) / helical < 1e-6


def test_criterion_3_ideal_data_sweep(tmp_path):
    with criterion(3, "ideal-data sweep equals truth for every fitter", budget_s=60.0):
        out = tmp_path / "sweep"
        code = main(
            ["compare-fits", "--output-dir", str(out), "--trials", "181",
             "--min-angle-deg", "-90", "--max-angle-deg", "90", "--noise-sigma", "0"]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "fitter,trial,true_theta_y_rad,detected_raw_rad,detected_rectified_rad"
        seen = set()
        for row in rows[1:]:
            fitter, _, true, _, rect = row.split(",")
            seen.add(fitter)
            assert abs(float(rect) - float(true)) < 1e-8
        assert seen == {"trace", "bookstein", "gauss-newton"}
        for fitter in seen:
            assert (out / f"compare_{fitter}.svg").stat().st_size > 0
        assert (out / "summary.csv").exists()


def test_criterion_4_stability_ordering():
    label = "trace more stable than bookstein near 0 deg (95% bootstrap)"
    with criterion(4, label, budget_s=60.0):
        # frozen config: 30/10 mm ellipse, 60 points on a 108-degree arc,
        # sigma = 0.1 mm = 1% of the semi-minor axis, 1200 trials
        rng = np.random.default_rng(1004)
        err_trace, err_bookstein = [], []
        for _ in range(1200):
            true = rng.uniform(-math.radians(10), math.radians(10))
            params = EllipseParams(np.zeros(2), 30.0, 10.0, true)
            pts = arc_points(params, 60, 0.3, rng.uniform(0, 2 * math.pi))
            pts = pts + rng.normal(0, 0.1, pts.shape)
            ft = fit_trace(pts)
            fb = fit_bookstein(pts)
            err_trace.append(fold_half_open(ft.params.orientation - true))
            err_bookstein.append(fold_half_open(fb.params.orientation - true))
        err_trace = np.array(err_trace)
        err_bookstein = np.array(err_bookstein)
        assert np.std(err_trace) <= np.std(err_bookstein)

        boot = np.random.default_rng(2004)
        n = len(err_trace)
        deltas = np.empty(2000)
        for k in range(2000):
            idx = boot.integers(0, n, n)
            deltas[k] = np.std(err_trace[idx]) - np.std(err_bookstein[idx])
        q95 = float(np.quantile(deltas, 0.95))
        assert q95 < 0.0, f"bootstrap 95th percentile {q95:.3e} not below zero"


def test_criterion_5_rectification_filters():
    with criterion(5, "torsion and direction rectification filters", budget_s=30.0):
        # torsion: 200-section twisting series with injected axis swaps
        rng = np.random.default_rng(1005)
        idx = np.arange(200)
        truth = 0.45 * np.sin(idx / 17.0) + 0.2 * np.sin(idx / 41.0 + 1.0)
        raw = truth.copy()
        swapped = rng.choice(200, size=40, replace=False)
        for i in swapped:
            raw[i] = fold_half_open(truth[i] + math.pi / 2 * rng.choice([-1.0, 1.0]))
        recovered = rectify_torsion(raw)
        assert np.max(np.abs(recovered - truth)) < 1e-12  # zero branch errors

        # direction: idempotent and sign-flip invariant on random lines
        for _ in range(10_000):
            a, b = rng.normal(size=2)
            if math.hypot(a, b) < 1e-9:
                continue
            c = rng.normal()
            line = Line2D.normalized(a, b, c)
            flipped = Line2D.normalized(-a, -b, -c)
            raw_angle = surface_direction_angle(line)
            raw_flipped = surface_direction_angle(flipped)
            once = rectify_direction(raw_angle, line)
            assert rectify_direction(once, line) == once
            assert rectify_direction(raw_flipped, flipped) == once
            # the formula itself is flip invariant after folding
            direct = fold_half_open(math.pi / 2 - math.atan2(-a, b))
            direct_flipped = fold_half_open(math.pi / 2 - math.atan2(a, -b))
            assert abs(fold_half_open(direct - direct_flipped)) < 1e-12


def test_criterion_6_geometric_distance_oracle():
    with criterion(6, "foot-point distance vs 1e6-sample boundary scan", budget_s=60.0):
        rng = np.random.default_rng(1006)
        t = np.linspace(0.0, 2.0 * math.pi, 1_000_000, endpoint=False)
        cos_t, sin_t = np.cos(t), np.sin(t)
        for _ in range(100):
            params = random_ellipse(rng)
            probe = params.center + rng.uniform(-2.5, 2.5, 2) * params.semi_major
            got = point_to_ellipse_distance(probe, params)
            ca, sa = math.cos(params.orientation), math.sin(params.orientation)
            local = np.array(
                [
                    ca * (probe[0] - params.center[0]) + sa * (probe[1] - params.center[1]),
                    -sa * (probe[0] - params.center[0]) + ca * (probe[1] - params.center[1]),
                ]
            )
            bx = params.semi_major * cos_t
            by = params.semi_minor * sin_t
            brute = float(np.min(np.hypot(bx - local[0], by - local[1])))
            inside = (local[0] / params.semi_major) ** 2 + (
                local[1] / params.semi_minor
            ) ** 2 < 1.0
            expected = -brute if inside else brute
            assert abs(got - expected) < 1e-5 * params.semi_major


def test_criterion_7_tls_optimality_and_angle_limits():
    with criterion(7, "TLS perturbation optimality and angle formula limits", budget_s=30.0):
        rng = np.random.default_rng(1007)
        for _ in range(100):
            n = int(rng.integers(10, 200))
            spread = rng.uniform(0.05, 0.8)
            pts = rng.uniform(-5, 5, (n, 2)) * np.array([1.0, spread])
            ang = rng.uniform(0, math.pi)
            rot = np.array(
                [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
            )
            pts = pts @ rot.T + rng.uniform(-50, 50, 2)
            line = fit_tls_line(pts)
            mean = pts.mean(axis=0)
            base = float(np.sum(line.distances(pts) ** 2))
            theta0 = math.atan2(line.b, line.a)
            for delta in (1e-4, -1e-4):
                a = math.cos(theta0 + delta)
                b = math.sin(theta0 + delta)
                c = -(a * mean[0] + b * mean[1])
                perturbed = float(np.sum((a * pts[:, 0] + b * pts[:, 1] + c) ** 2))
                assert perturbed > base
        assert surface_direction_angle(Line2D(1.0, 0.0, 0.0)) == 0.0
        assert surface_direction_angle(Line2D(0.0, 1.0, 0.0)) == math.pi / 2


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical outputs across runs and worker counts", budget_s=60.0):
        clouds = []
        for name in ("s1", "s2"):
            data = tmp_path / name
            code = main(
                ["synth", "--output-dir", str(data), "--seed", "42",
                 "--noise-sigma", "0.05", "--twist-sine-amp-deg", "3"]
            )
            assert code == 0
            clouds.append(
                ((data / "cloud.csv").read_bytes(), (data / "truth.csv").read_bytes())
            )
        assert clouds[0] == clouds[1]

        reports = []
        for name, workers in (("e1", "1"), ("e2", "1"), ("e4", "4")):
            out = tmp_path / name
            code = main(
                ["evaluate", "--input", str(tmp_path / "s1" / "cloud.csv"),
                 "--output-dir", str(out), "--workers", workers]
            )
            assert code == 0
            reports.append(
                (
                    (out / "report.json").read_bytes(),
                    (out / "sections.csv").read_bytes(),
                    (out / "arc.csv").read_bytes(),
                )
            )
        assert reports[0] == reports[1] == reports[2]
