import math
import re

import numpy as np
import pytest

from helibend import (
    BOOKSTEIN,
    TRACE,
    EllipseParams,
    FitBatch,
    fit_bookstein,
    fit_gauss_newton,
    fit_trace,
    fold_half_open,
    geometric_residuals,
    moment_init,
    params_to_conic,
    point_to_ellipse_distance,
)
from helibend import conicfit
from helibend.conicfit import ellipse_foot_point
from helibend.errors import (
    CollapsedAxis,
    DegenerateConfiguration,
    HelibendError,
    NotAnEllipse,
    TooFewPoints,
)
from helibend.geometry import canonicalize_section, normalize_conic
from helibend.helix import HelixSpec, generate, segment_sections
from helibend.linefit import detect_direction
from helibend.torsion import GAUSS_NEWTON, observe_torsion, rectify_against

from helpers import arc_points, foot_points_alone, random_ellipse


def angle_error(got, true):
    return abs(fold_half_open(got - true))


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def fit_bits(fit):
    p = fit.params
    return (hexes([*p.center, p.semi_major, p.semi_minor, p.orientation,
                   fit.rms_algebraic_residual, fit.rms_geometric_residual]),
            fit.conic, fit.iterations, fit.converged)


def noisy_arcs(count, n, seed):
    """Noisy arcs of random ellipses, one (n, 2) C-ordered array each."""
    rng = np.random.default_rng(seed)
    return [arc_points(random_ellipse(rng), n, rng.uniform(0.3, 1.0), rng.uniform(0, 2 * math.pi))
            + rng.normal(0.0, 0.05, (n, 2)) for _ in range(count)]


def fit_error(fit, pts):
    """The error ``fit`` raises on one section, or None."""
    try:
        fit(pts)
    except HelibendError as exc:
        return exc
    return None


def failing_section(kind, n):
    """n points that a linear fit rejects: on a line, on both branches of a
    hyperbola, or all at one point."""
    s = np.linspace(-1.2, 1.2, n // 2 if kind == "hyperbola" else n)
    if kind == "line":
        return np.column_stack((s, 0.5 * s + 1.0))
    if kind == "point":
        return np.full((n, 2), 3.0)
    branch = np.column_stack((np.cosh(s), 2.0 * np.sinh(s)))
    return np.vstack((branch, -branch))


class TestTraceFit:
    def test_unit_circle(self):
        pts = EllipseParams(np.zeros(2), 1.0, 1.0, 0.0, orientation_defined=False).boundary_points(6)
        fit = fit_trace(pts)
        c = fit.conic
        assert (c.a11, c.a12, c.a22) == pytest.approx((0.5, 0.0, 0.5), abs=1e-12)
        assert (c.b1, c.b2, c.c) == pytest.approx((0.0, 0.0, -0.5), abs=1e-12)

    def test_axis_aligned_ellipse(self):
        pts = EllipseParams(np.zeros(2), 2.0, 1.0, 0.0).boundary_points(8)
        c = fit_trace(pts).conic
        assert (c.a11, c.a12, c.a22) == pytest.approx((0.2, 0.0, 0.8), abs=1e-12)
        assert c.c == pytest.approx(-0.8, abs=1e-12)

    def test_noisy_orientation_within_half_degree(self):
        # tolerance confirmed by Monte-Carlo: error std here is ~0.02 deg
        rng = np.random.default_rng(42)
        true = math.radians(20.0)
        params = EllipseParams(np.array([100.0, 0.0]), 30.0, 10.0, true)
        pts = params.boundary_points(200) + rng.normal(0, 0.05, (200, 2))
        fit = fit_trace(pts)
        assert angle_error(fit.params.orientation, true) < math.radians(0.5)


class TestBooksteinFit:
    def test_unit_circle(self):
        pts = EllipseParams(np.zeros(2), 1.0, 1.0, 0.0, orientation_defined=False).boundary_points(6)
        c = fit_bookstein(pts).conic
        r = 1 / math.sqrt(2)
        assert (c.a11, c.a12, c.a22) == pytest.approx((r, 0.0, r), abs=1e-12)
        assert (c.b1, c.b2, c.c) == pytest.approx((0.0, 0.0, -r), abs=1e-12)

    def test_axis_aligned_ellipse(self):
        pts = EllipseParams(np.zeros(2), 2.0, 1.0, 0.0).boundary_points(8)
        c = fit_bookstein(pts).conic
        s = math.sqrt(0.68)
        assert (c.a11, c.a12, c.a22) == pytest.approx((0.2 / s, 0.0, 0.8 / s), abs=1e-12)

    def test_noisy_orientation_within_half_degree(self):
        rng = np.random.default_rng(43)
        true = math.radians(20.0)
        params = EllipseParams(np.array([100.0, 0.0]), 30.0, 10.0, true)
        pts = params.boundary_points(200) + rng.normal(0, 0.05, (200, 2))
        fit = fit_bookstein(pts)
        assert angle_error(fit.params.orientation, true) < math.radians(0.5)


class TestIndependentSolverOracles:
    """Both linear fits re-derived by unrelated closed-form routes."""

    @staticmethod
    def _normalize(pts):
        mean = pts.mean(axis=0)
        centered = pts - mean
        scale = math.sqrt(float(np.mean(np.sum(centered**2, axis=1))))
        return centered / scale, mean, scale

    @staticmethod
    def _params_from_scaled_conic(coeffs, mean, scale):
        # a similarity transform maps ellipse parameters directly
        from helibend import Conic2D, conic_to_params

        a11, a12, a22, b1, b2, c = coeffs
        local = conic_to_params(Conic2D(a11, a12, a22, b1, b2, c))
        return (
            local.center * scale + mean,
            local.semi_major * scale,
            local.semi_minor * scale,
            local.orientation,
        )

    def _noisy_ellipse(self, rng):
        params = random_ellipse(rng)
        pts = params.boundary_points(40, t0=rng.uniform(0, 2 * math.pi))
        return pts + rng.normal(0, 0.01 * params.semi_minor, pts.shape)

    def test_trace_matches_lagrange_solution(self):
        # oracle: minimize ||D theta||^2 s.t. e^T theta = 1 has the closed
        # form theta = G^-1 e / (e^T G^-1 e) with G = D^T D
        rng = np.random.default_rng(71)
        for _ in range(10):
            pts = self._noisy_ellipse(rng)
            norm, mean, scale = self._normalize(pts)
            u, v = norm[:, 0], norm[:, 1]
            design = np.column_stack((u * u, 2 * u * v, v * v, u, v, np.ones_like(u)))
            g = design.T @ design
            e = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
            ginv_e = np.linalg.solve(g, e)
            theta = ginv_e / float(e @ ginv_e)
            center, major, minor, orient = self._params_from_scaled_conic(theta, mean, scale)

            fit = fit_trace(pts).params
            assert np.max(np.abs(fit.center - center)) < 1e-8
            assert abs(fit.semi_major - major) < 1e-8
            assert abs(fit.semi_minor - minor) < 1e-8
            assert angle_error(fit.orientation, orient) < 1e-8

    def test_bookstein_matches_projection_eigen_solution(self):
        # oracle: smallest eigenvector of D1^T (I - P2) D1 in the
        # sqrt(2)-scaled quadratic basis, linear part from back substitution
        rng = np.random.default_rng(72)
        for _ in range(10):
            pts = self._noisy_ellipse(rng)
            norm, mean, scale = self._normalize(pts)
            u, v = norm[:, 0], norm[:, 1]
            d1 = np.column_stack((u * u, math.sqrt(2.0) * u * v, v * v))
            d2 = np.column_stack((u, v, np.ones_like(u)))
            proj = d2 @ np.linalg.solve(d2.T @ d2, d2.T)
            m = d1.T @ (np.eye(len(pts)) - proj) @ d1
            _, evecs = np.linalg.eigh(m)
            p = evecs[:, 0]
            q = -np.linalg.solve(d2.T @ d2, d2.T @ (d1 @ p))
            coeffs = (p[0], p[1] / math.sqrt(2.0), p[2], q[0], q[1], q[2])
            center, major, minor, orient = self._params_from_scaled_conic(coeffs, mean, scale)

            fit = fit_bookstein(pts).params
            assert np.max(np.abs(fit.center - center)) < 1e-8
            assert abs(fit.semi_major - major) < 1e-8
            assert abs(fit.semi_minor - minor) < 1e-8
            assert angle_error(fit.orientation, orient) < 1e-8


class TestSharedFitProperties:
    def test_exact_points_give_tiny_algebraic_residuals(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = random_ellipse(rng)
            pts = params.boundary_points(9)
            for fit in (fit_trace(pts), fit_bookstein(pts)):
                assert np.max(np.abs(fit.conic.evaluate(pts))) < 1e-9

    def test_constraints_satisfied_under_noise(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            params = random_ellipse(rng)
            pts = params.boundary_points(40)
            pts = pts + rng.normal(0, 0.01 * params.semi_minor, pts.shape)
            ct = fit_trace(pts).conic
            assert abs(ct.a11 + ct.a22 - 1.0) < 1e-12
            cb = fit_bookstein(pts).conic
            assert abs(cb.a11**2 + 2 * cb.a12**2 + cb.a22**2 - 1.0) < 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(7)
        params = random_ellipse(rng)
        pts = params.boundary_points(30)
        pts = pts + rng.normal(0, 0.05, pts.shape)
        shift = np.array([17.25, -333.5])
        for fitter in (fit_trace, fit_bookstein, fit_gauss_newton):
            base = fitter(pts).params
            moved = fitter(pts + shift).params
            assert np.max(np.abs(moved.center - (base.center + shift))) < 1e-9

    def test_linear_fits_are_first_order_stationary(self):
        # admissible tangent perturbations must not lower the objective
        rng = np.random.default_rng(8)
        for _ in range(10):
            params = random_ellipse(rng)
            pts = params.boundary_points(25)
            pts = pts + rng.normal(0, 0.02 * params.semi_minor, pts.shape)
            for tag, fitter in ((TRACE, fit_trace), (BOOKSTEIN, fit_bookstein)):
                conic = fitter(pts).conic
                coeffs = np.array(
                    [conic.a11, conic.a12, conic.a22, conic.b1, conic.b2, conic.c]
                )
                base_obj = float(np.sum(conic.evaluate(pts) ** 2))
                if tag == TRACE:
                    grad = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
                else:
                    grad = np.array(
                        [2 * conic.a11, 4 * conic.a12, 2 * conic.a22, 0.0, 0.0, 0.0]
                    )
                for _ in range(8):
                    step = rng.normal(0, 1, 6)
                    step -= grad * (step @ grad) / (grad @ grad)
                    step *= 1e-6 / np.linalg.norm(step)
                    perturbed = coeffs + step
                    from helibend import Conic2D

                    trial = normalize_conic(
                        Conic2D(*perturbed), tag
                    )
                    obj = float(np.sum(trial.evaluate(pts) ** 2))
                    assert obj >= base_obj - 1e-12 * max(base_obj, 1.0)

    def test_collinear_points_degenerate(self):
        pts = np.column_stack((np.linspace(0, 5, 8), 2 * np.linspace(0, 5, 8) + 1))
        with pytest.raises(DegenerateConfiguration):
            fit_trace(pts)
        with pytest.raises(DegenerateConfiguration):
            fit_bookstein(pts)

    def test_too_few_points(self):
        pts = EllipseParams(np.zeros(2), 2.0, 1.0, 0.0).boundary_points(5)
        with pytest.raises(TooFewPoints):
            fit_trace(pts)
        with pytest.raises(TooFewPoints):
            fit_bookstein(pts)

    def test_hyperbolic_data_raises_not_an_ellipse(self):
        s = np.linspace(-1.2, 1.2, 24)
        pts = np.column_stack((np.cosh(s), 2.0 * np.sinh(s)))
        pts = np.vstack((pts, -pts))
        for fitter in (fit_trace, fit_bookstein):
            with pytest.raises(NotAnEllipse) as err:
                fitter(pts)
            assert err.value.conic is not None


class TestGaussNewton:
    def test_exact_init_fixed_point(self):
        params = EllipseParams(np.array([4.0, -2.0]), 6.0, 3.0, 0.7)
        pts = params.boundary_points(16)
        fit = fit_gauss_newton(pts, init=params)
        assert fit.converged
        assert fit.iterations <= 2
        assert fit.rms_geometric_residual < 1e-10

    def test_recovers_from_perturbed_init(self):
        params = EllipseParams(np.array([4.0, -2.0]), 6.0, 3.0, 0.7)
        pts = params.boundary_points(16)
        init = EllipseParams(
            params.center * 1.1 + 0.3, params.semi_major * 1.1, params.semi_minor * 0.9, 0.77
        )
        fit = fit_gauss_newton(pts, init=init)
        got = fit.params
        assert np.max(np.abs(got.center - params.center)) < 1e-8
        assert abs(got.semi_major - 6.0) < 1e-8
        assert abs(got.semi_minor - 3.0) < 1e-8
        assert angle_error(got.orientation, 0.7) < 1e-8

    def test_default_init_is_the_trace_fit(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            params = random_ellipse(rng)
            pts = params.boundary_points(40) + rng.normal(0, 0.05, (40, 2))
            got = fit_gauss_newton(pts)
            ref = fit_gauss_newton(pts, init=fit_trace(pts).params)
            assert got.conic == ref.conic
            assert np.array_equal(got.params.center, ref.params.center)
            for name in ("semi_major", "semi_minor", "orientation", "orientation_defined"):
                assert getattr(got.params, name) == getattr(ref.params, name)
            for name in ("rms_algebraic_residual", "rms_geometric_residual",
                         "iterations", "converged"):
                assert getattr(got, name) == getattr(ref, name)

    def test_geometric_rms_not_worse_than_trace(self):
        # oracle: direct evaluation of both residual sets
        rng = np.random.default_rng(12)
        for _ in range(10):
            params = random_ellipse(rng)
            pts = params.boundary_points(60)
            pts = pts + rng.normal(0, 0.05, pts.shape)
            trace = fit_trace(pts)
            gn = fit_gauss_newton(pts)
            rms_trace = float(np.sqrt(np.mean(geometric_residuals(pts, trace.params) ** 2)))
            rms_gn = float(np.sqrt(np.mean(geometric_residuals(pts, gn.params) ** 2)))
            assert rms_gn <= rms_trace + 1e-12
            assert fit_gauss_newton(pts).rms_geometric_residual == pytest.approx(rms_gn, abs=1e-12)

    def test_collapsed_axis(self):
        # flat data: the optimal boundary degenerates to a segment
        x = np.linspace(-2, 2, 20)
        pts = np.column_stack((x, np.zeros_like(x)))
        init = EllipseParams(np.zeros(2), 2.0, 0.5, 0.0)
        with pytest.raises(CollapsedAxis):
            fit_gauss_newton(pts, init=init, max_iterations=200)

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(13)
        params = EllipseParams(np.zeros(2), 5.0, 2.0, 0.3)
        pts = params.boundary_points(40) + rng.normal(0, 0.2, (40, 2))
        fit = fit_gauss_newton(pts, max_iterations=1)
        assert fit.iterations == 1
        # a single damped step cannot reach both tolerances from a noisy init
        assert isinstance(fit.converged, bool)

    @pytest.mark.parametrize("max_iterations", [1, 2, 100])
    def test_result_holds_plain_python_types(self, max_iterations):
        # numpy scalars would not survive json.dumps in report consumers
        rng = np.random.default_rng(15)
        params = EllipseParams(np.zeros(2), 5.0, 2.0, 0.3)
        pts = params.boundary_points(40) + rng.normal(0, 0.2, (40, 2))
        for init in (None, params):
            fit = fit_gauss_newton(pts, init=init, max_iterations=max_iterations)
            assert type(fit.iterations) is int
            assert type(fit.converged) is bool

    def test_rounding_rise_ends_the_fit_without_a_damping_cascade(self):
        # Section 3 of the 800 x 100 benchmark part (seed 1): at its optimum
        # the undamped step raises the RMS by rounding, and raising the
        # damping tenfold per rejected trial took 13 residual evaluations for
        # 3 iterations. The rise now ends the fit, so each iteration costs one.
        amp = math.radians(3.0)
        spec = HelixSpec(
            radius=120.0, pitch_per_turn=60.0, semi_major=8.0, semi_minor=5.0,
            helix_angle=math.atan2(60.0 / (2.0 * math.pi), 120.0),
            twist_profile=lambda i: amp * math.sin(2.0 * math.pi * (i / 799)),
            extent=3.0, sections=800, points_per_section=100, noise_sigma=0.02,
            rng_seed=1,
        )
        part = generate(spec)
        canonical = [canonicalize_section(g)
                     for g in segment_sections(part.points, labels=part.labels)]
        theta_x = detect_direction(canonical)[3].theta_x
        calls = []
        evaluate = conicfit._gn_residual

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conicfit, "_gn_residual", counted)
            fit, = observe_torsion([canonical[3]], [theta_x], GAUSS_NEWTON)
        assert (fit.iterations, fit.converged) == (3, True)
        assert len(calls) <= fit.iterations + 1

    def test_stack_raises_the_earliest_failing_section(self):
        # One section's semi-axis collapses during iteration and another has
        # no trace init; a loop over the sections raises whichever is first.
        x = np.linspace(-2, 2, 20)
        flat = np.column_stack((x, np.zeros_like(x)))
        flat_init = EllipseParams(np.zeros(2), 2.0, 0.5, 0.0)
        line = np.column_stack((x, 0.5 * x + 1.0))
        ring = EllipseParams(np.array([1.0, 2.0]), 5.0, 3.0, 0.3).boundary_points(20)
        for stack, inits, error, message in (
            ((ring, flat, line), (None, flat_init, None), CollapsedAxis, "collapsed"),
            ((ring, line, flat), (None, None, flat_init), DegenerateConfiguration,
             "do not determine a conic"),
        ):
            with pytest.raises(error, match=message) as caught:
                fit_gauss_newton(np.stack(stack), init=inits, max_iterations=200)
            assert caught.value.section == 1
        with pytest.raises(CollapsedAxis) as caught:
            fit_gauss_newton(flat, init=flat_init, max_iterations=200)
        assert caught.value.section is None

    def test_warm_section_without_a_trace_fit_in_a_stack(self):
        # The stack's trace init fails on the warm section, which needs none;
        # each section is then fitted alone.
        true = EllipseParams(np.zeros(2), 30.0, 10.0, 0.3)
        rng = np.random.default_rng(2)
        warm = true.arc_points(20, 0.2, rng.uniform(0, 2 * math.pi)) + rng.normal(0, 0.5, (20, 2))
        cold = noisy_arcs(1, 20, 35)[0]
        with pytest.raises(NotAnEllipse):
            fit_trace(warm)
        fits = fit_gauss_newton(np.stack([cold, warm]), init=[None, true])
        assert [fit_bits(f) for f in fits] == [
            fit_bits(fit_gauss_newton(cold)), fit_bits(fit_gauss_newton(warm, init=true))]

    def test_stack_input_validated(self):
        stack = np.stack([EllipseParams(np.zeros(2), 5.0, 2.0, 0.3).boundary_points(20)] * 2)
        stack[1, 4, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_gauss_newton(stack)
        with pytest.raises(ValueError, match=r"\(S, n, 2\) stack"):
            fit_gauss_newton(np.zeros((2, 20, 3)))

    def test_iteration_budget_below_one_rejected(self):
        pts = EllipseParams(np.zeros(2), 5.0, 2.0, 0.3).boundary_points(20)
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            fit_gauss_newton(pts, max_iterations=0)

    def test_wrong_number_of_inits_rejected(self):
        params = EllipseParams(np.zeros(2), 5.0, 2.0, 0.3)
        stack = np.stack([params.boundary_points(20)] * 3)
        with pytest.raises(ValueError, match="got 2 inits for 3 sections"):
            fit_gauss_newton(stack, init=[params, params])

    def test_lone_init_for_a_stack_rejected(self):
        params = EllipseParams(np.zeros(2), 5.0, 2.0, 0.3)
        stack = np.stack([params.boundary_points(20)] * 3)
        with pytest.raises(ValueError, match="got one init for 3 sections; a stack takes None "
                                             "or one init per section"):
            fit_gauss_newton(stack, init=params)

    def test_four_points_with_an_init_are_too_few(self):
        params = EllipseParams(np.zeros(2), 5.0, 2.0, 0.3)
        with pytest.raises(TooFewPoints, match="need at least 5 points, got 4"):
            fit_gauss_newton(params.boundary_points(4), init=params)

    def test_damped_steps_mask_a_singular_system(self):
        lhs = np.stack([np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), np.zeros((5, 5)), 2.0 * np.eye(5)])
        rhs = np.arange(15.0).reshape(3, 5)
        steps, singular = conicfit._damped_steps(lhs, rhs)
        assert singular.tolist() == [False, True, False]
        for k in (0, 2):
            assert steps[k].tobytes() == np.linalg.solve(lhs[k], rhs[k]).tobytes()
        assert conicfit._damped_steps(lhs[[0, 2]], rhs[[0, 2]])[1] is None

    def test_moment_init_exact_on_uniform_samples(self):
        params = EllipseParams(np.array([1.0, 2.0]), 8.0, 3.0, -0.9)
        est = moment_init(params.boundary_points(64))
        assert np.max(np.abs(est.center - params.center)) < 1e-9
        assert est.semi_major == pytest.approx(8.0, abs=1e-9)
        assert est.semi_minor == pytest.approx(3.0, abs=1e-9)
        assert angle_error(est.orientation, -0.9) < 1e-9

    def test_moment_init_circle_has_no_orientation(self):
        circle = EllipseParams(np.array([1.0, 2.0]), 3.0, 3.0, 0.0, orientation_defined=False)
        est = moment_init(circle.boundary_points(64))
        assert not est.orientation_defined
        assert est.orientation == 0.0
        assert est.semi_major == pytest.approx(3.0, abs=1e-9)

    def test_moment_init_rejects_two_points_and_a_line(self):
        with pytest.raises(TooFewPoints, match="at least 3 points"):
            moment_init([(0.0, 0.0), (1.0, 2.0)])
        with pytest.raises(DegenerateConfiguration, match="collinear"):
            moment_init([(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 6.0)])


class TestPointToEllipseDistance:
    def test_circle_center(self):
        circle = EllipseParams(np.zeros(2), 2.0, 2.0, 0.0, orientation_defined=False)
        assert point_to_ellipse_distance((0.0, 0.0), circle) == pytest.approx(-2.0, abs=1e-12)

    def test_circle_outside(self):
        circle = EllipseParams(np.zeros(2), 2.0, 2.0, 0.0, orientation_defined=False)
        assert point_to_ellipse_distance((3.0, 0.0), circle) == pytest.approx(1.0, abs=1e-12)

    def test_against_dense_boundary_scan(self):
        # independent brute-force foot-point oracle
        ell = EllipseParams(np.zeros(2), 4.0, 2.0, 0.0)
        d = point_to_ellipse_distance((3.0, 1.0), ell)
        t = np.linspace(0, 2 * math.pi, 1_000_000, endpoint=False)
        brute = float(np.min(np.hypot(4 * np.cos(t) - 3.0, 2 * np.sin(t) - 1.0)))
        assert (3 / 4) ** 2 + (1 / 2) ** 2 < 1  # the probe point is inside
        assert abs(d - (-brute)) < 1e-5

    def test_interior_major_axis_points(self):
        # a point near the center of a long ellipse is closest to the side,
        # not the vertex
        ell = EllipseParams(np.zeros(2), 4.0, 1.0, 0.0)
        d = point_to_ellipse_distance((0.1, 0.0), ell)
        assert d == pytest.approx(-math.sqrt(15 * 0.0267**2 - 0.8 * 0.0267 + 1.01), abs=1e-3)
        assert -1.0 < d < -0.9

    def test_foot_point_is_on_boundary_and_orthogonal(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            params = random_ellipse(rng)
            p = rng.uniform(-2, 2, 2) * params.semi_major + params.center
            foot = ellipse_foot_point(p, params)
            conic = normalize_conic(params_to_conic(params), TRACE)
            assert abs(float(conic.evaluate(foot[None, :])[0])) < 1e-9
            d = point_to_ellipse_distance(p, params)
            assert abs(abs(d) - float(np.hypot(*(p - foot)))) < 1e-9

    def test_rotated_translated(self):
        params = EllipseParams(np.array([5.0, -7.0]), 4.0, 2.0, 0.6)
        # the distance field is invariant under the ellipse's own pose
        local = np.array([3.0, 1.0])
        ca, sa = math.cos(0.6), math.sin(0.6)
        world = params.center + np.array([ca * 3.0 - sa * 1.0, sa * 3.0 + ca * 1.0])
        base = point_to_ellipse_distance(local, EllipseParams(np.zeros(2), 4.0, 2.0, 0.0))
        assert point_to_ellipse_distance(world, params) == pytest.approx(base, abs=1e-12)

    def test_empty_point_set_has_no_residuals(self):
        params = EllipseParams(np.array([1.0, -2.0]), 4.0, 2.0, 0.6)
        residuals = geometric_residuals(np.empty((0, 2)), params)
        assert residuals.shape == (0,) and residuals.dtype == float

    @pytest.mark.parametrize("function", [point_to_ellipse_distance, ellipse_foot_point])
    @pytest.mark.parametrize("point", [(math.nan, 0.5), (0.0, math.inf)])
    def test_non_finite_point_rejected(self, function, point):
        params = EllipseParams(np.zeros(2), 4.0, 2.0, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            geometric_residuals(np.array([point]), params)
        with pytest.raises(ValueError, match="non-finite"):
            function(point, params)

    @pytest.mark.parametrize("function", [point_to_ellipse_distance, ellipse_foot_point])
    @pytest.mark.parametrize("point, shape", [((1.0, 2.0, 3.0), "(3,)"),
                                              (np.ones((2, 2)), "(2, 2)")])
    def test_point_of_the_wrong_shape_rejected(self, function, point, shape):
        params = EllipseParams(np.zeros(2), 4.0, 2.0, 0.0)
        with pytest.raises(ValueError, match=f"got shape {re.escape(shape)}"):
            function(point, params)


class TestFootPointWarmStart:
    """Any start angle in [0, pi/2] reaches the cold start's foot points."""

    @staticmethod
    def _probe_points(rng, a, b):
        scale = 3.0 * max(a, b)
        axis = np.linspace(-scale, scale, 41)
        zeros = np.zeros_like(axis)
        sets = [
            rng.normal(0.0, 2.0 * max(a, b), (200, 2)),
            np.column_stack((axis, zeros)),
            np.column_stack((zeros, axis)),
            np.zeros((1, 2)),
        ]
        # Both evolute cusps, approached on and just off the symmetry axis.
        offsets = np.array([-1e-3, -1e-6, 0.0, 1e-6, 1e-3])
        cusp_u = abs(a * a - b * b) / a
        cusp_v = abs(a * a - b * b) / b
        for sign in (1.0, -1.0):
            for off_axis in (0.0, 1e-6):
                sets.append(np.column_stack((sign * (cusp_u + offsets), np.full(5, off_axis))))
                sets.append(np.column_stack((np.full(5, off_axis), sign * (cusp_v + offsets))))
        return np.vstack(sets)

    # a < b covers Gauss-Newton iterates, whose semi-axes may swap roles.
    @pytest.mark.parametrize("a, b", [(5.0, 2.0), (2.0, 5.0), (8.0, 7.9), (3.0, 3.0), (1.0, 10.0)])
    def test_matches_cold_start(self, a, b):
        rng = np.random.default_rng(41)
        pts = self._probe_points(rng, a, b)
        cold_foot, cold_dist, cold_angles = foot_points_alone(pts, a, b)
        # Poor starts, far from most roots, so Newton leaves the bracket and
        # the bisection fallback runs.
        for start in (np.zeros(len(pts)), np.full(len(pts), math.pi / 2.0),
                      rng.uniform(0.0, math.pi / 2.0, len(pts))):
            foot, dist, angles = foot_points_alone(pts, a, b, start)
            assert np.max(np.abs(foot - cold_foot)) < 1e-12
            assert np.max(np.abs(dist - cold_dist)) < 1e-12
            assert np.all((angles >= 0.0) & (angles <= math.pi / 2.0))
        on_axis = (pts[:, 0] == 0.0) | (pts[:, 1] == 0.0)
        _, _, angles = foot_points_alone(pts, a, b, np.full(len(pts), 0.7))
        assert np.array_equal(angles[on_axis], cold_angles[on_axis])


class TestAlgebraicResiduals:
    def test_zero_on_own_boundary(self):
        params = EllipseParams(np.array([2.0, 3.0]), 5.0, 1.5, 1.1)
        conic = normalize_conic(params_to_conic(params), BOOKSTEIN)
        assert np.max(np.abs(conic.evaluate(params.boundary_points(50)))) < 1e-12

    def test_origin_against_unit_circle(self):
        circle = EllipseParams(np.zeros(2), 1.0, 1.0, 0.0, orientation_defined=False)
        conic = normalize_conic(params_to_conic(circle), TRACE)
        assert conic.evaluate(np.zeros((1, 2)))[0] == pytest.approx(-0.5, abs=1e-15)

    def test_matches_scalar_expansion(self):
        # independent oracle: scalar expansion of x^T A x + b^T x + c
        rng = np.random.default_rng(37)
        conic = normalize_conic(params_to_conic(random_ellipse(rng)), TRACE)
        pts = rng.uniform(-10, 10, (30, 2))
        got = conic.evaluate(pts)
        for (u, v), value in zip(pts, got):
            expansion = (
                conic.a11 * u * u
                + 2 * conic.a12 * u * v
                + conic.a22 * v * v
                + conic.b1 * u
                + conic.b2 * v
                + conic.c
            )
            assert value == pytest.approx(expansion, abs=1e-12)


class TestStabilityOrdering:
    def test_unwarmed_gauss_newton_less_stable_on_partial_arcs(self):
        # the regime where the constraint comparison is observable: partial
        # 108-degree arcs, sigma = 1% of the semi-minor axis
        rng = np.random.default_rng(101)
        err_trace, err_gn = [], []
        for _ in range(120):
            true = rng.uniform(-math.radians(10), math.radians(10))
            params = EllipseParams(np.zeros(2), 30.0, 10.0, true)
            pts = arc_points(params, 60, 0.3, rng.uniform(0, 2 * math.pi))
            pts = pts + rng.normal(0, 0.1, pts.shape)
            ft = fit_trace(pts)
            fg = fit_gauss_newton(pts, init=moment_init(pts))
            err_trace.append(rectify_against(ft.params.orientation, true) - true)
            err_gn.append(rectify_against(fg.params.orientation, true) - true)
        assert np.std(err_trace) < np.std(err_gn)


class TestStackedLstsq:
    """_stacked_lstsq against np.linalg.lstsq on each matrix, as the trace
    fit called it per section: solution bits and rank."""

    @pytest.mark.parametrize("shape", [(1, 6, 5), (9, 20, 5), (3, 400, 5), (4, 7, 3)])
    def test_matches_lstsq_per_matrix(self, shape):
        rng = np.random.default_rng(shape[1])
        design = rng.normal(size=shape)
        rhs = rng.normal(size=shape[:2] + (1,))
        x, rank = conicfit._stacked_lstsq(design, rhs)
        for k in range(shape[0]):
            ref, _, ref_rank, _ = np.linalg.lstsq(design[k], rhs[k, :, 0], rcond=None)
            assert hexes(x[k, :, 0]) == hexes(ref)
            assert rank[k] == ref_rank

    def test_rank_deficient_matrix(self):
        rng = np.random.default_rng(8)
        design = rng.normal(size=(3, 12, 5))
        design[1, :, 4] = 2.0 * design[1, :, 0]
        rhs = rng.normal(size=(3, 12, 1))
        x, rank = conicfit._stacked_lstsq(design, rhs)
        assert rank.tolist() == [5, 4, 5]
        ref, _, _, _ = np.linalg.lstsq(design[1], rhs[1, :, 0], rcond=None)
        assert hexes(x[1, :, 0]) == hexes(ref)

    def test_without_the_gufunc_each_matrix_is_solved_alone(self, monkeypatch):
        rng = np.random.default_rng(9)
        design = rng.normal(size=(5, 30, 5))
        design[2, :, 3] = design[2, :, 1]
        rhs = rng.normal(size=(5, 30, 1))
        x, rank = conicfit._stacked_lstsq(design, rhs)
        monkeypatch.setattr(conicfit, "_umath_linalg", None)
        x_alone, rank_alone = conicfit._stacked_lstsq(design, rhs)
        assert hexes(x_alone) == hexes(x)
        assert rank_alone.tolist() == rank.tolist() == [5, 5, 4, 5, 5]

    def test_failure_raises_lin_alg_error(self, capfd):
        design = np.ones((2, 8, 5))
        design[1, 3, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            np.linalg.lstsq(design[1], np.ones(8), rcond=None)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            conicfit._stacked_lstsq(design, np.ones((2, 8, 1)))
        capfd.readouterr()  # LAPACK reports the NaN on the process's stdout


class TestPullBack:
    def test_matches_the_per_conic_arithmetic(self):
        # The arithmetic _pull_back replaces, written out as the reference.
        rng = np.random.default_rng(35)
        coef = rng.normal(size=(2000, 6))
        mean = rng.uniform(-100.0, 100.0, (2000, 2))
        scale = rng.uniform(0.5, 60.0, 2000)
        # A square by pow and by multiplication differ on some of these.
        assert any(s**2 != s * s for s in scale.tolist())
        got = conicfit._pull_back(coef, mean, scale)
        for row, (a11, a12, a22, b1, b2, c), m, s in zip(got, coef, mean, scale.tolist()):
            a = np.array([[a11, a12], [a12, a22]]) / s**2
            linear = np.array([b1, b2])
            b = linear / s - 2.0 * (a @ m)
            c = c - float(linear @ m) / s + float(m @ a @ m)
            assert hexes(row) == hexes([a[0, 0], a[0, 1], a[1, 1], b[0], b[1], c])


LINEAR_FITS = [fit_trace, fit_bookstein]
KINDS = [("line", "hyperbola"), ("hyperbola", "line"), ("point", "hyperbola")]


def linear_fit_cases(values, ids):
    """Parametrize cases (fit, value) for both linear fits: fit_trace's
    under the plain ``ids``, which keeps their test names stable, and
    fit_bookstein's under ``fit_bookstein-`` and the id."""
    return [pytest.param(fit, value, id=case if fit is fit_trace else f"fit_bookstein-{case}")
            for fit in LINEAR_FITS for value, case in zip(values, ids)]


class TestTraceStacks:
    """Stacks of sections through both linear fits, fit_trace and fit_bookstein."""

    @pytest.mark.parametrize("fit, layout", linear_fit_cases(["C", "F"], ["C", "F"]))
    def test_stack_fits_each_section_as_alone(self, fit, layout):
        sections = noisy_arcs(9, 24, 31)
        if layout == "F":
            sections = [np.asfortranarray(pts) for pts in sections]
        batch = fit(np.stack(sections))
        assert isinstance(batch, FitBatch)
        assert [fit_bits(f) for f in batch] == [fit_bits(fit(pts)) for pts in sections]
        assert (batch.iterations, batch.converged) == (0, True)

    @pytest.mark.parametrize("fit", [fit_trace, fit_bookstein, fit_gauss_newton])
    def test_sequence_of_sections_fits_each_as_alone(self, fit):
        sections = [np.asfortranarray(pts) for pts in noisy_arcs(9, 24, 31)]
        assert [fit_bits(f) for f in fit(sections)] == [fit_bits(fit(pts)) for pts in sections]

    @pytest.mark.parametrize("fit", LINEAR_FITS)
    def test_each_section_keeps_its_memory_layout(self, fit):
        # The column sums of an F-ordered section round differently from a
        # C-ordered copy's; a stack whose sections interleave in memory is
        # fitted as its sections are alone.
        sections = noisy_arcs(9, 24, 31)
        by_c = fit(np.stack(sections))
        by_f = fit(np.stack([np.asfortranarray(pts) for pts in sections]))
        assert [fit_bits(f) for f in by_c] != [fit_bits(f) for f in by_f]
        interleaved = np.asfortranarray(np.stack(sections))
        assert [fit_bits(f) for f in fit(interleaved)] == [
            fit_bits(fit(pts)) for pts in interleaved]

    @pytest.mark.parametrize("fit, kinds", linear_fit_cases(
        KINDS, [f"kinds{k}" for k in range(len(KINDS))]))
    def test_stack_raises_the_earliest_failing_section(self, fit, kinds):
        sections = noisy_arcs(6, 20, 32)
        sections[1] = failing_section(kinds[0], 20)
        sections[4] = failing_section(kinds[1], 20)
        alone = [fit_error(fit, pts) for pts in sections]
        assert [k for k, exc in enumerate(alone) if exc is not None] == [1, 4]
        with pytest.raises(HelibendError) as caught:
            fit(np.stack(sections))
        assert type(caught.value) is type(alone[1])
        assert str(caught.value) == str(alone[1])
        assert caught.value.section == 1
        if isinstance(alone[1], NotAnEllipse):
            assert caught.value.conic == alone[1].conic

    @pytest.mark.parametrize("fit", LINEAR_FITS)
    def test_too_few_points_in_a_stack(self, fit):
        sections = noisy_arcs(3, 5, 33)
        with pytest.raises(TooFewPoints) as alone:
            fit(sections[0])
        with pytest.raises(TooFewPoints) as caught:
            fit(np.stack(sections))
        assert str(caught.value) == str(alone.value) == "need at least 6 points, got 5"
        assert (caught.value.section, alone.value.section) == (0, None)

    @pytest.mark.parametrize("fit", LINEAR_FITS)
    def test_stack_input_validated(self, fit):
        stack = np.stack(noisy_arcs(2, 20, 34))
        stack[1, 4, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fit(stack)
        with pytest.raises(ValueError, match=r"\(S, n, 2\) stack"):
            fit(np.zeros((2, 20, 3)))


ALL_FITS = [fit_trace, fit_bookstein, fit_gauss_newton]


@pytest.mark.parametrize("fit", ALL_FITS)
@pytest.mark.parametrize("point", [[1.1, 2.3], [3.0, 5.0]])
def test_copies_of_one_point_coincide(fit, point):
    # The mean of 48 copies of (1.1, 2.3) rounds, so their centred points
    # are not exactly zero; those of (3.0, 5.0) are.
    pts = np.tile(point, (48, 1))
    assert (pts - pts.sum(axis=0) / 48).any() == (point == [1.1, 2.3])
    with pytest.raises(DegenerateConfiguration, match="^all points coincide$"):
        fit(pts)
    stack = np.stack(noisy_arcs(3, 48, 36))
    stack[1] = pts
    with pytest.raises(DegenerateConfiguration, match="^all points coincide$") as caught:
        fit(stack)
    assert caught.value.section == 1


@pytest.mark.parametrize("fit", ALL_FITS)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_section_of_a_stack_is_named(fit, value):
    stack = np.stack(noisy_arcs(3, 20, 37))
    stack[1, 4, 0] = value
    with pytest.raises(ValueError, match="^points contain non-finite coordinates$") as caught:
        fit(stack)
    assert caught.value.section == 1
