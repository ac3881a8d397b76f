import math
import warnings

import numpy as np
import pytest

from helibend import (
    EllipseParams,
    HelixSpec,
    canonicalize_section,
    detect_direction,
    generate,
    observe_torsion,
    rectify_against,
    rectify_torsion,
    segment_sections,
)
from helibend.conicfit import fit_bookstein, fit_gauss_newton, fit_trace
from helibend.errors import (
    AmbiguousBranch,
    DegenerateConfiguration,
    HelibendError,
    LengthMismatch,
    TooFewPoints,
)
from helibend.torsion import fit_sections


def canonical_sections(spec):
    part = generate(spec)
    groups = segment_sections(part.points, labels=part.labels)
    return [canonicalize_section(g) for g in groups], part.truth


class TestObserveTorsion:
    def test_untwisted_section_reads_zero(self):
        canon, truth = canonical_sections(HelixSpec(sections=4, rng_seed=1))
        for sec in canon:
            got, = observe_torsion([sec], [truth.theta_x[0]])
            assert got.params.orientation == pytest.approx(0.0, abs=1e-10)
            assert got.params.orientation_defined

    def test_ten_degree_twist(self):
        twist = math.radians(10.0)
        canon, truth = canonical_sections(
            HelixSpec(sections=4, twist_profile=lambda i: twist, rng_seed=2)
        )
        for sec in canon:
            got, = observe_torsion([sec], [truth.theta_x[0]])
            assert abs(got.params.orientation - twist) < 1e-8

    @pytest.mark.parametrize("fitter", ["trace", "bookstein", "gauss-newton"])
    def test_exact_for_all_fitters(self, fitter):
        twist = -0.23
        canon, truth = canonical_sections(
            HelixSpec(sections=3, twist_profile=lambda i: twist, rng_seed=3)
        )
        got, = observe_torsion([canon[1]], [truth.theta_x[0]], fitter=fitter)
        assert abs(got.params.orientation - twist) < 1e-8

    def test_circular_section_flagged(self):
        spec = HelixSpec(semi_major=6.0, semi_minor=6.0, sections=3, rng_seed=4)
        canon, truth = canonical_sections(spec)
        got, = observe_torsion([canon[0]], [truth.theta_x[0]])
        assert not got.params.orientation_defined
        assert got.params.orientation == 0.0

    def test_one_tilt_per_section(self):
        canon, truth = canonical_sections(HelixSpec(sections=4, rng_seed=1))
        with pytest.raises(LengthMismatch, match=r"^4 sections but 3 tilts$"):
            observe_torsion(canon, truth.theta_x[:-1])


class TestFitSections:
    @staticmethod
    def sections(short, collinear):
        """Noisy 20-point rings, but section ``short`` has 5 points and
        section ``collinear`` lies on a line."""
        rng = np.random.default_rng(12)
        ring = EllipseParams(np.array([3.0, -1.0]), 6.0, 4.0, 0.4)
        sections = [ring.boundary_points(20) + rng.normal(0, 0.05, (20, 2)) for _ in range(9)]
        sections[collinear] = np.column_stack((np.linspace(0, 5, 20), np.linspace(1, 2, 20)))
        sections[short] = sections[short][:5]
        return sections

    @pytest.mark.parametrize("fitter, fit", [("trace", fit_trace),
                                             ("bookstein", fit_bookstein),
                                             ("gauss-newton", fit_gauss_newton)])
    @pytest.mark.parametrize("short, collinear", [(2, 5), (5, 2)])
    def test_raises_the_earliest_failing_section(self, fitter, fit, short, collinear):
        # The 20-point block is fitted first, the short section's block second.
        sections = self.sections(short, collinear)
        failures = []
        for i, pts in enumerate(sections):
            try:
                fit(pts)
            except HelibendError as exc:
                failures.append((i, exc))
        assert [(i, type(exc)) for i, exc in failures] == sorted(
            [(short, TooFewPoints), (collinear, DegenerateConfiguration)])
        first, expected = failures[0]
        with pytest.raises(type(expected)) as caught:
            fit_sections(fitter, [len(p) for p in sections],
                         lambda block: np.stack([sections[i] for i in block]))
        assert str(caught.value) == str(expected)
        assert caught.value.section == first

    @pytest.mark.parametrize("fitter", ["taubin"])
    def test_rejects_other_fitters(self, fitter):
        pts = EllipseParams(np.zeros(2), 2.0, 1.0, 0.3).boundary_points(12)
        with pytest.raises(ValueError, match=f"unknown fitter '{fitter}'"):
            fit_sections(fitter, [12], lambda block: pts[None])


class TestRectifyTorsion:
    def test_already_continuous_unchanged(self):
        series = [0.0, 0.01, 0.02]
        assert np.allclose(rectify_torsion(series), series)

    def test_axis_swap_corrected(self):
        out = rectify_torsion([0.02, -1.55, 0.03])
        assert out[0] == pytest.approx(0.02)
        assert out[1] == pytest.approx(-1.55 + math.pi / 2)
        assert out[2] == pytest.approx(0.03)

    def test_constant_series_idempotent(self):
        series = np.full(10, 0.3)
        out = rectify_torsion(series)
        assert np.allclose(out, series)
        assert np.allclose(rectify_torsion(out), out)

    def test_idempotent_on_slow_random_walks(self):
        # twist rate below pi/8 per section, amplitude inside the principal
        # branch: the filter must pass the series through unchanged, so the
        # output jump never exceeds pi/4
        rate = math.pi / 8 - 1e-3
        rng = np.random.default_rng(6)
        for _ in range(20):
            steps = rng.uniform(-rate, rate, 50)
            series = np.clip(np.cumsum(steps), -1.5, 1.5)
            out = rectify_torsion(series)
            assert np.array_equal(out, series)
            assert np.array_equal(rectify_torsion(out), out)
            assert np.max(np.abs(np.diff(out))) <= math.pi / 4 + 1e-12

    def test_injected_swaps_recovered_exactly(self):
        rng = np.random.default_rng(7)
        truth = 0.5 * np.sin(np.linspace(0, 3 * math.pi, 120))
        raw = truth.copy()
        swap_at = rng.choice(120, size=25, replace=False)
        for idx in swap_at:
            raw[idx] = _fold(truth[idx] + math.pi / 2 * rng.choice([-1, 1]))
        out = rectify_torsion(raw)
        assert np.max(np.abs(out - truth)) < 1e-12

    def test_ambiguous_tie_warns_and_keeps_raw(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = rectify_torsion([math.pi / 4])
        assert any(issubclass(w.category, AmbiguousBranch) for w in caught)
        assert out[0] == pytest.approx(math.pi / 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rectify_torsion([2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            rectify_torsion([0.1, math.nan])

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValueError, match="1-D"):
            rectify_torsion([[0.1, 0.2], [0.3, 0.4]])

    @pytest.mark.parametrize("step", [0.7, -0.7])
    def test_follows_steps_below_quarter_pi_through_many_turns(self, step):
        # 19 steps of 0.7 rad wind the twist through 13.3 rad, so the branch
        # shift k runs far beyond -1..1
        truth = step * np.arange(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rectify_torsion([_fold(t) for t in truth])
        assert np.max(np.abs(out - truth)) < 1e-12

    def test_negative_zero_kept(self):
        assert math.copysign(1.0, rectify_torsion([-0.0])[0]) == -1.0
        assert math.copysign(1.0, rectify_against(-0.0, 0.0)) == -1.0


class TestRectifyAgainst:
    def test_identity_when_close(self):
        assert rectify_against(0.3, 0.31) == pytest.approx(0.3)

    def test_unbounded_branches(self):
        assert rectify_against(math.pi / 2, -math.pi / 2) == pytest.approx(-math.pi / 2)
        assert rectify_against(0.1, 0.1 + 2 * math.pi) == pytest.approx(0.1 + 2 * math.pi)

    def test_tie_resolved_like_the_filter(self):
        # pi/4 lies midway between its own branch and -pi/4: the raw reading stays
        assert rectify_against(math.pi / 4, 0.0) == math.pi / 4
        assert rectify_against(-math.pi / 4, 0.0) == -math.pi / 4


class TestTorsionSeries:
    """A series is the raw readings of consecutive sections, in order."""

    def test_slow_twist_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rectify_torsion([0.0, 0.7, 0.0])


class TestDefectLocalization:
    def test_twist_defect_window_found(self):
        # 3 deg of extra twist injected over sections 10..20
        defect = math.radians(3.0)

        def twist(i):
            return 0.05 + (defect if 10 <= i <= 20 else 0.0)

        spec = HelixSpec(sections=30, twist_profile=twist, rng_seed=8)
        canon, truth = canonical_sections(spec)
        directions = detect_direction(canon)
        raw = [observe_torsion([c], [d.theta_x])[0].params.orientation
               for c, d in zip(canon, directions)]
        dev = np.array([_fold(d) for d in rectify_torsion(raw) - 0.05])
        flagged = np.flatnonzero(np.abs(dev) > defect / 2)
        assert flagged.min() in (9, 10, 11)
        assert flagged.max() in (19, 20, 21)


def _fold(x):
    from helibend import fold_half_open

    return fold_half_open(x)
