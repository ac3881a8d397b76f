"""Bit-level pins of the fitting kernels.

The kernel in ``conicfit`` is tuned for fewer numpy calls per section under
the rule that every output stays bit-identical. These values were captured
with ``float.hex`` before that tuning (numpy 2.4 with its bundled OpenBLAS on
x86-64), so any change in the arithmetic, the order of an operation or a
branch taken shows here as a changed last bit. Another libm or LAPACK build
may differ in the last bits without the code being wrong.
"""

import math

import numpy as np
import pytest

from helibend import (
    EllipseParams,
    conicfit,
    ellipse_foot_point,
    fit_bookstein,
    fit_gauss_newton,
    fit_trace,
    geometric_residuals,
    moment_init,
    point_to_ellipse_distance,
)

from helpers import foot_points_alone, random_ellipse


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def floats(hex_strings):
    return np.array([float.fromhex(h) for h in hex_strings])


def section(seed, n, fraction, sigma):
    """A noisy arc of a random ellipse, and that ellipse."""
    rng = np.random.default_rng(seed)
    truth = random_ellipse(rng)
    pts = truth.arc_points(n, fraction, rng.uniform(0, 2 * math.pi))
    return truth, pts + rng.normal(0.0, sigma, pts.shape)


def fit_row(fit):
    p = fit.params
    return (hexes([*p.center, p.semi_major, p.semi_minor, p.orientation,
                   fit.rms_algebraic_residual, fit.rms_geometric_residual]),
            fit.iterations, fit.converged)


# A full noisy ring, and a 0.4 arc with more noise that takes more steps.
TRUTH_A, SECTION_A = section(71, 24, 1.0, 0.05)
TRUTH_B, SECTION_B = section(72, 20, 0.4, 0.1)

GN_CASES = {
    "ring": (lambda: fit_gauss_newton(SECTION_A), (
        ["0x1.a180020a637cfp+5", "0x1.af55a03cea941p+4", "0x1.0b4033b9eda89p+4",
         "0x1.99af6c3ff117dp+2", "-0x1.a7aa08ff5a23ap-1", "0x1.f89cf92e40426p-8",
         "0x1.38c3765a37965p-5"], 4, True)),
    "arc": (lambda: fit_gauss_newton(SECTION_B), (
        ["-0x1.a5ea6455ea3f3p+5", "-0x1.36ca45c04f08ap+6", "0x1.9929c956bf861p+5",
         "0x1.81e43af581181p+5", "0x1.00820f993c878p-1", "0x1.9fe36cc1d32bcp-9",
         "0x1.3f9f0dd5685e7p-4"], 3, True)),
    "arc-moment-init": (lambda: fit_gauss_newton(SECTION_B, init=moment_init(SECTION_B)), (
        ["-0x1.a5ea6458b924bp+5", "-0x1.36ca45bf35070p+6", "0x1.9929c955521fep+5",
         "0x1.81e43af226093p+5", "0x1.00820fad93858p-1", "0x1.9fe36cc482af6p-9",
         "0x1.3f9f0dd5685d8p-4"], 8, True)),
    "arc-budget-2": (lambda: fit_gauss_newton(SECTION_B, max_iterations=2), (
        ["-0x1.a5ea6541619e5p+5", "-0x1.36ca45ec07876p+6", "0x1.9929c87f7aeaap+5",
         "0x1.81e43b06317cep+5", "0x1.00821b7e7eb5ep-1", "0x1.9fe36c408232fp-9",
         "0x1.3f9f0dd57387bp-4"], 2, False)),
}


@pytest.mark.parametrize("case", GN_CASES)
def test_gauss_newton_bits(case):
    fit, expected = GN_CASES[case]
    assert fit_row(fit()) == expected


@pytest.mark.parametrize("pts, expected, conic", [
    (SECTION_A,
     ["0x1.a18ef1cc3ebc7p+5", "0x1.af4e54033f56ep+4", "0x1.0b2cdc9ec0013p+4",
      "0x1.99d1d411e70b6p+2", "-0x1.a7360f84962c0p-1", "0x1.122ff98c45d83p-2",
      "0x1.3fe74f35c39d3p-5"],
     ["0x1.0fa9abe545b06p-1", "0x1.7b6e8878c1d16p-2", "0x1.e0aca835749f3p-2",
      "-0x1.2d75eed96327cp+6", "-0x1.ffe6e562170fbp+5", "0x1.5d31197ec75acp+11"]),
    (SECTION_B,
     ["-0x1.a6a33235fd2edp+5", "-0x1.3693228f50b0bp+6", "0x1.98be77393e890p+5",
      "0x1.812db5fb92d45p+5", "0x1.0641fabf654d0p-1", "0x1.f3b600dc9a33dp+1",
      "0x1.3fe6025c75c77p-4"],
     ["0x1.f038bc58020acp-2", "-0x1.9f277025151b0p-6", "0x1.07e3a1d3fefaap-1",
      "0x1.7a22681e7e1efp+5", "0x1.356fc2a2ff298p+6", "0x1.79fe1004a698ap+11"]),
], ids=["ring", "arc"])
def test_trace_bits(pts, expected, conic):
    fit = fit_trace(pts)
    c = fit.conic
    assert fit_row(fit) == (expected, 0, True)
    assert hexes([c.a11, c.a12, c.a22, c.b1, c.b2, c.c]) == conic


@pytest.mark.parametrize("pts, expected, conic", [
    (SECTION_A,
     ["0x1.a18ef6ad754fbp+5", "0x1.af4e4bc4a6878p+4", "0x1.0b2da67119124p+4",
      "0x1.99d08b534c06ep+2", "-0x1.a7361b3326030p-1", "0x1.372906e6a70b6p-2",
      "0x1.3fdc5f88c80afp-5"],
     ["0x1.344b79b02d986p-1", "0x1.ae99f2dea97ecp-2", "0x1.10be942725d3cp-1",
      "-0x1.561caa5b4a856p+6", "-0x1.227760c9606c3p+6", "0x1.8c47b1a437cdep+11"]),
    (SECTION_B,
     ["-0x1.a6a8ea07b2ef2p+5", "-0x1.36910d3f5eb0ap+6", "0x1.98bb7326a8892p+5",
      "0x1.8127353bc30dcp+5", "0x1.066b404685a74p-1", "0x1.60ba8d4cd9852p+2",
      "0x1.3fea59da6fb5ep-4"],
     ["0x1.5e451a8818b0ap-1", "-0x1.25566ed979810p-5", "0x1.74891945b9e87p-1",
      "0x1.0ae8b5afd8520p+6", "0x1.b4cea94c04e91p+6", "0x1.0accac62c9445p+12"]),
], ids=["ring", "arc"])
def test_bookstein_bits(pts, expected, conic):
    fit = fit_bookstein(pts)
    c = fit.conic
    assert fit_row(fit) == (expected, 0, True)
    assert hexes([c.a11, c.a12, c.a22, c.b1, c.b2, c.c]) == conic


def test_geometric_residual_bits():
    assert hexes(geometric_residuals(SECTION_A, TRUTH_A)) == [
        "-0x1.d4dcfb8161a59p-6", "0x1.fa7ec3da68927p-6", "-0x1.1d77dc6646859p-5",
        "0x1.c1360a5694958p-8", "0x1.72d3675bf5548p-6", "-0x1.2687c090fd697p-8",
        "-0x1.92cbc06ccb41cp-6", "-0x1.a73870e7c6458p-6", "-0x1.5c99eada2dff8p-6",
        "0x1.8ca7a645a85cdp-8", "0x1.b9e9125a723c6p-5", "-0x1.f995a5812ffadp-5",
        "-0x1.80193c2a751b2p-5", "0x1.29be06e765aebp-5", "-0x1.f9d41bdb45577p-8",
        "0x1.97ab550a03a15p-5", "0x1.a31f125d13bc8p-6", "-0x1.b3c86bec9cba6p-5",
        "-0x1.0ee1f8e5d95e9p-5", "0x1.dd6e9f1c573b6p-7", "-0x1.b6a81383adfffp-5",
        "0x1.508c0e2cd0cd4p-5", "-0x1.0bdab43734f41p-7", "0x1.9b1b3113aa610p-4",
    ]
    assert hexes(geometric_residuals(SECTION_B, fit_trace(SECTION_B).params)) == [
        "0x1.845b53e1b88d9p-6", "0x1.971b7b89cbce9p-7", "-0x1.a7a1a5d539f35p-4",
        "0x1.b33482f73f2d4p-4", "-0x1.1c02172c4b750p-3", "0x1.8bff90b36bd13p-5",
        "0x1.26e32b40fbaf8p-3", "0x1.59e3f5cbe25c2p-8", "-0x1.372150f0cb117p-5",
        "-0x1.e11ec216b4163p-4", "-0x1.065b7c4c3eae9p-5", "0x1.29685e2d5e3c5p-5",
        "0x1.490f9c8d70dbcp-4", "-0x1.b5c613b60d7a7p-6", "-0x1.4ebc5f6124610p-5",
        "0x1.7c9042235057dp-4", "0x1.64510573e5799p-6", "-0x1.aa7ce0940d0b0p-5",
        "-0x1.b91fc8bc6d31ep-4", "0x1.59cb670cf56b3p-4",
    ]


ROTATED = EllipseParams(np.array([1.5, -2.0]), 5.0, 2.0, 0.7)
ALIGNED = EllipseParams(np.array([1.0, -2.0]), 5.0, 2.0, 0.0)


# One point off the axes of a rotated ellipse, and points exactly on each
# symmetry axis of an axis-aligned one (inside and outside the evolute cusp
# on the major axis) and at its centre, which take the closed-form angles.
@pytest.mark.parametrize("params, point, dist, foot", [
    (ROTATED, (4.0, 1.0), "-0x1.0da5bdc2dfe5bp-1",
     ["0x1.f41f502d1b271p+1", "0x1.84b6e3fc6dc16p+0"]),
    (ALIGNED, (4.0, -2.0), "-0x1.83091e6a7f7e7p+0",
     ["0x1.2492492492492p+2", "-0x1.33596ada1fd4cp-1"]),
    (ALIGNED, (-7.0, -2.0), "0x1.8000000000000p+1",
     ["-0x1.0000000000000p+2", "-0x1.0000000000000p+1"]),
    (ALIGNED, (1.0, -0.5), "-0x1.0000000000000p-1",
     ["0x1.0000000000001p+0", "0x0.0p+0"]),
    (ALIGNED, (1.0, -2.0), "-0x1.0000000000000p+1",
     ["0x1.0000000000001p+0", "0x0.0p+0"]),
], ids=["off-axis", "major-axis-inside-cusp", "major-axis-outside-cusp", "minor-axis", "centre"])
def test_point_distance_and_foot_point_bits(params, point, dist, foot):
    assert point_to_ellipse_distance(point, params).hex() == dist
    assert hexes(ellipse_foot_point(point, params)) == foot


# Both starts are far enough from some of these roots that a Newton step
# leaves [0, pi/2] and the bisection fallback runs (three rounds from 0.0,
# one from 1.0). The two starts end an ulp apart on the second and fourth
# points, so the pins see the path taken.
@pytest.mark.parametrize("start, dist, angles", [
    (0.0,
     ["0x1.0988306f1e5d6p+0", "-0x1.32ab31700da27p-1", "0x1.01c5f4990defdp-1",
      "0x1.b6811b821baf3p+1", "-0x1.e5eab0a32f745p+0"],
     ["0x1.62a0af912b09cp+0", "0x1.0934961dc2253p-1", "0x1.8359e5fb59c56p+0",
      "0x1.25f8f0f06d1fdp-1", "0x1.860b45b837ccdp+0"]),
    (1.0,
     ["0x1.0988306f1e5d6p+0", "-0x1.32ab31700da26p-1", "0x1.01c5f4990defdp-1",
      "0x1.b6811b821baf3p+1", "-0x1.e5eab0a32f745p+0"],
     ["0x1.62a0af912b09cp+0", "0x1.0934961dc2255p-1", "0x1.8359e5fb59c56p+0",
      "0x1.25f8f0f06d1fcp-1", "0x1.860b45b837ccdp+0"]),
], ids=["start-0", "start-1"])
def test_bisection_fallback_bits(start, dist, angles):
    pts = np.array([[1.0, 3.0], [4.0, 0.5], [-0.3, -2.5], [6.0, -4.0], [0.2, 0.1]])
    _, got_dist, got_angles = foot_points_alone(pts, 5.0, 2.0, np.full(len(pts), start))
    assert hexes(got_dist) == dist
    assert hexes(got_angles) == angles


def test_exact_root_start_bits():
    # Each start is the cold solve's angle for its point, at which g is
    # exactly 0.0 in floating point: the first Newton step is tg - 0/dg.
    pts = np.array([[-6.331, -2.345], [11.611, -1.618], [-1.461, 6.014], [8.434, 4.484]])
    a, b = 5.0, 2.0
    start = floats(["0x1.7b40745e19eb6p-2", "0x1.640a009e0a4bfp-4",
                    "0x1.598d84dae56b3p+0", "0x1.821ed98e00a26p-2"])
    st, ct = np.sin(start), np.cos(start)
    g = (a * a - b * b) * st * ct - a * np.abs(pts[:, 0]) * st + b * np.abs(pts[:, 1]) * ct
    assert np.all(g == 0.0)
    foot, dist, angles = foot_points_alone(pts, a, b, start)
    assert np.array_equal(angles, start)
    assert hexes(dist) == ["0x1.29e90f5e402cap+1", "0x1.b243c9f82bd87p+2",
                           "0x1.050e64ba83351p+2", "0x1.54e724c80140bp+2"]
    assert hexes(foot) == [
        "-0x1.2a4d7ef58b0e1p+2", "-0x1.72a40b1bcf672p-1", "0x1.3ecab67c035fap+2",
        "-0x1.63974455c5e2dp-3", "-0x1.188f0c7aaa1b5p+0", "0x1.f38cb7d75174ep+0",
        "0x1.2984e2e540a2cp+2", "0x1.790910c6a9053p-1",
    ]


@pytest.mark.parametrize("case", GN_CASES)
def test_jacobian_only_for_steps_that_continue(case):
    # One Jacobian for the initial iterate and one per accepted step that
    # another step follows. Every iteration but the last accepts exactly one
    # step, so that is one per iteration, however the fit ends; the last
    # trial, accepted or not, is never differentiated.
    jacobians, residuals = [], []
    jacobian, residual = conicfit._gn_jacobian, conicfit._gn_residual

    def counted_jacobian(*args):
        jacobians.append(1)
        return jacobian(*args)

    def counted_residual(*args):
        residuals.append(1)
        return residual(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conicfit, "_gn_jacobian", counted_jacobian)
        patch.setattr(conicfit, "_gn_residual", counted_residual)
        fit = GN_CASES[case][0]()
    assert len(jacobians) == fit.iterations
    # The initial iterate plus at least one trial per iteration.
    assert len(residuals) >= fit.iterations + 1


# Equal-size sections that take different numbers of steps to converge.
STACK = np.stack([SECTION_B] + [section(seed, 20, fraction, sigma)[1] for seed, fraction, sigma in (
    (73, 1.0, 0.05), (74, 0.6, 0.1), (75, 0.3, 0.05), (76, 0.8, 0.3), (77, 0.5, 0.02))])


@pytest.mark.parametrize("kwargs", [
    {},
    {"max_iterations": 2},
    {"init": [moment_init(pts) for pts in STACK]},
], ids=["default", "budget-2", "moment-init"])
def test_stack_fits_each_section_as_alone(kwargs):
    batch = fit_gauss_newton(STACK, **kwargs)
    inits = kwargs.get("init", [None] * len(STACK))
    alone = [fit_gauss_newton(pts, init=init, max_iterations=kwargs.get("max_iterations", 100))
             for pts, init in zip(STACK, inits)]
    assert [fit_row(f) for f in batch] == [fit_row(f) for f in alone]
    assert [f.conic for f in batch] == [f.conic for f in alone]
    assert batch.iterations == sum(f.iterations for f in alone)
    assert batch.converged == all(f.converged for f in alone)
    if not kwargs:
        # The sections leave the lockstep at different rounds.
        assert len({f.iterations for f in alone}) > 2


def test_stack_with_on_axis_points_settles_each_section_as_alone():
    # Points exactly on a symmetry axis (-0.0 too) and at the centre take
    # their closed-form angles in a zero-width bracket; the sections settle
    # in different Newton rounds, so the later rounds run on fewer rows.
    local = np.array([
        [[4.0, 0.0], [0.0, -1.0], [6.0, -4.0], [0.2, 0.1], [-3.0, 1.5], [4.9, 0.3]],
        [[1.0, 3.0], [-0.0, 0.0], [2.9, -0.0], [-7.0, 0.0], [0.3, -2.5], [0.0, 3.0]],
        [[2.0, 0.8], [2.1, 0.7], [-1.9, 0.9], [0.1, 0.05], [8.0, -6.0], [0.0, 0.5]],
    ])
    a, b = np.array([[5.0], [4.0], [3.0]]), np.array([[2.0], [3.5], [1.0]])
    rows = []
    step = conicfit._newton_step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conicfit, "_newton_step", lambda t, *args: rows.append(len(t)) or step(t, *args))
        got = conicfit._foot_points(local, a, b)
    assert rows == [3, 3, 3, 3, 2, 2]
    for k in range(3):
        alone = conicfit._foot_points(local[k:k + 1], a[k:k + 1], b[k:k + 1])
        assert all(x[k].tobytes() == y[0].tobytes() for x, y in zip(got, alone))
    assert hexes(got[1]) == [
        "-0x1.f3a92ca2f4b7dp-1", "-0x1.0000000000000p+0", "0x1.b6811b821baf3p+1",
        "-0x1.e5eab0a32f745p+0", "-0x1.8816e33a6793cp-4", "-0x1.4b96341102eadp-5",
        "-0x1.837be3e3d7f6ep-2", "-0x1.c000000000000p+1", "-0x1.199999999999ap+0",
        "0x1.8000000000000p+1", "-0x1.f98e43afd26cdp-1", "-0x1.0000000000000p-1",
        "0x1.ad3724e172a27p-5", "-0x1.b86ea485cbbfbp-7", "0x1.f2d952eb64bb9p-4",
        "-0x1.e614f6bf282dfp-1", "0x1.eafcd289bdc38p+2", "-0x1.0000000000000p-1",
    ]
    assert hexes(got[2]) == [
        "0x1.3d47e9ca1ff06p-2", "0x1.921fb54442d18p+0", "0x1.25f8f0f06d1fdp-1",
        "0x1.860b45b837ccdp+0", "0x1.d7329ff554abfp-1", "0x1.43e642063529cp-3",
        "0x1.4b6566efba768p+0", "0x1.921fb54442d18p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.7996e11a08681p+0", "0x1.921fb54442d18p+0",
        "0x1.b200da10ee51fp-1", "0x1.963dfa3c73872p-1", "0x1.cbf1afa7a72f9p-1",
        "0x1.8894d149ec5dbp+0", "0x1.657d30e71892ep-2", "0x1.921fb54442d18p+0",
    ]


def singular_in_round(patch, round_, positions):
    """Make np.linalg.solve fail, as on a singular matrix, for the damped
    systems of the running sections at ``positions`` in Levenberg-Marquardt
    round ``round_`` (one stacked solve per round, then one solve per
    system when it fails). Returns the count of failed solves."""
    solve = np.linalg.solve
    state = {"round": 0, "system": 0, "failed": 0}

    def failing_solve(lhs, rhs):
        if lhs.ndim == 3:
            state["round"] += 1
            state["system"] = 0
            fail = state["round"] == round_
        else:
            fail = state["round"] == round_ and state["system"] in positions
            state["system"] += 1
        if fail:
            state["failed"] += 1
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(lhs, rhs)

    patch.setattr(np.linalg, "solve", failing_solve)
    return state


# Captured with the singular systems injected before they were solved as
# NaN steps: each section's damping then rose tenfold by a separate rule.
SINGULAR_CASES = {
    "one-section": (2, {3}, 2, [
        (["-0x1.a5ea6455ea3f3p+5", "-0x1.36ca45c04f08ap+6", "0x1.9929c956bf861p+5",
          "0x1.81e43af581181p+5", "0x1.00820f993c878p-1", "0x1.9fe36cc1d32bcp-9",
          "0x1.3f9f0dd5685e7p-4"], 3, True),
        (["-0x1.725e30fb84de7p+5", "0x1.8422779e18366p+6", "0x1.e9785a262ca46p+4",
          "0x1.f6eebbd4001e9p+3", "-0x1.91ea755ede992p-1", "0x1.6c003755bae44p-8",
          "0x1.b7d6baa210e2ep-5"], 3, True),
        (["0x1.1c7fd6926cb41p+5", "0x1.0f6f3d43320a0p+5", "0x1.b1cce4aac37a4p+5",
          "0x1.4d88a44ba5519p+4", "0x1.75adb39ddfe3dp-3", "0x1.fc93ac9c14282p-8",
          "0x1.6c35bf165f434p-4"], 3, True),
        (["0x1.0ac31fc7f664bp+5", "0x1.268d07e11e61bp+5", "0x1.c298e1be76864p+3",
          "0x1.231dba84df2ecp+3", "0x1.3afa3648c9ef9p+0", "0x1.94faabb4d0d68p-8",
          "0x1.f4c409a2c2494p-6"], 5, True),
        (["0x1.24f573e3f11fbp+5", "0x1.6263417d41bd8p+5", "0x1.8751e328336fdp+5",
          "0x1.8832c03cdeaa9p+3", "-0x1.2ddc1ad30c6a7p+0", "0x1.9eb28199df868p-6",
          "0x1.bdf2ea207e61ap-3"], 4, True),
        (["-0x1.997df0c860172p+5", "-0x1.09306bd751a79p+5", "0x1.7d1e93a0aa302p+5",
          "0x1.1c9ad86cb2b00p+4", "-0x1.041a2e9ceb049p-1", "0x1.fffd58cf845c2p-10",
          "0x1.5bb6c7f2523a9p-6"], 3, True),
    ]),
    "every-section": (3, set(range(len(STACK))), 1 + len(STACK), [
        (["-0x1.a5ea6455ea3f0p+5", "-0x1.36ca45c04f08ap+6", "0x1.9929c956bf863p+5",
          "0x1.81e43af581183p+5", "0x1.00820f993c857p-1", "0x1.9fe36cc1d346ep-9",
          "0x1.3f9f0dd5685c1p-4"], 3, True),
        (["-0x1.725e30fb84de7p+5", "0x1.8422779e18366p+6", "0x1.e9785a262ca46p+4",
          "0x1.f6eebbd4001e9p+3", "-0x1.91ea755ede992p-1", "0x1.6c003755bae44p-8",
          "0x1.b7d6baa210e33p-5"], 3, True),
        (["0x1.1c7fd6926cb41p+5", "0x1.0f6f3d43320a0p+5", "0x1.b1cce4aac37a5p+5",
          "0x1.4d88a44ba5519p+4", "0x1.75adb39ddfe3fp-3", "0x1.fc93ac9c1426ap-8",
          "0x1.6c35bf165f446p-4"], 3, True),
        (["0x1.0ac31fc7f664dp+5", "0x1.268d07e11e61bp+5", "0x1.c298e1be76860p+3",
          "0x1.231dba84df2e4p+3", "0x1.3afa3648c9efap+0", "0x1.94faabb4d0adep-8",
          "0x1.f4c409a2c2484p-6"], 5, True),
        (["0x1.24f573e3f11fbp+5", "0x1.6263417d41bd8p+5", "0x1.8751e328336fdp+5",
          "0x1.8832c03cdeaa9p+3", "-0x1.2ddc1ad30c6a7p+0", "0x1.9eb28199df868p-6",
          "0x1.bdf2ea207e61ap-3"], 4, True),
        (["-0x1.997df0c860172p+5", "-0x1.09306bd751a79p+5", "0x1.7d1e93a0aa301p+5",
          "0x1.1c9ad86cb2b00p+4", "-0x1.041a2e9ceb049p-1", "0x1.fffd58cf848ddp-10",
          "0x1.5bb6c7f2522fcp-6"], 3, True),
    ]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", SINGULAR_CASES)
def test_singular_damped_systems_raise_the_damping(case):
    round_, positions, failed, expected = SINGULAR_CASES[case]
    with pytest.MonkeyPatch.context() as patch:
        state = singular_in_round(patch, round_, positions)
        fits = fit_gauss_newton(STACK)
    assert state["failed"] == failed
    assert [fit_row(f) for f in fits] == expected
