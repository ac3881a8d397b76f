"""Ellipse fitting: two constrained linear least-squares methods and a
nonlinear geometric-distance method.

All three minimize a residual of the implicit conic F(x) = x^T A x + b^T x + c:

* ``fit_bookstein`` minimizes sum F(x_i)^2 subject to lambda1^2 + lambda2^2 = 1
  (eigenvalues of A), solved as a partitioned QR/SVD problem;
* ``fit_trace`` minimizes the same objective subject to Trace(A) = 1, which
  eliminates one unknown and reduces to ordinary linear least squares;
* ``fit_gauss_newton`` minimizes the sum of squared orthogonal distances to
  the ellipse boundary over (center, semi-axes, orientation), with Levenberg
  damping so the geometric RMS never increases across accepted steps.

Input points are centered and scaled to unit RMS radius before the design
matrices are formed, purely for conditioning. Both constraints depend only
on A, which is unchanged by translation and scales uniformly under isotropic
scaling, so the normalized problem is the original one up to a constant
factor and the returned conic is the exact constrained minimizer in the
original coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollapsedAxis,
    DegenerateConfiguration,
    NotAnEllipse,
    TooFewPoints,
)
from .geometry import (
    BOOKSTEIN,
    TRACE,
    Conic2D,
    EllipseParams,
    as_points,
    conic_to_params,
    normalize_conic,
    params_to_conic,
)

_RANK_TOL = 1e-10
_AXIS_FLOOR = 1e-9

# Gauss-Newton iteration budget, stopping tolerances and damping floor.
DEFAULT_MAX_ITERATIONS = 100
_STEP_TOL = 1e-12
_RESIDUAL_TOL = 1e-12
_DAMPING_FLOOR = 1e-12
_EYE5 = np.eye(5)


@dataclass(frozen=True)
class FitResult:
    conic: Conic2D
    params: EllipseParams
    rms_algebraic_residual: float
    rms_geometric_residual: float
    iterations: int = 0
    converged: bool = True


def geometric_residuals(points, params: EllipseParams) -> np.ndarray:
    """Signed orthogonal distance to the ellipse boundary for each point."""
    return _ellipse_foot_points(points, params)[1]


def _rms(values: np.ndarray) -> float:
    return math.sqrt(float(np.square(values).sum()) / values.size)


def _normalize_points(pts: np.ndarray):
    # sum / n is the arithmetic of ndarray.mean without its wrapper.
    n = len(pts)
    mean = pts.sum(axis=0) / n
    centered = pts - mean
    scale = math.sqrt(float((centered * centered).sum(axis=1).sum()) / n)
    if scale <= 0.0:
        raise DegenerateConfiguration("all points coincide")
    return centered / scale, mean, scale


def _pull_back(conic: Conic2D, mean: np.ndarray, scale: float) -> Conic2D:
    """Rewrite a conic fitted in (x - mean)/scale coordinates in the originals."""
    a = conic.matrix / scale**2
    b = conic.linear / scale - 2.0 * (a @ mean)
    c = conic.c - float(conic.linear @ mean) / scale + float(mean @ a @ mean)
    return Conic2D(a[0, 0], a[0, 1], a[1, 1], b[0], b[1], c)


def _as_ellipse(conic: Conic2D, constraint: str) -> tuple[Conic2D, EllipseParams]:
    """The best-fit conic normalized to ``constraint``, and its ellipse."""
    if conic.det_a <= 0.0:
        raise NotAnEllipse("best-fit conic is not an ellipse", conic=conic)
    conic = normalize_conic(conic, constraint)
    return conic, conic_to_params(conic)


def _linear_result(pts: np.ndarray, conic: Conic2D, params: EllipseParams) -> FitResult:
    return FitResult(
        conic=conic,
        params=params,
        rms_algebraic_residual=_rms(conic._evaluate(pts)),
        rms_geometric_residual=_rms(geometric_residuals(pts, params)),
    )


def fit_bookstein(points) -> FitResult:
    """Least-squares conic fit under the eigenvalue-norm constraint.

    The constraint lambda1^2 + lambda2^2 = 1 equals a11^2 + 2 a12^2 + a22^2,
    so with the quadratic block written in the scaled basis
    (u^2, sqrt(2) u v, v^2) it becomes a unit-norm condition. Eliminating the
    linear coefficients via QR leaves a smallest-singular-vector problem on
    the 3x3 trailing block.
    """
    pts = as_points(points, 2)
    if len(pts) < 6:
        raise TooFewPoints(f"need at least 6 points, got {len(pts)}")
    norm, mean, scale = _normalize_points(pts)
    u, v = norm[:, 0], norm[:, 1]
    design = np.column_stack(
        (u, v, np.ones_like(u), u * u, math.sqrt(2.0) * u * v, v * v)
    )
    sv = np.linalg.svd(design, compute_uv=False)
    if np.sum(sv > _RANK_TOL * sv[0]) < 5:
        raise DegenerateConfiguration("points do not determine a conic")
    r = np.linalg.qr(design, mode="r")
    r11, r12, r22 = r[:3, :3], r[:3, 3:], r[3:, 3:]
    _, _, vt = np.linalg.svd(r22)
    p = vt[-1]
    q = np.linalg.lstsq(r11, -r12 @ p, rcond=None)[0]
    scaled = Conic2D(p[0], p[1] / math.sqrt(2.0), p[2], q[0], q[1], q[2])
    return _linear_result(pts, *_as_ellipse(_pull_back(scaled, mean, scale), BOOKSTEIN))


def fit_trace(points) -> FitResult:
    """Least-squares conic fit under Trace(A) = 1.

    Substituting a11 = 1 - a22 turns the constrained problem into an
    ordinary linear system in (a22, a12, b1, b2, c).
    """
    pts = as_points(points, 2)
    return _linear_result(pts, *_trace_solve(pts))


def _trace_solve(pts: np.ndarray) -> tuple[Conic2D, EllipseParams]:
    """The trace-constrained conic and its ellipse, without the residuals."""
    if len(pts) < 6:
        raise TooFewPoints(f"need at least 6 points, got {len(pts)}")
    norm, mean, scale = _normalize_points(pts)
    u, v = norm[:, 0], norm[:, 1]
    design = np.empty((len(u), 5))
    design[:, 0] = v * v - u * u
    design[:, 1] = 2.0 * u * v
    design[:, 2] = u
    design[:, 3] = v
    design[:, 4] = 1.0
    rhs = -u * u
    sol, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 5:
        raise DegenerateConfiguration("points do not determine a conic")
    a22, a12, b1, b2, c = sol
    scaled = Conic2D(1.0 - a22, a12, a22, b1, b2, c)
    return _as_ellipse(_pull_back(scaled, mean, scale), TRACE)


def moment_init(points) -> EllipseParams:
    """Crude ellipse estimate from first and second moments.

    Exact for noise-free points sampled uniformly in parameter angle; used
    as the un-warm-started initializer for the Gauss-Newton comparison.
    """
    pts = as_points(points, 2)
    if len(pts) < 3:
        raise TooFewPoints("moment init needs at least 3 points")
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / len(pts)
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] <= 0.0:
        raise DegenerateConfiguration("points are collinear")
    return EllipseParams.from_axes(mean, math.sqrt(2.0 * evals[1]), math.sqrt(2.0 * evals[0]),
                                   math.atan2(evecs[1, 1], evecs[0, 1]))


def fit_gauss_newton(
    points,
    init: EllipseParams | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> FitResult:
    """Geometric (orthogonal-distance) ellipse fit.

    Minimizes the sum of squared point-to-boundary distances over
    (center, semi-axes, orientation) with Levenberg damping; only steps that
    do not increase the geometric RMS are accepted. The fit has converged
    when a step changes the RMS by at most 1e-12 in either direction (or is
    itself negligible): a rise that small is rounding at the optimum, so the
    current iterate is kept instead of damping the step towards zero. Each
    trial starts its foot-point solve from the accepted iterate's angles and
    computes distances only; the Jacobian is formed only at an iterate that
    another step starts from. ``init`` defaults to the trace-constraint solution. At most
    ``max_iterations`` steps are taken; ``converged`` is False when the
    budget runs out first.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    pts = as_points(points, 2)
    if len(pts) < 5:
        raise TooFewPoints(f"need at least 5 points, got {len(pts)}")
    if init is None:
        init = _trace_solve(pts)[1]

    theta = np.array(
        [init.center[0], init.center[1], init.semi_major, init.semi_minor, init.orientation]
    )
    residual, jac, angles = _gn_residual_jacobian(pts, theta)
    rms = _rms(residual)
    mu = _DAMPING_FLOOR
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        if jac is None:
            jac = _gn_jacobian(theta, foot)
        g = jac.T @ residual
        h = jac.T @ jac
        while mu < 1e18:
            try:
                delta = np.linalg.solve(h + mu * _EYE5, -g)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            trial = theta + delta
            trial[2] = abs(trial[2])
            trial[3] = abs(trial[3])
            if min(trial[2], trial[3]) < _AXIS_FLOOR:
                raise CollapsedAxis("a semi-axis collapsed during iteration")
            trial_foot, trial_residual, trial_angles = _gn_residual(pts, trial, angles)
            trial_rms = _rms(trial_residual)
            if trial_rms - rms <= _RESIDUAL_TOL:
                break
            mu *= 10.0
        else:
            break  # damping exhausted without an acceptable step
        if trial_rms > rms:
            # A rise this small is rounding: more damping only shrinks the
            # step towards zero, so the current iterate is the optimum.
            converged = True
            break
        # sqrt(x.dot(x)) is the arithmetic of np.linalg.norm on a vector.
        step_small = math.sqrt(delta.dot(delta)) <= _STEP_TOL * (
            1.0 + math.sqrt(theta.dot(theta))
        )
        residual_small = (rms - trial_rms) <= _RESIDUAL_TOL
        # The next iteration, if any, forms the Jacobian at the new iterate.
        theta, foot, residual, jac, rms, angles = (
            trial, trial_foot, trial_residual, None, trial_rms, trial_angles)
        mu = max(_DAMPING_FLOOR, mu * 0.1)
        if step_small or residual_small:
            converged = True
            break

    params = EllipseParams.from_axes(theta[:2], *theta[2:])
    conic = params_to_conic(params)
    return FitResult(
        conic=conic,
        params=params,
        rms_algebraic_residual=_rms(conic._evaluate(pts)),
        rms_geometric_residual=rms,
        iterations=iterations,
        converged=converged,
    )


def point_to_ellipse_distance(point, params: EllipseParams) -> float:
    """Signed orthogonal distance from a point to the ellipse boundary.

    Negative inside, positive outside. Solved by safeguarded Newton on the
    parametric foot-point angle with a bisection fallback, so it converges
    for every input.
    """
    return float(_ellipse_foot_points(np.reshape(point, (1, 2)), params)[1][0])


def ellipse_foot_point(point, params: EllipseParams) -> np.ndarray:
    """Closest boundary point to ``point``."""
    foot = _ellipse_foot_points(np.reshape(point, (1, 2)), params)[0]
    ca, sa = math.cos(params.orientation), math.sin(params.orientation)
    rot = np.array([[ca, -sa], [sa, ca]])
    return foot[0] @ rot.T + params.center


def _ellipse_foot_points(points, params: EllipseParams):
    """Validated ``points`` in the ellipse frame, passed to _foot_points."""
    local = _to_local(as_points(points, 2), params.center, params.orientation)
    return _foot_points(local, params.semi_major, params.semi_minor)


def _to_local(pts: np.ndarray, center, orientation: float) -> np.ndarray:
    """Rotate/translate points into the ellipse-aligned frame.

    Not EllipseParams: Gauss-Newton iterates may have a < b, which it rejects.
    """
    ca, sa = math.cos(orientation), math.sin(orientation)
    rot = np.array([[ca, sa], [-sa, ca]])
    return (pts - center) @ rot.T


def _foot_points(local: np.ndarray, a: float, b: float, start: np.ndarray | None = None):
    """Vectorized foot points of ``local`` points on an axis-aligned ellipse.

    Returns (foot points in the local frame, signed distances, foot-point
    angles in [0, pi/2]). The foot-point condition in the first quadrant is
    g(t) = (a^2 - b^2) sin t cos t - a P sin t + b Q cos t = 0
    with g(0) = bQ >= 0 and g(pi/2) = -aP <= 0, so the root is bracketed;
    Newton steps that leave the bracket fall back to bisection. Newton
    starts from ``start`` (angles in [0, pi/2], such as an earlier solve's)
    or by default from arctan2(aQ, bP). Points on a symmetry axis are
    resolved in closed form whatever the start (the bracket endpoints can be
    spurious roots there).
    """
    sign = np.where(local >= 0.0, 1.0, -1.0)
    pq = np.abs(local)
    p, q = pq[:, 0], pq[:, 1]
    t = np.arctan2(a * q, b * p) if start is None else np.array(start, dtype=float)
    # -0.0 counts as zero, as the axis masks below do.
    all_general = np.count_nonzero(local) == local.size

    if all_general:
        tg, ap, bq = t, a * p, b * q
    else:
        on_u_axis = q == 0.0
        on_v_axis = p == 0.0
        general = ~(on_u_axis | on_v_axis)
        if np.any(on_u_axis):
            # Interior root exists when the point is inside the evolute cusp.
            pu = p[on_u_axis]
            if a > b:
                cusp = (a * a - b * b) / a
                ct = np.where(pu < cusp, a * pu / (a * a - b * b), 1.0)
                t[on_u_axis] = np.arccos(np.clip(ct, -1.0, 1.0))
            else:
                t[on_u_axis] = 0.0
        if np.any(on_v_axis):
            qv = q[on_v_axis]
            if b > a:
                cusp = (b * b - a * a) / b
                st = np.where(qv < cusp, b * qv / (b * b - a * a), 1.0)
                t[on_v_axis] = np.arcsin(np.clip(st, -1.0, 1.0))
            else:
                t[on_v_axis] = math.pi / 2.0
        center = on_u_axis & on_v_axis
        if np.any(center):
            t[center] = 0.0 if a <= b else math.pi / 2.0
        tg, ap, bq = t[general], a * p[general], b * q[general]

    n = len(tg)
    if n:
        # a^2 - b^2 and 0.0 as arrays: an array operand is a cheaper
        # dispatch than a Python float, and the values are the same.
        zero = np.zeros(n)
        diff = zero + (a * a - b * b)
        lo = np.zeros(n)
        hi = lo + math.pi / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(90):
                st, ct = np.sin(tg), np.cos(tg)
                g = diff * st * ct - ap * st + bq * ct
                np.copyto(lo, tg, where=g > zero)
                np.copyto(hi, tg, where=g < zero)
                dg = diff * (ct * ct - st * st) - ap * ct - bq * st
                # Where g == 0 and dg != 0 this is tg - (+-0.0) == tg, the
                # value the fallback's where() picks; 0/0 is NaN and fails
                # the bracket test, which then runs the fallback.
                newton = tg - g / dg
                in_bracket = (newton >= lo) & (newton <= hi)
                # count_nonzero is ndarray.all() without its reduction wrapper.
                if np.count_nonzero(in_bracket) == n:
                    t_next = newton
                else:
                    newton = np.where(g == 0.0, tg, newton)
                    # NaN and +-inf fail both comparisons and so bisect.
                    in_bracket = (newton >= lo) & (newton <= hi)
                    t_next = np.where(in_bracket, newton, 0.5 * (lo + hi))
                # One ulp at t ~ 1 is 2.2e-16, so a tighter bound never settles.
                settled = np.abs(t_next - tg).max() < 1e-15
                tg = t_next
                if settled:
                    break
    if all_general:
        t = tg
    else:
        t[general] = tg

    # sign is +-1, so applying it last changes no bit of the product.
    foot = np.empty_like(local)
    foot[:, 0] = a * np.cos(t)
    foot[:, 1] = b * np.sin(t)
    foot *= sign
    delta = local - foot
    dist = np.hypot(delta[:, 0], delta[:, 1])
    inside = (local[:, 0] / a) ** 2 + (local[:, 1] / b) ** 2 < 1.0
    return foot, np.where(inside, -dist, dist), t


def _gn_residual_jacobian(pts: np.ndarray, theta: np.ndarray, start: np.ndarray | None = None):
    """Signed distances, their Jacobian w.r.t. (cx, cy, a, b, phi) and the
    foot-point angles, solved from ``start`` when given (see _foot_points).
    """
    foot, dist, angles = _gn_residual(pts, theta, start)
    return dist, _gn_jacobian(theta, foot), angles


def _gn_residual(pts: np.ndarray, theta: np.ndarray, start: np.ndarray | None = None):
    """Foot points in the frame of ``theta`` = (cx, cy, a, b, phi), signed
    distances and foot-point angles (see _foot_points).
    """
    a, b, phi = theta[2:].tolist()
    return _foot_points(_to_local(pts, theta[:2], phi), a, b, start)


def _gn_jacobian(theta: np.ndarray, foot: np.ndarray) -> np.ndarray:
    """Jacobian of the signed distances w.r.t. (cx, cy, a, b, phi), from the
    foot points ``_gn_residual`` returned for ``theta``.

    By the envelope theorem the foot-point angle's dependence on the
    parameters drops out, leaving d(dist)/d(param) = -n . dq/d(param) with
    n the outward unit normal at the foot point q.
    """
    a, b, phi = theta[2:].tolist()
    ct = foot[:, 0] / a
    st = foot[:, 1] / b
    nx = ct / a
    ny = st / b
    length = np.hypot(nx, ny)
    nlx = nx / length
    nly = ny / length

    ca, sa = math.cos(phi), math.sin(phi)
    jac = np.empty((len(foot), 5))
    # d q / d center is the identity, rotated back to the world frame.
    jac[:, 0] = -(nlx * ca - nly * sa)
    jac[:, 1] = -(nlx * sa + nly * ca)
    jac[:, 2] = -nlx * ct
    jac[:, 3] = -nly * st
    jac[:, 4] = nlx * b * st - nly * a * ct
    return jac
