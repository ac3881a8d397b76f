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

All three fits take one section or a stack of equal-size sections. A stack
is solved with one set of array calls for all its sections: the two linear
fits share one core (normalisation, checks, conic conversion and foot-point
pass) around their own stacked solve, and Gauss-Newton runs lockstep rounds,
in which every decision (step acceptance, damping, convergence, when a
foot-point solve settles) is taken per section. Each section's result is bit
for bit the one it gets alone. The foot-point solve takes stacks only; one
section, or the points of a distance function, is a stack of one.

A stacked kernel raises at the first check that any of its sections fails.
A stack that raises is fitted again one section at a time
(geometry.stacked_or_alone), so it raises its earliest failing section's
error, as a loop would, with that section's position in ``.section``.

Input points are centered and scaled to unit RMS radius before the design
matrices are formed, purely for conditioning. Both constraints depend only
on A, which is unchanged by translation and scales uniformly under isotropic
scaling, so the normalized problem is the original one up to a constant
factor and the returned conic is the exact constrained minimizer in the
original coordinates.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # a numpy without the private gufunc module
    _umath_linalg = None

from .errors import CollapsedAxis, DegenerateConfiguration, TooFewPoints
from .geometry import (
    BOOKSTEIN,
    MIN_SECTION_POINTS,
    TRACE,
    Conic2D,
    EllipseParams,
    as_points,
    check_conics,
    conic_matrices,
    conic_values,
    conics_to_params,
    finite_points,
    normalize_conics,
    params_to_conics,
    section_stack,
    stacked_or_alone,
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


class FitBatch(tuple):
    """The FitResult of each section of a stack, in stack order."""

    __slots__ = ()

    @property
    def iterations(self) -> int:
        """Steps taken over all the fits."""
        return sum(f.iterations for f in self)

    @property
    def converged(self) -> bool:
        """Whether every fit converged."""
        return all(f.converged for f in self)


def geometric_residuals(points, params: EllipseParams) -> np.ndarray:
    """Signed orthogonal distance to the ellipse boundary for each point."""
    return _ellipse_foot_points(as_points(points, 2), params)[1]


def _param_rows(params: Sequence[EllipseParams]) -> np.ndarray:
    """The (cx, cy, a, b, phi) row (S, 5) of each ellipse."""
    return np.array([(*p.center, p.semi_major, p.semi_minor, p.orientation)
                     for p in params]).reshape(-1, 5)


def _row_rms(values: np.ndarray) -> np.ndarray:
    """The RMS of each row of a C-ordered (S, n) array; numpy sums each row
    pairwise, as it sums the row alone."""
    return np.sqrt(np.square(values).sum(axis=1) / values.shape[1])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row. A (1, k) @ (k, 1) matmul takes the BLAS
    dot that norm takes on one vector; a sum of squares rounds differently.
    """
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _normalize_points(stack: np.ndarray):
    """Each section of a stack centred on its mean and scaled to unit RMS
    radius, with the means (S, 2) and the radii (S,). A section whose points
    coincide has radius 0.0 and non-finite scaled points.
    """
    # sum / n is the arithmetic of ndarray.mean without its wrapper. Each
    # section's column sums round by its own memory layout, which
    # section_stack keeps.
    n = stack.shape[1]
    mean = stack.sum(axis=1) / n
    centered = stack - mean[:, None, :]
    scale = np.sqrt((centered * centered).sum(axis=2).sum(axis=1) / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return centered / scale[:, None, None], mean, scale


def _pull_back(coef: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Rewrite conics (S, 6) fitted in (x - mean)/scale coordinates in the
    originals."""
    # Python's pow: numpy's square rounds some squares differently.
    scale2 = np.array([s**2 for s in scale.tolist()])
    a = conic_matrices(coef) / scale2[:, None, None]
    linear = coef[:, 3:5]
    b = linear / scale[:, None] - 2.0 * (a @ mean[:, :, None])[:, :, 0]
    c = (coef[:, 5] - (linear[:, None, :] @ mean[:, :, None])[:, 0, 0] / scale
         + (mean[:, None, :] @ a @ mean[:, :, None])[:, 0, 0])
    return np.column_stack((a[:, 0, 0], a[:, 0, 1], a[:, 1, 1], b, c))


def _ellipses(coef: np.ndarray, constraint: str):
    """The best-fit conics (S, 6) normalized to ``constraint`` and their
    ellipses; raises the NotAnEllipse of the first conic that is not one.
    """
    det = coef[:, 0] * coef[:, 2] - coef[:, 1] * coef[:, 1]
    check_conics(det <= 0.0, coef, "best-fit conic is not an ellipse")
    # det(A) > 0 puts a11 and a22 on one side of zero, so every conic can be
    # normalized.
    normalized = normalize_conics(coef, constraint)
    return normalized, conics_to_params(normalized)


def _fit_batch(stack, coef, params, geometric, iterations=None, converged=None) -> FitBatch:
    """The FitResults of a stack's sections from their conics (S, 6),
    ellipses, geometric RMS and, for an iterative fit, iteration counts and
    convergence flags; the algebraic RMS is computed here, for all at once.
    """
    count = len(stack)
    algebraic = _row_rms(conic_values(coef, stack))
    iterations = [0] * count if iterations is None else iterations.tolist()
    converged = [True] * count if converged is None else converged.tolist()
    return FitBatch(
        FitResult(Conic2D(*c), p, alg, geo, it, conv)
        for c, p, alg, geo, it, conv in zip(
            coef.tolist(), params, algebraic.tolist(), geometric.tolist(), iterations, converged))


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _stacked_lstsq(design: np.ndarray, rhs: np.ndarray):
    """np.linalg.lstsq(design[k], rhs[k], rcond=None) of each matrix of a
    stack: the solutions (S, k, r) and the ranks (S,).

    np.linalg.lstsq is a 2-D wrapper around numpy's stacked gufunc, which
    runs one LAPACK gelsd per matrix. Called on the stack with the wrapper's
    signature, rcond and error handling, it gives each matrix the wrapper's
    bits (checked on numpy 2.4), and a gelsd failure still raises
    LinAlgError. Without the gufunc, each matrix is solved by the wrapper.
    """
    rows, cols = design.shape[-2:]
    if getattr(_umath_linalg, "lstsq", None) is None:
        solved = [np.linalg.lstsq(a, b, rcond=None) for a, b in zip(design, rhs)]
        return np.array([x for x, _, _, _ in solved]), np.array([r for _, _, r, _ in solved])
    with np.errstate(call=_lstsq_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x, _, rank, _ = _umath_linalg.lstsq(
            design, rhs, np.finfo(float).eps * max(rows, cols), signature="ddd->ddid")
    return x, rank


def fit_bookstein(points) -> FitResult | FitBatch:
    """Least-squares conic fit under the eigenvalue-norm constraint of one
    section or of a stack of equal-size sections.

    The constraint lambda1^2 + lambda2^2 = 1 equals a11^2 + 2 a12^2 + a22^2,
    so with the quadratic block written in the scaled basis
    (u^2, sqrt(2) u v, v^2) it becomes a unit-norm condition. Eliminating the
    linear coefficients via QR leaves a smallest-singular-vector problem on
    the 3x3 trailing block.

    ``points`` and the results are as for fit_trace.
    """
    return _linear_fit(points, BOOKSTEIN)


def fit_trace(points) -> FitResult | FitBatch:
    """Least-squares conic fit under Trace(A) = 1 of one section or of a
    stack of equal-size sections.

    Substituting a11 = 1 - a22 turns the constrained problem into an
    ordinary linear system in (a22, a12, b1, b2, c).

    ``points`` is one (n, 2) section, whose FitResult is returned, or a stack
    (S, n, 2) of sections, whose fits are returned as a FitBatch in stack
    order. Each section's fit is bit for bit the fit it gets alone, and a
    stack raises the error of its earliest failing section, as fitting the
    sections one by one would, with that section's position in
    ``.section``.
    """
    return _linear_fit(points, TRACE)


def _linear_fit(points, constraint: str) -> FitResult | FitBatch:
    """The fit_trace or fit_bookstein results of ``points``, by ``constraint``."""
    stack, single = section_stack(points, 2)

    def run(rows):
        part = finite_points(stack[rows])
        coef, params = _linear_conics(part, constraint)
        geometric = _row_rms(_gn_residual(part, _param_rows(params), None)[1])
        return _fit_batch(part, coef, params, geometric)

    fits = stacked_or_alone(run, len(stack), single)
    return fits[0] if single else FitBatch(fits)


def _linear_conics(stack: np.ndarray, constraint: str):
    """The least-squares conics (S, 6) of a stack of sections under
    ``constraint`` and their ellipses, without the residuals; raises at the
    first check that a section fails.
    """
    n = stack.shape[1]
    if n < MIN_SECTION_POINTS:
        raise TooFewPoints(f"need at least {MIN_SECTION_POINTS} points, got {n}")
    norm, mean, scale = _normalize_points(stack)
    if (scale <= 0.0).any():
        raise DegenerateConfiguration("all points coincide")
    solve = _trace_solve if constraint == TRACE else _bookstein_solve
    scaled, rank = solve(norm[..., 0], norm[..., 1])
    if (rank < 5).any():
        # Copies of one point whose mean rounds are centred a rounding error off
        # zero, so their scale is not 0 and only the rank test catches them.
        first = stack[(rank < 5).argmax()]
        raise DegenerateConfiguration("all points coincide" if (first == first[0]).all()
                                      else "points do not determine a conic")
    return _ellipses(_pull_back(scaled, mean, scale), constraint)


def _trace_solve(u: np.ndarray, v: np.ndarray):
    """The trace-constrained conics (S, 6) of the scaled points (S, n) and
    the rank of each section's design matrix."""
    design = np.empty(u.shape + (5,))
    design[..., 0] = v * v - u * u
    design[..., 1] = 2.0 * u * v
    design[..., 2] = u
    design[..., 3] = v
    design[..., 4] = 1.0
    sol, rank = _stacked_lstsq(design, (-u * u)[..., None])
    a22, a12, b1, b2, c = sol[..., 0].T
    return np.column_stack((1.0 - a22, a12, a22, b1, b2, c)), rank


def _bookstein_solve(u: np.ndarray, v: np.ndarray):
    """The eigenvalue-norm conics (S, 6) of the scaled points (S, n) and the
    numerical rank of each section's design matrix.

    The singular values for the rank, the R of a QR, the smallest right
    singular vector of R's trailing 3x3 block and the lstsq of the linear
    coefficients are each one stacked LAPACK gufunc call, which gives every
    matrix the bits of its own 2-D call (checked on numpy 2.4).
    """
    root2 = math.sqrt(2.0)
    design = np.stack((u, v, np.ones_like(u), u * u, root2 * u * v, v * v), axis=-1)
    sv = np.linalg.svd(design, compute_uv=False)
    rank = (sv > _RANK_TOL * sv[:, :1]).sum(axis=1)
    r = np.linalg.qr(design, mode="r")
    p = np.linalg.svd(r[:, 3:, 3:])[2][:, -1]
    q = _stacked_lstsq(r[:, :3, :3], -r[:, :3, 3:] @ p[:, :, None])[0][..., 0]
    return np.column_stack((p[:, 0], p[:, 1] / root2, p[:, 2], q)), rank


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
    init: EllipseParams | Sequence[EllipseParams | None] | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> FitResult | FitBatch:
    """Geometric (orthogonal-distance) ellipse fit of one section or of a
    stack of equal-size sections.

    Minimizes the sum of squared point-to-boundary distances over
    (center, semi-axes, orientation) with Levenberg damping; only steps that
    do not increase the geometric RMS are accepted. The fit has converged
    when a step changes the RMS by at most 1e-12 in either direction (or is
    itself negligible): a rise that small is rounding at the optimum, so the
    current iterate is kept instead of damping the step towards zero. Each
    trial starts its foot-point solve from the accepted iterate's angles and
    computes distances only; the Jacobian is formed only at an iterate that
    another step starts from. ``init`` defaults to the trace-constraint
    solution. At most ``max_iterations`` steps are taken; ``converged`` is
    False when the budget runs out first.

    ``points`` is one (n, 2) section, whose FitResult is returned, or a stack
    (S, n, 2) of sections, whose fits are returned as a FitBatch in stack
    order; ``init`` is then None or one EllipseParams (or None) per section.
    The sections of a stack are iterated in lockstep, and each one's fit is
    bit for bit the fit it gets alone. A stack raises the error of its
    earliest failing section, as fitting the sections one by one would, with
    that section's position in ``.section``.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    stack, single = section_stack(points, 2)
    count = len(stack)
    if single:
        inits = [init]
    else:
        if isinstance(init, EllipseParams):
            raise ValueError(f"got one init for {count} sections; a stack takes None "
                             "or one init per section")
        inits = [None] * count if init is None else list(init)
        if len(inits) != count:
            raise ValueError(f"got {len(inits)} inits for {count} sections")

    def run(rows):
        part, starts = finite_points(stack[rows]), inits[rows]
        n = part.shape[1]
        if n < 5:
            raise TooFewPoints(f"need at least 5 points, got {n}")
        if any(start is None for start in starts):
            # The trace fit of every section of the part: a subset would be a
            # copy, whose sections lose the memory layout their sums round by.
            trace = _linear_conics(part, TRACE)[1]
            starts = [t if start is None else start for start, t in zip(starts, trace)]
        theta, rms, iterations, converged = _levenberg_marquardt(
            part, _param_rows(starts), max_iterations)
        params = [EllipseParams.from_axes(t[:2], *t[2:]) for t in theta]
        return _fit_batch(part, params_to_conics(params), params, rms, iterations, converged)

    fits = stacked_or_alone(run, count, single)
    return fits[0] if single else FitBatch(fits)


def _levenberg_marquardt(pts: np.ndarray, theta: np.ndarray, max_iterations: int):
    """Damped Gauss-Newton over a stack of sections in lockstep, from the
    rows ``theta``, which it updates in place.

    Each round solves, evaluates and tests one damped trial step for every
    section still running, then forms the Jacobian and normal equations of
    every section whose accepted step another step follows: one _gn_residual
    call, one _gn_jacobian call and one stacked solve per round. Every
    decision reads only its own section's values, so each section takes the
    steps it takes alone. Returns theta, the geometric RMS, the iteration
    count and the convergence flag per section; raises CollapsedAxis when a
    semi-axis of any section collapses.
    """
    count = len(pts)
    foot, residual, angles = _gn_residual(pts, theta, None)
    rms = _row_rms(residual)
    grad, hess = _normal_equations(_gn_jacobian(theta, foot), residual)
    del foot, residual  # each round's are freed before the next round's trial
    mu = np.full(count, _DAMPING_FLOOR)
    iterations = np.ones(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    running = np.ones(count, dtype=bool)

    while True:
        running &= mu < 1e18  # damping exhausted without an acceptable step
        live = np.flatnonzero(running)
        if not live.size:
            break
        # A singular system's NaN step fails the acceptance test below, which
        # raises that section's damping.
        delta = _damped_steps(hess[live] + mu[live, None, None] * _EYE5, -grad[live])
        trial = theta[live] + delta
        np.abs(trial[:, 2:4], out=trial[:, 2:4])
        a, b = trial[:, 2], trial[:, 3]
        # min(a, b) as Python's min picks it, NaN included.
        if (np.where(b < a, b, a) < _AXIS_FLOOR).any():
            raise CollapsedAxis("a semi-axis collapsed during iteration")

        # A slice while every section runs: a view, not a copy.
        rows = live if len(live) < count else slice(None)
        foot, residual, trial_angles = _gn_residual(pts[rows], trial, angles[rows])
        trial_rms = _row_rms(residual)
        old_rms = rms[live]
        accepted = trial_rms - old_rms <= _RESIDUAL_TOL
        mu[live[~accepted]] *= 10.0
        # A rise this small is rounding: more damping only shrinks the step
        # towards zero, so the current iterate is the optimum.
        rose = accepted & (trial_rms > old_rms)
        took = accepted & ~rose
        before = theta[live]
        step_small = _row_norms(delta) <= _STEP_TOL * (1.0 + _row_norms(before))
        done = took & (step_small | (old_rms - trial_rms <= _RESIDUAL_TOL))
        moved = live[took]
        theta[moved] = trial[took]
        angles[moved] = trial_angles[took]
        rms[moved] = trial_rms[took]
        mu[moved] = np.maximum(_DAMPING_FLOOR, mu[moved] * 0.1)
        converged[live[rose | done]] = True
        more = took & ~done & (iterations[live] < max_iterations)
        running[live[accepted & ~more]] = False
        if more.any():
            # The Jacobian only at an iterate that another step starts from.
            fresh = live[more]
            iterations[fresh] += 1
            grad[fresh], hess[fresh] = _normal_equations(
                _gn_jacobian(trial[more], foot[more]), residual[more])
        del foot, residual, trial_angles
    return theta, rms, iterations, converged


def _normal_equations(jac: np.ndarray, residual: np.ndarray):
    """J^T r and J^T J of each section of a stack."""
    jac_t = jac.transpose(0, 2, 1)
    return (jac_t @ residual[..., None])[..., 0], jac_t @ jac


def _damped_steps(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of a stack of 5x5 systems; a singular system's row is NaN."""
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    steps = np.full_like(rhs, np.nan)
    for j, (a, b) in enumerate(zip(lhs, rhs)):
        with contextlib.suppress(np.linalg.LinAlgError):
            steps[j] = np.linalg.solve(a, b[:, None])[:, 0]
    return steps


def point_to_ellipse_distance(point, params: EllipseParams) -> float:
    """Signed orthogonal distance from a point to the ellipse boundary.

    Negative inside, positive outside. Solved by safeguarded Newton on the
    parametric foot-point angle with a bisection fallback, so it converges
    for every input.
    """
    return float(_ellipse_foot_points(_one_point(point), params)[1][0])


def ellipse_foot_point(point, params: EllipseParams) -> np.ndarray:
    """Closest boundary point to ``point``."""
    foot = _ellipse_foot_points(_one_point(point), params)[0]
    ca, sa = math.cos(params.orientation), math.sin(params.orientation)
    rot = np.array([[ca, -sa], [sa, ca]])
    return foot[0] @ rot.T + params.center


def _one_point(point) -> np.ndarray:
    """One 2-D point as a validated (1, 2) array."""
    pts = as_points(point, 2)
    if len(pts) != 1:
        raise ValueError(f"expected one 2-D point, got shape {pts.shape}")
    return pts


def _ellipse_foot_points(pts: np.ndarray, params: EllipseParams):
    """Foot points in the ellipse frame and signed distances of validated
    (N, 2) points, solved as a stack of one."""
    foot, dist, _ = _gn_residual(pts[None], _param_rows([params]), None)
    return foot[0], dist[0]


def _to_local(pts: np.ndarray, center: np.ndarray, orientation: np.ndarray) -> np.ndarray:
    """Rotate/translate a stack of sections (S, n, 2) into their
    ellipse-aligned frames, from one centre (S, 1, 2) and one orientation
    (S,) per section; stacks only.

    Not EllipseParams: Gauss-Newton iterates may have a < b, which it rejects.
    """
    ca, sa = np.cos(orientation), np.sin(orientation)
    rot = np.empty((len(orientation), 2, 2))
    rot[:, 0, 0] = ca
    rot[:, 0, 1] = sa
    rot[:, 1, 0] = -sa
    rot[:, 1, 1] = ca
    return (pts - center) @ rot.transpose(0, 2, 1)


def _foot_points(local: np.ndarray, a, b, start: np.ndarray | None = None):
    """Vectorized foot points of ``local`` points on axis-aligned ellipses.

    ``local`` is a stack (S, n, 2) of sections, one section being a stack of
    one, with the semi-axes ``a`` and ``b`` as (S, 1) columns; stacks only.
    Returns (foot points in the local frame, signed distances, foot-point
    angles in [0, pi/2]) shaped like the stack. Newton starts from ``start``
    (angles (S, n) in [0, pi/2], such as an earlier solve's) or by default
    from arctan2(aQ, bP). Points on a symmetry axis are resolved in closed
    form whatever the start (the bracket endpoints can be spurious roots
    there).
    """
    pq = np.abs(local)
    p, q = pq[..., 0], pq[..., 1]
    t = np.arctan2(a * q, b * p) if start is None else np.array(start, dtype=float)
    lo = np.zeros(t.shape)
    hi = lo + math.pi / 2.0
    # -0.0 counts as zero, as the axis masks do.
    if np.count_nonzero(local) != local.size:
        _axis_angles(t, lo, hi, p, q, a, b)
    ap, bq = a * p, b * q
    del pq, p, q  # not needed in the Newton rounds
    t = _newton_angles(t, lo, hi, ap, bq, a * a - b * b)

    # sign is +-1, so applying it last changes no bit of the product.
    foot = np.empty_like(local)
    foot[..., 0] = a * np.cos(t)
    foot[..., 1] = b * np.sin(t)
    foot *= np.where(local >= 0.0, 1.0, -1.0)
    delta = local - foot
    dist = np.hypot(delta[..., 0], delta[..., 1])
    inside = (local[..., 0] / a) ** 2 + (local[..., 1] / b) ** 2 < 1.0
    return foot, np.where(inside, -dist, dist), t


def _newton_angles(t: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   ap: np.ndarray, bq: np.ndarray, diff):
    """Foot-point angles from the starting angles ``t`` in the brackets
    [``lo``, ``hi``], which it may overwrite.

    The foot-point condition in the first quadrant is
    g(t) = (a^2 - b^2) sin t cos t - a P sin t + b Q cos t = 0
    with g(0) = bQ >= 0 and g(pi/2) = -aP <= 0, so the root is bracketed;
    Newton steps that leave the bracket fall back to bisection, so a point
    whose bracket has zero width keeps its angle. ``diff`` is a^2 - b^2. Each
    section (row of the stack) stops once its own largest step is below
    1e-15, so a section in a stack takes the steps it takes alone; a section
    without points has settled at once.
    """
    # a^2 - b^2 and 0.0 as arrays: an array operand is a cheaper dispatch
    # than a Python float, and the values are the same.
    zero = np.zeros(t.shape)
    diff = zero + diff
    rows = None  # the sections still iterating, once some have settled
    tg = t
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(90):
            t_next = _newton_step(tg, lo, hi, ap, bq, diff, zero)
            # One ulp at t ~ 1 is 2.2e-16, so a tighter bound never settles.
            settled = np.abs(t_next - tg).max(axis=1, initial=0.0) < 1e-15
            tg = t_next
            done = np.count_nonzero(settled)
            if done == len(settled):
                break
            if done:
                # Store the sections that settled and go on with the others.
                if rows is None:
                    rows = np.arange(len(t))
                t[rows[settled]] = tg[settled]
                keep = ~settled
                rows, tg, lo, hi, diff, ap, bq = (
                    x[keep] for x in (rows, tg, lo, hi, diff, ap, bq))
                zero = zero[:len(rows)]
    if rows is None:
        return tg
    t[rows] = tg
    return t


def _newton_step(t, lo, hi, ap, bq, diff, zero) -> np.ndarray:
    """One safeguarded Newton step from the angles ``t``; narrows the
    bracket [``lo``, ``hi``] in place.
    """
    st, ct = np.sin(t), np.cos(t)
    g = diff * st * ct - ap * st + bq * ct
    np.copyto(lo, t, where=g > zero)
    np.copyto(hi, t, where=g < zero)
    dg = diff * (ct * ct - st * st) - ap * ct - bq * st
    # Where g == 0 and dg != 0 this is t - (+-0.0) == t, the value the
    # fallback's where() picks; 0/0 is NaN and fails the bracket test, which
    # then runs the fallback. So the fallback leaves every in-bracket step as
    # it is, and a section of a stack gets the same values whichever path
    # the stack takes.
    newton = t - g / dg
    in_bracket = (newton >= lo) & (newton <= hi)
    # count_nonzero is ndarray.all() without its reduction wrapper.
    if np.count_nonzero(in_bracket) == in_bracket.size:
        return newton
    newton = np.where(g == 0.0, t, newton)
    # NaN and +-inf fail both comparisons and so bisect.
    in_bracket = (newton >= lo) & (newton <= hi)
    return np.where(in_bracket, newton, 0.5 * (lo + hi))


def _axis_angles(t: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Write the closed-form foot-point angle of every point on a symmetry
    axis into the angles ``t`` (S, n) of a stack and into both ends of its
    bracket [``lo``, ``hi``], which Newton and bisection then cannot leave,
    with ``a`` and ``b`` as (S, 1) columns; stacks only.
    """
    a = np.broadcast_to(a, t.shape)
    b = np.broadcast_to(b, t.shape)
    on_u_axis = q == 0.0
    on_v_axis = p == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(on_u_axis):
            # Interior root exists when the point is inside the evolute cusp.
            pu, au, bu = p[on_u_axis], a[on_u_axis], b[on_u_axis]
            cusp = (au * au - bu * bu) / au
            ct = np.where(pu < cusp, au * pu / (au * au - bu * bu), 1.0)
            t[on_u_axis] = np.where(au > bu, np.arccos(np.clip(ct, -1.0, 1.0)), 0.0)
        if np.any(on_v_axis):
            qv, av, bv = q[on_v_axis], a[on_v_axis], b[on_v_axis]
            cusp = (bv * bv - av * av) / bv
            st = np.where(qv < cusp, bv * qv / (bv * bv - av * av), 1.0)
            t[on_v_axis] = np.where(bv > av, np.arcsin(np.clip(st, -1.0, 1.0)), math.pi / 2.0)
    center = on_u_axis & on_v_axis
    if np.any(center):
        t[center] = np.where(a[center] <= b[center], 0.0, math.pi / 2.0)
    on_axis = on_u_axis | on_v_axis
    lo[on_axis] = hi[on_axis] = t[on_axis]


def _gn_residual(pts: np.ndarray, theta: np.ndarray, start: np.ndarray | None):
    """Foot points of a stack of sections in the frames of their ``theta``
    rows = (cx, cy, a, b, phi), signed distances and foot-point angles (see
    _foot_points).
    """
    local = _to_local(pts, theta[:, None, :2], theta[:, 4])
    return _foot_points(local, theta[:, 2:3], theta[:, 3:4], start)


def _gn_jacobian(theta: np.ndarray, foot: np.ndarray) -> np.ndarray:
    """Jacobians (S, n, 5) of the signed distances w.r.t. (cx, cy, a, b, phi),
    from the foot points ``_gn_residual`` returned for the ``theta`` rows.

    By the envelope theorem the foot-point angle's dependence on the
    parameters drops out, leaving d(dist)/d(param) = -n . dq/d(param) with
    n the outward unit normal at the foot point q.
    """
    a, b, phi = theta[:, 2:3], theta[:, 3:4], theta[:, 4:5]
    ct = foot[..., 0] / a
    st = foot[..., 1] / b
    nx = ct / a
    ny = st / b
    length = np.hypot(nx, ny)
    nlx = np.divide(nx, length, out=nx)
    nly = np.divide(ny, length, out=ny)

    ca, sa = np.cos(phi), np.sin(phi)
    jac = np.empty(foot.shape[:-1] + (5,))
    # d q / d center is the identity, rotated back to the world frame.
    jac[..., 0] = -(nlx * ca - nly * sa)
    jac[..., 1] = -(nlx * sa + nly * ca)
    jac[..., 2] = -nlx * ct
    jac[..., 3] = -nly * st
    jac[..., 4] = nlx * b * st - nly * a * ct
    return jac
