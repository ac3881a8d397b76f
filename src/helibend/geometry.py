"""3D/2D geometric primitives and cross-section canonicalization.

Points are plain numpy arrays: shape (N, 3) for measured surface points in
the product frame (millimetres), shape (N, 2) for in-plane coordinates.
Angles are radians throughout; degrees appear only at CLI boundaries.

Plane conventions used by the rest of the package:

* torsion fitting happens in the ZX plane with 2D coordinates (u, v) = (z, x),
  so an ellipse orientation measured from the u axis is the rotation angle
  about the Y axis;
* direction fitting happens in the ZY plane with (u, v) = (y, z), so a
  vertical line u = 0 corresponds to zero surface direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSection, NotAnEllipse, TooFewPoints

# Conic normalizations for normalize_conic; each also names the linear
# fitter that imposes it.
BOOKSTEIN = "bookstein"
TRACE = "trace"

# Relative axis-ratio window treated as a circle (orientation undefined).
CIRCLE_DEGENERACY_TOL = 1e-6


def fold_half_open(angle: float) -> float:
    """Fold an angle into (-pi/2, pi/2] modulo pi."""
    # remainder lies in [-pi/2, pi/2], so only the closed lower end moves.
    a = math.remainder(angle, math.pi)
    if a <= -math.pi / 2:
        a += math.pi
    return a


def rotation_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def direction_rotation(theta_x: float) -> np.ndarray:
    """Surface-direction tilt of a cross-section.

    Chosen so that a section tilted by ``theta_x`` projects onto the ZY
    plane as a line whose angle formula (see ``linefit``) returns exactly
    ``theta_x``. With the (u, v) = (y, z) convention that formula measures
    the clockwise angle, hence the negated standard rotation.
    """
    return rotation_x(-theta_x)


def twist_rotation(theta_y: float) -> np.ndarray:
    """Surface-torsion twist of a cross-section.

    The standard Y rotation is counterclockwise in the (u, v) = (z, x)
    plane, matching the ellipse orientation read off the torsion fit.
    """
    return rotation_y(theta_y)


def as_points(arr, dim: int) -> np.ndarray:
    """Validate and convert input to a float64 (N, dim) array."""
    pts = np.asarray(arr, dtype=float)
    if pts.ndim == 1 and pts.size == dim:
        pts = pts.reshape(1, dim)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected an (N, {dim}) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    return pts


@dataclass(frozen=True)
class Conic2D:
    """Implicit conic x^T A x + b^T x + c = 0 with symmetric A.

    A is stored as its three scalars (a11, a12, a22) so symmetry is exact.
    """

    a11: float
    a12: float
    a22: float
    b1: float
    b2: float
    c: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    @property
    def linear(self) -> np.ndarray:
        return np.array([self.b1, self.b2])

    @property
    def det_a(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12

    def evaluate(self, points) -> np.ndarray:
        """F(x) per point; zero on the conic."""
        return self._evaluate(as_points(points, 2))

    def _evaluate(self, pts: np.ndarray) -> np.ndarray:
        """``evaluate`` on an (N, 2) float array that as_points already returned."""
        u, v = pts[:, 0], pts[:, 1]
        return (
            self.a11 * u * u
            + 2.0 * self.a12 * u * v
            + self.a22 * v * v
            + self.b1 * u
            + self.b2 * v
            + self.c
        )

    def scaled(self, factor: float) -> "Conic2D":
        return Conic2D(
            self.a11 * factor,
            self.a12 * factor,
            self.a22 * factor,
            self.b1 * factor,
            self.b2 * factor,
            self.c * factor,
        )


@dataclass(frozen=True)
class EllipseParams:
    """Geometric ellipse: center, semi-axes, major-axis orientation.

    ``orientation`` is the angle from the plane's first axis to the major
    axis, folded into (-pi/2, pi/2]. For circle-degenerate ellipses the
    orientation is undefined and reported as 0 with ``orientation_defined``
    cleared.
    """

    center: np.ndarray
    semi_major: float
    semi_minor: float
    orientation: float
    orientation_defined: bool = True

    def __post_init__(self):
        # A private read-only copy, so the frozen value cannot change through
        # the caller's array or through ``center``.
        ctr = np.array(self.center, dtype=float)
        if ctr.shape != (2,):
            raise ValueError("center must be a length-2 vector")
        ctr.flags.writeable = False
        object.__setattr__(self, "center", ctr)
        if not (self.semi_major >= self.semi_minor > 0.0):
            raise ValueError("require semi_major >= semi_minor > 0")
        if not (-math.pi / 2 < self.orientation <= math.pi / 2):
            raise ValueError("orientation outside (-pi/2, pi/2]")

    @classmethod
    def from_axes(cls, center, a: float, b: float, angle: float) -> "EllipseParams":
        """Semi-axis ``a`` at ``angle`` and ``b`` across it, in canonical form:
        major axis first, angle folded into (-pi/2, pi/2], and orientation 0.0
        and undefined when the axis ratio is within CIRCLE_DEGENERACY_TOL of 1.
        """
        if b > a:
            a, b, angle = b, a, angle + math.pi / 2.0
        if a / b - 1.0 <= CIRCLE_DEGENERACY_TOL:
            return cls(center, a, b, 0.0, orientation_defined=False)
        return cls(center, a, b, fold_half_open(angle))

    def boundary_points(self, n: int = 64, t0: float = 0.0) -> np.ndarray:
        """Sample n points on the boundary, equally spaced in parameter angle."""
        return self._sample(t0 + 2.0 * math.pi * np.arange(n) / n)

    def arc_points(self, n: int, fraction: float, t_center: float) -> np.ndarray:
        """n boundary points spanning ``fraction`` of the parameter circle.

        The span is centred on parameter angle ``t_center`` and includes
        both ends, so a fraction below 1 emulates a one-sided scan.
        """
        half = math.pi * fraction
        return self._sample(t_center + np.linspace(-half, half, n))

    def _sample(self, t: np.ndarray) -> np.ndarray:
        ca, sa = math.cos(self.orientation), math.sin(self.orientation)
        u = self.semi_major * np.cos(t)
        v = self.semi_minor * np.sin(t)
        return np.column_stack(
            (self.center[0] + ca * u - sa * v, self.center[1] + sa * u + ca * v)
        )


def conic_to_params(conic: Conic2D) -> EllipseParams:
    """Convert an implicit conic to geometric ellipse parameters.

    Raises NotAnEllipse when det(A) <= 0 or the conic has no real points.
    """
    if conic.det_a <= 0.0:
        raise NotAnEllipse("quadratic form is not definite", conic=conic)
    a = conic.matrix
    # Flip sign so A is positive definite; the zero set is unchanged.
    if conic.a11 + conic.a22 < 0.0:
        conic = conic.scaled(-1.0)
        a = -a
    center = np.linalg.solve(a, -0.5 * conic.linear)
    # F at the centre, in the order of Conic2D.evaluate.
    u, v = center.tolist()
    k = float(
        conic.a11 * u * u
        + 2.0 * conic.a12 * u * v
        + conic.a22 * v * v
        + conic.b1 * u
        + conic.b2 * v
        + conic.c
    )
    if k >= 0.0:
        raise NotAnEllipse("imaginary ellipse (no real points)", conic=conic)
    evals, evecs = np.linalg.eigh(a)
    axes = np.sqrt(-k / evals)
    # eigh sorts eigenvalues ascending, so the first axis is the major one.
    return EllipseParams.from_axes(
        center, float(axes[0]), float(axes[1]), math.atan2(evecs[1, 0], evecs[0, 0])
    )


def params_to_conic(params: EllipseParams) -> Conic2D:
    """Inverse of conic_to_params: the natural conic, which reads -1 at the
    centre. ``normalize_conic`` rescales it to a constraint.
    """
    ca, sa = math.cos(params.orientation), math.sin(params.orientation)
    u = np.array([ca, sa])
    w = np.array([-sa, ca])
    a = np.outer(u, u) / params.semi_major**2 + np.outer(w, w) / params.semi_minor**2
    b = -2.0 * a @ params.center
    c = float(params.center @ a @ params.center) - 1.0
    return Conic2D(a[0, 0], a[0, 1], a[1, 1], b[0], b[1], c)


def normalize_conic(conic: Conic2D, constraint: str) -> Conic2D:
    """Rescale conic coefficients to satisfy the named constraint exactly."""
    if constraint == TRACE:
        tr = conic.a11 + conic.a22
        if tr == 0.0:
            raise NotAnEllipse("trace-normalization impossible (Trace(A) = 0)", conic=conic)
        return conic.scaled(1.0 / tr)
    if constraint == BOOKSTEIN:
        # lambda1^2 + lambda2^2 = Trace(A^2) = a11^2 + 2 a12^2 + a22^2
        norm = math.sqrt(conic.a11**2 + 2.0 * conic.a12**2 + conic.a22**2)
        if norm == 0.0:
            raise NotAnEllipse("quadratic part vanishes", conic=conic)
        sign = 1.0 if conic.a11 + conic.a22 >= 0.0 else -1.0
        return conic.scaled(sign / norm)
    raise ValueError(f"unknown constraint: {constraint!r}")


@dataclass(frozen=True)
class CanonicalSection:
    """A cross-section moved to the evaluation pose.

    ``centroid`` is the section's mean point in the product frame. The
    canonical frame puts it at the origin with its azimuth ``azimuth_phi``
    about the product axis rotated away, so
    ``points_canonical @ rotation_z(azimuth_phi).T + centroid`` maps the
    points back to the product frame.
    """

    points_canonical: np.ndarray
    centroid: np.ndarray
    azimuth_phi: float
    centroid_radius: float


def canonicalize_section(points) -> CanonicalSection:
    """Move one measured cross-section to the evaluation pose.

    Rotates about the product axis by minus the centroid azimuth, then
    translates the centroid to the origin.
    """
    pts = as_points(points, 3)
    if len(pts) < 6:
        raise TooFewPoints(f"need at least 6 points per section, got {len(pts)}")
    ctr = pts.mean(axis=0)
    radius = math.hypot(ctr[0], ctr[1])
    scale = max(1.0, float(np.abs(pts).max()))
    if radius < 1e-12 * scale:
        raise DegenerateSection("section centroid lies on the product axis")
    phi = math.atan2(ctr[1], ctr[0])
    rot = rotation_z(-phi)
    return CanonicalSection(
        points_canonical=pts @ rot.T + (-rot @ ctr),
        centroid=ctr,
        azimuth_phi=phi,
        centroid_radius=radius,
    )
