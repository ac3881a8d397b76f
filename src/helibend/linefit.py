"""Surface direction detection by total-least-squares line fitting.

Works in the ZY plane at the evaluation pose with (u, v) = (y, z), so a
section with zero surface direction projects onto the vertical line u = 0.
The direction angle follows alpha = pi/2 - atan(-a/b) for the fitted line
a u + b v + c = 0, extended through b = 0 with atan2 and folded into
(-pi/2, pi/2].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IsotropicScatter, TooFewPoints
from .geometry import CanonicalSection, as_points, fold_half_open

_ISOTROPY_TOL = 1e-12

DEFAULT_WINDOW = 5


class LineOffsetWarning(UserWarning):
    """Fitted direction line misses the origin by more than expected.

    At the evaluation pose the projected line should pass through the
    section centroid at the origin; a large offset indicates a
    canonicalization problem upstream rather than a fitting problem.
    """


@dataclass(frozen=True)
class Line2D:
    """Implicit line a*u + b*v + c = 0 with a^2 + b^2 = 1.

    Sign convention: a >= 0, and b >= 0 when a == 0, so the projectively
    identical lines (a, b, c) and (-a, -b, -c) share one representation.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if abs(self.a * self.a + self.b * self.b - 1.0) > _ISOTROPY_TOL:
            raise ValueError("line coefficients must satisfy a^2 + b^2 = 1")

    @classmethod
    def normalized(cls, a: float, b: float, c: float) -> "Line2D":
        norm = math.hypot(a, b)
        if norm == 0.0:
            raise ValueError("degenerate line (a = b = 0)")
        a, b, c = a / norm, b / norm, c / norm
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b, c = -a, -b, -c
        # + 0.0 turns any -0.0 into +0.0 so representations compare equal
        return cls(a + 0.0, b + 0.0, c + 0.0)

    def distances(self, points) -> np.ndarray:
        pts = as_points(points, 2)
        return pts[:, 0] * self.a + pts[:, 1] * self.b + self.c


@dataclass(frozen=True)
class DirectionResult:
    line: Line2D
    theta_x: float
    rms_orthogonal_residual: float


def _line_from_scatter(mean, scatter) -> tuple[Line2D, float]:
    """TLS line through ``mean`` from a centered 2x2 scatter matrix, and the
    scatter's smallest eigenvalue (the summed squared orthogonal distances)."""
    evals, evecs = np.linalg.eigh(scatter)
    if evals[1] - evals[0] <= _ISOTROPY_TOL * evals[1]:
        raise IsotropicScatter("principal variances are equal; direction undefined")
    a, b = evecs[:, 0]
    c = -(a * mean[0] + b * mean[1])
    return Line2D.normalized(a, b, c), float(evals[0])


def fit_tls_line(points) -> Line2D:
    """Orthogonal-distance line through a 2D point set.

    The normal (a, b) is the eigenvector of the smallest eigenvalue of the
    centered scatter matrix; c then places the line through the centroid,
    which minimizes the summed squared orthogonal distances.
    """
    pts = as_points(points, 2)
    if not (pts != pts[:1]).any():
        raise TooFewPoints("need at least 2 distinct points")
    mean = pts.mean(axis=0)
    centered = pts - mean
    return _line_from_scatter(mean, centered.T @ centered)[0]


def surface_direction_angle(line: Line2D) -> float:
    """Direction angle of the projected line, measured from the v axis.

    pi/2 - atan2(-a, b), folded into (-pi/2, pi/2]. Zero for the vertical
    line u = 0; the atan2 form extends the ratio formula through b = 0.
    """
    return fold_half_open(math.pi / 2.0 - math.atan2(-line.a, line.b))


def rectify_direction(raw: float, line: Line2D) -> float:
    """Resolve the mod-pi branch of a direction angle.

    Under the fixed sign normalization of ``Line2D`` the two normals of a
    line yield raw angles differing by pi, so folding into (-pi/2, pi/2]
    resolves the branch. Idempotent, and invariant under flipping the sign
    of every line coefficient.
    """
    del line  # branch choice is absorbed by the sign normalization
    return fold_half_open(raw)


def direction_from_points(points) -> DirectionResult:
    """Fit a line to ZY-plane projections and convert it to an angle."""
    line = fit_tls_line(points)
    raw = surface_direction_angle(line)
    theta = rectify_direction(raw, line)
    rms = float(np.sqrt(np.mean(np.square(line.distances(points)))))
    return DirectionResult(line=line, theta_x=theta, rms_orthogonal_residual=rms)


def detect_direction(
    sections: list[CanonicalSection], window: int = DEFAULT_WINDOW
) -> list[DirectionResult]:
    """Per-section surface direction from a sliding window of sections.

    For each section one TLS line is fitted to the ZY-plane projections of
    every point of the ``window`` neighboring canonical sections; the window
    is clamped at the ends of the part. Each section's point count, ZY mean
    and centered scatter are computed once and pooled per window by the
    parallel-axis rule, and ``rms_orthogonal_residual`` is the RMS
    orthogonal distance of the window's points from the line.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not sections:
        return []
    zy = [s.points_canonical[:, 1:] for s in sections]
    counts = np.array([len(p) for p in zy], dtype=float)
    means = np.array([p.mean(axis=0) for p in zy])
    scatters = np.array([(p - m).T @ (p - m) for p, m in zip(zy, means)])
    # canonical sections are centered, so the section extent is the scale
    # against which a suspicious line offset is judged
    extents = [float(np.abs(s.points_canonical).max()) for s in sections]
    half = window // 2
    n = len(sections)
    results = []
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        w = counts[lo:hi]
        total = w.sum()
        mean = w @ means[lo:hi] / total
        d = means[lo:hi] - mean
        line, sse = _line_from_scatter(mean, scatters[lo:hi].sum(axis=0) + (w * d.T) @ d)
        # sse can round below 0 on noise-free parts
        rms = math.sqrt(max(sse, 0.0) / total)
        results.append(DirectionResult(line, surface_direction_angle(line), rms))
        scale = max(extents[lo:hi])
        # the residual term keeps measurement noise from tripping the diagnostic
        if abs(line.c) > max(1e-6 * scale, 3.0 * rms):
            warnings.warn(
                f"direction line offset {line.c:.3g} exceeds what noise "
                f"explains at section {i}; check canonicalization",
                LineOffsetWarning,
                stacklevel=2,
            )
    return results
