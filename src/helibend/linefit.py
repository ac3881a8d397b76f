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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IsotropicScatter, TooFewPoints
from .geometry import CanonicalSection, _blocks, as_points, fold_half_open

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


def _lines(means: np.ndarray, scatters: np.ndarray):
    """TLS line through each mean (S, 2) from its centered 2x2 scatter
    (S, 2, 2), and the scatter's smallest eigenvalue (the summed squared
    orthogonal distances), one line at a time: an isotropic scatter raises
    when its line is reached. One stacked eigh serves all of them.
    """
    evals, evecs = np.linalg.eigh(scatters)
    for (mu, mv), (low, high), (a, b) in zip(
            means.tolist(), evals.tolist(), evecs[:, :, 0].tolist()):
        if high - low <= _ISOTROPY_TOL * high:
            raise IsotropicScatter("principal variances are equal; direction undefined")
        yield Line2D.normalized(a, b, -(a * mu + b * mv)), low


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
    return next(_lines(mean[None], (centered.T @ centered)[None]))[0]


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


def detect_direction(
    sections: list[CanonicalSection], window: int = DEFAULT_WINDOW
) -> list[DirectionResult]:
    """Per-section surface direction from a sliding window of sections.

    For each section i one TLS line is fitted to the ZY-plane projections of
    every point of the sections i - window // 2 to i + window // 2, clamped
    at the ends of the part; an even window thus pools window + 1 sections.
    Each section's point count, ZY mean and centered scatter are computed
    once, in blocks of equal-size sections, and pooled per window by the
    parallel-axis rule (``_pool``: every interior window in one call, each
    window clamped at an end of the part as a stack of one), and
    ``rms_orthogonal_residual`` is the RMS orthogonal distance of the
    window's points from the line. Each window's result is bit for bit the
    one that pooling that window alone gives. Window i's IsotropicScatter
    carries i in ``.section``.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not sections:
        return []
    counts, means, scatters, extents = _zy_moments(sections)
    n = len(sections)
    half = window // 2
    width = 2 * half + 1
    totals = np.empty(n)
    pooled_means = np.empty((n, 2))
    pooled = np.empty((n, 2, 2))
    if n >= width:
        inner = slice(half, n - half)
        totals[inner], pooled_means[inner], pooled[inner] = _pool(counts, means, scatters, width)
    # The windows clamped at the ends of the part.
    for i in [*range(min(half, n)), *range(max(half, n - half), n)]:
        lo, hi = max(0, i - half), min(n, i + half + 1)
        at = slice(i, i + 1)
        totals[at], pooled_means[at], pooled[at] = _pool(
            counts[lo:hi], means[lo:hi], scatters[lo:hi], hi - lo)
    results = []
    lines = _lines(pooled_means, pooled)
    for i, total in enumerate(totals.tolist()):
        try:
            line, sse = next(lines)
        except IsotropicScatter as exc:
            exc.section = i
            raise
        # sse can round below 0 on noise-free parts
        rms = math.sqrt(max(sse, 0.0) / total)
        results.append(DirectionResult(line, surface_direction_angle(line), rms))
        scale = max(extents[max(0, i - half):i + half + 1])
        # the residual term keeps measurement noise from tripping the diagnostic
        if abs(line.c) > max(1e-6 * scale, 3.0 * rms):
            warnings.warn(
                f"direction line offset {line.c:.3g} exceeds what noise "
                f"explains at section {i}; check canonicalization",
                LineOffsetWarning,
                stacklevel=2,
            )
    return results


def _pool(counts: np.ndarray, means: np.ndarray, scatters: np.ndarray, width: int):
    """Point totals, means (W, 2) and scatters (W, 2, 2) of every run of
    ``width`` consecutive sections, pooled by the parallel-axis rule; each
    run's sums keep their order, and its matmuls their BLAS calls, alone.
    """
    w = sliding_window_view(counts, width)
    m = sliding_window_view(means, width, axis=0).transpose(0, 2, 1)
    totals = w.sum(axis=1)
    pooled_means = (w[:, None, :] @ m)[:, 0, :] / totals[:, None]
    d = m - pooled_means[:, None, :]
    summed = scatters[:len(w)]
    for shift in range(1, width):
        summed = summed + scatters[shift:shift + len(w)]
    return totals, pooled_means, summed + (w[:, :, None] * d).transpose(0, 2, 1) @ d


def _zy_moments(sections: list[CanonicalSection]):
    """Point counts, ZY means (S, 2), centered ZY scatters (S, 2, 2) and
    largest absolute canonical coordinates of the sections, each section's
    bit for bit its own, computed in blocks of equal-size sections."""
    sizes = [len(s.points_canonical) for s in sections]
    means = np.empty((len(sizes), 2))
    scatters = np.empty((len(sizes), 2, 2))
    extents = np.empty(len(sizes))
    for block in _blocks(sizes):
        pts = np.stack([sections[i].points_canonical for i in block])
        zy = pts[..., 1:]
        mean = zy.mean(axis=1)
        # Two centered copies keep the product a general matmul (gemm): an
        # array times its own transpose takes the symmetric kernel (syrk),
        # which rounds differently.
        scatters[block] = (zy - mean[:, None, :]).transpose(0, 2, 1) @ (zy - mean[:, None, :])
        means[block] = mean
        # canonical sections are centered, so the section extent is the
        # scale against which a suspicious line offset is judged
        extents[block] = np.abs(pts).max(axis=(1, 2))
    return np.array(sizes, dtype=float), means, scatters, extents.tolist()
