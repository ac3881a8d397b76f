"""Surface torsion observation from fitted cross-section ellipses.

At the evaluation pose, with the surface-direction tilt removed, the
cross-section ellipse lies in the ZX plane and its major-axis angle from
the +Z axis is the torsion reading. The reading is a mod-pi/2-ambiguous
branch of the true twist (ellipse orientation wraps, and fits near a
circular section can swap major and minor axes), so series of adjacent
sections pass through a discrete rectification filter that picks, per
sample, the branch nearest the previous rectified value.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .conicfit import (
    DEFAULT_MAX_ITERATIONS,
    FitResult,
    fit_bookstein,
    fit_gauss_newton,
    fit_trace,
)
from .errors import AmbiguousBranch, LengthMismatch
from .geometry import BOOKSTEIN, TRACE, CanonicalSection, direction_rotation, fold_half_open

GAUSS_NEWTON = "gauss-newton"
FITTERS = (TRACE, BOOKSTEIN, GAUSS_NEWTON)

_HALF_PI = math.pi / 2.0
_TIE_TOL = 1e-12


def fit_section_ellipse(
    points2d, fitter: str = TRACE, gn_max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> FitResult:
    """Dispatch to one of the three fitting methods by name."""
    # The fitters are looked up in this module at call time, so a wrapper
    # installed on helibend.torsion.fit_trace (or its siblings) sees the call.
    if fitter == TRACE:
        return fit_trace(points2d)
    if fitter == BOOKSTEIN:
        return fit_bookstein(points2d)
    if fitter == GAUSS_NEWTON:
        return fit_gauss_newton(points2d, max_iterations=gn_max_iterations)
    raise ValueError(f"unknown fitter {fitter!r}; expected one of {FITTERS}")


def observe_torsion(
    section: CanonicalSection,
    theta_x: float,
    fitter: str = TRACE,
    gn_max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> FitResult:
    """Torsion reading of one canonical section.

    Removes the surface-direction tilt, projects the points onto the ZX
    plane as (u, v) = (z, x) and fits an ellipse. The reading is the fit's
    ``params.orientation``, the major-axis angle from the +Z axis; a
    circle-degenerate fit reads 0.0 with ``params.orientation_defined``
    cleared instead of an arbitrary orientation.
    """
    # Row vectors times the tilt R apply R^T, which removes the tilt.
    flat = section.points_canonical @ direction_rotation(theta_x)
    return fit_section_ellipse(flat[:, [2, 0]], fitter, gn_max_iterations)


def _nearest_branch(raw: float, anchor: float):
    """Branch raw + k*pi/2, over every integer k, nearest ``anchor``.

    Only the two branches that bracket the anchor can be nearest; k = 0 keeps
    ``raw`` itself (adding 0.0 would turn -0.0 into 0.0). Ties are resolved
    toward zero, then to ``raw``; returns (value, ambiguous flag).
    """
    k = math.floor((anchor - raw) / _HALF_PI)
    candidates = [raw + j * _HALF_PI if j else raw for j in (k, k + 1)]
    dists = [abs(c - anchor) for c in candidates]
    best = min(dists)
    tied = [c for c, d in zip(candidates, dists) if d - best <= _TIE_TOL]
    if len(tied) == 1:
        return tied[0], False
    toward_zero = min(abs(c) for c in tied)
    winners = [c for c in tied if abs(c) - toward_zero <= _TIE_TOL]
    # Prefer the uncorrected reading among symmetric leftovers.
    value = raw if any(abs(w - raw) <= _TIE_TOL for w in winners) else winners[0]
    return value, True


def rectify_torsion(raw_series) -> np.ndarray:
    """Continuity filter for a torsion series.

    Each raw reading in (-pi/2, pi/2] is shifted by k*(pi/2), for any
    integer k, to the branch nearest the previous rectified value; the first
    sample anchors to the branch nearest zero. As in phase unwrapping, this
    follows any twist whose step between adjacent sections stays below pi/4
    (no rectified step can exceed it), corrects isolated major/minor axis
    swaps, and is idempotent on already-continuous input.
    """
    values = np.asarray(raw_series, dtype=float)
    if values.ndim != 1:
        raise ValueError("expected a 1-D series of angles")
    # NaN fails every range comparison, so it is rejected first
    if not np.isfinite(values).all():
        raise ValueError("raw torsion values must be finite")
    if values.size and (values.min() <= -_HALF_PI - 1e-9 or values.max() > _HALF_PI + 1e-9):
        raise ValueError("raw torsion values must lie in (-pi/2, pi/2]")
    out = np.empty_like(values)
    anchor = 0.0
    for i, raw in enumerate(values):
        value, ambiguous = _nearest_branch(float(raw), anchor)
        if ambiguous:
            warnings.warn(
                f"torsion branch ambiguous at sample {i}; resolved toward zero",
                AmbiguousBranch,
                stacklevel=2,
            )
        out[i] = value
        anchor = value
    return out


def rectify_against(raw: float, reference: float) -> float:
    """Branch of ``raw`` (any integer multiple of pi/2) nearest ``reference``,
    by the rule ``rectify_torsion`` applies, without its warning on a tie.

    Used when ground truth or a design value is available for each sample
    independently, e.g. in fitter-comparison sweeps where adjacent samples
    are unrelated measurements.
    """
    return _nearest_branch(raw, reference)[0]


def torsion_deviation(raw_series, expected) -> np.ndarray:
    """Per-section deviation of rectified torsion from its design value.

    ``raw_series`` holds the raw readings in section order; they are
    rectified here and the element-wise difference is folded into
    (-pi/2, pi/2].
    """
    expected = np.asarray(expected, dtype=float)
    rectified = rectify_torsion(raw_series)
    if expected.shape != rectified.shape:
        raise LengthMismatch(
            f"series has {rectified.size} sections, expected values {expected.size}"
        )
    return np.array([fold_half_open(d) for d in rectified - expected])
