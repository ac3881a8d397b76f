"""Surface torsion observation from fitted cross-section ellipses.

At the evaluation pose, with the surface-direction tilt removed, the
cross-section ellipse lies in the ZX plane and its major-axis angle from
the +Z axis is the torsion reading. The reading is a mod-pi/2-ambiguous
branch of the true twist (ellipse orientation wraps, and fits near a
circular section can swap major and minor axes), so series of adjacent
sections pass through a discrete rectification filter that picks, per
sample, the branch nearest the previous rectified value.

Sections are projected and fitted in blocks of equal point count
(fit_sections), one stacked projection and one stacked fit_trace,
fit_bookstein or fit_gauss_newton call per block, whose results equal
fitting each section alone; geometry.in_blocks makes the blocks.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Sequence

import numpy as np

from .conicfit import (
    DEFAULT_MAX_ITERATIONS,
    FitBatch,
    fit_bookstein,
    fit_gauss_newton,
    fit_trace,
)
from .errors import AmbiguousBranch, LengthMismatch
from .geometry import (
    BOOKSTEIN,
    TRACE,
    CanonicalSection,
    EllipseParams,
    direction_rotation,
    in_blocks,
)

GAUSS_NEWTON = "gauss-newton"
FITTERS = (TRACE, BOOKSTEIN, GAUSS_NEWTON)

_HALF_PI = math.pi / 2.0
_TIE_TOL = 1e-12


def observe_torsion(
    sections: Sequence[CanonicalSection],
    theta_x: Sequence[float],
    fitter: str = TRACE,
    *,
    gn_max_iterations: int = DEFAULT_MAX_ITERATIONS,
    workers: int = 1,
) -> FitBatch:
    """Torsion readings of canonical sections, one FitResult per section.

    Removes each section's surface-direction tilt ``theta_x[i]``, projects
    its points onto the ZX plane as (u, v) = (z, x) and fits an ellipse. The
    reading is the fit's ``params.orientation``, the major-axis angle from
    the +Z axis; a circle-degenerate fit reads 0.0 with
    ``params.orientation_defined`` cleared instead of an arbitrary
    orientation.

    The sections are fitted in blocks by fit_sections, on up to ``workers``
    processes, and the error of the earliest failing section is raised, as a
    loop over the sections would.
    """
    if len(sections) != len(theta_x):
        raise LengthMismatch(f"{len(sections)} sections but {len(theta_x)} tilts")
    return fit_sections(
        fitter,
        [len(s.points_canonical) for s in sections],
        lambda block: _projected([sections[i] for i in block], [theta_x[i] for i in block]),
        max_iterations=gn_max_iterations,
        workers=workers,
    )


def _projected(sections: Sequence[CanonicalSection], theta_x: Sequence[float]) -> np.ndarray:
    """The (z, x) coordinates of equal-size sections with their tilts
    removed, as an (S, n, 2) stack.

    Each section's (n, 2) block is laid out column by column, as a column
    pick of its own (n, 3) product is, and its sums round by that layout.
    """
    pts = np.stack([s.points_canonical for s in sections])
    # Row vectors times the tilt R apply R^T, which removes the tilt; the
    # stacked matmul makes each section's BLAS call, so each gets its bits.
    flat = pts @ np.stack([direction_rotation(t) for t in theta_x])
    out = np.empty((len(flat), 2, flat.shape[1])).transpose(0, 2, 1)
    out[..., 0] = flat[..., 2]
    out[..., 1] = flat[..., 0]
    return out


def fit_sections(
    fitter: str,
    sizes: Sequence[int],
    block_points: Callable[[list[int]], np.ndarray],
    inits: Sequence[EllipseParams | None] | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    workers: int = 1,
) -> FitBatch:
    """Fits by ``fitter``, one of FITTERS, of sections with point counts
    ``sizes``, one FitResult per section in order.

    The sections are grouped into blocks by geometry.in_blocks, and each
    block is one stacked fit_trace, fit_bookstein or fit_gauss_newton call
    whose results equal the sections' own fits. ``block_points(block)``
    gives the (S, n, 2) stack of the sections at the positions ``block``
    when that block is fitted, so only one block's points are held at a time.
    ``inits`` (Gauss-Newton only) is None or one EllipseParams (or None) per
    section. The error of the earliest failing section is raised, as a loop
    over the sections would, with that section's index in ``.section``.
    With ``workers`` above 1 the blocks are shared out among forked
    processes (see geometry.in_blocks), with the same results.
    """
    if fitter not in FITTERS:
        raise ValueError(f"unknown fitter {fitter!r}; expected one of {FITTERS}")

    # The fitters are looked up in this module at call time, so a wrapper
    # installed on helibend.torsion.fit_trace (or its siblings) sees the call.
    def fit(block):
        if fitter == TRACE:
            return fit_trace(block_points(block))
        if fitter == BOOKSTEIN:
            return fit_bookstein(block_points(block))
        block_inits = None if inits is None else [inits[i] for i in block]
        return fit_gauss_newton(block_points(block), init=block_inits,
                                max_iterations=max_iterations)

    return FitBatch(in_blocks(sizes, fit, workers))


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
