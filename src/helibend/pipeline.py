"""Full evaluation pipeline: canonicalize, detect direction, observe
torsion, rectify and summarize arc geometry.

Each stage takes all sections at once. Canonicalization, direction moments
and the torsion fit run in blocks of equal-size sections (geometry.in_blocks),
one set of array calls per block, with results equal to treating each
section alone; the fit's blocks are shared out among ``workers`` processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import torsion as _torsion
from .conicfit import DEFAULT_MAX_ITERATIONS, FitBatch
from .geometry import TRACE, canonicalize_section, in_blocks
from .helix import ArcGeometry, arc_parameters, segment_sections
from .linefit import DEFAULT_WINDOW, detect_direction
from .torsion import observe_torsion


@dataclass(frozen=True)
class EvaluationResult:
    """Arc geometry, then the per-section columns, one entry per section."""

    arc: ArcGeometry
    azimuth_phi: np.ndarray
    centroid_radius: np.ndarray
    theta_x: np.ndarray
    line_rms: np.ndarray
    theta_y_rectified: np.ndarray
    # One ellipse fit per section; params.orientation is the raw torsion reading.
    fits: FitBatch


def evaluate_sections(
    section_points,
    fitter: str = TRACE,
    window: int = DEFAULT_WINDOW,
    *,
    workers: int = 1,
    gn_max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> EvaluationResult:
    """Run the evaluation stages over pre-segmented section point sets."""
    groups = list(section_points)
    canonical = in_blocks([len(points) for points in groups],
                          lambda block: canonicalize_section([groups[i] for i in block]))
    directions = detect_direction(canonical, window=window)
    azimuth = np.array([s.azimuth_phi for s in canonical])
    radius = np.array([s.centroid_radius for s in canonical])
    theta_x = np.array([d.theta_x for d in directions])
    fits = observe_torsion(canonical, theta_x, fitter,
                           gn_max_iterations=gn_max_iterations, workers=workers)
    # looked up on the module at call time, so a wrapper installed on
    # helibend.torsion.rectify_torsion sees the call
    rectified = _torsion.rectify_torsion([f.params.orientation for f in fits])
    return EvaluationResult(
        arc=arc_parameters(azimuth, radius, np.array([s.centroid[2] for s in canonical])),
        azimuth_phi=azimuth,
        centroid_radius=radius,
        theta_x=theta_x,
        line_rms=np.array([d.rms_orthogonal_residual for d in directions]),
        theta_y_rectified=rectified,
        fits=fits,
    )


def evaluate_cloud(
    points,
    labels=None,
    expected_sections: int | None = None,
    fitter: str = TRACE,
    window: int = DEFAULT_WINDOW,
    *,
    gn_max_iterations: int = DEFAULT_MAX_ITERATIONS,
    workers: int = 1,
) -> EvaluationResult:
    """Segment a raw cloud and evaluate it."""
    groups = segment_sections(points, expected_sections=expected_sections, labels=labels)
    return evaluate_sections(groups, fitter, window,
                             workers=workers, gn_max_iterations=gn_max_iterations)
