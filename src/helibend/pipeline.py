"""Full evaluation pipeline: canonicalize, detect direction, observe
torsion, rectify and summarize arc geometry.

Sections are evaluated in one sequential pass: the per-section stages are
chains of small numpy calls that a thread pool only serializes on the
interpreter lock. ``evaluate_sections`` accepts ``workers`` for compatibility;
it has no effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import torsion as _torsion
from .conicfit import DEFAULT_MAX_ITERATIONS, FitResult
from .geometry import TRACE, canonicalize_section
from .helix import ArcReport, arc_parameters, segment_sections
from .linefit import DEFAULT_WINDOW, DirectionResult, detect_direction
from .torsion import observe_torsion


@dataclass(frozen=True)
class SectionEvaluation:
    index: int
    azimuth_phi: float
    centroid_radius: float
    direction: DirectionResult
    # The section's ellipse fit; params.orientation is the raw torsion reading.
    torsion: FitResult
    theta_y_rectified: float


@dataclass(frozen=True)
class EvaluationResult:
    arc: ArcReport
    sections: tuple[SectionEvaluation, ...]

    @property
    def all_converged(self) -> bool:
        return all(s.torsion.converged for s in self.sections)


def evaluate_sections(
    section_points,
    fitter: str = TRACE,
    window: int = DEFAULT_WINDOW,
    workers: int | None = None,
    gn_max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> EvaluationResult:
    """Run the evaluation stages over pre-segmented section point sets."""
    canonical = [canonicalize_section(points) for points in section_points]
    directions = detect_direction(canonical, window=window)
    torsions = [
        observe_torsion(section, direction.theta_x, fitter, gn_max_iterations)
        for section, direction in zip(canonical, directions)
    ]
    # looked up on the module at call time, so a wrapper installed on
    # helibend.torsion.rectify_torsion sees the call
    rectified = _torsion.rectify_torsion([t.params.orientation for t in torsions])

    sections = tuple(
        SectionEvaluation(
            index=i,
            azimuth_phi=section.azimuth_phi,
            centroid_radius=section.centroid_radius,
            direction=direction,
            torsion=torsion,
            theta_y_rectified=float(theta_y),
        )
        for i, (section, direction, torsion, theta_y) in enumerate(
            zip(canonical, directions, torsions, rectified)
        )
    )
    arc = ArcReport(
        geometry=arc_parameters(canonical),
        theta_x=np.array([d.theta_x for d in directions]),
        theta_y_rectified=rectified,
        geometric_rms=np.array([t.rms_geometric_residual for t in torsions]),
    )
    return EvaluationResult(arc=arc, sections=sections)


def evaluate_cloud(
    points,
    labels=None,
    expected_sections: int | None = None,
    fitter: str = TRACE,
    window: int = DEFAULT_WINDOW,
    gn_max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> EvaluationResult:
    """Segment a raw cloud and evaluate it."""
    groups = segment_sections(points, expected_sections=expected_sections, labels=labels)
    return evaluate_sections(groups, fitter, window, gn_max_iterations=gn_max_iterations)
