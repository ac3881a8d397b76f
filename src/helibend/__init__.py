"""helibend: machining-accuracy evaluation of elliptical helical bent pipes.

Measured surface points of a bent part are canonicalized section by
section, the surface direction is detected by total-least-squares line
fitting in the ZY plane, the surface torsion is observed by constrained
ellipse fitting in the ZX plane with a branch-rectification filter, and the
arc radius, central angle and arc length are reported per arc.
"""

from ._version import __version__
from .conicfit import (
    FitBatch,
    FitResult,
    ellipse_foot_point,
    fit_bookstein,
    fit_gauss_newton,
    fit_trace,
    geometric_residuals,
    moment_init,
    point_to_ellipse_distance,
)
from .geometry import (
    BOOKSTEIN,
    TRACE,
    CanonicalSection,
    Conic2D,
    EllipseParams,
    canonicalize_section,
    conic_to_params,
    fold_half_open,
    params_to_conic,
)
from .helix import (
    ArcGeometry,
    GroundTruth,
    HelixSpec,
    SyntheticPart,
    arc_parameters,
    generate,
    segment_sections,
)
from .linefit import (
    DirectionResult,
    Line2D,
    detect_direction,
    fit_tls_line,
    rectify_direction,
    surface_direction_angle,
)
from .pipeline import EvaluationResult, evaluate_cloud, evaluate_sections
from .report import EvaluationReport
from .torsion import (
    FITTERS,
    observe_torsion,
    rectify_against,
    rectify_torsion,
)

__all__ = [
    "__version__",
    "BOOKSTEIN",
    "TRACE",
    "FITTERS",
    "ArcGeometry",
    "CanonicalSection",
    "Conic2D",
    "DirectionResult",
    "EllipseParams",
    "EvaluationReport",
    "EvaluationResult",
    "FitBatch",
    "FitResult",
    "GroundTruth",
    "HelixSpec",
    "Line2D",
    "SyntheticPart",
    "arc_parameters",
    "canonicalize_section",
    "conic_to_params",
    "detect_direction",
    "ellipse_foot_point",
    "evaluate_cloud",
    "evaluate_sections",
    "fit_bookstein",
    "fit_gauss_newton",
    "fit_tls_line",
    "fit_trace",
    "fold_half_open",
    "generate",
    "geometric_residuals",
    "moment_init",
    "observe_torsion",
    "params_to_conic",
    "point_to_ellipse_distance",
    "rectify_against",
    "rectify_direction",
    "rectify_torsion",
    "segment_sections",
    "surface_direction_angle",
]
