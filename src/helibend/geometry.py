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

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSection, HelibendError, NotAnEllipse, TooFewPoints
from .parallel import run_shares, share_out

# Conic normalizations for normalize_conic; each also names the linear
# fitter that imposes it.
BOOKSTEIN = "bookstein"
TRACE = "trace"

# Relative axis-ratio window treated as a circle (orientation undefined).
CIRCLE_DEGENERACY_TOL = 1e-6

# Fewest points a section may hold: a conic has five degrees of freedom.
MIN_SECTION_POINTS = 6

# Points per block of a stacked stage: enough sections to share each numpy
# call's overhead, few enough that a block's arrays (about 200 bytes a point)
# add little to the evaluation's peak memory, which they set.
_BLOCK_POINTS = 3072


def fold_half_open(angle: float) -> float:
    """Fold an angle into (-pi/2, pi/2] modulo pi."""
    # remainder lies in [-pi/2, pi/2], so only the closed lower end moves.
    a = math.remainder(angle, math.pi)
    if a <= -math.pi / 2:
        a += math.pi
    return a


def rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def direction_rotation(theta_x: float) -> np.ndarray:
    """Surface-direction tilt of a cross-section.

    Chosen so that a section tilted by ``theta_x`` projects onto the ZY
    plane as a line whose angle formula (see ``linefit``) returns exactly
    ``theta_x``. With the (u, v) = (y, z) convention that formula measures
    the clockwise angle, hence the negated standard X rotation.
    """
    c, s = math.cos(-theta_x), math.sin(-theta_x)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def twist_rotation(theta_y: float) -> np.ndarray:
    """Surface-torsion twist of a cross-section.

    The standard Y rotation is counterclockwise in the (u, v) = (z, x)
    plane, matching the ellipse orientation read off the torsion fit.
    """
    c, s = math.cos(theta_y), math.sin(theta_y)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def as_points(arr, dim: int) -> np.ndarray:
    """Validate and convert input to a float64 (N, dim) array."""
    pts = np.asarray(arr, dtype=float)
    if pts.ndim == 1 and pts.size == dim:
        pts = pts.reshape(1, dim)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected an (N, {dim}) array, got shape {pts.shape}")
    return finite_points(pts)


def finite_points(pts: np.ndarray) -> np.ndarray:
    """``pts``, checked to hold finite coordinates only (ValueError otherwise)."""
    if not np.isfinite(pts).all():
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

    def evaluate(self, points) -> np.ndarray:
        """F(x) per point; zero on the conic."""
        return conic_values(self._row(), as_points(points, 2)[None])[0]

    def _row(self) -> np.ndarray:
        """The coefficients as a (1, 6) stack of conics."""
        return np.array([[self.a11, self.a12, self.a22, self.b1, self.b2, self.c]], dtype=float)


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

    def __reduce__(self):
        # Rebuilt through the constructor, so a copy's centre is read-only too.
        return type(self), (self.center, self.semi_major, self.semi_minor, self.orientation,
                            self.orientation_defined)

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


# The stacked conic functions take conics as (S, 6) rows (a11, a12, a22, b1,
# b2, c) and run one set of array calls for all of them. Each row gets the
# bits it gets in a stack of one, which is what the per-conic function
# computes. A stack raises at the first check that any row fails, with the
# NotAnEllipse of the first row that fails it.


def conic_values(coef: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """F(x) of each row's conic at each point of its section: ``coef`` (S, 6)
    and ``pts`` (S, n, 2) give (S, n)."""
    a11, a12, a22, b1, b2, c = coef.T[:, :, None]
    u, v = pts[..., 0], pts[..., 1]
    return a11 * u * u + 2.0 * a12 * u * v + a22 * v * v + b1 * u + b2 * v + c


def conic_matrices(coef: np.ndarray) -> np.ndarray:
    """The quadratic parts A of conic rows as C-ordered (S, 2, 2) matrices.
    A matmul with another layout can take another BLAS path, whose rounding
    differs."""
    return np.take(coef, [0, 1, 1, 2], axis=1).reshape(-1, 2, 2)


def check_conics(failed: np.ndarray, coef: np.ndarray, message: str) -> None:
    """Raise NotAnEllipse(``message``) for the first row of ``coef`` in the
    mask ``failed``, if any, with that row's conic."""
    if failed.any():
        raise NotAnEllipse(message, conic=Conic2D(*coef[failed.argmax()].tolist()))


def conics_to_params(coef: np.ndarray) -> list[EllipseParams]:
    """conic_to_params of each row."""
    det = coef[:, 0] * coef[:, 2] - coef[:, 1] * coef[:, 1]
    check_conics(det <= 0.0, coef, "quadratic form is not definite")
    # Flip sign so A is positive definite; the zero set is unchanged.
    coef = np.where(coef[:, :1] + coef[:, 2:3] < 0.0, -coef, coef)
    a = conic_matrices(coef)
    center = np.linalg.solve(a, -0.5 * coef[:, 3:5, None])[..., 0]
    k = conic_values(coef, center[:, None, :])[:, 0]
    check_conics(k >= 0.0, coef, "imaginary ellipse (no real points)")
    evals, evecs = np.linalg.eigh(a)
    axes = np.sqrt(-k[:, None] / evals)
    # eigh sorts eigenvalues ascending, so the first axis is the major one.
    return [EllipseParams.from_axes(ctr, major, minor, math.atan2(ey, ex))
            for ctr, (major, minor), (ex, ey) in zip(
                center, axes.tolist(), evecs[:, :, 0].tolist())]


def conic_to_params(conic: Conic2D) -> EllipseParams:
    """Convert an implicit conic to geometric ellipse parameters.

    Raises NotAnEllipse when det(A) <= 0 or the conic has no real points.
    """
    return conics_to_params(conic._row())[0]


def params_to_conics(params) -> np.ndarray:
    """params_to_conic of each ellipse of a sequence, as (S, 6) rows."""
    # ** on each scalar is C's pow: numpy's square rounds some squares
    # differently.
    ca, sa, major2, minor2 = np.array([
        (math.cos(p.orientation), math.sin(p.orientation), p.semi_major**2, p.semi_minor**2)
        for p in params]).reshape(-1, 4).T
    center = np.array([p.center for p in params]).reshape(-1, 2)
    u = np.stack((ca, sa), axis=1)
    w = np.stack((-sa, ca), axis=1)
    a = (u[:, :, None] * u[:, None, :] / major2[:, None, None]
         + w[:, :, None] * w[:, None, :] / minor2[:, None, None])
    b = (-2.0 * a @ center[:, :, None])[:, :, 0]
    c = (center[:, None, :] @ a @ center[:, :, None])[:, 0, 0] - 1.0
    return np.column_stack((a[:, 0, 0], a[:, 0, 1], a[:, 1, 1], b, c))


def params_to_conic(params: EllipseParams) -> Conic2D:
    """Inverse of conic_to_params: the natural conic, which reads -1 at the
    centre. ``normalize_conic`` rescales it to a constraint.
    """
    return Conic2D(*params_to_conics([params])[0].tolist())


def normalize_conics(coef: np.ndarray, constraint: str) -> np.ndarray:
    """normalize_conic of each row."""
    tr = coef[:, 0] + coef[:, 2]
    if constraint == TRACE:
        sign, norm, message = 1.0, tr, "trace-normalization impossible (Trace(A) = 0)"
    elif constraint == BOOKSTEIN:
        # lambda1^2 + lambda2^2 = Trace(A^2) = a11^2 + 2 a12^2 + a22^2
        sign = np.where(tr >= 0.0, 1.0, -1.0)
        norm = np.array([math.sqrt(a11**2 + 2.0 * a12**2 + a22**2)
                         for a11, a12, a22 in coef[:, :3]])
        message = "quadratic part vanishes"
    else:
        raise ValueError(f"unknown constraint: {constraint!r}")
    check_conics(norm == 0.0, coef, message)
    return coef * (sign / norm)[:, None]


def normalize_conic(conic: Conic2D, constraint: str) -> Conic2D:
    """Rescale conic coefficients to satisfy the named constraint exactly."""
    return Conic2D(*normalize_conics(conic._row(), constraint)[0].tolist())


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


def section_stack(points, dim: int) -> tuple[np.ndarray, bool]:
    """``points`` as an (S, n, dim) stack, and whether it was one (n, dim)
    section, which is validated as ``as_points`` does; the coordinates of a
    stack are not checked here.

    Each section of a stack keeps its memory layout, by which its sums round.
    A sequence of (n, dim) sections is stacked once, section by section, and
    a stack whose sections do not lie one after another (a transposed or
    broadcast array) would sum in another order, so it is stacked again the
    same way. Sections of unequal shape raise a ValueError naming the first
    that differs from section 0.
    """
    sections = None if isinstance(points, np.ndarray) else [
        np.asarray(section, dtype=float) for section in points]
    if sections and sections[0].ndim == 2:  # else not a list of (n, dim) sections
        shapes = [section.shape for section in sections]
        first = next((k for k, shape in enumerate(shapes) if shape != shapes[0]), None)
        if first is not None:
            got, want = shapes[first], shapes[0]
            if len(got) == 2 and got[1] == want[1]:
                raise ValueError(f"section {first} has {got[0]} points but section 0 has "
                                 f"{want[0]}; a stack needs sections of equal point count")
            raise ValueError(f"section {first} has shape {got} but section 0 has {want}; "
                             "a stack needs sections of equal shape")
        pts = np.stack(sections)
    else:
        pts = np.asarray(points, dtype=float)
    if pts.ndim != 3:
        return as_points(pts, dim)[None], True
    if pts.shape[2] != dim:
        raise ValueError(f"expected an (S, n, {dim}) stack of sections, got shape {pts.shape}")
    if isinstance(points, np.ndarray) and len(pts) > 1 and (
            abs(pts.strides[0]) < max(abs(pts.strides[1]), abs(pts.strides[2]))):
        pts = np.stack(list(pts))
    return pts, False


def stacked_or_alone(run: Callable[[slice], Sequence], count: int, single: bool) -> Sequence:
    """``run(slice(None))``: the results of a stack of ``count`` sections,
    ``run(rows)`` being those of the sections ``rows``.

    A stacked kernel raises at the first check that any section fails, and
    a section's result in a stack is bit for bit its result alone. So when
    the stack raises, each section is run alone, in order, and the first
    error one gives alone is raised with its position in ``.section``, as a
    loop would raise it; if none fails, their results are returned. One
    section (``single``) raises as it is. A slice is a view, so each section
    keeps its memory layout, by which its sums round.
    """
    try:
        return run(slice(None))
    except (HelibendError, ValueError):
        if single:
            raise
    results = []
    for k in range(count):
        try:
            results.extend(run(slice(k, k + 1)))
        except (HelibendError, ValueError) as exc:
            exc.section = k
            raise
    return results


def in_blocks(sizes: Sequence[int], run: Callable[[list[int]], Sequence],
              workers: int = 1) -> list:
    """``run`` over the sections with point counts ``sizes`` in blocks: one
    result per section, in section order.

    A block holds sections of equal point count, in section order, and at
    most ``_BLOCK_POINTS`` points (and at least one section). ``run(block)``
    takes the positions of a block's sections and returns one result per
    section, or raises the error of its earliest failing section with that
    section's position in the block in ``.section``. Blocks go by size, not
    by section order, so every block is run, and the error of the earliest
    failing section of all is raised, as a loop over the sections would,
    with that section's index in ``.section``.

    With ``workers`` above 1 the blocks are cut into consecutive shares of
    about equal point count (parallel.share_out), and each share after the
    first is run in a forked child (parallel.run_shares), whose results and
    section errors must pickle. A share whose child fails is run here, so
    the errors and warnings are those of ``workers=1``.
    """
    blocks = list(_blocks(sizes))
    shares = share_out([len(block) * sizes[block[0]] for block in blocks], workers)

    def run_share(share):
        batches = []
        for k in share:
            try:
                batches.append(run(blocks[k]))
            except (HelibendError, ValueError) as exc:
                if getattr(exc, "section", None) is None:
                    raise
                exc.section = blocks[k][exc.section]
                batches.append(exc)
        return batches

    results = [None] * len(sizes)
    errors = []
    # The shares are consecutive runs of the blocks, in order.
    for block, batch in zip(blocks, itertools.chain.from_iterable(run_shares(run_share, shares))):
        if isinstance(batch, Exception):
            errors.append(batch)
            continue
        for i, result in zip(block, batch):
            results[i] = result
    if errors:
        raise min(errors, key=lambda exc: exc.section)
    return results


def _blocks(sizes: Sequence[int]):
    """Positions of the sections, grouped by size into blocks in section
    order of at most _BLOCK_POINTS points (and at least one section).
    """
    by_size: dict[int, list[int]] = {}
    for i, size in enumerate(sizes):
        by_size.setdefault(size, []).append(i)
    for size, positions in by_size.items():
        per_block = max(1, _BLOCK_POINTS // max(size, 1))
        for start in range(0, len(positions), per_block):
            yield positions[start:start + per_block]


def canonicalize_section(points) -> CanonicalSection | list[CanonicalSection]:
    """Move one measured cross-section, or a stack of them, to the
    evaluation pose.

    Rotates about the product axis by minus the centroid azimuth, then
    translates the centroid to the origin. ``points`` is one (n, 3) section,
    whose CanonicalSection is returned, or a stack (S, n, 3) of equal-size
    sections (an array or a sequence), whose CanonicalSections are returned
    in a list in stack order. Each is bit for bit the section's own, and a
    stack raises the error of its earliest failing section, as
    canonicalizing the sections one by one would, with that section's
    position in ``.section`` (see stacked_or_alone).
    """
    stack, single = section_stack(points, 3)
    sections = stacked_or_alone(lambda rows: _canonicalized(stack[rows]), len(stack), single)
    return sections[0] if single else sections


def _canonicalized(stack: np.ndarray) -> list[CanonicalSection]:
    """The CanonicalSections of a stack (S, n, 3), whose canonical points
    are views of one array; raises at the first check a section fails."""
    n = finite_points(stack).shape[1]
    if n < MIN_SECTION_POINTS:
        raise TooFewPoints(f"need at least {MIN_SECTION_POINTS} points per section, got {n}")
    centroids = stack.mean(axis=1)
    poses = []
    for (x, y, _), scale in zip(centroids.tolist(), np.abs(stack).max(axis=(1, 2)).tolist()):
        radius = math.hypot(x, y)
        if radius < 1e-12 * max(1.0, scale):
            raise DegenerateSection("section centroid lies on the product axis")
        poses.append((math.atan2(y, x), radius))
    rot = np.array([rotation_z(-phi) for phi, _ in poses]).reshape(-1, 3, 3)
    # A matmul per section, so each gets the BLAS call it gets alone.
    canonical = stack @ rot.transpose(0, 2, 1)
    canonical += (-rot @ centroids[:, :, None])[:, None, :, 0]
    return [
        CanonicalSection(points_canonical=pts, centroid=ctr, azimuth_phi=phi,
                         centroid_radius=radius)
        for pts, ctr, (phi, radius) in zip(canonical, centroids, poses)
    ]
