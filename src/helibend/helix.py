"""Helical part model: synthetic surface generator, cross-section
segmentation and per-arc geometry.

The bent product is modeled as arcs rotated about the product axis Z_w.
``generate`` realizes that model exactly and doubles as the ground-truth
oracle for the rest of the package: every section is an ellipse placed at
its azimuth with a known surface-direction tilt and twist, optionally with
isotropic Gaussian measurement noise.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    EmptyCloud,
    InvalidSpec,
    NonMonotonicAzimuth,
    SectionCountMismatch,
    TooFewSections,
    UnderfilledSection,
)
from .geometry import (
    MIN_SECTION_POINTS,
    EllipseParams,
    as_points,
    direction_rotation,
    rotation_z,
    twist_rotation,
)


@dataclass(frozen=True)
class HelixSpec:
    """Parameters of a synthetic elliptical helical part.

    ``twist_profile`` maps a section index to its injected surface twist in
    radians; None means an untwisted part. ``extent`` is the total central
    angle swept by the part about the product axis.
    """

    radius: float = 120.0
    pitch_per_turn: float = 60.0
    semi_major: float = 8.0
    semi_minor: float = 5.0
    helix_angle: float = 0.2
    twist_profile: Callable[[int], float] | None = None
    extent: float = math.pi
    sections: int = 40
    points_per_section: int = 48
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise InvalidSpec(f"{f.name} must be finite", field=f.name)
        for name in ("sections", "points_per_section", "rng_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise InvalidSpec(f"{name} must be an integer", field=name)
        if not (self.semi_major >= self.semi_minor > 0.0):
            raise InvalidSpec("require semi_major >= semi_minor > 0", field="semi_minor")
        if self.radius <= self.semi_major:
            raise InvalidSpec(
                "helix radius must exceed the semi-major axis", field="radius"
            )
        if self.sections < 2:
            raise InvalidSpec("need at least 2 sections", field="sections")
        if self.points_per_section < MIN_SECTION_POINTS:
            raise InvalidSpec(
                f"need at least {MIN_SECTION_POINTS} points per section",
                field="points_per_section",
            )
        if not self.extent > 0.0:
            raise InvalidSpec("extent must be positive", field="extent")
        if not abs(self.helix_angle) < math.pi / 2:
            raise InvalidSpec("helix angle must lie in (-pi/2, pi/2)", field="helix_angle")
        if self.noise_sigma < 0.0:
            raise InvalidSpec("noise sigma cannot be negative", field="noise_sigma")
        if self.rng_seed < 0:
            raise InvalidSpec("seed cannot be negative", field="rng_seed")

    def twist_at(self, index: int) -> float:
        return 0.0 if self.twist_profile is None else float(self.twist_profile(index))


@dataclass(frozen=True)
class GroundTruth:
    """Per-section design values emitted alongside a generated cloud."""

    phi: np.ndarray
    theta_x: np.ndarray
    theta_y: np.ndarray
    centroids: np.ndarray


# Noise draws discarded per call when a section stream starts past section 0.
_SKIP_DRAWS = 1 << 16


@dataclass(frozen=True)
class SyntheticPart:
    """A generated part: its spec and ground truth, with the cloud made from them.

    ``sections(first, stop)`` yields the points of sections first..stop-1 one
    section at a time, so a process can write any run of sections without
    holding the rest. ``points`` and ``labels``, the whole labeled cloud, are
    built from that stream on first use and kept; any cut of the stream,
    joined, equals ``points`` bit for bit.
    """

    spec: HelixSpec
    truth: GroundTruth

    def sections(self, first: int = 0, stop: int | None = None) -> Iterator[np.ndarray]:
        """The (n, 3) points of each section from ``first`` up to ``stop``
        (the end of the part when None), in order.

        Each section is built at the evaluation pose (twist about the local
        normal first, then the surface-direction tilt), rotated to its
        azimuth, translated onto the helix and given its noise draws, which
        follow those of every earlier section.
        """
        spec, truth = self.spec, self.truth
        n = spec.points_per_section
        # The outline in the section's ZX plane: major axis along z, minor along x.
        base = np.zeros((n, 3))
        base[:, [2, 0]] = EllipseParams(np.zeros(2), spec.semi_major, spec.semi_minor,
                                        0.0).boundary_points(n)
        tilt = direction_rotation(spec.helix_angle)
        rng = np.random.default_rng(spec.rng_seed)
        if spec.noise_sigma > 0.0:
            # A normal draw takes as many generator steps as a standard normal
            # one, so skipping the earlier sections' draws leaves the same stream.
            skipped = np.empty(min(_SKIP_DRAWS, first * n * 3))
            for left in range(first * n * 3, 0, -_SKIP_DRAWS):
                rng.standard_normal(out=skipped[: min(left, _SKIP_DRAWS)])
        phi, twist = truth.phi.tolist(), truth.theta_y.tolist()
        for i in range(first, spec.sections if stop is None else stop):
            rot = rotation_z(phi[i]) @ tilt @ twist_rotation(twist[i])
            section = base @ rot.T + truth.centroids[i]
            if spec.noise_sigma > 0.0:
                section = section + rng.normal(0.0, spec.noise_sigma, section.shape)
            yield section

    @functools.cached_property
    def points(self) -> np.ndarray:
        n = self.spec.points_per_section
        points = np.empty((self.spec.sections * n, 3))
        for i, section in enumerate(self.sections()):
            points[i * n : (i + 1) * n] = section
        return points

    @functools.cached_property
    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.spec.sections), self.spec.points_per_section)


@dataclass(frozen=True)
class ArcGeometry:
    """Radius, central angle and arc lengths recovered from section poses.

    ``arc_length`` uses the planar arc convention s = R * dphi; the helical
    length corrected for pitch is reported alongside when the pitch can be
    estimated from the sections' axial drift.
    """

    radius: float
    central_angle: float
    arc_length: float
    helical_arc_length: float | None
    pitch_per_radian: float | None


def generate(spec: HelixSpec) -> SyntheticPart:
    """Validate ``spec`` and compute the ground truth of its part; the cloud
    is made from them section by section (see SyntheticPart.sections).
    Deterministic for a fixed seed.

    Raises InvalidSpec on an invalid field, on a non-finite twist and on a
    spec whose points overflow, naming the first section with a non-finite
    point. Only a spec within a factor of about four of the largest double
    is generated here to look for one.
    """
    spec.validate()
    pitch_per_radian = spec.pitch_per_turn / (2.0 * math.pi)
    phi = np.empty(spec.sections)
    theta_y = np.empty(spec.sections)
    centroids = np.empty((spec.sections, 3))
    for i in range(spec.sections):
        phi_i = spec.extent * i / (spec.sections - 1)
        if not math.isfinite(phi_i):
            raise InvalidSpec(f"azimuth is {phi_i} at section {i}", field="extent")
        twist_i = spec.twist_at(i)
        if not math.isfinite(twist_i):
            raise InvalidSpec(f"twist is {twist_i} at section {i}", field="twist_profile")
        phi[i] = phi_i
        theta_y[i] = twist_i
        centroids[i] = (
            spec.radius * math.cos(phi_i),
            spec.radius * math.sin(phi_i),
            pitch_per_radian * phi_i,
        )
    truth = GroundTruth(
        phi=phi,
        theta_x=np.full(spec.sections, spec.helix_angle),
        theta_y=theta_y,
        centroids=centroids,
    )
    part = SyntheticPart(spec=spec, truth=truth)
    # A coordinate is its centre's, plus at most the semi-major axis from the
    # outline, plus the noise, whose standard normal factor numpy never draws
    # beyond 14 (its tail draw is r - log(u) / r with u >= 2**-53).
    with np.errstate(over="ignore"):
        reach = np.abs(centroids).max() + spec.semi_major + 64.0 * spec.noise_sigma
    if not reach < np.finfo(float).max / 4:
        with np.errstate(over="ignore", invalid="ignore"):
            for i, section in enumerate(part.sections()):
                bad = ~np.isfinite(section).all(axis=1)
                if bad.any():
                    exc = InvalidSpec(f"section {i} has a non-finite point: "
                                      f"{section[bad.argmax()].tolist()}")
                    exc.section = i
                    raise exc
    return part


def segment_sections(cloud, expected_sections: int | None = None, labels=None):
    """Split a measured cloud into per-section point arrays.

    With labels, points are grouped by label and ordered by label value,
    keeping input order inside each group; an underfilled group is reported
    by its label value (the first in input order, as -0.0 and 0.0 share a
    group), and an ``expected_sections`` that differs from the number of
    labels raises SectionCountMismatch. Labels already in non-decreasing
    order, as ``synth`` writes them, are cut where they change, so each
    group is a view of the cloud's rows and writing into a group writes
    into the cloud; any other order is gathered into new arrays once.
    Without labels the points are binned by azimuth about the product axis:
    the cloud is rebased past the largest circular gap (so parts spanning
    the -pi/pi seam work) and split at the ``expected_sections - 1`` widest
    remaining gaps, giving contiguous azimuth bins ordered along the part.
    """
    pts = np.asarray(cloud, dtype=float)
    if pts.size == 0:
        raise EmptyCloud("no points in input cloud")
    pts = as_points(pts, 3)

    if labels is not None:
        labels = np.asarray(labels)
        if len(labels) != len(pts):
            raise ValueError("labels length does not match point count")
        if labels.ndim != 1:
            raise ValueError(f"labels must hold one value per point, got shape {labels.shape}")
        if labels.dtype.kind in "fc" and np.isnan(labels).any():
            raise ValueError("labels contain NaN")
        if not (labels[1:] >= labels[:-1]).all():
            # One stable sort keeps file order inside each group.
            order = np.argsort(labels, kind="stable")
            pts, labels = pts[order], labels[order]
        cuts = np.flatnonzero(labels[1:] != labels[:-1]) + 1
        names = labels[np.concatenate(([0], cuts))]
        if expected_sections is not None and expected_sections != len(names):
            raise SectionCountMismatch(
                f"labels name {len(names)} sections, but {expected_sections} were expected"
            )
        groups = np.split(pts, cuts)
    else:
        if expected_sections is None or expected_sections < 1:
            raise ValueError("expected_sections must be >= 1 for unlabeled input")
        if expected_sections == 1:
            groups = [pts]
        else:
            azimuth = np.arctan2(pts[:, 1], pts[:, 0])
            order = np.argsort(azimuth, kind="stable")
            sorted_az = azimuth[order]
            gaps = np.diff(sorted_az)
            wrap_gap = sorted_az[0] + 2.0 * math.pi - sorted_az[-1]
            start = 0 if wrap_gap >= (gaps.max() if gaps.size else 0.0) else int(np.argmax(gaps)) + 1
            rebased = np.mod(azimuth - sorted_az[start], 2.0 * math.pi)
            order = np.argsort(rebased, kind="stable")
            sorted_rebased = rebased[order]
            internal = np.diff(sorted_rebased)
            if expected_sections - 1 > internal.size:
                raise UnderfilledSection("fewer points than requested sections")
            cut_positions = np.sort(np.argsort(internal)[-(expected_sections - 1):])
            bounds = [0, *(int(c) + 1 for c in cut_positions), len(pts)]
            groups = [pts[order[bounds[k] : bounds[k + 1]]] for k in range(expected_sections)]
        names = range(len(groups))

    for name, group in zip(names, groups):
        if len(group) < MIN_SECTION_POINTS:
            raise UnderfilledSection(
                f"section {name} holds {len(group)} points; need {MIN_SECTION_POINTS}"
            )
    return groups


def arc_parameters(azimuth, radius, axial) -> ArcGeometry:
    """Arc geometry from the azimuths, centroid radii and axial positions
    of consecutive sections, in part order.

    The radius is the mean centroid radius, the central angle is the
    unwrapped azimuth sweep (monotone along the part by assumption), and
    the planar arc length is radius times central angle. When the sections
    drift along the product axis the pitch is estimated by a linear fit of
    axial position against azimuth and the helical arc length
    sqrt(R^2 + p^2) * dphi is reported as well. Azimuths that step both ways
    raise NonMonotonicAzimuth naming in ``.section`` the later section of
    the first step against the net sweep.
    """
    if len(azimuth) < 2:
        raise TooFewSections("need at least 2 sections for arc geometry")
    radius = float(np.mean(radius))
    phi = np.asarray(azimuth, dtype=float).tolist()
    diffs = [math.remainder(b - a, 2.0 * math.pi) for a, b in zip(phi, phi[1:])]
    sweep = math.fsum(diffs)
    if any(d > 1e-15 for d in diffs) and any(d < -1e-15 for d in diffs):
        exc = NonMonotonicAzimuth("section azimuths reverse direction along the part")
        sign = -1.0 if sweep < 0.0 else 1.0
        exc.section = 1 + next(k for k, d in enumerate(diffs) if sign * d < -1e-15)
        raise exc
    central_angle = abs(sweep)
    arc_length = radius * central_angle

    pitch = None
    helical = None
    if central_angle > 1e-9:
        unwrapped = np.concatenate(([phi[0]], phi[0] + np.cumsum(diffs)))
        z = np.asarray(axial, dtype=float)
        du = unwrapped - unwrapped.mean()
        pitch = float(du @ (z - z.mean()) / (du @ du))
        helical = math.sqrt(radius * radius + pitch * pitch) * central_angle
    return ArcGeometry(
        radius=radius,
        central_angle=central_angle,
        arc_length=arc_length,
        helical_arc_length=helical,
        pitch_per_radian=pitch,
    )
