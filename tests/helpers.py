"""Shared generators for the test suite."""

import math
import os

import numpy as np

from helibend import EllipseParams, HelixSpec
from helibend.conicfit import _foot_points


def ellipse_points(center, semi_major, semi_minor, orientation, n, t0=0.0):
    params = EllipseParams(np.asarray(center, dtype=float), semi_major, semi_minor, orientation)
    return params.boundary_points(n, t0=t0)


def arc_points(params: EllipseParams, n: int, arc_frac: float, t_center: float) -> np.ndarray:
    """n boundary points spanning a fraction ``arc_frac`` of the parameter circle."""
    return params.arc_points(n, arc_frac, t_center)


def foot_points_alone(pts, a, b, start=None):
    """_foot_points of one section (n, 2) with scalar semi-axes, solved as a
    stack of one: (foot points, signed distances, angles) of the section."""
    start = None if start is None else np.asarray(start, dtype=float)[None]
    foot, dist, angles = _foot_points(pts[None], np.array([[a]]), np.array([[b]]), start)
    return foot[0], dist[0], angles[0]


def random_ellipse(rng, min_ratio=1.05):
    """Random well-conditioned ellipse with orientation away from the fold seam."""
    semi_major = rng.uniform(2.0, 60.0)
    semi_minor = semi_major / rng.uniform(min_ratio, 4.0)
    center = rng.uniform(-100.0, 100.0, 2)
    orientation = rng.uniform(-1.4, 1.4)
    return EllipseParams(center, semi_major, semi_minor, orientation)


def random_helix_spec(rng, noise_sigma=0.0):
    """Random helix spec inside the rectification filter's envelope."""
    sections = int(rng.integers(8, 40))
    const = rng.uniform(-0.25, 0.25)
    amp = rng.uniform(0.0, 0.3)
    cycles = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)

    def twist(i, _s=sections, _c=const, _a=amp, _k=cycles, _p=phase):
        return _c + _a * math.sin(2.0 * math.pi * _k * i / max(_s - 1, 1) + _p)

    semi_major = rng.uniform(4.0, 12.0)
    return HelixSpec(
        radius=rng.uniform(60.0, 200.0),
        pitch_per_turn=rng.uniform(-80.0, 80.0),
        semi_major=semi_major,
        semi_minor=semi_major * rng.uniform(0.4, 0.9),
        helix_angle=rng.uniform(-1.3, 1.3),
        twist_profile=twist,
        extent=rng.uniform(0.3, 4.5),
        sections=sections,
        points_per_section=int(rng.integers(12, 64)),
        noise_sigma=noise_sigma,
        rng_seed=int(rng.integers(0, 2**31)),
    )


def count_forks(monkeypatch, cpus=2):
    """Let helibend fork as on a machine of ``cpus`` CPUs, whatever this one
    has, and count its forks: the returned list gets one entry per fork."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", fork)
    return forks


def forbid_forks(monkeypatch):
    """Make any fork fail the test."""
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
