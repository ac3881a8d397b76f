"""Inputs and output checks of the workloads, built on helibend itself.

Every part is a labeled elliptical helix made by ``helibend synth``: 3 deg
sine twist, noise sigma 0.02 mm, extent 3.0 rad.  Evaluate workloads get it
as a CSV written before timing starts; the synth workload writes it in the
timed call and is checked here against ``generate`` directly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from helibend import cli
from helibend.helix import HelixSpec, generate
from helibend.pipeline import evaluate_sections
from helibend.report import EvaluationReport, read_cloud_csv, read_truth_csv

RADIUS = 120.0
PITCH = 60.0
SEMI_MAJOR = 8.0
SEMI_MINOR = 5.0
TWIST_SINE_AMP_DEG = 3.0
NOISE_SIGMA = 0.02
EXTENT_DEG = math.degrees(3.0)

# About three times the largest error seen at noise sigma 0.02 mm on these
# parts (theta 3.2e-3 rad, arc length 1.4e-5); a report outside them is wrong.
THETA_TOLERANCE_RAD = 1e-2
ARC_LENGTH_TOLERANCE = 1e-4


def synth_argv(output_dir, seed: int, sections: int, points_per_section: int) -> list[str]:
    return [
        "synth",
        "--output-dir", str(output_dir),
        "--seed", str(seed),
        "--radius", repr(RADIUS),
        "--pitch", repr(PITCH),
        "--semi-major", repr(SEMI_MAJOR),
        "--semi-minor", repr(SEMI_MINOR),
        "--sections", str(sections),
        "--points-per-section", str(points_per_section),
        "--twist-sine-amp-deg", repr(TWIST_SINE_AMP_DEG),
        "--noise-sigma", repr(NOISE_SIGMA),
        "--extent-deg", repr(EXTENT_DEG),
    ]


def synth_spec(seed: int, sections: int, points_per_section: int) -> HelixSpec:
    """The spec ``synth_argv`` asks the CLI for, built without the CLI."""
    amp = math.radians(TWIST_SINE_AMP_DEG)
    span = max(sections - 1, 1)
    return HelixSpec(
        radius=RADIUS,
        pitch_per_turn=PITCH,
        semi_major=SEMI_MAJOR,
        semi_minor=SEMI_MINOR,
        helix_angle=math.atan2(PITCH / (2.0 * math.pi), RADIUS),
        twist_profile=lambda i: amp * math.sin(2.0 * math.pi * (i / span)),
        extent=math.radians(EXTENT_DEG),
        sections=sections,
        points_per_section=points_per_section,
        noise_sigma=NOISE_SIGMA,
        rng_seed=seed,
    )


def write_input(part_dir: Path, seed: int, sections: int, points_per_section: int) -> None:
    code = cli.main(synth_argv(part_dir, seed, sections, points_per_section))
    if code != 0:
        raise RuntimeError(f"synth exited with {code} while preparing {part_dir}")


def errors(document: dict, truth_csv) -> dict[str, np.ndarray]:
    """Per-section and per-arc error of a report against the truth sidecar."""
    phi, theta_x, theta_y, centroids = read_truth_csv(truth_csv)
    sections = document["sections"]
    if len(sections) != len(phi):
        raise ValueError(f"report has {len(sections)} sections, truth {len(phi)}")
    radius = float(np.mean(np.hypot(centroids[:, 0], centroids[:, 1])))
    arc = document["arcs"][0]
    true_step = radius * np.diff(phi)
    step = arc["radius_mm"] * np.diff(np.unwrap([s["azimuth_rad"] for s in sections]))
    true_length = radius * (phi[-1] - phi[0])
    return {
        "theta_x": np.array([s["theta_x_rad"] for s in sections]) - theta_x,
        "theta_y": np.array([s["theta_y_rect_rad"] for s in sections]) - theta_y,
        "arc_step_rel": (step - true_step) / true_step,
        "arc_length_rel": np.array([abs(arc["arc_length_mm"] - true_length) / true_length]),
    }


def tolerance_problems(err: dict[str, np.ndarray]) -> list[str]:
    problems = []
    for key in ("theta_x", "theta_y"):
        worst = float(np.max(np.abs(err[key])))
        if not worst <= THETA_TOLERANCE_RAD:
            problems.append(f"{key} error {worst:.3g} rad exceeds {THETA_TOLERANCE_RAD}")
    worst = float(err["arc_length_rel"][0])
    if not worst <= ARC_LENGTH_TOLERANCE:
        problems.append(f"arc length error {worst:.3g} exceeds {ARC_LENGTH_TOLERANCE}")
    return problems


def check_evaluate(report_json: Path, truth_csv: Path):
    """Errors of an evaluate report against its truth, and what is out of tolerance."""
    document = json.loads(report_json.read_text(encoding="utf-8"))
    err = errors(document, truth_csv)
    return err, tolerance_problems(err)


def check_synth(out_dir: Path, seed: int, sections: int, points_per_section: int):
    """Round-trip the written part and evaluate it against its written truth.

    ``cloud.csv`` read back by ``read_cloud_csv`` and ``truth.csv`` read back
    by ``read_truth_csv`` must equal the ``generate`` arrays exactly.  The
    read-back cloud, split by its labels, is then evaluated with the trace
    fitter, which gives this workload its accuracy figures.
    """
    part = generate(synth_spec(seed, sections, points_per_section))
    problems = []
    points, labels = read_cloud_csv(out_dir / "cloud.csv")
    if labels is None or not (np.array_equal(points, part.points)
                              and np.array_equal(labels, part.labels)):
        problems.append("cloud.csv does not round-trip to the generated arrays")
    phi, theta_x, theta_y, centroids = read_truth_csv(out_dir / "truth.csv")
    truth = part.truth
    if not all(np.array_equal(a, b) for a, b in (
        (phi, truth.phi), (theta_x, truth.theta_x),
        (theta_y, truth.theta_y), (centroids, truth.centroids),
    )):
        problems.append("truth.csv does not round-trip to the generated truth")
    if problems:
        return None, problems
    groups = np.split(points, np.flatnonzero(np.diff(labels)) + 1)
    result = evaluate_sections(groups, workers=1)
    document = EvaluationReport.from_result(result, fitter="trace", input_digest="").document
    err = errors(document, out_dir / "truth.csv")
    return err, tolerance_problems(err)


def accuracy_figures(errors: list[dict[str, np.ndarray]]) -> dict[str, float]:
    """Accuracy pooled over every section of every part of a run.

    The RMS figures vary little from seed to seed, so the benchmark bounds
    them; the maxima and the single arc-length error are reported beside them.
    """
    def pooled(key):
        return np.concatenate([e[key] for e in errors])

    def rms(key):
        return float(np.sqrt(np.mean(pooled(key) ** 2)))

    return {
        "theta_x_rms_err_rad": rms("theta_x"),
        "theta_y_rms_err_rad": rms("theta_y"),
        "arc_step_rms_rel_err": rms("arc_step_rel"),
        "theta_x_max_err_rad": float(np.max(np.abs(pooled("theta_x")))),
        "theta_y_max_err_rad": float(np.max(np.abs(pooled("theta_y")))),
        "arc_length_rel_err": float(np.max(pooled("arc_length_rel"))),
    }


def numpy_facts() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }
