"""Command-line interface.

Commands:

* ``evaluate``     run the full pipeline on a measured cloud CSV;
* ``synth``        generate a synthetic part plus its ground-truth sidecar;
* ``compare-fits`` sweep true twist angles and record what each fitting
                   method detects, as CSV and SVG scatter plots.

Exit codes: 0 success, 2 input error, 3 analysis error, 4 non-convergence
(a report is still written).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import math
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np

from ._version import __version__
from .conicfit import DEFAULT_MAX_ITERATIONS, moment_init
from .errors import (
    EmptyCloud,
    HelibendError,
    InputFormatError,
    InvalidSpec,
    InvalidSweep,
    SectionCountMismatch,
)
from .geometry import MIN_SECTION_POINTS, TRACE, EllipseParams, fold_half_open
from .helix import HelixSpec, generate
from .linefit import DEFAULT_WINDOW
from .pipeline import evaluate_cloud
from .report import (
    EvaluationReport,
    _csv_text,
    arc_csv_text,
    read_cloud_csv,
    sections_csv_text,
    svg_scatter,
    write_cloud_csv,
    write_truth_csv,
)
from .torsion import (
    FITTERS,
    GAUSS_NEWTON,
    fit_sections,
    rectify_against,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ANALYSIS = 3
EXIT_NONCONVERGED = 4


@contextlib.contextmanager
def _command_heap():
    """Fix glibc's malloc thresholds, and free the unused heap pages when the
    command ends; no effect on another C library.

    glibc raises its mmap threshold to the largest block freed so far, so the
    peak memory of a process that runs several commands would depend on how
    the earlier ones left the heap. Blocks of 1 MiB or more now go back to the
    system when freed; smaller ones keep their pages until the command ends
    (trimming them as they are freed slows evaluate).
    """
    libc = ctypes.CDLL(None) if platform.libc_ver()[0] == "glibc" else None
    if libc is not None:
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        libc.malloc_trim.argtypes, libc.malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
        libc.mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    try:
        yield
    finally:
        if libc is not None:
            libc.malloc_trim(0)


def _checked(convert, valid, rule: str):
    """An argparse type: ``convert`` the text, then reject values not ``valid``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    return parse


_positive_int = _checked(int, lambda value: value >= 1, "must be >= 1")
_non_negative_int = _checked(int, lambda value: value >= 0, "must be >= 0")
_finite_float = _checked(float, math.isfinite, "must be a finite number")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helibend",
        description="Machining-accuracy evaluation for elliptical helical bent pipes",
    )
    parser.add_argument("--version", action="version", version=f"helibend {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="evaluate a measured point cloud")
    ev.add_argument("--input", required=True, help="cloud CSV (x,y,z[,section])")
    ev.add_argument("--output-dir", required=True)
    ev.add_argument("--fitter", choices=FITTERS, default=TRACE)
    ev.add_argument(
        "--sections",
        type=_positive_int,
        default=None,
        help="expected section count (required when the input has no section column)",
    )
    ev.add_argument("--window", type=_positive_int, default=DEFAULT_WINDOW,
                    help="adjacent sections pooled per direction fit, centred on the "
                         "section; an even value pools one more")
    ev.add_argument("--workers", type=_positive_int, default=1,
                    help="processes that share the CSV parse and the torsion fits, at most "
                         "one per CPU; the outputs do not depend on it (default: %(default)s)")
    ev.add_argument("--format", choices=("csv", "report", "both"), default="both")
    ev.add_argument("--gn-max-iterations", type=_positive_int,
                    default=DEFAULT_MAX_ITERATIONS,
                    help="iteration budget for the gauss-newton fitter (default: %(default)s)")

    sy = sub.add_parser("synth", help="generate a synthetic part with ground truth")
    sy.add_argument("--output-dir", required=True)
    sy.add_argument("--seed", type=_non_negative_int, default=0)
    sy.add_argument("--radius", type=_finite_float, default=120.0,
                    help="helix radius [mm]")
    sy.add_argument("--pitch", type=_finite_float, default=60.0,
                    help="axial advance per turn [mm]")
    sy.add_argument("--semi-major", type=_finite_float, default=8.0)
    sy.add_argument("--semi-minor", type=_finite_float, default=5.0)
    sy.add_argument("--helix-angle-deg", type=_finite_float, default=None,
                    help="surface direction [deg]; default from pitch and radius")
    sy.add_argument("--extent-deg", type=_finite_float, default=180.0)
    sy.add_argument("--sections", type=int, default=40)
    sy.add_argument("--points-per-section", type=int, default=48)
    sy.add_argument("--noise-sigma", type=_finite_float, default=0.0)
    sy.add_argument("--twist-constant-deg", type=_finite_float, default=0.0)
    sy.add_argument("--twist-ramp-deg", type=_finite_float, default=0.0,
                    help="twist added linearly from 0 to this value along the part")
    sy.add_argument("--twist-sine-amp-deg", type=_finite_float, default=0.0)
    sy.add_argument("--twist-sine-cycles", type=_finite_float, default=1.0)

    cf = sub.add_parser("compare-fits", help="sweep twist angles across fitters")
    cf.add_argument("--output-dir", required=True)
    cf.add_argument("--min-angle-deg", type=_finite_float, default=-90.0)
    cf.add_argument("--max-angle-deg", type=_finite_float, default=90.0)
    cf.add_argument("--trials", type=int, default=181, help="sweep samples per fitter")
    cf.add_argument("--noise-sigma", type=_finite_float, default=0.0)
    cf.add_argument("--seed", type=_non_negative_int, default=0)
    cf.add_argument("--semi-major", type=_finite_float, default=30.0)
    cf.add_argument("--semi-minor", type=_finite_float, default=10.0)
    cf.add_argument("--points", type=int, default=60)
    cf.add_argument("--arc-fraction", type=_finite_float, default=1.0,
                    help="fraction of the boundary sampled per trial; below 1 "
                         "emulates a one-sided scan, where the constraint "
                         "choice matters most")
    return parser


def _cmd_evaluate(args) -> int:
    points, labels = read_cloud_csv(args.input, workers=args.workers)
    if points.size == 0:
        raise EmptyCloud("input file contains no points")
    if labels is None and args.sections is None:
        raise InputFormatError(
            "input has no section column; pass --sections", line_number=None
        )
    sha = hashlib.sha256()
    with open(args.input, "rb") as fh:
        # Hashed in pieces: the whole file at once is a second copy of the
        # input beside its parsed arrays, and it set the peak memory.
        for piece in iter(lambda: fh.read(1 << 20), b""):
            sha.update(piece)
    digest = "sha256:" + sha.hexdigest()
    result = evaluate_cloud(
        points,
        labels=labels,
        expected_sections=args.sections,
        fitter=args.fitter,
        window=args.window,
        gn_max_iterations=args.gn_max_iterations,
        workers=args.workers,
    )
    report = EvaluationReport.from_result(result, fitter=args.fitter, input_digest=digest)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.format in ("report", "both"):
        report.write(out / "report.json")
    if args.format in ("csv", "both"):
        (out / "sections.csv").write_text(sections_csv_text(report), encoding="utf-8", newline="\n")
        (out / "arc.csv").write_text(arc_csv_text(report), encoding="utf-8", newline="\n")
    if not result.fits.converged:
        print("warning: at least one section fit did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _twist_profile(args, sections: int):
    const = math.radians(args.twist_constant_deg)
    ramp = math.radians(args.twist_ramp_deg)
    amp = math.radians(args.twist_sine_amp_deg)
    cycles = args.twist_sine_cycles
    span = max(sections - 1, 1)

    def profile(i: int) -> float:
        s = i / span
        return const + ramp * s + amp * math.sin(2.0 * math.pi * cycles * s)

    return profile


def _cmd_synth(args) -> int:
    helix_angle = (
        math.atan2(args.pitch / (2.0 * math.pi), args.radius)
        if args.helix_angle_deg is None
        else math.radians(args.helix_angle_deg)
    )
    spec = HelixSpec(
        radius=args.radius,
        pitch_per_turn=args.pitch,
        semi_major=args.semi_major,
        semi_minor=args.semi_minor,
        helix_angle=helix_angle,
        twist_profile=_twist_profile(args, args.sections),
        extent=math.radians(args.extent_deg),
        sections=args.sections,
        points_per_section=args.points_per_section,
        noise_sigma=args.noise_sigma,
        rng_seed=args.seed,
    )
    part = generate(spec)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # The bytes do not depend on the worker count, so synth takes no flag for
    # it; usable_workers caps it at the CPUs this process may run on. Each
    # writing process generates the sections it writes, one block at a time.
    write_cloud_csv(out / "cloud.csv", part, workers=os.cpu_count() or 1)
    write_truth_csv(out / "truth.csv", part.truth)
    return EXIT_OK


def _cmd_compare_fits(args) -> int:
    if args.trials < 1:
        raise InvalidSweep("trials must be >= 1")
    if not (args.min_angle_deg < args.max_angle_deg):
        raise InvalidSweep("empty sweep range")
    if not args.noise_sigma >= 0.0:
        raise InvalidSweep("noise sigma cannot be negative")
    if not args.semi_major > args.semi_minor > 0.0:
        raise InvalidSweep("need semi-major > semi-minor > 0 to define an orientation")
    if args.points < MIN_SECTION_POINTS:
        raise InvalidSweep(f"need at least {MIN_SECTION_POINTS} points per trial to fit a conic")
    if not (0.0 < args.arc_fraction <= 1.0):
        raise InvalidSweep("arc fraction must lie in (0, 1]")

    lo = math.radians(args.min_angle_deg)
    hi = math.radians(args.max_angle_deg)
    if args.trials == 1:
        true_angles = np.array([0.5 * (lo + hi)])
    else:
        true_angles = lo + (hi - lo) * np.arange(args.trials) / (args.trials - 1)

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    band = math.radians(10.0)
    summary = []
    rng = np.random.default_rng(args.seed)
    trial_points = [_trial_points(args, float(true), rng) for true in true_angles]
    for fitter in FITTERS:
        # Gauss-Newton is deliberately not warm-started from the trace fit: the
        # sweep compares the methods, so it starts from plain moment estimates.
        inits = [moment_init(pts) for pts in trial_points] if fitter == GAUSS_NEWTON else None
        fits = fit_sections(fitter, [len(pts) for pts in trial_points],
                            lambda block: np.stack([trial_points[i] for i in block]), inits)
        detected_list = []
        for trial, (true, fit) in enumerate(zip(true_angles, fits)):
            raw = fit.params.orientation
            rectified = rectify_against(raw, float(true))
            rows.append(dict(fitter=fitter, trial=trial, true_theta_y_rad=float(true),
                             detected_raw_rad=raw, detected_rectified_rad=rectified))
            detected_list.append(rectified)
        detected = np.array(detected_list)
        in_band = np.abs(true_angles) < band
        err = detected[in_band] - true_angles[in_band]
        summary.append(dict(fitter=fitter, trials_in_band=int(in_band.sum()),
                            std_error_rad=float(np.std(err))))
        svg = svg_scatter(
            np.degrees(true_angles),
            np.degrees(detected),
            title=f"Detected twist vs truth ({fitter})",
            xlabel="true angle [deg]",
            ylabel="detected angle [deg]",
            lim=(args.min_angle_deg, args.max_angle_deg),
        )
        (out / f"compare_{fitter}.svg").write_text(svg, encoding="utf-8", newline="\n")

    (out / "sweep.csv").write_text(_csv_text(rows), encoding="utf-8", newline="\n")
    (out / "summary.csv").write_text(_csv_text(summary), encoding="utf-8", newline="\n")
    return EXIT_OK


def _trial_points(args, true: float, rng) -> np.ndarray:
    """One compare-fits trial: the ellipse at twist ``true``, sampled and noised."""
    params = EllipseParams(np.zeros(2), args.semi_major, args.semi_minor, fold_half_open(true))
    if args.arc_fraction >= 1.0:
        pts = params.boundary_points(args.points)
    else:
        pts = params.arc_points(args.points, args.arc_fraction, rng.uniform(0.0, 2.0 * math.pi))
    if args.noise_sigma > 0.0:
        pts = pts + rng.normal(0.0, args.noise_sigma, pts.shape)
    return pts


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning for a command: the warning on one line of stderr,
    in the form of the error lines, with no source file or line."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with _command_heap():
        parser = _build_parser()
        args = parser.parse_args(argv)
        handlers = {
            "evaluate": _cmd_evaluate,
            "synth": _cmd_synth,
            "compare-fits": _cmd_compare_fits,
        }
        try:
            # Restores showwarning on exit; the filters stay, so -W error still raises.
            with warnings.catch_warnings():
                warnings.showwarning = _print_warning
                return handlers[args.command](args)
        except (
            InputFormatError, EmptyCloud, InvalidSpec, InvalidSweep, SectionCountMismatch, OSError
        ) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except HelibendError as exc:
            where = "" if exc.section is None else f"section {exc.section}: "
            print(f"error: {type(exc).__name__}: {where}{exc}", file=sys.stderr)
            return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
