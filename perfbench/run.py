#!/usr/bin/env python3
"""Benchmark of the helibend CLI on synthetic parts.

Run from the repository root:

    python3 perfbench/run.py --workload scan-labeled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end figures with nothing wrapped; ``--trace
1`` alternates untraced and traced calls and reports the per-layer figures
(see ``tracing.py``).  ``--smoke`` shrinks every part to a few sections, for
the benchmark's own test.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run makes its parts from ``--seed``, prepares the evaluate inputs before
timing, then hands the CLI calls to ``worker.py`` in a fresh interpreter with
``--workers 2`` and ``OPENBLAS_NUM_THREADS=1``, so the load stays within the
two threads of the pool.  A call fails on a non-zero exit code, on output
bytes that differ from an earlier call of the same part, or on a report
outside the tolerances in ``checks.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}
WORKERS = "2"
SETUP_PER_CALL = 2  # fresh-interpreter imports timed after each untraced call
CHILD_TIMEOUT_S = 140  # leaves time to prepare and check within 180 s


@dataclass(frozen=True)
class Workload:
    command: str
    fitter: str | None
    sections: int
    points_per_section: int
    # Several parts per run so the accuracy figures pool >= 3000 sections and
    # vary little from seed to seed.
    parts: int


WORKLOADS = {
    # CSV parsing and O(sections x points) label grouping dominate; fitting is cheap.
    "scan-labeled": Workload("evaluate", "trace", 1000, 400, 3),
    # Foot-point and Levenberg-Marquardt iterations dominate; I/O and grouping are small.
    "fit-gn": Workload("evaluate", "gauss-newton", 800, 100, 4),
    # Generation and the CSV writers, with no evaluation layer.
    "synth-write": Workload("synth", None, 2500, 400, 2),
}
SMOKE_SIZE = (12, 60)

REPORTED_UNITS = {
    "failed_fraction": "ratio",
    "theta_x_max_err_rad": "rad",
    "theta_y_max_err_rad": "rad",
    "arc_length_rel_err": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SIZE[0]} sections x {SMOKE_SIZE[1]} points per part")
    return parser.parse_args(argv)


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": None,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            facts["caches"][f"L{level}"] = size
    return facts


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _run_worker(work: Path, parts: list[dict], seconds: float, trace: bool) -> dict:
    plan = {"parts": parts, "seconds": seconds, "trace": trace,
            "setup_per_call": 0 if trace else SETUP_PER_CALL,
            "recorded_env": sorted(THREAD_ENV)}
    plan_path, result_path, log_path = work / "plan.json", work / "result.json", work / "worker.log"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            env=_child_env(), stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
        )
    if proc.returncode != 0:
        sys.stderr.write(log_path.read_text(encoding="utf-8")[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _median(values):
    return statistics.median(values) if values else None


def _per_layer(workload: Workload, child: dict, names) -> dict[str, float]:
    commands = tracing.layer_commands()
    untraced = [c["seconds"] for c in child["calls"] if not c["traced"] and c["code"] == 0]
    traced = [c["seconds"] for c in child["calls"] if c["traced"] and c["code"] == 0]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            if traced and untraced:
                out[name] = _median(traced) - _median(untraced)
            continue
        values = [layers[name] for layers in child["layers"] if name in layers]
        layer = tracing.metric_layer(name)
        if values:
            out[name] = _median(values)
        elif layer in commands and workload.command not in commands[layer]:
            out[name] = 0.0  # the workload's command never reaches this layer
        else:
            print(f"perfbench: {name} absent (target gone or never called)", file=sys.stderr)
    return out


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _prepare(workload: Workload, work: Path, seeds: list[int], size) -> list[dict]:
    """One CLI argv per part, plus the files the call writes; evaluate inputs are made here."""
    # checks imports numpy and helibend, so it loads only after main() has
    # pinned the BLAS threads and put src on the path.
    import checks

    parts = []
    for k, part_seed in enumerate(seeds):
        part_dir = work / f"part{k}"
        if workload.command == "evaluate":
            checks.write_input(part_dir / "input", part_seed, *size)
            argv = ["evaluate", "--input", str(part_dir / "input" / "cloud.csv"),
                    "--output-dir", str(part_dir / "eval"), "--fitter", workload.fitter,
                    "--workers", WORKERS]
            outputs = [part_dir / "eval" / f for f in ("report.json", "sections.csv", "arc.csv")]
            csv = part_dir / "input" / "cloud.csv"
        else:
            argv = checks.synth_argv(part_dir / "synth", part_seed, *size)
            outputs = [part_dir / "synth" / f for f in ("cloud.csv", "truth.csv")]
            csv = outputs[0]
        parts.append({"argv": argv, "outputs": [str(o) for o in outputs],
                      "dir": str(part_dir), "csv": str(csv)})
    return parts


def _check(workload: Workload, parts, seeds, size, calls):
    """(failed part indices, problems, per-part error arrays) of a finished run."""
    import checks

    failed, problems, errors = set(), [], []
    for k, (part, part_seed) in enumerate(zip(parts, seeds)):
        mine = [c for c in calls if c["part"] == k]
        codes = sorted({c["code"] for c in mine if c["code"] != 0})
        if codes or any(None in c["digests"] for c in mine):
            problems.append(f"part {k}: exit codes {codes}, or an output is missing")
            failed.add(k)
            continue
        if any(c["digests"] != mine[0]["digests"] for c in mine):
            problems.append(f"part {k}: outputs differ between calls")
            failed.add(k)
        part_dir = Path(part["dir"])
        try:
            if workload.command == "evaluate":
                err, found = checks.check_evaluate(part_dir / "eval" / "report.json",
                                                   part_dir / "input" / "truth.csv")
            else:
                err, found = checks.check_synth(part_dir / "synth", part_seed, *size)
        except Exception as exc:  # whatever breaks reading an output fails that part
            err, found = None, [f"unreadable output: {type(exc).__name__}: {exc}"]
        if err is not None:
            errors.append(err)
        if found:
            problems.extend(f"part {k}: {p}" for p in found)
            failed.add(k)
    return failed, problems, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import checks

    workload = WORKLOADS[name]
    size = SMOKE_SIZE if smoke else (workload.sections, workload.points_per_section)
    seeds = [seed * 100 + k for k in range(workload.parts)]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        parts = _prepare(workload, work, seeds, size)
        child = _run_worker(work, parts, seconds, trace)
        calls = child["calls"]
        failed_parts, problems, errors = _check(workload, parts, seeds, size, calls)
        failed = sum(1 for c in calls if c["part"] in failed_parts)
        points = size[0] * size[1]
        wall = [c["seconds"] for c in calls if not c["traced"]]
        figures = {
            "failed_fraction": failed / len(calls),
            "wall_s": _median(wall),
            "points_per_s": points / _median(wall),
            "peak_rss_mib": child["max_rss_kib"] / 1024.0,
        }
        if child["setup_seconds"]:
            figures["setup_s"] = _median(child["setup_seconds"])
        if len(errors) == len(parts):
            figures.update(checks.accuracy_figures(errors))
        spec = _benchmark_spec()
        units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        if trace:
            metrics = _per_layer(workload, child, units)
        else:
            metrics = {k: figures[k] for k in units if k in figures}
        facts = {
            **machine_facts(),
            **checks.numpy_facts(),
            "worker_env": child["env"],
            "workload": name,
            "seed": seed,
            "part_seeds": seeds,
            "points_per_part": points,
            "csv_bytes_per_part": [os.path.getsize(p["csv"]) if os.path.isfile(p["csv"])
                                   else None for p in parts],
            "calls": len(calls),
            "untraced_calls": len(wall),
            "call_seconds": [round(c["seconds"], 4) for c in calls],
            "setup_samples": len(child["setup_seconds"]),
            "missing_targets": child["missing_targets"],
        }
        _print_summary(name, trace, figures, metrics, units, facts, problems,
                       {m["name"]: m["unit"] for m in spec["end_to_end"]})
        return {
            "correct": not problems,
            "attempted": len(calls),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()


def _print_summary(name, trace, figures, metrics, units, facts, problems, end_to_end):
    print(f"{name}: {facts['calls']} calls ({facts['untraced_calls']} untraced), "
          f"{facts['points_per_part']} points per part, trace={int(trace)}")
    shown = dict(end_to_end, **REPORTED_UNITS)
    for key, unit in shown.items():
        if key in figures:
            print(f"  {key:24s} {figures[key]:.6g} {unit}")
    if trace:
        for key, value in metrics.items():
            print(f"  {key:40s} {value:.6g} {units[key]}")
        if "cli.main.busy_s" in metrics:
            print(f"  cli.main: children {metrics['cli.main.children_s']:.6g} s + self "
                  f"{metrics['cli.main.self_s']:.6g} s of {metrics['cli.main.busy_s']:.6g} s")
    for problem in problems:
        print(f"  FAILED {problem}")
    print("facts: " + json.dumps(facts, sort_keys=True))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "helibend" / "cli.py").is_file():
        print(f"perfbench: no helibend sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads OpenBLAS in this process
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
