"""Times one workload's CLI calls in a fresh interpreter.

``run.py`` starts ``python3 perfbench/worker.py PLAN.json RESULT.json`` with
``src`` on PYTHONPATH and the BLAS thread count pinned.  The plan lists the
parts (one ``helibend`` argv each, plus the files that call writes); the
worker cycles through them until ``seconds`` have passed and every part has
run, the first part twice, so that outputs can be compared across calls.
When tracing, each part runs untraced and then traced.  It writes per call the exit
code, the wall time of ``helibend.cli.main`` and the sha256 of each output,
per traced call the per-layer figures, and its own peak RSS.

After each untraced call it also times fresh interpreters that import
``helibend.cli`` and exit; spreading them over the run, instead of timing
them in one block, keeps a short burst of load on the machine from moving
all of them at once.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from helibend import cli

import tracing


def _digest(path) -> str | None:
    if not Path(path).is_file():
        return None
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        # In blocks, so that hashing a large output adds nothing to peak RSS.
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _call(argv, tracer) -> tuple[int, float]:
    start = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span(tracing.ROOT_LAYER):
                code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed call, reported with the others
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start


def _setup_seconds() -> float:
    start = time.perf_counter()
    # No timeout: waiting with one polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import helibend.cli"], check=True)
    return time.perf_counter() - start


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    parts = plan["parts"]
    modes = (False, True) if plan["trace"] else (False,)
    tracer = tracing.Tracer() if plan["trace"] else None
    calls, layers, missing, setup = [], [], set(), []
    start = time.perf_counter()
    i = 0
    least = 2 * len(parts) if plan["trace"] else len(parts) + 1
    while i < least or time.perf_counter() - start < plan["seconds"]:
        index = (i // len(modes)) % len(parts)
        traced = modes[i % len(modes)]
        part = parts[index]
        for path in part["outputs"]:
            Path(path).unlink(missing_ok=True)
        if traced:
            with tracing.installed(tracer) as gone:
                code, seconds = _call(part["argv"], tracer)
            missing.update(gone)
            layers.append(tracing.call_metrics(*tracer.take()))
        else:
            code, seconds = _call(part["argv"], None)
            for _ in range(plan["setup_per_call"]):
                setup.append(_setup_seconds())
        calls.append({
            "part": index,
            "traced": traced,
            "code": code,
            "seconds": seconds,
            "digests": [_digest(p) for p in part["outputs"]],
        })
        i += 1
    result = {
        "calls": calls,
        "layers": layers,
        "missing_targets": sorted(missing),
        "setup_seconds": setup,
        "max_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {k: os.environ.get(k) for k in plan["recorded_env"]},
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
