"""Smoke test of the benchmark itself, at a tiny part size.

Kept out of the repository's test suite (``testpaths`` is ``tests``); run it
from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload, trace, seed=3):
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_declared_metric(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_seed_fixes_the_inputs():
    accuracy = ("theta_x_rms_err_rad", "theta_y_rms_err_rad", "arc_step_rms_rel_err")
    first, again, other = (_result("fit-gn", 0, seed)["metrics"] for seed in (5, 5, 6))
    assert all(first[k] == again[k] for k in accuracy)
    assert any(first[k] != other[k] for k in accuracy)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "fit-gn", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")
    module.called = lambda: None
    module.uncalled = lambda: None
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_gone_and_uncalled_targets_are_absent(fake_module):
    original = fake_module.called
    targets = tuple(
        tracing.Target(fake_module.__name__, attr, f"fake.{attr}", "evaluate")
        for attr in ("called", "uncalled", "renamed_away")
    )
    tracer = tracing.Tracer()
    with tracing.installed(tracer, targets) as missing:
        fake_module.called()
    assert missing == [f"{fake_module.__name__}.renamed_away"]
    assert fake_module.called is original
    metrics = tracing.call_metrics(*tracer.take())
    assert metrics["fake.called.calls"] == 1
    assert not any(k.startswith(("fake.uncalled.", "fake.renamed_away.")) for k in metrics)


def test_pool_thread_spans_are_children_of_the_calling_span():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        _span_in(tracer, "inner")
        thread = threading.Thread(target=_span_in, args=(tracer, "inner"))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    spans, _ = tracer.take()
    outer = next(s for s in spans if s.name == "outer")
    assert [s.parent for s in spans if s.name == "inner"] == [outer.ident, outer.ident]
    metrics = tracing.call_metrics(spans, {})
    assert metrics["inner.calls"] == 2
    assert 0.0 <= metrics["outer.self_s"] <= metrics["outer.busy_s"]
    assert metrics["outer.children_s"] == pytest.approx(metrics["inner.busy_s"])


def _span_in(tracer, name):
    with tracer.span(name):
        pass
