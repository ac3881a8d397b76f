"""Forked shares of the torsion fits: the same bits, errors and warnings as
one process, no child left behind, and never more processes than CPUs."""

import os
import threading
import warnings

import numpy as np
import pytest

from helibend import EllipseParams, cli, evaluate_cloud, generate
from helibend.errors import DegenerateConfiguration
from helibend.geometry import in_blocks
from helibend.parallel import run_shares, share_out, usable_workers
from helibend.report import read_cloud_csv, write_cloud_csv
from helibend.torsion import FITTERS, fit_sections
from helpers import count_forks, forbid_forks, random_helix_spec


def sections_of(sizes, seed=3):
    """Noisy rings, one per size, each a C-ordered (n, 2) array."""
    rng = np.random.default_rng(seed)
    ring = EllipseParams(np.array([3.0, -1.0]), 6.0, 4.0, 0.4)
    return [ring.boundary_points(n, t0=rng.uniform(0.0, 6.0)) + rng.normal(0, 0.05, (n, 2))
            for n in sizes]


# 30 sections of 400 points make 5 blocks of at most 3072 points; the ragged
# part's 41-, 40- and 39-point sections make one block of each size.
PARTS = {"blocks": [400] * 30, "ragged": [41, 40, 39] * 20}


def fitted(fitter, sections, workers):
    return fit_sections(fitter, [len(s) for s in sections],
                        lambda block: np.stack([sections[i] for i in block]), workers=workers)


def fit_bits(fit):
    p, c = fit.params, fit.conic
    return ([float(v).hex() for v in (*p.center, p.semi_major, p.semi_minor, p.orientation,
                                      c.a11, c.a12, c.a22, c.b1, c.b2, c.c,
                                      fit.rms_algebraic_residual, fit.rms_geometric_residual)],
            p.orientation_defined, fit.iterations, fit.converged, p.center.flags.writeable)


def raised(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value), caught.value.section


@pytest.mark.parametrize("fitter", FITTERS)
@pytest.mark.parametrize("part", PARTS)
def test_forked_fits_equal_one_process(monkeypatch, fitter, part):
    sections = sections_of(PARTS[part])
    alone = fitted(fitter, sections, 1)
    forks = count_forks(monkeypatch)
    shared = fitted(fitter, sections, 2)
    assert len(forks) == 1
    assert [fit_bits(f) for f in shared] == [fit_bits(f) for f in alone]


@pytest.mark.parametrize("fitter", FITTERS)
@pytest.mark.parametrize("failing", [(27,), (4, 27), (21, 24)])
def test_failing_section_in_a_child_raises_as_one_process(monkeypatch, fitter, failing):
    # Sections of 400 points at even positions and 399 at odd ones: the
    # caller's share holds the even sections and the child's the odd ones.
    sections = sections_of([400 - i % 2 for i in range(30)])
    for i in failing:
        sections[i] = np.column_stack((np.linspace(0, 5, len(sections[i])),
                                       np.linspace(1, 2, len(sections[i]))))
    expected = raised(lambda: fitted(fitter, sections, 1))
    assert expected == (DegenerateConfiguration, "points do not determine a conic", failing[0])
    forks = count_forks(monkeypatch)
    assert raised(lambda: fitted(fitter, sections, 2)) == expected
    assert len(forks) == 1


def test_warning_in_a_child_is_seen_once_in_the_caller(monkeypatch):
    def run(block):
        if 29 in block:
            warnings.warn("the last block", UserWarning)
        return [2 * i for i in block]

    forks = count_forks(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = in_blocks([400] * 30, run, workers=2)
    assert len(forks) == 1
    assert [str(w.message) for w in caught] == ["the last block"]
    assert results == [2 * i for i in range(30)]


def test_a_share_that_cannot_be_forked_runs_in_the_caller(monkeypatch):
    sections = sections_of(PARTS["ragged"])
    alone = fitted("trace", sections, 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    assert [fit_bits(f) for f in fitted("trace", sections, 2)] == [fit_bits(f) for f in alone]


@pytest.mark.parametrize("fails", [False, True])
def test_every_child_is_reaped(monkeypatch, fails):
    sections = sections_of([400] * 30)
    if fails:
        sections[27] = sections[27][:1].repeat(400, axis=0)
    forks = count_forks(monkeypatch)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    try:
        fitted("trace", sections, 2)
    except DegenerateConfiguration as exc:
        assert fails and exc.section == 27
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == open_fds


def assert_nothing_left(open_fds):
    """No child is left to reap, and the open fds are ``open_fds``."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == open_fds


def test_a_child_that_returns_none_is_not_run_again(monkeypatch, tmp_path):
    ran = tmp_path / "ran.txt"  # a file, so that a forked child's runs show too

    def run(share):
        with open(ran, "a", encoding="utf-8") as fh:
            fh.write(f"{share} {os.getpid()}\n")

    forks = count_forks(monkeypatch)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    assert run_shares(run, [0, 1]) == [None, None]
    assert len(forks) == 1
    runs = dict(line.split() for line in ran.read_text(encoding="utf-8").splitlines())
    assert len(runs) == 2 and runs["0"] == str(os.getpid()) != runs["1"]
    assert_nothing_left(open_fds)


class TwoArgumentError(ValueError):
    """A section error whose pickle does not load: unpickling calls the
    class with its ``args``, one argument short."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


def test_a_section_error_that_does_not_unpickle_raises_as_one_process(monkeypatch):
    def run(block):
        if 27 in block:
            exc = TwoArgumentError(f"section {block.index(27)} of {len(block)}", "detail")
            exc.section = block.index(27)
            raise exc
        return [2 * i for i in block]

    expected = raised(lambda: in_blocks([400] * 30, run, workers=1))
    assert expected[0] is TwoArgumentError and expected[2] == 27
    forks = count_forks(monkeypatch)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    assert raised(lambda: in_blocks([400] * 30, run, workers=2)) == expected
    assert len(forks) == 1
    assert_nothing_left(open_fds)


def test_share_out_caps_workers_at_the_cpu_count(monkeypatch):
    forbid_forks(monkeypatch)
    cpus = len(os.sched_getaffinity(0))
    assert usable_workers(10**6) == cpus
    assert len(share_out([1.0] * 100, 10**6)) == cpus
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    shares = share_out([5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5], 10**6)
    assert shares == [[0, 1, 2], [3, 4, 5, 6, 7, 8], [9, 10]]
    assert share_out([7], 10**6) == [[0]]
    assert share_out([], 10**6) == [[]]
    assert share_out([1.0] * 10, 1) == [list(range(10))]


def test_no_fork_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert usable_workers(2) == 2
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert usable_workers(2) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_one_worker_and_the_defaults_never_fork(monkeypatch, tmp_path):
    part = generate(random_helix_spec(np.random.default_rng(8)))
    write_cloud_csv(tmp_path / "cloud.csv", part.points, part.labels)
    forbid_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for workers in ([], ["--workers", "1"]):
        assert cli.main(["evaluate", "--input", str(tmp_path / "cloud.csv"),
                         "--output-dir", str(tmp_path / "out"), *workers]) == 0
    read_cloud_csv(tmp_path / "cloud.csv")
    evaluate_cloud(part.points, labels=part.labels)
    fitted("gauss-newton", sections_of([400] * 30), 1)
