"""Work split across forked processes.

A stage that can be cut into independent shares (the byte ranges of a cloud
CSV, the blocks of a torsion fit, the row blocks of a cloud CSV write) calls
run_shares, which runs the first share on the calling process and each other
share in a child forked for it. A child computes from its copy-on-write
memory and pickles its result back through a pipe. A child that raises, or
that records any warning, sends nothing, and the caller runs that share
itself, as it does one that could not be forked, so errors and warnings are
those of a sequential run.

Nothing is forked for one worker, off Linux, or while more than one Python
thread runs (a fork copies only the calling thread, and a lock another
thread holds would stay held in the child).
"""

from __future__ import annotations

import bisect
import itertools
import os
import pickle
import sys
import threading
import warnings
from collections.abc import Callable, Sequence


def usable_workers(workers: int) -> int:
    """Processes a stage may use for ``workers``: at most the CPUs this
    process may run on, and 1 where nothing may be forked."""
    if workers <= 1 or sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(workers, len(os.sched_getaffinity(0)))


def share_out(weights: Sequence[float], workers: int) -> list[list[int]]:
    """The positions of ``weights`` cut into at most usable_workers(workers)
    runs of consecutive positions of about equal total weight, in order."""
    count = min(usable_workers(workers), len(weights))
    ends = list(itertools.accumulate(weights))
    # A share ends after the first position whose running total reaches
    # its fraction of the whole.
    cuts = sorted({bisect.bisect_left(ends, ends[-1] * k / count) + 1 for k in range(1, count)})
    bounds = [0, *(cut for cut in cuts if cut < len(weights)), len(weights)]
    return [list(range(start, stop)) for start, stop in itertools.pairwise(bounds)]


def run_shares(run: Callable, shares: Sequence) -> list:
    """``[run(share) for share in shares]``: the first share run here and
    each other share in a child forked for it. A share whose child raised,
    recorded a warning, could not be forked or sent nothing that unpickles
    is run here too. Every child is reaped before this returns or raises."""
    pids = []
    pipes = []  # the read end of each share after the first; None once closed or unforked
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller runs this share
                os.close(read_end)
                os.close(write_end)
                pipes.append(None)
                continue
            if pid == 0:
                _serve(run, share, write_end, [read_end, *(fd for fd in pipes if fd is not None)])
            os.close(write_end)
            pids.append(pid)
            pipes.append(read_end)
        results = [run(share) for share in shares[:1]]
        for k, share in enumerate(shares[1:]):
            read_end, pipes[k] = pipes[k], None
            sent = None if read_end is None else _receive(read_end)
            results.append(run(share) if sent is None else sent[0])
        return results
    finally:
        for read_end in pipes:
            if read_end is not None:
                # A child still writing gets a broken pipe and exits.
                os.close(read_end)
        for pid in pids:
            os.waitpid(pid, 0)


def _receive(read_end: int):
    """The 1-tuple of the result a child pickled whole into the pipe
    ``read_end``, which is closed; None when the child sent none, or what
    does not unpickle (an exception whose constructor takes other arguments)."""
    try:
        with open(read_end, "rb") as pipe:
            return pickle.load(pipe)
    except Exception:
        return None


def _serve(run: Callable, share, write_end: int, inherited: Sequence[int]):
    """The child's side of run_shares: send ``(run(share),)`` and exit;
    never returns. It exits non-zero, having sent nothing, when ``run``
    raises or records a warning."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(share)
        if not caught:
            with open(write_end, "wb") as pipe:
                pickle.dump((result,), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
    finally:
        # No exit handlers or buffered output of the caller's run in the child.
        os._exit(code)
