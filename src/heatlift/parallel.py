"""Deterministic parallel mapping over forked worker processes.

deterministic_map splits its items into the contiguous runs of
worker_runs, at most worker_count(threads, len(items)).  The calling
process maps the first run itself; each further run is mapped in one
child made by os.fork, which pickles its results (or its exception) into
a pipe and leaves through os._exit.  Results are collected in item
order, and any reduction happens sequentially over that ordered list.
Output is therefore bit-identical for a fixed partitioning regardless of
scheduling.  A partition may follow the worker count only where each
result is independent of it: dyadic.convergence_study maps one
contiguous run of replicas (worker_runs) per worker, which allocates its
buffers once, and every replica's values have the same bits in any run.

The workers are processes, not threads, because the lift does not scale
on threads: its level-2 prefix sum (np.cumsum over a multi-axis array)
holds the GIL for about 40% of every lift.  On 2 cores a thread pool ran
tails at two threads in 0.895 of the one-thread time, and sup convergence
slower than on one thread.  Forked workers cut the median op of the
benchmark's tails-dist workload (K=10, two workers, 2 cores) from 0.0905 s
to 0.0637 s.  They are forked, not spawned, so that a worker starts from
the caller's state: it maps the caller's closure without pickling it or
importing heatlift again.  heatlift starts no threads of its own, so the
fork copies a process whose only thread is the caller's.

A child shares nothing with its parent after the fork: a result reaches
the caller only through the pipe, so a counter or a patched function that
a child changes is not seen by the parent.  An exception in a child
re-raises in the caller with its type, the first one in item order, its
traceback chained as the cause; a child that dies without a result raises
RuntimeError naming its items.  Every child is read to EOF and reaped
before the call returns, and killed and reaped on every other way out,
KeyboardInterrupt included.  Where os.fork does not exist the map runs
sequentially.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from typing import Callable, Sequence, TypeVar

from .errors import ParameterError

T = TypeVar("T")
R = TypeVar("R")


def check_threads(threads: int) -> None:
    """A thread count below one raises ParameterError, naming it."""
    if threads < 1:
        raise ParameterError(f"threads >= 1 violated: threads={threads}")


def worker_count(threads: int, items: int) -> int:
    """Processes that map `items` work items at `threads`:
    min(threads, items, usable CPUs), at least one, and one where os.fork
    does not exist.  threads < 1 raises ParameterError."""
    check_threads(threads)
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS)
        cpus = os.cpu_count() or 1
    return max(1, min(threads, items, cpus))


def worker_runs(n: int, threads: int) -> list[range]:
    """The contiguous runs of range(n) that deterministic_map maps at
    threads, one per worker process: ceil(n / worker_count(threads, n))
    items each, the last one shorter, none when n < 1.  threads < 1
    raises ParameterError."""
    workers = worker_count(threads, n)
    return chunk_indices(n, max(1, -(-n // workers)))


def deterministic_map(
    fn: Callable[[T], R], items: Sequence[T], threads: int = 1
) -> list[R]:
    """Map fn over items, returning results in input order."""
    runs = worker_runs(len(items), threads)
    if len(runs) <= 1:
        return [fn(it) for it in items]
    children = {}  # run index -> (pid, read end of its pipe)
    try:
        for j in range(1, len(runs)):
            children[j] = _fork(fn, [items[i] for i in runs[j]])
        results = [fn(items[i]) for i in runs[0]]
        for j in range(1, len(runs)):
            pid, pipe = children[j]
            payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[j]
            pipe.close()
            results.extend(_unpack(payload, status, runs[j]))
        return results
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker."""


def _fork(fn: Callable, items: list):
    """Start one child mapping fn over items; returns its pid and the read
    end of its pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                payload = pickle.dumps((True, [fn(it) for it in items], None))
            except BaseException as exc:  # noqa: BLE001 - reported to the parent
                trace = traceback.format_exc()
                try:
                    payload = pickle.dumps((False, exc, trace))
                    pickle.loads(payload)
                except Exception:  # noqa: BLE001 - an exception that does not round-trip
                    error = RuntimeError(f"{type(exc).__name__}: {exc}")
                    payload = pickle.dumps((False, error, trace))
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _unpack(payload: bytes, status: int, run: range) -> list:
    """A child's results, or its exception raised here."""
    try:
        ok, value, trace = pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):  # empty or cut short: no result came
        named = f"item {run.start}" if len(run) == 1 else f"items {run.start} to {run[-1]}"
        raise RuntimeError(
            f"the worker process for {named} exited without a result "
            f"(exit code {os.waitstatus_to_exitcode(status)})"
        ) from None
    if not ok:
        raise value from WorkerTraceback(trace)
    return value


def chunk_indices(n: int, chunk: int) -> list[range]:
    """Split range(n) into consecutive chunks of fixed size."""
    return [range(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
