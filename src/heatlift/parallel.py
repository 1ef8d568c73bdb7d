"""Deterministic parallel mapping.

Work items are dispatched to a thread pool but results are always
collected in input order, and any reduction happens sequentially over
that ordered list.  Output is therefore bit-identical for a fixed
partitioning regardless of scheduling.  A partition may follow the
thread count only where each result is independent of it:
ldp.tail_probability hands each worker one contiguous run of replicas
(chunk_indices) so that the worker can reuse its buffers, and every
replica's distance has the same bits in any run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def deterministic_map(
    fn: Callable[[T], R], items: Sequence[T], threads: int = 1
) -> list[R]:
    """Map fn over items, returning results in input order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def chunk_indices(n: int, chunk: int) -> list[range]:
    """Split range(n) into consecutive chunks of fixed size."""
    return [range(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
