"""Order-preserving parallel map used by the data-parallel stages.

Workers must not change any result: the mapped functions are pure, and
``parallel_map`` returns results in input order, so output is identical
for any worker count.

``multiprocessing`` is imported only when a pool runs: most invocations
map in-process, and the import would add to every command's start-up.
"""

from __future__ import annotations

from typing import Callable, Sequence

_MAX_CHUNKSIZE = 256


def parallel_map(
    fn: Callable,
    items: Sequence,
    workers: int = 1,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> list:
    """Map ``fn`` over ``items``, in-process when ``workers <= 1``. A pool
    starts at most one process per item, since more would sit idle."""
    if workers <= 1 or len(items) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in items]
    import multiprocessing

    processes = min(workers, len(items))
    # about four tasks per worker, so that few items still spread over all
    chunksize = min(_MAX_CHUNKSIZE, -(-len(items) // (4 * processes)))
    with multiprocessing.Pool(processes, initializer=initializer, initargs=initargs) as pool:
        return list(pool.imap(fn, items, chunksize=chunksize))
