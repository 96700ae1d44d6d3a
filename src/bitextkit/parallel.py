"""Order-preserving lazy parallel map used by the data-parallel stages.

Workers must not change any result: the mapped functions are pure, and
``parallel_map`` yields results in input order, so output is identical
for any worker count. It reads its input only a bounded number of items
ahead of the results taken, so a caller that streams its input and
consumes results as they come holds a bounded part of it.

``multiprocessing`` is imported only when a pool runs: most invocations
map in-process, and the import would add to every command's start-up.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .corpus_io import batched

# Items handed to the pool at a time, per process. Two such windows are in
# flight: the workers run one while the caller takes the other's results.
_WINDOW_PER_PROCESS = 4


def parallel_map(
    fn: Callable,
    items: Iterable,
    workers: int = 1,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> Iterator:
    """Map ``fn`` over ``items`` lazily, in-process when ``workers <= 1``.

    ``items`` must have a length, which sizes the pool: it starts at most
    one process per item, since more would sit idle. ``items`` is read as
    the results are taken: in-process one item at a time, with a pool at
    most two windows of ``_WINDOW_PER_PROCESS`` items per process ahead.
    The pool ends when the results run out, when a mapped call raises, or
    when the generator is closed or dropped.
    """
    if workers <= 1 or len(items) <= 1:
        if initializer is not None:
            initializer(*initargs)
        yield from map(fn, items)
        return
    import multiprocessing

    processes = min(workers, len(items))
    with multiprocessing.Pool(processes, initializer=initializer, initargs=initargs) as pool:
        windows = (pool.imap(fn, window) for window in batched(items, _WINDOW_PER_PROCESS * processes))
        running = next(windows, ())
        for upcoming in windows:
            yield from running
            running = upcoming
        yield from running
