"""A sweep's independent entries computed side by side in forked processes.

:func:`worker_count` sizes the pool from the CPUs this process may use and
the memory a run needs, and :func:`in_order` runs it: this process computes
the first entry, every later one is taken by whichever process is free
first, and the results come back in entry order, each failure at its
entry's turn.  Only ``os.fork``, pipes and ``select`` are used: no thread
and no :mod:`multiprocessing`, so a worker starts as a copy of this process,
with its imports and its one BLAS thread.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Iterator, Sequence, TypeVar

from . import stepper

Entry = TypeVar("Entry")
Result = TypeVar("Result")


def worker_count(entries: int, largest_run: Callable[[], int]) -> int:
    """How many processes compute a sweep of ``entries`` independent entries:
    at most one per entry and per CPU this process may use, and at most as
    many as physical memory holds of the sweep's largest run, whose bytes
    ``largest_run`` gives by the preflight's estimate.  One without
    ``os.fork`` or ``os.sched_getaffinity``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    workers = min(entries, len(os.sched_getaffinity(0)))
    if workers > 1:
        workers = min(workers, stepper.physical_memory_bytes() // largest_run())
    return max(workers, 1)


def in_order(compute: Callable[[Entry], Result], entries: Sequence[Entry],
             workers: int) -> Iterator[Result]:
    """Yield ``compute(entry)`` for each of ``entries``, in their order,
    computed in ``workers`` processes, each entry by whichever is free.  The
    indices of entries 2, 3, ..., 4 bytes each, are written into one pipe in
    one write (atomic up to 1024 entries), and W - 1 workers are forked; this
    process then computes entry 1, and every process reads the next index
    from that pipe whenever it is idle.  A worker writes the index it took
    onto its own pipe, then the pickled result, or the exception that ended
    it, led by its length.  When the next entry in order is not ready, this
    process computes another untaken entry before it waits on the workers.
    An exception is raised when its entry's turn comes, from either process;
    a worker that ends without its result raises :class:`MemoryError` naming
    the entry it held and the worker's wait status.  The workers are killed
    and reaped on every exit."""
    done: dict[int, tuple[bool, object]] = {}  # index -> (ok, result or exception)
    held: dict[int, list] = {}  # read end of a worker's pipe -> [pid, the index it holds]
    queue = None
    try:
        if workers > 1:
            queue, write = os.pipe()
            os.write(write, b"".join(i.to_bytes(4, "little") for i in range(1, len(entries))))
            os.close(write)
        for _ in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()  # one thread: the package loads numpy with one BLAS thread
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:  # the worker: it never returns to the frames it was forked from
                try:
                    os.close(read)
                    for fd in held:
                        os.close(fd)
                    with open(write, "wb") as out:
                        while index := os.read(queue, 4):
                            out.write(index)
                            out.flush()
                            outcome = _attempt(compute, entries[_index(index)])
                            data = pickle.dumps(outcome)
                            out.write(len(data).to_bytes(8, "little") + data)
                            out.flush()
                            if not outcome[0]:
                                break
                finally:
                    os._exit(0)
            os.close(write)
            held[read] = [pid, None]
        for i in range(len(entries)):
            while i not in done:
                if held and _receive(held, done, entries, 0.0):  # what the workers sent so far
                    continue
                j = _index(os.read(queue, 4)) if i and queue is not None else i
                if j is not None:
                    done[j] = _attempt(compute, entries[j])
                elif not (held and _receive(held, done, entries, None)):  # no worker is left
                    raise MemoryError(f"sweep entry {i + 1} {entries[i]} has no result: "
                                      "a worker process took it and ended")
            if not done[i][0]:
                raise done.pop(i)[1]
            yield done.pop(i)[1]
    finally:
        if queue is not None:
            os.close(queue)
        if held:
            import signal  # loaded only where a sweep has forked

            for fd, (pid, _) in held.items():
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _index(data: bytes) -> int | None:
    """The index of 4 bytes read from :func:`in_order`'s pipe, None once it is empty."""
    return int.from_bytes(data, "little") if data else None


def _attempt(compute: Callable[[Entry], Result], entry: Entry) -> tuple[bool, object]:
    """(True, compute(entry)), or (False, the exception it raised)."""
    try:
        return True, compute(entry)
    except Exception as exc:
        return False, exc


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes from a pipe; :class:`EOFError` if it ends first."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _receive(held: dict[int, list], done: dict[int, tuple[bool, object]],
             entries: Sequence, timeout: float | None) -> bool:
    """Read the next message of each worker pipe of ``held`` that is ready
    within ``timeout`` (None: until one is): the index a worker took, into
    ``held``, or the outcome of the one it holds, into ``done``.  Exact
    reads leave what follows to ``select``.  A worker that has ended is
    reaped and dropped, and the entry it held gets a :class:`MemoryError`.
    False if none was ready."""
    import select  # loaded only where a sweep has forked

    ready = select.select(list(held), [], [], timeout)[0]
    for fd in ready:
        pid, index = held[fd]
        try:
            if index is None:
                held[fd][1] = _index(_read(fd, 4))
            else:
                done[index] = pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))
                held[fd][1] = None
        except EOFError:
            del held[fd]
            os.close(fd)
            status = os.waitpid(pid, 0)[1]
            if index is not None:
                done[index] = False, MemoryError(
                    f"sweep entry {index + 1} {entries[index]} has no result: its worker "
                    f"process ended with wait status {status}"
                )
    return bool(ready)
