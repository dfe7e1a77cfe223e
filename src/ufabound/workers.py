"""Ordered fan-out of independent items over forked worker processes.

:func:`ordered_map` splits its items into contiguous shares, one per CPU
this process may run on, computes the first share itself and every other
share in an ``os.fork`` child, and yields the results in item order.  The
work it serves is pure Python, which holds the interpreter lock, so
threads would only take turns.  Importing :mod:`multiprocessing.pool`
or :mod:`concurrent.futures.process` alone raises the CLI's peak memory
by 1.0 or 1.4 MB, and both pickle the function and its arguments.  A
forked child already holds the function and every module
it needs, and it sends back only JSON lines through a pipe.

A child buffers its whole share and writes it once, at the end: written
line by line, a share past the pipe's buffer would wait for the parent,
which reads it only after its own share.  Every child leaves through
``os._exit``, so it never returns into its caller's stack, and every
child is killed if still running and reaped before the map ends, on
every path out of it.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterator, Sequence

# fork, exit and reaping cost 1-2 ms at the CLI's 30 MB, against about
# 0.5 ms per three-state schmidt instance: a share of this many items
# does several times the work its child costs
MIN_SHARE = 8
# os names no signals; POSIX numbers SIGKILL 9
_SIGKILL = 9
# a child's exit status: its share written in full, or up to an exception
# whose text is the last line, or nothing usable (say, on an interrupt)
_DONE, _RAISED, _LOST = 0, 1, 2


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _stops(result: dict) -> bool:
    return not result["ok"]


def _start(fn: Callable, share: Sequence) -> tuple:
    """Fork a child that computes ``share``; its pid and the pipe to read."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    status = _LOST
    try:
        os.close(r)
        lines = []
        try:
            for item in share:
                result = fn(item)
                lines.append(json.dumps(result))
                if _stops(result):
                    break
            end = _DONE
        except Exception as e:
            lines.append(json.dumps(f"{type(e).__name__}: {e}"))
            end = _RAISED
        data = "".join(line + "\n" for line in lines).encode()
        while data:
            data = data[os.write(w, data):]
        status = end
    finally:
        os._exit(status)


def _results(status: int, data: bytes, share: Sequence) -> Iterator[dict]:
    """A reaped child's results, then the error it reported, if any."""
    code = os.waitstatus_to_exitcode(status)
    where = f"the worker on items {share[0]!r}..{share[-1]!r}"
    if code not in (_DONE, _RAISED):
        raise ChildProcessError(f"{where} ended with status {code}")
    lines = data.decode().splitlines()
    error = json.loads(lines.pop()) if code == _RAISED else None
    results = [json.loads(line) for line in lines]
    yield from results
    if error is not None:
        raise ChildProcessError(f"{where} raised {error}")
    if len(results) != len(share) and not (results and _stops(results[-1])):
        raise ChildProcessError(f"{where} returned {len(results)} of {len(share)} results")


def ordered_map(fn: Callable[..., dict], items: Sequence) -> Iterator[dict]:
    """Yield ``fn(item)`` for each item, in order, computed on every CPU.

    ``fn`` returns a JSON object with an ``"ok"`` member; the first result
    whose ``"ok"`` is false is the last one yielded.  The items are split
    into contiguous shares of at least :data:`MIN_SHARE` items, one per CPU;
    with one share, or where there is no ``os.fork``, every item is
    computed here.  The first share's results are yielded as they are
    computed, each other share's once its child has finished.  An
    exception in a child's share is raised here as a
    :class:`ChildProcessError` after the results before it, and so is a
    child that dies or returns too few results.
    """
    parts = max(1, min(_cpus(), len(items) // MIN_SHARE)) if hasattr(os, "fork") else 1
    cuts = [len(items) * k // parts for k in range(parts + 1)]
    shares = [items[cuts[k]:cuts[k + 1]] for k in range(parts)]
    running = []  # (pid, read end, share) of each child not yet reaped
    try:
        for share in shares[1:]:
            running.append((*_start(fn, share), share))
        for item in shares[0]:
            result = fn(item)
            yield result
            if _stops(result):
                return
        while running:
            pid, r, share = running[0]
            chunks = []
            while chunk := os.read(r, 1 << 16):
                chunks.append(chunk)
            status = os.waitpid(pid, 0)[1]
            os.close(r)
            running.pop(0)
            for result in _results(status, b"".join(chunks), share):
                yield result
                if _stops(result):
                    return
    finally:
        for pid, r, _ in running:
            os.close(r)
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
