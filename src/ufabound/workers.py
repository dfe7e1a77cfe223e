"""Independent work in forked worker processes, returned as JSON lines.

Two entry points share one protocol.  :func:`ordered_map` splits its
items into contiguous shares, one per CPU this process may run on,
computes the first share itself and every other share in an ``os.fork``
child, and yields the results in item order.  :func:`beside` forks one
child for one call while the calling process goes on with other work.
The work they serve is pure Python, which holds the interpreter lock, so
threads would only take turns.  Importing :mod:`multiprocessing.pool`
or :mod:`concurrent.futures.process` alone raises the CLI's peak memory
by 1.0 or 1.4 MB, and both pickle the function and its arguments.  A
forked child already holds the function and every module
it needs, and it sends back only JSON lines through a pipe.

A child buffers its whole share and writes it once, at the end: written
line by line, a share past the pipe's buffer would wait for the parent,
which reads it only after its own work.  Every child leaves through
``os._exit``, so it never returns into its caller's stack, and every
child is killed if still running and reaped before the map or the
``with`` block ends, on every path out of it.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Callable, Iterable, Iterator, Sequence

# fork, exit and reaping cost 3-4 ms at the CLI's 30 MB, and a child's
# first writes to the memory it shares cost more, against about 0.35 ms
# per three-state schmidt instance checked in blocks: in fresh CLI runs,
# two shares first beat one near 48 instances (16 and 32 ran faster on one)
MIN_SHARE = 24
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


def _cpu() -> int | None:
    """The CPU this process runs on, where Linux's /proc says it, else None."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # field 39; those after the command name, which may hold spaces
            # and parentheses, begin at field 3
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _stops(result: dict) -> bool:
    return not result["ok"]


def _start(fn: Callable, share: Sequence) -> tuple:
    """Fork a child that computes ``fn(share)``; its pid and the pipe to read.

    The child keeps off the CPU this process is on when it forks, where the
    system says which one that is.
    """
    here = _cpu()
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
        # Linux may leave a fresh child on its parent's CPU for the whole of
        # its work, the two taking turns while another CPU idles: on a
        # 2-vCPU VM, verify --n 3 --level full took 108-119 ms so, 60-65 ms
        # with the child moved
        try:
            os.sched_setaffinity(0, os.sched_getaffinity(0) - {here})
        except (AttributeError, OSError):
            pass
        lines = []
        try:
            for result in fn(share):
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


def _reap(pid: int, r: int) -> tuple:
    """A child's exit status and everything it wrote, once it has ended."""
    chunks = []
    while chunk := os.read(r, 1 << 16):
        chunks.append(chunk)
    status = os.waitpid(pid, 0)[1]
    os.close(r)
    return status, b"".join(chunks)


def _kill(running: list) -> None:
    """Kill and reap every child of ``running``, entries (pid, read end, ...)."""
    for pid, r, *_ in running:
        os.close(r)
        os.kill(pid, _SIGKILL)
        os.waitpid(pid, 0)


def _results(status: int, data: bytes, share: Sequence, where: str = "") -> Iterator[dict]:
    """A reaped child's results, then the error it reported, if any."""
    code = os.waitstatus_to_exitcode(status)
    where = where or f"the worker on items {share[0]!r}..{share[-1]!r}"
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


def ordered_map(fn: Callable[[Sequence], Iterable[dict]], items: Sequence) -> Iterator[dict]:
    """Yield the result of each item, in order, computed on every CPU.

    ``fn`` of a contiguous share of the items yields one JSON object per
    item, in order, each with an ``"ok"`` member; the first result whose
    ``"ok"`` is false is the last one yielded, and ``fn`` is asked for no
    more after it.  The items are split into contiguous shares of at least
    :data:`MIN_SHARE` items, one per CPU; with one share, or where there
    is no ``os.fork``, every item is computed here.  The first share's
    results are yielded as they are computed, each other share's once its
    child has finished; the children keep off the CPU this process is on.  An exception in a child's share is
    raised here as a :class:`ChildProcessError` after the results before
    it, and so is a child that dies or returns too few results.
    """
    parts = max(1, min(_cpus(), len(items) // MIN_SHARE)) if hasattr(os, "fork") else 1
    cuts = [len(items) * k // parts for k in range(parts + 1)]
    shares = [items[cuts[k]:cuts[k + 1]] for k in range(parts)]
    running = []  # (pid, read end, share) of each child not yet reaped
    try:
        for share in shares[1:]:
            running.append((*_start(fn, share), share))
        for result in fn(shares[0]):
            yield result
            if _stops(result):
                return
        while running:
            pid, r, share = running[0]
            status, data = _reap(pid, r)
            running.pop(0)
            for result in _results(status, data, share):
                yield result
                if _stops(result):
                    return
    finally:
        _kill(running)


@contextlib.contextmanager
def beside(fn: Callable[[], dict]) -> Iterator[Callable[[], dict]]:
    """Compute ``fn()`` in a forked child while the ``with`` body runs.

    ``fn`` returns a JSON object with an ``"ok"`` member.  The block gets a
    function to call once, which returns that object: it waits for the
    child and reads what the child sent.  With one CPU, or where there is
    no ``os.fork``, nothing is forked and that function calls ``fn``
    itself.  The child keeps off the CPU this process is on when it forks,
    where the system says which one that is.  An exception in the child is
    raised there as a :class:`ChildProcessError`, and so is a child that
    dies.  The child is killed if still running and reaped when the block
    ends, however it ends.
    """
    if _cpus() < 2 or not hasattr(os, "fork"):
        yield fn
        return
    share = (None,)
    running = []  # (pid, read end) of the child until it is reaped

    def result() -> dict:
        pid, r = running[0]
        status, data = _reap(pid, r)
        running.pop()
        [out] = _results(status, data, share, "the worker beside this process")
        return out

    try:
        running.append(_start(lambda _: [fn()], share))
        yield result
    finally:
        _kill(running)
