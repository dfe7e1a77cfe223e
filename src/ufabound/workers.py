"""Independent work in forked worker processes, returned as JSON lines.

One primitive forks: :func:`beside` computes a share of items in an
``os.fork`` child while the calling process goes on with other work, or
here when the share is too small to pay for a fork.  :func:`ordered_map`
splits its items into contiguous shares, one per CPU this process may run
on, computes the first share itself and every other one beside it, and
yields the results in item order.  The work they serve is pure Python,
which holds the interpreter lock, so threads would only take turns.
Importing :mod:`multiprocessing.pool` or :mod:`concurrent.futures.process`
alone raises the CLI's peak memory by 1.0 or 1.4 MB, and both pickle the
function and its arguments.  A forked child already holds the function
and every module it needs, and it sends back only JSON lines through a
pipe.

A child buffers its whole share and writes it once, at the end: written
line by line, a share past the pipe's buffer would wait for the parent,
which reads it only after its own work.  Every child leaves through
``os._exit``, so it never returns into its caller's stack, and every
child is killed if still running and reaped before its ``with`` block
ends, on every path out of it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from typing import Callable, Iterable, Iterator, Sequence

# fork, exit and reaping cost 3-4 ms at the CLI's 30 MB, and a child's
# first writes to the memory it shares cost more, against 0.3-0.45 ms per
# three-state schmidt instance checked in blocks of 12 (cli.main's own time
# on 2 shared cores): in fresh CLI runs, two shares first beat one near
# 48 instances (24 and 32 ran faster on one, 40 and 48 about even, 64 faster
# on two).  verify's random check forks by it too: its 10 quick instances
# were measured not to pay, its 50 full ones to pay at n = 3 (168 against
# 183 ms); the break-even between is unmeasured
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


def _upto_failure(results: Iterable[dict]) -> Iterator[dict]:
    """``results`` up to and including the first whose ``"ok"`` is false."""
    for result in results:
        yield result
        if _stops(result):
            return


def _start(fn: Callable, share: Sequence) -> tuple:
    """Fork a child that computes ``fn(share)`` off the CPU this process is
    on, where the system says which one that is; its pid and the pipe to read."""
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
            for result in _upto_failure(fn(share)):
                lines.append(json.dumps(result))
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


@contextlib.contextmanager
def beside(fn: Callable[[Sequence], Iterable[dict]],
           items: Sequence) -> Iterator[Callable[[], Iterator[dict]]]:
    """Compute ``fn(items)`` in a forked child while the ``with`` body runs.

    ``fn`` of the items yields one JSON object per item, in order, each
    with an ``"ok"`` member, and is asked for none after the first whose
    ``"ok"`` is false.  The block gets a function to call once, which waits
    for the child and returns an iterator of its results.  Fewer than
    :data:`MIN_SHARE` items, one CPU or no ``os.fork`` are not worth a
    child: then that function computes ``fn(items)`` here, as its results
    are asked for.  An exception in the child is raised here as a
    :class:`ChildProcessError` after the results before it, and so is a
    child that dies or returns too few.  The child is killed if still
    running and reaped when the block ends, however it ends.
    """
    if len(items) < MIN_SHARE or _cpus() < 2 or not hasattr(os, "fork"):
        yield lambda: _upto_failure(fn(items))
        return
    running = [_start(fn, items)]  # (pid, read end) of the child until it is reaped

    def results() -> Iterator[dict]:
        pid, r = running[0]
        chunks = []
        while chunk := os.read(r, 1 << 16):
            chunks.append(chunk)
        status = os.waitpid(pid, 0)[1]
        running.clear()
        os.close(r)
        return _results(status, b"".join(chunks), items)

    try:
        yield results
    finally:
        for pid, r in running:
            os.close(r)
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)


def ordered_map(fn: Callable[[Sequence], Iterable[dict]], items: Sequence) -> Iterator[dict]:
    """Yield the result of each item, in order, computed on every CPU.

    ``fn`` is as for :func:`beside`.  The items are split into contiguous
    shares of at least :data:`MIN_SHARE` items, one per CPU: the first is
    computed here, as its results are yielded, and every other one
    :func:`beside` it.  The first result whose ``"ok"`` is false is the
    last one yielded, and an error in a share is raised after the results
    before it.
    """
    parts = max(1, min(_cpus(), len(items) // MIN_SHARE))
    cuts = [len(items) * k // parts for k in range(parts + 1)]
    shares = [items[cuts[k]:cuts[k + 1]] for k in range(parts)]
    with contextlib.ExitStack() as stack:
        later = [stack.enter_context(beside(fn, share)) for share in shares[1:]]
        yield from _upto_failure(itertools.chain.from_iterable(
            results() for results in [lambda: fn(shares[0]), *later]))
