import dataclasses
import os
import signal
import time

import pytest

from ufabound import crossing, workers
from ufabound.cli import main


@pytest.fixture
def three_cpus(monkeypatch):
    """Shares of one item and up, over three CPUs: one share in this
    process and up to two forked workers, whatever the machine has."""
    monkeypatch.setattr(workers, "MIN_SHARE", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record(item):
    return {"item": item, "ok": item != 13, "pid": os.getpid()}


def each(fn):
    """``fn`` of one item as a function of a whole share."""
    return lambda share: map(fn, share)


def test_results_come_in_item_order_from_every_share(three_cpus):
    for count in (1, 2, 3, 7, 12):
        out = list(workers.ordered_map(each(record), range(100, 100 + count)))
        assert [r["item"] for r in out] == list(range(100, 100 + count))
        # contiguous shares, the first one computed here
        pids = [r["pid"] for r in out]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == min(count, 3)
        assert pids == sorted(pids, key=pids.index)
    assert_no_worker_left()


def test_shares_are_no_smaller_than_the_minimum(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    pids = {r["pid"] for r in workers.ordered_map(each(record), range(100, 100 + 3 * workers.MIN_SHARE))}
    assert len(pids) == 3
    pids = {r["pid"] for r in workers.ordered_map(each(record), range(100, 99 + 2 * workers.MIN_SHARE))}
    assert pids == {os.getpid()}
    assert_no_worker_left()


def test_without_fork_every_item_is_computed_here(three_cpus, monkeypatch):
    monkeypatch.delattr(os, "fork")
    out = list(workers.ordered_map(each(record), range(20, 29)))
    assert [r["item"] for r in out] == list(range(20, 29))
    assert {r["pid"] for r in out} == {os.getpid()}


def test_a_failed_fork_computes_every_share_here(three_cpus, refused_forks):
    out = list(workers.ordered_map(each(record), range(20, 29)))
    assert refused_forks == [1, 1]  # both workers' shares
    assert [r["item"] for r in out] == list(range(20, 29))
    assert {r["pid"] for r in out} == {os.getpid()}
    out = list(workers.ordered_map(each(record), range(4, 16)))
    assert [r["item"] for r in out] == list(range(4, 16))
    assert [r["item"] for r in out if not r["ok"]] == [13]


@pytest.mark.parametrize("items", [range(10, 16), range(4, 16)])
def test_every_result_is_yielded_the_failing_one_too(three_cpus, items):
    # item 13 fails in this process's share, then in a worker's: the map
    # reads no result, so it goes on past it
    out = list(workers.ordered_map(each(record), items))
    assert [r["item"] for r in out] == list(items)
    assert [r["item"] for r in out if not r["ok"]] == [13]
    assert_no_worker_left()


def test_plain_values_come_back_from_a_worker(three_cpus):
    me = os.getpid()
    out = list(workers.ordered_map(each(lambda item: item if os.getpid() == me else -item),
                                   range(9)))
    assert out == [0, 1, 2, -3, -4, -5, -6, -7, -8]
    assert_no_worker_left()


def test_a_worker_exception_is_raised_after_the_results_before_it(three_cpus):
    def raising(item):
        if item == 5:
            raise ValueError("no item 5")
        return record(item)

    got = []
    with pytest.raises(ChildProcessError,
                       match=r"the worker on items 3..5 raised ValueError: no item 5"):
        for r in workers.ordered_map(each(raising), range(9)):
            got.append(r["item"])
    assert got == [0, 1, 2, 3, 4]
    assert_no_worker_left()


def interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("end,status", [
    (lambda: os._exit(5), "status 5"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"status {-signal.SIGKILL}"),
    (interrupt, "status 2")])
def test_a_worker_that_dies_fails_the_map(three_cpus, end, status):
    me = os.getpid()

    def dying(item):
        if item == 4:
            end()
        return record(item)

    try:
        got = []
        with pytest.raises(ChildProcessError, match=f"items 3..5 ended with {status}"):
            for r in workers.ordered_map(each(dying), range(9)):
                got.append(r["item"])
        assert got == [0, 1, 2]
    finally:
        if os.getpid() != me:  # a worker that came back here: never run the suite twice
            os._exit(99)
    assert_no_worker_left()


def test_a_worker_that_returns_too_few_results_fails_the_map():
    with pytest.raises(ChildProcessError, match="returned 1 of 3 results"):
        list(workers._results(0, b'[[{"ok": true}], null]', range(3)))


def test_workers_are_killed_when_this_process_stops_early(three_cpus):
    me = os.getpid()

    def slow(item):
        if os.getpid() != me:
            time.sleep(60)
        elif item == 1:
            raise KeyboardInterrupt
        return record(item)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        list(workers.ordered_map(each(slow), range(6)))
    assert_no_worker_left()
    out = workers.ordered_map(each(slow), range(6))
    assert next(out)["item"] == 0
    out.close()
    assert_no_worker_left()
    assert time.monotonic() - start < 30


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to move a worker between")
def test_map_workers_move_off_this_process_cpu(monkeypatch):
    cpus = os.sched_getaffinity(0)
    here = min(cpus)
    monkeypatch.setattr(workers, "_cpu", lambda: here)
    monkeypatch.setattr(workers, "MIN_SHARE", 1)

    def cpus_record(item):
        return {"ok": True, "pid": os.getpid(), "cpus": sorted(os.sched_getaffinity(0))}

    # at most four shares, one here and up to three forked workers
    out = list(workers.ordered_map(each(cpus_record), range(4)))
    assert {tuple(r["cpus"]) for r in out if r["pid"] != os.getpid()} == {
        tuple(sorted(cpus - {here}))}
    assert len({r["pid"] for r in out}) == min(len(cpus), 4)
    assert os.sched_getaffinity(0) == cpus
    assert_no_worker_left()


# ---------------------------------------------------------------------------
# one share beside the calling process

@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs: beside forks for a share of any size."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def pid_records(share):
    return [{"item": item, "ok": True, "pid": os.getpid()} for item in share]


def test_beside_returns_what_fn_returns_from_a_worker(two_cpus):
    def fn(share):
        return [{"ok": True, "detail": "ä ∅", "sizes": [1, 7, 115]},
                {"ok": False, "item": share[1]}]

    with workers.beside(fn, [3, 4]) as results:
        assert list(results()) == fn([3, 4])
    with workers.beside(pid_records, [3]) as results:
        assert [r["pid"] != os.getpid() for r in results()] == [True]
    assert_no_worker_left()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to move a worker between")
def test_beside_moves_its_worker_off_this_process_cpu(monkeypatch):
    cpus = os.sched_getaffinity(0)
    assert workers._cpu() in cpus
    here = min(cpus)
    monkeypatch.setattr(workers, "_cpu", lambda: here)

    def cpus_records(share):
        return [{"ok": True, "cpus": sorted(os.sched_getaffinity(0))} for _ in share]

    with workers.beside(cpus_records, [0]) as results:
        assert [r["cpus"] for r in results()] == [sorted(cpus - {here})]
    assert os.sched_getaffinity(0) == cpus
    assert_no_worker_left()


def test_beside_moves_its_worker_as_soon_as_it_exists(two_cpus, monkeypatch):
    # this process moves the worker off its CPU right after the fork, so the
    # worker need not first run here to move itself
    moved = []
    monkeypatch.setattr(workers, "_cpu", lambda: 0)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: moved.append((pid, cpus)))
    with workers.beside(pid_records, [3]) as results:
        [r] = results()
    assert moved == [(r["pid"], {1})]
    assert_no_worker_left()


def test_beside_forks_nothing_with_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
    with workers.beside(pid_records, [3, 4]) as results:
        assert list(results()) == pid_records([3, 4])
    assert_no_worker_left()


def test_beside_computes_here_when_its_fork_fails(two_cpus, refused_forks):
    with workers.beside(pid_records, [3, 4]) as results:
        assert list(results()) == pid_records([3, 4])
    assert refused_forks == [1]
    assert_no_worker_left()


def test_beside_forks_nothing_for_no_items(two_cpus, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for no items"))
    with workers.beside(pid_records, []) as results:
        assert list(results()) == []


def test_beside_raises_a_worker_exception(two_cpus):
    def raising(share):
        yield {"ok": True}
        raise ValueError("no result")

    with workers.beside(raising, [7, 8]) as results:
        got = []
        with pytest.raises(ChildProcessError,
                           match="the worker on items 7..8 raised ValueError: no result"):
            for r in results():
                got.append(r)
        assert got == [{"ok": True}]
    assert_no_worker_left()


@pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt])
def test_beside_kills_its_worker_when_the_block_stops_early(two_cpus, stop):
    me = os.getpid()

    def slow(share):
        if os.getpid() != me:
            time.sleep(60)
        return pid_records(share)

    start = time.monotonic()
    with pytest.raises(stop):
        with workers.beside(slow, [0]):
            raise stop
    assert_no_worker_left()
    assert time.monotonic() - start < 30


# ---------------------------------------------------------------------------
# schmidt's random mode through the workers

def schmidt(capsys, count, seed=40):
    code = main(["schmidt", "--random", str(count), "--states", "3", "--seed", str(seed)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def serial_schmidt(capsys, monkeypatch, count, seed=40):
    # one share, all computed here
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        return schmidt(capsys, count, seed)


@pytest.mark.parametrize("count", [1, 2, 3, 7, 300])
def test_schmidt_random_prints_the_serial_bytes(capsys, monkeypatch, three_cpus, count):
    assert schmidt(capsys, count) == serial_schmidt(capsys, monkeypatch, count)
    assert_no_worker_left()


def test_schmidt_random_prints_the_serial_bytes_when_its_forks_fail(
        capsys, monkeypatch, three_cpus, refused_forks):
    code, out, err = schmidt(capsys, 60)
    assert refused_forks and code == 0 and err == ""
    assert (code, out, err) == serial_schmidt(capsys, monkeypatch, 60)


def fail_at(monkeypatch, bad_seed, error=None):
    real = crossing._report

    def patched(a, xs, ys, found, seed, shared):
        if seed == bad_seed and error is not None:
            raise error
        report = real(a, xs, ys, found, seed, shared)
        return dataclasses.replace(report, ok=False) if seed == bad_seed else report

    monkeypatch.setattr(crossing, "_report", patched)


@pytest.mark.parametrize("bad", [45, 65])
def test_schmidt_random_stops_at_the_first_failure(capsys, monkeypatch, three_cpus, bad):
    # seeds 40..69 in shares 40..49 here, 50..59 and 60..69 in workers
    fail_at(monkeypatch, bad)
    code, out, err = schmidt(capsys, 30)
    assert (code, out, err) == serial_schmidt(capsys, monkeypatch, 30)
    lines = out.splitlines()
    assert code == 1 and len(lines) == bad - 40 + 1 and '"ok": false' in lines[-1]
    assert all('"ok": true' in line for line in lines[:-1])
    assert_no_worker_left()


def test_schmidt_random_stops_here_without_waiting_for_its_workers(
        capsys, monkeypatch, three_cpus):
    # seed 45 fails in this process's share, while the workers on 50..59 and
    # 60..69 would take a minute: they are killed and reaped instead
    me = os.getpid()
    fail_at(monkeypatch, 45)
    failing = crossing._report

    def slow(*args):
        if os.getpid() != me:
            time.sleep(60)
        return failing(*args)

    monkeypatch.setattr(crossing, "_report", slow)
    start = time.monotonic()
    code, out, err = schmidt(capsys, 30)
    assert time.monotonic() - start < 30
    assert_no_worker_left()
    assert code == 1 and len(out.splitlines()) == 6 and '"ok": false' in out.splitlines()[-1]
    assert (code, out, err) == serial_schmidt(capsys, monkeypatch, 30)


def test_schmidt_random_reports_a_worker_exception(capsys, monkeypatch, three_cpus):
    fail_at(monkeypatch, 55, RuntimeError("boom"))
    code, out, err = schmidt(capsys, 30)
    assert code == 2
    assert err == "error: the worker on items 50..59 raised RuntimeError: boom\n"
    assert len(out.splitlines()) == 15 and '"ok": false' not in out
    assert not any(line.startswith("bound ") for line in out.splitlines())
    assert_no_worker_left()
    with pytest.raises(RuntimeError, match="boom"):
        serial_schmidt(capsys, monkeypatch, 30)
    assert capsys.readouterr().out == out
