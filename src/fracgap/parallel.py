"""Independent tasks spread over forked worker processes.

`fork_map` is the one process pool of the package: the verification suite
runs its solves through it and the Monte Carlo walker its path ranges. The
calling process is one worker and each other worker a child forked from it,
so a child starts with the parent's modules, arguments and caches already in
memory and sends back only its pickled results. Each worker takes the next
task nobody has taken whenever it is free, so tasks of uneven cost still
balance. Where the platform has no fork start method every task runs in the
caller, one after another. `multiprocessing` is imported on the first
parallel call, not with the package.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Sequence

__all__ = ["usable_cores", "fork_map"]


def usable_cores(cgroup_root: str = "/sys/fs/cgroup") -> int:
    """The cores this process may keep busy: its CPU affinity, capped by a cgroup CPU quota.

    The quota counts in whole CPUs (at least one) and is read where a
    container sees its own cgroup: cpu.max (cgroup v2) or
    cpu/cpu.cfs_quota_us over cpu/cpu.cfs_period_us (v1) under cgroup_root.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    quota = _cpu_quota(cgroup_root)
    return cores if quota is None else max(1, min(cores, int(quota)))


def _cpu_quota(root: str) -> float | None:
    """CPUs per period the cgroup under root may use; None without a quota."""
    try:
        with open(os.path.join(root, "cpu.max")) as f:
            quota, period = f.read().split()[:2]
    except (OSError, ValueError):
        try:
            with open(os.path.join(root, "cpu", "cpu.cfs_quota_us")) as f:
                quota = f.read().strip()
            with open(os.path.join(root, "cpu", "cpu.cfs_period_us")) as f:
                period = f.read().strip()
        except OSError:
            return None
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max": no quota
        return None
    return quota_us / period_us if quota_us > 0 and period_us > 0 else None


def fork_map(fn: Callable, tasks: Sequence[tuple], workers: int) -> list:
    """[fn(*task) for task in tasks], spread over `workers` processes.

    The calling process is one worker and each other worker a forked child
    of it; every worker runs the lowest-numbered task not yet taken until
    none is left. An exception raised in a child is raised here, after the
    caller's own share. Every child has been joined when this returns or
    raises.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(*task) for task in tasks]
    ctx = multiprocessing.get_context("fork")
    taken = ctx.Value("q", 0)
    out: list = [None] * len(tasks)
    with _children(ctx, fn, tasks, taken, workers - 1) as conns:
        done = _take(fn, tasks, taken)
        for w, conn in enumerate(conns, start=1):
            try:
                ok, value = conn.recv()
            except EOFError:
                raise RuntimeError(f"worker {w} exited without sending its results") from None
            if not ok:
                raise value
            done += value
    for i, result in done:
        out[i] = result
    return out


def _take(fn: Callable, tasks: Sequence[tuple], taken) -> list[tuple[int, object]]:
    """Run the next untaken task until none is left; the (index, result) pairs in run order."""
    done = []
    while True:
        with taken.get_lock():
            i = taken.value
            taken.value = i + 1
        if i >= len(tasks):
            return done
        done.append((i, fn(*tasks[i])))


def _child_main(conn, fn: Callable, tasks: Sequence[tuple], taken) -> None:
    """A child's whole life: take tasks and send back (True, pairs) or (False, exception).

    An interrupt or exit in the child sends nothing; the parent reports the missing results.
    """
    try:
        reply = (True, _take(fn, tasks, taken))
    except Exception as exc:
        reply = (False, exc)
    try:
        conn.send(reply)
    except Exception as exc:  # an unpicklable result or exception
        conn.send((False, RuntimeError(f"worker could not send its results: {exc!r}")))
    conn.close()


@contextlib.contextmanager
def _children(ctx, fn: Callable, tasks: Sequence[tuple], taken, count: int):
    """Fork `count` children taking from `tasks`; yield the read ends of their result pipes.

    On the way out every child is joined; if the scope raised, the children
    are terminated first, so none outlives the call.
    """
    procs, conns = [], []
    try:
        for _ in range(count):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child_main, args=(send, fn, tasks, taken))
            proc.start()
            send.close()
            procs.append(proc)
            conns.append(recv)
        yield conns
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
