import multiprocessing
import os
import time

import pytest

from fracgap.parallel import fork_map, usable_cores


def _square_and_pid(x):
    return x * x, os.getpid()


def _fail_on(x, bad):
    if x == bad:
        raise KeyError(f"task {x}")
    return x


def _sleep(seconds):
    time.sleep(seconds)
    return seconds, os.getpid()


def _sleep_in_children(parent):
    if os.getpid() == parent:
        raise TypeError("a task of the calling process")
    time.sleep(60.0)


def test_usable_cores_is_positive():
    assert 1 <= usable_cores() <= (os.cpu_count() or 1)


@pytest.mark.parametrize(
    "files, cap",
    [
        ({"cpu.max": "150000 100000\n"}, 1),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "max 100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({}, None),
    ],
    ids=["v2-1.5", "v2-0.5", "v2-max", "v1-2.5", "v1-none", "no-cgroup"],
)
def test_usable_cores_obeys_a_cgroup_quota(tmp_path, files, cap):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    cores = usable_cores(str(tmp_path / "none"))
    assert usable_cores(str(tmp_path)) == (cores if cap is None else min(cores, cap))


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_fork_map_keeps_task_order(workers):
    out = fork_map(_square_and_pid, [(x,) for x in range(7)], workers)
    assert [v for v, _ in out] == [x * x for x in range(7)]
    assert len({pid for _, pid in out}) <= min(workers, 7)
    assert multiprocessing.active_children() == []


def test_fork_map_hands_each_task_to_the_next_free_worker():
    # while one worker sleeps through the long task the other takes every short one
    start = time.perf_counter()
    out = fork_map(_sleep, [(1.0,), (0.1,), (0.1,), (0.1,), (0.1,)], 2)
    assert time.perf_counter() - start < 1.35
    pids = [pid for _, pid in out]
    assert len(set(pids)) == 2
    assert pids[0] not in pids[1:]
    assert multiprocessing.active_children() == []


def test_fork_map_raises_a_child_exception():
    with pytest.raises(KeyError, match="task 5"):
        fork_map(_fail_on, [(x, 5) for x in range(6)], 3)
    assert multiprocessing.active_children() == []


def test_fork_map_joins_children_when_the_caller_share_raises():
    # a task fails in this process while the children sleep through theirs: they are ended, not waited for
    start = time.perf_counter()
    with pytest.raises(TypeError):
        fork_map(_sleep_in_children, [(os.getpid(),)] * 3, 3)
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - start < 30.0


def test_fork_map_runs_serially_without_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    out = fork_map(_square_and_pid, [(x,) for x in range(4)], 2)
    assert out == [(x * x, os.getpid()) for x in range(4)]


def test_fork_map_rejects_zero_workers():
    with pytest.raises(ValueError, match="at least 1"):
        fork_map(_square_and_pid, [(1,)], 0)
