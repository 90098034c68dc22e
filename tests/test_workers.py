import os
import threading

import pytest

from conftest import two_cpus
from stressnet import _workers
from stressnet._workers import map_jobs, worker_count


class TestWorkerCount:
    @pytest.mark.parametrize("n_jobs, cpus, want", [
        (5, None, 1),   # no CPU set known: serial
        (5, 2, 2),
        (1, 64, 1),     # one job needs one worker
        (0, 8, 1),
        (100, 64, 64),  # never more than the CPUs
        (3, 1, 1),
    ])
    def test_rule(self, n_jobs, cpus, want):
        assert worker_count(n_jobs, cpus) == want


def square_plus(job, offset):
    return job * job + offset


def fail_on(job, bad):
    if job in bad:
        raise ValueError(f"job {job}")
    return job


class TestMapJobs:
    def test_serial_in_job_order(self):
        assert map_jobs(square_plus, range(6), (1,), serial=True) == [
            1, 2, 5, 10, 17, 26]

    @two_cpus
    def test_forked_in_job_order(self):
        assert map_jobs(square_plus, range(6), (1,)) == [1, 2, 5, 10, 17, 26]

    @two_cpus
    def test_shared_inputs_are_inherited_not_pickled(self):
        # a lock cannot be pickled, so it can only reach a worker by the fork
        lock = threading.Lock()
        assert map_jobs(lambda job, lk: (job, type(lk).__name__), [0, 1],
                        (lock,)) == [(0, "lock"), (1, "lock")]

    @pytest.mark.parametrize("serial", [True, False])
    def test_first_failure_in_job_order_is_raised(self, serial):
        with pytest.raises(ValueError, match="^job 2$"):
            map_jobs(fail_on, range(6), ({2, 4},), serial=serial)

    def test_one_worker_runs_in_this_process(self, monkeypatch):
        monkeypatch.setattr(_workers, "worker_count", lambda n_jobs, cpus: 1)
        pids = map_jobs(lambda job: os.getpid(), range(3))
        assert pids == [os.getpid()] * 3

    @two_cpus
    def test_workers_are_other_processes(self):
        pids = map_jobs(lambda job: os.getpid(), range(4))
        assert os.getpid() not in pids

    def test_no_fork_while_another_thread_runs(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            pids = map_jobs(lambda job: os.getpid(), range(4))
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()
        assert pids == [os.getpid()] * 4
