"""Independent jobs mapped over forked worker processes, with the results
in job order, so a caller's output does not depend on the worker count."""

import os
import threading

# a worker's function and shared inputs, set by _init in each worker only
_fn, _shared = None, ()


def worker_count(n_jobs: int, cpus: int | None) -> int:
    """One worker per CPU the process may run on, at most one per job;
    1 (serial) where the CPU set is unknown (cpus None)."""
    return max(1, min(cpus or 1, n_jobs))


def _init(fn, shared) -> None:
    global _fn, _shared
    _fn, _shared = fn, shared


def _run(job):
    return _fn(job, *_shared)


def map_jobs(fn, jobs, shared: tuple = (), serial: bool = False) -> list:
    """[fn(job, *shared) for job in jobs], in worker_count processes forked
    from this one, or in this process when serial is true, when one worker
    is all there is, or when other threads run (a fork copies only this
    thread, and a lock another thread holds stays held in the worker).

    The workers inherit fn and shared from the fork, so only each job and
    its result are pickled. The first job in job order to raise raises its
    exception here, and the jobs not yet started are cancelled.
    multiprocessing flushes sys.stdout and sys.stderr before it forks, so
    a worker's exit, which flushes them too, does not write again what
    this process had buffered."""
    jobs = list(jobs)
    getaffinity = getattr(os, "sched_getaffinity", None)
    cpus = len(getaffinity(0)) if getaffinity else None
    workers = worker_count(len(jobs), cpus)
    if serial or workers == 1 or threading.active_count() > 1:
        return [fn(job, *shared) for job in jobs]
    # imported here, so that they do not slow down the start of the CLI
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             _init, (fn, shared)) as pool:
        futures = [pool.submit(_run, job) for job in jobs]
        try:
            return [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
