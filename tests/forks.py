"""Helpers for the tests of the two-process splits (``rng._forked``)."""

import os


def two_cpus():
    """Whether a split may fork: os.fork and at least two CPUs."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


def counting_forks(mp):
    """Patch os.fork to note, in the calling process, each child's pid."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(os, "fork", counted)
    return pids
