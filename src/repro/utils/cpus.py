"""How many CPUs this process may run on."""

from __future__ import annotations

import os


def usable_cpu_count() -> int:
    """The CPUs this process may be scheduled on.

    ``os.cpu_count()`` counts the host's CPUs, which overstates what a
    process pinned by ``taskset`` or a container's cpuset can use; the
    affinity mask says what it may run on, where the platform has one
    (``os.process_cpu_count`` says the same, from Python 3.13 on).
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
