"""Spawn-per-construct fork-join: the model the paper's §III-C improves on.

A drop-in stand-in for :class:`repro.cexec.parallel.WorkerPool` with the
same interface, but every region creates and joins fresh threads, paying
"the price of creating and destroying threads each time"; tasks always
elide.  ``test_bench_scaling.py`` swaps it in for the VM's pool with
:func:`use_naive_pool` so E-S5 measures the enhanced pool's advantage on
real executions.
"""

from __future__ import annotations

import threading
from typing import Callable


class NaiveForkJoin:
    """Fresh threads for every fork-join region; no task queue."""

    def __init__(self, nthreads: int):
        self.nthreads = max(1, int(nthreads))
        self._owner_ident = threading.get_ident()
        self._region_active = False
        self.regions_dispatched = 0

    def run_region(self, shards: list[Callable[[], None]]) -> bool:
        if (threading.get_ident() != self._owner_ident
                or self._region_active):
            return False
        self._region_active = True
        try:
            self.regions_dispatched += 1
            threads = [threading.Thread(target=s) for s in shards[1:]]
            for t in threads:
                t.start()
            if shards:
                shards[0]()
            for t in threads:  # join is the (expensive) stop barrier
                t.join()
        finally:
            self._region_active = False
        return True

    def submit(self, fn: Callable[[], None]):
        return None  # tasks always run via sequential elision

    def drain(self) -> None:
        pass

    def shutdown(self) -> None:
        pass

    @property
    def alive(self) -> bool:
        return True

    @property
    def region_active(self) -> bool:
        return self._region_active


def use_naive_pool(monkeypatch) -> None:
    """Make every VM built afterwards (until *monkeypatch* is undone)
    run its regions on a :class:`NaiveForkJoin` instead of the pool."""
    from repro.cexec import vm

    monkeypatch.setattr(
        vm, "make_pool",
        lambda nthreads: NaiveForkJoin(nthreads) if nthreads > 1 else None)
