"""S23: shared-memory fork-join runtime for the bytecode VM.

This is the in-process Python analogue of the generated C runtime's
*enhanced fork-join* pool (S13, paper §III-C, following SAC [14]):

* **Workers are created once** per :class:`WorkerPool` (i.e. once per
  ``run_program``), not once per parallel construct.  The C pool parks
  idle workers in a spin lock on a generation counter; burning a core to
  spin is exactly wrong under the GIL, so the Python pool parks them in
  a :class:`threading.Condition` wait instead — the *start signal* is a
  generation bump plus a notify, the *stop barrier* is a done-counter
  the dispatching thread waits on.  The structure (generation counter,
  per-worker chunk, done-count barrier, inline execution of nested
  regions) mirrors ``rt_pool_*`` in :mod:`repro.codegen.runtime_c`.

* **Fork-join regions** (`run_region`): the caller passes one shard
  closure per thread; worker *t* executes shard *t+1* while the
  dispatching thread executes shard 0, then waits at the stop barrier.
  Dispatch is refused (returns ``False``) off the owner thread or while
  a region is already active — the caller then runs its shards inline,
  which is how nested parallel constructs degrade, exactly like the C
  runtime's ``rt_pool_region_active`` fallback.

* **Cilk tasks** (`submit` / `wait_task`): spawned calls are queued to
  the same workers, bounded by a live-task cap (the C runtime's
  ``RT_MAX_LIVE_TASKS``); a full pool makes ``submit`` return ``None``
  and the caller falls back to sequential elision.  ``wait_task`` *helps*:
  while the awaited task is unfinished the waiting thread drains and
  executes other queued tasks, so a task that spawns and syncs inside a
  worker can never deadlock the pool.

Why threads pay at all under the GIL: the VM's hot loops execute as
numpy batch operations (:mod:`repro.cexec.loopfast`), and numpy releases
the GIL inside its C loops — so sharding the *outer* iteration space
across this pool runs the vectorized inner work on all cores while only
the thin dispatch layer serializes.

The model the paper's §III-C argues against — creating and joining
threads for every construct — lives in the benchmarks as a drop-in
stand-in for :class:`WorkerPool`, so the enhanced-vs-naive overhead
comparison (E-S5) is *measured* on real VM executions.
"""

from __future__ import annotations

import inspect
import os
import threading
import time
import warnings
import weakref
from collections import deque
from typing import Callable

# Mirrors RT_MAX_LIVE_TASKS in the generated C runtime (repro.codegen
# .runtime_c): spawns beyond this many live tasks run inline.
DEFAULT_TASK_CAP = 64

# How long to wait for a process worker to honor a retire/terminate
# before escalating (same grace the serve supervisor uses).
HARD_KILL_GRACE = 1.5

_warned_thread_excess = False


def resolve_nthreads(nthreads: int | None = None, *, default: int = 1) -> int:
    """Resolve a thread count: an explicit value wins, else the
    ``REPRO_THREADS`` environment variable, else ``default``.
    The result is clamped to at least 1.

    Env-derived ("auto") values are additionally clamped to
    ``os.cpu_count()`` — oversubscribing cores never helps either
    backend — with a once-per-process warning so a misconfigured
    ``REPRO_THREADS`` is visible rather than silently slow.  Explicit
    values are honored as requested (tests and benchmarks deliberately
    oversubscribe)."""
    if nthreads is not None:
        return max(1, int(nthreads))
    env = os.environ.get("REPRO_THREADS", "").strip()
    if env:
        try:
            val = int(env)
        except ValueError:
            pass
        else:
            val = max(1, val)
            cpus = os.cpu_count() or 1
            if val > cpus:
                global _warned_thread_excess
                if not _warned_thread_excess:
                    _warned_thread_excess = True
                    warnings.warn(
                        f"REPRO_THREADS={val} exceeds the {cpus} available "
                        f"CPU core(s); clamping to {cpus}",
                        RuntimeWarning, stacklevel=2)
                val = cpus
            return val
    return max(1, default)


BACKENDS = ("thread", "process", "auto")


def resolve_backend(backend: str | None = None, *,
                    default: str = "thread") -> str:
    """Resolve the parallel backend: an explicit value wins, else the
    ``REPRO_PARALLEL_BACKEND`` environment variable, else ``default``.

    ``thread`` shards onto the in-process fork-join pool (S23),
    ``process`` onto the shared-memory process pool (S27) with a thread
    fallback for regions the safety analysis rules out, and ``auto``
    picks per region: process when eligible, thread otherwise."""
    if backend is None:
        env = os.environ.get("REPRO_PARALLEL_BACKEND", "").strip().lower()
        backend = env or default
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown parallel backend {backend!r}; have {BACKENDS}")
    return backend


class Task:
    """One queued Cilk task: a thunk plus completion state.

    ``fn`` must capture everything it needs and store its own results;
    the pool records only an exception (re-raised by the VM at sync, in
    spawn order)."""

    __slots__ = ("fn", "exc", "_event")

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self.exc: BaseException | None = None
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self) -> None:
        self._event.wait()


class WorkerPool:
    """Persistent enhanced fork-join pool: ``nthreads - 1`` workers plus
    the owning thread, shared by pool regions and Cilk tasks."""

    def __init__(self, nthreads: int, *, task_cap: int = DEFAULT_TASK_CAP):
        self.nthreads = max(1, int(nthreads))
        self.task_cap = task_cap
        self._owner_ident = threading.get_ident()
        self._cond = threading.Condition()
        self._shutdown = False
        # fork-join region state (guarded by _cond)
        self._generation = 0
        self._shards: list[Callable[[], None]] = []
        self._done = 0
        self._region_active = False  # touched only by the owner thread
        # task state (guarded by _cond)
        self._tasks: deque[Task] = deque()
        self._live_tasks = 0
        # observability counters (tests, benchmarks)
        self.regions_dispatched = 0
        self.tasks_pooled = 0
        self._threads = [
            threading.Thread(target=self._worker, args=(i,), daemon=True,
                             name=f"repro-pool-{i}")
            for i in range(self.nthreads - 1)
        ]
        for t in self._threads:
            t.start()

    # -- worker loop ---------------------------------------------------------

    def _worker(self, idx: int) -> None:
        seen = 0
        while True:
            shard = task = None
            with self._cond:
                while not (self._shutdown or self._generation != seen
                           or self._tasks):
                    self._cond.wait()
                if self._shutdown:
                    return
                if self._generation != seen:
                    # A new region released the pool: take this worker's
                    # shard (the dispatching thread runs shard 0 itself).
                    seen = self._generation
                    if idx + 1 < len(self._shards):
                        shard = self._shards[idx + 1]
                elif self._tasks:
                    task = self._tasks.popleft()
            if shard is not None:
                try:
                    shard()  # contract: shard closures never raise
                finally:
                    with self._cond:
                        self._done += 1
                        self._cond.notify_all()  # wake the stop barrier
            elif task is not None:
                self._run_task(task)

    # -- fork-join regions ---------------------------------------------------

    def run_region(self, shards: list[Callable[[], None]]) -> bool:
        """Execute ``shards`` as one fork-join region; ``True`` when the
        pool ran them, ``False`` when the caller must run them inline
        (off-owner-thread or nested dispatch — the C runtime's
        ``rt_pool_region_active`` path).

        Shard closures must not raise; the VM wraps each shard to record
        its exception for deterministic first-trap-wins re-raising."""
        if len(shards) > self.nthreads:
            raise ValueError(
                f"{len(shards)} shards for a {self.nthreads}-thread pool")
        if (threading.get_ident() != self._owner_ident
                or self._region_active or self._shutdown):
            return False
        if len(shards) <= 1:
            for s in shards:
                s()
            return True
        self._region_active = True
        try:
            with self._cond:
                self._shards = shards
                self._done = 0
                self._generation += 1  # start signal
                self.regions_dispatched += 1
                self._cond.notify_all()
            shards[0]()  # the owner participates as worker 0
            with self._cond:  # stop barrier: quiesce before returning
                while self._done < len(shards) - 1:
                    self._cond.wait()
        finally:
            self._region_active = False
        return True

    # -- Cilk tasks ----------------------------------------------------------

    def submit(self, fn: Callable[[], None]) -> Task | None:
        """Queue a task for the workers; ``None`` when the live-task cap
        is reached (caller applies sequential elision)."""
        with self._cond:
            if self._shutdown or self._live_tasks >= self.task_cap:
                return None
            self._live_tasks += 1
            self.tasks_pooled += 1
            task = Task(fn)
            self._tasks.append(task)
            self._cond.notify_all()
        return task

    def _run_task(self, task: Task) -> None:
        try:
            task.fn()
        except Exception as e:  # re-raised by the VM at the sync point
            task.exc = e
        finally:
            with self._cond:
                self._live_tasks -= 1
                self._cond.notify_all()
            task._event.set()

    def wait_task(self, task: Task) -> None:
        """Wait for ``task``, helping execute other queued tasks — a
        syncing task inside a worker makes progress instead of
        deadlocking the pool."""
        while not task.done:
            other = None
            with self._cond:
                if self._tasks:
                    other = self._tasks.popleft()
            if other is not None:
                self._run_task(other)
            else:
                # Not queued and not done: it is running on some thread.
                task.wait()

    def drain(self) -> None:
        """Wait for every live task (implicit final sync), helping."""
        while True:
            task = None
            with self._cond:
                if self._live_tasks == 0:
                    return
                if self._tasks:
                    task = self._tasks.popleft()
            if task is not None:
                self._run_task(task)
            else:
                with self._cond:
                    if self._live_tasks == 0:
                        return
                    self._cond.wait(0.05)

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=1.0)

    @property
    def alive(self) -> bool:
        return not self._shutdown

    @property
    def region_active(self) -> bool:
        """True while the owner thread is inside run_region — i.e. pool
        workers may be running shards right now (fork hazard, S27)."""
        return self._region_active


def make_pool(nthreads: int):
    """A fork-join pool for ``nthreads`` threads, or ``None`` when one
    thread needs no pool at all."""
    if nthreads <= 1:
        return None
    return WorkerPool(nthreads)


# --------------------------------------------------------------------------
# S27: shared-memory process pool
# --------------------------------------------------------------------------

# Fork-time handoff to the child's main: with the fork start method the
# child inherits this module-global by memory, so the (unpicklable)
# runner/setup callables never travel through Process args — which also
# keeps the parent-side Process object from pinning the VM alive.
_fork_payload = None


def attach_shm(name: str):
    """Attach an existing shared-memory segment created by the region
    owner.

    Tracker discipline (3.11 has no ``track=False``): every attach also
    registers the name with the resource tracker.  Because the workers
    are *forked* after :class:`ProcessShardPool` has ensured the
    tracker is running, parent and children share one tracker whose
    per-type cache is a set — the creator's register puts the name in,
    every attacher's register dedups to a no-op, and the creator's
    ``unlink`` performs the single balancing unregister.  Nobody else
    may unregister, or the tracker's cache underflows and it logs a
    KeyError at shutdown."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _process_worker_main(conn) -> None:
    """Loop of one forked shard worker: receive a job dict, run it via
    the inherited runner, ship ``(stats, stdout, exc)`` back.  ``None``
    retires the worker; a ``_crash`` job simulates dying mid-shard."""
    runner, child_setup = _fork_payload
    if child_setup is not None:
        child_setup()
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            os._exit(0)
        if job is None:  # graceful retire
            conn.close()
            os._exit(0)
        if job.get("_crash"):  # supervision test hook (cf. serve.workers)
            os._exit(17)
        if job.get("_sleep"):  # timeout test hook
            time.sleep(job["_sleep"])
        try:
            result = runner(job)
        except BaseException as e:  # runner contract violation
            from repro.cexec.interp import InterpStats

            result = (InterpStats(), [], e)
        try:
            conn.send(result)
        except Exception:
            # An unpicklable exception object: degrade to its message.
            from repro.cexec.interp import InterpError

            stats, stdout, exc = result
            conn.send((stats, stdout, InterpError(str(exc))))


class ProcessShardPool:
    """Persistent pool of forked worker *processes* executing shard jobs
    against numpy views over ``multiprocessing.shared_memory`` (S27).

    The supervision story follows :mod:`repro.serve.workers`: fork start
    method (jobs and programs travel by inherited memory, never via
    pickling), crash detection by pipe EOF, optional per-region
    timeouts, and respawn after any loss.  Unlike the serve pool, a lost
    worker does not fail the request — ``run_shards`` returns ``None``,
    the caller discards the (uncommitted) region and reruns it
    sequentially, so a SIGKILLed worker costs time, never correctness.

    The pool holds its runner/setup callables only weakly when they are
    bound methods, so a VM that owns a pool can still be collected; its
    finalizer then shuts the workers down.
    """

    def __init__(self, nworkers: int, runner, child_setup=None, *,
                 timeout_s: float | None = None):
        import multiprocessing as mp

        self.nworkers = max(1, int(nworkers))
        self.timeout_s = timeout_s
        self._runner_ref = (weakref.WeakMethod(runner)
                            if inspect.ismethod(runner) else lambda: runner)
        self._setup_ref = (weakref.WeakMethod(child_setup)
                           if inspect.ismethod(child_setup)
                           else lambda: child_setup)
        self._ctx = mp.get_context("fork")
        # Start the resource tracker *before* forking workers so they
        # inherit its pipe: shm registers from any process then dedup
        # into one shared cache instead of each child spawning a
        # private tracker that would unlink segments on worker exit.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        self._owner_ident = threading.get_ident()
        self._shutdown = False
        # observability (tests, benchmarks, --stats)
        self.regions_dispatched = 0
        self.workers_respawned = 0
        self.test_crash_next: int | None = None  # worker index, tests only
        self._workers = [self._spawn_worker() for _ in range(self.nworkers)]

    # -- lifecycle -----------------------------------------------------------

    def _spawn_worker(self):
        global _fork_payload
        parent_conn, child_conn = self._ctx.Pipe()
        _fork_payload = (self._runner_ref(), self._setup_ref())
        try:
            proc = self._ctx.Process(
                target=_process_worker_main, args=(child_conn,),
                daemon=True, name="repro-ppool-worker")
            proc.start()
        finally:
            _fork_payload = None
        child_conn.close()
        return [proc, parent_conn]

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        for proc, conn in self._workers:
            try:
                conn.send(None)  # graceful retire
            except (OSError, BrokenPipeError, ValueError):
                pass
        for proc, conn in self._workers:
            proc.join(timeout=HARD_KILL_GRACE)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=HARD_KILL_GRACE)
            if proc.is_alive():  # pragma: no cover - stuck in kernel
                proc.kill()
                proc.join(timeout=HARD_KILL_GRACE)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers = []

    @property
    def alive(self) -> bool:
        return not self._shutdown

    @property
    def alive_workers(self) -> int:
        return sum(1 for proc, _ in self._workers if proc.is_alive())

    # -- regions -------------------------------------------------------------

    def run_shards(self, jobs: list) -> list | None:
        """Execute ``jobs`` (dicts) as one region: job 0 runs in the
        calling process, jobs 1..n ship to the workers.  Returns per-job
        ``(stats, stdout, exc)`` results in job order, or ``None`` when
        any worker was lost to a crash or timeout — nothing was
        committed, the caller reruns the region sequentially.  Lost
        workers are respawned before returning."""
        if self._shutdown or threading.get_ident() != self._owner_ident:
            return None
        n = len(jobs)
        if n - 1 > self.nworkers:
            raise ValueError(
                f"{n} shards for a {self.nworkers}-process pool")
        runner = self._runner_ref()
        if runner is None:  # pragma: no cover - owner was collected
            return None
        self.regions_dispatched += 1
        crash_at, self.test_crash_next = self.test_crash_next, None
        lost = False
        for t in range(1, n):
            payload = jobs[t]
            if crash_at == t:
                payload = dict(payload, _crash=True)
            try:
                self._workers[t - 1][1].send(payload)
            except (OSError, BrokenPipeError):
                lost = True
        results: list = [None] * n
        results[0] = runner(jobs[0])
        deadline = (time.monotonic() + self.timeout_s
                    if self.timeout_s else None)
        for t in range(1, n):
            got = self._recv(self._workers[t - 1][1], deadline)
            if got is None:
                lost = True
            else:
                results[t] = got
        if lost:
            self._respawn_all()
            return None
        return results

    def _recv(self, conn, deadline):
        try:
            if deadline is None:
                return conn.recv()
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None  # timed out: worker treated as lost
                if conn.poll(min(remaining, 0.05)):
                    return conn.recv()
        except (EOFError, OSError):
            return None  # pipe EOF: the worker crashed

    def _respawn_all(self) -> None:
        # A region was lost: results channels may hold stale messages
        # and some workers may be wedged mid-shard, so replace the whole
        # bench rather than diagnose survivors (regions are discarded
        # wholesale, so no work is stranded).
        for proc, conn in self._workers:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=HARD_KILL_GRACE)
            if proc.is_alive():  # pragma: no cover - stuck in kernel
                proc.kill()
                proc.join(timeout=HARD_KILL_GRACE)
        self.workers_respawned += self.nworkers
        self._workers = [self._spawn_worker() for _ in range(self.nworkers)]
