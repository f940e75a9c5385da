"""The supervised worker-process pool behind ``/run`` (S26).

Programs submitted to the daemon are untrusted in the only sense that
matters operationally: they can loop forever, print forever, or allocate
until the OOM killer arrives.  The daemon therefore never executes a
program in its own process.  Each :class:`WorkerPool` owns N long-lived
``multiprocessing`` workers, each a fresh interpreter running
:func:`_worker_main`: a loop that receives one job over its pipe, runs it
through :func:`repro.cexec.limited.run_limited` (in-process deadline +
output cap + optional address-space cap) and sends the result dict back.

Supervision invariants, each covered by ``tests/serve/test_workers.py``:

* **Hard timeout** — the parent waits ``timeout * grace`` on the pipe; a
  worker that blows through its in-process deadline (e.g. stuck inside a
  C call) is SIGKILLed and replaced.  The request gets a ``timeout``
  result; no other request is disturbed.
* **Crash isolation** — a worker dying mid-job (segfault, ``os._exit``,
  OOM kill) surfaces as ``worker_lost`` for that job only; the pool
  respawns the worker before the next dispatch.
* **Recycling** — after ``max_requests`` jobs a worker is retired
  gracefully and replaced, bounding interpreter-state drift and leak
  accumulation (MELT's resident-compiler hygiene, applied to executors).
* **Bounded concurrency** — dispatch blocks on an idle-worker queue with
  a deadline; admission control above it (the server's request queue)
  keeps that wait short.

The pool shares the daemon's :class:`repro.service.stats.Counters`, so
worker restarts, timeouts and recycles are visible in ``/stats``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
import time
from dataclasses import dataclass

from repro.cexec.limited import (
    DEFAULT_OUTPUT_CAP,
    KIND_TIMEOUT,
    apply_memory_limit,
    run_limited,
)
from repro.serve.protocol import KIND_WORKER_LOST, ServeRequest

#: Multiplier on the request timeout before the parent SIGKILLs a worker
#: whose in-process deadline should already have fired.
HARD_KILL_GRACE = 1.5

_EXIT = {"type": "_exit"}


def _reinit_inherited_state() -> None:
    """Make a forked worker self-consistent.

    Workers default to the ``fork`` start method (no ``__main__``
    re-import, instant spawn), but the daemon forks replacements from
    handler threads — and a lock another thread held at fork time stays
    held forever in the child.  Every process-wide lock the worker's
    compile path can touch is therefore rebound to a fresh object, and
    the shared caches are dropped (they may be mid-mutation); the child
    rebuilds its translators from the on-disk artifact store instead.
    """
    try:
        import repro.api as api_mod
        import repro.driver as driver_mod
        import repro.service.cache as cache_mod

        api_mod._registry_lock = threading.Lock()
        driver_mod._BYTECODE_LOCK = threading.Lock()
        cache_mod._shared_lock = threading.Lock()
        cache_mod._shared = None
    except Exception:
        pass


def _worker_main(conn, output_cap: int, max_memory_bytes: int) -> None:
    """Worker-process entry: serve jobs from ``conn`` until told to exit."""
    _reinit_inherited_state()
    if max_memory_bytes > 0:
        apply_memory_limit(max_memory_bytes)
    # Workers are pure executors; they must never outlive the daemon.
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        jtype = job.get("type")
        if jtype == "_exit":
            conn.close()
            return
        if jtype == "_crash":  # test hook: simulate a hard worker death
            os._exit(17)
        if jtype == "_ping":
            conn.send({"ok": True, "kind": "pong", "pid": os.getpid()})
            continue
        try:
            result = run_limited(
                job["source"],
                list(job.get("extensions", ("matrix",))),
                inputs=job.get("inputs") or None,
                output_names=list(job.get("output_names", ())),
                engine=job.get("engine", "vm"),
                nthreads=int(job.get("nthreads", 1)),
                options=_make_options(job.get("options")),
                timeout_s=job.get("timeout_s"),
                output_cap=output_cap,
            )
        except BaseException as e:  # never let a job kill the loop
            result = {"ok": False, "kind": "internal", "error": str(e)}
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            return


def _make_options(options: dict | None):
    if not options:
        return None
    from repro.cminus.env import Optimizations

    return Optimizations(**options)


@dataclass
class _Worker:
    process: mp.Process
    conn: object  # parent end of the duplex pipe
    served: int = 0

    def kill(self) -> None:
        try:
            self.process.kill()
        except Exception:
            pass
        self.process.join(timeout=5)
        try:
            self.conn.close()
        except Exception:
            pass

    def retire(self) -> None:
        """Graceful exit: drain-friendly, lets the child clean up."""
        try:
            self.conn.send(_EXIT)
        except Exception:
            self.kill()
            return
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except Exception:
                pass


class WorkerPool:
    """N supervised executor processes with timeout, recycle and respawn."""

    def __init__(
        self,
        size: int = 2,
        *,
        max_requests_per_worker: int = 64,
        default_timeout_s: float = 30.0,
        output_cap: int = DEFAULT_OUTPUT_CAP,
        max_memory_bytes: int = 0,
        counters=None,
        mp_start_method: str | None = None,
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.max_requests_per_worker = max_requests_per_worker
        self.default_timeout_s = default_timeout_s
        self.output_cap = output_cap
        self.max_memory_bytes = max_memory_bytes
        self.counters = counters
        # "fork" by default: workers start instantly with warm imports
        # and no __main__ re-execution (forkserver/spawn re-import the
        # parent's __main__, which breaks under pytest, `python -c` and
        # stdin-driven runs).  Respawns can fork from handler threads, so
        # workers rebind every process-wide lock their compile path can
        # touch on entry (see _reinit_inherited_state).  forkserver and
        # spawn remain selectable via REPRO_SERVE_MP.
        method = mp_start_method or os.environ.get("REPRO_SERVE_MP", "fork")
        self._ctx = mp.get_context(method)
        if method == "forkserver":
            try:
                self._ctx.set_forkserver_preload(
                    ["repro.api", "repro.cexec.limited"]
                )
            except Exception:
                pass
        self._idle: "queue.Queue[_Worker]" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self._live: list[_Worker] = []
        for _ in range(size):
            self._idle.put(self._spawn())

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child, self.output_cap, self.max_memory_bytes),
            daemon=True,
            name="repro-serve-worker",
        )
        proc.start()
        child.close()  # the parent keeps only its end
        w = _Worker(proc, parent)
        with self._lock:
            self._live.append(w)
        return w

    def _replace(self, worker: _Worker, *, graceful: bool) -> _Worker | None:
        """Retire/kill ``worker`` and spawn its successor (None when the
        pool shut down concurrently — no successor then)."""
        with self._lock:
            if worker in self._live:
                self._live.remove(worker)
            closed = self._closed
        if graceful:
            worker.retire()
        else:
            worker.kill()
        if closed:
            return None
        if self.counters is not None:
            self.counters.add(serve_worker_restarts=1)
        return self._spawn()

    def close(self, timeout_s: float = 10.0) -> None:
        """Retire every worker; safe to call twice."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            live = list(self._live)
            self._live.clear()
        deadline = time.monotonic() + timeout_s
        for w in live:
            w.retire()
            if time.monotonic() > deadline:
                break
        # Whatever didn't retire in time gets killed.
        for w in live:
            if w.process.is_alive():
                w.kill()

    @property
    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for w in self._live if w.process.is_alive())

    # -- dispatch -------------------------------------------------------------

    def submit_raw(self, job: dict, *, timeout_s: float | None = None,
                   acquire_timeout_s: float = 30.0) -> dict:
        """Run one job dict on an idle worker, supervising the outcome."""
        if self._closed:
            return {"ok": False, "kind": "shutdown",
                    "error": "worker pool is shut down"}
        timeout = timeout_s if timeout_s is not None else self.default_timeout_s
        job = dict(job)
        job.setdefault("timeout_s", timeout)
        try:
            worker = self._idle.get(timeout=acquire_timeout_s)
        except queue.Empty:
            return {"ok": False, "kind": KIND_TIMEOUT,
                    "error": "no worker became available in time"}
        graceful_recycle = False
        try:
            try:
                worker.conn.send(job)
            except (BrokenPipeError, OSError):
                # Worker died between jobs; replace and retry once.
                worker = self._replace(worker, graceful=False)
                if worker is None:
                    return {"ok": False, "kind": "shutdown",
                            "error": "worker pool is shut down"}
                try:
                    worker.conn.send(job)
                except (BrokenPipeError, OSError):
                    worker = self._replace(worker, graceful=False)
                    return {"ok": False, "kind": KIND_WORKER_LOST,
                            "error": "worker unavailable"}

            hard_deadline = timeout * HARD_KILL_GRACE if timeout else None
            if worker.conn.poll(hard_deadline):
                try:
                    result = worker.conn.recv()
                except (EOFError, OSError):
                    # Crash mid-job: pipe closed without a result.
                    worker = self._replace(worker, graceful=False)
                    return {"ok": False, "kind": KIND_WORKER_LOST,
                            "error": "worker crashed while executing "
                                     "the request"}
            else:
                # In-process deadline failed to fire (stuck in C code or
                # the job ignored it): hard kill.
                worker = self._replace(worker, graceful=False)
                if self.counters is not None:
                    self.counters.add(serve_timeouts=1)
                return {"ok": False, "kind": KIND_TIMEOUT,
                        "error": f"execution exceeded {timeout:.3g}s "
                                 "(worker killed)"}

            worker.served += 1
            if result.get("kind") == KIND_TIMEOUT and self.counters is not None:
                self.counters.add(serve_timeouts=1)
            if worker.served >= self.max_requests_per_worker:
                graceful_recycle = True
            return result
        finally:
            if graceful_recycle:
                worker = self._replace(worker, graceful=True)
            if worker is not None and not self._closed:
                self._idle.put(worker)

    def submit(self, request: ServeRequest,
               acquire_timeout_s: float = 30.0) -> dict:
        """Run a validated ``run`` request."""
        job = {
            "type": "run",
            "source": request.source,
            "extensions": list(request.extensions),
            "engine": request.engine,
            "nthreads": request.nthreads,
            "inputs": request.inputs,
            "output_names": list(request.output_names),
            "options": request.options or None,
        }
        return self.submit_raw(
            job,
            timeout_s=request.timeout_s,
            acquire_timeout_s=acquire_timeout_s,
        )
