"""Register-bytecode VM: the default Python execution engine.

Executes :class:`repro.cexec.bytecode.Code` instruction arrays against
the same :class:`~repro.cexec.interp.RTRuntime` the tree-walker uses, so
observable behavior — stdout, stats counters, runtime traps, RMAT
outputs — is byte-for-byte identical to the reference interpreter.

Dispatch is *threaded code*: at bind time every symbolic instruction is
turned into a closure ``frame -> next_pc`` with its operands (and, for
intrinsics, the resolved bound method) captured, so the hot loop is just

    while pc < n:
        pc = ops[pc](frame)

with no opcode decoding, no dict lookups and no exception-based control
flow.  Innermost loops whose bodies were recognized by
:mod:`repro.cexec.loopfast` execute as batched numpy slice operations
and fall through into their scalar bytecode when a guard fails.

Parallel execution (S23): with ``nthreads > 1`` the VM owns a persistent
:class:`repro.cexec.parallel.WorkerPool`.  Pool regions (`parallelize`d
with-loops, matrixMap) shard the outermost iteration space across the
workers — each shard runs the *same* bound closures on its own frame,
with stats/stdout redirected to thread-local buffers that are merged
left-to-right afterwards, so a pooled run is observationally identical
to a sequential one (bit-identical outputs, stdout order, counters,
first-trap-wins traps).  Cilk ``spawn`` schedules compile-time
*task-safe* callees on the same pool (live-task cap, help-while-sync)
and elides the rest inline.
"""

from __future__ import annotations

import os
import threading
import weakref
from pathlib import Path

import numpy as np

from repro.ag.tree import Node
from repro.analysis.hazards import PROCESS_BLOCKERS
from repro.cexec import loopfast, superinstr
from repro.cexec.bytecode import BytecodeProgram, Code
from repro.cexec.interp import (
    InterpError, InterpStats, RTMat, RTRuntime, c_div, c_mod,
)
from repro.cexec.parallel import (
    ProcessShardPool, attach_shm, make_pool, resolve_backend,
)
from repro.util import env_flag


def _shippable_captures(captures: list) -> str | None:
    """Why this capture list cannot cross a process boundary, or None
    when every capture is a contiguous matrix or a plain scalar."""
    for c in captures:
        if isinstance(c, RTMat):
            if not isinstance(c.data, np.ndarray) \
                    or not c.data.flags.c_contiguous:
                return "capture matrix payload is not a contiguous array"
        elif not isinstance(c, (int, float, str, np.integer, np.floating,
                                type(None))):
            return f"capture of type {type(c).__name__}"
    return None


class VM(RTRuntime):
    """Executes a lowered Root node via compiled register bytecode."""

    def __init__(self, lowered_root: Node, ctx, *, workdir: str | Path = ".",
                 nthreads: int = 1, program: BytecodeProgram | None = None,
                 parallel_backend: str | None = None):
        # Thread-local redirection target must exist before RTRuntime's
        # __init__ assigns the stats/stdout properties below.
        self._tl = threading.local()
        self._main_stats = InterpStats()
        self._main_stdout: list[str] = []
        super().__init__(workdir=workdir, nthreads=nthreads)
        self.program = program or BytecodeProgram(lowered_root, ctx)
        # name -> (bound ops, nregs, nparams) for functions; name ->
        # (bound ops, nregs) for lifted pool-worker bodies.
        self._fns: dict[str, tuple] = {}
        self._lifted: dict[str, tuple] = {}
        self._backend = resolve_backend(parallel_backend)
        self._pool = None
        self._pool_finalizer = None
        self._ppool = None
        self._ppool_finalizer = None
        self._owner_ident = threading.get_ident()
        self._process_region_active = False
        # Regions actually executed on the process pool; survives
        # close() (which drops the pool and its own counters).
        self.process_regions = 0
        self._shm_seq = 0
        self._closed = False
        # S29 dispatch specialization: superinstruction fusion, bind-time
        # jump threading and arity-specialized intrinsics.
        # REPRO_NO_QUICKEN=1 selects the generic reference stream.  A
        # counting VM executes the generic stream too: fusion's jump
        # threading and mid-group early exits genuinely retire fewer
        # dispatches, which would skew the dynamic-instruction totals
        # the E-IR gates compare across optimizer levels.
        self._counting = env_flag("REPRO_COUNT_INSTRS")
        self._spec = not (env_flag("REPRO_NO_QUICKEN") or self._counting)
        if self._counting:
            self._run = self._run_counting
        # Guards refcount read-modify-writes and the deferred task-stats
        # accumulator while worker threads are live.
        self._rc_lock = threading.Lock()
        self._task_stats = InterpStats()

    # -- thread-local stats/stdout ------------------------------------------
    #
    # The bound instruction closures capture *methods of this VM*, and the
    # same closures execute on every pool thread.  Routing the runtime's
    # `stats`/`stdout` attributes through a threading.local gives each
    # shard/task a private buffer without rebinding any code: off-region
    # code sees the main buffers, a worker sees whatever the shard job
    # installed for the duration of its run.

    @property
    def stats(self) -> InterpStats:
        s = getattr(self._tl, "stats", None)
        return self._main_stats if s is None else s

    @stats.setter
    def stats(self, value: InterpStats) -> None:
        self._main_stats = value

    @property
    def stdout(self) -> list[str]:
        s = getattr(self._tl, "stdout", None)
        return self._main_stdout if s is None else s

    @stdout.setter
    def stdout(self, value: list[str]) -> None:
        self._main_stdout = value

    # -- refcounting (thread-safe under the pool) ---------------------------

    def _rc_inc(self, m) -> None:
        if self._pool is None:
            RTRuntime._rc_inc(self, m)
        else:
            with self._rc_lock:
                RTRuntime._rc_inc(self, m)

    def _rc_dec(self, m) -> None:
        if self._pool is None:
            RTRuntime._rc_dec(self, m)
        else:
            with self._rc_lock:
                RTRuntime._rc_dec(self, m)

    # -- entry points --------------------------------------------------------

    def run_main(self, argv: list[str] | None = None) -> int:
        if "main" not in self.program.functions:
            raise InterpError("no main function")
        # Silent IEEE specials, as in C (errstate is per context, so
        # each pool job enters it too).
        with np.errstate(all="ignore"):
            try:
                out = self.call_function("main", [])
            finally:
                # Implicit final sync: finish outstanding Cilk tasks and
                # fold their stats in before counters become observable.
                self._drain_tasks()
        return int(out) if out is not None else 0

    # The instruction stream this VM executes is the superinstruction-
    # fused one when specialization is on, the plain S28-optimized one
    # otherwise.  Analysis consumers (callgraph hazard scans,
    # fingerprints) keep using ``code_for``: fusion must never hide a
    # trap or call from them.  Binding is benign under concurrency: it
    # is deterministic, so losers of the (atomic) dict race just rebuilt
    # an equal entry.

    def call_function(self, name: str, args: list):
        fn = self._fns.get(name)
        if fn is None:
            p = self.program
            code = p.spec_code_for(name) if self._spec else p.code_for(name)
            fn = self._fns[name] = (bind(code, self), code.nregs,
                                    len(code.params))
        ops, nregs, nparams = fn
        if nparams != len(args):
            raise InterpError(
                f"{name}: expected {nparams} args, got {len(args)}")
        return self._run(ops, nregs, args)

    def _lifted_fn(self, fname: str) -> tuple:
        """(bound ops, nregs) of one lifted pool-worker body."""
        fn = self._lifted.get(fname)
        if fn is None:
            p = self.program
            code = (p.spec_lifted_code_for(fname) if self._spec
                    else p.lifted_code_for(fname))
            fn = self._lifted[fname] = (bind(code, self), code.nregs)
        return fn

    def _run(self, ops: list, nregs: int, args: list):
        frame = [None] * nregs
        frame[1:1 + len(args)] = args
        pc = 0
        n = len(ops)
        while pc < n:
            pc = ops[pc](frame)
        return frame[0]

    def _run_counting(self, ops: list, nregs: int, args: list):
        """Dispatch loop variant that counts retired instructions into
        the (thread-local) stats — installed over ``_run`` at init when
        ``REPRO_COUNT_INSTRS`` is set, so the common path stays lean.
        A counting VM never fuses, so one dispatch is one instruction."""
        frame = [None] * nregs
        frame[1:1 + len(args)] = args
        pc = 0
        n = len(ops)
        count = 0
        while pc < n:
            count += 1
            pc = ops[pc](frame)
        self.stats.instrs += count
        return frame[0]

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self):
        if self.nthreads <= 1 or self._closed:
            return None
        if self._pool is None:
            self._pool = make_pool(self.nthreads)
            if self._pool is not None:
                self._pool_finalizer = weakref.finalize(
                    self, self._pool.shutdown)
        return self._pool

    def _ensure_ppool(self):
        if self.nthreads <= 1 or self._closed:
            return None
        if self._ppool is None:
            try:
                self._ppool = ProcessShardPool(
                    self.nthreads - 1, self._exec_shard_job,
                    self._child_after_fork)
            except Exception:  # pragma: no cover - no fork/shm platform
                self._backend = "thread"
                return None
            # The pool only weak-refs this VM, so the finalizer can fire.
            self._ppool_finalizer = weakref.finalize(
                self, self._ppool.shutdown)
        return self._ppool if self._ppool.alive else None

    def _child_after_fork(self) -> None:
        """Sanitize inherited state inside a forked shard worker (cf.
        ``repro.serve.workers._reinit_inherited_state``): fresh locks
        and thread-locals (the parent's may be mid-acquire at fork
        time), no pools of either kind (a nested region in a worker
        runs inline), sequential shard math."""
        self._tl = threading.local()
        self._rc_lock = threading.Lock()
        self.program._lock = threading.RLock()
        self._task_stats = InterpStats()
        self._pool = None
        self._ppool = None
        self._process_region_active = False
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._ppool_finalizer is not None:
            self._ppool_finalizer.detach()
            self._ppool_finalizer = None
        self.nthreads = 1

    def close(self) -> None:
        """Quiesce and release the worker pools (idempotent).  The VM
        stays usable afterwards — it simply runs sequentially."""
        self._drain_tasks()
        self._closed = True
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown()
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
        if self._ppool is not None:
            ppool, self._ppool = self._ppool, None
            ppool.shutdown()
            if self._ppool_finalizer is not None:
                self._ppool_finalizer.detach()
                self._ppool_finalizer = None

    def _drain_tasks(self) -> None:
        if self._pool is not None:
            self._pool.drain()
        with self._rc_lock:
            task_stats, self._task_stats = self._task_stats, InterpStats()
        self._main_stats.merge(task_stats)

    # -- pool regions --------------------------------------------------------

    def _pool_run(self, fname: str, total: int, captures: list) -> None:
        ops, nregs = self._lifted_fn(fname)
        self.stats.parallel_regions += 1
        self.stats.region_sizes.append(total)
        per = -(-total // self.nthreads) if total > 0 else 0
        shards = []
        for t in range(self.nthreads):
            lo, hi = min(t * per, total), min((t + 1) * per, total)
            if lo < hi:
                shards.append((lo, hi))
        if self.nthreads <= 1 or self._closed:
            self.stats.bail("shard", "single worker thread (pool disabled)")
        elif len(shards) <= 1:
            self.stats.bail("shard", "iteration space fits in one shard")
        elif not self.program.lifted_parallel_safe(fname):
            hazards = sorted(self.program.hazards_for(fname, lifted=True))
            self.stats.bail(
                "shard", "not shard-safe ({})".format(", ".join(hazards)))
        elif self._process_region_active:
            # The owner thread is executing shard 0 of a process region;
            # a nested construct inside it degrades like the thread
            # pool's rt_pool_region_active path.
            self.stats.bail(
                "shard", "nested inside an active parallel region")
        elif self._dispatch_region(ops, nregs, fname, captures, shards):
            return
        # Sequential path: nthreads=1, ineligible body, nested region, or
        # pool refusal — same shard boundaries, run in order inline.
        for lo, hi in shards:
            self._run(ops, nregs, captures + [lo, hi])

    def _dispatch_region(self, ops, nregs: int, fname: str, captures: list,
                         shards: list) -> bool:
        """Route one eligible region to a parallel backend; ``False``
        means a bail reason was recorded and the caller must run the
        shards sequentially inline."""
        if self._backend in ("process", "auto") and self._process_ok_here():
            reason = self._process_refusal(fname, captures)
            if reason is None:
                ppool = self._ensure_ppool()
                if ppool is not None:
                    results = self._pool_run_process(
                        fname, captures, shards, ppool)
                    if results is not None:
                        self.process_regions += 1  # trapped ones too
                        self._merge_region_results(results)
                        return True
                    # Lost worker: the region committed nothing; rerun
                    # it sequentially for exact sequential semantics.
                    self.stats.bail(
                        "shard",
                        "worker process lost; region rerun sequentially")
                    return False
            elif self._backend == "process":
                # The explicitly requested backend was refused; the
                # region still parallelizes on threads, but the ledger
                # says why processes were off the table.
                self.stats.bail(
                    "shard", f"process-ineligible ({reason}); "
                             f"fell back to thread pool")
        pool = self._ensure_pool()
        if pool is None:  # pragma: no cover - guarded by caller checks
            self.stats.bail("shard", "single worker thread (pool disabled)")
            return False
        if self._pool_run_parallel(ops, nregs, captures, shards, pool):
            return True
        self.stats.bail("shard", "nested inside an active parallel region")
        return False

    def _process_ok_here(self) -> bool:
        """Process dispatch — including the fork that lazily creates the
        pool — is only safe from the VM's owner thread while no thread
        region is running: forking while pool workers execute shards
        would snapshot their held locks into the children, which then
        deadlock on first use.  Blocked dispatches degrade exactly like
        the thread pool's nested-region path (run_region refuses, the
        region runs sequentially inline)."""
        return (threading.get_ident() == self._owner_ident
                and not (self._pool is not None
                         and self._pool.region_active))

    def _process_refusal(self, fname: str, captures: list) -> str | None:
        """Why this region may not use the process pool (None = it may).
        Mirrors ``ParallelSafety.process_safe`` plus a dispatch-time
        check that every capture can cross the process boundary."""
        if not self.program.lifted_process_safe(fname):
            hz = sorted(self.program.hazards_for(fname, lifted=True)
                        & PROCESS_BLOCKERS)
            return ", ".join(hz)
        return _shippable_captures(captures)

    def _pool_run_parallel(self, ops, nregs: int, captures: list,
                           shards: list, pool) -> bool:
        """Dispatch one fork-join region; ``False`` defers to the caller's
        sequential loop (nested region or off-owner-thread)."""
        results: list = [None] * len(shards)

        def make_job(i: int, lo: int, hi: int):
            def job():
                # Redirect this thread's stats/stdout to private buffers
                # for the duration of the shard (save/restore nests
                # correctly when the owner thread runs shard 0 while
                # already inside a task context).
                tl = self._tl
                prev_stats = getattr(tl, "stats", None)
                prev_stdout = getattr(tl, "stdout", None)
                tl.stats, tl.stdout = InterpStats(), []
                exc = None
                try:
                    with np.errstate(all="ignore"):
                        self._run(ops, nregs, captures + [lo, hi])
                except Exception as e:
                    exc = e
                finally:
                    results[i] = (tl.stats, tl.stdout, exc)
                    tl.stats, tl.stdout = prev_stats, prev_stdout
            return job

        jobs = [make_job(i, lo, hi) for i, (lo, hi) in enumerate(shards)]
        if not pool.run_region(jobs):
            return False
        self._merge_region_results(results)
        return True

    def _merge_region_results(self, results: list) -> None:
        # Deterministic left-to-right combination: counters, stdout and —
        # on a trap — the identity of the winning trap all match the
        # sequential run.  A shard that trapped stops the merge exactly
        # where the sequential loop would have stopped: shards after it
        # contribute nothing observable (their writes land in disjoint,
        # never-read output regions).
        caller_stats, caller_stdout = self.stats, self.stdout
        for shard_stats, shard_stdout, exc in results:
            caller_stats.merge(shard_stats)
            caller_stdout.extend(shard_stdout)
            if exc is not None:
                raise exc  # first-trap-wins: lowest iteration index

    # -- process-pool regions (S27) -----------------------------------------

    def _pool_run_process(self, fname: str, captures: list, shards: list,
                          ppool) -> list | None:
        """Run one region on the shared-memory process pool: lay every
        capture matrix out in one shared segment, ship ``(lo, hi)`` jobs
        to the forked workers (shard 0 runs here), copy worker writes
        back, and return per-shard results for the ordered merge.
        ``None`` means a worker was lost — nothing was committed."""
        from multiprocessing import shared_memory

        descs: list[tuple] = []
        mats: list[tuple[int, RTMat]] = []  # (byte offset, capture)
        offset = 0
        for c in captures:
            if isinstance(c, RTMat):
                descs.append(("mat", offset, int(c.data.size),
                              c.data.dtype.str, c.kind, tuple(c.dims)))
                mats.append((offset, c))
                # 64-byte alignment keeps adjacent matrices off one
                # cache line (workers write disjoint shards in place).
                offset += (int(c.data.nbytes) + 63) & ~63
            else:
                descs.append(("val", c))
        self._shm_seq += 1
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, offset),
            name=f"reproshard_{os.getpid()}_{self._shm_seq}")
        try:
            for off, mat in mats:
                view = np.ndarray((mat.data.size,), dtype=mat.data.dtype,
                                  buffer=shm.buf, offset=off)
                view[:] = mat.data
                del view
            jobs = [{"fname": fname, "lo": lo, "hi": hi,
                     "shm": shm.name, "descs": descs}
                    for lo, hi in shards]
            self._process_region_active = True
            try:
                results = ppool.run_shards(jobs)
            finally:
                self._process_region_active = False
            if results is None:
                return None
            # Commit: fold worker writes back into the real matrices.
            # (A trapped shard's partial writes commit too, exactly as
            # thread-mode shards write in place before the merge raises.)
            for off, mat in mats:
                view = np.ndarray((mat.data.size,), dtype=mat.data.dtype,
                                  buffer=shm.buf, offset=off)
                mat.data[:] = view
                del view
            return results
        finally:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - stray view held
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def _exec_shard_job(self, job: dict) -> tuple:
        """Execute one shard job (in a forked worker, or inline for
        shard 0): rebuild the captures as numpy views over the shared
        segment, run the lifted body, and return the shard's private
        ``(stats, stdout, exc)``."""
        ops, nregs = self._lifted_fn(job["fname"])
        shm = attach_shm(job["shm"])
        captures: list = []
        try:
            for d in job["descs"]:
                if d[0] == "val":
                    captures.append(d[1])
                else:
                    _, off, count, dstr, kind, dims = d
                    arr = np.ndarray((count,), dtype=np.dtype(dstr),
                                     buffer=shm.buf, offset=off)
                    captures.append(RTMat(kind, dims, arr))
            tl = self._tl
            prev_stats = getattr(tl, "stats", None)
            prev_stdout = getattr(tl, "stdout", None)
            tl.stats, tl.stdout = InterpStats(), []
            exc = None
            try:
                with np.errstate(all="ignore"):
                    self._run(ops, nregs, captures + [job["lo"], job["hi"]])
            except Exception as e:
                # Tracebacks pin frames whose locals reference the shm
                # views (and do not pickle anyway): keep the bare error.
                exc = e.with_traceback(None)
                exc.__context__ = exc.__cause__ = None
            stats, stdout = tl.stats, tl.stdout
            tl.stats, tl.stdout = prev_stats, prev_stdout
            return (stats, stdout, exc)
        finally:
            del captures
            try:
                shm.close()
            except BufferError:  # pragma: no cover - stray view held
                pass

    # -- Cilk tasks ----------------------------------------------------------

    def _spawn(self, target: int | None, callee: str, args: list, frame) -> None:
        # Counted at the spawn point so elided and pooled runs report the
        # same tasks_spawned (the callee's own counters merge later).
        self.stats.tasks_spawned += 1
        pool = self._ensure_pool()
        if pool is not None and self.program.task_parallel_safe(callee):
            def job():
                tl = self._tl
                prev_stats = getattr(tl, "stats", None)
                prev_stdout = getattr(tl, "stdout", None)
                tl.stats, tl.stdout = InterpStats(), []
                try:
                    with np.errstate(all="ignore"):
                        result = self.call_function(callee, args)
                    if target is not None:
                        frame[target] = result
                finally:
                    task_stats = tl.stats
                    tl.stats, tl.stdout = prev_stats, prev_stdout
                    with self._rc_lock:
                        self._task_stats.merge(task_stats)

            task = pool.submit(job)
            if task is not None:
                self.stats.tasks_pooled += 1
                outstanding = getattr(self._tl, "outstanding", None)
                if outstanding is None:
                    outstanding = self._tl.outstanding = []
                outstanding.append(task)
                return
        # Sequential elision: pool saturated/absent or callee not provably
        # safe to move off-thread — run the spawned call inline.
        result = self.call_function(callee, args)
        if target is not None:
            frame[target] = result

    def _sync(self) -> None:
        outstanding = getattr(self._tl, "outstanding", None)
        if not outstanding:
            return
        self._tl.outstanding = []
        pool = self._pool
        for task in outstanding:
            pool.wait_task(task)
        for task in outstanding:  # re-raise in spawn order
            if task.exc is not None:
                raise task.exc


def bind(code: Code, vm: VM) -> list:
    """Thread a :class:`Code` for one VM: one closure per instruction.

    When dispatch specialization is on, unconditional ``jmp`` chains are
    *jump-threaded away*: every control transfer — explicit branch
    targets and implicit fall-throughs alike — is resolved past any run
    of ``jmp`` instructions to its final destination at bind time, so a
    bare ``jmp`` almost never costs a dispatch (the instruction stays in
    the list, merely unreachable).  The generic stream is bound verbatim
    so ``REPRO_NO_QUICKEN=1`` stays a faithful S28 baseline."""
    instrs = code.instrs
    ops: list = []
    end = len(instrs)
    spec = vm._spec

    if spec:
        def thread(j: int) -> int:
            seen = set()
            while j < end and instrs[j][0] == "jmp" and j not in seen:
                seen.add(j)  # a jmp-to-itself loop must keep dispatching
                j = instrs[j][1]
            return j
    else:
        def thread(j: int) -> int:
            return j

    for i, ins in enumerate(instrs):
        op = ins[0]
        nxt = thread(i + 1)
        if spec:
            if op in ("jmp", "jz", "jnz"):
                ins = ins[:-1] + (thread(ins[-1]),)
            elif op == "fastloop":
                ins = (op, ins[1], thread(ins[2]))
            elif op == "si":
                parts = tuple(
                    p[:-1] + (thread(p[-1]),)
                    if p[0] in ("jmp", "jz", "jnz") else p
                    for p in ins[1])
                ins = (op, parts, ins[2])
        if op == "si":
            ops.append(superinstr.bind_super(ins, nxt, end))
        elif spec and op == "intr":
            ops.append(_bind_intr_spec(ins, nxt, vm))
        else:
            ops.append(_bind_one(ins, nxt, end, vm))
    return ops


def _bind_intr_spec(ins: tuple, nxt: int, vm: VM):
    """Arity-specialized intrinsic invocation: the bound method is
    resolved at bind time either way, but small fixed arities skip the
    argument-list build and star-unpack of the generic form."""
    _, d, method, regs = ins
    meth = getattr(vm, method)
    if len(regs) == 1:
        r0, = regs

        def f(frame, d=d, meth=meth, r0=r0, nxt=nxt):
            frame[d] = meth(frame[r0])
            return nxt
    elif len(regs) == 2:
        r0, r1 = regs

        def f(frame, d=d, meth=meth, r0=r0, r1=r1, nxt=nxt):
            frame[d] = meth(frame[r0], frame[r1])
            return nxt
    elif len(regs) == 3:
        r0, r1, r2 = regs

        def f(frame, d=d, meth=meth, r0=r0, r1=r1, r2=r2, nxt=nxt):
            frame[d] = meth(frame[r0], frame[r1], frame[r2])
            return nxt
    else:
        def f(frame, d=d, meth=meth, regs=regs, nxt=nxt):
            frame[d] = meth(*[frame[r] for r in regs])
            return nxt
    return f


def _bind_one(ins: tuple, nxt: int, end: int, vm: VM):
    op = ins[0]

    if op == "const":
        _, d, v = ins

        def f(frame, d=d, v=v, nxt=nxt):
            frame[d] = v
            return nxt
    elif op == "move":
        _, d, a = ins

        def f(frame, d=d, a=a, nxt=nxt):
            frame[d] = frame[a]
            return nxt
    elif op == "+":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = frame[a] + frame[b]
            return nxt
    elif op == "-":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = frame[a] - frame[b]
            return nxt
    elif op == "*":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = frame[a] * frame[b]
            return nxt
    elif op == "/":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = c_div(frame[a], frame[b])
            return nxt
    elif op == "%":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = c_mod(frame[a], frame[b])
            return nxt
    elif op == "<":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = int(frame[a] < frame[b])
            return nxt
    elif op == "<=":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = int(frame[a] <= frame[b])
            return nxt
    elif op == ">":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = int(frame[a] > frame[b])
            return nxt
    elif op == ">=":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = int(frame[a] >= frame[b])
            return nxt
    elif op == "==":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = int(frame[a] == frame[b])
            return nxt
    elif op == "!=":
        _, d, a, b = ins

        def f(frame, d=d, a=a, b=b, nxt=nxt):
            frame[d] = int(frame[a] != frame[b])
            return nxt
    elif op == "neg":
        _, d, a = ins

        def f(frame, d=d, a=a, nxt=nxt):
            frame[d] = -frame[a]
            return nxt
    elif op == "not":
        _, d, a = ins

        def f(frame, d=d, a=a, nxt=nxt):
            frame[d] = int(not frame[a])
            return nxt
    elif op == "bool":
        _, d, a = ins

        def f(frame, d=d, a=a, nxt=nxt):
            frame[d] = int(bool(frame[a]))
            return nxt
    elif op == "jmp":
        _, t = ins

        def f(frame, t=t):
            return t
    elif op == "jz":
        _, c, t = ins

        def f(frame, c=c, t=t, nxt=nxt):
            return nxt if frame[c] else t
    elif op == "jnz":
        _, c, t = ins

        def f(frame, c=c, t=t, nxt=nxt):
            return t if frame[c] else nxt
    elif op == "cast_int":
        _, d, a = ins

        def f(frame, d=d, a=a, nxt=nxt):
            frame[d] = int(frame[a])
            return nxt
    elif op == "cast_f32":
        _, d, a = ins
        f32 = np.float32

        def f(frame, d=d, a=a, nxt=nxt, f32=f32):
            frame[d] = float(f32(frame[a]))
            return nxt
    elif op == "rt_getf":
        _, d, m, i = ins

        def f(frame, d=d, m=m, i=i, nxt=nxt):
            frame[d] = float(frame[m].data[int(frame[i])])
            return nxt
    elif op == "rt_setf":
        _, m, i, v = ins
        f32 = np.float32

        def f(frame, m=m, i=i, v=v, nxt=nxt, f32=f32):
            frame[m].data[int(frame[i])] = f32(frame[v])
            return nxt
    elif op == "rt_geti":
        _, d, m, i = ins

        def f(frame, d=d, m=m, i=i, nxt=nxt):
            frame[d] = int(frame[m].data[int(frame[i])])
            return nxt
    elif op == "rt_seti":
        _, m, i, v = ins

        def f(frame, m=m, i=i, v=v, nxt=nxt):
            frame[m].data[int(frame[i])] = int(frame[v])
            return nxt
    elif op == "rt_dim":
        _, d, m, dim = ins

        def f(frame, d=d, m=m, dim=dim, nxt=nxt):
            frame[d] = int(frame[m].dims[int(frame[dim])])
            return nxt
    elif op == "rt_size":
        _, d, m = ins

        def f(frame, d=d, m=m, nxt=nxt):
            frame[d] = frame[m].size
            return nxt
    elif op == "rc_inc":
        _, a = ins
        inc = vm._rc_inc

        def f(frame, a=a, nxt=nxt, inc=inc):
            inc(frame[a])
            return nxt
    elif op == "rc_dec":
        _, a = ins
        dec = vm._rc_dec

        def f(frame, a=a, nxt=nxt, dec=dec):
            dec(frame[a])
            return nxt
    elif op == "intr":
        _, d, method, regs = ins
        meth = getattr(vm, method)

        def f(frame, d=d, meth=meth, regs=regs, nxt=nxt):
            frame[d] = meth(*[frame[r] for r in regs])
            return nxt
    elif op == "call":
        _, d, name, regs = ins
        call = vm.call_function

        def f(frame, d=d, name=name, regs=regs, nxt=nxt, call=call):
            frame[d] = call(name, [frame[r] for r in regs])
            return nxt
    elif op == "tuple":
        _, d, regs = ins

        def f(frame, d=d, regs=regs, nxt=nxt):
            frame[d] = tuple(frame[r] for r in regs)
            return nxt
    elif op == "tget":
        _, d, src, idx = ins

        def f(frame, d=d, src=src, idx=idx, nxt=nxt):
            frame[d] = frame[src][idx]
            return nxt
    elif op == "pool":
        _, fname, total, caps = ins
        pool = vm._pool_run

        def f(frame, fname=fname, total=total, caps=caps, nxt=nxt, pool=pool):
            pool(fname, int(frame[total]), [frame[r] for r in caps])
            return nxt
    elif op == "spawn":
        _, target, callee, regs = ins
        spawn = vm._spawn

        def f(frame, target=target, callee=callee, regs=regs, nxt=nxt,
              spawn=spawn):
            spawn(target, callee, [frame[r] for r in regs], frame)
            return nxt
    elif op == "sync":
        sync = vm._sync

        def f(frame, nxt=nxt, sync=sync):
            sync()
            return nxt
    elif op == "fastloop":
        _, plan, skip = ins
        run, trips = plan.run, plan.trip_count

        def f(frame, run=run, trips=trips, skip=skip, nxt=nxt, vm=vm):
            # A loop of fewer than MIN_TRIP iterations continues into the
            # scalar loop behind the plan, which is faster there.  Read
            # from the module per execution, so a patched value reaches
            # shard workers too.
            n = trips(frame)
            if n is not None and n < loopfast.MIN_TRIP:
                return nxt
            # vm.stats is a thread-local property: resolve per execution
            # so shard workers record bails into their own buffers.
            return skip if run(frame, vm.stats) else nxt
    elif op == "ret":
        _, r = ins

        def f(frame, r=r, end=end):
            frame[0] = frame[r]
            return end
    elif op == "ret_none":
        def f(frame, end=end):
            frame[0] = None
            return end
    else:  # pragma: no cover - compiler and VM opcode sets move together
        raise InterpError(f"unknown opcode {op!r}")
    return f
