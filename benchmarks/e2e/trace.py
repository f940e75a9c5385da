"""Outside-in span tracer for the e2e benchmark.

The traced pass wraps public functions of each translator layer from the
benchmark's side: :func:`install` swaps module or class attributes for
timing wrappers and :meth:`Tracer.uninstall` restores them, so no source
file of the system changes.  Every wrapped call records one span on a
thread-local stack, so nesting (and therefore self time: a span's
duration minus its children) is kept per thread, and pool-thread shards
get their own ``tid``.  Spans stay in memory; :meth:`Tracer.chrome`
exports them as Chrome trace-event JSON.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

#: (module, attribute path, span name): the layer boundaries the traced
#: pass wraps.  Names resolve at install time; every one is looked up by
#: its caller at call time, so the wrapper is what runs.
LAYER_PATCHES = (
    ("repro.analysis.report", "analyze_result", "analysis.check"),
    ("repro.analysis.report", "check_initialized", "analysis.initialized"),
    ("repro.analysis.report", "check_shapes", "analysis.shapes"),
    ("repro.analysis.report", "check_rc_balance", "analysis.rcbalance"),
    ("repro.analysis.report", "analyze_parallel", "analysis.parsafety"),
    ("repro.analysis.races", "race_analysis_for", "analysis.races"),
    ("repro.cexec.bytecode", "compile_function", "bytecode.gen"),
    ("repro.analysis.shapes", "proven_in_range", "bytecode.guards"),
    ("repro.ir", "optimize_code", "ir.optimize"),
    ("repro.ir.pipeline", "build_ssa", "ir.ssa"),
    ("repro.ir.pipeline", "destroy_ssa", "ir.ssa"),
    ("repro.ir.passes", "dvnt", "ir.dvnt"),
    ("repro.ir.passes", "dce", "ir.dce"),
    ("repro.ir.passes", "jump_thread", "ir.jump_thread"),
    ("repro.ir.passes", "licm", "ir.licm"),
    ("repro.ir.passes", "strength_reduce", "ir.strength_reduce"),
    ("repro.cexec.superinstr", "fuse", "spec.fuse"),
    ("repro.cexec.vm", "bind", "spec.bind"),
    ("repro.cexec.vm", "VM.run_main", "vm.run"),
    ("repro.cexec.parallel", "ProcessShardPool.run_shards", "parallel.region"),
)


class Tracer:
    """Nested spans on ``perf_counter_ns`` plus named counters.

    An event is ``(name, start_ns, dur_ns, self_ns, tid)``; appending to
    a list is atomic under the interpreter lock, so pool threads record
    without a lock of their own.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._count_lock = threading.Lock()
        self.pid = os.getpid()
        self._tls = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
            self._tls.tid = threading.get_native_id()
        return st

    def begin(self) -> int:
        self._stack().append(0)
        return perf_counter_ns()

    def end(self, name: str, t0: int) -> None:
        dur = perf_counter_ns() - t0
        st = self._tls.stack
        child = st.pop()
        if st:
            st[-1] += dur
        self.events.append((name, t0, dur, dur - child, self._tls.tid))

    @contextmanager
    def span(self, name: str):
        t0 = self.begin()
        try:
            yield
        finally:
            self.end(name, t0)

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            t0 = begin()
            try:
                return fn(*args, **kwargs)
            finally:
                end(name, t0)

        return traced

    def count(self, name: str, n: float = 1) -> None:
        with self._count_lock:  # shards count from pool threads
            self.counts[name] += n

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation and export ------------------------------------------------

    def self_totals(self, first: int = 0, last: int | None = None
                    ) -> dict[str, int]:
        """Self nanoseconds per span name over ``events[first:last]``."""
        out: dict[str, int] = defaultdict(int)
        for name, _t0, _dur, self_ns, _tid in self.events[first:last]:
            out[name] += self_ns
        return out

    def total(self, name: str, first: int = 0, last: int | None = None
              ) -> int:
        """Inclusive nanoseconds of the ``name`` spans in a window."""
        return sum(e[2] for e in self.events[first:last] if e[0] == name)

    def chrome(self, first: int = 0, last: int | None = None) -> dict:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        window = self.events[first:last]
        base = min((e[1] for e in window), default=0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"name": name, "ph": "X", "pid": self.pid, "tid": tid,
                 "ts": (t0 - base) / 1e3, "dur": dur / 1e3,
                 "args": {"self_us": self_ns / 1e3}}
                for name, t0, dur, self_ns, tid in window
            ],
        }


def _owner_and_attr(module: str, path: str):
    import importlib

    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary; returns ``tracer`` for chaining.

    Besides the plain wrappers in :data:`LAYER_PATCHES`, these boundaries
    need a little more than a span:

    * ``Translator.parse``/``emit_c`` count source characters and C bytes;
    * ``Translator.decorate`` returns before the attribute grammar does
      any work (evaluation is demand-driven), so the returned root is
      proxied: its ``att("errors")`` is the decorate span and
      ``att("lowered")`` the lower span;
    * ``Plan.run`` counts runs and hits (``True`` = the numpy plan ran);
    * ``WorkerPool.run_region`` wraps each shard closure, so shards that
      run on pool threads record spans under their own thread id;
    * ``read_rmat``/``write_rmat`` count matrix bytes moved.
    """
    from repro.cexec import interp, loopfast, parallel
    from repro.driver import Translator

    for module, path, name in LAYER_PATCHES:
        owner, attr = _owner_and_attr(module, path)
        tracer.patch(owner, attr, tracer.wrap(name, owner.__dict__[attr]))

    orig_parse = tracer.wrap("front.parse", Translator.parse)

    def parse(self, source, filename="<input>"):
        tracer.count("front.chars", len(source))
        return orig_parse(self, source, filename)

    tracer.patch(Translator, "parse", parse)

    orig_emit = tracer.wrap("codegen.emit", Translator.emit_c)

    def emit_c(self, lowered, ctx):
        c_source = orig_emit(self, lowered, ctx)
        tracer.count("codegen.c_bytes", len(c_source))
        return c_source

    tracer.patch(Translator, "emit_c", emit_c)

    orig_decorate = Translator.decorate

    def decorate(self, root, ctx=None):
        dn, ctx = orig_decorate(self, root, ctx)
        return _DecoratedRoot(dn, tracer), ctx

    tracer.patch(Translator, "decorate", decorate)

    plan_run = tracer.wrap("loopfast.plan", loopfast.Plan.run)

    def run(self, frame, stats=None):
        ok = plan_run(self, frame, stats)
        tracer.count("loopfast.plan_runs")
        if ok:
            tracer.count("loopfast.hits")
        return ok

    tracer.patch(loopfast.Plan, "run", run)

    region = tracer.wrap("parallel.region", parallel.WorkerPool.run_region)

    def run_region(self, shards):
        return region(self, [tracer.wrap("parallel.shard", s)
                             for s in shards])

    tracer.patch(parallel.WorkerPool, "run_region", run_region)

    read = tracer.wrap("rmat.read", interp.read_rmat)
    write = tracer.wrap("rmat.write", interp.write_rmat)

    def read_rmat(path):
        arr = read(path)
        tracer.count("rmat.bytes", arr.nbytes)
        return arr

    def write_rmat(path, arr):
        tracer.count("rmat.bytes", arr.nbytes)
        return write(path, arr)

    tracer.patch(interp, "read_rmat", read_rmat)
    tracer.patch(interp, "write_rmat", write_rmat)
    return tracer


class _DecoratedRoot:
    """The decorated tree root, with its two demand points timed."""

    __slots__ = ("_dn", "_tracer")

    _SPANS = {"errors": "front.decorate", "lowered": "front.lower"}

    def __init__(self, dn, tracer: Tracer):
        self._dn = dn
        self._tracer = tracer

    def att(self, name: str):
        with self._tracer.span(self._SPANS[name]):
            return self._dn.att(name)
