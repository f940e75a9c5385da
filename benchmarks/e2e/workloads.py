"""Workload passes of the e2e benchmark; runs in the benchmark's child.

``python -m benchmarks.e2e.workloads DIR`` reads ``DIR/config.json``
(written by :mod:`benchmarks.e2e.run`), runs one workload and writes
``DIR/result.json``.  A workload makes three passes:

* the **timed pass**: rounds of source->output work with no wrappers
  installed, in two modes interleaved with alternating order after a
  discarded warm-up round; it gives the end-to-end samples;
* the **traced pass**: the same rounds under the layer wrappers of
  :mod:`benchmarks.e2e.trace`; it gives the per-layer samples;
* the **counting pass**: one sequential round with
  ``REPRO_COUNT_INSTRS=1``; it gives ``vm.instrs``.

Every operation's result is checked; a wrong result is counted, never
raised, so one failure does not end the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from benchmarks.e2e import inputs
from benchmarks.e2e.setup_probe import peak_rss_mb
from benchmarks.e2e.trace import Tracer, install

#: Per-layer time shares of a traced round: metric -> (span, kind), where
#: kind "self" is the span's duration minus its children and "total" its
#: whole duration.
SHARES = {
    "front.parse_pct": ("front.parse", "self"),
    "front.decorate_pct": ("front.decorate", "self"),
    "front.lower_pct": ("front.lower", "self"),
    "codegen.emit_pct": ("codegen.emit", "self"),
    "analysis.check_pct": ("analysis.check", "total"),
    "analysis.initialized_pct": ("analysis.initialized", "self"),
    "analysis.shapes_pct": ("analysis.shapes", "self"),
    "analysis.rcbalance_pct": ("analysis.rcbalance", "self"),
    "analysis.parsafety_pct": ("analysis.parsafety", "self"),
    "analysis.races_pct": ("analysis.races", "self"),
    "bytecode.gen_pct": ("bytecode.gen", "self"),
    "bytecode.guards_pct": ("bytecode.guards", "self"),
    "ir.optimize_pct": ("ir.optimize", "total"),
    "ir.ssa_pct": ("ir.ssa", "self"),
    "ir.dvnt_pct": ("ir.dvnt", "self"),
    "ir.dce_pct": ("ir.dce", "self"),
    "ir.jump_thread_pct": ("ir.jump_thread", "self"),
    "ir.licm_pct": ("ir.licm", "self"),
    "ir.strength_reduce_pct": ("ir.strength_reduce", "self"),
    "spec.fuse_pct": ("spec.fuse", "self"),
    "spec.bind_pct": ("spec.bind", "self"),
    "vm.run_pct": ("vm.run", "total"),
    "vm.dispatch_self_pct": ("vm.run", "self"),
    "loopfast.plan_pct": ("loopfast.plan", "self"),
    "parallel.region_pct": ("parallel.region", "total"),
    "rmat.read_pct": ("rmat.read", "self"),
    "rmat.write_pct": ("rmat.write", "self"),
}

#: Counters every workload reports (0 where it never reaches the layer).
COUNTS = ("codegen.c_bytes", "bytecode.static_instrs", "ir.rewrites",
          "ir.bailouts", "spec.fused", "spec.quickened", "spec.deopts",
          "spec.ic_misses", "spec.guards_elided", "vm.instrs",
          "loopfast.plan_runs", "loopfast.bails", "parallel.regions",
          "parallel.shard_bails", "parallel.process_regions", "rmat.bytes",
          "rt.allocs", "rt.copies", "serve.coalesced", "serve.rejected",
          "serve.worker_restarts")

#: Optimizer rewrite counters summed into ``ir.rewrites``.
IR_REWRITES = ("fold", "copyprop", "cse", "thread", "licm", "strength", "dce")

#: Failure messages kept in the result (the count is always exact).
MAX_FAILURE_MESSAGES = 20


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def op(self, error: str | None) -> bool:
        with self._lock:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.failures) < MAX_FAILURE_MESSAGES:
                    self.failures.append(error)
        return error is None


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def interleaved(run_round, cfg: dict) -> dict:
    """Timed pass: one discarded warm-up round per mode (none in a smoke
    run), then round pairs with alternating mode order for as many pairs
    as fit in ``cfg["seconds"]`` (at least ``cfg["min_rounds"]``).
    ``run_round(mode)`` returns the round's seconds.  Garbage is
    collected before every round so a collection started by the
    previous round is not charged to the next."""
    modes = ("seq", "par")
    for mode in modes if not cfg["smoke"] else ():
        run_round(mode)
    samples: dict[str, list[float]] = {m: [] for m in modes}
    start = time.perf_counter()
    pair_s = 0.0
    i = 0
    while (i < cfg["min_rounds"]
           or time.perf_counter() - start + pair_s <= cfg["seconds"]):
        t0 = time.perf_counter()
        for mode in (modes if i % 2 == 0 else modes[::-1]):
            gc.collect()
            samples[mode].append(run_round(mode))
        pair_s = time.perf_counter() - t0
        i += 1
    return samples


def shares(tracer: Tracer, first: int, last: int, wall_ns: int) -> dict:
    selfs = tracer.self_totals(first, last)
    out = {}
    for metric, (span, kind) in SHARES.items():
        ns = selfs.get(span, 0) if kind == "self" else \
            tracer.total(span, first, last)
        out[metric] = 100.0 * ns / wall_ns
    return out


def traced_pass(tracer: Tracer, run_pair, cfg: dict, timed: dict) -> dict:
    """Run ``cfg["trace_pairs"]`` traced round pairs, then uninstall the
    tracer's wrappers.  ``run_pair()`` returns ``(wall_s, counts)``.
    Returns the layer metrics of each pair's event window and the first
    pair's spans as a Chrome trace."""
    untraced_s = (statistics.median(timed["seq"])
                  + statistics.median(timed["par"]))
    layers = []
    window = (0, 0)
    try:
        for k in range(cfg["trace_pairs"]):
            gc.collect()
            first = len(tracer.events)
            before = dict(tracer.counts)
            wall_s, counts = run_pair()
            last = len(tracer.events)
            if k == 0:
                window = (first, last)
            delta = {n: tracer.counts[n] - before.get(n, 0)
                     for n in tracer.counts}
            m = dict.fromkeys(COUNTS, 0)
            m["serve.wait_pct"] = 0.0
            m.update(shares(tracer, first, last, int(wall_s * 1e9)))
            parse_s = tracer.self_totals(first, last).get("front.parse",
                                                          0) / 1e9
            m["front.chars_per_s"] = (delta.get("front.chars", 0) / parse_s
                                      if parse_s else 0.0)
            runs = delta.get("loopfast.plan_runs", 0)
            m["loopfast.plan_runs"] = runs
            m["loopfast.hit_ratio"] = (delta.get("loopfast.hits", 0) / runs
                                       if runs else 0.0)
            m["rmat.bytes"] = delta.get("rmat.bytes", 0)
            m["codegen.c_bytes"] = delta.get("codegen.c_bytes", 0)
            m["trace.overhead_ratio"] = wall_s / untraced_s
            m.update(counts)
            layers.append(m)
    finally:
        tracer.uninstall()
    return {"layers": layers, "chrome": tracer.chrome(*window)}


def end_to_end(timed: dict, rss_mb: float) -> dict:
    return {"seq_round_s": timed["seq"], "par_round_s": timed["par"],
            "peak_rss_mb": [rss_mb]}


def program_counts(program, executor=None) -> dict:
    """Counters of one compiled program and, when it ran, its executor."""
    oc = program.opt_counts
    out = {
        "ir.rewrites": sum(oc.get(k, 0) for k in IR_REWRITES),
        "ir.bailouts": oc.get("bailouts", 0),
        "spec.fused": oc.get("superinstr", 0),
    }
    if executor is not None:
        stats = executor.stats
        out.update({
            "spec.quickened": stats.quickened,
            "spec.deopts": stats.deopts,
            "spec.ic_misses": stats.ic_misses,
            "spec.guards_elided": stats.guards_elided,
            "loopfast.bails": sum(stats.fastloop_bails.values()),
            "parallel.regions": stats.parallel_regions,
            "parallel.shard_bails": sum(stats.shard_bails.values()),
            "parallel.process_regions": executor.process_regions,
            "rt.allocs": stats.allocs,
            "rt.copies": stats.copies,
        })
    return out


def static_instrs(program) -> int:
    """Optimized bytecode size of every function and pool worker."""
    return (sum(len(program.code_for(f).instrs) for f in program.functions)
            + sum(len(program.lifted_code_for(f).instrs)
                  for f in program.lifted_trees))


def add_counts(total: dict, more: dict) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


# -- ssh-fastloop / scalar-dispatch: corpus programs, source -> output ---------


class ProgramRunner:
    """Runs corpus programs exactly as ``reproc FILE --run`` does:
    ``compile_source`` -> ``make_engine`` -> ``run_main`` -> ``close``."""

    def __init__(self, cfg: dict, ledger: Ledger):
        self.programs = cfg["programs"]
        self.nproc = cfg["nproc"]
        self.ledger = ledger
        # digests[(program, mode)] = first output digest seen
        self.digests: dict[tuple, str] = {}
        # "program/mode" -> runs whose output matched that digest; the
        # parent fails them all if the final output misses its oracle.
        self.ok_runs: dict[str, int] = {}
        # Per-program seconds of the timed pass (None: not recording).
        self.op_times: dict[str, list[float]] | None = {}

    def mode_args(self, mode: str) -> tuple[int, str | None]:
        return (1, None) if mode == "seq" else (self.nproc, "auto")

    def run_one(self, prog: dict, mode: str, tracer: Tracer | None = None,
                counts: dict | None = None) -> float:
        from repro.api import compile_source
        from repro.cexec.interp import RuntimeTrap

        nthreads, backend = self.mode_args(mode)
        workdir = Path(prog["workdir"]) / mode
        out = workdir / prog["output"]
        # Each timed run writes a fresh output file.  Rewriting a file
        # that already exists costs 40-58 ms on a 2-CPU ext4 host (the
        # truncate flushes): default mandelbrot took 0.029 s writing a
        # fresh mandel.data and 0.09-0.10 s rerun in the same directory.
        # Unlinking first, outside the timed region, keeps the
        # filesystem out of the measurement.
        out.unlink(missing_ok=True)
        span = (tracer.span(f"prog.{prog['name']}.{mode}") if tracer
                else nullcontext())
        error = None
        executor = None
        t0 = time.perf_counter()
        with span:
            try:
                cr = compile_source(prog["source"], prog["extensions"],
                                    nthreads=nthreads)
                if cr.errors:
                    error = "; ".join(cr.errors)
                else:
                    executor = cr.make_engine(workdir=workdir,
                                              nthreads=nthreads,
                                              parallel_backend=backend)
                    try:
                        rc = executor.run_main()
                    finally:
                        executor.close()
                    if rc != 0:
                        error = f"exit status {rc}"
            except RuntimeTrap as trap:
                error = f"runtime trap: {trap}"
            except Exception as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if error is None:
            key = (prog["name"], mode)
            got = digest(out)
            want = self.digests.setdefault(key, got)
            if got is None:
                error = f"no {prog['output']} written"
            elif got != want:
                error = "output differs from the first round's"
        if self.ledger.op(f"{prog['name']} {mode}: {error}" if error
                          else None):
            key = f"{prog['name']}/{mode}"
            self.ok_runs[key] = self.ok_runs.get(key, 0) + 1
        if self.op_times is not None:
            self.op_times.setdefault(f"prog.{prog['name']}.{mode}_s",
                                     []).append(dt)
        if counts is not None and executor is not None:
            program = executor.program
            add_counts(counts, program_counts(program, executor))
            if os.environ.get("REPRO_COUNT_INSTRS"):
                add_counts(counts, {"vm.instrs": executor.stats.instrs,
                                    "bytecode.static_instrs":
                                    static_instrs(program)})
        return dt

    def round(self, mode: str, tracer=None, counts=None) -> float:
        return sum(self.run_one(p, mode, tracer, counts)
                   for p in self.programs)

    def check_modes_agree(self) -> None:
        for prog in self.programs:
            seq = self.digests.get((prog["name"], "seq"))
            par = self.digests.get((prog["name"], "par"))
            if seq != par:
                self.ledger.op(f"{prog['name']}: seq and par outputs differ")


def run_programs(cfg: dict, ledger: Ledger) -> dict:
    runner = ProgramRunner(cfg, ledger)
    timed = interleaved(runner.round, cfg)
    warmups = 0 if cfg["smoke"] else 1
    result = {"e2e": end_to_end(timed, peak_rss_mb()),
              "extras": {k: v[warmups:]
                         for k, v in runner.op_times.items()}}
    runner.op_times = None
    if cfg["traced"]:
        tracer = install(Tracer())

        def pair():
            counts: dict = {}
            wall = (runner.round("seq", tracer, counts)
                    + runner.round("par", tracer, counts))
            return wall, counts

        result.update(traced_pass(tracer, pair, cfg, timed))
        counts: dict = {}
        os.environ["REPRO_COUNT_INSTRS"] = "1"
        try:
            runner.round("seq", counts=counts)
        finally:
            del os.environ["REPRO_COUNT_INSTRS"]
        for m in result["layers"]:
            m["vm.instrs"] = counts.get("vm.instrs", 0)
            m["bytecode.static_instrs"] = counts.get(
                "bytecode.static_instrs", 0)
        if not cfg["smoke"]:
            result["extras"].update(native_reference(cfg))
    runner.check_modes_agree()
    result["ok_runs"] = runner.ok_runs
    return result


def native_reference(cfg: dict) -> dict:
    """The gcc-compiled C of each program (the paper's toolchain): build
    and run seconds at nthreads=nproc.  A reference ceiling only."""
    import shutil

    from repro.api import compile_source
    from repro.cexec.gcc_backend import BackendError, CompiledProgram

    if shutil.which("gcc") is None:
        return {}
    build = run = 0.0
    for prog in cfg["programs"]:
        src_dir = Path(prog["workdir"]) / "seq"
        build_dir = Path(prog["workdir"]) / "native"
        cr = compile_source(prog["source"], prog["extensions"],
                            nthreads=cfg["nproc"])
        t0 = time.perf_counter()
        try:
            compiled = CompiledProgram(cr.c_source, keep_dir=str(build_dir))
        except BackendError:
            return {}
        build += time.perf_counter() - t0
        for f in src_dir.iterdir():
            if f.name != prog["output"]:
                shutil.copy(f, build_dir / f.name)
        t0 = time.perf_counter()
        compiled.run(nthreads=cfg["nproc"], collect_stats=False)
        run += time.perf_counter() - t0
    return {"native.build_s": [build], "native.run_s": [run]}


# -- compile-stream: translation units, no execution ---------------------------


def run_compile(cfg: dict, ledger: Ledger) -> dict:
    from repro.service import CompileRequest, CompileService
    from repro.service.cache import shared_cache

    service = CompileService(shared_cache())
    units = inputs.compile_units(cfg["seed"])
    c_digests: dict[int, str] = {}
    passes = [0]

    def one(index: int, pass_no: int, counts: dict | None) -> None:
        label, extensions, source = units[index]
        # A per-pass comment changes the source digest, so the analysis
        # report LRU never serves a unit from an earlier pass.
        req = CompileRequest(f"{source}\n// pass {pass_no}\n",
                             extensions=extensions, filename=f"{label}.xc")
        error = None
        try:
            checked = service.check(req)
            if not checked.ok:
                error = "; ".join(checked.errors)
            elif checked.report.error_count:
                error = f"{checked.report.error_count} check errors"
            else:
                compiled = service.compile(req)
                if not compiled.ok:
                    error = "; ".join(compiled.errors)
                else:
                    program = compiled.result.bytecode()
                    for name in program.functions:
                        program.spec_code_for(name)
                    got = hashlib.sha256(
                        compiled.c_source.encode()).hexdigest()
                    if c_digests.setdefault(index, got) != got:
                        error = "C output differs from the first pass's"
                    if counts is not None:
                        add_counts(counts, program_counts(program))
                        add_counts(counts, {"bytecode.static_instrs":
                                            static_instrs(program)})
        except Exception as exc:  # counted as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        ledger.op(f"{label}: {error}" if error else None)

    def run_pass(mode: str, counts: dict | None = None) -> float:
        pass_no = passes[0]
        passes[0] += 1
        t0 = time.perf_counter()
        if mode == "seq":
            for i in range(len(units)):
                one(i, pass_no, counts)
        else:
            with ThreadPoolExecutor(cfg["nproc"],
                                    thread_name_prefix="e2e-unit") as pool:
                for _ in pool.map(lambda i: one(i, pass_no, counts),
                                  range(len(units))):
                    pass
        return time.perf_counter() - t0

    timed = interleaved(run_pass, cfg)
    result = {"e2e": end_to_end(timed, peak_rss_mb()),
              "extras": {"compile.units_per_s":
                         [len(units) / t for t in timed["seq"]]}}
    if cfg["traced"]:
        tracer = install(Tracer())

        def pair():
            counts: dict = {}
            wall = run_pass("seq", counts) + run_pass("par", counts)
            return wall, counts

        result.update(traced_pass(tracer, pair, cfg, timed))
    return result


# -- serve-mix: the daemon under closed- and open-loop load --------------------


class Daemon:
    """``reproc serve`` as a subprocess on a free port."""

    def __init__(self, env: dict, workers: int = 2):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(workers)],
            stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.proc.kill()
            self.proc.wait(timeout=10)
            self.proc.stdout.close()
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0]
                        .rsplit(":", 1)[1])

    def stop(self) -> None:
        from repro.serve.client import ServeClient, ServeUnavailable

        if self.proc.poll() is None:
            try:
                ServeClient(port=self.port, timeout_s=10).shutdown()
            except ServeUnavailable:
                self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()


class ServeMix:
    """The seeded request mix against one daemon, every response checked
    against the in-process library result for the same request."""

    def __init__(self, cfg: dict, ledger: Ledger, client):
        # A smoke run sends one mix per round: the check, not the timing.
        self.round = inputs.serve_round(cfg["seed"],
                                        1 if cfg["smoke"] else
                                        inputs.SERVE_MIXES_PER_ROUND)
        self.ledger = ledger
        self.client = client
        self.expected = self._expected()
        self.issued = 0
        self._lock = threading.Lock()

    def _expected(self) -> dict:
        from repro.api import compile_source, run_source
        from repro.eddy import temporal_mean

        out = {}
        for req in self.round:
            if req["key"] in out:
                continue
            if req["type"] == "compile":
                # A request's thread count (default 1) is baked into its C.
                out[req["key"]] = compile_source(req["source"], ["matrix"],
                                                 nthreads=1).c_source
                continue
            rc, outs, _stats, ex = run_source(
                req["source"], ["matrix"], req["inputs"],
                output_names=[req["output"]])
            want = outs[req["output"]]
            if req["output"] == "means.data" and not np.allclose(
                    want, temporal_mean(req["inputs"]["ssh.data"]),
                    atol=1e-5):
                raise RuntimeError("library fig1 disagrees with numpy")
            out[req["key"]] = (rc, ex.stdout, want)
        return out

    def send(self, req: dict, spans: Tracer | None = None) -> dict | None:
        """One request; returns the checked response body (None when it
        failed).  Every request carries a unique comment, so no two are
        coalesced and every one does the full work."""
        with self._lock:
            self.issued += 1
            tag = self.issued
        source = f"{req['source']}\n// request {tag}\n"
        error = None
        body = None
        with (spans.span(f"serve.{req['type']}") if spans
              else nullcontext()):
            try:
                if req["type"] == "compile":
                    body = self.client.compile(source, ["matrix"])
                else:
                    body = self.client.run(
                        source, ["matrix"],
                        inputs={k: v.tolist()
                                for k, v in req["inputs"].items()},
                        output_names=[req["output"]])
            except Exception as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
        if error is None:
            error = self._check(req, body)
        self.ledger.op(f"{req['key']}: {error}" if error else None)
        return body if error is None else None

    def _check(self, req: dict, body: dict) -> str | None:
        if body.get("_status") != 200 or not body.get("ok"):
            return f"HTTP {body.get('_status')} {body.get('kind')}: " \
                   f"{body.get('error') or body.get('errors')}"
        want = self.expected[req["key"]]
        if req["type"] == "compile":
            return None if body["c_source"] == want else "C output differs"
        rc, stdout, arr = want
        got = np.asarray(body["outputs"].get(req["output"]),
                         dtype=arr.dtype)
        if body.get("returncode") != rc or body.get("stdout") != stdout:
            return "exit status or stdout differs"
        if got.shape != arr.shape or not (got == arr).all():
            return "output differs from the library result"
        return None

    def closed_round(self, clients: int, spans=None,
                     bodies: list | None = None) -> float:
        """The whole round from ``clients`` closed-loop clients, each
        sending its next request when the previous reply arrives."""
        todo: queue.SimpleQueue = queue.SimpleQueue()
        for req in self.round:
            todo.put(req)

        def client_loop():
            while True:
                try:
                    req = todo.get_nowait()
                except queue.Empty:
                    return
                t0 = time.perf_counter()
                body = self.send(req, spans)
                if bodies is not None and body is not None:
                    bodies.append((req, body, time.perf_counter() - t0))

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client_loop)
                   for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0

    def open_loop(self, rate: float, seconds: float, senders: int) -> dict:
        """Requests due every ``1/rate`` s regardless of replies, sent by
        ``senders`` connections; latency counts from the due time, so a
        stall also charges the requests queued behind it."""
        due_q: queue.Queue = queue.Queue()
        lat, worker, late = [], [], []
        lock = threading.Lock()
        n = int(rate * seconds)

        def scheduler():
            start = time.perf_counter()
            for i in range(n):
                due = start + i / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                late.append(time.perf_counter() - due)
                due_q.put((due, self.round[i % len(self.round)]))
            for _ in range(senders):
                due_q.put(None)

        def sender():
            while True:
                item = due_q.get()
                if item is None:
                    return
                due, req = item
                body = self.send(req)
                done = time.perf_counter()
                if body is not None:
                    with lock:
                        lat.append(done - due)
                        worker.append(body["elapsed_s"])

        threads = [threading.Thread(target=scheduler)] + [
            threading.Thread(target=sender) for _ in range(senders)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if not lat:
            return {}
        ms = sorted(x * 1e3 for x in lat)
        q = statistics.quantiles(ms, n=100) if len(ms) > 1 else ms * 99
        return {
            "serve.p50_ms": [statistics.median(ms)],
            "serve.p95_ms": [q[94]],
            "serve.p99_ms": [q[98]],
            "serve.n": [len(ms)],
            "serve.worker_ms": [statistics.median(worker) * 1e3],
            "serve.wait_ms": [statistics.median(
                a - w for a, w in zip(lat, worker)) * 1e3],
            "serve.gen_late_ms": [max(late) * 1e3],
        }


def run_serve(cfg: dict, ledger: Ledger) -> dict:
    from repro.serve.client import ServeClient

    daemon = Daemon(dict(os.environ))
    try:
        client = ServeClient(port=daemon.port, timeout_s=60)
        mix = ServeMix(cfg, ledger, client)
        clients = {"seq": 1, "par": cfg["nproc"]}
        timed = interleaved(lambda mode: mix.closed_round(clients[mode]),
                            cfg)
        result = {"e2e": end_to_end(timed, peak_rss_mb(daemon.proc.pid)),
                  "extras": {"serve.capacity_rps":
                             [len(mix.round) / t for t in timed["par"]]}}
        if cfg["traced"]:
            tracer = Tracer()  # spans around requests; nothing to wrap

            def pair():
                before = client.stats()["stats"]
                bodies: list = []
                wall = (mix.closed_round(1, tracer, bodies)
                        + mix.closed_round(cfg["nproc"], tracer, bodies))
                after = client.stats()["stats"]
                return wall, serve_counts(before, after, bodies, wall)

            result.update(traced_pass(tracer, pair, cfg, timed))
            result["extras"].update(mix.open_loop(
                cfg["open_loop_rps"], cfg["open_loop_s"], cfg["nproc"]))
    finally:
        daemon.stop()
    return result


def serve_counts(before: dict, after: dict, bodies: list, wall_s: float
                 ) -> dict:
    """Per-layer numbers of a traced serve round pair.  The daemon's
    stage timers cover its in-process compiles; the shares are taken of
    the round pair's wall time like every other workload's."""
    d = {k: after[k] - before[k] for k in after
         if isinstance(after[k], (int, float))}
    compiles = [(req, body) for req, body, _lat in bodies
                if req["type"] == "compile"]
    chars = sum(len(req["source"]) for req, _ in compiles)
    latency = sum(lat for _req, _body, lat in bodies)
    worker = sum(body["elapsed_s"] for _req, body, _lat in bodies)
    return {
        "front.parse_pct": 100 * d["parse_s"] / wall_s,
        "front.decorate_pct": 100 * d["decorate_s"] / wall_s,
        "front.lower_pct": 100 * d["lower_s"] / wall_s,
        "codegen.emit_pct": 100 * d["emit_s"] / wall_s,
        "front.chars_per_s": chars / d["parse_s"] if d["parse_s"] else 0.0,
        "codegen.c_bytes": sum(len(b["c_source"]) for _, b in compiles),
        "rt.allocs": sum(b.get("stats", {}).get("allocs", 0)
                         for _r, b, _l in bodies),
        "serve.wait_pct": (100 * (latency - worker) / latency
                           if latency else 0.0),
        "serve.coalesced": d["serve_coalesced"],
        "serve.rejected": d["serve_rejections"],
        "serve.worker_restarts": d["serve_worker_restarts"],
    }


RUNNERS = {
    "ssh-fastloop": run_programs,
    "scalar-dispatch": run_programs,
    "compile-stream": run_compile,
    "serve-mix": run_serve,
}


def main(argv: list[str]) -> int:
    workdir = Path(argv[0])
    cfg = json.loads((workdir / "config.json").read_text())
    ledger = Ledger()
    result = RUNNERS[cfg["workload"]](cfg, ledger)
    chrome = result.pop("chrome", None)
    if chrome is not None and cfg.get("trace_out"):
        out = Path(cfg["trace_out"]) / f"{cfg['workload']}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(chrome))
    result.update(attempted=ledger.attempted, failed=ledger.failed,
                  failures=ledger.failures)
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
