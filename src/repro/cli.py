"""``reproc`` — the extensible-translator command line.

The paper's workflow (§II): pick extensions, get a custom translator,
feed it extended C, get plain parallel C (or a compiled/running program).

Examples::

    reproc program.xc --extensions matrix            # -> program.c
    reproc program.xc -x matrix,transform -o out.c
    reproc program.xc -x matrix --run --threads 4    # gcc-compile and run
    reproc program.xc -x matrix --check              # errors only
    reproc disasm program.xc --ir                    # bytecode + IR stages
    reproc --list-extensions

Static analysis (S25) runs the dataflow passes — definite assignment,
matrix shape/bounds, refcount balance — and the explainable
parallel-safety analysis over one or more programs::

    reproc check program.xc -x matrix                # all passes
    reproc check *.xc --explain-parallel             # why (not) parallel
    reproc check program.xc --werror                 # warnings fail the run

Batch mode (S21 compilation service) compiles many programs through one
shared translator, fanning requests across a worker pool::

    reproc batch a.xc b.xc c.xc -x matrix            # -> a.c b.c c.c
    reproc batch *.xc -j 4 --stats                   # pool of 4 + counters
    reproc batch *.xc --check --out-dir build/

Serving mode (S26) keeps one daemon resident — hot translators, a
supervised worker pool for execution — and scripts against it::

    reproc serve --port 7378 --workers 4             # the daemon
    reproc client run program.xc -x matrix           # execute remotely
    reproc client compile program.xc -o program.c
    reproc client load program.xc -n 64 -c 8         # smoke load
    reproc client stats                              # counters
    reproc client shutdown                           # graceful drain

``--stats`` prints the service counters (translator-cache hits/misses,
persistent-artifact hits, per-stage wall time, serve-daemon request/
coalescing/worker counters).  The translator cache persists generated
LALR tables and scanner DFAs under ``~/.cache/repro`` (override with
``REPRO_CACHE_DIR``; ``REPRO_CACHE_DIR=off`` disables).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def batch_main(argv: list[str]) -> int:
    """``reproc batch`` — compile many .xc files via the compile service."""
    ap = argparse.ArgumentParser(
        prog="reproc batch",
        description="Batch-compile extended-C programs through the "
        "compilation service (shared cached translator, worker pool)",
    )
    ap.add_argument("sources", nargs="+", help="extended-C source files (.xc)")
    ap.add_argument("-x", "--extensions", default="matrix",
                    help="comma-separated extension list (default: matrix)")
    ap.add_argument("-j", "--jobs", type=int, default=4,
                    help="worker threads for the batch pool (default 4)")
    ap.add_argument("--out-dir", help="directory for generated .c files "
                    "(default: next to each source)")
    ap.add_argument("--check", action="store_true",
                    help="semantic analysis only, print errors")
    ap.add_argument("--threads", type=int, default=4,
                    help="thread count baked into generated code (default 4)")
    ap.add_argument("--stats", action="store_true",
                    help="print service counters after the batch")
    ap.add_argument("--no-fusion", action="store_true",
                    help="disable assignment fusion")
    ap.add_argument("--no-slice-elim", action="store_true",
                    help="disable fold slice elimination")
    ap.add_argument("--sequential", action="store_true",
                    help="disable automatic parallelization")
    ap.add_argument("-O", "--opt-level", type=int, choices=(0, 1, 2),
                    default=2,
                    help="mid-level IR optimization level (default 2)")
    args = ap.parse_args(argv)

    from repro.api import Optimizations
    from repro.service import CompileRequest, CompileService
    from repro.service.cache import shared_cache

    paths = [Path(s) for s in args.sources]
    missing = [p for p in paths if not p.exists()]
    for p in missing:
        print(f"reproc: {p}: no such file", file=sys.stderr)
    if missing:
        return 1

    extensions = tuple(e for e in args.extensions.split(",") if e)
    options = Optimizations(
        fuse_assignment=not args.no_fusion,
        eliminate_slices=not args.no_slice_elim,
        parallelize=not args.sequential,
        opt_level=args.opt_level,
    )
    service = CompileService(shared_cache(), max_workers=args.jobs)
    requests = [
        CompileRequest(
            p.read_text(), extensions=extensions, filename=str(p),
            options=options, nthreads=args.threads, check_only=args.check,
        )
        for p in paths
    ]
    responses = service.compile_batch(requests)

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for path, resp in zip(paths, responses):
        if not resp.ok:
            failed += 1
            for e in resp.errors:
                print(e, file=sys.stderr)
            continue
        if args.check:
            print(f"{path}: no errors")
            continue
        out = (out_dir / path.with_suffix(".c").name
               if out_dir is not None else path.with_suffix(".c"))
        out.write_text(resp.c_source)
        print(f"wrote {out} ({resp.timings.total * 1e3:.1f} ms)")

    if args.stats:
        print(service.stats().pretty())
    return 1 if failed else 0


def disasm_main(argv: list[str]) -> int:
    """``reproc disasm`` — dump bytecode (and optionally TAC/SSA IR)."""
    ap = argparse.ArgumentParser(
        prog="reproc disasm",
        description="Disassemble the register bytecode of every function "
        "in a program; --ir additionally dumps the S28 mid-level IR "
        "stages (TAC, SSA, optimized SSA) and per-pass rewrite counts",
    )
    ap.add_argument("source", help="extended-C source file (.xc)")
    ap.add_argument("-x", "--extensions", default="matrix",
                    help="comma-separated extension list (default: matrix)")
    ap.add_argument("--ir", action="store_true",
                    help="show all IR stages, not just final bytecode")
    ap.add_argument("--spec", action="store_true",
                    help="show what the VM runs (S29): each function's "
                    "compiled Python, or why it runs on the closure "
                    "stream")
    ap.add_argument("-O", "--opt-level", type=int, choices=(0, 1, 2),
                    default=2, help="optimization level (default 2)")
    args = ap.parse_args(argv)

    src_path = Path(args.source)
    if not src_path.exists():
        print(f"reproc: {src_path}: no such file", file=sys.stderr)
        return 1

    from repro.api import Optimizations, compile_source
    from repro.cexec.bytecode import BytecodeProgram, compile_function
    from repro.ir import dump_stages

    extensions = [e for e in args.extensions.split(",") if e]
    options = Optimizations(opt_level=args.opt_level)
    result = compile_source(src_path.read_text(), extensions,
                            options=options, filename=str(src_path))
    if result.errors:
        for e in result.errors:
            print(e, file=sys.stderr)
        return 1
    prog = BytecodeProgram(result.lowered, result.ctx)
    names = [(n, False) for n in sorted(prog.functions)] + \
        [(n, True) for n in sorted(prog.lifted_trees)]
    for name, lifted in names:
        params, body = (prog.lifted_trees if lifted else prog.functions)[name]
        tag = " [lifted]" if lifted else ""
        print(f"== {name}{tag} -O{args.opt_level} ==")
        if args.ir:
            stages = dump_stages(compile_function(name, params, body),
                                 args.opt_level)
            for key in ("tac", "ssa", "opt"):
                print(f"-- {key} --")
                print(stages[key])
            if stages["counts"]:
                print(f"-- counts: {stages['counts']} --")
            print("-- bytecode --")
            print(stages["bytecode"])
        elif args.spec:
            from repro.cexec import pyfunc

            code = (prog.lifted_code_for(name) if lifted
                    else prog.code_for(name))
            print(pyfunc.listing(code))
        else:
            code = (prog.lifted_code_for(name) if lifted
                    else prog.code_for(name))
            print(code.dis())
        print()
    return 0


def check_main(argv: list[str]) -> int:
    """``reproc check`` — run the S25 static-analysis passes."""
    ap = argparse.ArgumentParser(
        prog="reproc check",
        description="Statically analyze extended-C programs: definite "
        "assignment, matrix shape/bounds, refcount balance, and "
        "explainable parallel safety",
    )
    ap.add_argument("sources", nargs="+", help="extended-C source files (.xc)")
    ap.add_argument("-x", "--extensions", default="matrix",
                    help="comma-separated extension list (default: matrix)")
    ap.add_argument("--explain-parallel", action="store_true",
                    help="print a verdict per parallel construct, with "
                    "the reason chain for every refusal")
    ap.add_argument("--races", action="store_true",
                    help="print the S30 race analysis: findings with "
                    "witness chains, task clearance, and shard "
                    "disjointness certificates")
    ap.add_argument("--json", action="store_true",
                    help="emit one machine-readable JSON report per "
                    "file instead of text")
    ap.add_argument("--werror", action="store_true",
                    help="treat analysis warnings as errors (exit 1)")
    ap.add_argument("-j", "--jobs", type=int, default=1,
                    help="worker threads for multi-file checks (default 1)")
    ap.add_argument("--threads", type=int, default=4,
                    help="thread count assumed by the compiled form "
                    "(default 4)")
    ap.add_argument("--no-fusion", action="store_true",
                    help="disable assignment fusion")
    ap.add_argument("--no-slice-elim", action="store_true",
                    help="disable fold slice elimination")
    ap.add_argument("--sequential", action="store_true",
                    help="disable automatic parallelization")
    ap.add_argument("--stats", action="store_true",
                    help="print service counters after the run")
    ap.add_argument("-O", "--opt-level", type=int, choices=(0, 1, 2),
                    default=2,
                    help="mid-level IR optimization level (default 2)")
    args = ap.parse_args(argv)

    from repro.api import Optimizations
    from repro.service import CompileRequest, CompileService
    from repro.service.cache import shared_cache

    paths = [Path(s) for s in args.sources]
    missing = [p for p in paths if not p.exists()]
    for p in missing:
        print(f"reproc: {p}: no such file", file=sys.stderr)
    if missing:
        return 1

    extensions = tuple(e for e in args.extensions.split(",") if e)
    options = Optimizations(
        fuse_assignment=not args.no_fusion,
        eliminate_slices=not args.no_slice_elim,
        parallelize=not args.sequential,
        opt_level=args.opt_level,
    )
    service = CompileService(shared_cache(), max_workers=args.jobs)
    requests = [
        CompileRequest(p.read_text(), extensions=extensions,
                       filename=str(p), options=options,
                       nthreads=args.threads)
        for p in paths
    ]
    responses = service.check_batch(requests)

    failed = 0
    for path, resp in zip(paths, responses):
        if not resp.ok:
            failed += 1
            for e in resp.errors:
                print(e, file=sys.stderr)
            continue
        report = resp.report
        if args.json:
            print(report.to_json())
        else:
            print(report.format(explain_parallel=args.explain_parallel,
                                races=args.races))
        if report.error_count or (args.werror and report.warning_count):
            failed += 1
        if args.races and (report.race_count or report.races is None):
            failed += 1
    if args.stats:
        print(service.stats().pretty())
    return 1 if failed else 0


def serve_main(argv: list[str]) -> int:
    """``reproc serve`` — run the persistent compile-and-execute daemon."""
    ap = argparse.ArgumentParser(
        prog="reproc serve",
        description="Serve compile/check/run/stats requests over "
        "HTTP/1.1-framed JSON, keeping translators hot and executing "
        "programs in a supervised worker pool",
    )
    ap.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    ap.add_argument("--port", type=int, default=7378,
                    help="TCP port (default 7378; 0 picks a free port)")
    ap.add_argument("--socket", help="serve on this AF_UNIX socket path "
                    "instead of TCP")
    ap.add_argument("--workers", type=int, default=2,
                    help="executor worker processes (default 2)")
    ap.add_argument("--queue-depth", type=int, default=8,
                    help="admitted requests beyond which new ones get "
                    "429 busy (default 8)")
    ap.add_argument("--timeout", type=float, default=30.0,
                    help="default per-run wall-clock timeout in seconds "
                    "(default 30)")
    ap.add_argument("--max-requests-per-worker", type=int, default=64,
                    help="recycle a worker after this many requests "
                    "(default 64)")
    ap.add_argument("--output-cap", type=int, default=1 << 20,
                    help="per-run stdout cap in bytes (default 1MiB)")
    ap.add_argument("--max-memory-mb", type=int, default=0,
                    help="per-worker address-space cap in MiB "
                    "(default 0 = unlimited)")
    args = ap.parse_args(argv)

    import signal

    from repro.serve.server import ReproServer, ServeConfig

    config = ServeConfig(
        host=args.host, port=args.port, socket_path=args.socket,
        pool_size=args.workers, queue_depth=args.queue_depth,
        default_timeout_s=args.timeout,
        max_requests_per_worker=args.max_requests_per_worker,
        output_cap=args.output_cap,
        max_memory_bytes=args.max_memory_mb << 20,
    )
    server = ReproServer(config)

    def _stop(signum, frame):
        # serve_forever unblocks; its finally-clause drains and closes.
        import threading

        threading.Thread(target=server.stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    server.start()  # binds; resolves port 0 before we announce
    print(f"reproc serve: listening on {server.address} "
          f"({args.workers} workers, queue depth {args.queue_depth})",
          flush=True)
    try:
        server._thread.join()
    finally:
        server.stop()
    print("reproc serve: shut down cleanly", flush=True)
    return 0


def client_main(argv: list[str]) -> int:
    """``reproc client`` — script against a running serve daemon."""
    ap = argparse.ArgumentParser(
        prog="reproc client",
        description="Send compile/check/run/stats/shutdown requests to a "
        "running `reproc serve` daemon; `load` fires a synthetic "
        "multi-client smoke load",
    )
    ap.add_argument("action",
                    choices=("compile", "check", "run", "stats",
                             "shutdown", "load"))
    ap.add_argument("source", nargs="?",
                    help="extended-C source file (.xc); required for "
                    "compile/check/run/load")
    ap.add_argument("-x", "--extensions", default="matrix",
                    help="comma-separated extension list (default: matrix)")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=7378)
    ap.add_argument("--socket", help="connect to an AF_UNIX socket path")
    ap.add_argument("-o", "--output",
                    help="compile: write generated C here (default stdout)")
    ap.add_argument("--threads", type=int, default=1,
                    help="run: interpreter thread count (default 1)")
    ap.add_argument("--timeout", type=float, default=None,
                    help="run: per-request wall-clock timeout in seconds")
    ap.add_argument("--explain-parallel", action="store_true",
                    help="check: include the parallel-safety verdicts")
    ap.add_argument("-n", "--requests", type=int, default=32,
                    help="load: total requests (default 32)")
    ap.add_argument("-c", "--clients", type=int, default=8,
                    help="load: concurrent client threads (default 8)")
    ap.add_argument("--distinct", type=int, default=1,
                    help="load: distinct source variants (default 1 = "
                    "maximal coalescing)")
    ap.add_argument("--load-type", default="compile",
                    choices=("compile", "check", "run"),
                    help="load: request type to fire (default compile)")
    args = ap.parse_args(argv)

    import json

    from repro.serve.client import ServeClient, ServeUnavailable

    client = ServeClient(args.host, args.port, socket_path=args.socket)
    extensions = [e for e in args.extensions.split(",") if e]

    needs_source = args.action in ("compile", "check", "run", "load")
    if needs_source and not args.source:
        ap.error(f"'{args.action}' requires a source file")
    source = Path(args.source).read_text() if needs_source else ""

    try:
        if args.action == "stats":
            body = client.stats()
            print(body["pretty"])
            print(f"uptime: {body['uptime_s']:.1f}s, "
                  f"workers alive: {body['workers_alive']}")
            return 0
        if args.action == "shutdown":
            body = client.shutdown()
            print(body["kind"])
            return 0 if body.get("ok") else 1
        if args.action == "load":
            report = client.load(
                source, extensions, requests=args.requests,
                clients=args.clients, rtype=args.load_type,
                distinct=args.distinct)
            print(json.dumps(report, indent=2))
            return 0 if report["failed"] == 0 else 1
        if args.action == "compile":
            body = client.compile(source, extensions,
                                  filename=args.source)
            if not body.get("ok"):
                for e in body.get("errors", [body.get("error", "?")]):
                    print(e, file=sys.stderr)
                return 1
            if args.output:
                Path(args.output).write_text(body["c_source"])
                print(f"wrote {args.output} "
                      f"({body['elapsed_s'] * 1e3:.1f} ms"
                      f"{', coalesced' if body.get('coalesced') else ''})")
            else:
                sys.stdout.write(body["c_source"])
            return 0
        if args.action == "check":
            body = client.check(source, extensions, filename=args.source,
                                explain_parallel=args.explain_parallel)
            if not body.get("ok"):
                for e in body.get("errors", [body.get("error", "?")]):
                    print(e, file=sys.stderr)
                return 1
            print(body["report"])
            return 1 if body.get("error_count") else 0
        # run
        body = client.run(source, extensions, filename=args.source,
                          nthreads=args.threads, timeout_s=args.timeout)
        for line in body.get("stdout", []):
            print(line)
        if not body.get("ok"):
            msg = body.get("error") or "; ".join(body.get("errors", []))
            print(f"reproc client: {body.get('kind')}: {msg}",
                  file=sys.stderr)
            return 2
        return int(body.get("returncode", 0))
    except ServeUnavailable as e:
        print(f"reproc client: {e}", file=sys.stderr)
        return 1


def _print_interp_stats(stats) -> None:
    """Mirror the C runtime's RT_STATS line, plus the S25 bail ledger."""
    print(f"allocs={stats.allocs} frees={stats.frees} "
          f"copies={stats.copies} "
          f"parallel_regions={stats.parallel_regions} "
          f"tasks_spawned={stats.tasks_spawned}"
          + (f" tasks_pooled={stats.tasks_pooled}"
             if getattr(stats, "tasks_pooled", 0) else ""))
    if stats.region_sizes:
        print("region_sizes=" +
              ",".join(str(n) for n in stats.region_sizes))
    for label, bails in (("fastloop bail", stats.fastloop_bails),
                         ("shard bail", stats.shard_bails),
                         ("compile bail", stats.compile_bails)):
        for reason in sorted(bails):
            print(f"{label}: {reason} x{bails[reason]}")
    if stats.instrs:
        print(f"instrs={stats.instrs}")
    if stats.guards_elided:
        print(f"spec: guards_elided={stats.guards_elided}")
    if stats.opt_counts:
        print("opt: " + " ".join(f"{k}={stats.opt_counts[k]}"
                                 for k in sorted(stats.opt_counts)))


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "batch":
        return batch_main(argv[1:])
    if argv and argv[0] == "check":
        return check_main(argv[1:])
    if argv and argv[0] == "disasm":
        return disasm_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        return client_main(argv[1:])
    ap = argparse.ArgumentParser(
        prog="reproc",
        description="Extensible CMINUS translator (ICPP 2014 reproduction)",
    )
    ap.add_argument("source", nargs="?", help="extended-C source file (.xc)")
    ap.add_argument("-x", "--extensions", default="matrix",
                    help="comma-separated extension list (default: matrix)")
    ap.add_argument("-o", "--output", help="output C file (default: <source>.c)")
    ap.add_argument("--check", action="store_true",
                    help="run semantic analysis only, print errors")
    ap.add_argument("--run", action="store_true",
                    help="execute the program in place (see --engine)")
    ap.add_argument("--engine", choices=("vm", "tree", "native"), default="vm",
                    help="--run engine: register-bytecode VM with numpy-"
                    "batched loops (default), the tree-walking reference "
                    "interpreter, or gcc-compiled native code")
    ap.add_argument("--threads", type=int, default=None,
                    help="worker threads for --run: the VM fork-join pool "
                    "or the native RT_THREADS pool (default: the "
                    "REPRO_THREADS environment variable, else 4)")
    ap.add_argument("--parallel-backend", choices=("thread", "process",
                    "auto"), default=None,
                    help="--run shard backend: the in-process thread pool, "
                    "the shared-memory process pool (S27, safety-gated "
                    "with thread fallback), or auto per-region selection "
                    "(default: REPRO_PARALLEL_BACKEND, else thread)")
    ap.add_argument("--no-fusion", action="store_true",
                    help="disable assignment fusion (§III-A.4 ablation)")
    ap.add_argument("--no-slice-elim", action="store_true",
                    help="disable fold slice elimination (ablation)")
    ap.add_argument("--sequential", action="store_true",
                    help="disable automatic parallelization")
    ap.add_argument("-O", "--opt-level", type=int, choices=(0, 1, 2),
                    default=2,
                    help="mid-level IR optimization level for --run "
                    "(S28): 0 = off, 1 = fold/copy-prop/CSE/DCE, "
                    "2 = + LICM and strength reduction (default 2)")
    ap.add_argument("--stats", action="store_true",
                    help="with --run: print interpreter counters "
                    "(allocs/frees/regions) and the fast-path/shard "
                    "bail reasons after the program exits; with no "
                    "source: print the shared service counters")
    ap.add_argument("--list-extensions", action="store_true",
                    help="list available language extensions")
    args = ap.parse_args(argv)

    from repro.api import Optimizations, compile_source, module_registry

    if args.list_extensions:
        for name, mod in sorted(module_registry().items()):
            kind = "host" if name in ("cminus", "tuples") else "extension"
            req = f" (requires {', '.join(mod.requires)})" if mod.requires else ""
            print(f"  {name:12s} {kind}{req}")
        return 0

    if not args.source:
        if args.stats:
            from repro.service import CompileService
            from repro.service.cache import shared_cache

            print(CompileService(shared_cache()).stats().pretty())
            return 0
        ap.error("a source file is required (or --list-extensions)")
    src_path = Path(args.source)
    if not src_path.exists():
        print(f"reproc: {src_path}: no such file", file=sys.stderr)
        return 1

    from repro.cexec.parallel import resolve_nthreads

    nthreads = resolve_nthreads(args.threads, default=4)
    extensions = [e for e in args.extensions.split(",") if e]
    options = Optimizations(
        fuse_assignment=not args.no_fusion,
        eliminate_slices=not args.no_slice_elim,
        parallelize=not args.sequential,
        opt_level=args.opt_level,
    )
    result = compile_source(
        src_path.read_text(), extensions, options=options,
        nthreads=nthreads, filename=str(src_path),
    )
    if result.errors:
        for e in result.errors:
            print(e, file=sys.stderr)
        return 1
    if args.check:
        print(f"{src_path}: no errors")
        return 0

    out_path = Path(args.output) if args.output else src_path.with_suffix(".c")
    out_path.write_text(result.c_source)
    print(f"wrote {out_path}")

    if args.run:
        if args.engine == "native":
            from repro.cexec.gcc_backend import CompiledProgram, gcc_available

            if not gcc_available():
                print("reproc: --engine native requires gcc", file=sys.stderr)
                return 1
            prog = CompiledProgram(
                result.c_source,
                keep_dir=str(src_path.parent / ".reproc-build"))
            run = prog.run(nthreads=nthreads, collect_stats=args.stats,
                           cwd=src_path.parent)
            sys.stdout.write(run.stdout)
            sys.stderr.write(run.stderr)
            return run.returncode
        from repro.cexec.interp import RAW_TRAPS, RuntimeTrap

        if args.engine == "tree" and nthreads > 1:
            print("reproc: tree engine is sequential; ignoring "
                  f"--threads {nthreads}", file=sys.stderr)
        executor = result.make_engine(engine=args.engine,
                                      workdir=src_path.parent,
                                      nthreads=nthreads,
                                      parallel_backend=args.parallel_backend)
        try:
            rc = executor.run_main()
        except (RuntimeTrap, *RAW_TRAPS) as trap:
            # Out-of-range accesses and arithmetic faults surface from
            # numpy/Python raw; like ``run_limited``, report them as the
            # program's trap, after the output it printed.
            for line in executor.stdout:
                print(line)
            sys.stdout.flush()
            print(f"reproc: runtime error: {trap}", file=sys.stderr)
            return 2  # what the C runtime's exit(2) reports
        finally:
            executor.close()
        for line in executor.stdout:
            print(line)
        if args.stats:
            _print_interp_stats(executor.stats)
        return rc
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
