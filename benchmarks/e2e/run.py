"""The end-to-end benchmark: source text -> checked program output.

Run from the repository root, in one of two ways:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T``
    One workload.  The last line of standard output is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
    (names, units and bounds are declared in ``BENCHMARK.json``).

``PYTHONPATH=src python -m benchmarks.e2e [--smoke] [--seed N]
[--workload W] [--trace-out DIR] [--out FILE]``
    Every workload (or one) with all three passes.  Prints a table and
    writes the record -- medians with quartiles, sample counts and the
    samples themselves -- to ``FILE`` (default ``results.json``, or
    ``smoke.json`` with ``--smoke``, both in this directory).  Compare
    two records with ``python -m benchmarks.e2e.compare OLD NEW``.

Each workload runs in child processes of its own
(:mod:`benchmarks.e2e.workloads`, see :class:`Settings`), after five
fresh processes have timed set-up (:mod:`benchmarks.e2e.setup_probe`).
Inputs come from the seed; outputs are checked against independent
oracles here, after each child has exited.  Everything is written under
a scratch directory in this directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "benchmarks" / "e2e"
WORK_ROOT = HERE / ".work"

WORKLOADS = ("ssh-fastloop", "scalar-dispatch", "compile-stream",
             "serve-mix")
PROGRAM_WORKLOADS = ("ssh-fastloop", "scalar-dispatch")

#: Units of the record-only metrics (workload-specific, so not declared
#: in BENCHMARK.json, whose metrics every workload reports).
EXTRA_UNITS = {
    "compile.units_per_s": "units/s",
    "serve.capacity_rps": "req/s",
    "serve.p50_ms": "ms", "serve.p95_ms": "ms", "serve.p99_ms": "ms",
    "serve.n": "count", "serve.worker_ms": "ms", "serve.wait_ms": "ms",
    "serve.gen_late_ms": "ms",
    "native.build_s": "s", "native.run_s": "s",
}

#: Open-loop request rate for serve-mix: about 60% of the ~130 req/s a
#: 2-worker daemon sustains on 2 CPUs, so a slowdown shows as queueing.
OPEN_LOOP_RPS = 80.0

#: Wall-clock budget for a workload's child processes.
CHILD_BUDGET_S = 150.0


class Settings:
    """How long and how often one workload run measures.

    The timed pass is split over ``processes`` child processes, run one
    after another.  On a shared 2-CPU host the same work runs up to 15%
    faster or slower from one process to the next (collector time
    follows the memory layout a process happens to get), so the median
    over several processes moves less than any one process's median.
    serve-mix uses one: its daemon already replaces each worker process
    every 64 runs, and its rounds are long.  Only the last process makes
    the traced and counting passes."""

    def __init__(self, *, seconds: float, traced: bool, smoke: bool,
                 timed_share: float = 1.0, processes: int = 3):
        self.traced = traced
        self.smoke = smoke
        self.processes = 1 if smoke else processes
        self.setup_runs = 2 if smoke else 5
        self.min_rounds = 1 if smoke else 2
        self.trace_pairs = 1 if smoke else 2
        self.timed_s = timed_share * seconds
        # 3 s at 80 req/s is 240 requests: 12 beyond the 95th percentile.
        self.open_loop_s = max(1.0, 0.3 * seconds)

    def processes_for(self, workload: str) -> int:
        return 1 if workload == "serve-mix" else self.processes


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(work: Path, cache: Path) -> dict:
    """The environment of every process the benchmark starts: the
    checkout's sources, a private artifact cache and scratch directory,
    and none of the caller's ``REPRO_*`` settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               REPRO_CACHE_DIR=str(cache), TMPDIR=str(work / "tmp"))
    return env


def run_bounded(cmd: list[str], env: dict, timeout: float) -> None:
    """Run ``cmd`` in its own session; on timeout kill the whole session
    (the child's daemon and pool workers included)."""
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{cmd[3]} timed out after {timeout:.0f} s")
    if rc != 0:
        raise RuntimeError(f"{cmd[3]} exited with status {rc}")


# -- set-up ------------------------------------------------------------------


def translator_configs(workload: str, programs, nproc: int) -> list:
    from benchmarks.e2e import inputs

    if workload == "compile-stream":
        # CompileRequest's default thread count.
        exts = {("matrix",)} | set(inputs.EXTENSIONS.values())
        return [[list(e), 4] for e in sorted(exts)]
    exts = sorted({tuple(p.extensions) for p in programs})
    return [[list(e), n] for e in exts for n in sorted({1, nproc})]


def setup_sample(workload: str, work: Path, i: int, configs: list) -> dict:
    """One set-up measurement in a fresh process with an empty artifact
    cache: until the translators are built, or for serve-mix until the
    daemon has answered its first run."""
    env = child_env(work, work / f"setup-cache-{i}")
    if workload == "serve-mix":
        from benchmarks.e2e import inputs
        from benchmarks.e2e.setup_probe import peak_rss_mb
        from benchmarks.e2e.workloads import Daemon
        from repro.serve.client import ServeClient

        t0 = time.perf_counter()
        daemon = Daemon(env)
        try:
            t1 = time.perf_counter()
            body = ServeClient(port=daemon.port, timeout_s=60).run(
                inputs.mandelbrot_source(*inputs.MANDEL_VARIANTS[0]))
            t2 = time.perf_counter()
            rss = peak_rss_mb(daemon.proc.pid)
        finally:
            daemon.stop()
        if not body.get("ok"):
            raise RuntimeError(f"set-up run failed: {body}")
        return {"setup_s": t2 - t0, "setup.import_s": t1 - t0,
                "setup.translator_s": t2 - t1, "setup.rss_mb": rss}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.setup_probe",
         json.dumps(configs)], stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or not line:
        raise RuntimeError("set-up probe failed")
    info = json.loads(line)
    return {"setup_s": elapsed,
            "setup.import_s": elapsed - info["translator_s"],
            "setup.translator_s": info["translator_s"],
            "setup.rss_mb": info["rss_mb"]}


# -- one workload --------------------------------------------------------------


def run_workload(workload: str, seed: int, settings: Settings,
                 trace_out: str | None) -> dict:
    """Set-up samples, the children's passes and the oracle checks of one
    workload; returns the merged record (samples, counts, failures)."""
    from benchmarks.e2e import inputs
    from repro.cexec.rmat import read_rmat, write_rmat

    nproc = os.cpu_count() or 1
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        (work / "tmp").mkdir()
        programs = (inputs.programs(workload, seed)
                    if workload in PROGRAM_WORKLOADS else [])
        configs = translator_configs(workload, programs, nproc)
        setup = [setup_sample(workload, work, i, configs)
                 for i in range(settings.setup_runs)]
        processes = settings.processes_for(workload)
        cfg = {
            "workload": workload, "seed": seed, "nproc": nproc,
            "seconds": settings.timed_s / processes,
            "min_rounds": settings.min_rounds, "smoke": settings.smoke,
            "trace_pairs": settings.trace_pairs,
            "open_loop_rps": OPEN_LOOP_RPS,
            "open_loop_s": settings.open_loop_s,
            "trace_out": str(Path(trace_out).resolve()) if trace_out
            else None,
            "programs": [],
        }
        for prog in programs:
            pdir = work / "run" / prog.name
            for mode in ("seq", "par"):
                (pdir / mode).mkdir(parents=True)
                for fname, arr in prog.inputs.items():
                    write_rmat(pdir / mode / fname, arr)
            cfg["programs"].append({
                "name": prog.name, "source": prog.source,
                "extensions": prog.extensions, "output": prog.output,
                "workdir": str(pdir)})
        oracles = {prog.name: inputs.oracle(prog) for prog in programs}
        deadline = time.monotonic() + CHILD_BUDGET_S
        records = []
        for k in range(processes):
            cfg["traced"] = settings.traced and k == processes - 1
            (work / "config.json").write_text(json.dumps(cfg))
            run_bounded([sys.executable, "-m", "benchmarks.e2e.workloads",
                         str(work)], child_env(work, work / "cache"),
                        deadline - time.monotonic())
            record = json.loads((work / "result.json").read_text())
            for prog in programs:
                for mode in ("seq", "par"):
                    key = f"{prog.name}/{mode}"
                    try:
                        got = read_rmat(work / "run" / prog.name / mode
                                        / prog.output)
                    except FileNotFoundError:
                        continue  # its runs were already counted as failed
                    error = oracles[prog.name](got)
                    if error is not None:
                        record["failed"] += record["ok_runs"].get(key, 0)
                        record["failures"].append(f"{key}: {error}")
            records.append(record)
        merged = merge(records)
        merged["setup"] = setup
        return merged
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def merge(records: list[dict]) -> dict:
    """One record from the children's: counts add, samples concatenate,
    and the per-layer samples come from the traced child."""
    out = {"attempted": 0, "failed": 0, "failures": [], "e2e": {},
           "extras": {}, "layers": []}
    for r in records:
        out["attempted"] += r["attempted"]
        out["failed"] += r["failed"]
        out["failures"] += r["failures"]
        for part in ("e2e", "extras"):
            for name, values in r[part].items():
                out[part].setdefault(name, []).extend(values)
        out["layers"] += r.get("layers", [])
    return out


# -- summaries -----------------------------------------------------------------


def summary(values: list[float]) -> dict:
    values = [float(v) for v in values]
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def metric_samples(record: dict) -> tuple[dict, dict]:
    """``(end_to_end, per_layer)``: every metric's samples by name."""
    e2e = dict(record["e2e"])
    e2e["setup_s"] = [s["setup_s"] for s in record["setup"]]
    layers: dict[str, list] = {}
    for m in record.get("layers", []):
        for name, value in m.items():
            layers.setdefault(name, []).append(value)
    for name in ("setup.import_s", "setup.translator_s", "setup.rss_mb"):
        layers[name] = [s[name] for s in record["setup"]]
    for name, values in record.get("extras", {}).items():
        if values:
            layers[name] = values
    return e2e, layers


def driver_line(record: dict, bench: dict, traced: bool) -> dict:
    e2e, layers = metric_samples(record)
    wanted = bench["per_layer"] if traced else bench["end_to_end"]
    pool = layers if traced else e2e
    missing = [m["name"] for m in wanted if m["name"] not in pool]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": statistics.median(pool[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }


def report_entry(record: dict, bench: dict) -> dict:
    e2e, layers = metric_samples(record)
    entry = {"attempted": record["attempted"], "failed": record["failed"],
             "fail_ratio": record["failed"] / max(1, record["attempted"]),
             "failures": record["failures"],
             "end_to_end": {}, "per_layer": {}}
    for m in bench["end_to_end"]:
        entry["end_to_end"][m["name"]] = {
            **summary(e2e[m["name"]]), "unit": m["unit"],
            "better": m["better"], "bound": m["bound"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    units.update(EXTRA_UNITS)
    for name in sorted(layers):
        if name.startswith("prog."):
            units[name] = "s"
        entry["per_layer"][name] = {**summary(layers[name]),
                                    "unit": units[name]}
    return entry


def host_facts(seed: int) -> dict:
    import numpy

    gcc = shutil.which("gcc")
    gcc_version = None
    if gcc:
        out = subprocess.run([gcc, "--version"], capture_output=True,
                             text=True)
        gcc_version = out.stdout.splitlines()[0] if out.stdout else None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "gcc": gcc_version,
            "machine": platform.machine(), "git_sha": git_sha(),
            "seed": seed}


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git (the
    benchmark may run in an export that has no repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def print_table(report: dict) -> None:
    for workload, entry in report["workloads"].items():
        print(f"== {workload}: {entry['attempted']} operations, "
              f"{entry['failed']} failed, {entry['wall_s']:.1f} s")
        for part in ("end_to_end", "per_layer"):
            for name, s in entry[part].items():
                print(f"  {name:28s} {s['median']:14.6g} {s['unit']:8s}"
                      f" [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")


# -- command line --------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end, per-layer benchmark of the translator: "
        "source text to checked program output")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed (default 0)")
    ap.add_argument("--seconds", type=float,
                    help="timed-pass length per workload (default: "
                    "BENCHMARK.json run_seconds; 1 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="print one JSON line for one workload: its "
                    "end-to-end (0) or per-layer (1) metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="short run for a quick check; written to "
                    "smoke.json, never to a full record")
    ap.add_argument("--trace-out", metavar="DIR",
                    help="write one Chrome trace-event JSON per workload")
    ap.add_argument("--out", metavar="FILE",
                    help="record file (default results.json, or "
                    "smoke.json with --smoke, in this directory)")
    args = ap.parse_args(argv)
    if args.trace is not None and args.workload is None:
        ap.error("--trace needs --workload")
    if args.smoke and args.out and Path(args.out).name == "baseline.json":
        ap.error("a smoke run must not overwrite the full baseline")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e: no translator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    bench = declared()
    seconds = args.seconds or (1.0 if args.smoke else bench["run_seconds"])

    if args.trace is not None:
        traced = bool(args.trace)
        # A per-layer run needs the untimed pass only as the overhead
        # ratio's denominator, so it gives most of its time to tracing.
        settings = Settings(seconds=seconds, traced=traced, smoke=args.smoke,
                            timed_share=0.4 if traced else 1.0,
                            processes=1 if traced else 3)
        record = run_workload(args.workload, args.seed, settings,
                              args.trace_out)
        for failure in record["failures"]:
            print(f"e2e: failed: {failure}", file=sys.stderr)
        print(json.dumps(driver_line(record, bench, traced)))
        return 0

    settings = Settings(seconds=seconds, traced=True, smoke=args.smoke)
    report = {"schema": 1, "kind": "smoke" if args.smoke else "full",
              "seconds": seconds, "host": host_facts(args.seed),
              "workloads": {}}
    for workload in ([args.workload] if args.workload else WORKLOADS):
        t0 = time.perf_counter()
        record = run_workload(workload, args.seed, settings, args.trace_out)
        entry = report_entry(record, bench)
        entry["wall_s"] = time.perf_counter() - t0
        report["workloads"][workload] = entry
    out = Path(args.out) if args.out else \
        HERE / ("smoke.json" if args.smoke else "results.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print_table(report)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
