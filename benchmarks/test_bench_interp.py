"""E-VM + E-IR: interpreter-stack benchmarks.

E-VM (S22): bytecode VM vs. tree-walking interpreter on the fig1
temporal-mean program, the paper's flagship workload.  The tree-walker
re-interprets every scalar of the fold; the VM's numpy fast path executes
each trip count as one cumsum.  Gate: VM >=10x faster, bit-identical.

E-IR (S28): the TAC/SSA optimizer pipeline, -O2 vs -O0 on the same VM.
Two gates:

* dynamic instruction count (``REPRO_COUNT_INSTRS``) over the full
  corpus — figs 1/4/8/9 plus the mandelbrot escape-time kernel — must
  drop by >=25% geomean, with bit-identical outputs and stdout;
* wall-clock geomean >=1.3x over the scalar-dominated workloads
  (fig4, fig9, mandelbrot) at nthreads=1.  fig1/fig8 spend their time
  inside numpy fastloop plans the optimizer cannot speed up, so they
  are measured for the record but excluded from the wall gate.  fig9's
  nest runs as one lane plan, so its case runs with plans forced off
  (``MIN_TRIP`` above its trip counts) and times its scalar code.

E-XO (S22/S27): the ``fastloop`` trip-count crossover.  Each plan shape
fig8 runs is timed with its plan forced on and forced off; the scalar
loop must win at ``MIN_TRIP // 4`` iterations and the plan at
``8 * MIN_TRIP``, with identical outputs.

E-DSP (S29): compiled functions against the closure stream
(``REPRO_NO_QUICKEN=1``) on the scalar-dominated workloads; gate >=1.5x
geomean.  E-CG: what generating that code costs a serve worker, which
compiles every request afresh; gate: not slower than the closures.

E-VEC (S27): lane plans.  fig9's Fig. 11 form runs with its plans on
and forced off; the plan must be >=5x faster on the e2e cube, with
identical outputs.  The VM times of the three §V stages are recorded.

All timings land in ``BENCH_interp.json`` at the repo root, one record
per experiment, so later PRs can track the trajectory.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the workloads; the smoke run
still checks agreement and the instruction-count gate (counts are
deterministic at any size), but skips the wall-clock gate and relaxes
E-VM to >=3x since small trip counts amortize less per-loop setup.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import compile_source
from repro.cexec import loopfast
from repro.cexec.interp import Interpreter, run_program
from repro.cexec.rmat import read_rmat, write_rmat
from repro.cexec.vm import VM
from repro.cminus.env import Optimizations
from repro.eddy import synthetic_ssh
from repro.programs import load

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
_SHIPPED_MIN_TRIP = loopfast.MIN_TRIP
SHAPE = (6, 8, 48) if SMOKE else (20, 20, 400)
GATE = 3.0 if SMOKE else 10.0
REPO_ROOT = Path(__file__).resolve().parents[1]


def _record_bench(experiment: str, **fields) -> None:
    """Merge ``fields`` into BENCH_interp.json under ``experiment``."""
    path = REPO_ROOT / "BENCH_interp.json"
    store: dict = {}
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except ValueError:
            old = {}
        if "experiment" in old:  # legacy single-record layout
            store[old["experiment"]] = old
        else:
            store = old
    rec = store.setdefault(experiment, {})
    rec.update(fields, experiment=experiment, smoke=SMOKE,
               python=platform.python_version())
    path.write_text(json.dumps(store, indent=2, sort_keys=True) + "\n")


def _geomean(ratios):
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    wd = tmp_path_factory.mktemp("fig1bench")
    cube = np.random.default_rng(0).normal(0, 0.4, SHAPE).astype(np.float32)
    write_rmat(wd / "ssh.data", cube)
    cr = compile_source(load("fig1"), ["matrix"])
    assert cr.ok, cr.diagnostics
    cr.bytecode()  # build once, outside the timed region
    return cr, wd


def _run(make_executor, wd, repeats):
    best = float("inf")
    for _ in range(repeats):
        ex = make_executor()
        t0 = time.perf_counter()
        rc = ex.run_main()
        best = min(best, time.perf_counter() - t0)
        assert rc == 0
    return best, read_rmat(wd / "means.data")


class TestVMSpeedup:
    def test_vm_10x_gate_on_fig1(self, fig1):
        cr, wd = fig1
        tree_s, tree_out = _run(
            lambda: Interpreter(cr.lowered, cr.ctx, workdir=wd, nthreads=2),
            wd, repeats=1 if not SMOKE else 2)
        vm_s, vm_out = _run(
            lambda: VM(cr.lowered, cr.ctx, workdir=wd, nthreads=2,
                       program=cr.bytecode()),
            wd, repeats=3)

        assert np.array_equal(tree_out, vm_out)
        speedup = tree_s / vm_s
        _record_bench(
            "E-VM",
            workload="fig1 temporal mean",
            shape=list(SHAPE),
            tree_seconds=round(tree_s, 4),
            vm_seconds=round(vm_s, 4),
            speedup=round(speedup, 1),
        )
        print(f"\ntree {tree_s:.3f}s  vm {vm_s:.3f}s  speedup {speedup:.1f}x")
        assert speedup >= GATE, \
            f"VM only {speedup:.1f}x faster than tree-walker (gate {GATE}x)"

    def test_fast_path_engaged(self, fig1, monkeypatch):
        """The gate above is meaningless if every loop bails to scalar."""
        from repro.cexec import loopfast

        cr, wd = fig1
        hits = {"ok": 0, "bail": 0}
        orig = loopfast.Plan.run

        def counted(self, frame, stats=None):
            r = orig(self, frame, stats)
            hits["ok" if r else "bail"] += 1
            return r

        monkeypatch.setattr(loopfast.Plan, "run", counted)
        vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=2,
                program=cr.bytecode())
        assert vm.run_main() == 0
        assert hits["ok"] > 0
        assert hits["bail"] == 0, f"fast path bailed {hits['bail']} times"


def _mandelbrot_src(scale_down: bool) -> str:
    """The mandelbrot kernel, optionally shrunk for smoke runs.

    The viewport/iteration budget are plain integer literals in the
    source, so smoke sizing is a textual substitution — the compiled
    program is otherwise identical.
    """
    src = load("mandelbrot")
    if scale_down:
        for old, new in (("int h = 40;", "int h = 10;"),
                         ("int w = 60;", "int w = 12;"),
                         ("int maxIter = 80;", "int maxIter = 24;")):
            assert old in src, f"mandelbrot.xc drifted: {old!r} missing"
            src = src.replace(old, new)
    return src


def _plans_off_for(name: str, monkeypatch) -> None:
    """Force fig9's plans off (``MIN_TRIP`` above every trip count, as
    E-XO does): its i, jout, jin nest is one lane plan, and the E-IR and
    E-DSP wall gates time scalar dispatch.  Other cases keep the
    shipped crossover."""
    monkeypatch.setattr(loopfast, "MIN_TRIP", sys.maxsize if name == "fig9"
                        else _SHIPPED_MIN_TRIP)


def _instr_corpus():
    """(name, source, externs, inputs, output_names) for the instruction
    count gate.  Sizes are deliberately small: dynamic instruction counts
    are machine-independent, and counting mode slows the VM down."""
    cases = []
    cube = np.random.default_rng(0).normal(0, 0.5, (6, 8, 12)).astype(np.float32)
    cases.append(("fig1", load("fig1"), ["matrix"],
                  {"ssh.data": cube}, ["means.data"]))
    ssh = np.random.default_rng(9).normal(0.2, 0.5, (8, 9, 5)).astype(np.float32)
    dates = np.array([1011990, 1012000, 1012010, 1012020, 1012030],
                     dtype=np.int32)
    cases.append(("fig4", load("fig4"), ["matrix"],
                  {"ssh.data": ssh, "dates.data": dates}, ["eddyLabels.data"]))
    eddy = synthetic_ssh((5, 6, 32), n_eddies=2, seed=21)
    cases.append(("fig8", load("fig8"), ["matrix"],
                  {"ssh.data": eddy.cube}, ["temporalScores.data"]))
    c9 = np.random.default_rng(3).normal(0, 1, (6, 8, 10)).astype(np.float32)
    cases.append(("fig9", load("fig9"), ["matrix", "transform"],
                  {"ssh.data": c9}, ["means.data"]))
    cases.append(("mandelbrot", _mandelbrot_src(scale_down=True), ["matrix"],
                  {}, ["mandel.data"]))
    return cases


class TestIROptimizer:
    """E-IR: the S28 TAC/SSA pass pipeline, -O2 vs -O0."""

    INSTR_GATE = 0.25   # geomean dynamic-instruction reduction
    WALL_GATE = 1.3     # geomean wall-clock speedup, scalar workloads

    def test_dynamic_instr_reduction(self, monkeypatch):
        monkeypatch.setenv("REPRO_COUNT_INSTRS", "1")
        monkeypatch.setenv("REPRO_IR_STRICT", "1")
        rows, ratios = [], []
        for name, src, exts, inputs, outs in _instr_corpus():
            runs = {}
            for lvl in (0, 2):
                rc, o, st, ex = run_program(
                    src, exts, inputs, output_names=outs, nthreads=1,
                    options=Optimizations(opt_level=lvl))
                assert rc == 0, f"{name} rc={rc} at -O{lvl}"
                runs[lvl] = (st.instrs, list(ex.stdout),
                             {k: v.tobytes() for k, v in o.items()})
            assert runs[0][1] == runs[2][1], f"{name}: stdout differs O0/O2"
            assert runs[0][2] == runs[2][2], f"{name}: outputs differ O0/O2"
            i0, i2 = runs[0][0], runs[2][0]
            assert i2 > 0 and i0 > 0
            ratios.append(i0 / i2)
            rows.append({"workload": name, "instrs_O0": i0, "instrs_O2": i2,
                         "reduction": round(1 - i2 / i0, 3)})
            print(f"\n{name}: O0={i0} O2={i2} ({1 - i2 / i0:.1%} fewer)")
        reduction = 1 - 1 / _geomean(ratios)
        _record_bench("E-IR", instr_rows=rows,
                      instr_geomean_reduction=round(reduction, 3))
        print(f"geomean dynamic-instruction reduction: {reduction:.1%}")
        assert reduction >= self.INSTR_GATE, \
            f"optimizer cut only {reduction:.1%} of dynamic instructions " \
            f"(gate {self.INSTR_GATE:.0%})"

    @pytest.mark.skipif(SMOKE, reason="wall gate needs full-size workloads")
    def test_wallclock_speedup(self, tmp_path_factory, monkeypatch):
        """Scalar-dominated workloads only: fig1/fig8 run inside numpy
        fastloop plans at both levels, so their wall-clock is invariant
        to the optimizer and would dilute the gate with noise; fig9 runs
        with its plans off."""
        cases = []
        ssh = np.random.default_rng(9).normal(
            0.2, 0.5, (60, 60, 8)).astype(np.float32)
        dates = np.arange(1011990, 1011990 + 80, 10, dtype=np.int32)
        cases.append(("fig4", load("fig4"), ["matrix"],
                      {"ssh.data": ssh, "dates.data": dates}))
        c9 = np.random.default_rng(3).normal(
            0, 1, (20, 20, 200)).astype(np.float32)
        cases.append(("fig9", load("fig9"), ["matrix", "transform"],
                      {"ssh.data": c9}))
        cases.append(("mandelbrot", load("mandelbrot"), ["matrix"], {}))

        rows, ratios = [], []
        for name, src, exts, inputs in cases:
            setups = {}
            for lvl in (0, 2):
                wd = tmp_path_factory.mktemp(f"eir_{name}_O{lvl}")
                for fname, arr in inputs.items():
                    write_rmat(wd / fname, arr)
                cr = compile_source(src, exts,
                                    options=Optimizations(opt_level=lvl))
                assert cr.ok, cr.diagnostics
                setups[lvl] = (cr, cr.bytecode(), wd)
            _plans_off_for(name, monkeypatch)
            # interleave the levels round-robin: machine-load drift then
            # hits O0 and O2 alike instead of biasing whichever batch
            # ran during the quiet stretch.
            secs = {0: float("inf"), 2: float("inf")}
            for _ in range(5):
                for lvl in (0, 2):
                    cr, prog, wd = setups[lvl]
                    vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=1,
                            program=prog)
                    t0 = time.perf_counter()
                    rc = vm.run_main()
                    secs[lvl] = min(secs[lvl], time.perf_counter() - t0)
                    vm.close()
                    assert rc == 0
            ratios.append(secs[0] / secs[2])
            rows.append({"workload": name,
                         "O0_seconds": round(secs[0], 4),
                         "O2_seconds": round(secs[2], 4),
                         "speedup": round(secs[0] / secs[2], 2)})
            print(f"\n{name}: O0={secs[0]:.3f}s O2={secs[2]:.3f}s "
                  f"({secs[0] / secs[2]:.2f}x)")
        gm = _geomean(ratios)
        _record_bench("E-IR", wall_rows=rows,
                      wall_geomean_speedup=round(gm, 2))
        print(f"geomean wall-clock speedup: {gm:.2f}x")
        assert gm >= self.WALL_GATE, \
            f"-O2 only {gm:.2f}x over -O0 (gate {self.WALL_GATE}x)"


class TestDispatchSpecialization:
    """E-DSP: the S29 compiled functions (each function's bytecode run
    as one generated Python function) against the same -O2 program run
    by the generic closure stream (``REPRO_NO_QUICKEN=1``).

    Scalar-dominated workloads only, for the same reason as the E-IR
    wall gate: fig1/fig8 run inside numpy fastloop plans where dispatch
    cost is already amortized away, and fig9 runs with its plans off."""

    WALL_GATE = 1.15 if SMOKE else 1.5
    REPEATS = 3 if SMOKE else 7

    def _cases(self):
        cases = []
        ssh = np.random.default_rng(9).normal(
            0.2, 0.5, (24, 24, 8) if SMOKE else (60, 60, 8)
        ).astype(np.float32)
        dates = np.arange(1011990, 1011990 + 80, 10, dtype=np.int32)
        cases.append(("fig4", load("fig4"), ["matrix"],
                      {"ssh.data": ssh, "dates.data": dates}))
        c9 = np.random.default_rng(3).normal(
            0, 1, (12, 12, 80) if SMOKE else (20, 20, 200)
        ).astype(np.float32)
        cases.append(("fig9", load("fig9"), ["matrix", "transform"],
                      {"ssh.data": c9}))
        cases.append(("mandelbrot", _mandelbrot_src(scale_down=False),
                      ["matrix"], {}))
        return cases

    def test_wallclock_speedup(self, tmp_path_factory, monkeypatch):
        rows, ratios = [], []
        spec_counters = {}
        for name, src, exts, inputs in self._cases():
            wd = tmp_path_factory.mktemp(f"edsp_{name}")
            for fname, arr in inputs.items():
                write_rmat(wd / fname, arr)
            cr = compile_source(src, exts,
                                options=Optimizations(opt_level=2))
            assert cr.ok, cr.diagnostics
            prog = cr.bytecode()
            _plans_off_for(name, monkeypatch)
            # Interleave generic and specialized round-robin so machine
            # load drift hits both alike; keep best-of-N per flavor.
            secs = {"generic": float("inf"), "spec": float("inf")}
            outs = {}
            for _ in range(self.REPEATS):
                for flavor, env in (("generic", "1"), ("spec", "0")):
                    monkeypatch.setenv("REPRO_NO_QUICKEN", env)
                    vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=1,
                            program=prog)
                    t0 = time.perf_counter()
                    rc = vm.run_main()
                    secs[flavor] = min(secs[flavor],
                                       time.perf_counter() - t0)
                    assert rc == 0
                    if flavor == "spec":
                        st = vm.stats
                        spec_counters[name] = {
                            "guards_elided": st.guards_elided,
                        }
                    vm.close()
                    out_files = sorted(p for p in os.listdir(wd)
                                       if p not in inputs)
                    got = {p: read_rmat(wd / p).tobytes()
                           for p in out_files}
                    if flavor in outs:
                        assert outs[flavor] == got, f"{name}: unstable"
                    outs[flavor] = got
            assert outs["generic"] == outs["spec"], \
                f"{name}: specialized output differs from generic"
            ratios.append(secs["generic"] / secs["spec"])
            rows.append({"workload": name,
                         "generic_seconds": round(secs["generic"], 4),
                         "spec_seconds": round(secs["spec"], 4),
                         "speedup": round(ratios[-1], 2)})
            print(f"\n{name}: generic={secs['generic']:.3f}s "
                  f"spec={secs['spec']:.3f}s ({ratios[-1]:.2f}x)")
        gm = _geomean(ratios)
        _record_bench("E-DSP", wall_rows=rows,
                      wall_geomean_speedup=round(gm, 2),
                      spec_counters=spec_counters)
        print(f"geomean dispatch-specialization speedup: {gm:.2f}x")
        assert gm >= self.WALL_GATE, \
            f"specialization only {gm:.2f}x over generic VM " \
            f"(gate {self.WALL_GATE}x)"


class TestCodegenOverhead:
    """E-CG: code generation on a serve worker's path.  serve-mix's
    smallest request (mandelbrot 8x12, maxIter 30) runs as a worker runs
    it — a fresh ``compile_source``, ``make_engine`` and ``run_main``
    each time — with compiled functions and with the closure stream
    (``REPRO_NO_QUICKEN=1``), interleaved, best of N.  Gate: compiled is
    not slower.  A freshly compiled copy of a program finds its code in
    the process-wide cache, so only a worker's first request of each
    program pays the generator and CPython's ``compile``; that first
    run is recorded as ``cold_seconds``."""

    REPEATS = 5 if SMOKE else 15

    @staticmethod
    def _source() -> str:
        src = load("mandelbrot")
        for old, new in (("int h = 40;", "int h = 8;"),
                         ("int w = 60;", "int w = 12;"),
                         ("int maxIter = 80;", "int maxIter = 30;")):
            assert old in src, f"mandelbrot.xc drifted: {old!r} missing"
            src = src.replace(old, new)
        return src

    def test_compiled_not_slower_per_request(self, tmp_path_factory,
                                             monkeypatch):
        from repro.cexec import pyfunc

        src = self._source()
        wd = tmp_path_factory.mktemp("ecg")

        def request() -> tuple[float, bytes]:
            t0 = time.perf_counter()
            cr = compile_source(src, ["matrix"])
            ex = cr.make_engine(workdir=wd, nthreads=1)
            try:
                assert ex.run_main() == 0
            finally:
                ex.close()
            return (time.perf_counter() - t0,
                    read_rmat(wd / "mandel.data").tobytes())

        # Warm the translator first, so the cold run pays only for the
        # compiled functions it has to generate.
        monkeypatch.setenv("REPRO_NO_QUICKEN", "1")
        _, want = request()
        monkeypatch.setenv("REPRO_NO_QUICKEN", "0")
        monkeypatch.setattr(pyfunc, "_cache", type(pyfunc._cache)())
        cold, got = request()
        assert got == want
        secs = {"closures": float("inf"), "compiled": float("inf")}
        for _ in range(self.REPEATS):
            for arm, env in (("closures", "1"), ("compiled", "0")):
                monkeypatch.setenv("REPRO_NO_QUICKEN", env)
                dt, got = request()
                assert got == want, arm
                secs[arm] = min(secs[arm], dt)
        ratio = secs["closures"] / secs["compiled"]
        _record_bench("E-CG", request="mandelbrot 8x12 maxIter 30",
                      repeats=self.REPEATS,
                      closures_seconds=round(secs["closures"], 5),
                      compiled_seconds=round(secs["compiled"], 5),
                      cold_seconds=round(cold, 5),
                      closures_over_compiled=round(ratio, 3))
        print(f"\nclosures={secs['closures']:.4f}s "
              f"compiled={secs['compiled']:.4f}s cold={cold:.4f}s "
              f"({ratio:.3f}x)")
        assert ratio >= 1.0, \
            f"compiled functions {ratio:.3f}x the closure stream per request"


# E-XO: the four plan shapes fig8 runs, each executed 400 times by the
# loop in _XO_MAIN (n is the length of a and b).
_XO_SHAPES = {
    "fold a[i]-b[i]":
        "s = s + with ([0] <= [i] < [n]) fold(+, 0.0, a[i] - b[i]);",
    "genarray (0::n-1)*m+s": """
        Matrix float <1> line = (0 :: n - 1) * m + s;
        s = line[n - 1] - s;""",
    "slice read a[1:n-1]": """
        Matrix float <1> t = a[1 : n - 1];
        s = s + t[0];""",
    "slice store b[0:n-1]=a": "b[0 : n - 1] = a;",
}

_XO_MAIN = """
int main() {{
    Matrix float <1> a = readMatrix("a.data");
    Matrix float <1> b = readMatrix("b.data");
    int n = dimSize(a, 0);
    float m = 0.5;
    float s = 0.0;
    for (int r = 0; r < 400; r = r + 1) {{
        {shape}
    }}
    printFloat(s);
    writeMatrix("out.data", b);
    return 0;
}}
"""


class TestTripCrossover:
    """E-XO: the ``fastloop`` trip-count crossover (``MIN_TRIP``).  For
    each plan shape fig8 runs, time its loop with the plan forced on
    (``MIN_TRIP = 0``) and forced off, interleaved, best of N, at a
    quarter of ``MIN_TRIP`` and at eight times it.  Gate: the scalar
    loop wins at the low point, the plan at the high point, and both
    paths print and write the same bytes."""

    REPEATS = 3 if SMOKE else 7

    def test_crossover_brackets_min_trip(self, tmp_path_factory,
                                         monkeypatch):
        from repro.cexec import loopfast

        min_trip = loopfast.MIN_TRIP
        arms = {"plan": 0, "scalar": sys.maxsize}
        rows = []
        for shape, body in _XO_SHAPES.items():
            cr = compile_source(_XO_MAIN.format(shape=body), ["matrix"])
            assert cr.ok, cr.diagnostics
            prog = cr.bytecode()
            for n in (min_trip // 4, 8 * min_trip):
                wd = tmp_path_factory.mktemp("exo")
                rng = np.random.default_rng(n)
                a = rng.normal(0, 1, n).astype(np.float32)
                secs = {arm: float("inf") for arm in arms}
                outs = {}
                for _ in range(self.REPEATS):
                    for arm, pinned in arms.items():
                        write_rmat(wd / "a.data", a)
                        write_rmat(wd / "b.data", np.zeros(n, np.float32))
                        monkeypatch.setattr(loopfast, "MIN_TRIP", pinned)
                        vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=1,
                                program=prog)
                        t0 = time.perf_counter()
                        rc = vm.run_main()
                        secs[arm] = min(secs[arm], time.perf_counter() - t0)
                        assert rc == 0
                        assert vm.stats.fastloop_bails == {}, shape
                        outs[arm] = (list(vm.stdout),
                                     read_rmat(wd / "out.data").tobytes())
                        vm.close()
                assert outs["plan"] == outs["scalar"], f"{shape} n={n}"
                ratio = secs["scalar"] / secs["plan"]
                rows.append({"shape": shape, "n": n,
                             "plan_seconds": round(secs["plan"], 5),
                             "scalar_seconds": round(secs["scalar"], 5),
                             "scalar_over_plan": round(ratio, 2)})
                print(f"\n{shape} n={n}: plan={secs['plan']:.4f}s "
                      f"scalar={secs['scalar']:.4f}s "
                      f"(scalar/plan {ratio:.2f})")
        _record_bench("E-XO", min_trip=min_trip, calls=400,
                      repeats=self.REPEATS, rows=rows)
        for row in rows:
            r = row["scalar_over_plan"]
            assert r < 1 if row["n"] < min_trip else r > 1, \
                f"{row['shape']} at n={row['n']}: scalar/plan {r} " \
                f"(MIN_TRIP {min_trip})"


class TestFoldNest:
    """E-FN: fold-nest plans.  fig1's lifted body runs as one plan that
    folds the whole shard in blocks; the other arm declines the nest
    match (in this test only), so every output element enters its own
    per-element fold plan, as before fold-nest plans existed.  Both arms
    run ``seq``, interleaved, best of N, on a small and a large cube.
    Gate: the nest plan wins on the large cube, and both arms write the
    same bytes on both."""

    REPEATS = 3 if SMOKE else 7
    SHAPES = ((8, 8, 32), (64, 64, 256))

    @staticmethod
    def program(cr, nest: bool):
        """A fresh fig1 BytecodeProgram, compiled with or without the
        fold-nest match."""
        from repro.cexec import loopfast
        from repro.cexec.bytecode import BytecodeProgram

        prog = BytecodeProgram(cr.lowered, cr.ctx)
        with pytest.MonkeyPatch.context() as mp:
            if not nest:
                mp.setattr(loopfast, "_match_fold_nest", lambda *a: None)
            for name in prog.functions:
                prog.code_for(name)
            for name in prog.lifted_trees:
                prog.lifted_code_for(name)
        return prog

    def test_nest_plan_beats_per_element_plans(self, tmp_path_factory,
                                               monkeypatch):
        from repro.cexec import loopfast

        cr = compile_source(load("fig1"), ["matrix"])
        assert cr.ok, cr.diagnostics
        progs = {"nest": self.program(cr, True),
                 "element": self.program(cr, False)}
        entered = []
        orig = loopfast.Plan.run

        def counted(self, frame, stats=None):
            entered.append(self.label)
            return orig(self, frame, stats)
        monkeypatch.setattr(loopfast.Plan, "run", counted)
        rows = []
        for shape in self.SHAPES:
            wd = tmp_path_factory.mktemp("efn")
            cube = np.random.default_rng(1).normal(
                0, 0.4, shape).astype(np.float32)
            write_rmat(wd / "ssh.data", cube)
            secs = {arm: float("inf") for arm in progs}
            outs, plans = {}, {}
            for _ in range(self.REPEATS):
                for arm, prog in progs.items():
                    entered.clear()
                    vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=1,
                            program=prog)
                    t0 = time.perf_counter()
                    rc = vm.run_main()
                    secs[arm] = min(secs[arm], time.perf_counter() - t0)
                    assert rc == 0 and vm.stats.fastloop_bails == {}
                    outs[arm] = read_rmat(wd / "means.data").tobytes()
                    plans[arm] = len(entered)
                    vm.close()
            assert outs["nest"] == outs["element"], f"{shape}"
            ratio = secs["element"] / secs["nest"]
            rows.append({"shape": list(shape),
                         "nest_seconds": round(secs["nest"], 5),
                         "element_seconds": round(secs["element"], 5),
                         "element_over_nest": round(ratio, 2),
                         "plans_entered": plans})
            print(f"\nfig1 {shape}: nest={secs['nest']:.4f}s "
                  f"element={secs['element']:.4f}s (element/nest "
                  f"{ratio:.2f}, plans {plans})")
        _record_bench("E-FN", fold_block=loopfast.FOLD_BLOCK,
                      repeats=self.REPEATS, rows=rows)
        large = rows[-1]
        assert large["element_over_nest"] > 1, \
            f"nest plan not faster on {large['shape']}: {large}"


# fig9's §V stages (EXPERIMENTS E-F9/E-F10/E-F11): the shipped program
# is the Fig. 11 form; the others cut its clause list back.
_FIG11_CLAUSES = ("\n        transform split j by 4, jin, jout."
                  "\n                  vectorize jin."
                  "\n                  parallelize i")
_FIG9_STAGES = {
    "fig9 (untransformed)": "",
    "fig10 (split)": "\n        transform split j by 4, jin, jout",
    "fig11 (split + vectorize + parallelize)": _FIG11_CLAUSES,
}


class TestLanePlans:
    """E-VEC: lane plans.  fig9's Fig. 11 form runs its i, jout, jin
    nest (folding over k in 4-lane vectors) as one fold-nest plan with a
    lane axis; the other arm forces every plan off through ``MIN_TRIP``,
    so the vector code calls one ``rt_v*`` intrinsic at a time, as
    before lane plans existed.  Both arms run ``seq``, interleaved, best
    of N, on the E-IR cube and the e2e cube.  Gate: both arms write the
    same bytes, and the plan is at least 5x faster on the e2e cube.  The
    VM times of the three §V stages on that cube, plans on, go into the
    record."""

    REPEATS = 3 if SMOKE else 7
    SHAPES = ((20, 20, 200), (48, 48, 128))
    GATE = 5.0

    def test_lane_plan_beats_scalar_vector_code(self, tmp_path_factory,
                                                monkeypatch):
        load9 = load("fig9")
        assert _FIG11_CLAUSES in load9, "fig9_transformed_mean.xc drifted"
        stages = {}
        for stage, clause in _FIG9_STAGES.items():
            cr = compile_source(load9.replace(_FIG11_CLAUSES, clause),
                                ["matrix", "transform"])
            assert cr.ok, cr.diagnostics
            stages[stage] = (cr, cr.bytecode())
        cr, prog = stages["fig11 (split + vectorize + parallelize)"]
        arms = {"plan": _SHIPPED_MIN_TRIP, "scalar": sys.maxsize}
        entered = []
        orig = loopfast.Plan.run

        def counted(self, frame, stats=None):
            entered.append(self.label)
            return orig(self, frame, stats)
        monkeypatch.setattr(loopfast.Plan, "run", counted)

        def timed(cr, prog, wd):
            entered.clear()
            vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=1,
                    program=prog)
            t0 = time.perf_counter()
            rc = vm.run_main()
            dt = time.perf_counter() - t0
            assert rc == 0 and vm.stats.fastloop_bails == {}
            vm.close()
            return dt, read_rmat(wd / "means.data").tobytes()

        rows = []
        for shape in self.SHAPES:
            wd = tmp_path_factory.mktemp("evec")
            cube = np.random.default_rng(3).normal(
                0, 1, shape).astype(np.float32)
            write_rmat(wd / "ssh.data", cube)
            secs = {arm: float("inf") for arm in arms}
            outs, plans = {}, {}
            for _ in range(self.REPEATS):
                for arm, pinned in arms.items():
                    monkeypatch.setattr(loopfast, "MIN_TRIP", pinned)
                    dt, outs[arm] = timed(cr, prog, wd)
                    secs[arm] = min(secs[arm], dt)
                    plans[arm] = list(entered)
            assert outs["plan"] == outs["scalar"], f"{shape}"
            assert plans == {"plan": ["i,jout,jin fold k"], "scalar": []}
            ratio = secs["scalar"] / secs["plan"]
            rows.append({"shape": list(shape),
                         "plan_seconds": round(secs["plan"], 5),
                         "scalar_seconds": round(secs["scalar"], 5),
                         "scalar_over_plan": round(ratio, 2)})
            print(f"\nfig11 {shape}: plan={secs['plan']:.4f}s "
                  f"scalar={secs['scalar']:.4f}s (scalar/plan {ratio:.2f})")
        # the three stages on the e2e cube, plans on
        monkeypatch.setattr(loopfast, "MIN_TRIP", _SHIPPED_MIN_TRIP)
        stage_rows = []
        for stage, (scr, sprog) in stages.items():
            best = min(timed(scr, sprog, wd)[0] for _ in range(self.REPEATS))
            stage_rows.append({"stage": stage, "shape": list(shape),
                               "vm_seconds": round(best, 5)})
            print(f"{stage}: {best:.4f}s")
        _record_bench("E-VEC", repeats=self.REPEATS, rows=rows,
                      stage_rows=stage_rows)
        large = rows[-1]
        assert large["scalar_over_plan"] >= self.GATE, \
            f"lane plan only {large['scalar_over_plan']}x on " \
            f"{large['shape']} (gate {self.GATE}x)"


class TestMicro:
    """pytest-benchmark timings on the smoke-size workload."""

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        wd = tmp_path_factory.mktemp("fig1micro")
        cube = np.random.default_rng(1).normal(
            0, 0.4, (6, 8, 48)).astype(np.float32)
        write_rmat(wd / "ssh.data", cube)
        cr = compile_source(load("fig1"), ["matrix"])
        cr.bytecode()
        return cr, wd

    def test_bench_vm(self, benchmark, small):
        cr, wd = small
        benchmark(lambda: VM(cr.lowered, cr.ctx, workdir=wd, nthreads=2,
                             program=cr.bytecode()).run_main())

    def test_bench_tree(self, benchmark, small):
        cr, wd = small
        benchmark(lambda: Interpreter(cr.lowered, cr.ctx, workdir=wd,
                                      nthreads=2).run_main())
