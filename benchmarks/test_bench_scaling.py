"""E-S5 / E-PAR: fork-join scaling, measured (§III-C).

The paper: with-loop code "scales nearly linearly with the number of
cores on the machine with two 6-core processors"; the enhanced fork-join
model (pool + spin lock) exists because naive per-construct thread
creation "pays the price of creating and destroying threads each time".

With the S23 in-process pool the VM half of this experiment is now
*measured*, not modelled: fig1's temporal mean is timed at 1/2/4 pool
workers and the wall-clock curve lands in ``BENCH_parallel.json``.  The
numpy fast path releases the GIL for its batched loop bodies, so shards
genuinely overlap on a multi-core host.  Gates:

* on a >=4-core runner (GitHub CI), >=1.6x speedup at 4 workers;
* on fewer cores only bounded overhead is asserted, and the honest
  timings are recorded with the core count (E-PAR2's fig8 gate needs
  only 2 cores);
* enhanced vs naive fork-join is compared for real by running the same
  region-heavy program with :class:`NaiveForkJoin` swapped in for the
  VM's pool (fresh threads per construct, the model the paper rejects).

Native gcc runs keep their original role: thread-creation overhead is
real regardless of core count, and RT_THREADS runs check correctness.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the workload.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import compile_source
from repro.cexec import CompiledProgram, gcc_available
from repro.cexec.rmat import read_rmat, write_rmat
from repro.cexec.vm import VM
from repro.codegen.scaling import ForkJoinCosts, calibrated_costs
from repro.eddy import synthetic_ssh
from repro.programs import load

from benchmarks.naive_fork_join import use_naive_pool

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
# Few outer rows, huge time dimension: the per-(i,j) fold is one numpy
# pass over T elements, so almost all region time is GIL-released and
# the 8-row outer space still splits evenly over 4 workers.
SHAPE = (8, 2, 20_000) if SMOKE else (8, 4, 200_000)
REPEATS = 3 if SMOKE else 5
# fig8's eddy scoring for E-PAR2: 144 series of 96 steps.
FIG8_SHAPE = (12, 12, 96)
FIG8 = "fig8 eddy scoring (matrixMap, scalar shards)"
REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_FILE = REPO_ROOT / "BENCH_parallel.json"


def _merge_bench(update: dict) -> None:
    record = {}
    if BENCH_FILE.exists():
        try:
            record = json.loads(BENCH_FILE.read_text())
        except ValueError:
            record = {}
    record.update(update)
    BENCH_FILE.write_text(json.dumps(record, indent=2) + "\n")


@pytest.fixture(scope="module")
def costs() -> ForkJoinCosts:
    return calibrated_costs()


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    wd = tmp_path_factory.mktemp("fig1scale")
    cube = np.random.default_rng(0).normal(0, 0.4, SHAPE).astype(np.float32)
    write_rmat(wd / "ssh.data", cube)
    cr = compile_source(load("fig1"), ["matrix"])
    assert cr.ok, cr.errors
    cr.bytecode()  # compile once, outside every timed region
    # Warm run: page cache for ssh.data, memoized register code.
    vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=1, program=cr.bytecode())
    assert vm.run_main() == 0
    vm.close()
    return cr, wd, cube


def _timed_run(cr, wd, nthreads, repeats=REPEATS, backend=None,
               out_name="means.data"):
    """Best-of wall-clock for a full program run at the given pool size.

    With ``backend="process"`` the lazy pool fork happens inside the
    timed region on the first repeat — best-of keeps the honest steady
    state while still charging each run its own pool start-up.
    """
    best = float("inf")
    regions = 0
    proc_regions = 0
    for _ in range(repeats):
        vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=nthreads,
                program=cr.bytecode(), parallel_backend=backend)
        t0 = time.perf_counter()
        rc = vm.run_main()
        best = min(best, time.perf_counter() - t0)
        regions = vm.stats.parallel_regions
        proc_regions = vm.process_regions
        vm.close()
        assert rc == 0
    return best, regions, proc_regions, read_rmat(wd / out_name)


class TestMeasuredVMScaling:
    """E-PAR: measured wall-clock speedup of the S23 pool on fig1."""

    def test_measured_scaling_curve(self, fig1, monkeypatch):
        cr, wd, cube = fig1
        times = {}
        reference = None
        for n in (1, 2, 4):
            secs, regions, _, out = _timed_run(cr, wd, n)
            assert regions >= 1
            if reference is None:
                reference = out
                assert np.allclose(out, cube.mean(axis=2, dtype=np.float64),
                                   atol=1e-2)
            else:
                assert np.array_equal(reference, out), \
                    f"nthreads={n} changed the result"
            times[n] = secs
        with monkeypatch.context() as m:
            use_naive_pool(m)
            naive_secs, _, _, naive_out = _timed_run(cr, wd, 4)
        assert np.array_equal(reference, naive_out)

        cpus = os.cpu_count() or 1
        curve = [{"threads": n, "seconds": round(times[n], 4),
                  "speedup": round(times[1] / times[n], 2)}
                 for n in (1, 2, 4)]
        speedup4 = times[1] / times[4]
        _merge_bench({
            "experiment": "E-PAR",
            "workload": "fig1 temporal mean (VM, S23 pool)",
            "shape": list(SHAPE),
            "smoke": SMOKE,
            "cpus": cpus,
            "curve": curve,
            "naive_fork_join_4_seconds": round(naive_secs, 4),
            "enhanced_over_naive_at_4": round(naive_secs / times[4], 2),
            "gate": {"required_speedup_at_4": 1.6,
                     "enforced": cpus >= 4,
                     "measured_speedup_at_4": round(speedup4, 2)},
            "python": platform.python_version(),
        })
        print("\n" + "  ".join(
            f"{c['threads']}w {c['seconds']*1e3:.0f}ms ({c['speedup']:.2f}x)"
            for c in curve) + f"  naive4 {naive_secs*1e3:.0f}ms")
        if cpus >= 4:
            assert speedup4 >= 1.6, \
                f"only {speedup4:.2f}x at 4 workers on {cpus} cores"
        else:
            # One core: no speedup possible, but the pool must not cost
            # much either (shard dispatch is condition waits, not spins).
            assert times[4] <= 2.5 * times[1], \
                f"pool overhead {times[4]/times[1]:.2f}x on {cpus} core(s)"

    def test_backend_scaling_curves(self, fig1, tmp_path):
        """E-PAR2: thread vs process backend, measured per-backend curves.

        Three workloads bound the design space: fig1's temporal mean is
        numpy-vectorized (the GIL is released, threads scale), while the
        integer-division genarray *bails* the fast path and runs scalar
        bytecode — there the GIL serializes threads and only the S27
        process pool can win.  fig8's `matrixMap` is the paper's own
        scalar-shard case: each series runs short loops of scalar
        bytecode and allocates and frees its own matrices.  Gates: the
        process backend reaches >=2x at 4 workers on the scalar genarray
        where >=4 CPUs exist, and where >=2 CPUs exist fig8 on processes
        at 2 workers takes at most 0.8x its time on threads.
        """
        cpus = os.cpu_count() or 1
        n_elems = 4_000 if SMOKE else 24_000
        src = """
        int main() {
            Matrix int <1> num = readMatrix("num.data");
            Matrix int <1> den = readMatrix("den.data");
            Matrix int <1> q = init(Matrix int <1>, %d);
            q = with ([0] <= [i] < [%d]) genarray([%d], num[i] / den[i]);
            writeMatrix("q.data", q);
            return 0;
        }
        """ % (n_elems, n_elems, n_elems)
        rng = np.random.default_rng(5)
        write_rmat(tmp_path / "num.data",
                   rng.integers(-1000, 1000, n_elems).astype(np.int32))
        write_rmat(tmp_path / "den.data",
                   rng.integers(1, 9, n_elems).astype(np.int32))
        scalar_cr = compile_source(src, ["matrix"])
        assert scalar_cr.ok, scalar_cr.errors
        scalar_cr.bytecode()

        fig8_wd = tmp_path / "fig8"
        fig8_wd.mkdir()
        write_rmat(fig8_wd / "ssh.data",
                   synthetic_ssh(FIG8_SHAPE, n_eddies=3, seed=8).cube)
        fig8_cr = compile_source(load("fig8"), ["matrix"])
        assert fig8_cr.ok, fig8_cr.errors
        fig8_cr.bytecode()

        fig1_cr, fig1_wd, _ = fig1
        workloads = {
            "fig1 temporal mean (numpy shards)":
                (fig1_cr, fig1_wd, "means.data"),
            "integer-division genarray (scalar shards)":
                (scalar_cr, tmp_path, "q.data"),
            FIG8: (fig8_cr, fig8_wd, "temporalScores.data"),
        }
        curves = []
        speedup4 = {}
        secs_at = {}
        for wname, (cr, wd, out_name) in workloads.items():
            for backend in ("thread", "process"):
                times = {}
                reference = None
                for n in (1, 2, 4):
                    secs, regions, procs, out = _timed_run(
                        cr, wd, n, backend=backend, out_name=out_name)
                    assert regions >= 1
                    if backend == "process" and n > 1:
                        assert procs >= 1, \
                            f"{wname}: process backend never dispatched"
                    if reference is None:
                        reference = out
                    else:
                        assert np.array_equal(reference, out), \
                            f"{wname}/{backend}/{n} changed the result"
                    times[n] = secs
                    secs_at[(wname, backend, n)] = secs
                for n in (1, 2, 4):
                    curves.append({
                        "workload": wname, "backend": backend, "workers": n,
                        "seconds": round(times[n], 4),
                        "speedup": round(times[1] / times[n], 2)})
                speedup4[(wname, backend)] = times[1] / times[4]
        scalar_proc4 = speedup4[
            ("integer-division genarray (scalar shards)", "process")]
        fig8_ratio2 = (secs_at[(FIG8, "process", 2)]
                       / secs_at[(FIG8, "thread", 2)])
        _merge_bench({"E-PAR2": {
            "experiment": "E-PAR2",
            "cpus": cpus,
            "smoke": SMOKE,
            "scalar_elems": n_elems,
            "fig8_shape": list(FIG8_SHAPE),
            "curves": curves,
            "gate": {"backend": "process",
                     "workload": "integer-division genarray (scalar shards)",
                     "required_speedup_at_4": 2.0,
                     "enforced": cpus >= 4,
                     "measured_speedup_at_4": round(scalar_proc4, 2)},
            "fig8_gate": {"workload": FIG8,
                          "process_over_thread_at_2_max": 0.8,
                          "enforced": cpus >= 2,
                          "measured_process_over_thread_at_2":
                              round(fig8_ratio2, 2)},
            "python": platform.python_version(),
        }})
        print("\n" + "\n".join(
            f"{c['workload'][:24]:24s} {c['backend']:7s} "
            f"{c['workers']}w {c['seconds']*1e3:7.1f}ms ({c['speedup']:.2f}x)"
            for c in curves))
        if cpus >= 4:
            assert scalar_proc4 >= 2.0, \
                f"process backend only {scalar_proc4:.2f}x at 4 workers " \
                f"on {cpus} cores"
        else:
            # One core: no parallel win possible; bound the shm-copy and
            # dispatch overhead instead of pretending to measure speedup.
            t = {c["workers"]: c["seconds"] for c in curves
                 if c["workload"].startswith("integer-division")
                 and c["backend"] == "process"}
            assert t[4] <= 4.0 * t[1], \
                f"process pool overhead {t[4]/t[1]:.2f}x on {cpus} core(s)"
        if cpus >= 2:
            assert fig8_ratio2 <= 0.8, \
                f"fig8 on 2 processes took {fig8_ratio2:.2f}x its time " \
                f"on 2 threads"

    def test_enhanced_pool_beats_naive_on_small_regions(self, tmp_path,
                                                        monkeypatch):
        """The paper's argument for the pool, measured in-process: many
        tiny parallel constructs are where per-region thread creation
        hurts.  200 regions x fresh threads vs one persistent pool."""
        reps = 50 if SMOKE else 200
        src = """
        int work(int reps) {
            Matrix float <1> v = init(Matrix float <1>, 64);
            for (int r = 0; r < reps; r = r + 1) {
                v = with ([0] <= [i] < [64]) genarray([64], 1.0 * i);
            }
            return 0;
        }
        int main() { return work(%d); }
        """ % reps
        cr = compile_source(src, ["matrix"])
        assert cr.ok, cr.errors
        cr.bytecode()

        def best_of():
            best = float("inf")
            for _ in range(3):
                vm = VM(cr.lowered, cr.ctx, workdir=tmp_path, nthreads=2,
                        program=cr.bytecode())
                t0 = time.perf_counter()
                assert vm.run_main() == 0
                best = min(best, time.perf_counter() - t0)
                assert vm.stats.parallel_regions == reps
                vm.close()
            return best

        enhanced = best_of()
        with monkeypatch.context() as m:
            use_naive_pool(m)
            naive = best_of()
        per_region_us = (naive - enhanced) / reps * 1e6
        _merge_bench({
            "pool_vs_naive": {
                "regions": reps,
                "enhanced_seconds": round(enhanced, 4),
                "naive_seconds": round(naive, 4),
                "per_region_saving_us": round(per_region_us, 1),
            },
        })
        print(f"\nenhanced {enhanced*1e3:.1f}ms  naive {naive*1e3:.1f}ms  "
              f"saving {per_region_us:.0f}us/region")
        # Soft gate (timing on shared runners is noisy): the persistent
        # pool must never lose badly to spawn-per-construct.
        assert naive >= 0.9 * enhanced


@pytest.mark.skipif(not gcc_available(), reason="gcc not available")
class TestNativeFortJoinOverheads:
    """Measured per-region costs of pool vs naive thread spawning.

    Uses the generated runtime directly: a program with many tiny
    parallel regions.  On one core the pool's spin workers contend, so we
    measure with the *main-thread-only* inline path (p=1) against naive
    creation of one thread — isolating creation cost, which is the
    paper's point.
    """

    MICRO = r"""
int work(int reps) {
    Matrix float <1> v = init(Matrix float <1>, 64);
    for (int r = 0; r < reps; r = r + 1) {
        v = with ([0] <= [i] < [64]) genarray([64], 1.0);
    }
    return 0;
}
int main() { return work(200); }
"""

    def test_bench_many_small_regions_pool(self, benchmark):
        result = compile_source(self.MICRO, ["matrix"])
        prog = CompiledProgram(result.c_source)
        try:
            out = benchmark(lambda: prog.run(nthreads=1, collect_stats=True))
            assert out.stats.parallel_regions >= 200
        finally:
            prog.cleanup()

    def test_measured_thread_create_vs_model(self, costs):
        from repro.codegen.scaling import measure_thread_create_us

        measured = measure_thread_create_us()
        assert measured is not None
        # 200 naive constructs would cost measured*200 us of pure
        # management overhead; the pool pays (near) nothing inline.
        assert measured * 200 > 1000  # >1ms of avoided overhead


@pytest.mark.skipif(not gcc_available(), reason="gcc not available")
class TestThreadedRuns:
    """Honest native runs at several thread counts (1 vCPU: we assert
    correctness and bounded slowdown, not speedup)."""

    @pytest.fixture(scope="class")
    def prog(self):
        result = compile_source(load("fig1"), ["matrix"])
        p = CompiledProgram(result.c_source)
        yield p
        p.cleanup()

    @pytest.fixture(scope="class")
    def cube(self):
        return np.random.default_rng(0).normal(0, 1, (64, 64, 32)).astype(np.float32)

    @pytest.mark.parametrize("nthreads", [1, 2, 4])
    def test_bench_threads(self, benchmark, prog, cube, nthreads):
        def run():
            return prog.run({"ssh.data": cube}, output_names=["means.data"],
                            nthreads=nthreads, collect_stats=False)

        out = benchmark(run)
        assert np.allclose(out.outputs["means.data"], cube.mean(axis=2),
                           atol=1e-3)
