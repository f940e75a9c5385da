"""Unit tests for the S23 fork-join runtime (`repro.cexec.parallel`)
and its VM integration: pool mechanics, eligibility analysis, stats
merging, and nthreads plumbing."""

import threading

import numpy as np
import pytest

from repro.api import compile_source
from repro.cexec.interp import InterpStats
from repro.cexec.parallel import (
    DEFAULT_TASK_CAP, WorkerPool, resolve_nthreads)
from repro.cexec.rmat import read_rmat, write_rmat
from repro.cexec.vm import VM
from repro.programs import load


class TestResolveNthreads:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "8")
        assert resolve_nthreads(2) == 2

    def test_env_default(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setenv("REPRO_THREADS", "3")
        assert resolve_nthreads(None) == 3

    def test_env_clamped_to_cpu_count(self, monkeypatch):
        import repro.cexec.parallel as par

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(par, "_warned_thread_excess", False)
        monkeypatch.setenv("REPRO_THREADS", "16")
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert resolve_nthreads(None) == 2
        # warn-once: the second resolution clamps silently
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_nthreads(None) == 2

    def test_explicit_not_clamped(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert resolve_nthreads(16) == 16

    def test_fallback_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        assert resolve_nthreads(None) == 1
        assert resolve_nthreads(None, default=4) == 4

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "many")
        assert resolve_nthreads(None, default=2) == 2

    def test_clamped_to_one(self):
        assert resolve_nthreads(0) == 1
        assert resolve_nthreads(-3) == 1


class TestInterpStatsMerge:
    def test_counters_add_and_region_sizes_append(self):
        a = InterpStats(allocs=3, frees=1, copies=2, parallel_regions=1,
                        tasks_spawned=4, region_sizes=[6])
        b = InterpStats(allocs=1, frees=1, copies=0, parallel_regions=2,
                        tasks_spawned=1, region_sizes=[3, 9])
        out = a.merge(b)
        assert out is a
        assert (a.allocs, a.frees, a.copies) == (4, 2, 2)
        assert (a.parallel_regions, a.tasks_spawned) == (3, 5)
        assert a.region_sizes == [6, 3, 9]
        assert a.leaked == 2


class TestWorkerPool:
    def test_region_runs_every_shard_once(self):
        pool = WorkerPool(4)
        try:
            hits = [0] * 4
            for _round in range(5):  # pool is reused across regions
                pool.run_region(
                    [lambda i=i: hits.__setitem__(i, hits[i] + 1)
                     for i in range(4)])
            assert hits == [5, 5, 5, 5]
            assert pool.regions_dispatched == 5
        finally:
            pool.shutdown()

    def test_workers_are_persistent_and_offloaded(self):
        pool = WorkerPool(3)
        try:
            idents = [set(), set(), set()]
            for _round in range(4):
                pool.run_region(
                    [lambda i=i: idents[i].add(threading.get_ident())
                     for i in range(3)])
            # shard 0 always runs on the owner; each worker shard runs on
            # the same persistent non-owner thread every round.
            assert idents[0] == {threading.get_ident()}
            for worker_idents in idents[1:]:
                assert len(worker_idents) == 1
                assert worker_idents != idents[0]
        finally:
            pool.shutdown()

    def test_nested_region_refused(self):
        pool = WorkerPool(2)
        try:
            inner = []
            outer = pool.run_region(
                [lambda: inner.append(pool.run_region([lambda: None])),
                 lambda: None])
            assert outer is True
            assert inner == [False]  # nested dispatch falls back inline
        finally:
            pool.shutdown()

    def test_region_refused_off_owner_thread(self):
        pool = WorkerPool(2)
        try:
            got = []
            t = threading.Thread(
                target=lambda: got.append(pool.run_region([lambda: None] * 2)))
            t.start()
            t.join()
            assert got == [False]
        finally:
            pool.shutdown()

    def test_too_many_shards_rejected(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(ValueError, match="shards"):
                pool.run_region([lambda: None] * 3)
        finally:
            pool.shutdown()

    def test_tasks_run_and_saturation_elides(self):
        pool = WorkerPool(2, task_cap=2)
        try:
            started = threading.Event()
            release = threading.Event()
            blocker = pool.submit(lambda: (started.set(), release.wait(5)))
            assert blocker is not None
            assert started.wait(5)
            second = pool.submit(lambda: None)  # live=2 == cap after this
            third = pool.submit(lambda: None)
            assert third is None  # saturated: caller must elide
            release.set()
            pool.wait_task(blocker)
            if second is not None:
                pool.wait_task(second)
            assert blocker.done
        finally:
            pool.shutdown()

    def test_wait_task_helps_from_owner(self):
        # With a single worker busy, the owner draining its own wait must
        # execute queued tasks itself rather than deadlock.
        pool = WorkerPool(2)
        try:
            ran_on = []
            tasks = [pool.submit(lambda: ran_on.append(threading.get_ident()))
                     for _ in range(8)]
            for t in tasks:
                pool.wait_task(t)
            assert len(ran_on) == 8
        finally:
            pool.shutdown()

    def test_task_exception_captured_not_raised(self):
        pool = WorkerPool(2)
        try:
            def boom():
                raise ValueError("inside task")
            task = pool.submit(boom)
            pool.wait_task(task)
            assert isinstance(task.exc, ValueError)
        finally:
            pool.shutdown()

    def test_drain_waits_for_all_tasks(self):
        pool = WorkerPool(2)
        try:
            done = []
            for i in range(6):
                pool.submit(lambda i=i: done.append(i))
            pool.drain()
            assert sorted(done) == list(range(6))
        finally:
            pool.shutdown()

    def test_shutdown_then_submit_refused(self):
        pool = WorkerPool(2)
        pool.shutdown()
        assert not pool.alive
        assert pool.submit(lambda: None) is None
        assert pool.run_region([lambda: None] * 2) is False


class TestEligibilityAnalysis:
    """The compile-time hazard scan that marks parallel-safe constructs."""

    def bc(self, src, exts=()):
        cr = compile_source(src, list(exts))
        assert cr.ok, cr.errors
        return cr.bytecode()

    def test_fib_is_task_safe(self):
        bc = self.bc("""
            int fib(int n) {
                if (n < 2) return n;
                int a = 0; int b = 0;
                spawn a = fib(n - 1);
                spawn b = fib(n - 2);
                sync;
                return a + b;
            }
            int main() { printInt(fib(5)); return 0; }
        """, ("cilk",))
        assert bc.task_parallel_safe("fib")
        assert not bc.task_parallel_safe("main")  # prints
        assert not bc.task_parallel_safe("nope")  # unknown function

    def test_printing_callee_not_task_safe(self):
        bc = self.bc("""
            int shout(int n) { printInt(n); return n; }
            int quiet(int n) { return shout(n); }
            int main() { return quiet(3); }
        """)
        # transitive: quiet prints through shout
        assert not bc.task_parallel_safe("shout")
        assert not bc.task_parallel_safe("quiet")

    def test_division_makes_task_unsafe_but_shard_safe(self):
        bc = self.bc("""
            int half(int n) { return n / 2; }
            int main() { return half(8); }
        """)
        assert not bc.task_parallel_safe("half")  # may trap off-thread
        assert "trap" in bc.hazards_for("half")

    def test_with_loop_worker_is_shard_safe(self):
        bc = self.bc(load("fig1"), ("matrix",))
        lifted = list(bc.lifted_trees)
        assert lifted, "fig1 should lower to at least one pool worker"
        assert all(bc.lifted_parallel_safe(name) for name in lifted)

    def test_io_in_region_blocks_sharding(self):
        bc = self.bc("""
            float peek(int i) {
                Matrix float <1> a = readMatrix("a.data");
                return a[i];
            }
            int main() {
                Matrix float <1> out = init(Matrix float <1>, 4);
                out = with ([0] <= [i] < [4]) genarray([4], peek(i));
                writeMatrix("out.data", out);
                return 0;
            }
        """, ("matrix",))
        assert bc.lifted_trees
        for name in bc.lifted_trees:
            assert not bc.lifted_parallel_safe(name)
            assert "io" in bc.hazards_for(name, lifted=True)


class TestVMPoolIntegration:
    @pytest.fixture(scope="class")
    def fig1(self, tmp_path_factory):
        wd = tmp_path_factory.mktemp("fig1par")
        cube = np.random.default_rng(0).normal(
            0, 0.4, (8, 5, 24)).astype(np.float32)
        write_rmat(wd / "ssh.data", cube)
        cr = compile_source(load("fig1"), ["matrix"])
        assert cr.ok
        return cr, wd

    def test_region_actually_dispatches_to_pool(self, fig1):
        cr, wd = fig1
        vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=4,
                program=cr.bytecode())
        try:
            assert vm.run_main() == 0
            assert vm._pool is not None
            assert vm._pool.regions_dispatched >= 1
        finally:
            vm.close()

    def test_output_identical_to_sequential(self, fig1):
        cr, wd = fig1
        outs = {}
        for n in (1, 3, 4):
            vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=n,
                    program=cr.bytecode())
            assert vm.run_main() == 0
            vm.close()
            outs[n] = read_rmat(wd / "means.data")
        assert np.array_equal(outs[1], outs[3])
        assert np.array_equal(outs[1], outs[4])

    def test_cilk_spawns_actually_pool(self):
        cr = compile_source("""
            int fib(int n) {
                if (n < 2) return n;
                int a = 0; int b = 0;
                spawn a = fib(n - 1);
                spawn b = fib(n - 2);
                sync;
                return a + b;
            }
            int main() { printInt(fib(12)); return 0; }
        """, ["cilk"])
        assert cr.ok
        vm = VM(cr.lowered, cr.ctx, nthreads=4, program=cr.bytecode())
        try:
            assert vm.run_main() == 0
            assert vm.stdout == ["144"]
            assert vm._pool is not None
            assert 0 < vm._pool.tasks_pooled <= vm.stats.tasks_spawned
        finally:
            vm.close()

    def test_task_cap_mirrors_c_runtime(self):
        from repro.codegen.runtime_c import TASKS

        assert f"RT_MAX_LIVE_TASKS {DEFAULT_TASK_CAP}" in TASKS

    def test_close_is_idempotent_and_vm_stays_usable(self, fig1):
        cr, wd = fig1
        vm = VM(cr.lowered, cr.ctx, workdir=wd, nthreads=4,
                program=cr.bytecode())
        assert vm.run_main() == 0
        vm.close()
        vm.close()
        assert vm._pool is None
        assert vm.run_main() == 0  # sequential after close


class TestDriverAndCLI:
    def test_compile_result_make_engine(self, tmp_path):
        cr = compile_source("int main() { printInt(9); return 0; }", [])
        ex = cr.make_engine(engine="vm", workdir=tmp_path, nthreads=2)
        try:
            assert ex.program is cr.bytecode()  # memoized, not recompiled
            assert ex.run_main() == 0
            assert ex.stdout == ["9"]
        finally:
            ex.close()
        tree = cr.make_engine(engine="tree", workdir=tmp_path)
        assert tree.run_main() == 0
        tree.close()

    def test_cli_threads_routed_to_vm(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "p.xc"
        src.write_text("""
            int main() {
                Matrix float <2> m = init(Matrix float <2>, 6, 3);
                m = with ([0,0] <= [i,j] < [6,3])
                    genarray([6,3], 1.0 * i + j);
                writeMatrix("m.data", m);
                printFloat(m[5, 2]);
                return 0;
            }""")
        rc = main([str(src), "-x", "matrix", "--run", "--threads", "4"])
        cap = capsys.readouterr()
        assert rc == 0
        assert cap.out.strip().splitlines()[-1] == "7"
        assert "sequential" not in cap.err

    def test_cli_tree_engine_warns_once_on_threads(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "q.xc"
        src.write_text("int main() { printInt(1); return 0; }")
        rc = main([str(src), "-x", "", "--run", "--engine", "tree",
                   "--threads", "4"])
        cap = capsys.readouterr()
        assert rc == 0
        warnings = [ln for ln in cap.err.splitlines()
                    if "tree engine is sequential" in ln]
        assert len(warnings) == 1

    def test_cli_tree_engine_quiet_at_one_thread(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "r.xc"
        src.write_text("int main() { return 0; }")
        rc = main([str(src), "-x", "", "--run", "--engine", "tree",
                   "--threads", "1"])
        cap = capsys.readouterr()
        assert rc == 0
        assert "sequential" not in cap.err

    def test_env_default_threads(self, tmp_path, monkeypatch):
        from repro.cexec.interp import run_program

        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setenv("REPRO_THREADS", "4")
        rc, outs, st, ex = run_program(
            """int main() {
                Matrix float <2> m = init(Matrix float <2>, 8, 2);
                m = with ([0,0] <= [i,j] < [8,2])
                    genarray([8,2], 1.0 * i * j);
                writeMatrix("m.data", m);
                return 0;
            }""", ["matrix"], workdir=tmp_path, output_names=["m.data"])
        assert rc == 0
        assert ex.nthreads == 4
        assert outs["m.data"].shape == (8, 2)
