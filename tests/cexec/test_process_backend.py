"""S27 shared-memory process backend: identity, crash recovery, and
resource hygiene.

The process pool must be *observationally invisible*: for any worker
count and any program, ``parallel_backend="process"`` (and ``"auto"``)
produces bit-identical outputs, traps, ordered stdout, and merged
InterpStats counters to the sequential run — with ineligible regions
(IO hazards, refcount traffic that can reach a capture, unshippable
captures) falling back to the thread pool, a lost worker degrading to an
exact sequential rerun, and every shared-memory segment unlinked no
matter how the run ends.
"""

import gc
import glob
import os
import time

import numpy as np
import pytest

from repro.api import compile_source
from repro.cexec.interp import RuntimeTrap, run_program
from repro.cexec.parallel import ProcessShardPool, resolve_backend
from repro.eddy import synthetic_ssh
from repro.programs import load

SHM_GLOB = "/dev/shm/reproshard_*"


def _echo_runner(job):
    # Module-level so forked workers reach it by inherited memory.
    return ("echo", job["k"])


def leaked_segments():
    return [p for p in glob.glob(SHM_GLOB)
            if f"_{os.getpid()}_" in os.path.basename(p)]


def stats_tuple(st):
    return (st.allocs, st.frees, st.copies, st.parallel_regions,
            st.tasks_spawned, tuple(st.region_sizes))


def run_one(src, exts, inputs=None, outputs=None, nthreads=1, backend=None):
    """(rc, trap, stats_tuple, stdout, outputs) for one configuration."""
    trap = None
    rc, outs, st, ex = None, {}, None, None
    try:
        rc, outs, st, ex = run_program(
            src, list(exts), inputs, output_names=outputs,
            nthreads=nthreads, parallel_backend=backend)
    except RuntimeTrap as t:
        trap = str(t)
    stats = stats_tuple(st) if st is not None else None
    return (rc, trap, stats, list(ex.stdout) if ex else None, outs)


def run_engine(src, exts, inputs, outputs, workdir, nthreads=1,
               backend=None):
    """Like :func:`run_one`, but the stats tuple survives a trap; also
    returns how many regions ran on the process pool."""
    from repro.cexec.rmat import read_rmat, write_rmat

    cr = compile_source(src, list(exts))
    for name, arr in (inputs or {}).items():
        write_rmat(workdir / name, arr)
    engine = cr.make_engine(nthreads=nthreads, parallel_backend=backend,
                            workdir=workdir)
    rc, trap = None, None
    try:
        rc = engine.run_main()
    except RuntimeTrap as t:
        trap = str(t)
    finally:
        engine.close()
    outs = {k: read_rmat(workdir / k) for k in outputs
            if (workdir / k).exists()}
    return (rc, trap, stats_tuple(engine.stats), list(engine.stdout),
            outs), engine.process_regions


def assert_identical(seq, par, label=""):
    s_rc, s_trap, s_stats, s_out, s_files = seq
    p_rc, p_trap, p_stats, p_out, p_files = par
    assert s_rc == p_rc, f"{label}: rc {s_rc} vs {p_rc}"
    assert s_trap == p_trap, f"{label}: trap {s_trap!r} vs {p_trap!r}"
    assert s_stats == p_stats, f"{label}: stats {s_stats} vs {p_stats}"
    assert s_out == p_out, f"{label}: stdout {s_out} vs {p_out}"
    assert set(s_files) == set(p_files), f"{label}: output files differ"
    for k in s_files:
        assert s_files[k].dtype == p_files[k].dtype, f"{label}: {k} dtype"
        assert np.array_equal(s_files[k], p_files[k], equal_nan=True), \
            f"{label}: {k} payload differs"


def corpus_case(name):
    if name == "fig1":
        cube = np.random.default_rng(0).normal(
            0, 0.5, (6, 8, 12)).astype(np.float32)
        return load("fig1"), ("matrix",), {"ssh.data": cube}, ["means.data"]
    if name == "fig4":
        rng = np.random.default_rng(9)
        ssh = rng.normal(0.2, 0.5, (8, 9, 5)).astype(np.float32)
        dates = np.array([1011990, 1012000, 1012010, 1012020, 1012030],
                         dtype=np.int32)
        return (load("fig4"), ("matrix",),
                {"ssh.data": ssh, "dates.data": dates}, ["eddyLabels.data"])
    if name == "fig8":
        data = synthetic_ssh((5, 6, 32), n_eddies=2, seed=21)
        return (load("fig8"), ("matrix",), {"ssh.data": data.cube},
                ["temporalScores.data"])
    cube = np.random.default_rng(3).normal(0, 1, (6, 8, 10)).astype(np.float32)
    return (load("fig9"), ("matrix", "transform"), {"ssh.data": cube},
            ["means.data"])


TRAP_SRC = """
int main() {
    Matrix int <1> num = readMatrix("num.data");
    Matrix int <1> den = readMatrix("den.data");
    Matrix int <1> q = init(Matrix int <1>, 64);
    q = with ([0] <= [i] < [64]) genarray([64], num[i] / den[i]);
    writeMatrix("q.data", q);
    return 0;
}
"""

# The with-loop hands its captured matrix to a callee that copies the
# reference: rc traffic reaches a capture, so processes are refused.
PICK_SRC = """
float pick(Matrix float <1> m, int i) {
    Matrix float <1> t = m;
    return t[i];
}
int main() {
    Matrix float <1> v = readMatrix("v.data");
    Matrix float <1> b = init(Matrix float <1>, 64);
    b = with ([0] <= [i] < [64]) genarray([64], pick(v, i) + 1.0);
    writeMatrix("b.data", b);
    return 0;
}
"""


def pick_case():
    v = np.random.default_rng(4).normal(0, 1, 64).astype(np.float32)
    return PICK_SRC, ("matrix",), {"v.data": v}, ["b.data"]


# A matrixMap whose function allocates, frees and divides an int by a
# data-dependent zero: process-eligible, and it traps mid-region.
MAP_TRAP_SRC = """
Matrix int <1> ratio(Matrix int <1> v) {
    int n = dimSize(v, 0);
    Matrix int <1> r = init(Matrix int <1>, n);
    r = with ([0] <= [i] < [n]) genarray([n], 360 / v[i]);
    return r;
}
int main() {
    Matrix int <2> a = readMatrix("a.data");
    printInt(dimSize(a, 0));
    Matrix int <2> q = matrixMap(ratio, a, [1]);
    writeMatrix("q.data", q);
    return 0;
}
"""

STDOUT_SRC = """
int main() {
    Matrix float <1> v = init(Matrix float <1>, 64);
    v = with ([0] <= [i] < [64]) genarray([64], 1.0 * i);
    printFloat(with ([0] <= [i] < [64]) fold(+, 0.0, v[i]));
    Matrix float <1> w = with ([0] <= [i] < [64]) genarray([64], v[i] * 2.0);
    printFloat(with ([0] <= [i] < [64]) fold(+, 0.0, w[i]));
    printInt(dimSize(w, 0));
    return 0;
}
"""


class TestIdentity:
    @pytest.mark.parametrize("fig", ["fig1", "fig4", "fig8", "fig9"])
    @pytest.mark.parametrize("backend", ["process", "auto"])
    def test_corpus_bit_identical(self, fig, backend):
        src, exts, inputs, outputs = corpus_case(fig)
        seq = run_one(src, exts, inputs, outputs, nthreads=1)
        for nthreads in (2, 4):
            par = run_one(src, exts, inputs, outputs, nthreads=nthreads,
                          backend=backend)
            assert_identical(seq, par, f"{fig}/{backend}/{nthreads}")
        assert not leaked_segments()

    def test_stdout_ordering(self):
        seq = run_one(STDOUT_SRC, ("matrix",), nthreads=1)
        par = run_one(STDOUT_SRC, ("matrix",), nthreads=4, backend="process")
        assert_identical(seq, par, "stdout")
        assert len(par[3]) == 3

    def test_trap_first_shard_wins(self):
        # Zero divisors in shards 1 and 3: the merged result must
        # re-raise the lowest-index trap, exactly like the sequential
        # run, and with the same partial stats.
        num = np.arange(1, 65, dtype=np.int32)
        den = np.ones(64, dtype=np.int32)
        den[23] = 0
        den[55] = 0
        inputs = {"num.data": num, "den.data": den}
        seq = run_one(TRAP_SRC, ("matrix",), inputs, ["q.data"], nthreads=1)
        par = run_one(TRAP_SRC, ("matrix",), inputs, ["q.data"],
                      nthreads=4, backend="process")
        assert seq[1] is not None and "zero" in seq[1]
        assert_identical(seq, par, "trap")
        assert not leaked_segments()

    @pytest.mark.parametrize("backend", ["process", "auto"])
    def test_trapping_matrixmap_matches_seq(self, backend, tmp_path):
        # Zero divisors in series 2 (shard 1 of 4) and 5 (shard 2): the
        # map runs on processes, and the trap text, stdout and counters
        # (the trapped series' allocs included) equal the sequential run.
        a = np.arange(1, 49, dtype=np.int32).reshape(8, 6)
        a[2, 3] = 0
        a[5, 1] = 0
        case = (MAP_TRAP_SRC, ("matrix",), {"a.data": a}, ["q.data"])
        (tmp_path / "seq").mkdir()
        (tmp_path / "par").mkdir()
        seq, _ = run_engine(*case, tmp_path / "seq")
        par, procs = run_engine(*case, tmp_path / "par", nthreads=4,
                                backend=backend)
        assert seq[1] == "integer division by zero"
        assert_identical(seq, par, f"map-trap/{backend}")
        assert procs == 1
        assert not leaked_segments()


class TestDispatchAndFallback:
    def test_fig1_actually_uses_processes(self):
        src, exts, inputs, outputs = corpus_case("fig1")
        rc, outs, st, ex = run_program(
            src, list(exts), inputs, output_names=outputs,
            nthreads=4, parallel_backend="process")
        assert rc == 0
        assert ex.process_regions >= 1
        assert not any("process-ineligible" in r for r in st.shard_bails)

    def test_rc_hazard_falls_back_to_threads(self):
        # The region passes its captured matrix to a callee that counts
        # references on it, which the analysis flags as process-blocking;
        # the explicit process backend must fall back to threads *and say
        # why*.
        src, exts, inputs, outputs = pick_case()
        seq = run_one(src, exts, inputs, outputs, nthreads=1)
        rc, outs, st, ex = run_program(
            src, list(exts), inputs, output_names=outputs,
            nthreads=4, parallel_backend="process")
        assert rc == seq[0]
        for k in seq[4]:
            assert np.array_equal(seq[4][k], outs[k])
        assert ex.process_regions == 0
        reasons = st.shard_bails
        assert any("process-ineligible (rc)" in r for r in reasons)

    def test_auto_is_silent_about_ineligible_regions(self):
        src, exts, inputs, outputs = pick_case()
        seq = run_one(src, exts, inputs, outputs, nthreads=1)
        rc, outs, st, ex = run_program(
            src, list(exts), inputs, output_names=outputs,
            nthreads=4, parallel_backend="auto")
        assert rc == 0
        for k in seq[4]:
            assert np.array_equal(seq[4][k], outs[k])
        assert ex.process_regions == 0
        assert not any("process-ineligible" in r for r in st.shard_bails)

    @pytest.mark.parametrize("fig", ["fig4", "fig8"])
    def test_allocating_maps_use_processes_under_auto(self, fig):
        # Every rc op under fig4's and fig8's maps acts on a matrix the
        # shard allocated, so `auto` ships them to processes.
        src, exts, inputs, outputs = corpus_case(fig)
        rc, outs, st, ex = run_program(
            src, list(exts), inputs, output_names=outputs,
            nthreads=2, parallel_backend="auto")
        assert rc == 0
        assert ex.process_regions >= 1
        assert not any("process-ineligible" in r for r in st.shard_bails)

    def test_resolve_backend(self, monkeypatch):
        assert resolve_backend("process") == "process"
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "auto")
        assert resolve_backend(None) == "auto"
        monkeypatch.delenv("REPRO_PARALLEL_BACKEND")
        assert resolve_backend(None) == "thread"
        with pytest.raises(ValueError):
            resolve_backend("fibers")
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "fibers")
        with pytest.raises(ValueError):
            resolve_backend(None)

    def test_cli_flag(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "p.xc"
        src.write_text(STDOUT_SRC)
        rc = main([str(src), "-x", "matrix", "--run", "--threads", "4",
                   "--parallel-backend", "process"])
        assert rc == 0
        assert not leaked_segments()


class TestCrashRecovery:
    def test_worker_crash_mid_shard_is_recovered(self, tmp_path):
        from repro.cexec.rmat import read_rmat, write_rmat

        src, exts, inputs, outputs = corpus_case("fig1")
        seq = run_one(src, exts, inputs, outputs, nthreads=1)

        cr = compile_source(src, list(exts))
        for name, arr in inputs.items():
            write_rmat(tmp_path / name, arr)
        engine = cr.make_engine(nthreads=4, parallel_backend="process",
                                workdir=tmp_path)
        try:
            pool = engine._ensure_ppool()
            assert isinstance(pool, ProcessShardPool)
            pool.test_crash_next = 1  # shard 1's worker dies mid-region
            rc = engine.run_main()
            assert rc == seq[0]
            out = read_rmat(tmp_path / outputs[0])
            assert np.array_equal(seq[4][outputs[0]], out)
            reasons = engine.stats.shard_bails
            assert any("worker process lost" in r for r in reasons)
            assert pool.workers_respawned >= 1
            # the respawned bench still takes the next region
            assert pool.alive_workers == pool.nworkers
        finally:
            engine.close()
        assert not leaked_segments()

    def test_shard_timeout_recovers(self):
        pool = ProcessShardPool(1, _echo_runner, timeout_s=0.3)
        try:
            # the worker sleeps far past the deadline: region lost
            assert pool.run_shards([{"k": 0}, {"k": 1, "_sleep": 30.0}]) \
                is None
            assert pool.workers_respawned >= 1
            # the respawned bench serves the next region normally
            got = pool.run_shards([{"k": 0}, {"k": 1}])
            assert got == [("echo", 0), ("echo", 1)]
        finally:
            pool.shutdown()

    def test_pool_level_crash_recovery(self):
        pool = ProcessShardPool(2, _echo_runner)
        try:
            pool.test_crash_next = 1
            assert pool.run_shards([{"k": 0}, {"k": 1}, {"k": 2}]) is None
            assert pool.workers_respawned >= 2  # whole bench replaced
            got = pool.run_shards([{"k": 0}, {"k": 1}, {"k": 2}])
            assert got == [("echo", 0), ("echo", 1), ("echo", 2)]
        finally:
            pool.shutdown()


class TestResourceHygiene:
    def test_no_leaked_segments_after_runs(self):
        src, exts, inputs, outputs = corpus_case("fig1")
        for _ in range(3):
            run_one(src, exts, inputs, outputs, nthreads=4,
                    backend="process")
        assert not leaked_segments()

    def test_close_terminates_workers(self, tmp_path):
        from repro.cexec.rmat import write_rmat

        src, exts, inputs, outputs = corpus_case("fig1")
        cr = compile_source(src, list(exts))
        for name, arr in inputs.items():
            write_rmat(tmp_path / name, arr)
        engine = cr.make_engine(nthreads=4, parallel_backend="process",
                                workdir=tmp_path)
        engine.run_main()
        procs = [proc for proc, _ in engine._ppool._workers]
        assert any(p.is_alive() for p in procs)
        engine.close()
        for p in procs:
            p.join(timeout=5)
        assert not any(p.is_alive() for p in procs)

    def test_finalizer_reaps_workers_without_close(self, tmp_path):
        from repro.cexec.rmat import write_rmat

        src, exts, inputs, outputs = corpus_case("fig1")
        cr = compile_source(src, list(exts))
        for name, arr in inputs.items():
            write_rmat(tmp_path / name, arr)
        engine = cr.make_engine(nthreads=4, parallel_backend="process",
                                workdir=tmp_path)
        engine.run_main()
        procs = [proc for proc, _ in engine._ppool._workers]
        assert any(p.is_alive() for p in procs)
        # Drop the only reference without close(): the weakref
        # finalizer must shut the pool down (the pool must not pin the
        # VM through its job-runner callback, or this never fires).
        del engine
        gc.collect()
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in procs) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(p.is_alive() for p in procs)
        assert not leaked_segments()
