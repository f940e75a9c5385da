"""Differential testing: bytecode VM vs. tree-walking interpreter.

The VM is the default engine; the tree-walker is the reference.  For the
whole example corpus — and for targeted programs poking the trickier
VM/fast-path corners — both engines must produce identical return codes,
stdout, RMAT outputs (bit-for-bit), runtime traps, and InterpStats
counters (allocs/frees/copies/regions/region sizes/tasks).

The corpus inputs here are small, so with the shipped ``MIN_TRIP`` most
of their loops run the scalar bytecode behind each ``fastloop``; the
``...EveryPlan`` classes rerun the corpus classes with ``MIN_TRIP = 0``
so every matched loop enters its numpy plan too.
"""

import numpy as np
import pytest

from repro.cexec import loopfast
from repro.cexec.interp import InterpError, RuntimeTrap, run_program
from repro.eddy import synthetic_ssh
from repro.programs import load

CILK_FIB = """
int fib(int n) {
    if (n < 2) return n;
    int a = 0;
    int b = 0;
    spawn a = fib(n - 1);
    spawn b = fib(n - 2);
    sync;
    return a + b;
}
int main() {
    int r = 0;
    spawn r = fib(10);
    sync;
    printInt(r);
    return 0;
}
"""


def run_one(engine, src, exts, inputs=None, outputs=None, nthreads=None,
            options=None):
    """Run on one engine; returns (rc, trap, stats_tuple, stdout, outputs)."""
    trap = None
    rc, outs, st, ex = None, {}, None, None
    try:
        rc, outs, st, ex = run_program(
            src, list(exts), inputs, output_names=outputs,
            nthreads=nthreads, options=options, engine=engine)
    except RuntimeTrap as t:
        trap = str(t)
    stats = None
    if st is not None:
        stats = (st.allocs, st.frees, st.copies, st.parallel_regions,
                 st.tasks_spawned, tuple(st.region_sizes))
    return (rc, trap, stats, list(ex.stdout) if ex else None, outs)


def run_both(src, exts, inputs=None, outputs=None, nthreads=None,
             options=None):
    """Run on both engines; return (tree_result, vm_result) where each
    is (rc_or_trap, stats_tuple, stdout, outputs).

    ``nthreads=None`` defers to ``REPRO_THREADS`` (default 2 here), so CI
    can rerun this whole suite with a 4-worker VM pool engaged and assert
    that nothing observable moves."""
    from repro.cexec.parallel import resolve_nthreads

    nthreads = resolve_nthreads(nthreads, default=2)
    return (run_one("tree", src, exts, inputs, outputs, nthreads, options),
            run_one("vm", src, exts, inputs, outputs, nthreads, options))


def assert_identical(tree, vm, label=""):
    t_rc, t_trap, t_stats, t_out, t_files = tree
    v_rc, v_trap, v_stats, v_out, v_files = vm
    assert t_rc == v_rc, f"{label}: rc {t_rc} vs {v_rc}"
    assert t_trap == v_trap, f"{label}: trap {t_trap!r} vs {v_trap!r}"
    assert t_stats == v_stats, f"{label}: stats {t_stats} vs {v_stats}"
    assert t_out == v_out, f"{label}: stdout {t_out} vs {v_out}"
    assert set(t_files) == set(v_files), f"{label}: output files differ"
    for k in t_files:
        assert t_files[k].dtype == v_files[k].dtype, f"{label}: {k} dtype"
        assert np.array_equal(t_files[k], v_files[k], equal_nan=True), \
            f"{label}: {k} payload differs"


# Two folds over the time axis, one of them ``*``, combined after both:
# the lifted genarray body is a fold nest with two fold loops.
TWO_FOLDS = """
int main() {
    Matrix float <3> mat = readMatrix("ssh.data");
    int m = dimSize(mat, 0);
    int n = dimSize(mat, 1);
    int p = dimSize(mat, 2);
    Matrix float <2> out = init(Matrix float <2>, m, n);
    out = with ([0,0] <= [i,j] < [m,n])
        genarray([m,n],
            (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,:][k])) / p
            - (with ([0] <= [k] < [p]) fold(*, 1.0, mat[i,j,:][k])));
    writeMatrix("out.data", out);
    return 0;
}
"""


def two_folds_cube(seed, shape):
    return np.random.default_rng(seed).normal(1, 0.1, shape).astype(np.float32)


class TestExampleCorpus:
    def test_fig1_temporal_mean(self):
        cube = np.random.default_rng(0).normal(
            0, 0.5, (6, 8, 12)).astype(np.float32)
        t, v = run_both(load("fig1"), ("matrix",), {"ssh.data": cube},
                        ["means.data"], nthreads=3)
        assert_identical(t, v, "fig1")
        assert t[2][3] >= 1  # parallel regions exercised on both

    def test_two_folds_sum_and_product(self):
        cube = two_folds_cube(1, (6, 8, 12))
        t, v = run_both(TWO_FOLDS, ("matrix",), {"ssh.data": cube},
                        ["out.data"], nthreads=3)
        assert_identical(t, v, "two-folds")

    def test_fig4_conncomp(self):
        rng = np.random.default_rng(9)
        ssh = rng.normal(0.2, 0.5, (8, 9, 5)).astype(np.float32)
        dates = np.array([1011990, 1012000, 1012010, 1012020, 1012030],
                         dtype=np.int32)
        t, v = run_both(load("fig4"), ("matrix",),
                        {"ssh.data": ssh, "dates.data": dates},
                        ["eddyLabels.data"])
        assert_identical(t, v, "fig4")

    def test_fig8_eddy_pipeline(self):
        data = synthetic_ssh((5, 6, 32), n_eddies=2, seed=21)
        t, v = run_both(load("fig8"), ("matrix",), {"ssh.data": data.cube},
                        ["temporalScores.data"])
        assert_identical(t, v, "fig8")

    def test_fig9_transform_annotated(self):
        c = np.random.default_rng(3).normal(0, 1, (6, 8, 10)).astype(np.float32)
        t, v = run_both(load("fig9"), ("matrix", "transform"),
                        {"ssh.data": c}, ["means.data"])
        assert_identical(t, v, "fig9")

    def test_fig1_library_baseline_options(self):
        from repro.api import Optimizations

        cube = np.random.default_rng(5).normal(
            0, 1, (4, 5, 9)).astype(np.float32)
        opts = Optimizations(fuse_assignment=False, eliminate_slices=False)
        t, v = run_both(load("fig1"), ("matrix",), {"ssh.data": cube},
                        ["means.data"], options=opts)
        assert_identical(t, v, "fig1-baseline")
        assert t[2][2] == 1  # the materialized with-loop temp copy

    def test_cilk_fib(self):
        t, v = run_both(CILK_FIB, ("cilk",))
        assert_identical(t, v, "cilk-fib")
        assert t[3] == ["55"]
        assert t[2][4] > 100  # sequential elision still counts spawns

    def test_thread_count_invariance_on_vm(self):
        cube = np.random.default_rng(11).normal(
            0, 1, (5, 6, 20)).astype(np.float32)
        outs = []
        for n in (1, 2, 5):
            _rc, files, _st, _ex = run_program(
                load("fig1"), ["matrix"], {"ssh.data": cube},
                output_names=["means.data"], nthreads=n, engine="vm")
            outs.append(files["means.data"])
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])


PRINTING_MAP = """
Matrix float <1> tag(Matrix float <1> v) {
    printFloat(v[0]);
    return v * 2.0;
}
int main() {
    Matrix float <2> a = readMatrix("a.data");
    Matrix float <2> b = matrixMap(tag, a, [1]);
    writeMatrix("b.data", b);
    return 0;
}
"""

SHARD_TRAP = """
int main() {
    Matrix int <1> num = readMatrix("num.data");
    Matrix int <1> den = readMatrix("den.data");
    Matrix int <1> q = init(Matrix int <1>, 20);
    q = with ([0] <= [i] < [20]) genarray([20], num[i] / den[i]);
    writeMatrix("q.data", q);
    return 0;
}
"""


class TestParallelIdentity:
    """The acceptance bar for S23: a 4-worker VM run must be
    *observationally identical* to the sequential one — rc, traps,
    stdout order, bit-identical outputs, and the full merged stats tuple
    including region sizes and task counts."""

    def vm_pair(self, src, exts, inputs=None, outputs=None):
        seq = run_one("vm", src, exts, inputs, outputs, nthreads=1)
        par = run_one("vm", src, exts, inputs, outputs, nthreads=4)
        return seq, par

    def test_fig1_identical_at_4_workers(self):
        cube = np.random.default_rng(7).normal(
            0, 0.5, (7, 5, 33)).astype(np.float32)
        seq, par = self.vm_pair(load("fig1"), ("matrix",),
                                {"ssh.data": cube}, ["means.data"])
        assert_identical(seq, par, "fig1-par")
        assert seq[2][3] >= 1  # a parallel region actually ran

    def test_two_folds_identical_at_4_workers(self):
        cube = two_folds_cube(2, (7, 5, 33))
        seq, par = self.vm_pair(TWO_FOLDS, ("matrix",),
                                {"ssh.data": cube}, ["out.data"])
        assert_identical(seq, par, "two-folds-par")
        assert seq[2][3] >= 1

    def test_fig8_identical_at_4_workers(self):
        data = synthetic_ssh((5, 6, 32), n_eddies=2, seed=3)
        seq, par = self.vm_pair(load("fig8"), ("matrix",),
                                {"ssh.data": data.cube},
                                ["temporalScores.data"])
        assert_identical(seq, par, "fig8-par")

    def test_fig4_matrixmap_identical_at_4_workers(self):
        # matrixMap bodies allocate slices and drive refcounts inside
        # the shards — alloc/free/copy counters must still merge exactly.
        rng = np.random.default_rng(13)
        ssh = rng.normal(0.1, 0.5, (7, 6, 5)).astype(np.float32)
        dates = np.array([1011990, 1012000, 1012010, 1012020, 1012030],
                         dtype=np.int32)
        seq, par = self.vm_pair(load("fig4"), ("matrix",),
                                {"ssh.data": ssh, "dates.data": dates},
                                ["eddyLabels.data"])
        assert_identical(seq, par, "fig4-par")

    def test_print_order_preserved_across_shards(self):
        # Worker shards buffer prints thread-locally; the left-to-right
        # merge must reproduce the sequential iteration order exactly.
        a = np.random.default_rng(23).normal(
            0, 2, (11, 3)).astype(np.float32)
        seq, par = self.vm_pair(PRINTING_MAP, ("matrix",),
                                {"a.data": a}, ["b.data"])
        assert_identical(seq, par, "print-order")
        assert len(seq[3]) == 11  # one line per mapped row, in row order

    @pytest.mark.parametrize("zero_at", [1, 13, 19])
    def test_first_trap_wins_matches_sequential(self, zero_at):
        # A zero divisor at iteration `zero_at` traps in exactly one
        # shard; the parallel run must re-raise the lowest-index trap
        # with the same partial stats the sequential run accumulated.
        num = np.arange(1, 21, dtype=np.int32)
        den = np.ones(20, dtype=np.int32)
        den[zero_at] = 0
        seq, par = self.vm_pair(SHARD_TRAP, ("matrix",),
                                {"num.data": num, "den.data": den},
                                ["q.data"])
        assert seq[1] is not None and "zero" in seq[1]
        assert_identical(seq, par, f"shard-trap@{zero_at}")

    def test_cilk_fib_identical_and_counter_parity(self):
        # Satellite: elided (n=1) and pooled (n=4) Cilk runs must report
        # the same tasks_spawned — spawns are counted at the spawn point,
        # not at execution.
        seq, par = self.vm_pair(CILK_FIB, ("cilk",))
        assert_identical(seq, par, "cilk-par")
        assert seq[2][4] == par[2][4] > 100


@pytest.fixture()
def every_plan(monkeypatch):
    """No trip-count crossover: every matched loop enters its plan."""
    monkeypatch.setattr(loopfast, "MIN_TRIP", 0)


@pytest.mark.usefixtures("every_plan")
class TestExampleCorpusEveryPlan(TestExampleCorpus):
    pass


@pytest.mark.usefixtures("every_plan")
class TestParallelIdentityEveryPlan(TestParallelIdentity):
    pass


class TestTrapsAndEdgeCases:
    def test_shape_mismatch_trap(self):
        src = """int main() {
            Matrix float <1> a = init(Matrix float <1>, 4);
            Matrix float <1> b = init(Matrix float <1>, 5);
            Matrix float <1> c = a + b;
            writeMatrix("c.data", c);
            return 0;
        }"""
        t, v = run_both(src, ("matrix",))
        assert_identical(t, v, "shape-trap")
        assert t[1] is not None and "shapes" in t[1]

    def test_integer_division_semantics(self):
        # c_div truncates toward zero; the numpy fast path must bail on
        # int/int division and let the scalar engines agree.
        src = """int main() {
            Matrix int <1> a = readMatrix("a.data");
            Matrix int <1> b = init(Matrix int <1>, 6);
            b = with ([0] <= [i] < [6]) genarray([6], a[i] / (0 - 2));
            writeMatrix("b.data", b);
            printInt((0 - 7) / 2);
            printInt(7 % (0 - 2));
            return 0;
        }"""
        a = np.array([-7, -6, -1, 0, 5, 7], dtype=np.int32)
        t, v = run_both(src, ("matrix",), {"a.data": a}, ["b.data"])
        assert_identical(t, v, "c-div")
        assert t[3] == ["-3", "1"]
        assert np.array_equal(t[4]["b.data"],
                              np.array([3, 3, 0, 0, -2, -3], dtype=np.int32))

    def test_division_by_zero_trap(self):
        src = """int main() {
            int z = 0;
            printInt(4 / z);
            return 0;
        }"""
        t, v = run_both(src, ())
        assert_identical(t, v, "div0")
        assert t[1] is not None

    def test_float_narrowing_identical(self):
        # float32 store rounding must match element-by-element
        src = """int main() {
            Matrix float <1> a = readMatrix("a.data");
            Matrix float <1> b = init(Matrix float <1>, 64);
            b = with ([0] <= [i] < [64]) genarray([64], a[i] * 1.0000001 + 0.3);
            writeMatrix("b.data", b);
            return 0;
        }"""
        a = (np.random.default_rng(2).normal(0, 100, 64)).astype(np.float32)
        t, v = run_both(src, ("matrix",), {"a.data": a}, ["b.data"])
        assert_identical(t, v, "f32-narrow")

    def test_fold_rounding_identical(self):
        # left-to-right float accumulation: cumsum path vs scalar fold
        src = """int main() {
            Matrix float <1> a = readMatrix("a.data");
            float s = with ([0] <= [i] < [1000]) fold(+, 0.0, a[i]);
            printFloat(s);
            return 0;
        }"""
        rng = np.random.default_rng(4)
        a = (rng.normal(0, 1, 1000)
             * 10.0 ** rng.integers(-6, 6, 1000)).astype(np.float32)
        t, v = run_both(src, ("matrix",), {"a.data": a})
        assert_identical(t, v, "fold-rounding")

    def test_rank_mismatch_trap(self):
        src = """int main() {
            Matrix float <2> a = readMatrix("a.data");
            writeMatrix("out.data", a);
            return 0;
        }"""
        a = np.zeros(5, dtype=np.float32)  # rank 1, declared rank 2
        t, v = run_both(src, ("matrix",), {"a.data": a}, ["out.data"])
        assert_identical(t, v, "rank-trap")
        assert t[1] is not None and "rank" in t[1]

    def test_host_only_program(self):
        src = """
        int add(int a, int b) { return a + b; }
        int main() {
            int i = 0;
            int acc = 0;
            while (i < 10) {
                if (i % 3 == 0) { i = i + 1; continue; }
                if (i > 7) break;
                acc = add(acc, i);
                i = i + 1;
            }
            printInt(acc);
            return acc;
        }"""
        t, v = run_both(src, ())
        assert_identical(t, v, "host-control-flow")

    def test_unknown_function_errors_identically(self):
        # Both engines fault lazily, at call time, with the same message
        src = "int main() { return 0; }"
        from repro.api import compile_source
        from repro.cexec.interp import make_engine

        cr = compile_source(src, [])
        for eng in ("tree", "vm"):
            ex = make_engine(cr.lowered, cr.ctx, engine=eng)
            assert ex.run_main() == 0
            with pytest.raises(InterpError, match="unknown function"):
                ex.call_function("nope", [])


class TestEngineSelection:
    def test_make_engine_rejects_unknown(self):
        from repro.api import compile_source
        from repro.cexec.interp import make_engine

        cr = compile_source("int main() { return 3; }", [])
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine(cr.lowered, cr.ctx, engine="jit")

    def test_run_source_api(self, tmp_path):
        from repro.api import run_source

        rc, _outs, stats, ex = run_source(
            "int main() { printInt(41 + 1); return 0; }", [],
            workdir=tmp_path)
        assert rc == 0 and ex.stdout == ["42"]

    def test_shared_bytecode_across_vms(self):
        from repro.api import compile_source
        from repro.cexec.vm import VM

        cr = compile_source("int main() { return 7; }", [])
        bc = cr.bytecode()
        assert cr.bytecode() is bc  # memoized
        assert VM(cr.lowered, cr.ctx, program=bc).run_main() == 7
        assert VM(cr.lowered, cr.ctx, program=bc).run_main() == 7
