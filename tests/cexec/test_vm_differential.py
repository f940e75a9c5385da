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


# fig9's §V stages: Fig. 10 splits j, Fig. 11 (the shipped program) also
# vectorizes jin, so its fold nest runs as a lane plan.
FIG9_FORMS = {
    "fig10": load("fig9").replace(
        "transform split j by 4, jin, jout.\n"
        "                  vectorize jin.\n"
        "                  parallelize i", "transform split j by 4, jin, jout"),
    "fig11": load("fig9"),
}
assert "vectorize jin" not in FIG9_FORMS["fig10"]


def fig9_cube(seed, shape=(6, 8, 20)):
    """k >= 16, so the shipped MIN_TRIP enters the nest plan too."""
    return np.random.default_rng(seed).normal(0, 1, shape).astype(np.float32)


# -- control-flow shapes for the S29 compiled functions ----------------------
#
# Jump threading gives a loop several exit targets (the found-flag break
# skips the ``if (found)`` test; a two-level break leaves both loops),
# a ``return`` sits inside a nested loop, and ``continue`` in a ``for``
# jumps to the step block.  The compiled functions must structure all of
# them; the tree walker is the oracle.

CONTROL_FLOW = """
int search(int n) {
    bool found = false;
    int i = 0;
    for (i = 0; i < n; i = i + 1) {
        if (i * i > 50) { found = true; break; }
    }
    if (found) return i;
    return 0 - 1;
}
int firstOver(Matrix int <2> m, int t) {
    int r = dimSize(m, 0);
    int c = dimSize(m, 1);
    bool found = false;
    int at = 0 - 1;
    for (int i = 0; i < r; i = i + 1) {
        for (int j = 0; j < c; j = j + 1) {
            if (m[i, j] > t) { found = true; at = i * c + j; break; }
        }
        if (found) break;
    }
    return at;
}
int findAt(Matrix int <2> m, int t) {
    int r = dimSize(m, 0);
    int c = dimSize(m, 1);
    for (int i = 0; i < r; i = i + 1) {
        for (int j = 0; j < c; j = j + 1) {
            if (m[i, j] == t) return i * c + j;
        }
    }
    return 0 - 1;
}
int mixed(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
        if (i % 3 == 0) continue;
        if (i > 40) break;
        acc = acc + i;
    }
    int k = 0;
    do {
        acc = acc + k;
        k = k + 2;
    } while (k < 9);
    int w = 0;
    while (true) {
        w = w + 1;
        if (w * w > acc) break;
    }
    return acc * 100 + w;
}
int main() {
    Matrix int <2> m = readMatrix("m.data");
    printInt(search(5));
    printInt(search(20));
    printInt(firstOver(m, 40));
    printInt(firstOver(m, 1000));
    printInt(findAt(m, 17));
    printInt(findAt(m, 0 - 5));
    printInt(mixed(50));
    printInt(mixed(2));
    return 0;
}
"""


def control_flow_input():
    return {"m.data": np.random.default_rng(17).integers(
        0, 60, (5, 7)).astype(np.int32)}


def else_if_chain(arms: int = 120) -> str:
    """An ``arms``-way else-if chain joining at one assignment: it must
    compile as ``elif`` (nested ``else: if`` runs past CPython's 100
    indentation levels)."""
    lines = ["int classify(int x) {", "    int r = 0;"]
    for k in range(arms):
        kw = "if" if k == 0 else "else if"
        lines.append(f"    {kw} (x == {k}) r = {7 * k + 3};")
    lines += ["    else r = 0 - 1;", "    return r + x;", "}",
              "int main() {", "    int s = 0;",
              f"    for (int x = 0; x < {arms + 5}; x = x + 1)",
              "        s = s + classify(x) * (x + 1);",
              "    printInt(s);", "    return 0;", "}"]
    return "\n".join(lines)


def deep_nest(depth: int = 22) -> str:
    """A ``depth``-deep loop nest: past CPython's 20 nested blocks, so
    ``deep`` runs on the closure stream and the ledger says why."""
    lines = ["int deep(int n) {", "    int s = 0;"]
    for k in range(depth):
        bound = "n" if k == 0 else "1"
        lines.append("    " * (k + 1)
                     + f"for (int a{k} = 0; a{k} < {bound}; a{k} = a{k} + 1)")
    lines.append("    " * (depth + 1) + f"s = s + a0 + a{depth - 1} + 1;")
    lines += ["    return s;", "}", "int main() {",
              "    printInt(deep(3));", "    return 0;", "}"]
    return "\n".join(lines)


SPAWN_AFTER_SYNC = """
int work(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) s = s + i * i;
    return s;
}
int main() {
    int a = 0;
    int b = 0;
    spawn a = work(10);
    spawn b = work(20);
    sync;
    printInt(a + b);
    printInt(a - b);
    return 0;
}
"""

# A spawn target that held an int receives a float: each read of it as
# an index still truncates (``m[int(2.5)]``), straight after the sync
# and in a loop.  At -O0 the variable keeps one slot throughout.
SPAWN_FLOAT_INDEX = """
float half(int x) { return x * 0.5; }
int main() {
    Matrix float <1> m = readMatrix("m.data");
    int a = 0;
    spawn a = half(5);
    sync;
    printFloat(m[a]);
    float s = 0.0;
    for (int i = 0; i < 6; i = i + 1) {
        a = i + 1;
        s = s + m[a];
        spawn a = half(i);
        sync;
        s = s + m[a];
    }
    printFloat(s);
    return 0;
}
"""


def spawn_float_index_input():
    return {"m.data": np.arange(8, dtype=np.float32) * 1.5}


# An int accumulator: the fold plan bails at run time and the scalar
# loop behind it runs.
BAILING_PLAN = """
int main() {
    Matrix int <1> a = readMatrix("a.data");
    int s = 0;
    for (int i = 0; i < 32; i = i + 1) { s = s + a[i]; }
    printInt(s);
    return 0;
}
"""

# The divisor is zero at element 9: the stores before it happen (and are
# printed), then the loop traps.
TRAP_MID_LOOP = """
int main() {
    Matrix int <1> a = readMatrix("a.data");
    Matrix float <1> b = init(Matrix float <1>, 24);
    for (int i = 0; i < 24; i = i + 1) {
        b[i] = 1.0 * (100 / a[i]);
        printFloat(b[i]);
    }
    writeMatrix("b.data", b);
    return 0;
}
"""

# C identifiers that are Python keywords and builtins, and a string
# literal holding quotes, a newline and a triple quote.
PY_NAMES_FILE = 'q"u\'o"""te\nd.data'
PY_NAMES = """
int lambda(int None, int exec) {
    int def = None * 3 + exec;
    int print = def - 1;
    return print;
}
int main() {
    Matrix int <1> out = init(Matrix int <1>, 3);
    out[0] = lambda(4, 5);
    out[1] = lambda(0 - 2, 1);
    writeMatrix("q\\"u'o\\"\\"\\"te\\nd.data", out);
    printInt(out[0] + out[1]);
    return 0;
}
"""


def run_full(engine, src, exts, inputs, outputs, nthreads, opt_level=None):
    """One run's observable record: rc, trap text, stats, stdout (kept
    on a trap), outputs, and the bail ledger."""
    import tempfile
    from pathlib import Path

    from repro.api import compile_source
    from repro.cexec.rmat import read_rmat, write_rmat
    from repro.cminus.env import Optimizations

    options = None if opt_level is None else Optimizations(
        opt_level=opt_level)
    cr = compile_source(src, list(exts), options=options, nthreads=nthreads)
    assert cr.ok, cr.errors
    with tempfile.TemporaryDirectory(prefix="repro-cf-") as wd:
        for name, arr in (inputs or {}).items():
            write_rmat(Path(wd) / name, arr)
        ex = cr.make_engine(engine=engine, workdir=wd, nthreads=nthreads)
        rc, trap = None, None
        try:
            rc = ex.run_main()
        except RuntimeTrap as t:
            trap = str(t)
        finally:
            ex.close()
        st = ex.stats
        outs = {n: read_rmat(Path(wd) / n) for n in outputs or ()
                if trap is None}
    stats = (st.allocs, st.frees, st.copies, st.parallel_regions,
             st.tasks_spawned, tuple(st.region_sizes))
    ledger = (st.fastloop_bails, st.shard_bails)
    return (rc, trap, stats, list(ex.stdout), outs), ledger, st


def run_engines(src, exts, inputs=None, outputs=None, nthreads=None,
                opt_level=None):
    """The tree walker, the closure stream and the compiled functions on
    one program: rc, trap, stats, stdout (also up to a trap) and outputs
    must match the tree walker's, and the two VM streams' bail ledgers
    must match each other (the tree walker keeps none).  Returns the
    tree walker's record and the compiled run's stats."""
    import os

    from repro.cexec.parallel import resolve_nthreads

    nthreads = resolve_nthreads(nthreads, default=2)
    tree = run_full("tree", src, exts, inputs, outputs, nthreads,
                    opt_level)[0]
    saved = {k: os.environ.pop(k, None)
             for k in ("REPRO_NO_QUICKEN", "REPRO_COUNT_INSTRS")}
    runs = {}
    try:
        for label, generic in (("generic", "1"), ("compiled", "0")):
            os.environ["REPRO_NO_QUICKEN"] = generic
            runs[label] = run_full("vm", src, exts, inputs, outputs,
                                   nthreads, opt_level)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    for label, (got, _ledger, _st) in runs.items():
        assert_identical(tree, got, label)
    assert runs["generic"][1] == runs["compiled"][1], "bail ledgers differ"
    return tree, runs["compiled"][2]


class TestExampleCorpus:
    def test_control_flow_shapes(self):
        t, st = run_engines(CONTROL_FLOW, ("matrix",), control_flow_input())
        assert t[1] is None and len(t[3]) == 8
        assert st.compile_bails == {}

    def test_else_if_chain_compiles_as_elif(self):
        t, st = run_engines(else_if_chain(), ("matrix",))
        assert t[1] is None and st.compile_bails == {}

    def test_deep_nest_falls_back_with_ledger_entry(self):
        t, st = run_engines(deep_nest(), ("matrix",))
        assert t[3] == ["6"]
        assert list(st.compile_bails) == [
            "deep: CPython refused it: too many statically nested blocks"]

    def test_bailing_plan_runs_scalar_loop(self):
        a = np.arange(32, dtype=np.int32) * 3 - 40
        t, _st = run_engines(BAILING_PLAN, ("matrix",), {"a.data": a})
        assert t[3] == [str(int(a.sum()))]

    def test_trap_mid_loop_after_partial_writes(self):
        a = np.arange(1, 25, dtype=np.int32)
        a[9] = 0
        t, _st = run_engines(TRAP_MID_LOOP, ("matrix",), {"a.data": a},
                             ["b.data"])
        assert t[1] == "integer division by zero" and len(t[3]) == 9

    def test_python_keywords_and_quoted_strings(self):
        t, _st = run_engines(PY_NAMES, ("matrix",), None, [PY_NAMES_FILE])
        assert t[3] == ["10"]
        assert list(t[4][PY_NAMES_FILE]) == [16, -6, 0]

    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_spawn_float_target_as_index(self, opt_level):
        t, _st = run_engines(SPAWN_FLOAT_INDEX, ("matrix", "cilk"),
                             spawn_float_index_input(), opt_level=opt_level)
        assert t[1] is None and t[3] == ["3", "40.5"]

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

    @pytest.mark.parametrize("form", sorted(FIG9_FORMS))
    def test_fig9_split_and_vector_forms(self, form):
        t, v = run_both(FIG9_FORMS[form], ("matrix", "transform"),
                        {"ssh.data": fig9_cube(4)}, ["means.data"])
        assert_identical(t, v, form)

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

    @pytest.mark.parametrize("form", sorted(FIG9_FORMS))
    def test_fig9_forms_identical_at_4_workers(self, form):
        seq, par = self.vm_pair(FIG9_FORMS[form], ("matrix", "transform"),
                                {"ssh.data": fig9_cube(5, (7, 12, 33))},
                                ["means.data"])
        assert_identical(seq, par, f"{form}-par")

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

    def test_control_flow_shapes_identical_at_4_workers(self):
        seq, par = self.vm_pair(CONTROL_FLOW, ("matrix",),
                                control_flow_input())
        assert_identical(seq, par, "control-flow-par")
        run_engines(CONTROL_FLOW, ("matrix",), control_flow_input(),
                    nthreads=4)

    def test_spawn_target_read_after_sync(self):
        seq, par = self.vm_pair(SPAWN_AFTER_SYNC, ("cilk",))
        assert_identical(seq, par, "spawn-after-sync")
        assert seq[3] == ["2755", "-2185"]
        run_engines(SPAWN_AFTER_SYNC, ("cilk",), nthreads=4)
        run_engines(SPAWN_FLOAT_INDEX, ("matrix", "cilk"),
                    spawn_float_index_input(), nthreads=4, opt_level=0)

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
