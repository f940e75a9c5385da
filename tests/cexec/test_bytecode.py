"""Bytecode compiler + numpy fast-path units.

High-level programs are covered differentially in
``test_vm_differential.py``; here we poke the machinery directly:
compile-time slot/jump/constant handling, fast-loop pattern matching,
and — most importantly — every runtime *bail* path, each of which must
fall back to the scalar loop and still produce exactly the tree-walker's
behavior (including traps with correct partial state).
"""

import sys
import types

import numpy as np
import pytest

from repro.ag.tree import Node
from repro.api import compile_source
from repro.cexec import loopfast
from repro.cexec.bytecode import BytecodeProgram, compile_function
from repro.cexec.interp import Interpreter, InterpError, RTMat
from repro.cexec.vm import VM


def N(prod, *children):
    return Node(prod, list(children))


def slist(*ss):
    lst = N("stmtNil")
    for s in reversed(ss):
        lst = N("stmtCons", s, lst)
    return N("block", lst)


def elist(*es):
    lst = N("eNil")
    for e in reversed(es):
        lst = N("eCons", e, lst)
    return lst


def call(name, *args):
    return N("call", name, elist(*args))


def var(n):
    return N("var", n)


def i(v):
    return N("intLit", v)


def fl(v):
    return N("floatLit", v)


def for_loop(v, start, limit, body_stmts):
    return N("forStmt",
             N("forDecl", N("tRaw", "long"), v, start),
             N("binop", "<", var(v), limit),
             N("assign", var(v), N("binop", "+", var(v), i(1))),
             slist(*body_stmts))


def program(*funcs):
    """funcs: (name, params, body) -> a Root node + empty ctx."""
    tu = N("tuNil")
    for name, params, body in reversed(funcs):
        ps = N("paramNil")
        for pt, pn in reversed(params):
            ps = N("paramCons", N("param", N("tRaw", pt), pn), ps)
        tu = N("tuCons", N("funcDef", N("tRaw", "int"), name, ps, body), tu)
    return N("root", tu), types.SimpleNamespace(lifted=[])


def run_engine(eng, root, ctx, fname, make_args):
    """Run ``fname`` on one engine with fresh args: (return value,
    exception class and message, the arguments after the call)."""
    ex = eng(root, ctx)
    args = make_args()
    exc, ret = None, None
    try:
        # Entered as run_main enters main: IEEE specials are silent.
        with np.errstate(all="ignore"):
            ret = ex.call_function(fname, args)
    except Exception as e:  # traps must match class and message
        exc = (type(e).__name__, str(e))
    return ret, exc, [a.data.copy() if isinstance(a, RTMat) else a
                      for a in args]


def both_engines(root, ctx, fname, make_args):
    """Run ``fname`` on tree + vm with fresh args; assert identical
    results (return value, bit-identical matrix payloads) and return the
    vm result."""
    t, v = (run_engine(eng, root, ctx, fname, make_args)
            for eng in (Interpreter, VM))
    assert t[0] == v[0], f"return {t[0]} vs {v[0]}"
    assert t[1] == v[1], f"exception {t[1]} vs {v[1]}"
    for ta, va in zip(t[2], v[2]):
        if isinstance(ta, np.ndarray):
            assert ta.tobytes() == va.tobytes(), "matrix differs"
    return v


def fmat(vals):
    a = np.asarray(vals, dtype=np.float32).reshape(-1)
    return RTMat("f", (a.size,), a)


def imat(vals):
    a = np.asarray(vals, dtype=np.int32).reshape(-1)
    return RTMat("i", (a.size,), a)


@pytest.fixture()
def fastpath_counter(monkeypatch):
    """Count plan commits and bails.  The guard tests below build loops
    of a few iterations, so the trip-count crossover is pinned off:
    every matched loop enters its plan."""
    monkeypatch.setattr(loopfast, "MIN_TRIP", 0)
    hits = {"ok": 0, "bail": 0}
    orig = loopfast.Plan.run

    def run(self, frame, stats=None):
        r = orig(self, frame, stats)
        hits["ok" if r else "bail"] += 1
        return r
    monkeypatch.setattr(loopfast.Plan, "run", run)
    return hits


class TestCompiler:
    def test_float_literals_pooled_at_compile_time(self):
        code = compile_function("f", [], slist(
            N("returnStmt", fl(0.1))))
        consts = [ins[2] for ins in code.instrs if ins[0] == "const"]
        assert float(np.float32(0.1)) in consts  # narrowed once, here

    def test_no_scope_objects_no_control_exceptions(self):
        src = """int main() {
            int s = 0;
            for (int i = 0; i < 10; i = i + 1) {
                if (i == 3) continue;
                if (i > 7) break;
                s = s + i;
            }
            return s;
        }"""
        cr = compile_source(src, [])
        code = cr.bytecode().code_for("main")
        ops = {ins[0] for ins in code.instrs}
        assert "jmp" in ops and "jz" in ops  # break/continue are jumps
        vm = VM(cr.lowered, cr.ctx, program=cr.bytecode())
        interp = Interpreter(cr.lowered, cr.ctx)
        assert vm.run_main() == interp.run_main() == (1 + 2 + 4 + 5 + 6 + 7)

    def test_break_outside_loop_is_compile_error(self):
        root, ctx = program(("f", [], slist(N("breakStmt"))))
        with pytest.raises(InterpError, match="break outside loop"):
            BytecodeProgram(root, ctx).code_for("f")

    def test_unknown_function_lazy(self):
        root, ctx = program(("f", [], slist(N("returnStmt", i(1)))))
        bp = BytecodeProgram(root, ctx)
        assert bp.code_for("f").name == "f"
        with pytest.raises(InterpError, match="unknown function"):
            bp.code_for("g")

    def test_disassembly(self):
        code = compile_function("f", ["x"], slist(
            N("returnStmt", N("binop", "+", var("x"), i(2)))))
        dis = code.dis()
        assert "f(x)" in dis and "const" in dis and "ret" in dis

    def test_embedded_assignment_operand_order(self):
        # x + (x = 5): the left operand must be read before the store
        root, ctx = program(("f", [("long", "x")], slist(
            N("returnStmt",
              N("binop", "+", var("x"), N("assign", var("x"), i(5)))))))
        v = both_engines(root, ctx, "f", lambda: [37])
        assert v[0] == 42

    def test_shortcircuit_result_values(self):
        src = """int main() {
            int a = 3;
            int b = 0;
            return (a && 7) + (b || 0) * 10 + (b && 9) * 100 + (a || 0) * 1000;
        }"""
        cr = compile_source(src, [])
        vm = VM(cr.lowered, cr.ctx)
        assert vm.run_main() == Interpreter(cr.lowered, cr.ctx).run_main() == 1001


class TestFastLoopMatching:
    def test_elementwise_loop_gets_fastloop(self):
        body = [N("exprStmt", call(
            "rt_setf", var("dst"), var("k"),
            N("binop", "+", call("rt_getf", var("a"), var("k")), fl(1.0))))]
        root, ctx = program(("f", [("rt_mat*", "dst"), ("rt_mat*", "a")],
                             slist(for_loop("k", i(0), call("rt_size", var("a")),
                                            body))))
        code = BytecodeProgram(root, ctx).code_for("f")
        assert any(ins[0] == "fastloop" for ins in code.instrs)

    def test_user_call_in_body_no_fastloop(self):
        body = [N("exprStmt", call(
            "rt_setf", var("dst"), var("k"), call("helper", var("k"))))]
        root, ctx = program(
            ("f", [("rt_mat*", "dst")],
             slist(for_loop("k", i(0), i(4), body))),
            ("helper", [("long", "k")], slist(N("returnStmt", var("k")))))
        code = BytecodeProgram(root, ctx).code_for("f")
        assert not any(ins[0] == "fastloop" for ins in code.instrs)

    def test_nonunit_step_gets_fastloop(self):
        # strided loops vectorize since the affine widening (S27)
        loop = N("forStmt",
                 N("forDecl", N("tRaw", "long"), "k", i(0)),
                 N("binop", "<", var("k"), i(8)),
                 N("assign", var("k"), N("binop", "+", var("k"), i(2))),
                 slist(N("exprStmt", call("rt_setf", var("m"), var("k"), fl(1.0)))))
        root, ctx = program(("f", [("rt_mat*", "m")], slist(loop)))
        code = BytecodeProgram(root, ctx).code_for("f")
        assert any(ins[0] == "fastloop" for ins in code.instrs)

    def test_nonpositive_step_no_fastloop(self):
        loop = N("forStmt",
                 N("forDecl", N("tRaw", "long"), "k", i(0)),
                 N("binop", "<", var("k"), i(8)),
                 N("assign", var("k"), N("binop", "+", var("k"), i(0))),
                 slist(N("exprStmt", call("rt_setf", var("m"), var("k"), fl(1.0)))))
        root, ctx = program(("f", [("rt_mat*", "m")], slist(loop)))
        code = BytecodeProgram(root, ctx).code_for("f")
        assert not any(ins[0] == "fastloop" for ins in code.instrs)

    def test_accumulator_read_by_store_no_fastloop(self):
        # s is folded AND stored per iteration: stale on the fast path
        body = [
            N("exprStmt", N("assign", var("s"), N(
                "binop", "+", var("s"), call("rt_getf", var("a"), var("k"))))),
            N("exprStmt", call("rt_setf", var("a"), var("k"), var("s"))),
        ]
        root, ctx = program(("f", [("rt_mat*", "a"), ("double", "s")],
                             slist(for_loop("k", i(0), i(4), body))))
        code = BytecodeProgram(root, ctx).code_for("f")
        assert not any(ins[0] == "fastloop" for ins in code.instrs)


class TestFastLoopRuntime:
    def rmw_program(self):
        # m[k] = m[k] * 2 — same-index read-then-write is vectorizable
        body = [N("exprStmt", call(
            "rt_setf", var("m"), var("k"),
            N("binop", "*", call("rt_getf", var("m"), var("k")), fl(2.0))))]
        return program(("f", [("rt_mat*", "m")], slist(
            for_loop("k", i(0), call("rt_size", var("m")), body))))

    def test_same_index_rmw_vectorizes(self, fastpath_counter):
        root, ctx = self.rmw_program()
        both_engines(root, ctx, "f", lambda: [fmat([1, 2, 3, 4])])
        assert fastpath_counter["ok"] >= 1 and fastpath_counter["bail"] == 0

    def test_shift_aliasing_bails_and_matches(self, fastpath_counter):
        # m[k+1] = m[k]: a loop-carried dependence -> scalar propagation
        body = [N("exprStmt", call(
            "rt_setf", var("m"), N("binop", "+", var("k"), i(1)),
            call("rt_getf", var("m"), var("k"))))]
        root, ctx = program(("f", [("rt_mat*", "m")], slist(
            for_loop("k", i(0), i(3), body))))
        code = BytecodeProgram(root, ctx).code_for("f")
        assert any(ins[0] == "fastloop" for ins in code.instrs)
        v = both_engines(root, ctx, "f", lambda: [fmat([5, 0, 0, 0])])
        assert fastpath_counter["bail"] >= 1
        assert list(v[2][0]) == [5, 5, 5, 5]  # scalar propagated

    def test_out_of_bounds_bails_with_partial_state(self, fastpath_counter):
        body = [N("exprStmt", call("rt_setf", var("m"), var("k"), fl(9.0)))]
        root, ctx = program(("f", [("rt_mat*", "m")], slist(
            for_loop("k", i(0), i(10), body))))
        v = both_engines(root, ctx, "f", lambda: [fmat([0, 0, 0])])
        assert v[1] is not None and v[1][0] == "IndexError"
        assert list(v[2][0]) == [9, 9, 9]  # stores before the trap landed
        assert fastpath_counter["bail"] >= 1

    def test_duplicate_store_indices_bail(self, fastpath_counter):
        # m[k * 0] = k: every store hits element 0, last wins sequentially
        body = [N("exprStmt", call(
            "rt_setf", var("m"), N("binop", "*", var("k"), i(0)),
            N("castE", N("tRaw", "double"), var("k"))))]
        root, ctx = program(("f", [("rt_mat*", "m")], slist(
            for_loop("k", i(0), i(5), body))))
        v = both_engines(root, ctx, "f", lambda: [fmat([0, 0])])
        assert fastpath_counter["bail"] >= 1
        assert v[2][0][0] == 4.0

    def test_integer_division_bails(self, fastpath_counter):
        # 7 / (k+1) is int/int: c_div truncation, not a numpy op
        body = [N("exprStmt", call(
            "rt_seti", var("m"), var("k"),
            N("binop", "/", i(7), N("binop", "+", var("k"), i(1)))))]
        root, ctx = program(("f", [("rt_mat*", "m")], slist(
            for_loop("k", i(0), i(4), body))))
        v = both_engines(root, ctx, "f", lambda: [imat([0, 0, 0, 0])])
        assert fastpath_counter["bail"] >= 1
        assert list(v[2][0]) == [7, 3, 2, 1]

    def test_non_float_accumulator_bails(self, fastpath_counter):
        body = [N("exprStmt", N("assign", var("s"), N(
            "binop", "+", var("s"), call("rt_geti", var("a"), var("k")))))]
        root, ctx = program(("f", [("rt_mat*", "a"), ("long", "s")], slist(
            for_loop("k", i(0), i(4), body),
            N("returnStmt", var("s")))))
        v = both_engines(root, ctx, "f", lambda: [imat([1, 2, 3, 4]), 100])
        assert fastpath_counter["bail"] >= 1
        assert v[0] == 110

    def test_float_reduction_vectorizes_exactly(self, fastpath_counter):
        body = [N("exprStmt", N("assign", var("s"), N(
            "binop", "+", var("s"), call("rt_getf", var("a"), var("k")))))]
        root, ctx = program(("f", [("rt_mat*", "a"), ("double", "s")], slist(
            for_loop("k", i(0), call("rt_size", var("a")), body),
            N("returnStmt", var("s")))))
        rng = np.random.default_rng(0)
        vals = (rng.normal(0, 1, 501) * 10.0 ** rng.integers(-8, 8, 501))
        v = both_engines(root, ctx, "f", lambda: [fmat(vals), 0.125])
        assert fastpath_counter["ok"] >= 1 and fastpath_counter["bail"] == 0

    def test_product_reduction_vectorizes_exactly(self, fastpath_counter):
        body = [N("exprStmt", N("assign", var("s"), N(
            "binop", "*", var("s"), call("rt_getf", var("a"), var("k")))))]
        root, ctx = program(("f", [("rt_mat*", "a"), ("double", "s")], slist(
            for_loop("k", i(0), call("rt_size", var("a")), body),
            N("returnStmt", var("s")))))
        vals = np.random.default_rng(1).normal(1, 0.01, 200)
        v = both_engines(root, ctx, "f", lambda: [fmat(vals), 1.0])
        assert fastpath_counter["ok"] >= 1 and fastpath_counter["bail"] == 0

    def test_trip_count_cap_bails(self, fastpath_counter, monkeypatch):
        monkeypatch.setattr(loopfast, "MAX_TRIP", 4)
        root, ctx = self.rmw_program()
        both_engines(root, ctx, "f", lambda: [fmat(np.ones(10))])
        assert fastpath_counter["bail"] >= 1

    def test_zero_trip_loop(self, fastpath_counter):
        root, ctx = self.rmw_program()
        v = both_engines(root, ctx, "f", lambda: [fmat(np.zeros(0))])
        assert v[1] is None
        assert fastpath_counter["ok"] >= 1  # empty commit, scalar skipped

    def test_float_divisor_zero_is_ieee(self, fastpath_counter, monkeypatch):
        # float division by zero follows IEEE 754 as the generated C
        # does: the scalar VM (shipped MIN_TRIP, 3 iterations) and the
        # plan (MIN_TRIP = 0) both write inf, with no trap and no bail
        body = [N("exprStmt", call(
            "rt_setf", var("m"), var("k"),
            N("binop", "/", fl(1.0), call("rt_getf", var("m"), var("k")))))]
        root, ctx = program(("f", [("rt_mat*", "m")], slist(
            for_loop("k", i(0), call("rt_size", var("m")), body))))
        for min_trip in (16, 0):
            monkeypatch.setattr(loopfast, "MIN_TRIP", min_trip)
            v = both_engines(root, ctx, "f", lambda: [fmat([2.0, 0.0, 4.0])])
            assert v[1] is None
            assert list(v[2][0]) == [0.5, np.inf, 0.25]
        assert fastpath_counter == {"ok": 1, "bail": 0}


class TestShardBoundaries:
    """S23 sharded execution of the fast path: partition edges must be
    invisible — any worker count produces bit-identical outputs, stats
    and traps, including when the numpy guard bails in only one shard."""

    def run_at(self, src, inputs, outputs, nthreads):
        from repro.cexec.interp import RuntimeTrap, run_program

        trap = None
        rc, outs, st = None, {}, None
        try:
            rc, outs, st, _ex = run_program(
                src, ["matrix"], inputs, output_names=outputs,
                nthreads=nthreads, engine="vm")
        except (RuntimeTrap, ZeroDivisionError) as t:
            trap = f"{type(t).__name__}: {t}"
        stats = None
        if st is not None:
            stats = (st.allocs, st.frees, st.copies, st.parallel_regions,
                     st.tasks_spawned, tuple(st.region_sizes))
        return rc, trap, stats, outs

    def assert_worker_count_invisible(self, src, inputs, outputs,
                                      counts=(3, 4, 5)):
        base = self.run_at(src, inputs, outputs, nthreads=1)
        for n in counts:
            got = self.run_at(src, inputs, outputs, nthreads=n)
            assert got[0] == base[0], f"rc differs at nthreads={n}"
            assert got[1] == base[1], f"trap differs at nthreads={n}"
            assert got[2] == base[2], f"stats differ at nthreads={n}"
            assert set(got[3]) == set(base[3])
            for k in base[3]:
                assert base[3][k].dtype == got[3][k].dtype
                assert np.array_equal(base[3][k], got[3][k], equal_nan=True), \
                    f"{k} differs at nthreads={n}"
        return base

    GENARRAY_2D = """
    int main() {{
        Matrix float <2> a = readMatrix("a.data");
        Matrix float <2> b = init(Matrix float <2>, {rows}, 6);
        b = with ([0,0] <= [i,j] < [{rows},6])
            genarray([{rows},6], a[i, j] * 2.0 + 1.0 * i);
        writeMatrix("b.data", b);
        return 0;
    }}
    """

    def cube(self, rows, seed=0):
        return np.random.default_rng(seed).normal(
            0, 1, (max(rows, 1), 6)).astype(np.float32)[:rows]

    def test_trip_count_not_divisible_by_workers(self):
        # 7 outer rows over 3/4/5 workers: uneven shards incl. an empty
        # tail shard at nthreads=4 (ceil(7/4)=2 -> 2+2+2+1).
        src = self.GENARRAY_2D.format(rows=7)
        base = self.assert_worker_count_invisible(
            src, {"a.data": self.cube(7)}, ["b.data"])
        assert base[2][5] == (7,)  # one region of 7 rows, any worker count

    def test_zero_row_outer_loop(self):
        src = self.GENARRAY_2D.format(rows=0)
        base = self.assert_worker_count_invisible(
            src, {"a.data": self.cube(0)}, ["b.data"])
        assert base[1] is None
        assert base[3]["b.data"].shape == (0, 6)

    def test_one_row_outer_loop(self):
        # A single row leaves nthreads-1 workers with empty shards.
        src = self.GENARRAY_2D.format(rows=1)
        base = self.assert_worker_count_invisible(
            src, {"a.data": self.cube(1)}, ["b.data"])
        assert base[1] is None
        assert base[2][5] == (1,)

    def test_bail_in_only_one_shard(self, fastpath_counter):
        # Rows are mapped through a scatter whose store indices are
        # usually unique (fast path) but contain a duplicate in exactly
        # one row: that shard's guard bails to the scalar loop, which
        # must still produce the sequential result (last store wins).
        src = """
        Matrix float <1> scatter(Matrix int <1> idx) {
            Matrix float <1> out = init(Matrix float <1>, 8);
            for (int k = 0; k < 8; k = k + 1) {
                out[idx[k]] = 1.0 * k + 1.0;
            }
            return out;
        }
        int main() {
            Matrix int <2> perm = readMatrix("perm.data");
            Matrix float <2> hits = matrixMap(scatter, perm, [1]);
            writeMatrix("hits.data", hits);
            return 0;
        }
        """
        rng = np.random.default_rng(5)
        perm = np.stack([rng.permutation(8) for _ in range(8)]).astype(np.int32)
        perm[5] = [0, 1, 2, 2, 4, 5, 6, 7]  # duplicate -> bail in one row
        base = self.run_at(src, {"perm.data": perm}, ["hits.data"], 1)
        seq_ok, seq_bail = fastpath_counter["ok"], fastpath_counter["bail"]
        assert seq_bail >= 1 and seq_ok >= 1  # mostly fast, one bail
        par = self.run_at(src, {"perm.data": perm}, ["hits.data"], 4)
        assert fastpath_counter["bail"] >= seq_bail + 1
        assert par[0] == base[0] and par[1] == base[1] and par[2] == base[2]
        assert np.array_equal(base[3]["hits.data"], par[3]["hits.data"])
        assert base[3]["hits.data"][5, 2] == 4.0  # last duplicate store won

    def test_fold_results_bit_identical_across_worker_counts(self):
        # Per-row fold accumulators live inside each shard; their
        # left-to-right float rounding must not depend on the partition.
        src = """
        int main() {
            Matrix float <2> a = readMatrix("a.data");
            Matrix float <1> sums = init(Matrix float <1>, 9);
            sums = with ([0] <= [i] < [9])
                genarray([9], with ([0] <= [k] < [50]) fold(+, 0.0, a[i, k]));
            writeMatrix("sums.data", sums);
            return 0;
        }
        """
        rng = np.random.default_rng(11)
        a = (rng.normal(0, 1, (9, 50))
             * 10.0 ** rng.integers(-5, 5, (9, 50))).astype(np.float32)
        self.assert_worker_count_invisible(src, {"a.data": a}, ["sums.data"])


def gen_loop(v, start, limit, body_stmts, *, step=1, cmp="<"):
    """Like ``for_loop`` but with a chosen comparison and literal step."""
    return N("forStmt",
             N("forDecl", N("tRaw", "long"), v, start),
             N("binop", cmp, var(v), limit),
             N("assign", var(v), N("binop", "+", var(v), i(step))),
             slist(*body_stmts))


def vm_bail_reasons(root, ctx, fname, args):
    """Run ``fname`` on the VM alone and return its fastloop bail ledger."""
    ex = VM(root, ctx)
    try:
        ex.call_function(fname, args)
    except Exception:
        pass
    return ex.stats.fastloop_bails


class TestWidenedFastLoop:
    """S27 recognizer widening: 2-D nests, strided/inclusive headers,
    multiple stores, and affine uniqueness proofs.  Every match shape is
    paired with a hazard-mutation twin that must bail with a named
    ledger reason — and every runtime test is differential against the
    tree walker via ``both_engines``."""

    # --- header shapes -------------------------------------------------

    def test_inclusive_bound_matches_and_runs(self, fastpath_counter):
        body = [N("exprStmt", call(
            "rt_setf", var("m"), var("k"),
            N("castE", N("tRaw", "double"), var("k"))))]
        root, ctx = program(("f", [("rt_mat*", "m")], slist(
            gen_loop("k", i(0), i(3), body, cmp="<="))))
        code = BytecodeProgram(root, ctx).code_for("f")
        assert any(ins[0] == "fastloop" for ins in code.instrs)
        v = both_engines(root, ctx, "f", lambda: [fmat([0, 0, 0, 0])])
        assert list(v[2][0]) == [0, 1, 2, 3]  # k == 3 included
        assert fastpath_counter["ok"] >= 1 and fastpath_counter["bail"] == 0

    def test_strided_store_runs_fast(self, fastpath_counter):
        body = [N("exprStmt", call("rt_setf", var("m"), var("k"), fl(5.0)))]
        root, ctx = program(("f", [("rt_mat*", "m")], slist(
            gen_loop("k", i(0), i(8), body, step=2))))
        v = both_engines(root, ctx, "f", lambda: [fmat([1.0] * 8)])
        assert list(v[2][0]) == [5, 1, 5, 1, 5, 1, 5, 1]
        assert fastpath_counter["ok"] >= 1 and fastpath_counter["bail"] == 0

    # --- 2-D rectangular nests -----------------------------------------

    def nest(self, inner_limit, idx, val):
        inner = gen_loop("kj", i(0), inner_limit,
                         [N("exprStmt", call("rt_setf", var("m"), idx, val))])
        return gen_loop("ki", i(0), i(3), [inner])

    @staticmethod
    def rowmajor(w):
        return N("binop", "+",
                 N("binop", "*", var("ki"), i(w)), var("kj"))

    def test_2d_nest_matches_as_single_plan(self):
        loop = self.nest(i(4), self.rowmajor(4), fl(1.0))
        root, ctx = program(("f", [("rt_mat*", "m")], slist(loop)))
        code = BytecodeProgram(root, ctx).code_for("f")
        plans = [ins[1] for ins in code.instrs if ins[0] == "fastloop"]
        # one 2-D plan on the nest, plus the inner loop's own 1-D plan
        # inside the scalar fallback body (used only if the nest bails)
        assert sorted(len(p.loops) for p in plans) == [1, 2]

    def test_2d_nest_with_outer_dependent_bound_matches_inner_only(self):
        # triangular nest (inner limit reads ki): not rectangular, so
        # the outer loop stays scalar — but the inner still gets a 1-D
        # plan of its own through the scalar body compilation.
        loop = self.nest(var("ki"), self.rowmajor(4), fl(1.0))
        root, ctx = program(("f", [("rt_mat*", "m")], slist(loop)))
        code = BytecodeProgram(root, ctx).code_for("f")
        plans = [ins[1] for ins in code.instrs if ins[0] == "fastloop"]
        assert [len(p.loops) for p in plans] == [1]

    def test_2d_rowmajor_store_runs_fast(self, fastpath_counter):
        idx = self.rowmajor(4)
        val = N("binop", "*", call("rt_getf", var("a"), idx), fl(2.0))
        inner = gen_loop("kj", i(0), i(4),
                         [N("exprStmt", call("rt_setf", var("m"), idx, val))])
        root, ctx = program(("f", [("rt_mat*", "m"), ("rt_mat*", "a")],
                             slist(gen_loop("ki", i(0), i(3), [inner]))))
        a = np.arange(12, dtype=np.float32)
        v = both_engines(root, ctx, "f",
                         lambda: [fmat(np.zeros(12)), fmat(a)])
        assert np.array_equal(v[2][0], a * 2.0)
        assert fastpath_counter["ok"] >= 1 and fastpath_counter["bail"] == 0

    def test_2d_duplicate_rows_bail_with_reason(self, fastpath_counter):
        # m[kj] = ki: every outer row rewrites the same columns — the
        # affine proof fails (ki coefficient 0) and the runtime scan
        # finds duplicates, so the nest reruns scalar (last row wins).
        loop = self.nest(i(4), var("kj"),
                         N("castE", N("tRaw", "double"), var("ki")))
        root, ctx = program(("f", [("rt_mat*", "m")], slist(loop)))
        v = both_engines(root, ctx, "f", lambda: [fmat(np.zeros(4))])
        assert list(v[2][0]) == [2, 2, 2, 2]
        assert fastpath_counter["bail"] >= 1
        reasons = vm_bail_reasons(root, ctx, "f", [fmat(np.zeros(4))])
        assert "duplicate store indices" in reasons

    # --- multiple stores per body --------------------------------------

    def test_multi_store_identical_indices_last_wins(self, fastpath_counter):
        body = [
            N("exprStmt", call("rt_setf", var("m"), var("k"), fl(1.0))),
            N("exprStmt", call("rt_setf", var("m"), var("k"),
                               N("castE", N("tRaw", "double"), var("k")))),
        ]
        root, ctx = program(("f", [("rt_mat*", "m")], slist(
            gen_loop("k", i(0), i(4), body))))
        v = both_engines(root, ctx, "f", lambda: [fmat(np.zeros(4))])
        assert list(v[2][0]) == [0, 1, 2, 3]  # statement order preserved
        assert fastpath_counter["ok"] >= 1 and fastpath_counter["bail"] == 0

    def test_multi_store_disjoint_parity(self, fastpath_counter):
        even = N("binop", "*", var("k"), i(2))
        odd = N("binop", "+", even, i(1))
        body = [
            N("exprStmt", call("rt_setf", var("m"), even,
                               call("rt_getf", var("a"), var("k")))),
            N("exprStmt", call("rt_setf", var("m"), odd,
                               N("unop", "-",
                                 call("rt_getf", var("a"), var("k"))))),
        ]
        root, ctx = program(("f", [("rt_mat*", "m"), ("rt_mat*", "a")],
                             slist(gen_loop("k", i(0), i(3), body))))
        v = both_engines(root, ctx, "f",
                         lambda: [fmat(np.zeros(6)), fmat([1, 2, 3])])
        assert list(v[2][0]) == [1, -1, 2, -2, 3, -3]
        assert fastpath_counter["ok"] >= 1 and fastpath_counter["bail"] == 0

    def test_multi_store_overlapping_bails_with_reason(self, fastpath_counter):
        body = [
            N("exprStmt", call("rt_setf", var("m"), var("k"), fl(1.0))),
            N("exprStmt", call("rt_setf", var("m"),
                               N("binop", "+", var("k"), i(1)), fl(2.0))),
        ]
        root, ctx = program(("f", [("rt_mat*", "m")], slist(
            gen_loop("k", i(0), i(3), body))))
        v = both_engines(root, ctx, "f", lambda: [fmat(np.zeros(4))])
        assert list(v[2][0]) == [1, 1, 1, 2]  # sequential interleaving
        assert fastpath_counter["bail"] >= 1
        reasons = vm_bail_reasons(root, ctx, "f", [fmat(np.zeros(4))])
        assert "overlapping stores to one matrix" in reasons

    # --- affine uniqueness proof ---------------------------------------

    def test_affine_proof_discharges_unique_scan(self, fastpath_counter,
                                                 monkeypatch):
        # m[2k+1]: coefficient*step != 0 proves injectivity symbolically,
        # so the O(n log n) np.unique scan must never run.
        def boom(*a, **k):
            raise AssertionError("np.unique called despite affine proof")
        monkeypatch.setattr(loopfast.np, "unique", boom)
        idx = N("binop", "+", N("binop", "*", i(2), var("k")), i(1))
        body = [N("exprStmt", call("rt_setf", var("m"), idx, fl(7.0)))]
        root, ctx = program(("f", [("rt_mat*", "m")], slist(
            gen_loop("k", i(0), i(3), body))))
        v = both_engines(root, ctx, "f", lambda: [fmat(np.zeros(6))])
        assert list(v[2][0]) == [0, 7, 0, 7, 0, 7]
        assert fastpath_counter["ok"] >= 1 and fastpath_counter["bail"] == 0

    # --- reductions in nests -------------------------------------------

    def test_2d_reduction_vectorizes_exactly(self, fastpath_counter):
        body = [N("exprStmt", N("assign", var("s"), N(
            "binop", "+", var("s"),
            call("rt_getf", var("a"), self.rowmajor(5)))))]
        inner = gen_loop("kj", i(0), i(5), body)
        root, ctx = program(("f", [("rt_mat*", "a"), ("double", "s")], slist(
            gen_loop("ki", i(0), i(3), [inner]),
            N("returnStmt", var("s")))))
        rng = np.random.default_rng(7)
        vals = rng.normal(0, 1, 15) * 10.0 ** rng.integers(-6, 6, 15)
        both_engines(root, ctx, "f", lambda: [fmat(vals), 0.5])
        assert fastpath_counter["ok"] >= 1 and fastpath_counter["bail"] == 0

    def test_2d_reduction_nonfloat_acc_bails_with_reason(self,
                                                         fastpath_counter):
        body = [N("exprStmt", N("assign", var("s"), N(
            "binop", "+", var("s"),
            call("rt_geti", var("a"), self.rowmajor(2)))))]
        inner = gen_loop("kj", i(0), i(2), body)
        root, ctx = program(("f", [("rt_mat*", "a"), ("long", "s")], slist(
            gen_loop("ki", i(0), i(3), [inner]),
            N("returnStmt", var("s")))))
        v = both_engines(root, ctx, "f",
                         lambda: [imat([1, 2, 3, 4, 5, 6]), 100])
        assert v[0] == 121
        assert fastpath_counter["bail"] >= 1
        reasons = vm_bail_reasons(root, ctx, "f",
                                  [imat([1, 2, 3, 4, 5, 6]), 100])
        assert "non-float accumulator" in reasons


class TestTripCrossover:
    """The ``fastloop`` instruction enters its plan only for a loop of at
    least ``MIN_TRIP`` iterations; a shorter one runs the scalar loop
    behind it without touching the plan or the bail ledger.  A loop
    whose trip count is unknown still reaches the plan's guards."""

    @pytest.fixture()
    def plan_runs(self, monkeypatch):
        """(trip count, committed) for every ``Plan.run`` call."""
        runs = []
        orig = loopfast.Plan.run

        def run(self, frame, stats=None):
            n = self.trip_count(frame)
            ok = orig(self, frame, stats)
            runs.append((n, ok))
            return ok
        monkeypatch.setattr(loopfast.Plan, "run", run)
        return runs

    def scale_program(self, limit):
        # m[k] = m[k] * 2 for k < limit
        body = [N("exprStmt", call(
            "rt_setf", var("m"), var("k"),
            N("binop", "*", call("rt_getf", var("m"), var("k")), fl(2.0))))]
        return program(("f", [("rt_mat*", "m"), ("double", "lim")], slist(
            for_loop("k", i(0), limit, body))))

    def test_below_min_trip_runs_scalar(self, plan_runs):
        n = loopfast.MIN_TRIP - 1
        root, ctx = self.scale_program(call("rt_size", var("m")))
        code = BytecodeProgram(root, ctx).code_for("f")
        assert any(ins[0] == "fastloop" for ins in code.instrs)
        v = both_engines(root, ctx, "f", lambda: [fmat(np.arange(n)), 0.0])
        assert list(v[2][0]) == [2.0 * k for k in range(n)]
        assert plan_runs == []
        assert vm_bail_reasons(root, ctx, "f",
                               [fmat(np.arange(n)), 0.0]) == {}

    def test_at_min_trip_enters_plan(self, plan_runs):
        n = loopfast.MIN_TRIP
        root, ctx = self.scale_program(call("rt_size", var("m")))
        v = both_engines(root, ctx, "f", lambda: [fmat(np.arange(n)), 0.0])
        assert list(v[2][0]) == [2.0 * k for k in range(n)]
        assert plan_runs == [(n, True)]

    def test_float_bound_reaches_plan(self, plan_runs):
        # k < 3.5: the trip count is unknown, so the plan's guard decides
        # (and refuses) instead of the crossover.
        root, ctx = self.scale_program(var("lim"))
        v = both_engines(root, ctx, "f", lambda: [fmat(np.ones(6)), 3.5])
        assert list(v[2][0]) == [2, 2, 2, 2, 1, 1]
        assert plan_runs == [(None, False)]
        reasons = vm_bail_reasons(root, ctx, "f", [fmat(np.ones(6)), 3.5])
        assert reasons == {"non-integer loop bounds": 1}

    def test_fig8_plans_cover_min_trip(self, plan_runs, monkeypatch):
        """fig8 on the e2e benchmark's base cube: every plan it still
        enters covers at least MIN_TRIP iterations, none bails, and the
        output matches a run that enters every plan."""
        from repro.cexec.interp import run_program
        from repro.eddy import synthetic_ssh
        from repro.programs import load

        cube = synthetic_ssh((12, 12, 96), n_eddies=3, seed=8).cube
        min_trip = loopfast.MIN_TRIP
        outs, runs = [], []
        for pinned in (min_trip, 0):
            monkeypatch.setattr(loopfast, "MIN_TRIP", pinned)
            plan_runs.clear()
            _rc, files, st, _ex = run_program(
                load("fig8"), ["matrix"], {"ssh.data": cube},
                output_names=["temporalScores.data"], nthreads=1,
                engine="vm")
            assert st.fastloop_bails == {}
            outs.append(files["temporalScores.data"].tobytes())
            runs.append(list(plan_runs))
        shipped, every = runs
        assert shipped and all(n >= min_trip and ok for n, ok in shipped)
        assert len(every) > len(shipped)
        assert outs[0] == outs[1]


def decl(name, init, ctype="double"):
    return N("declInit", N("tRaw", ctype), name, init)


def fold_step(acc, op, term):
    return N("exprStmt", N("assign", var(acc), N("binop", op, var(acc), term)))


def cube_at(mat, fold_var):
    """``mat[(i*C + j)*P + fold_var]``, fig1's lowered load."""
    row = N("binop", "+", N("binop", "*", var("i"), var("C")), var("j"))
    return call("rt_getf", var(mat), N(
        "binop", "+", N("binop", "*", row, var("P")), var(fold_var)))


def fold_nest_program(body, *, mats=("a",)):
    """``for i < R { for j < C { body } }`` in ``f(mats..., out, R, C,
    P)``."""
    params = [("rt_mat*", m) for m in mats] + [
        ("rt_mat*", "out"), ("long", "R"), ("long", "C"), ("long", "P")]
    nest = for_loop("i", i(0), var("R"), [
        for_loop("j", i(0), var("C"), body)])
    return program(("f", params, slist(nest)))


def store_out(val):
    ij = N("binop", "+", N("binop", "*", var("i"), var("C")), var("j"))
    return N("exprStmt", call("rt_setf", var("out"), ij, val))


def fig1_body(*, init=fl(0.0), op="+", limit=var("P"), store=None):
    """fig1's lifted ``__genarray_body``: ``long lo = 0; double acc =
    init; for (k = lo; k < limit) acc = acc op a[i,j,k]; out[i,j] =
    store`` (default ``acc / P``)."""
    return [decl("lo", i(0), "long"), decl("acc", init),
            for_loop("k", var("lo"), limit,
                     [fold_step("acc", op, cube_at("a", "k"))]),
            store_out(store if store is not None
                      else N("binop", "/", var("acc"), var("P")))]


class TestFoldNest:
    """Fold-nest plans: a rectangular nest whose innermost body is
    ``declInit*; for (k …) { acc = acc (+|*) E; … }; store+`` runs as one
    plan that folds every accumulator of the shard in blocks of whole
    rows.  Every case compares the VM with the tree walker bit for bit
    at the shipped ``MIN_TRIP``."""

    @pytest.fixture()
    def plan_calls(self, monkeypatch):
        """(plan label, committed) for every ``Plan.run`` call."""
        calls = []
        orig = loopfast.Plan.run

        def run(self, frame, stats=None):
            ok = orig(self, frame, stats)
            calls.append((self.label, ok))
            return ok
        monkeypatch.setattr(loopfast.Plan, "run", run)
        return calls

    @staticmethod
    def args(cube, *extra):
        """Fresh ``f`` arguments; the output matrix is 4th from the end."""
        R, C, P = cube.shape
        return lambda: [fmat(cube), *[fmat(x) for x in extra],
                        fmat(np.zeros(R * C)), R, C, P]

    @staticmethod
    def cube(shape, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.normal(0, 1, shape)
                * 10.0 ** rng.integers(-4, 4, shape)).astype(np.float32)

    def test_fig1_enters_one_plan(self, plan_calls):
        from repro.cexec.interp import run_program
        from repro.programs import load

        cube = self.cube((16, 12, 40), seed=3)
        outs = []
        for engine in ("tree", "vm"):
            plan_calls.clear()
            _rc, files, st, _ex = run_program(
                load("fig1"), ["matrix"], {"ssh.data": cube},
                output_names=["means.data"], nthreads=1, engine=engine)
            outs.append(files["means.data"].tobytes())
        assert outs[0] == outs[1]
        assert plan_calls == [("i,j fold k", True)]
        assert st.fastloop_bails == {}

    def test_fig1_disassembly_names_loop_variables(self):
        from repro.programs import load

        cr = compile_source(load("fig1"), ["matrix"])
        bp = BytecodeProgram(cr.lowered, cr.ctx)
        dis = "\n".join(bp.lifted_code_for(n).dis() for n in bp.lifted_trees)
        for text in ("<plan i,j fold k: 2 steps>", "<plan j fold k: 2 steps>",
                     "<plan k: 1 steps>"):
            assert text in dis

    def test_zero_length_fold_stores_initial_value(self, plan_calls,
                                                   monkeypatch):
        root, ctx = fold_nest_program(fig1_body(init=fl(2.5),
                                                store=var("acc")))
        cube = np.zeros((4, 5, 0), np.float32)
        for min_trip in (loopfast.MIN_TRIP, 0):
            monkeypatch.setattr(loopfast, "MIN_TRIP", min_trip)
            out = both_engines(root, ctx, "f", self.args(cube))[2][-4]
            assert np.all(out == 2.5)
        # the shipped crossover runs the empty folds as scalar code
        assert plan_calls == [("i,j fold k", True)]

    def test_empty_outer_range(self, plan_calls, monkeypatch):
        root, ctx = fold_nest_program(fig1_body())
        cube = np.zeros((0, 5, 20), np.float32)
        for min_trip in (loopfast.MIN_TRIP, 0):
            monkeypatch.setattr(loopfast, "MIN_TRIP", min_trip)
            out = both_engines(root, ctx, "f", self.args(cube))[2][-4]
            assert out.size == 0
        assert plan_calls == [("i,j fold k", True)]

    def test_inf_and_nan_inputs(self, plan_calls):
        cube = self.cube((4, 5, 20), seed=1)
        cube[0, 0, 3] = np.inf
        cube[1, 2, 0] = -np.inf
        cube[2, 1, 7] = np.nan
        cube[3, 4, 5], cube[3, 4, 6] = np.inf, -np.inf
        root, ctx = fold_nest_program(fig1_body())
        out = both_engines(root, ctx, "f", self.args(cube))[2][-4]
        out = out.reshape(4, 5)
        assert out[0, 0] == np.inf and out[1, 2] == -np.inf
        assert np.isnan(out[2, 1]) and np.isnan(out[3, 4])
        assert plan_calls == [("i,j fold k", True)]

    def test_fold_over_negative_zeros_keeps_initial_column(self, plan_calls):
        # 0.0 + -0.0 is +0.0: a chain that started at the first term
        # would store -0.0
        root, ctx = fold_nest_program(fig1_body(store=var("acc")))
        cube = np.full((3, 4, 20), -0.0, np.float32)
        out = both_engines(root, ctx, "f", self.args(cube))[2][-4]
        assert not np.any(np.signbit(out))
        assert plan_calls == [("i,j fold k", True)]

    def test_product_fold(self, plan_calls):
        rng = np.random.default_rng(2)
        cube = rng.normal(1, 0.05, (4, 5, 30)).astype(np.float32)
        root, ctx = fold_nest_program(fig1_body(init=fl(1.0), op="*",
                                                store=var("acc")))
        both_engines(root, ctx, "f", self.args(cube))
        assert plan_calls == [("i,j fold k", True)]

    def test_two_folds_in_one_body(self, plan_calls):
        # fold k carries two accumulators, fold l a product over b
        body = [
            decl("lo", i(0), "long"), decl("s", fl(0.0)), decl("q", fl(0.5)),
            for_loop("k", var("lo"), var("P"), [
                fold_step("s", "+", cube_at("a", "k")),
                fold_step("q", "+", N("binop", "*", cube_at("a", "k"),
                                      cube_at("a", "k")))]),
            decl("p", fl(1.0)),
            for_loop("l", i(0), var("P"),
                     [fold_step("p", "*", cube_at("b", "l"))]),
            store_out(N("binop", "-", N("binop", "/", var("s"), var("q")),
                        var("p")))]
        root, ctx = fold_nest_program(body, mats=("a", "b"))
        b = np.random.default_rng(5).normal(1, 0.1, (4, 5, 24))
        both_engines(root, ctx, "f", self.args(self.cube((4, 5, 24)),
                                           b.astype(np.float32)))
        assert plan_calls == [("i,j fold k,l", True)]

    def test_int_accumulator_bails(self, plan_calls):
        root, ctx = fold_nest_program(fig1_body(init=i(0), store=var("acc")))
        cube = np.arange(4 * 5 * 20, dtype=np.float32).reshape(4, 5, 20)
        both_engines(root, ctx, "f", self.args(cube))
        assert ("i,j fold k", False) in plan_calls
        reasons = vm_bail_reasons(root, ctx, "f", self.args(cube)())
        assert "non-float accumulator" in reasons

    def test_fold_loading_the_stored_matrix_bails(self, plan_calls):
        # the fold reads out[k], which earlier rows have stored to
        body = fig1_body(init=fl(1.0), store=var("acc"))
        body[2] = for_loop("k", var("lo"), var("P"), [fold_step(
            "acc", "+", call("rt_getf", var("out"), var("k")))])
        root, ctx = fold_nest_program(body)
        cube = np.ones((4, 5, 20), np.float32)
        args = self.args(cube)
        out = both_engines(root, ctx, "f", args)[2][-4]
        assert list(out[:4]) == [1, 2, 4, 8]
        assert ("i,j fold k", False) in plan_calls
        reasons = vm_bail_reasons(root, ctx, "f", args())
        assert "load aliases a stored matrix" in reasons

    def test_triangular_fold_bound_gets_no_nest_plan(self, plan_calls):
        # k < i: the i,j nest is not rectangular; inside one row of i
        # the bound is invariant, so the j loop keeps its own nest plan
        root, ctx = fold_nest_program(fig1_body(limit=var("i")))
        code = BytecodeProgram(root, ctx).code_for("f")
        labels = [ins[1].label for ins in code.instrs if ins[0] == "fastloop"]
        assert labels == ["j fold k", "k"]
        both_engines(root, ctx, "f", self.args(self.cube((40, 3, 40))))
        assert {lb for lb, _ok in plan_calls} == {"j fold k"}

    @pytest.mark.parametrize("block", [3 * 20, 7])
    def test_blocks_split_rows_and_long_folds(self, plan_calls, monkeypatch,
                                              block):
        # 35 outer rows in blocks of 3 rows (the last one short), and a
        # fold axis of 20 iterations longer than a 7-iteration block
        monkeypatch.setattr(loopfast, "FOLD_BLOCK", block)
        root, ctx = fold_nest_program(fig1_body())
        both_engines(root, ctx, "f", self.args(self.cube((7, 5, 20), seed=9)))
        assert plan_calls == [("i,j fold k", True)]

    def test_fig1_peak_memory_is_blocked(self, tmp_path, monkeypatch):
        """One ``seq`` fig1 run on a 4 MB cube: the plan folds in blocks,
        so its traced peak stays under 3x the input (whole-shard chains
        would need about 15x)."""
        import tracemalloc

        from repro.cexec.interp import make_engine
        from repro.cexec.rmat import write_rmat
        from repro.programs import load

        cube = np.ones((64, 64, 256), np.float32)
        write_rmat(tmp_path / "ssh.data", cube)
        monkeypatch.chdir(tmp_path)
        cr = compile_source(load("fig1"), ["matrix"])
        ex = make_engine(cr.lowered, cr.ctx, engine="vm", nthreads=1)
        tracemalloc.start()
        try:
            ex.run_main()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * cube.nbytes, f"peak {peak / 2**20:.1f} MB"



def bop(op, a, b):
    return N("binop", op, a, b)


def lanes_decl(name, init):
    return N("declInit", N("tRaw", "rt_v4f"), name, init)


class TestLanePlans:
    """Lane plans: the transform extension's ``rt_v*`` vector code runs
    inside loop, nest and fold-nest plans with a trailing lane axis.
    Every case runs with every plan entered and compares byte for byte
    with the tree walker (``both_engines``) and with the VM whose
    ``MIN_TRIP`` is above every trip count, so no plan runs."""

    @pytest.fixture()
    def plan_calls(self, monkeypatch):
        """(plan label, committed) for every ``Plan.run`` call."""
        calls = []
        orig = loopfast.Plan.run

        def run(self, frame, stats=None):
            ok = orig(self, frame, stats)
            calls.append((self.label, ok))
            return ok
        monkeypatch.setattr(loopfast.Plan, "run", run)
        return calls

    @staticmethod
    def three_ways(monkeypatch, root, ctx, make_args, fname="f"):
        monkeypatch.setattr(loopfast, "MIN_TRIP", 0)
        on = both_engines(root, ctx, fname, make_args)
        monkeypatch.setattr(loopfast, "MIN_TRIP", sys.maxsize)
        off = run_engine(VM, root, ctx, fname, make_args)
        monkeypatch.setattr(loopfast, "MIN_TRIP", 0)
        assert on[0] == off[0] and on[1] == off[1]
        for a, b in zip(on[2], off[2]):
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), "plans-off VM differs"
        return on

    @staticmethod
    def fn(body, params=(("rt_mat*", "a"), ("rt_mat*", "out"),
                         ("long", "N"))):
        return program(("f", list(params), slist(*body)))

    def test_elementwise_intrinsics(self, monkeypatch, plan_calls):
        # out[j..j+3] = ((a[j..] + s) * iota(j) / s) - splat(j), for j
        # from a base past 2**24, where iota and splat round
        base = (1 << 24) + 3
        j0 = bop("-", var("j"), i(base))
        body = [
            lanes_decl("s", call("rt_vsplatf", fl(2.5))),
            gen_loop("j", i(base), bop("+", var("N"), i(base)), [
                N("exprStmt", call("rt_vstoref", var("out"), j0, call(
                    "rt_vsubf", call("rt_vdivf", call(
                        "rt_vmulf", call("rt_vaddf",
                                         call("rt_vloadf", var("a"), j0),
                                         var("s")),
                        call("rt_viotaf", var("j"))), var("s")),
                    call("rt_vsplatf", var("j")))))], step=4)]
        root, ctx = self.fn(body)
        a = np.random.default_rng(0).normal(0, 1e3, 64).astype(np.float32)
        a[[3, 9, 17]] = [np.inf, np.nan, -0.0]
        out = self.three_ways(monkeypatch, root, ctx, lambda: [
            fmat(a), fmat(np.zeros(64)), 64])[2][1]
        assert np.isinf(out[3]) and np.isnan(out[9])
        assert plan_calls == [("j", True)]

    def test_gather_scatter(self, monkeypatch, plan_calls):
        # out[j + l*N] = a[3j + 2l] for lanes l: a strided gather and a
        # scatter whose lanes are one more affine axis
        body = [gen_loop("j", i(0), var("N"), [N("exprStmt", call(
            "rt_vscatterf", var("out"), var("j"), var("N"),
            call("rt_vgatherf", var("a"), bop("*", var("j"), i(3)),
                 bop("+", i(1), i(1)))))])]
        root, ctx = self.fn(body)
        a = np.arange(3 * 20 + 8, dtype=np.float32)
        out = self.three_ways(monkeypatch, root, ctx, lambda: [
            fmat(a), fmat(np.zeros(80)), 20])[2][1]
        assert list(out.reshape(4, 20)[:, 1]) == [3, 5, 7, 9]
        assert plan_calls == [("j", True)]

    def lane_fold_program(self, op, *, store="vsum", fold_from="a"):
        """``for i < R, j < C { long lo = 0; rt_v4f acc = v0; for k < P
        acc = op(acc, a[(i*C+j)*P*4 + 4k ..]); store }`` with ``v0 =
        splat(x) * iota(0)`` made before the nest."""
        idx = bop("+", bop("*", bop("*", bop("+", bop("*", var("i"),
                                                       var("C")), var("j")),
                                        var("P")), i(4)),
                  bop("*", var("k"), i(4)))
        ij = bop("+", bop("*", var("i"), var("C")), var("j"))
        term = call("rt_vloadf", var(fold_from), idx)
        if store == "vsum":
            st = call("rt_setf", var("out"), ij, call("rt_vsumf", var("acc")))
        else:
            st = call("rt_vstoref", var("out"), bop("*", ij, i(4)),
                      var("acc"))
        body = [
            lanes_decl("v0", call("rt_vmulf", call("rt_vsplatf", var("x")),
                                  call("rt_viotaf", i(0)))),
            for_loop("i", i(0), var("R"), [
                for_loop("j", i(0), var("C"), [
                    decl("lo", i(0), "long"), lanes_decl("acc", var("v0")),
                    for_loop("k", var("lo"), var("P"), [N("exprStmt", N(
                        "assign", var("acc"),
                        call(op, var("acc"), term)))]),
                    N("exprStmt", st)])])]
        params = [("rt_mat*", "a"), ("rt_mat*", "out"), ("long", "R"),
                  ("long", "C"), ("long", "P"), ("double", "x")]
        return self.fn(body, params)

    @pytest.mark.parametrize("op, x", [("rt_vaddf", 0.0), ("rt_vaddf", -0.0),
                                       ("rt_vmulf", 0.5)])
    @pytest.mark.parametrize("store", ["vsum", "vstore"])
    def test_lane_folds(self, monkeypatch, plan_calls, op, x, store):
        R, C, P = 3, 5, 20
        rng = np.random.default_rng(4)
        a = rng.normal(1, 0.2, R * C * P * 4).astype(np.float32)
        # rows of inf, NaN and -0.0 lanes
        a[:P * 4] = np.inf
        a[P * 4:2 * P * 4:4] = np.nan
        a[2 * P * 4:3 * P * 4] = -0.0
        root, ctx = self.lane_fold_program(op, store=store)
        size = R * C * (4 if store == "vstore" else 1)
        out = self.three_ways(monkeypatch, root, ctx, lambda: [
            fmat(a), fmat(np.zeros(size)), R, C, P, x])[2][1]
        if store == "vstore" and op == "rt_vaddf":
            # -0.0 initial lanes stay -0.0 over -0.0 terms, +0.0 do not
            assert np.all(np.signbit(out[8:12]) == np.signbit(x))
        assert plan_calls == [("i,j fold k", True)]

    def test_fold_loading_the_stored_matrix_bails(self, monkeypatch,
                                                  plan_calls):
        root, ctx = self.lane_fold_program("rt_vaddf", store="vstore",
                                           fold_from="out")
        R, C, P = 2, 3, 2

        def args():
            return [fmat(np.ones(R * C * P * 4)),
                    fmat(np.ones(R * C * P * 4)), R, C, P, 0.0]
        self.three_ways(monkeypatch, root, ctx, args)
        assert ("i,j fold k", False) in plan_calls
        assert "load aliases a stored matrix" in vm_bail_reasons(
            root, ctx, "f", args())

    def test_lane_index_out_of_range_bails_with_scalar_error(
            self, monkeypatch, plan_calls):
        # the last rt_vloadf reads past the end: the scalar loop's short
        # slice fails on the store, after the earlier stores
        body = [gen_loop("j", i(0), var("N"), [N("exprStmt", call(
            "rt_vstoref", var("out"), bop("*", var("j"), i(4)),
            call("rt_vloadf", var("a"),
                 bop("+", bop("*", var("j"), i(4)), i(2)))))])]
        root, ctx = self.fn(body)

        def args():
            return [fmat(np.arange(24)), fmat(np.zeros(24)), 6]
        v = self.three_ways(monkeypatch, root, ctx, args)
        assert v[1][0] == "ValueError"
        assert list(v[2][1][:4]) == [2, 3, 4, 5]
        assert plan_calls == [("j", False)]
        assert "load index out of range" in vm_bail_reasons(
            root, ctx, "f", args())

    def split_nest(self, limit):
        """``out[0] = 7; for i < R { rt_require_divisible(C, 4, "split
        j"); for jout < limit; for jin < 4: out[i*C + jout*4 + jin] =
        a[..]; }``"""
        idx = bop("+", bop("*", var("i"), var("C")),
                  bop("+", bop("*", var("jout"), i(4)), var("jin")))
        body = [
            N("exprStmt", call("rt_setf", var("out"), i(0), fl(7.0))),
            for_loop("i", i(0), var("R"), [
                N("exprStmt", call("rt_require_divisible", var("C"), i(4),
                                   N("strLit", "split j"))),
                for_loop("jout", i(0), limit, [
                    for_loop("jin", i(0), i(4), [N("exprStmt", call(
                        "rt_setf", var("out"), idx,
                        bop("+", call("rt_getf", var("a"), idx),
                            fl(1.0))))])])])]
        return self.fn(body, [("rt_mat*", "a"), ("rt_mat*", "out"),
                              ("long", "R"), ("long", "C"), ("long", "D")])

    @pytest.mark.parametrize("R, C", [(3, 18), (3, 2), (0, 18), (3, 8)])
    def test_nest_check(self, monkeypatch, plan_calls, R, C):
        # (3, 2): the jout level is empty, but the scalar nest still runs
        # the check once per row and traps; with no row it never runs
        root, ctx = self.split_nest(bop("/", var("C"), var("D")))

        def args():
            return [fmat(np.arange(max(R * C, 1))),
                    fmat(np.zeros(max(R * C, 1))), R, C, 4]
        v = self.three_ways(monkeypatch, root, ctx, args)
        traps = R > 0 and C % 4 != 0
        assert plan_calls == [("i,jout,jin", not traps)]
        if traps:
            assert v[1] == ("RuntimeTrap",
                            f"split j: trip count {C} not divisible by 4")
            assert v[2][1][0] == 7.0  # the store before the nest ran
            assert vm_bail_reasons(root, ctx, "f", args()) == \
                {"nest check would trap": 1}
        else:
            assert v[1] is None

    def test_zero_integer_divisor_in_a_bound_bails(self, monkeypatch,
                                                   plan_calls):
        root, ctx = self.split_nest(bop("/", var("C"), var("D")))

        def args():
            return [fmat(np.arange(24)), fmat(np.zeros(24)), 3, 8, 0]
        v = self.three_ways(monkeypatch, root, ctx, args)
        assert v[1] == ("RuntimeTrap", "integer division by zero")
        # the nest plan bails, then the scalar row's own jout plan; an
        # unknown trip count enters both even with MIN_TRIP raised
        assert plan_calls == [("i,jout,jin", False), ("jout,jin", False)] * 2
        assert vm_bail_reasons(root, ctx, "f", args()) == \
            {"integer division by zero": 2}

    @pytest.mark.parametrize("clause", [
        "transform split j by 4, jin, jout",
        "transform split j by 4, jin, jout. vectorize jin",
        "transform split j by 4, jin, jout. vectorize jin. parallelize i",
    ], ids=["fig10", "fig11", "fig11-parallelize"])
    def test_fig9_forms_enter_one_plan(self, monkeypatch, plan_calls,
                                       clause):
        from repro.cexec.interp import run_program
        from repro.programs import load

        src = load("fig9").replace(
            "transform split j by 4, jin, jout.\n"
            "                  vectorize jin.\n"
            "                  parallelize i", clause)
        assert clause in src
        cube = np.random.default_rng(6).normal(
            0, 1, (16, 16, 40)).astype(np.float32)
        outs, ledgers = [], []
        for engine, min_trip in (("tree", loopfast.MIN_TRIP),
                                 ("vm", loopfast.MIN_TRIP),
                                 ("vm", sys.maxsize)):
            monkeypatch.setattr(loopfast, "MIN_TRIP", min_trip)
            plan_calls.clear()
            _rc, files, st, _ex = run_program(
                src, ["matrix", "transform"], {"ssh.data": cube},
                output_names=["means.data"], nthreads=1, engine=engine)
            outs.append(files["means.data"].tobytes())
            ledgers.append((list(plan_calls), st.fastloop_bails))
        assert outs[0] == outs[1] == outs[2]
        assert ledgers[1] == ([("i,jout,jin fold k", True)], {})
        assert ledgers[2] == ([], {})
        cr = compile_source(src, ["matrix", "transform"])
        dis = BytecodeProgram(cr.lowered, cr.ctx).code_for("main").dis()
        assert "<plan i,jout,jin fold k: 2 steps>" in dis


class TestSharedProgram:
    """One BytecodeProgram compiled from many threads at once (a compile
    service may hand the same live result to concurrent callers)."""

    def test_concurrent_memo_fills_once(self):
        import sys
        import threading

        from repro.programs import load

        cr = compile_source(load("fig1"), ["matrix"])
        assert cr.ok

        def compile_all(prog):
            got = {("fn", n): prog.spec_code_for(n) for n in prog.functions}
            got.update({("lifted", n): prog.lifted_code_for(n)
                        for n in prog.lifted_trees})
            return got

        solo = BytecodeProgram(cr.lowered, cr.ctx)
        compile_all(solo)
        assert solo.lifted_trees, "fig1 should lift pool workers"

        shared = BytecodeProgram(cr.lowered, cr.ctx)
        barrier = threading.Barrier(8, timeout=30)
        seen = []

        def worker():
            barrier.wait()
            seen.append(compile_all(shared))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving inside the fills
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8
        for got in seen[1:]:
            assert got.keys() == seen[0].keys()
            assert all(got[k] is seen[0][k] for k in got)
        assert shared.opt_counts == solo.opt_counts
