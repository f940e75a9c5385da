"""S29 dispatch specialization: superinstructions, jump threading,
arity-specialized intrinsics, and guard elision.

The specialized stream must be *observationally invisible*: for every
corpus program — and for targeted programs poking traps inside fused
groups and deep recursion — the fused VM produces bit-identical outputs,
stdout, traps, and core InterpStats counters to both the generic VM
(``REPRO_NO_QUICKEN=1``) and the tree-walking reference.  Counting mode
must report the same dynamic instruction totals with specialization on
as with it off (a counting VM always executes the generic stream).
"""

import numpy as np
import pytest

from repro.api import compile_source
from repro.cexec import superinstr
from repro.cexec.bytecode import Code
from repro.cexec.interp import RuntimeTrap, run_program
from repro.cexec.vm import VM, bind
from repro.cminus.env import Optimizations
from repro.programs import corpus_cases


@pytest.fixture(autouse=True)
def _spec_available(monkeypatch):
    """CI reruns this file with ``REPRO_NO_QUICKEN=1`` exported; the
    white-box tests below exercise the specialization machinery itself,
    so default every test to "specialization available" and let tests
    that want it off (or the generic leg of an identity check) set the
    flag explicitly."""
    monkeypatch.delenv("REPRO_NO_QUICKEN", raising=False)


def run_one(src, exts, inputs=None, outputs=None, *, engine="vm",
            nthreads=1, backend=None, options=None):
    """(rc, trap, stats_tuple, stdout, outputs) for one configuration.

    The stats tuple holds only the engine-differential counters;
    ``guards_elided`` is a diagnostic outside that contract.
    """
    trap = None
    rc, outs, st, ex = None, {}, None, None
    try:
        rc, outs, st, ex = run_program(
            src, list(exts), inputs, output_names=outputs,
            nthreads=nthreads, engine=engine, parallel_backend=backend,
            options=options or Optimizations(opt_level=2))
    except RuntimeTrap as t:
        trap = str(t)
    stats = None
    if st is not None:
        stats = (st.allocs, st.frees, st.copies, st.parallel_regions,
                 st.tasks_spawned, tuple(st.region_sizes))
    return (rc, trap, stats, list(ex.stdout) if ex else None, outs)


def assert_identical(a, b, label=""):
    a_rc, a_trap, a_stats, a_out, a_files = a
    b_rc, b_trap, b_stats, b_out, b_files = b
    assert a_rc == b_rc, f"{label}: rc {a_rc} vs {b_rc}"
    assert a_trap == b_trap, f"{label}: trap {a_trap!r} vs {b_trap!r}"
    assert a_stats == b_stats, f"{label}: stats {a_stats} vs {b_stats}"
    assert a_out == b_out, f"{label}: stdout differs"
    assert set(a_files) == set(b_files), f"{label}: output names differ"
    for k in a_files:
        assert a_files[k].tobytes() == b_files[k].tobytes(), \
            f"{label}: output {k} differs bit-for-bit"


# Recursion-heavy: 1973 calls through the VM's one call path, into a
# function whose body fuses.
FIB = ("fib", """
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { printInt(fib(15)); return 0; }
""", ["matrix"], {}, [])

# Non-finite float constants: 1e39 narrows to float32 inf, and the IR
# folds ``big - big`` to nan.  Each constant lands in a fused group.
INF = ("inf", """
int main() {
    Matrix float <1> m = init(Matrix float <1>, 4);
    int n = dimSize(m, 0);
    float big = 1e39;
    printInt(n);
    printFloat(big * n);
    return 0;
}
""", ["matrix"], {}, [])
NAN = ("nan", """
int main() {
    Matrix float <1> m = init(Matrix float <1>, 4);
    int n = dimSize(m, 0);
    float big = 1e39;
    float z = big - big;
    printInt(n);
    printFloat(z * n);
    return 0;
}
""", ["matrix"], {}, [])


class TestCorpusIdentity:
    """Specialized VM vs unspecialized VM vs tree walker: the full
    corpus plus recursion-heavy and non-finite-constant programs."""

    @pytest.mark.parametrize(
        "case", corpus_cases() + [FIB, INF, NAN], ids=lambda c: c[0])
    def test_corpus_bit_identity(self, case, monkeypatch):
        name, src, exts, inputs, outs = case
        monkeypatch.setenv("REPRO_NO_QUICKEN", "1")
        tree = run_one(src, exts, inputs, outs, engine="tree")
        generic = run_one(src, exts, inputs, outs, engine="vm")
        monkeypatch.delenv("REPRO_NO_QUICKEN")
        spec = run_one(src, exts, inputs, outs, engine="vm")
        assert_identical(tree, generic, f"{name}: tree vs generic")
        assert_identical(generic, spec, f"{name}: generic vs spec")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_shards_identical(self, backend, monkeypatch):
        """Forked/threaded shard workers run the same fused stream, so a
        4-worker run stays bit-identical to the specialized sequential
        run under both backends."""
        name, src, exts, inputs, outs = next(
            c for c in corpus_cases() if c[0] == "fig1")
        seq = run_one(src, exts, inputs, outs, nthreads=1)
        monkeypatch.setenv("REPRO_THREADS", "4")
        par = run_one(src, exts, inputs, outs, nthreads=4, backend=backend)
        assert_identical(seq, par, f"fig1 spec {backend} x4")

    def test_counting_mode_totals_match(self, monkeypatch):
        """REPRO_COUNT_INSTRS totals must not depend on whether
        specialization is on: fusion may never shrink them."""
        monkeypatch.setenv("REPRO_COUNT_INSTRS", "1")
        name, src, exts, inputs, outs = next(
            c for c in corpus_cases() if c[0] == "fig4")
        monkeypatch.setenv("REPRO_NO_QUICKEN", "1")
        rc1, _, st_gen, _ = run_program(
            src, list(exts), inputs, output_names=outs, nthreads=1,
            options=Optimizations(opt_level=2))
        monkeypatch.setenv("REPRO_NO_QUICKEN", "0")
        rc2, _, st_spec, _ = run_program(
            src, list(exts), inputs, output_names=outs, nthreads=1,
            options=Optimizations(opt_level=2))
        assert rc1 == rc2 == 0
        assert st_gen.instrs == st_spec.instrs, \
            f"generic {st_gen.instrs} vs fused {st_spec.instrs}"


def _mk_vm(src="int main() { return 0; }"):
    cr = compile_source(src, ["matrix"])
    assert cr.ok, cr.diagnostics
    return VM(cr.lowered, cr.ctx, workdir=".", nthreads=1,
              program=cr.bytecode())


class TestFusion:
    """Unit coverage of the fusion rule on hand-built Code."""

    def test_jump_target_never_mid_group(self):
        # pc 2 is a jmp target: the run from pc 0 may not swallow it.
        code = Code("f", [], 4, [
            ("move", 1, 0),
            ("move", 2, 1),
            ("move", 3, 2),
            ("jmp", 2),
        ])
        fused, n = superinstr.fuse(code)
        assert n == 2
        assert [i[0] for i in fused.instrs] == ["si", "si"]
        assert len(fused.instrs[0][1]) == 2  # pcs 0-1 only
        # the jmp was remapped to the group that *starts* at old pc 2
        assert fused.instrs[1][1][-1] == ("jmp", 1)

    def test_group_may_start_at_jump_target(self):
        code = Code("f", [], 4, [
            ("jmp", 1),
            ("move", 1, 0),
            ("move", 2, 1),
            ("ret", 2),
        ])
        fused, n = superinstr.fuse(code)
        assert n == 1
        assert fused.instrs[0] == ("jmp", 1)
        assert fused.instrs[1][0] == "si"
        assert len(fused.instrs[1][1]) == 3

    def test_dead_intermediate_marked(self):
        # slot 1 is only read by the next constituent: elidable.
        code = Code("f", [], 3, [
            ("const", 1, 5),
            ("move", 2, 1),
            ("jmp", 3),
            ("ret", 2),
        ])
        fused, n = superinstr.fuse(code)
        assert n == 1
        si = fused.instrs[0]
        assert si[0] == "si" and len(si[1]) == 3
        dead = si[2]
        assert dead[0] is True      # const's write to slot 1 elided
        assert dead[1] is False     # slot 2 is read by the ret outside

    def test_live_intermediate_not_marked(self):
        # slot 1 is read *outside* the group: the write must land.
        code = Code("f", [], 3, [
            ("const", 1, 5),
            ("move", 2, 1),
            ("jmp", 3),
            ("move", 2, 1),
            ("ret", 2),
        ])
        fused, n = superinstr.fuse(code)
        assert n == 2
        si = fused.instrs[0]
        assert si[0] == "si" and si[2][0] is False

    def test_mid_group_conditional_early_exit(self):
        """A jz in a non-final position compiles to an early return:
        both branch outcomes must agree with the unfused stream."""
        code = Code("f", ["a"], 4, [
            ("const", 2, 1),
            ("jz", 1, 5),
            ("const", 3, 10),
            ("+", 2, 2, 3),
            ("ret", 2),
            ("ret", 1),
        ])
        fused, n = superinstr.fuse(code)
        assert n == 1 and fused.instrs[0][0] == "si"
        assert len(fused.instrs[0][1]) == 5
        vm = _mk_vm()
        for arg in (0, 1, 7):
            got = vm._run(bind(fused, vm), fused.nregs, [arg])
            want = vm._run(bind(code, vm), code.nregs, [arg])
            assert got == want, f"arg={arg}: {got} vs {want}"

    def test_trap_inside_fused_group(self):
        """A trapping constituent mid-group raises exactly what the
        unfused sequence raises (a partially-executed group is
        indistinguishable from a partially-executed sequence)."""
        src = """
        int main() {
            Matrix int <1> a = init(Matrix int <1>, 4);
            writeMatrix("a.data", a);
            return 0;
        }
        """
        vm = _mk_vm(src)
        # const idx; rt_geti (traps: index 99 out of range); move
        code = Code("f", ["m"], 4, [
            ("const", 2, 99),
            ("rt_geti", 3, 1, 2),
            ("move", 0, 3),
            ("ret", 0),
        ])
        fused, n = superinstr.fuse(code)
        assert n == 1
        mat = vm.rt_alloci(1, 4, 0, 0, 0)
        errs = []
        for c in (code, fused):
            with pytest.raises(IndexError) as ei:
                vm._run(bind(c, vm), c.nregs, [mat])
            errs.append(str(ei.value))
        assert errs[0] == errs[1]

    def test_group_capped_at_max_group(self):
        """A long straight run splits into MAX_GROUP-sized groups and
        still computes what the unfused stream computes."""
        cap = superinstr.MAX_GROUP
        code = Code("f", [], 2, [("const", 1, 1)]
                    + [("+", 1, 1, 1)] * (2 * cap) + [("ret", 1)])
        fused, n = superinstr.fuse(code)
        assert n == 3
        assert [len(i[1]) for i in fused.instrs] == [cap, cap, 2]
        vm = _mk_vm()
        got = vm._run(bind(fused, vm), fused.nregs, [])
        assert got == vm._run(bind(code, vm), code.nregs, []) == 2 ** (2 * cap)


class TestJumpThreading:
    def test_jmp_chain_threaded_in_spec_stream(self):
        vm = _mk_vm()
        code = Code("f", [], 2, [
            ("jmp", 1),
            ("jmp", 2),
            ("jmp", 3),
            ("const", 0, 7),
            ("ret", 0),
        ])
        ops = bind(code, vm)
        # the entry jmp lands directly on the const, skipping the chain
        assert ops[0]([None, None]) == 3
        assert vm._run(ops, code.nregs, []) == 7

    def test_self_loop_not_followed(self):
        vm = _mk_vm()
        code = Code("f", [], 2, [
            ("jz", 1, 1),   # taken path targets the self-loop
            ("jmp", 1),     # jmp-to-itself: must not thread forever
            ("ret", 1),
        ])
        bind(code, vm)  # merely binding must terminate


class TestGuardElision:
    PROVABLE = """
    int main() {
        int n = 9;
        Matrix float <1> a = with ([0] <= [i] < [n]) genarray([n], 2.0);
        writeMatrix("a.data", a);
        return 0;
    }
    """

    def test_provable_guard_elided_and_counted(self):
        src = self.PROVABLE
        rc, outs, st, ex = run_program(
            src, ["matrix"], {}, output_names=["a.data"], nthreads=1,
            options=Optimizations(opt_level=2))
        assert rc == 0
        assert st.guards_elided >= 1
        assert np.all(outs["a.data"] == np.float32(2.0))

    def test_violated_guard_still_traps(self):
        src = """
        int main() {
            Matrix float <1> a = with ([0] <= [i] < [7]) genarray([5], 1.0);
            writeMatrix("a.data", a);
            return 0;
        }
        """
        with pytest.raises(RuntimeTrap, match="genarray"):
            run_program(src, ["matrix"], {}, output_names=["a.data"],
                        nthreads=1, options=Optimizations(opt_level=2))

