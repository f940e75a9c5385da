"""S29 dispatch specialization: compiled functions, the superinstruction
fusion pass the compile stream still runs, and guard elision.

Compiled functions must be *observationally invisible*: for every
corpus program — and for targeted programs poking traps, early exits
and deep recursion — the compiled VM produces bit-identical outputs,
stdout, traps, and core InterpStats counters to both the generic VM
(``REPRO_NO_QUICKEN=1``) and the tree-walking reference.  Counting mode
must report the same dynamic instruction totals with specialization on
as with it off (a counting VM always executes the generic stream).
"""

import numpy as np
import pytest

from repro.api import compile_source
from repro.cexec import loopfast, pyfunc, superinstr
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
    corpus plus recursion-heavy and non-finite-constant programs.  The
    corpus runs twice: with the shipped ``MIN_TRIP``, where its small
    inputs keep most loops on the scalar bytecode, and with
    ``MIN_TRIP = 0`` (``-every-plan``), where every matched loop enters
    its numpy plan."""

    @pytest.mark.parametrize("case,min_trip", [
        pytest.param(c, loopfast.MIN_TRIP, id=c[0])
        for c in corpus_cases() + [FIB, INF, NAN]] + [
        pytest.param(c, 0, id=f"{c[0]}-every-plan")
        for c in corpus_cases()])
    def test_corpus_bit_identity(self, case, min_trip, monkeypatch):
        name, src, exts, inputs, outs = case
        monkeypatch.setattr(loopfast, "MIN_TRIP", min_trip)
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


def _compiled(code, vm):
    """The compiled function of ``code``; it must not fall back."""
    fn = pyfunc.compiled(code, vm)
    assert not isinstance(fn, str), fn
    return fn


def _closures(code, vm):
    """``code`` bound as the closure stream (REPRO_NO_QUICKEN's form)."""
    spec, vm._spec = vm._spec, False
    try:
        return bind(code, vm)
    finally:
        vm._spec = spec


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
        """A jz in a non-final position of a fused group: both branch
        outcomes of the compiled function agree with the closures."""
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
            got = _compiled(code, vm)(arg)
            want = _closures(code, vm)(arg)
            assert got == want, f"arg={arg}: {got} vs {want}"

    def test_trap_inside_fused_group(self):
        """A trapping instruction mid-block raises exactly what the
        closure stream raises, in the compiled function too."""
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
        for fn in (_closures(code, vm), _compiled(code, vm)):
            with pytest.raises(IndexError) as ei:
                fn(mat)
            errs.append(str(ei.value))
        assert errs[0] == errs[1]

    def test_group_capped_at_max_group(self):
        """A long straight run splits into MAX_GROUP-sized groups; the
        compiled function computes what the closure stream computes."""
        cap = superinstr.MAX_GROUP
        code = Code("f", [], 2, [("const", 1, 1)]
                    + [("+", 1, 1, 1)] * (2 * cap) + [("ret", 1)])
        fused, n = superinstr.fuse(code)
        assert n == 3
        assert [len(i[1]) for i in fused.instrs] == [cap, cap, 2]
        vm = _mk_vm()
        got = _compiled(code, vm)()
        assert got == _closures(code, vm)() == 2 ** (2 * cap)


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
        # the entry lands directly on the const: the chain of jmp-only
        # blocks leaves no loop or branch in the compiled function
        src = pyfunc.generate(code)
        assert "while" not in src and "if" not in src
        assert _compiled(code, vm)() == 7

    def test_self_loop_not_followed(self):
        vm = _mk_vm()
        code = Code("f", [], 2, [
            ("jz", 1, 1),   # taken path targets the self-loop
            ("jmp", 1),     # jmp-to-itself: must not thread forever
            ("ret", 1),
        ])
        bind(code, vm)  # merely binding must terminate


# Two nested loops over i, j < n (slot 1).  The inner body leaves both
# loops for B when i * j == t (slot 2): B also follows the outer loop's
# normal exit A, so the exit is a flagged two-level break.
TWO_LEVEL_EXIT = [
    ("const", 9, 1),        # 0
    ("const", 3, 0),        # 1  i = 0
    ("<", 4, 3, 1),         # 2  outer header
    ("jz", 4, 14),          # 3  -> A
    ("const", 5, 0),        # 4  j = 0
    ("<", 6, 5, 1),         # 5  inner header
    ("jz", 6, 12),          # 6  -> outer step
    ("*", 7, 3, 5),         # 7
    ("==", 8, 7, 2),        # 8
    ("jnz", 8, 16),         # 9  -> B, out of both loops
    ("+", 5, 5, 9),         # 10 j++
    ("jmp", 5),             # 11
    ("+", 3, 3, 9),         # 12 i++
    ("jmp", 2),             # 13
    ("const", 7, -1),       # 14 A: falls into B
    ("+", 7, 7, 3),         # 15
    ("ret", 7),             # 16 B
]

# The same nest, but the inner body starts the next outer iteration
# (a ``continue`` of the outer loop from inside the inner one) when
# i * j == t, skipping the code after the inner loop; slot 10 counts
# inner iterations and finished inner loops.
TWO_LEVEL_CONTINUE = [
    ("const", 9, 1),        # 0
    ("const", 10, 0),       # 1  count = 0
    ("const", 3, 0),        # 2  i = 0
    ("<", 4, 3, 1),         # 3  outer header
    ("jz", 4, 18),          # 4  -> return count
    ("const", 5, 0),        # 5  j = 0
    ("+", 3, 3, 9),         # 6  i++ (before the inner loop)
    ("<", 6, 5, 1),         # 7  inner header
    ("jz", 6, 15),          # 8  -> after the inner loop
    ("*", 7, 3, 5),         # 9
    ("==", 8, 7, 2),        # 10
    ("jnz", 8, 3),          # 11 -> outer header, from the inner body
    ("+", 10, 10, 9),       # 12 count++
    ("+", 5, 5, 9),         # 13 j++
    ("jmp", 7),             # 14
    ("const", 11, 100),     # 15 after the inner loop
    ("+", 10, 10, 11),      # 16
    ("jmp", 3),             # 17
    ("ret", 10),            # 18
]


class TestCompiledFunctions:
    """Hand-built bytecode shapes the corpus does not produce: each must
    compute what the closure stream computes."""

    @pytest.mark.parametrize("instrs", [TWO_LEVEL_EXIT, TWO_LEVEL_CONTINUE],
                             ids=["exit", "continue"])
    def test_flagged_exit_leaves_two_loops(self, instrs):
        vm = _mk_vm()
        code = Code("f", ["n", "t"], 12, list(instrs))
        assert "_x = " in pyfunc.generate(code)
        fn, ref = _compiled(code, vm), _closures(code, vm)
        for n in range(5):
            for t in range(-1, 10):
                assert fn(n, t) == ref(n, t), (n, t)

    def test_irreducible_runs_on_closure_stream(self):
        vm = _mk_vm()
        code = Code("g", ["a"], 3, [
            ("jz", 1, 3), ("const", 2, 1), ("jmp", 3), ("const", 2, 2),
            ("jnz", 1, 1), ("ret", 2)])
        assert pyfunc.compiled(code, vm) == "irreducible control flow"
        fn = bind(code, vm)
        assert fn(0) == _closures(code, vm)(0) == 2
        assert vm.stats.compile_bails == {
            "g: irreducible control flow": 1}

    def test_literals_keep_their_bits(self):
        """Constants enter the source through ``repr`` and a NaN through
        its bits; ``1``, ``1.0`` and ``-0.0`` are different cache keys."""
        vm = _mk_vm()
        nan = np.frombuffer(np.uint64(0xFFF8_0000_0000_0001).tobytes(),
                            dtype=np.float64)[0]
        for v in (1, 1.0, -0.0, 0.0, float("inf"), float(nan),
                  'q"u\'o"""\n\\', None):
            code = Code("c", [], 2, [("const", 1, v), ("ret", 1)])
            got = _compiled(code, vm)()
            assert type(got) is type(v)
            if isinstance(v, float):
                assert np.float64(got).tobytes() == np.float64(v).tobytes()
            else:
                assert got == v

    def test_rebinding_hits_the_cache(self, monkeypatch):
        """A freshly compiled copy of a program binds without CPython
        compiling anything."""
        src = """
        int f(int n) { int s = 0;
            for (int i = 0; i < n; i = i + 1) s = s + i; return s; }
        int main() { printInt(f(7)); return 0; }"""
        _mk_vm(src).call_function("f", [3])
        compiles = []
        real = pyfunc._build
        monkeypatch.setattr(pyfunc, "_build",
                            lambda code: compiles.append(code) or real(code))
        vm = _mk_vm(src)
        assert vm.call_function("f", [7]) == 21
        assert compiles == []

    def test_stack_exhaustion_is_retried_not_cached(self, monkeypatch):
        """Running out of stack while compiling depends on where the
        function first binds, not on its code: that bind runs the
        closures and says why, and the next bind compiles."""
        code = Code("h", ["n"], 3, [("const", 2, 5), ("+", 2, 1, 2),
                                    ("ret", 2)])
        calls = []
        real = pyfunc.generate

        def first_overflows(c):
            calls.append(c)
            if len(calls) == 1:
                raise RecursionError("maximum recursion depth exceeded")
            return real(c)
        monkeypatch.setattr(pyfunc, "generate", first_overflows)
        monkeypatch.setattr(pyfunc, "_cache", type(pyfunc._cache)())
        vm = _mk_vm()
        assert bind(code, vm)(2) == 7
        assert list(vm.stats.compile_bails) == [
            "h: compiling ran out of stack or memory (RecursionError)"]
        assert len(pyfunc._cache) == 0
        assert _compiled(code, vm)(2) == 7
        assert len(calls) == 2 and len(pyfunc._cache) == 1

    def test_structuring_needs_no_stack_per_arm(self, monkeypatch):
        """A 400-arm else-if chain (hand-built: the front end cannot
        parse one that long) structures with 80 frames to spare, and
        without raising the process-wide recursion limit."""
        import sys

        arms, instrs = 400, []
        end = 5 * arms + 1
        for k in range(arms):
            nxt = len(instrs) + 5
            instrs += [("const", 3, k), ("==", 4, 1, 3), ("jz", 4, nxt),
                       ("const", 2, 7 * k + 3), ("jmp", end)]
        instrs += [("const", 2, -1), ("ret", 2)]
        code = Code("classify", ["x"], 5, instrs)
        limit = sys.getrecursionlimit()
        raised = []
        monkeypatch.setattr(sys, "setrecursionlimit", raised.append)

        def with_frames_left(n, f):
            return f() if n <= 0 else with_frames_left(n - 1, f)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        src = with_frames_left(limit - depth - 80,
                               lambda: pyfunc.generate(code))
        assert raised == []
        assert src.count("elif ") == arms - 1

    @pytest.mark.parametrize("generic, frames", [("1", 3), ("0", 2)])
    def test_python_frames_per_c_call(self, monkeypatch, generic, frames):
        """A C call costs the closure stream three Python frames
        (``call_function``, the dispatch loop, the ``call`` closure) and
        a compiled function two, which bounds how deep a C program may
        recurse."""
        import sys

        src = """
        int down(int n) { if (n == 0) { printInt(n); return 0; }
                          return down(n - 1) + 1; }
        int main() { return 0; }"""
        monkeypatch.setenv("REPRO_NO_QUICKEN", generic)
        depths = []
        real = VM._print_int

        def print_int(self, v):
            depth, frame = 0, sys._getframe()
            while frame is not None:
                depth, frame = depth + 1, frame.f_back
            depths.append(depth)
            return real(self, v)
        monkeypatch.setattr(VM, "_print_int", print_int)
        vm = _mk_vm(src)
        assert vm.call_function("down", [0]) == 0
        assert vm.call_function("down", [10]) == 10
        assert depths[1] - depths[0] == 10 * frames

    def test_cache_under_concurrent_binds(self, monkeypatch):
        """Threads bind fresh copies of five programs while a two-entry
        cache keeps evicting: every call returns its program's value,
        and the cache stays bounded."""
        import sys
        import threading

        from repro.cexec.bytecode import BytecodeProgram

        monkeypatch.setattr(pyfunc, "CACHE_SIZE", 2)
        monkeypatch.setattr(pyfunc, "_cache", type(pyfunc._cache)())
        crs = [compile_source(
            f"int f(int n) {{ int s = {k}; for (int i = 0; i < n; "
            f"i = i + 1) s = s + i; return s; }}\n"
            "int main() { return 0; }", ["matrix"]) for k in range(5)]
        errors = []

        def work(t):
            try:
                for r in range(24):
                    k = (t + r) % 5
                    cr = crs[k]
                    vm = VM(cr.lowered, cr.ctx, nthreads=1,
                            program=BytecodeProgram(cr.lowered, cr.ctx))
                    got = vm.call_function("f", [10])
                    if got != k + 45:
                        errors.append((k, got))
            except Exception as e:  # reported by the assert below
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert len(pyfunc._cache) <= 2


def random_program(rng) -> str:
    """A random structured C function — nested ``for``/``while``/``do``
    loops, ``if``/``else`` on ``&&``/``||`` conditions, ``break``,
    ``continue``, ``return`` and found-flag breaks at any depth — called
    from a small `main`.  Loops are bounded, so every program ends."""
    names = ["a", "b", "c", "d"]
    count = [0]

    def expr(d=0):
        if d > 2 or rng.random() < 0.3:
            return rng.choice(names + [str(rng.randint(0, 9))])
        op = rng.choice(["+", "-", "*", "%"])
        if op == "%":
            return f"({expr(d + 1)} % {rng.randint(1, 5)})"
        return f"({expr(d + 1)} {op} {expr(d + 1)})"

    def cond(d=0):
        r = rng.random()
        if d < 2 and r < 0.25:
            return f"({cond(d + 1)} && {cond(d + 1)})"
        if d < 2 and r < 0.45:
            return f"({cond(d + 1)} || {cond(d + 1)})"
        cmp = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"({expr(1)} {cmp} {expr(1)})"

    def block(n, loop, depth):
        out = []
        for _ in range(n):
            r = rng.random()
            count[0] += 1
            k = count[0]
            if r < 0.3 or depth > 3:
                out.append(f"{rng.choice(names)} = ({expr()}) % 1000;")
            elif r < 0.45:
                out.append(f"if {cond()} {{")
                out += block(rng.randint(1, 3), loop, depth + 1)
                if rng.random() < 0.5:
                    out += ["} else {"] + block(rng.randint(1, 3), loop,
                                                depth + 1)
                out.append("}")
            elif r < 0.6:
                out.append(f"for (int i{k} = 0; i{k} < {rng.randint(0, 5)};"
                           f" i{k} = i{k} + 1) {{")
                out.append("steps = steps + 1;")
                out += block(rng.randint(1, 3), True, depth + 1) + ["}"]
            elif r < 0.7:
                out.append(f"int w{k} = 0;")
                out.append(f"while (w{k} < {rng.randint(1, 4)} && "
                           f"steps < 5000) {{")
                out.append(f"w{k} = w{k} + 1; steps = steps + 1;")
                out += block(rng.randint(1, 3), True, depth + 1) + ["}"]
            elif r < 0.75:
                out.append(f"int w{k} = 0;")
                out.append(f"do {{ w{k} = w{k} + 1; steps = steps + 1;")
                out += block(rng.randint(1, 2), True, depth + 1)
                out.append(f"}} while (w{k} < {rng.randint(1, 3)} && "
                           f"steps < 5000);")
            elif r < 0.8 and loop:
                out.append(f"if {cond()} break;")
            elif r < 0.85 and loop:
                out.append(f"if {cond()} continue;")
            elif r < 0.9:
                out.append(f"if {cond()} return ({expr()}) % 1000 + steps;")
            elif r < 0.95 and loop:
                out.append(f"if {cond()} {{ found = true; break; }}")
            else:
                out.append(f"printInt({expr()});")
        return out

    body = "\n".join(block(rng.randint(2, 6), False, 0))
    return f"""
int f(int a, int b) {{
    int c = 1; int d = 2; int steps = 0; bool found = false;
    {body}
    if (found) return 7000 + a + steps;
    return a + b * 3 + c + d + steps;
}}
int main() {{
    int s = 0;
    for (int x = 0; x < 4; x = x + 1)
        for (int y = 0; y < 3; y = y + 1) s = s + f(x, y);
    printInt(s);
    return 0;
}}"""


class TestRandomControlFlow:
    """Random structured programs at -O0 and -O2 (16 of these 24
    functions compile to flagged multi-loop exits): the compiled
    functions print what the closure stream and the tree walker print,
    and none falls back."""

    @pytest.mark.parametrize("seed", range(12))
    def test_compiled_matches_closures_and_tree(self, seed, monkeypatch):
        import random

        src = random_program(random.Random(seed))
        for level in (0, 2):
            opts = Optimizations(opt_level=level)
            monkeypatch.setenv("REPRO_NO_QUICKEN", "1")
            tree = run_one(src, ["matrix"], engine="tree", options=opts)
            generic = run_one(src, ["matrix"], options=opts)
            monkeypatch.delenv("REPRO_NO_QUICKEN")
            _rc, _o, st, ex = run_program(src, ["matrix"], nthreads=1,
                                          options=opts)
            assert_identical(tree, generic, f"seed {seed} -O{level}")
            assert generic[3] == list(ex.stdout), f"seed {seed} -O{level}"
            assert st.compile_bails == {}


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

