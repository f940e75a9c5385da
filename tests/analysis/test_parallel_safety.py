"""Explainable parallel safety: differential equivalence with the S23
fixpoint, witness chains, and the VM consuming the same verdicts.

``ref_hazards`` below is a line-for-line reimplementation of the
*pre-S25* private fixpoint (``BytecodeProgram._hazards`` /
``_direct_hazards`` as of the S23 tree) operating on the public
bytecode surface only.  The differential tests prove the shared
:class:`ParallelSafety` analysis reaches bit-identical hazard sets and
shard/task eligibility decisions on every function and lifted worker of
every shipped program.  The S27 capture-escape scan, which narrows the
refcount blocker of the process pool, is tested on hand-built code."""

from __future__ import annotations

import pytest

from repro.analysis import ParallelSafety, analyze_parallel
from repro.analysis.hazards import (
    ALL_HAZARDS, H_IO, H_POOL, H_PRINT, H_RC, H_SPAWN, H_TRAP,
    SHARD_BLOCKERS, TASK_BLOCKERS, TRAP_OPS,
)
from repro.analysis.parsafety import _CAPTURE_SAFE_INTRINSICS, capture_escape
from repro.cexec.bytecode import Code
from repro.cexec.interp import InterpError
from repro.programs import PROGRAMS, load
from tests.analysis.common import compile_xc

# -- reference: the S23 fixpoint, reimplemented independently ----------------


def ref_direct_hazards(program, key):
    kind, name = key
    try:
        code = (program.lifted_code_for(name) if kind == "lifted"
                else program.code_for(name))
    except InterpError:
        return set(ALL_HAZARDS), set()
    hazards, calls = set(), set()
    for ins in code.instrs:
        op = ins[0]
        if op in TRAP_OPS:
            hazards.add(H_TRAP)
        if op in ("rc_inc", "rc_dec"):
            hazards.add(H_RC)
        elif op == "intr":
            method = ins[2]
            if method in ("_read_matrix", "_write_matrix"):
                hazards.update((H_IO, H_TRAP))
            elif method in ("_print_int", "_print_float"):
                hazards.update((H_PRINT, H_TRAP))
            else:
                hazards.add(H_TRAP)
                if method == "rt_assign_copy":
                    hazards.add(H_RC)
        elif op == "pool":
            hazards.add(H_POOL)
            calls.add(("lifted", ins[1]))
        elif op in ("spawn", "call"):
            if op == "spawn":
                hazards.add(H_SPAWN)
            callee, nargs = ins[2], len(ins[3])
            sig = program.functions.get(callee)
            if sig is not None and len(sig[0]) == nargs:
                calls.add(("fn", callee))
            else:
                hazards.update(ALL_HAZARDS)
    return hazards, calls


def ref_hazards(program, root, memo):
    cached = memo.get(root)
    if cached is not None:
        return cached
    direct, edges = {}, {}
    stack = [root]
    while stack:
        key = stack.pop()
        if key in direct:
            continue
        direct[key], edges[key] = ref_direct_hazards(program, key)
        for callee in edges[key]:
            if callee not in direct and callee not in memo:
                stack.append(callee)
    changed = True
    while changed:
        changed = False
        for key, hz in direct.items():
            for callee in edges[key]:
                callee_hz = memo.get(callee) or direct.get(callee, ())
                if not (set(callee_hz) <= hz):
                    hz |= set(callee_hz)
                    changed = True
    for key, hz in direct.items():
        memo[key] = frozenset(hz)
    return memo[root]


# -- corpus ------------------------------------------------------------------

UNSAFE_IO = """
float peek(Matrix float <1> v, int i) {
    writeMatrix("dbg.data", v);
    return v[i];
}
int main() {
    Matrix float <1> a = init(Matrix float <1>, 8);
    Matrix float <1> b = init(Matrix float <1>, 8);
    b = with ([0] <= [i] < [8]) genarray([8], peek(a, i) + 1.0);
    writeMatrix("out.data", b);
    return 0;
}
"""

RECURSIVE = """
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    printInt(fib(10));
    return 0;
}
"""


# A with-loop whose captured matrix reaches a callee's rc traffic.
PICK = """
float pick(Matrix float <1> m, int i) {
    Matrix float <1> t = m;
    return t[i];
}
int main() {
    Matrix float <1> v = init(Matrix float <1>, 8);
    Matrix float <1> b = init(Matrix float <1>, 8);
    b = with ([0] <= [i] < [8]) genarray([8], pick(v, i) + 1.0);
    writeMatrix("out.data", b);
    return 0;
}
"""


def corpus():
    cases = [(name, load(name), ("matrix", "transform"))
             for name in sorted(PROGRAMS)]
    cases.append(("unsafe_io", UNSAFE_IO, ("matrix",)))
    cases.append(("recursive", RECURSIVE, ("matrix",)))
    cases.append(("rc_capture", PICK, ("matrix",)))
    return cases


@pytest.mark.parametrize("name,source,exts",
                         [pytest.param(*c, id=c[0]) for c in corpus()])
def test_differential_bit_identical_decisions(name, source, exts):
    program = compile_xc(source, exts).bytecode()
    memo: dict = {}
    # Every lifted worker: identical hazard set and shard decision.
    for worker in program.lifted_trees:
        key = ("lifted", worker)
        ref = ref_hazards(program, key, memo)
        assert program.safety.hazards(key) == ref
        assert program.lifted_parallel_safe(worker) == (
            not (ref & SHARD_BLOCKERS))
    # Every function: identical hazard set and task decision.
    for fn in program.functions:
        key = ("fn", fn)
        ref = ref_hazards(program, key, memo)
        assert program.safety.hazards(key) == ref
        assert program.task_parallel_safe(fn) == (
            not (ref & TASK_BLOCKERS))
    # Unknown callees are never task-safe, in both worlds.
    assert program.task_parallel_safe("no_such_function") is False


def test_hazards_for_is_the_shared_analysis():
    program = compile_xc(UNSAFE_IO).bytecode()
    for worker in program.lifted_trees:
        assert program.hazards_for(worker, lifted=True) == \
            program.safety.hazards(("lifted", worker))
    # One ParallelSafety instance is memoized per program.
    assert program.safety is program.safety


# -- witnesses and explanations ----------------------------------------------


def test_unsafe_region_has_witness_chain_through_callee():
    program = compile_xc(UNSAFE_IO).bytecode()
    verdicts = analyze_parallel(program)
    refused = [v for v in verdicts if v.kind == "shard" and not v.safe]
    assert len(refused) == 1
    (v,) = refused
    assert v.blockers, "every refusal must carry a reason"
    b = v.blockers[0]
    assert b.hazard == H_IO
    assert b.chain[-1] == ("fn", "peek")
    assert "writeMatrix" in b.what
    text = v.explain()
    assert "runs sequentially" in text
    assert "blocked by" in text and "peek" in text


def test_safe_region_verdict_is_positive():
    program = compile_xc(
        "int main() {\n"
        "    Matrix float <1> a = init(Matrix float <1>, 8);\n"
        "    a = with ([0] <= [i] < [8]) genarray([8], 1.0);\n"
        "    writeMatrix(\"a.data\", a);\n"
        "    return 0;\n"
        "}\n").bytecode()
    verdicts = analyze_parallel(program)
    shard = [v for v in verdicts if v.kind == "shard"]
    assert shard and all(v.safe for v in shard)
    assert "OK" in shard[0].explain()


def test_every_refusal_everywhere_carries_a_reason():
    for _name, source, exts in corpus():
        program = compile_xc(source, exts).bytecode()
        for v in analyze_parallel(program):
            if not v.safe:
                assert v.blockers
                for b in v.blockers:
                    assert b.what and b.render()
            if v.safe and v.process_safe is False:
                assert v.process_blockers
                for b in v.process_blockers:
                    assert b.what and b.render()


def test_witness_is_shortest_chain():
    # main's region calls peek directly: the chain is region -> peek,
    # not any longer path.
    program = compile_xc(UNSAFE_IO).bytecode()
    safety = ParallelSafety(program)
    (worker,) = program.lifted_trees
    b = safety.witness(("lifted", worker), H_IO)
    assert len(b.chain) == 2


def test_vm_refuses_exactly_what_the_analysis_refuses(tmp_path):
    # The bail ledger names the same hazard the verdict explains.
    import numpy as np
    from repro.cexec.vm import VM

    result = compile_xc(UNSAFE_IO)
    program = result.bytecode()
    vm = VM(result.lowered, result.ctx, workdir=tmp_path, nthreads=4,
            program=program)
    vm.run_main()
    try:
        reasons = list(vm.stats.shard_bails)
        assert any("not shard-safe" in r and "io" in r for r in reasons)
    finally:
        vm.close()


# -- process eligibility: the capture-escape scan (S27) ----------------------


def region(*instrs):
    """A hand-built lifted body: captures 'v' (slot 1) and 'w' (slot 2),
    then the chunk bounds; slots 5+ are locals."""
    return Code("__wl_body0", ["v", "w", "__lo", "__hi"], nregs=12,
                instrs=list(instrs) + [("ret_none",)])


@pytest.mark.parametrize("instrs,finding", [
    ([("move", 5, 1), ("rc_dec", 5)], "capture 'v' reaches rc_dec"),
    ([("move", 5, 2), ("move", 6, 5), ("rc_inc", 6)],
     "capture 'w' reaches rc_inc"),
    ([("call", 5, "pick", (1, 3))], "capture 'v' is passed to call 'pick'"),
    ([("spawn", None, "f", (2,))], "capture 'w' is passed to spawn 'f'"),
    ([("pool", "__inner", 3, (1,))],
     "capture 'v' is captured by nested region '__inner'"),
    ([("tuple", 5, (3, 1))], "capture 'v' reaches tuple"),
    ([("tget", 5, 2, 0)], "capture 'w' reaches tget"),
    ([("ret", 1)], "capture 'v' reaches ret"),
    ([("intr", 5, "rt_assign_copy", (6, 1))],
     "capture 'v' is passed to intrinsic rt_assign_copy"),
], ids=["move-rc_dec", "move-chain-rc_inc", "call", "spawn", "pool", "tuple",
        "tget", "ret", "rt_assign_copy"])
def test_capture_escape_routes(instrs, finding):
    assert capture_escape(region(*instrs)) == finding


def test_capture_reads_and_local_rc_traffic_do_not_escape():
    instrs = [("intr", 5, m, (1, 2, 3, 4))
              for m in sorted(_CAPTURE_SAFE_INTRINSICS)]
    instrs += [
        ("rt_getf", 5, 1, 3), ("rt_setf", 2, 3, 5), ("rt_geti", 5, 1, 3),
        ("rt_seti", 2, 3, 5), ("rt_dim", 5, 1, 3), ("rt_size", 5, 2),
        ("fastloop", None, 20),
        # A shard-allocated matrix: its rc traffic stays in the shard.
        ("intr", 7, "rt_allocf", (3, 3, 3, 3, 3)), ("move", 8, 7),
        ("call", 9, "f", (8, 3, 4)), ("rc_inc", 8), ("rc_dec", 7),
        # Overwriting a capture slot taints its readers, not the source.
        ("move", 1, 7), ("rc_dec", 7), ("ret", 9),
    ]
    assert capture_escape(region(*instrs)) is None


def test_capture_escape_respects_seeds():
    code = region(("call", 5, "f", (1,)), ("call", 6, "g", (2,)))
    assert capture_escape(code, seeds=[2]) == \
        "capture 'w' is passed to call 'g'"
    assert capture_escape(code, seeds=[]) is None


@pytest.mark.parametrize("fig", ["fig4", "fig8"])
def test_allocating_maps_are_process_safe(fig):
    # Every rc op under these maps acts on a matrix the shard allocated.
    program = compile_xc(load(fig), ("matrix", "transform")).bytecode()
    (name,) = [n for n in program.lifted_trees if n.startswith("__mmap_body")]
    assert H_RC in program.hazards_for(name, lifted=True)
    assert program.safety.capture_escape(name) is None
    assert program.lifted_process_safe(name)
    (v,) = [v for v in analyze_parallel(program) if v.name == name]
    assert v.process_safe and not v.process_blockers
    assert "(thread or process workers)" in v.explain()


SCALAR_TO_CALL = """
float f(float s, int i) {
    Matrix float <1> t = init(Matrix float <1>, 4);
    t[0] = s;
    return t[0] + i;
}
int main() {
    float s = 2.0;
    Matrix float <1> b = init(Matrix float <1>, 8);
    b = with ([0] <= [i] < [8]) genarray([8], f(s, i));
    writeMatrix("b.data", b);
    return 0;
}
"""


def test_escaping_capture_keeps_the_rc_blocker_and_names_it():
    program = compile_xc(PICK).bytecode()
    (name,) = program.lifted_trees
    assert not program.lifted_process_safe(name)
    (v,) = analyze_parallel(program)
    assert v.safe and v.process_safe is False
    (b,) = v.process_blockers
    assert b.hazard == H_RC
    assert b.what == "capture 'v' is passed to call 'pick'"
    assert "thread workers only" in v.explain()


def test_scalar_captures_have_no_refcount():
    # 's' (a float) reaches a call, but only matrix captures are seeded.
    program = compile_xc(SCALAR_TO_CALL).bytecode()
    (name,) = program.lifted_trees
    assert H_RC in program.hazards_for(name, lifted=True)
    assert program.lifted_process_safe(name)
