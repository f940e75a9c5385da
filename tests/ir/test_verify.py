"""The S30 SSA verifier: clean pipelines verify at every stage, and
each invariant it claims to pin — single def, def-dominates-use, phi
arity/preds, terminator shape — actually trips on a deliberately
broken function."""

from __future__ import annotations

import pytest

from repro.ir.pipeline import PASS_COUNTERS, _run_passes
from repro.ir.ssa import build_ssa
from repro.ir.tac import Instr, Value, decode
from repro.ir.verify import VerifyError, verify_fn

from tests.ir.conftest import fn_code

LOOPY = """
int f(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        if (s > 100) { s = s - i; } else { s = s + i; }
        i = i + 1;
    }
    return s;
}
int main() { printInt(f(20)); return 0; }
"""

MATS = """
int f(int n) {
    Matrix float <1> m = init(Matrix float <1>, 16);
    for (int i = 0; i < n; i = i + 1) {
        m[i] = 1.0 * i;
    }
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
        if (m[i] > 3.0) { s = s + 1; }
    }
    return s;
}
int main() { printInt(f(10)); return 0; }
"""


def ssa_of(src: str, name: str = "f"):
    fn = decode(fn_code(src, name))
    build_ssa(fn)
    return fn


class TestCleanPrograms:
    @pytest.mark.parametrize("src", [LOOPY, MATS], ids=["loopy", "mats"])
    def test_clean_at_every_stage(self, src):
        fn = ssa_of(src)
        verify_fn(fn, where="build_ssa")
        counts = {k: 0 for k in PASS_COUNTERS}
        # the check callback runs the verifier after every pass
        _run_passes(fn, 2, counts,
                    check=lambda where: verify_fn(fn, where=where))

    def test_pre_ssa_gets_cfg_checks_only(self):
        fn = decode(fn_code(LOOPY, "f"))
        verify_fn(fn)  # int operands: CFG shape still checked


def find_def(fn, op=None):
    """(block, index, instr) of the first real definition."""
    for bid in fn.rpo():
        for i, ins in enumerate(fn.blocks[bid].instrs):
            if ins.dest is not None and ins.op not in ("phi", "nop") \
                    and (op is None or ins.op == op):
                return fn.blocks[bid], i, ins
    raise AssertionError("no definition found")


class TestViolations:
    def test_double_definition(self):
        fn = ssa_of(LOOPY)
        b, i, ins = find_def(fn)
        b.instrs.insert(i + 1, Instr("const", ins.dest, (), 7))
        with pytest.raises(VerifyError, match="defined twice"):
            verify_fn(fn)

    def test_use_before_def_in_block(self):
        fn = ssa_of(LOOPY)
        b, i, ins = find_def(fn, "const")
        b.instrs.insert(i, Instr("move", fn.new_value(), (ins.dest,)))
        with pytest.raises(VerifyError, match="before its definition"):
            verify_fn(fn)

    def test_use_without_dominating_def(self):
        fn = ssa_of(LOOPY)
        # define a fresh value in a non-entry block, use it at entry
        target = next(bid for bid in fn.rpo() if bid != fn.entry)
        v = fn.new_value()
        fn.blocks[target].instrs.append(Instr("const", v, (), 1))
        fn.blocks[fn.entry].instrs.append(
            Instr("move", fn.new_value(), (v,)))
        with pytest.raises(VerifyError, match="does not dominate"):
            verify_fn(fn)

    def test_use_of_undefined_value(self):
        fn = ssa_of(LOOPY)
        ghost = fn.new_value()
        fn.blocks[fn.entry].instrs.append(
            Instr("move", fn.new_value(), (ghost,)))
        with pytest.raises(VerifyError, match="no definition"):
            verify_fn(fn)

    def test_phi_arity_mismatch(self):
        fn = ssa_of(LOOPY)
        phi = next(i for bid in fn.rpo()
                   for i in fn.blocks[bid].instrs if i.op == "phi")
        phi.args.append(fn.undef)
        with pytest.raises(VerifyError, match="phi has"):
            verify_fn(fn)

    def test_phi_preds_stale_after_edge_edit(self):
        fn = ssa_of(LOOPY)
        phi_block = next(fn.blocks[bid] for bid in fn.rpo()
                         if any(i.op == "phi" for i in fn.blocks[bid].instrs))
        phi = next(i for i in phi_block.instrs if i.op == "phi")
        k = len(phi.extra["preds"]) - 1
        phi.extra["preds"] = list(phi.extra["preds"])
        phi.extra["preds"][k] = 10_000  # an edge that no longer exists
        with pytest.raises(VerifyError, match="block preds"):
            verify_fn(fn)

    def test_missing_terminator(self):
        fn = ssa_of(LOOPY)
        fn.blocks[fn.entry].term = None
        with pytest.raises(VerifyError, match="no terminator"):
            verify_fn(fn)

    def test_wrong_successor_count(self):
        fn = ssa_of(LOOPY)
        b = next(fn.blocks[bid] for bid in fn.rpo()
                 if fn.blocks[bid].term.op == "jmp")
        b.succs = []
        with pytest.raises(VerifyError, match="expects 1 successor"):
            verify_fn(fn)

    def test_asymmetric_edge(self):
        fn = ssa_of(LOOPY)
        b = next(fn.blocks[bid] for bid in fn.rpo()
                 if fn.blocks[bid].term.op == "jmp")
        fn.blocks[b.succs[0]].preds.remove(b.bid)
        with pytest.raises(VerifyError, match="missing from its preds"):
            verify_fn(fn)


# -- reducibility -------------------------------------------------------------

# Jumps into the middle of a cycle from two places: no block of the
# cycle dominates the other, so it has two entries.
IRREDUCIBLE = [
    ("jz", 1, 3),
    ("const", 2, 1),
    ("jmp", 3),
    ("const", 2, 2),
    ("jnz", 1, 1),
    ("ret", 2),
]


def _reducible_cases():
    from repro.programs import corpus_cases
    from tests.cexec.test_vm_differential import (
        BAILING_PLAN, CONTROL_FLOW, PY_NAMES, SPAWN_AFTER_SYNC,
        TRAP_MID_LOOP, deep_nest, else_if_chain)

    cases = [(name, src, exts) for name, src, exts, _i, _o
             in corpus_cases()]
    cases += [("control-flow", CONTROL_FLOW, ["matrix"]),
              ("else-if-120", else_if_chain(), ["matrix"]),
              ("deep-nest-22", deep_nest(), ["matrix"]),
              ("spawn-after-sync", SPAWN_AFTER_SYNC, ["cilk"]),
              ("bailing-plan", BAILING_PLAN, ["matrix"]),
              ("trap-mid-loop", TRAP_MID_LOOP, ["matrix"]),
              ("python-names", PY_NAMES, ["matrix"])]
    return cases


class TestReducible:
    """Every corpus program and every control-flow shape of the compiled-
    function tests stays reducible at O0, O1 and O2: as the bytecode
    compiler emits it, between the optimizer's passes (this suite runs
    with ``REPRO_IR_STRICT``, so the verifier checks after each pass),
    and as the final bytecode the VM binds."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("case", _reducible_cases(),
                             ids=lambda c: c[0])
    def test_reducible_at_every_level(self, case, level):
        from repro.api import Optimizations, compile_source
        from repro.cexec.bytecode import compile_function
        from repro.ir.verify import check_reducible

        name, src, exts = case
        cr = compile_source(src, exts,
                            options=Optimizations(opt_level=level))
        assert cr.ok, cr.errors
        prog = cr.bytecode()
        for table, final in ((prog.functions, prog.code_for),
                             (prog.lifted_trees, prog.lifted_code_for)):
            for fname, (params, body) in table.items():
                for code in (compile_function(fname, params, body),
                             final(fname)):
                    check_reducible(decode(code), where=f"{name} -O{level}")

    def test_two_entry_cycle_fails(self):
        from repro.cexec.bytecode import Code
        from repro.ir.verify import check_reducible

        fn = decode(Code("g", ["a"], 3, list(IRREDUCIBLE)))
        with pytest.raises(VerifyError, match="irreducible"):
            check_reducible(fn)
