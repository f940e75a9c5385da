"""Boolean ``REPRO_*`` switches: unset, empty and ``0`` mean off, any
other value means on.  Every switch is read through
:func:`repro.util.env_flag`; each one is checked here at ``=0`` (the
mode stays off) and ``=1`` (the mode turns on)."""

from collections import defaultdict
from pathlib import Path

import pytest

from repro.api import compile_source
from repro.cexec.bytecode import BytecodeProgram, Code, compile_function
from repro.cexec.interp import run_program
from repro.cexec.vm import VM, bind
from repro.util import env_flag

ROOT = Path(__file__).resolve().parents[1]
OFF_ON = [("0", False), ("1", True)]

LOOP = """
int main() {
    int s = 0;
    for (int i = 0; i < 10; i = i + 1) { s = s + i; }
    printInt(s);
    return 0;
}
"""


@pytest.mark.parametrize("value, on", [
    (None, False), ("", False), ("0", False), ("1", True), ("yes", True)])
def test_env_flag_parsing(monkeypatch, value, on):
    if value is None:
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
    else:
        monkeypatch.setenv("REPRO_TEST_FLAG", value)
    assert env_flag("REPRO_TEST_FLAG") is on


@pytest.mark.parametrize("value, on", OFF_ON)
def test_count_instrs(monkeypatch, value, on):
    monkeypatch.setenv("REPRO_COUNT_INSTRS", value)
    rc, _outs, st, ex = run_program(LOOP, ["matrix"], nthreads=1)
    assert rc == 0 and ex.stdout == ["45"]
    assert (st.instrs > 0) is on


@pytest.mark.parametrize("value, on", OFF_ON)
def test_no_quicken(monkeypatch, value, on):
    """On, the VM binds the generic stream: a ``jmp`` chain is not
    threaded, so the entry ``jmp`` lands on the next ``jmp``."""
    monkeypatch.delenv("REPRO_COUNT_INSTRS", raising=False)
    monkeypatch.setenv("REPRO_NO_QUICKEN", value)
    cr = compile_source(LOOP, ["matrix"])
    vm = VM(cr.lowered, cr.ctx, nthreads=1, program=cr.bytecode())
    code = Code("f", [], 1, [("jmp", 1), ("jmp", 2), ("ret_none",)])
    assert bind(code, vm)[0]([None]) == (1 if on else 2)


@pytest.mark.parametrize("value, on", OFF_ON)
def test_ir_strict(monkeypatch, value, on):
    """On, the SSA verifier runs between every optimizer pass."""
    from repro.ir import optimize_code, verify

    calls = []
    real = verify.verify_fn

    def counting_verify(fn, *, where):
        calls.append(where)
        real(fn, where=where)

    monkeypatch.setattr(verify, "verify_fn", counting_verify)
    monkeypatch.setenv("REPRO_IR_STRICT", value)
    prog = BytecodeProgram(*_lowered(LOOP))
    params, body = prog.functions["main"]
    counts = defaultdict(int)
    optimize_code(compile_function("main", params, body), 2, counts)
    assert counts["functions"] == 1
    assert bool(calls) is on


GUARDED = """
int main() {
    int n = 9;
    Matrix float <1> a = with ([0] <= [i] < [n]) genarray([n], 2.0);
    writeMatrix("a.data", a);
    return 0;
}
"""


@pytest.mark.parametrize("value, on", OFF_ON)
def test_no_guard_elide(monkeypatch, value, on):
    monkeypatch.setenv("REPRO_NO_GUARD_ELIDE", value)
    rc, _outs, st, _ex = run_program(GUARDED, ["matrix"], nthreads=1)
    assert rc == 0
    assert (st.guards_elided == 0) is on


@pytest.mark.parametrize("value, on", OFF_ON)
def test_no_race_check(monkeypatch, value, on):
    """On, the race analysis is skipped and the effect-hazard verdict
    keeps the matrix-writing task ``fill`` off the task pool."""
    monkeypatch.setenv("REPRO_NO_RACE_CHECK", value)
    src = (ROOT / "examples/analysis/races/disjoint_halves.xc").read_text()
    prog = BytecodeProgram(*_lowered(src, ["matrix", "cilk"]))
    assert prog.task_parallel_safe("fill") is not on


def _lowered(src: str, exts=("matrix",)) -> tuple:
    cr = compile_source(src, list(exts))
    assert cr.ok, cr.errors
    return cr.lowered, cr.ctx
