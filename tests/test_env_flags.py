"""``REPRO_*`` switches.  A census pins the full set the package reads.
Boolean switches: unset, empty and ``0`` mean off, any other value means
on.  Every boolean switch is read through :func:`repro.util.env_flag`;
each one is checked here at ``=0`` (the mode stays off) and ``=1`` (the
mode turns on)."""

import ast
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
    """On, the VM binds the generic closure stream, which its dispatch
    loop runs; off, a compiled function that needs no dispatch loop."""
    monkeypatch.delenv("REPRO_COUNT_INSTRS", raising=False)
    monkeypatch.setenv("REPRO_NO_QUICKEN", value)
    dispatched = []
    real = VM._run

    def run(self, ops, nregs, *args):
        dispatched.append(len(ops))
        return real(self, ops, nregs, *args)

    monkeypatch.setattr(VM, "_run", run)
    cr = compile_source(LOOP, ["matrix"])
    vm = VM(cr.lowered, cr.ctx, nthreads=1, program=cr.bytecode())
    code = Code("f", [], 1, [("jmp", 1), ("jmp", 2), ("ret_none",)])
    assert bind(code, vm)() is None
    assert dispatched == ([3] if on else [])


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


def _lowered(src: str) -> tuple:
    cr = compile_source(src, ["matrix"])
    assert cr.ok, cr.errors
    return cr.lowered, cr.ctx


#: Every ``REPRO_*`` name the package reads; a new switch is a design
#: decision and has to be added here.
SWITCHES = {"REPRO_THREADS", "REPRO_PARALLEL_BACKEND", "REPRO_CACHE_DIR",
            "REPRO_COUNT_INSTRS", "REPRO_NO_QUICKEN", "REPRO_IR_STRICT"}


def _is_environ(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _env_reads(tree: ast.AST) -> set[str]:
    """``REPRO_*`` names read through ``env_flag(...)``,
    ``os.environ.get(...)`` or ``os.environ[...]``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "env_flag"
                or isinstance(node.func, ast.Attribute)
                and _is_environ(node.func.value)):
            key = node.args[0] if node.args else None
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
        else:
            continue
        if isinstance(key, ast.Constant) and str(key.value).startswith(
                "REPRO_"):
            names.add(key.value)
    return names


def test_switch_census():
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        found |= _env_reads(ast.parse(path.read_text(), str(path)))
    assert found == SWITCHES
