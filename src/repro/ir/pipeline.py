"""Pass pipeline driver: bytecode -> TAC/SSA -> passes -> bytecode.

``optimize_code`` is the single entry point
(:class:`repro.cexec.bytecode.BytecodeProgram` calls it per function
when ``Optimizations.opt_level`` > 0):

* ``-O0`` — identity (the S22 compiler's output runs unchanged);
* ``-O1`` — fold / copy-prop / CSE / DCE (no loop transforms);
* ``-O2`` — plus LICM and strength reduction (the default).

The driver is defensive: the optimizer must never turn a compilable
program into a broken one, so any internal error falls back to the
unoptimized code and bumps the ``bailouts`` counter (tests run with
``REPRO_IR_STRICT=1``, which re-raises instead).  A structural verifier
checks every emitted function — operand slots in range, jump targets on
instruction boundaries, opcode vocabulary the VM knows — before it is
allowed to replace the original.
"""

from __future__ import annotations

from repro.cexec.bytecode import Code

from repro.ir import passes as P
from repro.ir.ssa import build_ssa, destroy_ssa
from repro.ir.tac import (
    BINOPS, LOADS, STORES, TACFunc, UNOPS, Value, decode, linearize,
)
from repro.util import env_flag

#: Per-pass rewrite counter names, in pipeline order (stats reporting).
PASS_COUNTERS = ("fold", "copyprop", "cse", "thread", "licm", "strength",
                 "dce")

_KNOWN_OPS = (BINOPS | UNOPS | LOADS | STORES | frozenset([
    "const", "jmp", "jz", "jnz", "rt_dim", "rt_size", "rc_inc", "rc_dec",
    "intr", "call", "tuple", "tget", "pool", "spawn", "sync", "fastloop",
    "ret", "ret_none"]))


def _verify(code: Code) -> None:
    n = len(code.instrs)
    for i, ins in enumerate(code.instrs):
        op = ins[0]
        if op not in _KNOWN_OPS:
            raise AssertionError(f"unknown op {op!r} at {i}")
        if op in ("jmp", "jz", "jnz", "fastloop"):
            t = ins[-1]
            if not (0 <= t <= n):
                raise AssertionError(f"jump target {t} out of range at {i}")
        regs = []
        if op in ("intr", "call", "spawn"):
            regs = [*ins[3]] if ins[1] is None else [ins[1], *ins[3]]
        elif op == "pool":
            regs = [ins[2], *ins[3]]
        elif op == "tuple":
            regs = [ins[1], *ins[2]]
        elif op in ("jz", "jnz"):
            regs = [ins[1]]
        elif op in ("const", "tget"):
            regs = [ins[1]]
        elif op not in ("jmp", "ret_none", "sync", "fastloop"):
            regs = [x for x in ins[1:] if isinstance(x, int)]
        for r in regs:
            if not (0 <= r < code.nregs):
                raise AssertionError(f"register {r} out of range at {i}")


def _run_passes(fn: TACFunc, level: int, counts,
                check=lambda where: None) -> None:
    poisoned = P.poisoned_values(fn)
    P.dvnt(fn, counts, poisoned)
    check("dvnt")
    if level >= 2:
        # early DCE clears dead phi cycles (unread temp slots merged at
        # joins) so jump_thread's "phis used only locally" test sees
        # through them.
        P.dce(fn, counts)
        check("dce")
        P.jump_thread(fn, counts, poisoned)
        check("jump_thread")
        P.licm(fn, counts, poisoned)
        check("licm")
        P.strength_reduce(fn, counts, poisoned)
        check("strength_reduce")
        P.dvnt(fn, counts, poisoned)
        check("dvnt")
    P.dce(fn, counts)
    check("dce")


def optimize_code(code: Code, level: int, counts) -> Code:
    """Optimize one compiled function; returns a new :class:`Code` (or
    the input unchanged at ``-O0`` / on internal bailout)."""
    if level <= 0 or not code.instrs:
        return code
    try:
        fn = decode(code)
        build_ssa(fn)
        # Under REPRO_IR_STRICT the SSA verifier pins well-formedness
        # between every pass (tests/ir also runs it unconditionally);
        # otherwise passes stay check-free and any breakage is caught
        # by the structural _verify + bailout below.
        if env_flag("REPRO_IR_STRICT"):
            from repro.ir.verify import verify_fn
            verify_fn(fn, where="build_ssa")
            _run_passes(fn, level, counts,
                        check=lambda where: verify_fn(fn, where=where))
        else:
            _run_passes(fn, level, counts)
        reg, nregs = destroy_ssa(fn)
        out = linearize(fn, reg, nregs)
        _verify(out)
        counts["functions"] = counts.get("functions", 0) + 1
        return out
    except Exception:
        if env_flag("REPRO_IR_STRICT"):
            raise
        counts["bailouts"] = counts.get("bailouts", 0) + 1
        return code


# -- IR dumping (reproc disasm --ir, golden tests) ---------------------------


def dump_fn(fn: TACFunc, title: str = "") -> str:
    """Deterministic, diff-friendly text form of a TAC function: value
    ids renumbered in block order, blocks labeled by layout position."""
    order = [b for b in sorted(fn.blocks, key=lambda x: fn.blocks[x].key)
             if b in set(fn.rpo())]
    label = {bid: f"B{i}" for i, bid in enumerate(order)}
    names: dict[int, str] = {}

    def nm(v) -> str:
        if not isinstance(v, Value):
            return repr(v)
        if fn.undef is not None and v.vid == fn.undef.vid:
            return "undef"
        s = names.get(v.vid)
        if s is None:
            s = names[v.vid] = f"v{len(names)}"
        return s

    # parameters first so their names are stable
    if fn.undef is not None:
        for v in fn.values[1:len(fn.params) + 1]:
            names[v.vid] = f"p{v.slot - 1}"

    lines = [f"{title or fn.name}({', '.join(fn.params)})"]
    for bid in order:
        b = fn.blocks[bid]
        preds = ", ".join(label[p] for p in b.preds if p in label)
        lines.append(f"{label[bid]}:" + (f"    ; preds {preds}" if preds
                                         else ""))
        for ins in b.instrs:
            if ins.op == "nop":
                continue
            if ins.op == "phi":
                pairs = ", ".join(
                    f"{label.get(p, '?')}: {nm(a)}"
                    for p, a in zip(ins.extra["preds"], ins.args))
                lines.append(f"  {nm(ins.dest)} = phi [{pairs}]")
                continue
            if ins.op == "flacc":
                lines.append(f"  {nm(ins.dest)} = flacc slot{ins.extra}")
                continue
            rhs = ins.op
            if ins.extra is not None and ins.op in ("intr", "call", "spawn"):
                rhs += f" {ins.extra}"
            elif ins.op == "const":
                rhs += f" {ins.extra!r}"
            elif ins.op == "tget":
                rhs += f" .{ins.extra}"
            if ins.args:
                rhs += " " + ", ".join(nm(a) for a in ins.args)
            lines.append(f"  {nm(ins.dest)} = {rhs}" if ins.dest is not None
                         else f"  {rhs}")
        t = b.term
        if t is None:
            continue
        if t.op == "fastloop":
            ex = t.extra
            lines.append(
                f"  fastloop reads[{', '.join(map(str, ex['reads']))}] "
                f"accs[{', '.join(map(str, ex['accs']))}] "
                f"-> done {label.get(b.succs[0], '?')}, "
                f"scalar {label.get(b.succs[1], '?')}")
        elif t.op in ("jz", "jnz"):
            lines.append(f"  {t.op} {nm(t.args[0])} "
                         f"-> {label.get(b.succs[0], '?')}, "
                         f"else {label.get(b.succs[1], '?')}")
        elif t.op == "jmp":
            lines.append(f"  jmp {label.get(b.succs[0], '?')}")
        elif t.op == "ret":
            lines.append(f"  ret {nm(t.args[0])}")
        else:
            lines.append(f"  {t.op}")
    return "\n".join(lines)


def dump_stages(code: Code, level: int) -> dict[str, str]:
    """All intermediate forms of one function, for ``reproc disasm``:
    raw TAC, SSA, optimized SSA, and the final bytecode disassembly."""
    from collections import defaultdict

    out: dict[str, str] = {"bytecode-in": code.dis()}
    fn = decode(code)
    out["tac"] = dump_fn(fn, f"{code.name} [tac]")
    build_ssa(fn)
    out["ssa"] = dump_fn(fn, f"{code.name} [ssa]")
    counts: dict[str, int] = defaultdict(int)
    if level > 0:
        _run_passes(fn, level, counts)
    out["opt"] = dump_fn(fn, f"{code.name} [opt -O{level}]")
    out["counts"] = ", ".join(f"{k}={counts[k]}" for k in PASS_COUNTERS
                              if counts.get(k))
    final = optimize_code(code, level, defaultdict(int))
    out["bytecode"] = final.dis()
    return out
