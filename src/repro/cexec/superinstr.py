"""Superinstructions for the bytecode VM (S29).

The S28 optimizer shrinks the dynamic instruction *stream*; this module
shrinks the number of *dispatches* the stream costs.  :func:`fuse`
rewrites each compiled :class:`Code` as a peephole pass **after** the
IR pipeline, replacing every run of adjacent fusable instructions with
one ``("si", parts, dead)`` pseudo-instruction.  A run opens at any
``MID_OPS`` instruction and extends over ``TAIL_OPS`` instructions that
are not jump targets, up to ``MAX_GROUP`` constituents.  The VM binds
an ``si`` to a *single* closure, generated and compiled once per
distinct shape from straight-line Python source, so one dispatch
retires the whole run — and when a constituent's destination slot is
provably read only inside the group, its frame-slot write is skipped
entirely and the value flows through a Python local.

Soundness notes
---------------
* Fusion runs on the final linearized bytecode, so ``repro.ir`` (and its
  verifier) never see ``si`` opcodes; the unfused stream stays available
  via ``BytecodeProgram.code_for`` for the hazard/call-graph analyses.
* A group never *contains* a jump target: control cannot enter between
  two fused constituents, which is exactly what makes the dead-store
  skip and local forwarding sound.
* Unconditional transfers (``jmp``/``ret``) may only close a group; a
  conditional branch may sit anywhere, compiling to an early ``return``
  out of the closure, so the taken path still costs exactly one dispatch
  while the fall-through path keeps retiring constituents.  Trapping
  constituents (matrix access, dimension queries) are fine in any
  position — a trap aborts the whole frame, so a partially-executed
  group is indistinguishable from a partially-executed unfused sequence.
* ``call``, division and modulo never open or extend a group: a call
  re-enters the VM, and ``/``/``%`` keep their own closures around the
  trapping ``c_div``/``c_mod`` helpers.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.cexec.bytecode import Code

# Opcodes legal in a non-tail position of a group: always fall through,
# and have a pure-Python statement form `gen_source` knows how to emit.
# "/", "%" and "call" are deliberately absent (see the module notes);
# "intr"/"pool"/"spawn"/"sync"/"fastloop"/"rc_*" never fuse.
STRAIGHT_OPS = frozenset([
    "const", "move", "+", "-", "*", "<", "<=", ">", ">=", "==", "!=",
    "neg", "not", "bool", "cast_int", "cast_f32",
    "rt_getf", "rt_geti", "rt_setf", "rt_seti", "rt_dim", "rt_size",
    "tget", "tuple",
])

# Additionally legal as the *last* constituent of a group.
TAIL_OPS = STRAIGHT_OPS | frozenset(["jmp", "jz", "jnz", "ret", "ret_none"])

# Legal in a *non-final* position: straight-line opcodes plus the
# conditional branches, which compile to an early ``return`` out of the
# fused closure.  The taken path costs exactly the one dispatch it
# always did; the fall-through path keeps retiring constituents — this
# is what collapses short-circuit diamonds (`a && b`) into one closure.
MID_OPS = STRAIGHT_OPS | frozenset(["jz", "jnz"])

_JUMPS = ("jmp", "jz", "jnz", "fastloop")


def _reads(ins: tuple) -> tuple:
    """Frame slots this instruction reads (conservative, exact for every
    opcode the compiler emits)."""
    op = ins[0]
    if op == "const":
        return ()
    if op in ("move", "neg", "not", "bool", "cast_int", "cast_f32"):
        return (ins[2],)
    if op in ("+", "-", "*", "/", "%",
              "<", "<=", ">", ">=", "==", "!="):
        return (ins[2], ins[3])
    if op in ("rt_getf", "rt_geti", "rt_dim"):
        return (ins[2], ins[3])
    if op in ("rt_setf", "rt_seti"):
        return (ins[1], ins[2], ins[3])
    if op == "rt_size":
        return (ins[2],)
    if op in ("rc_inc", "rc_dec"):
        return (ins[1],)
    if op in ("intr", "call", "spawn"):
        return tuple(ins[3])
    if op == "pool":
        return (ins[2], *ins[3])
    if op == "tuple":
        return tuple(ins[2])
    if op == "tget":
        return (ins[2],)
    if op in ("jz", "jnz"):
        return (ins[1],)
    if op == "ret":
        return (ins[1],)
    return ()  # jmp, sync, ret_none, fastloop (plan slots handled apart)


def _dest(ins: tuple) -> int | None:
    """The synchronously-written destination slot, or None."""
    op = ins[0]
    if op in ("const", "move", "neg", "not", "bool", "cast_int",
              "cast_f32", "+", "-", "*", "/", "%", "<", "<=", ">", ">=",
              "==", "!=", "rt_getf", "rt_geti", "rt_dim", "rt_size",
              "intr", "call", "tuple", "tget"):
        return ins[1]
    return None


# -- fusion pass --------------------------------------------------------------


# Longest run of constituents one fused closure may retire.  The cap
# only bounds code-object size per shape — semantics are
# length-independent.
MAX_GROUP = 12


def fuse(code: Code) -> tuple[Code, int]:
    """Rewrite one function's bytecode, fusing every run of adjacent
    fusable instructions into a ``("si", parts, dead)`` pseudo-
    instruction.  Returns the (possibly new) :class:`Code` and the
    number of groups formed.

    A group opens at a ``MID_OPS`` instruction and grows over
    ``TAIL_OPS`` instructions that are not jump targets; it closes after
    the first unconditional transfer, before any other opcode, and at
    ``MAX_GROUP`` constituents.  A whole basic-block run — e.g. the
    mandelbrot escape body — thus collapses to one dispatch."""
    instrs = code.instrs
    n = len(instrs)
    if n < 2:
        return code, 0

    # Slot read map for the dead-intermediate analysis.  -1 marks a slot
    # as read "somewhere we cannot see": slot 0 (the return value), and
    # every slot a fastloop plan touches behind the VM's back.
    reads: dict[int, set[int]] = {0: {-1}}
    targets: set[int] = set()
    for idx, ins in enumerate(instrs):
        for s in _reads(ins):
            reads.setdefault(s, set()).add(idx)
        op = ins[0]
        if op in _JUMPS:
            targets.add(ins[-1])
            if op == "fastloop":
                plan = ins[1]
                for s in (set(getattr(plan, "read_slots", ()))
                          | set(getattr(plan, "write_slots", ()))):
                    reads.setdefault(s, set()).add(-1)
        elif op == "spawn" and ins[1] is not None:
            # The spawn target is written asynchronously after the
            # instruction retires; treat it as observed everywhere.
            reads.setdefault(ins[1], set()).add(-1)

    # Pass 1: choose groups greedily left-to-right.
    groups: list[tuple[int, int]] = []  # (start, length)
    new_of_old: dict[int, int] = {}
    out_len = 0
    i = 0
    while i < n:
        length = 1
        if instrs[i][0] in MID_OPS:
            while (length < MAX_GROUP and i + length < n
                   and i + length not in targets
                   and instrs[i + length][0] in TAIL_OPS):
                length += 1
                # An unconditional transfer closes the group; a mid
                # jz/jnz becomes an early return and the group goes on.
                if instrs[i + length - 1][0] not in MID_OPS:
                    break
        new_of_old[i] = out_len
        groups.append((i, length))
        out_len += 1
        i += length
    new_of_old[n] = out_len
    if all(length == 1 for _s, length in groups):
        return code, 0

    def remap(t: int) -> int:
        return new_of_old[t]

    # Pass 2: materialize, remapping every jump target (targets are
    # never mid-group, so the map is total on them).
    out: list[tuple] = []
    fused = 0
    for start, length in groups:
        if length == 1:
            ins = instrs[start]
            if ins[0] in _JUMPS:
                ins = ins[:-1] + (remap(ins[-1]),)
            out.append(ins)
            continue
        fused += 1
        parts = []
        dead = []
        for j in range(length):
            ins = instrs[start + j]
            if ins[0] in _JUMPS:
                ins = ins[:-1] + (remap(ins[-1]),)
            parts.append(ins)
            d = _dest(ins)
            if d is None:
                dead.append(False)
                continue
            # Dead outside the group: every read of slot d anywhere in
            # the function happens at a *later* constituent of this
            # group (conservative: slot-level, not def-level).
            in_group_later = set(range(start + j + 1, start + length))
            dead.append(reads.get(d, set()) <= in_group_later)
        out.append(("si", tuple(parts), tuple(dead)))
    new = Code(code.name, code.params, code.nregs, out)
    return new, fused


# -- fused-closure code generation -------------------------------------------

_FN_CACHE: dict[str, object] = {}

_CMP = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "==", "!=": "!="}

# ``repr`` writes an infinite float constant as ``inf``.  It would write
# every NaN as ``nan`` and lose its sign and payload, so a NaN constant
# is rebuilt from its bits (``f64bits``) instead.
_GLOBALS = {"f32": np.float32, "inf": math.inf,
            "f64bits": lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]}


def _gen_expr(ins: tuple, R) -> str:
    """The value expression of a dest-producing constituent."""
    op = ins[0]
    if op == "const":
        v = ins[2]
        if isinstance(v, float) and math.isnan(v):
            return f"f64bits({struct.unpack('<Q', struct.pack('<d', v))[0]:#x})"
        return repr(v)
    if op == "move":
        return R(ins[2])
    if op in ("+", "-", "*"):
        return f"({R(ins[2])} {op} {R(ins[3])})"
    if op in _CMP:
        return f"int({R(ins[2])} {op} {R(ins[3])})"
    if op == "neg":
        return f"(-{R(ins[2])})"
    if op == "not":
        return f"int(not {R(ins[2])})"
    if op == "bool":
        return f"int(bool({R(ins[2])}))"
    if op == "cast_int":
        return f"int({R(ins[2])})"
    if op == "cast_f32":
        return f"float(f32({R(ins[2])}))"
    if op == "rt_getf":
        return f"float({R(ins[2])}.data[int({R(ins[3])})])"
    if op == "rt_geti":
        return f"int({R(ins[2])}.data[int({R(ins[3])})])"
    if op == "rt_dim":
        return f"int({R(ins[2])}.dims[int({R(ins[3])})])"
    if op == "rt_size":
        return f"{R(ins[2])}.size"
    if op == "tget":
        return f"{R(ins[2])}[{ins[3]}]"
    if op == "tuple":
        inner = ", ".join(R(r) for r in ins[2])
        return f"({inner},)" if len(ins[2]) == 1 else f"({inner})"
    raise AssertionError(f"no expression form for {op!r}")


def gen_source(parts: tuple, dead: tuple, nxt: int, end: int) -> str:
    """Straight-line Python source for one fused group.

    Frame reads go through ``f[slot]``; a constituent whose destination
    is dead outside the group materializes as a local instead of a
    frame write (and live values that are re-read inside the group are
    forwarded through a local as well, saving the list index)."""
    loc: dict[int, str] = {}   # slot -> live local name
    body: list[str] = []
    ntmp = 0

    def R(slot: int) -> str:
        return loc.get(slot, f"f[{slot}]")

    last = len(parts) - 1
    for j, ins in enumerate(parts):
        op = ins[0]
        later = parts[j + 1:]
        if op in ("rt_setf", "rt_seti"):
            cast = "f32" if op == "rt_setf" else "int"
            body.append(f"{R(ins[1])}.data[int({R(ins[2])})]"
                        f" = {cast}({R(ins[3])})")
            continue
        if op == "jmp":
            body.append(f"return {ins[1]}")
            continue
        if op in ("jz", "jnz"):
            c = R(ins[1])
            t = ins[2]
            if j == last:
                if op == "jz":
                    body.append(f"return {nxt} if {c} else {t}")
                else:
                    body.append(f"return {t} if {c} else {nxt}")
            elif op == "jz":
                body.append(f"if not {c}: return {t}")
            else:
                body.append(f"if {c}: return {t}")
            continue
        if op == "ret":
            body.append(f"f[0] = {R(ins[1])}")
            body.append(f"return {end}")
            continue
        if op == "ret_none":
            body.append("f[0] = None")
            body.append(f"return {end}")
            continue

        d = _dest(ins)
        expr = _gen_expr(ins, R)
        if d is None:  # pragma: no cover - every remaining op has a dest
            body.append(expr)
            continue
        if op in _CMP and dead[j] and all(
                d not in _reads(m) or m[0] in ("jz", "jnz")
                for m in later):
            # Truthiness of the raw comparison equals the int-wrapped
            # form; when it only feeds branches, skip the int().
            expr = f"({R(ins[2])} {_CMP[op]} {R(ins[3])})"
        read_later = any(d in _reads(m) for m in later)
        if read_later:
            name = f"t{ntmp}"
            ntmp += 1
            body.append(f"{name} = {expr}")
            if not dead[j]:
                body.append(f"f[{d}] = {name}")
            loc[d] = name
        elif dead[j]:
            # Still evaluate (traps must fire), but skip the dead write.
            body.append(expr)
        else:
            body.append(f"f[{d}] = {expr}")
            loc.pop(d, None)
    if parts[last][0] not in ("jmp", "jz", "jnz", "ret", "ret_none"):
        body.append(f"return {nxt}")
    inner = "\n    ".join(body)
    params = ", f32=f32" if "f32(" in inner else ""
    return f"def _si(f{params}):\n    {inner}\n"


def bind_super(ins: tuple, nxt: int, end: int):
    """Bind one ``("si", parts, dead)`` instruction to its closure.
    Functions are compiled once per distinct source (shapes repeat
    heavily across sites and programs) and are stateless, so the cache
    is shared by every VM."""
    _op, parts, dead = ins
    src = gen_source(parts, dead, nxt, end)
    fn = _FN_CACHE.get(src)
    if fn is None:
        ns: dict = dict(_GLOBALS)
        exec(compile(src, "<superinstr>", "exec"), ns)  # noqa: S102
        fn = _FN_CACHE[src] = ns["_si"]
    return fn
