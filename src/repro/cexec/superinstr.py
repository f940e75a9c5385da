"""Superinstruction fusion (S29), kept for the compile stream.

:func:`fuse` rewrites each compiled :class:`Code` as a peephole pass
**after** the IR pipeline, replacing every run of adjacent fusable
instructions with one ``("si", parts, dead)`` pseudo-instruction.  A run
opens at any ``MID_OPS`` instruction and extends over ``TAIL_OPS``
instructions that are not jump targets, up to ``MAX_GROUP``
constituents; ``dead`` marks constituents whose destination slot is
read only inside the group.

Nothing executes the fused stream any more: the VM runs each function
as one compiled Python function (:mod:`repro.cexec.pyfunc`).
``BytecodeProgram.spec_code_for`` still calls :func:`fuse`, because the
e2e benchmark's compile stream times it; both go once that benchmark
stops calling them.

Soundness notes (for the stream the pass builds)
------------------------------------------------
* Fusion runs on the final linearized bytecode, so ``repro.ir`` (and its
  verifier) never see ``si`` opcodes; the unfused stream stays available
  via ``BytecodeProgram.code_for`` for the hazard/call-graph analyses.
* A group never *contains* a jump target: control cannot enter between
  two fused constituents.
* Unconditional transfers (``jmp``/``ret``) may only close a group; a
  conditional branch may sit anywhere.
* ``call``, division and modulo never open or extend a group.
"""

from __future__ import annotations

from repro.cexec.bytecode import Code
from repro.cexec.pyfunc import dest as _dest, reads as _reads

# Opcodes legal in a non-tail position of a group: always fall through,
# and have a pure-Python expression form.
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
# conditional branches (an early exit out of the group) — this is what
# collapses short-circuit diamonds (`a && b`) into one group.
MID_OPS = STRAIGHT_OPS | frozenset(["jz", "jnz"])

_JUMPS = ("jmp", "jz", "jnz", "fastloop")


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
