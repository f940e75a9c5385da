"""Compiled functions (S29): one generated Python function per bytecode
function.

:func:`repro.cexec.vm.bind` hands every function's optimized bytecode
(``BytecodeProgram.code_for`` / ``lifted_code_for``) to :func:`compiled`,
which translates it into Python source that CPython compiles once.  The
VM then calls the result with the arguments; no per-instruction (or
per-block) closure dispatch is left.  The translation follows four
rules:

* **Frame slots become Python locals** ``r<slot>``.  A slot that some
  path may read before any write is set to ``None`` on entry, which is
  what the frame list held.  Two kinds of slot stay in a per-call list:
  a ``spawn`` target (the task writes it from another thread, so it
  lives in ``T``), and the slots a ``fastloop`` plan reads or writes
  (spilled into ``fr`` before the plan runs; its written slots are
  reloaded on success).  ``loopfast.MIN_TRIP`` and ``vm.stats`` are
  read on every execution, as the closures did: tests patch the
  constant, and shards have thread-local stats.
* **Control flow is structured** by the dominator-tree emission of
  Ramsey, "Beyond Relooper" (ICFP 2022).  A natural loop becomes
  ``while True:`` (``continue`` to its header, ``break`` to its
  *follow*, the exit whose code comes after the loop); a branch becomes
  ``if``/``elif``/``else``; a join (a node with two forward in-edges)
  is emitted after the code of its immediate dominator.  A forward
  branch that cannot reach its join by falling out of ``if`` arms
  wraps the join's predecessors in a one-shot ``while True: ...
  break``.  A branch that must leave several Python loops at once sets
  ``_x`` and breaks; each loop it leaves re-dispatches on ``_x``.  This
  covers every reducible CFG (``repro.ir.verify.check_reducible``
  checks the optimizer keeps it so); an irreducible one runs on the
  closure stream.
* **A comparison whose result only feeds the next branch** becomes the
  ``if``/``while`` test, and a constant read once right after its
  definition is written into its reader, so an else-if chain comes out
  as ``elif``.
* **``int(...)`` around an index or operand is dropped** only where a
  forward must-analysis proves the value is already an ``int`` (never
  for a ``spawn`` target: the task may store a float there).

Every instruction otherwise evaluates the expression the closure stream
evaluates (:func:`expr` is the shared table), so stdout, trap and numpy
exception text, outputs and counters are unchanged.  Literals enter the
source only through ``repr`` (a NaN through its bits); names of
callees and intrinsics only as ``repr`` strings; slots only as numbers.
No other program text reaches the source.

Compiled factories are cached process-wide (:data:`CACHE_SIZE`, LRU)
under a key of everything the generator reads, so rebinding a freshly
compiled copy of a program costs a lookup and a factory call.  A
function CPython refuses (more than 20 nested loops, more than 100
indentation levels) runs on the closure stream; :func:`compiled` returns
the reason and the VM records it in the bail ledger.  Running out of
stack or memory while compiling is not cached (it depends on where the
function first binds), so the next bind retries.
"""

from __future__ import annotations

import builtins
import math
import os
import struct
import threading
from collections import OrderedDict

import numpy as np

from repro.cexec import loopfast
from repro.cexec.bytecode import Code
from repro.cexec.interp import c_div, c_mod

# -- instruction operands -----------------------------------------------------

_CMP = frozenset(["<", "<=", ">", ">=", "==", "!="])
_JUMPS = ("jmp", "jz", "jnz", "fastloop")
_ENDS = ("jmp", "jz", "jnz", "fastloop", "ret", "ret_none")


def reads(ins: tuple) -> tuple:
    """Frame slots this instruction reads (conservative, exact for every
    opcode the compiler emits; plan slots are handled apart)."""
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


def dest(ins: tuple) -> int | None:
    """The synchronously-written destination slot, or None."""
    op = ins[0]
    if op in ("const", "move", "neg", "not", "bool", "cast_int",
              "cast_f32", "+", "-", "*", "/", "%", "<", "<=", ">", ">=",
              "==", "!=", "rt_getf", "rt_geti", "rt_dim", "rt_size",
              "intr", "call", "tuple", "tget"):
        return ins[1]
    return None


# -- the expression table -----------------------------------------------------

# ``repr`` writes an infinite float constant as ``inf``.  It would write
# every NaN as ``nan`` and lose its sign and payload, so a NaN constant
# is rebuilt from its bits (``f64bits``) instead.
_GLOBALS = {"f32": np.float32, "inf": math.inf, "c_div": c_div,
            "c_mod": c_mod, "_lf": loopfast,
            "f64bits": lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]}

_LITERAL_TYPES = (int, float, str, bool, type(None))


def literal(v) -> str:
    """Source text of a constant; a NaN is rebuilt from its bits."""
    if type(v) not in _LITERAL_TYPES:
        raise _Refused(f"constant of type {type(v).__name__}")
    if isinstance(v, float) and math.isnan(v):
        return f"f64bits({struct.unpack('<Q', struct.pack('<d', v))[0]:#x})"
    return repr(v)


def expr(ins: tuple, R, I=None) -> str:
    """The value expression of a dest-producing instruction.  ``R(slot)``
    names an operand; ``I(slot)`` names an operand inside ``int(...)``
    (the default keeps the wrap)."""
    if I is None:
        def I(slot):  # noqa: E743 - mirrors R
            return f"int({R(slot)})"
    op = ins[0]
    if op == "const":
        return literal(ins[2])
    if op == "move":
        return R(ins[2])
    if op in ("+", "-", "*"):
        return f"({R(ins[2])} {op} {R(ins[3])})"
    if op == "/":
        return f"c_div({R(ins[2])}, {R(ins[3])})"
    if op == "%":
        return f"c_mod({R(ins[2])}, {R(ins[3])})"
    if op in _CMP:
        return f"int({R(ins[2])} {op} {R(ins[3])})"
    if op == "neg":
        return f"(-{R(ins[2])})"
    if op == "not":
        return f"int(not {R(ins[2])})"
    if op == "bool":
        return f"int(bool({R(ins[2])}))"
    if op == "cast_int":
        return I(ins[2])
    if op == "cast_f32":
        return f"float(f32({R(ins[2])}))"
    if op == "rt_getf":
        return f"float({R(ins[2])}.data[{I(ins[3])}])"
    if op == "rt_geti":
        return f"int({R(ins[2])}.data[{I(ins[3])}])"
    if op == "rt_dim":
        return f"int({R(ins[2])}.dims[{I(ins[3])}])"
    if op == "rt_size":
        return f"{R(ins[2])}.size"
    if op == "tget":
        return f"{R(ins[2])}[{ins[3]!r}]"
    if op == "tuple":
        inner = ", ".join(R(r) for r in ins[2])
        return f"({inner},)" if len(ins[2]) == 1 else f"({inner})"
    raise AssertionError(f"no expression form for {op!r}")


_EXPR_OPS = _CMP | frozenset([
    "const", "move", "+", "-", "*", "/", "%", "neg", "not", "bool",
    "cast_int", "cast_f32", "rt_getf", "rt_geti", "rt_dim", "rt_size",
    "tget", "tuple"])

# Opcodes whose result is an ``int`` when every operand is one (``c_div``
# and ``c_mod`` return ints for int operands), and opcodes whose result
# always is.
_INT_IF_OPERANDS = frozenset(["move", "+", "-", "*", "/", "%", "neg"])
_INT_ALWAYS = _CMP | frozenset(
    ["not", "bool", "cast_int", "rt_geti", "rt_dim", "rt_size"])

# Operand positions a constant may be written into: value positions only,
# never a matrix or tuple whose attribute or item is taken.
_VALUE_POSITIONS = {
    "move": (2,), "neg": (2,), "not": (2,), "bool": (2,), "cast_int": (2,),
    "cast_f32": (2,), "rt_getf": (3,), "rt_geti": (3,), "rt_dim": (3,),
    "rt_setf": (2, 3), "rt_seti": (2, 3),
    **{op: (2, 3) for op in ("+", "-", "*", "/", "%", *_CMP)},
}


def _int_result(ins: tuple, ints: set) -> bool:
    op = ins[0]
    if op == "const":
        return type(ins[2]) is int
    if op in _INT_ALWAYS:
        return True
    if op in _INT_IF_OPERANDS:
        return all(s in ints for s in reads(ins))
    return False


class _Refused(Exception):
    """The function cannot be compiled; the message says why."""


# -- control-flow graph -------------------------------------------------------


class _Graph:
    """Basic blocks of one :class:`Code`, keyed by their first pc; the
    end of the code (``n``) is a node that returns ``None``.  A block
    that is only a ``jmp`` is bypassed, and a block whose one successor
    has no other predecessor absorbs it."""

    def __init__(self, code: Code):
        instrs = code.instrs
        n = self.n = len(instrs)
        leaders = {0}
        for i, ins in enumerate(instrs):
            op = ins[0]
            if op in _JUMPS:
                t = ins[-1]
                if not (type(t) is int and 0 <= t <= n):
                    raise _Refused(f"jump target {t!r} out of range")
                leaders.add(t)
                leaders.add(i + 1)
            elif op in ("ret", "ret_none"):
                leaders.add(i + 1)
        starts = sorted(x for x in leaders if x < n)
        # block -> straight-line instructions, terminator, its pc
        self.ins: dict[int, list] = {}
        self.term: dict[int, tuple | None] = {}
        self.term_pc: dict[int, int] = {}
        raw: dict[int, list[int]] = {}
        for k, s in enumerate(starts):
            e = starts[k + 1] if k + 1 < len(starts) else n
            last = instrs[e - 1]
            if last[0] not in _ENDS:
                self.ins[s], self.term[s] = instrs[s:e], None
                raw[s] = [e]
                continue
            self.ins[s], self.term[s] = instrs[s:e - 1], last
            self.term_pc[s] = e - 1
            op = last[0]
            if op == "jmp":
                raw[s] = [last[1]]
            elif op == "jz":        # truthy: fall through
                raw[s] = [e, last[2]]
            elif op in ("jnz", "fastloop"):  # fastloop ran: skip
                raw[s] = [last[2], e]
            else:
                raw[s] = []
        self.ins[n], self.term[n] = [], ("ret_none",)
        raw[n] = []

        def resolve(b: int) -> int:
            seen = set()
            while (b != n and b not in seen and not self.ins[b]
                   and self.term[b] is not None
                   and self.term[b][0] == "jmp"):
                seen.add(b)
                b = raw[b][0]
            return b

        self.entry = resolve(0) if n else n
        self.succs: dict[int, list[int]] = {}
        seen = {self.entry}
        stack = [self.entry]
        while stack:  # reachable blocks, each visited once
            b = stack.pop()
            ss = self.succs[b] = [resolve(t) for t in raw[b]]
            for t in ss:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        self.preds: dict[int, list[int]] = {b: [] for b in self.succs}
        for b, ss in self.succs.items():
            for t in ss:
                self.preds[t].append(b)
        for b in sorted(self.succs):
            if b not in self.succs:
                continue  # absorbed
            while True:
                ss = self.succs[b]
                if len(ss) != 1 or (self.term[b] or ("jmp",))[0] != "jmp":
                    break
                t = ss[0]
                if t in (b, n, self.entry) or len(self.preds[t]) != 1:
                    break
                self.ins[b] = list(self.ins[b]) + list(self.ins[t])
                self.term[b] = self.term[t]
                if t in self.term_pc:
                    self.term_pc[b] = self.term_pc[t]
                else:
                    self.term_pc.pop(b, None)
                self.succs[b] = self.succs.pop(t)
                del self.preds[t]
                for u in self.succs[b]:
                    self.preds[u] = [b if p == t else p
                                     for p in self.preds[u]]
        self.nodes = list(self.succs)
        self._orders()

    def _orders(self) -> None:
        post: list[int] = []
        seen = {self.entry}
        stack = [(self.entry, 0)]
        while stack:
            b, i = stack.pop()
            ss = self.succs[b]
            if i < len(ss):
                stack.append((b, i + 1))
                t = ss[i]
                if t not in seen:
                    seen.add(t)
                    stack.append((t, 0))
            else:
                post.append(b)
        self.rpo = {b: i for i, b in enumerate(reversed(post))}
        order = sorted(self.rpo, key=self.rpo.get)
        idom = {self.entry: self.entry}
        rpo = self.rpo

        def meet(a: int, b: int) -> int:
            while a != b:
                while rpo[a] > rpo[b]:
                    a = idom[a]
                while rpo[b] > rpo[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for b in order[1:]:
                ps = [p for p in self.preds[b] if p in idom]
                new = ps[0]
                for p in ps[1:]:
                    new = meet(new, p)
                if idom.get(b) != new:
                    idom[b] = new
                    changed = True
        self.idom = idom
        self.kids: dict[int, list[int]] = {b: [] for b in order}
        for b in order[1:]:
            self.kids[idom[b]].append(b)

    def dominates(self, a: int, b: int) -> bool:
        while True:
            if a == b:
                return True
            if b == self.entry:
                return False
            b = self.idom[b]

    def loops(self) -> dict[int, set[int]]:
        """Natural loop bodies by header; raises on irreducible flow."""
        bodies: dict[int, set[int]] = {}
        for b in self.nodes:
            for t in self.succs[b]:
                if self.rpo[t] > self.rpo[b]:
                    continue
                if not self.dominates(t, b):
                    raise _Refused("irreducible control flow")
                body = bodies.setdefault(t, {t})
                stack = [b]
                while stack:
                    x = stack.pop()
                    if x not in body:
                        body.add(x)
                        stack.extend(self.preds[x])
        return bodies


# -- statement tree (Ramsey's dominator-tree emission) ------------------------


class _Frame:
    """One enclosing construct of an emitted statement: an ``if``, a
    loop (``node`` its header, ``follow`` the exit emitted after it) or
    a block (``node`` the join emitted after it).  ``pyloop`` marks a
    Python ``while``; ``dispatch`` holds the flagged exits leaving it."""

    __slots__ = ("kind", "node", "follow", "pyloop", "dispatch")

    def __init__(self, kind: str, node=None, follow=None):
        self.kind = kind
        self.node = node
        self.follow = follow
        self.pyloop = kind == "loop"
        self.dispatch: dict[int, tuple] = {}


_IF = _Frame("if")


def _falls_out(crossed: tuple) -> bool:
    """Does falling off the end of the innermost arm reach the end of
    the target construct's body?"""
    return all(f.kind == "if" for f in crossed)


def _tail_break(target: _Frame, mode: str, crossed: tuple) -> bool:
    """May a plain ``break`` take this branch?  It may when the one
    construct crossed that is not an ``if`` is a loop with no follow:
    nothing comes after such a loop, so leaving it falls out to the end
    of the target's body — the join after a block, or the next
    iteration of a loop (but not a loop's follow)."""
    other = [f for f in crossed if f.kind != "if"]
    return (len(other) == 1 and other[0].kind == "loop"
            and other[0].follow is None
            and not (mode == "exit" and target.kind == "loop"))


class _Builder:
    """Turns the dominator tree into nested statements (lists of
    ``("code", b)``, ``("if", b, then, else)``, ``("loop", frame,
    body)``, ``("block", frame, body)``, ``("br", frame, mode, ctx)``
    and ``("ret", b)``)."""

    def __init__(self, g: _Graph, has_code: dict[int, bool]):
        self.g = g
        self.has_code = has_code
        self.bodies = g.loops()
        fwd = {b: 0 for b in g.nodes}
        for b in g.nodes:
            for t in g.succs[b]:
                if g.rpo[t] > g.rpo[b]:
                    fwd[t] += 1
        self.merge = {b for b, k in fwd.items() if k >= 2}
        # Each loop's follow: the exit emitted right after it, chosen
        # among the header's dominator-tree children outside the loop
        # (the earliest in reverse postorder, so no other exit of the
        # header branches back to it).
        self.follow: dict[int, int | None] = {}
        for h, body in self.bodies.items():
            outside = [k for k in g.kids[h] if k not in body]
            self.follow[h] = min(outside, key=g.rpo.get, default=None)
        self.follows = {f for f in self.follow.values() if f is not None}

    def tree(self, x: int, ctx: list) -> list:
        """The statements of the dominator subtree of ``x``.

        Every statement list is filled by this loop, not by recursion,
        so building them needs the same stack however long or deeply
        nested the function is.  A job ``step(out)`` fills its list and
        returns a tail ``(node, ctx)`` or None; a tail (the join after a
        block, the follow after a loop, a lone successor) extends the
        same list.  Jobs are independent: a branch only marks frames
        that emission reads afterwards."""
        self._jobs: list = []
        top = self._seq(lambda out: (x, ctx))
        while self._jobs:
            out, step = self._jobs.pop()
            tail = step(out)
            while tail is not None:
                tail = self._tree(*tail, out)
        return top

    def _seq(self, step) -> list:
        """A statement list that the job ``step`` fills later."""
        out: list = []
        self._jobs.append((out, step))
        return out

    def _tree(self, x: int, ctx: list, out: list):
        g = self.g
        merges = sorted((k for k in g.kids[x]
                         if k in self.merge and k not in self.follows),
                        key=g.rpo.get, reverse=True)
        if x not in self.bodies:
            return self._within(x, merges, ctx, out)
        # A loop: the joins inside it nest in its body; the joins among
        # its exits wrap the loop and its follow, and come after both.
        body = self.bodies[x]
        fr = _Frame("loop", x, self.follow[x])
        inner = [k for k in merges if k in body]

        def core(c: list, o: list):
            o.append(("loop", fr, self._seq(
                lambda o2: self._within(x, inner, c + [fr], o2))))
            return None if fr.follow is None else (fr.follow, c)
        return self._blocks([k for k in merges if k not in body], ctx,
                            core, out)

    def _blocks(self, ys: list, ctx: list, core, out: list):
        """``Block(ys[0]) { ... Block(ys[-1]) { core } ys[-1] ... }
        ys[0]``: each join follows the blocks nested inside it."""
        if not ys:
            return core(ctx, out)
        fr = _Frame("block", ys[0])
        out.append(("block", fr, self._seq(
            lambda o: self._blocks(ys[1:], ctx + [fr], core, o))))
        return ys[0], ctx

    def _within(self, x: int, ys: list, ctx: list, out: list):
        return self._blocks(ys, ctx, lambda c, o: self._node(x, c, o), out)

    def _node(self, x: int, ctx: list, out: list):
        if self.has_code[x]:
            out.append(("code", x))
        term = self.g.term[x]
        succs = self.g.succs[x]
        if term is not None and term[0] in ("ret", "ret_none"):
            out.append(("ret", x))
            return None
        if len(succs) == 1:
            return self._branch(x, succs[0], ctx, out)
        inner = ctx + [_IF]
        out.append(("if", x,
                    self._seq(lambda o: self._branch(x, succs[0], inner, o)),
                    self._seq(lambda o: self._branch(x, succs[1], inner, o))))
        return None

    def _branch(self, src: int, dst: int, ctx: list, out: list):
        g = self.g
        if g.rpo[dst] <= g.rpo[src]:
            out.append(self._br(ctx, "cont", lambda f: f.kind == "loop"
                                and f.node == dst))
        elif dst in self.follows:
            out.append(self._br(ctx, "exit", lambda f: f.kind == "loop"
                                and f.follow == dst))
        elif dst in self.merge:
            out.append(self._br(ctx, "exit", lambda f: f.kind == "block"
                                and f.node == dst))
        else:
            return dst, ctx
        return None

    def _br(self, ctx: list, mode: str, match) -> tuple:
        for k in range(len(ctx) - 1, -1, -1):
            if match(ctx[k]):
                fr = ctx[k]
                crossed = tuple(ctx[k + 1:])
                # A join reached from inside any construct but an ``if``
                # (or a loop it can break out of) cannot be reached by
                # falling out: make it a loop.
                if fr.kind == "block" and not _falls_out(crossed) \
                        and not _tail_break(fr, mode, crossed):
                    fr.pyloop = True
                return ("br", fr, mode, crossed)
        raise _Refused("branch target outside its construct")


# -- per-function code generation --------------------------------------------


class _Emitter:
    def __init__(self, code: Code):
        self.code = code
        self.instrs = code.instrs
        self.nparams = len(code.params)
        g = self.g = _Graph(code)
        self.tslots: dict[int, int] = {}
        self.plans: list = []
        self.plan_at: dict[int, int] = {}
        for i, ins in enumerate(self.instrs):
            if ins[0] == "spawn" and ins[1] is not None:
                self.tslots.setdefault(ins[1], len(self.tslots))
            elif ins[0] == "fastloop":
                self.plan_at[i] = len(self.plans)
                self.plans.append(ins[1])
        self.binds: dict[str, str] = {}   # factory line per bound name
        self.fids: dict[tuple, int] = {}  # flagged exit ids
        self._spills: dict[int, tuple] = {}
        self._summaries()
        self._liveness()
        self._typing()
        self.blocks = {b: self._block(b) for b in g.nodes}

    # -- analyses -------------------------------------------------------------

    def _plan_slots(self, ins: tuple) -> tuple[list, list]:
        """(slots spilled before the plan, slots it writes)."""
        plan = ins[1]
        slots = self._spills.get(id(plan))
        if slots is None:
            ws = sorted(getattr(plan, "write_slots", ()) or ())
            rs = set(getattr(plan, "read_slots", ()) or ())
            slots = self._spills[id(plan)] = (sorted(rs.union(ws)), ws)
        return slots

    def _summaries(self) -> None:
        """Per block: the (reads, write) of each instruction, terminator
        included (a plan reads its spilled slots), and the slots read
        before any write (``gen``) and written (``kill``)."""
        g = self.g
        self.seq: dict[int, list] = {}
        self.gen: dict[int, set] = {}
        self.kill: dict[int, set] = {}
        for b in g.nodes:
            seq = [(reads(ins), dest(ins)) for ins in g.ins[b]]
            t = g.term[b]
            if t is not None and b != g.n:
                seq.append((tuple(self._plan_slots(t)[0])
                            if t[0] == "fastloop" else reads(t), None))
            gb, kb = set(), set()
            for rs, d in seq:
                gb.update(r for r in rs if r not in kb)
                if d is not None:
                    kb.add(d)
            self.seq[b], self.gen[b], self.kill[b] = seq, gb, kb

    def _liveness(self) -> None:
        g = self.g
        live_in = {b: set() for b in g.nodes}
        order = sorted(g.nodes, key=g.rpo.get, reverse=True)
        changed = True
        while changed:
            changed = False
            for b in order:
                out = set()
                for t in g.succs[b]:
                    out |= live_in[t]
                new = self.gen[b] | (out - self.kill[b])
                if new != live_in[b]:
                    live_in[b] = new
                    changed = True
        self.live_out = {b: set().union(*(live_in[t] for t in g.succs[b]))
                         for b in g.nodes}

    def _typing(self) -> None:
        """Forward must-analyses: slots surely holding an ``int``, and
        slots surely written, at each block's entry."""
        g = self.g
        rpo = g.rpo
        ints_in: dict[int, set | None] = {b: None for b in g.nodes}
        asg_in: dict[int, set | None] = {b: None for b in g.nodes}
        ints_in[g.entry] = set()
        asg_in[g.entry] = set(range(1, self.nparams + 1))
        work = {g.entry}
        while work:
            b = min(work, key=rpo.get)
            work.discard(b)
            ints = set(ints_in[b])
            for ins in g.ins[b]:
                self._retype(ins, ints)
            asg = asg_in[b] | self.kill[b]
            t = g.term[b]
            for k, succ in enumerate(g.succs[b]):
                si, sa = ints, asg
                if t is not None and t[0] == "fastloop" and k == 0:
                    ws = self._plan_slots(t)[1]
                    si, sa = ints.difference(ws), asg.union(ws)
                if ints_in[succ] is None:
                    ints_in[succ], asg_in[succ] = set(si), set(sa)
                    work.add(succ)
                else:
                    ni, na = ints_in[succ] & si, asg_in[succ] & sa
                    if ni != ints_in[succ] or na != asg_in[succ]:
                        ints_in[succ], asg_in[succ] = ni, na
                        work.add(succ)
        self.ints_in = ints_in
        # Slots read where some path has not written them start as None.
        self.need_init: set[int] = set()
        for b in g.nodes:
            if not self.gen[b] <= asg_in[b]:
                asg = set(asg_in[b])
                for rs, d in self.seq[b]:
                    self.need_init.update(r for r in rs if r not in asg)
                    if d is not None:
                        asg.add(d)

    def _retype(self, ins: tuple, ints: set) -> None:
        """Update the proven-``int`` slots past ``ins``.  A ``spawn``
        target is never proven: the task writes it (with any value the
        callee returns) without a ``dest``."""
        d = dest(ins)
        if d is not None:
            if d not in self.tslots and _int_result(ins, ints):
                ints.add(d)
            else:
                ints.discard(d)

    # -- names ----------------------------------------------------------------

    def name(self, slot: int) -> str:
        k = self.tslots.get(slot)
        return f"r{slot}" if k is None else f"T[{k}]"

    def bind(self, name: str, line: str) -> str:
        """A name the factory binds once per VM (``line`` its value)."""
        self.binds.setdefault(name, line)
        return name

    def method(self, method: str) -> str:
        line = f"getattr(vm, {method!r})"
        for name, bound in self.binds.items():
            if bound == line:
                return name
        k = sum(1 for bound in self.binds.values()
                if bound.startswith("getattr"))
        return self.bind(f"m{k}", line)

    # -- one block ------------------------------------------------------------

    def _block(self, b: int) -> tuple[list, str | None, list]:
        """(statements, branch test, statements opening the taken arm)
        of block ``b``."""
        g = self.g
        instrs = g.ins[b]
        term = g.term[b] if b != g.n else None
        ints = set(self.ints_in[b] or ())
        subst: dict[int, str] = {}
        lines: list[str] = []
        test = None

        def R(slot: int) -> str:
            lit = subst.pop(slot, None)
            return self.name(slot) if lit is None else lit

        def I(slot: int) -> str:  # noqa: E743 - mirrors R
            return R(slot) if slot in ints else f"int({R(slot)})"

        # The comparison feeding the branch, when its slot dies there.
        fold = (term is not None and term[0] in ("jz", "jnz") and instrs
                and instrs[-1][0] in _CMP and instrs[-1][1] == term[1]
                and term[1] not in self.live_out[b]
                and term[1] not in self.tslots)
        for j, ins in enumerate(instrs):
            op = ins[0]
            if op == "const" and self._forwardable(b, instrs, j, fold):
                text = literal(ins[2])
                subst[ins[1]] = f"({text})" if text[0] == "-" else text
            elif fold and j == len(instrs) - 1:
                test = f"{R(ins[2])} {op} {R(ins[3])}"
                break
            else:
                lines.extend(self._stmt(ins, R, I))
            self._retype(ins, ints)
        taken: list[str] = []
        if term is not None and term[0] in ("jz", "jnz") and test is None:
            test = R(term[1])
        elif term is not None and term[0] == "fastloop":
            k = self.plan_at[g.term_pc[b]]
            spill, ws = self._plan_slots(term)
            lines.extend(f"fr[{slot}] = {self.name(slot)}" for slot in spill)
            trips = self.bind(f"trips{k}", f"plans[{k}].trip_count")
            run = self.bind(f"run{k}", f"plans[{k}].run")
            lines.append(f"_n = {trips}(fr)")
            test = (f"(_n is None or not _n < _lf.MIN_TRIP) "
                    f"and {run}(fr, vm.stats)")
            taken = [f"{self.name(slot)} = fr[{slot}]" for slot in ws]
        return lines, test, taken

    def _forwardable(self, b: int, instrs: list, j: int, fold: bool) -> bool:
        """May ``const`` ``instrs[j]`` be written into its reader: one
        read, in a value position of one later instruction of the block,
        and no read after that (not by the terminator, not past the
        block)?"""
        d = instrs[j][1]
        if d in self.tslots:
            return False
        reader = None
        for k in range(j + 1, len(instrs)):
            ins = instrs[k]
            n = reads(ins).count(d)
            if n:
                if reader is not None or n > 1:
                    return False
                reader = k
            if dest(ins) == d:
                break
        else:
            term = self.g.term[b]
            if d in self.live_out[b] or (
                    term is not None and b != self.g.n and d in (
                        self._plan_slots(term)[0]
                        if term[0] == "fastloop" else reads(term))):
                return False
        if reader is None:
            return False
        ins = instrs[reader]
        if fold and reader == len(instrs) - 1:
            positions = (2, 3)
        else:
            positions = _VALUE_POSITIONS.get(ins[0], ())
        return any(ins[p] == d for p in positions)

    def _stmt(self, ins: tuple, R, I) -> list[str]:
        op = ins[0]
        if op in ("rt_setf", "rt_seti"):
            val = f"f32({R(ins[3])})" if op == "rt_setf" else I(ins[3])
            idx = I(ins[2])
            return [f"{R(ins[1])}.data[{idx}] = {val}"]
        if op in ("rc_inc", "rc_dec"):
            fn = self.bind(op[3:], f"vm._{op}")
            return [f"{fn}({R(ins[1])})"]
        if op == "sync":
            return [f"{self.bind('sync', 'vm._sync')}()"]
        if op == "pool":
            fn = self.bind("pool", "vm._pool_run")
            caps = ", ".join(R(r) for r in ins[3])
            return [f"{fn}({ins[1]!r}, {I(ins[2])}, [{caps}])"]
        if op == "spawn":
            fn = self.bind("spawn", "vm._spawn")
            args = ", ".join(R(r) for r in ins[3])
            if ins[1] is None:
                return [f"{fn}(None, {ins[2]!r}, [{args}], None)"]
            return [f"{fn}({self.tslots[ins[1]]}, {ins[2]!r}, [{args}], T)"]
        if op == "intr":
            value = "{}({})".format(self.method(ins[2]),
                                    ", ".join(R(r) for r in ins[3]))
        elif op == "call":
            fn = self.bind("call", "vm.call_function")
            args = ", ".join(R(r) for r in ins[3])
            value = f"{fn}({ins[2]!r}, [{args}])"
        elif op in _EXPR_OPS:
            value = expr(ins, R, I)
        else:
            raise _Refused(f"unknown opcode {op!r}")
        return [f"{self.name(ins[1])} = {value}"]

    # -- statements -----------------------------------------------------------

    def source(self) -> str:
        g = self.g
        has_code = {b: bool(self.blocks[b][0]) for b in g.nodes}
        tree = _Builder(g, has_code).tree(g.entry, [])
        body: list[str] = []
        self._emit(tree, 2, body)
        params = ", ".join(f"r{i}" for i in range(1, self.nparams + 1))
        lines = ["def _factory(vm, plans):"]
        lines.extend(f"    {name} = {line}"
                     for name, line in self.binds.items())
        lines.append(f"    def _fn({params}):")
        prologue = []
        inits = sorted(s for s in self.need_init if s not in self.tslots)
        if inits:
            prologue.append(" = ".join(f"r{s}" for s in inits) + " = None")
        if self.tslots:
            prologue.append(f"T = [None] * {len(self.tslots)}")
            prologue.extend(f"T[{k}] = r{slot}"
                            for slot, k in self.tslots.items()
                            if 1 <= slot <= self.nparams)
        if self.plans:
            prologue.append(f"fr = [None] * {self.code.nregs}")
        if self.fids:
            prologue.append("_x = 0")
        lines.extend("        " + p for p in prologue)
        lines.extend(body)
        lines.append("    return _fn")
        return "\n".join(lines) + "\n"

    def _emit(self, stmts: list, level: int, out: list) -> None:
        pad = "    " * level
        for st in stmts:
            kind = st[0]
            if kind == "code":
                out.extend(pad + line for line in self.blocks[st[1]][0])
            elif kind == "ret":
                t = self.g.term[st[1]]
                value = self.name(t[1]) if t[0] == "ret" else "None"
                out.append(f"{pad}return {value}")
            elif kind == "if":
                self._emit_if(st, level, out)
            elif kind == "loop":
                self._emit_loop(st[1], st[2], level, out)
            elif kind == "block" and st[1].pyloop:
                out.append(f"{pad}while True:")
                self._emit(st[2], level + 1, out)
                if out[-1] != f"{pad}    break":
                    out.append(f"{pad}    break")
                self._emit_dispatch(st[1], level, out)
            elif kind == "block":
                self._emit(st[2], level, out)
            else:
                out.extend(pad + line for line in self._br(*st[1:]))

    def _emit_if(self, st: tuple, level: int, out: list) -> None:
        pad = "    " * level
        kw = "if"
        while True:
            _, b, then, other = st
            _, test, taken = self.blocks[b]
            then_lines = [f"{pad}    {line}" for line in taken]
            self._emit(then, level + 1, then_lines)
            if not then_lines and kw == "if":
                # Only the other arm acts: test the negation.
                test, then_lines, other = f"not ({test})", [], []
                self._emit(st[3], level + 1, then_lines)
            out.append(f"{pad}{kw} {test}:")
            out.extend(then_lines or [f"{pad}    pass"])
            if len(other) != 1 or other[0][0] != "if":
                break
            st, kw = other[0], "elif"
        else_lines: list[str] = []
        self._emit(other, level + 1, else_lines)
        if else_lines:
            out.append(f"{pad}else:")
            out.extend(else_lines)

    def _emit_loop(self, fr: _Frame, body: list, level: int,
                   out: list) -> None:
        pad = "    " * level
        head, rest = "while True:", body
        # ``while test:`` when the body is one branch one of whose arms
        # leaves the loop directly.
        if len(body) == 1 and body[0][0] == "if" \
                and not self.blocks[body[0][1]][2]:
            _, b, then, other = body[0]
            test = self.blocks[b][1]
            leave = ("br", fr, "exit", (_IF,))
            if other == [leave]:
                head, rest = f"while {test}:", then
            elif then == [leave]:
                head, rest = f"while not ({test}):", other
        out.append(pad + head)
        inner: list[str] = []
        self._emit(rest, level + 1, inner)
        out.extend(inner or [f"{pad}    pass"])
        self._emit_dispatch(fr, level, out)

    def _emit_dispatch(self, fr: _Frame, level: int, out: list) -> None:
        """After a Python loop: route the flagged exits that left it."""
        pad = "    " * level
        for fid, (target, mode, crossed) in fr.dispatch.items():
            out.append(f"{pad}if _x == {fid}:")
            out.extend(f"{pad}    {line}"
                       for line in self._br(target, mode, crossed, fid))

    def _br(self, target: _Frame, mode: str, crossed: tuple,
            fid: int | None = None) -> list[str]:
        """A branch to ``target`` (``cont``: its header; ``exit``: the
        code after it) from inside the frames ``crossed``."""
        out = [] if fid is None else ["_x = 0"]
        if _tail_break(target, mode, crossed):
            return out + ["break"]
        loops = [k for k, f in enumerate(crossed) if f.pyloop]
        if loops:
            # Leave the innermost Python loop with a flag; the loop's
            # dispatch takes the branch from outside it.
            crossed_from = crossed[:loops[-1]]
            if fid is not None:  # still in flight: ``_x`` is set
                crossed[loops[-1]].dispatch.setdefault(
                    fid, (target, mode, crossed_from))
                return ["break"]
            fid = self.fids.setdefault((id(target), mode),
                                       len(self.fids) + 1)
            crossed[loops[-1]].dispatch.setdefault(
                fid, (target, mode, crossed_from))
            return [f"_x = {fid}", "break"]
        if mode == "cont":
            return out + ["continue"]
        if target.pyloop:
            return out + ["break"]
        return out  # falls out of the enclosing ``if`` arms


# -- cache and entry point ----------------------------------------------------

#: Compiled factories kept process-wide (least recently used evicted).
#: The e2e workloads bind at most 13 distinct keys per process
#: (serve-mix), and a factory holds 4-12 KB, so 512 keeps forty such
#: working sets of a daemon's traffic within a few MB.
CACHE_SIZE = 512

_cache: OrderedDict = OrderedDict()
_cache_lock = threading.Lock()


def _fresh_lock_after_fork() -> None:
    # A forked shard or serve worker must not inherit the lock held by
    # a thread that does not exist in the child.
    global _cache_lock
    _cache_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_after_fork)


def _key(code: Code) -> tuple:
    out = [code.nregs, len(code.params)]
    k = 0
    for ins in code.instrs:
        op = ins[0]
        if op == "fastloop":
            plan = ins[1]
            out.append((op, k, tuple(sorted(getattr(plan, "read_slots", ())
                                            or ())),
                        tuple(sorted(getattr(plan, "write_slots", ())
                                     or ())), ins[2]))
            k += 1
        elif op == "const":
            v = ins[2]
            out.append((op, ins[1], literal(v)))
        else:
            out.append(ins)
    return tuple(out)


def generate(code: Code) -> str:
    """The Python source of one function's factory (``reproc disasm
    --spec`` prints it); raises :class:`_Refused` when the function
    cannot be structured."""
    return _Emitter(code).source()


def _source(code: Code) -> tuple[str, object]:
    """``(source, code object)`` of one function's factory, or
    ``(None, reason)`` when it cannot be structured or CPython refuses
    it (more than 20 nested loops, 100 levels of indentation).

    ``RecursionError`` and ``MemoryError`` propagate: how deep code
    generation and CPython's compiler may recurse depends on the
    caller's stack (a function binds at its first call, possibly deep
    inside a recursive program), so that refusal is not the code's."""
    try:
        src = generate(code)
    except _Refused as why:
        return None, str(why)
    try:
        return src, builtins.compile(src, "<compiled>", "exec")
    except SyntaxError as err:
        return None, f"CPython refused it: {err.msg}"


def _build(code: Code):
    """Compile one factory; the refusal reason (a string) on failure."""
    src, obj = _source(code)
    if src is None:
        return obj
    ns = dict(_GLOBALS)
    exec(obj, ns)  # noqa: S102 - source built from the table above
    return ns["_factory"]


def _transient(err: BaseException) -> str:
    return f"compiling ran out of stack or memory ({type(err).__name__})"


def listing(code: Code) -> str:
    """What the VM runs for ``code`` (``reproc disasm --spec``): its
    compiled source, or why it runs on the closure stream."""
    try:
        src, reason = _source(code)
    except (RecursionError, MemoryError) as err:
        src, reason = None, _transient(err)
    if src is None:
        return f"# {code.name}: closure stream ({reason})"
    return src.rstrip("\n")


def compiled(code: Code, vm):
    """The compiled function of ``code`` bound to ``vm`` (call it with
    the arguments), or the reason it runs on the closure stream."""
    try:
        key = _key(code)
    except _Refused as why:
        return str(why)
    with _cache_lock:
        factory = _cache.get(key)
        if factory is not None:
            _cache.move_to_end(key)
    if factory is None:
        try:
            factory = _build(code)
        except (RecursionError, MemoryError) as err:
            return _transient(err)  # not cached: the next bind retries
        with _cache_lock:
            _cache[key] = factory
            while len(_cache) > CACHE_SIZE:
                _cache.popitem(last=False)
    if isinstance(factory, str):
        return factory
    plans = [ins[1] for ins in code.instrs if ins[0] == "fastloop"]
    return factory(vm, plans)
