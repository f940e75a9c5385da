"""Compiler: lowered (plain-C) host trees -> flat register bytecode.

The tree-walking interpreter pays for its generality on every single
evaluation step: dict-chain ``Scope`` lookups per variable reference,
exception-based ``break``/``continue``/``return``, a fresh float32
narrowing per ``floatLit`` visit, and string dispatch on production
names.  This module pays all of those costs *once*, at compile time:

* variables are resolved to **frame slots** (plain list indices) — block
  scoping and shadowing are a compile-time affair, slots of dead blocks
  are reused;
* control flow becomes **jump offsets** into a flat instruction array;
* constants are **pooled**: float literals are narrowed through float32
  exactly once, at compile time;
* every ``rt_*`` / refcount / tuple / I/O intrinsic is resolved to a
  direct opcode (the hottest — ``rt_getf``/``rt_setf``/``rt_geti``/
  ``rt_seti``/``rt_dim``/``rt_size`` — get dedicated opcodes with no
  argument-list packing at all).

Instructions are symbolic tuples ``(op, operands...)`` — easy to test
and disassemble; the VM (:mod:`repro.cexec.vm`) binds them to closures
("threaded code") for dispatch.  Innermost loops additionally get a
guarded numpy fast path (:mod:`repro.cexec.loopfast`) attached as a
``fastloop`` instruction in front of the scalar loop they shadow.

Frame layout: slot 0 is the return value, parameters occupy slots
1..len(params), locals and expression temporaries follow.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.ag.tree import Node
from repro.cexec.interp import InterpError, RTRuntime, _zero_of
from repro.cminus.absyn import node_cons_to_list

# Binary operators with a dedicated opcode (same spelling as the source
# operator); "&&"/"||" compile to jumps instead (short-circuit).
_BINOP_OPS = frozenset(
    ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="])

# Hot intrinsics that get dedicated opcodes instead of generic "intr".
_HOT_INTRINSICS = frozenset(
    ["rt_getf", "rt_setf", "rt_geti", "rt_seti", "rt_dim", "rt_size"])

# Opcodes whose operand 1 is a synchronously-written destination slot —
# the producers ``emit_move`` may retarget when folding a move-chain.
# ``spawn`` is excluded (its target slot is written asynchronously);
# ``rt_setf``/``rt_seti`` operand 1 is a source, not a dest.
_DEST_OPS = frozenset(
    ["const", "move", "neg", "not", "bool", "cast_int", "cast_f32",
     "rt_getf", "rt_geti", "rt_dim", "rt_size", "intr", "call",
     "tuple", "tget"]) | _BINOP_OPS

# -- parallel-eligibility hazards (S23/S25) ----------------------------------
#
# The fork-join pool may only move code off the owning thread when doing
# so cannot change observable behavior.  Eligibility is decided at
# compile time by an interprocedural hazard fixpoint; since S25 that
# analysis lives in :mod:`repro.analysis.parsafety` (where `reproc
# check --explain-parallel` can also *explain* every refusal), and this
# module consumes its verdicts.  The hazard vocabulary is re-exported
# here for compatibility with S23-era callers.

from repro.analysis.hazards import (  # noqa: F401  (re-exported API)
    ALL_HAZARDS, H_IO, H_POOL, H_PRINT, H_RC, H_SPAWN, H_TRAP,
    PROCESS_BLOCKERS as _PROCESS_BLOCKERS,
    SHARD_BLOCKERS as _SHARD_BLOCKERS, TASK_BLOCKERS as _TASK_BLOCKERS,
    TRAP_OPS as _TRAP_OPS,
)


@dataclass
class Code:
    """One compiled function: a flat instruction array plus frame info."""

    name: str
    params: list[str]
    nregs: int = 0
    instrs: list[tuple] = field(default_factory=list)

    def dis(self) -> str:
        """Human-readable disassembly (tests, debugging)."""
        lines = [f"{self.name}({', '.join(self.params)})  nregs={self.nregs}"]
        for i, ins in enumerate(self.instrs):
            op, *args = ins
            if op == "fastloop":
                plan = args[0]
                args = [f"<plan {plan.label}: {len(plan.steps)} steps>",
                        args[1]]
            elif op == "si":
                # A fused superinstruction: render its constituents (and
                # which intermediate writes were elided) on one line.
                parts, dead = args
                shown = []
                for part, dd in zip(parts, dead):
                    text = "{} {}".format(
                        part[0], ", ".join(map(repr, part[1:])))
                    shown.append(f"[{text}]*" if dd else f"[{text}]")
                lines.append(f"  {i:4d}  {'si':10s} {' '.join(shown)}")
                continue
            lines.append(
                f"  {i:4d}  {op:10s} {', '.join(map(repr, args))}")
        return "\n".join(lines)


class _FnCompiler:
    """Compiles one function body to a :class:`Code`."""

    def __init__(self, name: str, params: list[str],
                 proven_guards: frozenset = frozenset()):
        # rt_bounds_check call nodes (by id) the S25 interval fixpoint
        # proved can never fire; they compile to the rt_bounds_ok
        # counter bump instead of the comparing intrinsic.
        self.proven_guards = proven_guards
        self.code = Code(name, params)
        self.instrs = self.code.instrs
        self.scopes: list[dict[str, int]] = [{}]
        self.top = 1  # slot 0 = return value
        self.max_top = 1
        self.loops: list[tuple[list[int], list[int]]] = []  # (breaks, continues)
        # Every position some jump may land on (recorded at patch time
        # and at loop-header capture).  ``emit_move`` may only fold a
        # move into its producer when no jump can enter between the two.
        self.jump_marks: set[int] = set()
        for p in params:
            self.declare(p)

    # -- slots ---------------------------------------------------------------

    def alloc(self) -> int:
        s = self.top
        self.top += 1
        if self.top > self.max_top:
            self.max_top = self.top
        return s

    def declare(self, name: str) -> int:
        s = self.alloc()
        self.scopes[-1][name] = s
        return s

    def lookup(self, name: str) -> int | None:
        for sc in reversed(self.scopes):
            if name in sc:
                return sc[name]
        return None

    def slot(self, name: str) -> int:
        s = self.lookup(name)
        if s is None:
            raise InterpError(f"undefined variable {name!r}")
        return s

    # -- emission ------------------------------------------------------------

    def emit(self, *ins) -> int:
        self.instrs.append(ins)
        return len(self.instrs) - 1

    def here(self) -> int:
        return len(self.instrs)

    def patch(self, at: int, target: int) -> None:
        ins = self.instrs[at]
        self.instrs[at] = ins[:-1] + (target,)
        self.jump_marks.add(target)

    def mark(self, at: int) -> int:
        """Record a position captured as a jump target (loop headers)."""
        self.jump_marks.add(at)
        return at

    def emit_move(self, dst: int, r: int, save: int) -> None:
        """Emit ``move dst, r`` — or fold it away by retargeting the
        producer (S28 follow-up: kills the compiler's redundant
        move-chains at generation time instead of in copyprop).

        The fold is legal when the producer of ``r`` is the immediately
        preceding instruction, ``r`` is an expression temp (``>= save``,
        so nothing else reads it later), and no jump can land between
        producer and move (a short-circuit join, say, would then skip
        the removed move and leave ``dst`` unwritten on one path)."""
        if dst == r:
            return
        if r >= save and self.instrs and self.here() not in self.jump_marks:
            last = self.instrs[-1]
            if last[0] in _DEST_OPS and last[1] == r:
                self.instrs[-1] = (last[0], dst) + last[2:]
                return
        self.emit("move", dst, r)

    # -- statements ----------------------------------------------------------

    def stmt(self, node: Node) -> None:
        p = node.prod
        ch = node.children
        if p == "block":
            self.scopes.append({})
            save = self.top
            for s in node_cons_to_list(ch[0]):
                self.stmt(s)
            self.top = save
            self.scopes.pop()
        elif p == "seqStmt":
            for s in node_cons_to_list(ch[0]):
                self.stmt(s)
        elif p == "decl":
            self.emit("const", self.declare(ch[1]), _zero_of(ch[0]))
        elif p == "declInit":
            save = self.top
            r = self.expr(ch[2])
            self.top = save
            dst = self.declare(ch[1])
            self.emit_move(dst, r, save)
        elif p == "exprStmt":
            save = self.top
            self.expr(ch[0])
            self.top = save
        elif p == "ifStmt":
            save = self.top
            c = self.expr(ch[0])
            self.top = save
            j = self.emit("jz", c, -1)
            self.stmt(ch[1])
            self.patch(j, self.here())
        elif p == "ifElse":
            save = self.top
            c = self.expr(ch[0])
            self.top = save
            j_else = self.emit("jz", c, -1)
            self.stmt(ch[1])
            j_end = self.emit("jmp", -1)
            self.patch(j_else, self.here())
            self.stmt(ch[2])
            self.patch(j_end, self.here())
        elif p == "whileStmt":
            top = self.mark(self.here())
            save = self.top
            c = self.expr(ch[0])
            self.top = save
            j_exit = self.emit("jz", c, -1)
            self.loops.append(([j_exit], []))
            self.stmt(ch[1])
            self.emit("jmp", top)
            breaks, continues = self.loops.pop()
            for at in continues:
                self.patch(at, top)
            end = self.here()
            for at in breaks:
                self.patch(at, end)
        elif p == "doWhile":
            top = self.mark(self.here())
            self.loops.append(([], []))
            self.stmt(ch[0])
            cond_at = self.here()
            save = self.top
            c = self.expr(ch[1])
            self.top = save
            self.emit("jnz", c, top)
            breaks, continues = self.loops.pop()
            for at in continues:
                self.patch(at, cond_at)
            end = self.here()
            for at in breaks:
                self.patch(at, end)
        elif p == "forStmt":
            self.stmt_for(node)
        elif p == "returnStmt":
            save = self.top
            r = self.expr(ch[0])
            self.top = save
            self.emit("ret", r)
        elif p == "returnVoid":
            self.emit("ret_none")
        elif p == "breakStmt":
            if not self.loops:
                raise InterpError("break outside loop in lowered code")
            self.loops[-1][0].append(self.emit("jmp", -1))
        elif p == "continueStmt":
            if not self.loops:
                raise InterpError("continue outside loop in lowered code")
            self.loops[-1][1].append(self.emit("jmp", -1))
        elif p == "rawStmt":
            text = ch[0].strip()
            if not text.startswith("#pragma"):
                raise InterpError(f"cannot interpret raw statement {text!r}")
        else:
            raise InterpError(f"cannot interpret statement {p!r}")

    def stmt_for(self, node: Node) -> None:
        ch = node.children
        # Guarded numpy fast path: analyzed against the *enclosing* scope
        # (the loop variable is not a frame slot on the fast path).  On a
        # guard failure at runtime the instruction falls through into the
        # scalar loop compiled right behind it.
        from repro.cexec.loopfast import try_fast_loop

        plan = try_fast_loop(self, node)
        fl_at = self.emit("fastloop", plan, -1) if plan is not None else None

        self.scopes.append({})
        outer_top = self.top
        init = ch[0]
        if init.prod == "forDecl":
            save = self.top
            r = self.expr(init.children[2])
            self.top = save
            dst = self.declare(init.children[1])
            self.emit_move(dst, r, save)
        else:
            save = self.top
            self.expr(init.children[0])
            self.top = save
        top = self.mark(self.here())
        save = self.top
        c = self.expr(ch[1])
        self.top = save
        j_exit = self.emit("jz", c, -1)
        self.loops.append(([j_exit], []))
        self.stmt(ch[3])
        step_at = self.here()
        save = self.top
        self.expr(ch[2])
        self.top = save
        self.emit("jmp", top)
        breaks, continues = self.loops.pop()
        for at in continues:
            self.patch(at, step_at)
        end = self.here()
        for at in breaks:
            self.patch(at, end)
        self.top = outer_top
        self.scopes.pop()
        if fl_at is not None:
            self.patch(fl_at, end)

    # -- expressions ---------------------------------------------------------

    def expr(self, node: Node) -> int:
        """Compile an expression; returns the register holding its value
        (a variable's own slot when no copy is needed)."""
        p = node.prod
        ch = node.children
        if p == "intLit":
            d = self.alloc()
            self.emit("const", d, ch[0])
            return d
        if p == "floatLit":
            d = self.alloc()
            self.emit("const", d, float(np.float32(ch[0])))  # pooled once
            return d
        if p == "boolLit":
            d = self.alloc()
            self.emit("const", d, int(ch[0]))
            return d
        if p == "strLit":
            d = self.alloc()
            self.emit("const", d, ch[0])
            return d
        if p == "var":
            return self.slot(ch[0])
        if p == "rawExpr":
            if ch[0] == "NULL":
                d = self.alloc()
                self.emit("const", d, None)
                return d
            raise InterpError(f"cannot interpret raw expression {ch[0]!r}")
        if p == "binop":
            op = ch[0]
            if op in ("&&", "||"):
                return self.expr_shortcircuit(op, ch[1], ch[2])
            a = self.expr(ch[1])
            a = self.shield(a, ch[2])
            b = self.expr(ch[2])
            if op not in _BINOP_OPS:
                raise InterpError(f"cannot interpret operator {op!r}")
            d = self.alloc()
            self.emit(op, d, a, b)
            return d
        if p == "unop":
            v = self.expr(ch[1])
            d = self.alloc()
            self.emit("neg" if ch[0] == "-" else "not", d, v)
            return d
        if p == "assign":
            if ch[0].prod != "var":
                raise InterpError(
                    f"assignment target {ch[0].prod!r} in lowered code")
            save = self.top
            r = self.expr(ch[1])
            dst = self.slot(ch[0].children[0])
            self.emit_move(dst, r, save)
            return dst
        if p == "castE":
            v = self.expr(ch[1])
            kind = cast_kind(ch[0])
            if kind is None:  # pointer/struct casts are value-preserving
                return v
            d = self.alloc()
            self.emit("cast_int" if kind == "int" else "cast_f32", d, v)
            return d
        if p == "call":
            return self.expr_call(node)
        raise InterpError(f"cannot interpret expression {p!r}")

    def expr_shortcircuit(self, op: str, left: Node, right: Node) -> int:
        d = self.alloc()
        a = self.expr(left)
        j = self.emit("jz" if op == "&&" else "jnz", a, -1)
        b = self.expr(right)
        self.emit("bool", d, b)
        j_end = self.emit("jmp", -1)
        self.patch(j, self.here())
        self.emit("const", d, 0 if op == "&&" else 1)
        self.patch(j_end, self.here())
        return d

    def shield(self, reg: int, *later: Node) -> int:
        """Copy a variable's slot to a temp if a later operand may write
        it (an embedded assignment); plain data flow costs no move."""
        if any(n.count("assign") for n in later):
            d = self.alloc()
            self.emit("move", d, reg)
            return d
        return reg

    def arg_regs(self, argnodes: list[Node]) -> list[int]:
        regs = []
        for i, a in enumerate(argnodes):
            r = self.expr(a)
            regs.append(self.shield(r, *argnodes[i + 1:]))
        return regs

    def expr_call(self, node: Node) -> int:
        name = node.children[0]
        argnodes = node_cons_to_list(node.children[1])

        if name == "__rt_pool_run":
            fname = argnodes[0].children[0]
            total = self.expr(argnodes[1])
            caps = self.arg_regs(argnodes[2:])
            self.emit("pool", fname, total, tuple(caps))
            return self.none_reg()
        if name in ("__rt_spawn", "__rt_spawn_into"):
            into = name == "__rt_spawn_into"
            callee = argnodes[1].children[0]
            target = self.slot(argnodes[2].children[0]) if into else None
            args = self.arg_regs(argnodes[3:] if into else argnodes[2:])
            self.emit("spawn", target, callee, tuple(args))
            return self.none_reg()
        if name == "rt_sync":
            # A real instruction since S23: the VM waits here for tasks
            # it scheduled on the worker pool (elided tasks are already
            # complete, so with nthreads=1 this is a no-op).
            self.emit("sync")
            return self.none_reg()
        if name.startswith("__tuple_"):
            regs = self.arg_regs(argnodes)
            d = self.alloc()
            self.emit("tuple", d, tuple(regs))
            return d
        if name.startswith("__tget_"):
            idx = int(name[len("__tget_"):])
            src = self.expr(argnodes[0])
            d = self.alloc()
            self.emit("tget", d, src, idx)
            return d

        regs = self.arg_regs(argnodes)
        if name in _HOT_INTRINSICS:
            if name in ("rt_setf", "rt_seti"):
                self.emit(name, regs[0], regs[1], regs[2])
                return self.none_reg()
            d = self.alloc()
            self.emit(name, d, *regs)
            return d
        if name == "rc_inc" or name == "rc_dec":
            self.emit(name, regs[0])
            return self.none_reg()
        method = _INTRINSIC_METHODS.get(name)
        if method is not None:
            if method == "rt_bounds_check" and id(node) in self.proven_guards:
                method = "rt_bounds_ok"
            d = self.alloc()
            self.emit("intr", d, method, tuple(regs))
            return d
        d = self.alloc()
        self.emit("call", d, name, tuple(regs))
        return d

    def none_reg(self) -> int:
        d = self.alloc()
        self.emit("const", d, None)
        return d

    # -- assembly ------------------------------------------------------------

    def finish(self, body: Node) -> Code:
        self.stmt(body)
        self.code.nregs = self.max_top
        return self.code


def cast_kind(type_node: Node) -> str | None:
    """Compile-time resolution of :func:`repro.cexec.interp.cast_value`:
    ``"int"`` (truncating), ``"f32"`` (narrowing through float32), or
    ``None`` for value-preserving casts."""
    ctype = (type_node.children[0] if type_node.prod == "tRaw"
             else type_node.prod)
    if isinstance(ctype, str):
        ctype = ctype.strip()
    if ctype in ("tInt", "int", "long", "tBool", "tChar"):
        return "int"
    if ctype in ("tFloat", "float", "double"):
        return "f32"
    return None


def _intrinsic_methods() -> dict[str, str]:
    """Call name -> RTRuntime method name, resolved once at import time
    (the same resolution the tree-walker does per call via getattr)."""
    table = {
        "readMatrix": "_read_matrix",
        "writeMatrix": "_write_matrix",
        "printInt": "_print_int",
        "printFloat": "_print_float",
    }
    for attr in dir(RTRuntime):
        if attr.startswith("rt_"):
            table[attr] = attr
    return table


_INTRINSIC_METHODS = _intrinsic_methods()


def _discharged_guards(name: str, params: list[str], body: Node,
                       proven: frozenset | None = None) -> frozenset:
    """Ids of ``rt_bounds_check`` call nodes in ``body`` whose guard the
    S25 interval fixpoint proves passes on every path (lo >= 0 and
    hi <= dim for all concretizations) — typically the genarray guards
    over a result the same function just allocated with the generator's
    own shape.  ``proven`` is a set already computed by
    :func:`repro.analysis.shapes.check_shapes`; without one the fixpoint
    is solved here.  Best-effort: any analysis failure keeps every
    guard."""
    if proven is not None:
        return proven
    try:
        from repro.analysis.cfg import build_cfg
        from repro.analysis.shapes import proven_in_range

        return proven_in_range(build_cfg(name, params, body))
    except Exception:
        return frozenset()


def compile_function(name: str, params: list[str], body: Node, *,
                     proven: frozenset | None = None) -> Code:
    guards = _discharged_guards(name, params, body, proven)
    # Float literals narrow to float32 here and in plans: silent inf.
    with np.errstate(all="ignore"):
        return _FnCompiler(name, params, guards).finish(body)


class BytecodeProgram:
    """All functions of a lowered program, compiled on demand.

    Compilation is per-function and lazy (mirroring the tree-walker,
    which only ever faults on constructs it actually executes); compiled
    :class:`Code` is cached, so a program compiled once may be executed
    by many VMs.  The caches fill under one per-program lock, so threads
    sharing a program get exactly one :class:`Code` per function and
    ``opt_counts`` counts each compilation once; hits take no lock.
    """

    def __init__(self, lowered_root: Node, ctx):
        self.functions: dict[str, tuple[list[str], Node]] = {}
        for f in node_cons_to_list(lowered_root.children[0]):
            _rett, fname, params, body = f.children
            pnames = [p.children[1] for p in node_cons_to_list(params)]
            self.functions[fname] = (pnames, body)
        # Lifted pool workers run with their captures plus the chunk
        # bounds as ordinary parameters.  Cilk SpawnedFuncs carry no tree
        # body (spawned calls run inline) and are skipped.
        self.lifted_trees: dict[str, tuple[list[str], Node]] = {}
        self.lifted = list(getattr(ctx, "lifted", []))
        for lf in self.lifted:
            if hasattr(lf, "body"):
                names = [n for _t, n in lf.captures]
                self.lifted_trees[lf.name] = (names + ["__lo", "__hi"], lf.body)
        self._code: dict[str, Code] = {}
        self._lifted_code: dict[str, Code] = {}
        self._spec_code: dict[str, Code] = {}
        self._spec_lifted_code: dict[str, Code] = {}
        self._safety = None
        # Re-entrant: building ``safety`` compiles code through code_for.
        self._lock = threading.RLock()
        # Function name -> proven-in-range guard ids seeded by the S25
        # shapes pass (see seed_proven_guards).
        self._proven: dict[str, frozenset] = {}
        # Mid-level IR pipeline (S28): lowered trees are compiled to TAC
        # bytecode as before, then rewritten through SSA passes at the
        # context's opt level.  ``opt_counts`` accumulates per-pass
        # rewrite totals across all lazily-compiled functions; engines
        # copy it into InterpStats so ``--stats`` can show it.
        self.opt_level = int(getattr(
            getattr(ctx, "options", None), "opt_level", 2))
        self.opt_counts: dict[str, int] = {}

    def _optimize(self, code: Code) -> Code:
        if self.opt_level <= 0:
            return code
        from collections import defaultdict

        from repro.ir import optimize_code

        counts: dict[str, int] = defaultdict(int)
        out = optimize_code(code, self.opt_level, counts)
        for k, v in counts.items():
            self.opt_counts[k] = self.opt_counts.get(k, 0) + v
        return out

    def seed_proven_guards(self, proven: dict[str, frozenset]) -> None:
        """Record per-function proven-in-range guard sets (keyed like
        :func:`repro.analysis.cfg.function_cfgs`) for functions compiled
        from now on, so their bounds-guard elision reuses the fixpoint
        ``reproc check`` already solved."""
        with self._lock:
            self._proven.update(proven)

    def _memo(self, table: dict[str, Code], name: str, build) -> Code:
        """Fill ``table[name]`` exactly once across threads."""
        with self._lock:
            code = table.get(name)
            if code is None:
                code = table[name] = build(name)
        return code

    def _compile(self, trees: dict, name: str) -> Code:
        params, body = trees[name]
        return self._optimize(compile_function(
            name, params, body, proven=self._proven.get(name)))

    def code_for(self, name: str) -> Code:
        code = self._code.get(name)
        if code is None:
            if name not in self.functions:
                raise InterpError(f"call to unknown function {name!r}")
            code = self._memo(self._code, name,
                              lambda n: self._compile(self.functions, n))
        return code

    def lifted_code_for(self, name: str) -> Code:
        code = self._lifted_code.get(name)
        if code is None:
            code = self._memo(self._lifted_code, name,
                              lambda n: self._compile(self.lifted_trees, n))
        return code

    # -- dispatch specialization (S29) ---------------------------------------
    #
    # The fused stream is a *separate* memoized view over the optimized
    # bytecode: execution (and disassembly) consume it, while the hazard
    # and call-graph analyses keep scanning ``code_for`` — a fused "si"
    # tuple would hide its constituent traps/calls from them.

    def _specialize(self, code: Code) -> Code:
        from repro.cexec import superinstr

        out, fused = superinstr.fuse(code)
        if fused:
            self.opt_counts["superinstr"] = \
                self.opt_counts.get("superinstr", 0) + fused
        return out

    def spec_code_for(self, name: str) -> Code:
        code = self._spec_code.get(name)
        if code is None:
            code = self._memo(self._spec_code, name,
                              lambda n: self._specialize(self.code_for(n)))
        return code

    def spec_lifted_code_for(self, name: str) -> Code:
        code = self._spec_lifted_code.get(name)
        if code is None:
            code = self._memo(
                self._spec_lifted_code, name,
                lambda n: self._specialize(self.lifted_code_for(n)))
        return code

    # -- parallel eligibility (S23, shared analysis since S25) ---------------

    @property
    def safety(self):
        """The program's :class:`repro.analysis.parsafety.ParallelSafety`
        — the interprocedural hazard fixpoint over the shared call graph,
        built lazily and memoized so the VM's eligibility gate and the
        ``reproc check`` diagnostics consume one traversal."""
        if self._safety is None:
            from repro.analysis.parsafety import ParallelSafety

            with self._lock:
                if self._safety is None:
                    self._safety = ParallelSafety(self)
        return self._safety

    def lifted_parallel_safe(self, name: str) -> bool:
        """May this lifted pool-worker body run sharded across the worker
        pool?  True unless it (transitively) performs file I/O — the only
        effect whose cross-shard interleaving the shard-ordered merge of
        stats/stdout/traps cannot hide."""
        return self.safety.shard_safe(name)

    def task_parallel_safe(self, name: str) -> bool:
        """May a Cilk spawn of this function run as an off-thread pooled
        task instead of being elided inline?  Requires the whole call
        graph under it to be trap-free and free of ordered effects."""
        return self.safety.task_safe(name)

    def lifted_process_safe(self, name: str) -> bool:
        """May this lifted pool-worker body run in a *process* worker
        against shared-memory matrix copies (S27)?  Shard-safe, and no
        refcount op under it can reach a capture (a free in a child
        would not free the parent's matrix; shard-local ones may run)."""
        return self.safety.process_safe(name)

    def hazards_for(self, name: str, *, lifted: bool = False) -> frozenset:
        """Transitive hazard set of a function (or lifted worker body):
        a fixpoint over the static call graph, memoized per program."""
        return self.safety.hazards(("lifted" if lifted else "fn", name))
