"""Optimizing passes over the SSA-form TAC (S28).

The pipeline runs, per function::

    dvnt -> jump_thread -> licm -> strength_reduce -> dvnt -> dce   (-O2)
    dvnt -> dce                                                     (-O1)

* :func:`dvnt` — dominator-tree value numbering: constant folding with
  the VM's exact semantics (``c_div``/``c_mod`` trapping, float32-
  narrowed literals, C comparison results), copy propagation, global
  CSE of pure ops, and block-local CSE of ``rt_getf``/``rt_geti`` loads
  behind a memory-epoch counter;
* :func:`jump_thread` — branches decided by a constant become jumps,
  and a predecessor whose phi contribution decides a phi-only block's
  branch jumps straight to the decided target.  Lowered short-circuit
  ``&&``/``||`` produce exactly this shape (the "condition false" arm
  feeds ``const 0`` into the merge phi), so threading turns the
  condition diamond into straight-line dominance — which is what lets
  the second :func:`dvnt` run CSE *across* the former merge point;
* :func:`licm` — loop-invariant code motion into the preheaders decode
  created, restricted to the ``SPECULATABLE`` ops (never traps, never
  observes memory), so a zero-trip loop stays unobservably different;
* :func:`strength_reduce` — affine index arithmetic ``iv * k`` over a
  basic induction variable becomes its own induction variable (phi +
  one add on the back edge), via the shared canonical affine forms of
  :mod:`repro.ir.affine`;
* :func:`dce` — mark/sweep over SSA uses; only ``PURE`` instructions
  may be deleted (a dead *trapping* instruction — ``x / 0`` whose
  result is unused — still traps in the reference semantics and is
  kept).

Trap preservation is structural: folding executes the op's own runtime
semantics and refuses to fold when it raises; CSE merges a computation
only into a dominating occurrence (the survivor traps first or neither
does); LICM speculates only never-trapping ops; DCE keeps every
possibly-trapping or effectful instruction.  ``spawn`` results are
*poisoned*: the VM writes a spawned call's result cell asynchronously
(any moment up to the ``sync``), so instructions reading one are never
folded, merged, hoisted, or deleted — they execute exactly where the
unoptimized program executed them.
"""

from __future__ import annotations

import numpy as np

from repro.cexec.interp import c_div, c_mod

from repro.ir.tac import (
    BINOPS, EFFECTS, Instr, LOADS, PURE, SPECULATABLE, TACFunc, Value,
)

_COMMUTATIVE = frozenset(["+", "*", "==", "!="])

#: Ops whose result is always an exact Python int 0/1 in the VM, so
#: ``bool`` of one is a bit-exact identity (see the opcode closures in
#: :mod:`repro.cexec.vm`).
_BOOLEAN = frozenset(["<", "<=", ">", ">=", "==", "!=", "not", "bool"])

_FOLD = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": c_div,
    "%": c_mod,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "neg": lambda a: -a,
    "not": lambda a: int(not a),
    "bool": lambda a: int(bool(a)),
    "cast_int": lambda a: int(a),
    "cast_f32": lambda a: float(np.float32(a)),
    "move": lambda a: a,
}


def poisoned_values(fn: TACFunc) -> set[int]:
    """vids whose frame cell the VM may rewrite asynchronously."""
    return {ins.dest.vid for b in fn.blocks.values() for ins in b.instrs
            if ins.op == "spawn" and ins.dest is not None}


def _def_map(fn: TACFunc) -> dict[int, Instr]:
    return {ins.dest.vid: ins for b in fn.blocks.values()
            for ins in b.instrs if isinstance(ins.dest, Value)}


class _Canon:
    """Union-find-ish value replacement map with path compression."""

    def __init__(self):
        self.repl: dict[int, Value] = {}

    def resolve(self, v: Value) -> Value:
        r = self.repl.get(v.vid)
        if r is None:
            return v
        root = self.resolve(r)
        self.repl[v.vid] = root
        return root

    def alias(self, v: Value, to: Value) -> None:
        self.repl[v.vid] = to

    def sweep(self, fn: TACFunc) -> None:
        """Rewrite every remaining use through the replacement map."""
        if not self.repl:
            return
        for b in fn.blocks.values():
            for ins in b.instrs:
                ins.args = [self.resolve(a) if isinstance(a, Value) else a
                            for a in ins.args]
            if b.term is not None:
                b.term.args = [self.resolve(a) if isinstance(a, Value) else a
                               for a in b.term.args]


def _const_key(v) -> tuple:
    return (type(v).__name__, repr(v))


def dvnt(fn: TACFunc, counts, poisoned: set[int]) -> None:
    """Dominator-tree value numbering: fold + copy-prop + CSE."""
    idom = fn.dominators()
    tree = fn.dom_tree(idom)
    canon = _Canon()
    consts: dict[int, object] = {}     # vid -> known constant value
    defops: dict[int, str] = {}        # vid -> defining op (post-fold)
    scopes: list[dict] = [{}]

    def lookup(key):
        for sc in reversed(scopes):
            if key in sc:
                return sc[key]
        return None

    def visit(bid: int) -> None:
        scopes.append({})
        b = fn.blocks[bid]
        loads: dict = {}               # block-local load table
        epoch = 0
        for ins in b.instrs:
            op = ins.op
            if op == "phi":
                continue               # back-edge args resolved in sweep
            ins.args = [canon.resolve(a) if isinstance(a, Value) else a
                        for a in ins.args]
            dirty = any(isinstance(a, Value) and a.vid in poisoned
                        for a in ins.args)
            if op in EFFECTS:
                epoch += 1
            if dirty or ins.dest is None:
                continue
            d = ins.dest

            # -- constant folding (exact runtime semantics) ----------------
            if op == "const":
                consts[d.vid] = ins.extra
            elif op in _FOLD and all(isinstance(a, Value)
                                     and a.vid in consts
                                     for a in ins.args):
                try:
                    with np.errstate(all="ignore"):  # silent inf, as in C
                        val = _FOLD[op](*[consts[a.vid] for a in ins.args])
                except Exception:
                    val = _SENTINEL    # trapping fold: leave it in place
                if val is not _SENTINEL:
                    ins.op, ins.args, ins.extra = "const", [], val
                    op = "const"
                    consts[d.vid] = val
                    counts["fold"] += 1
            defops[d.vid] = op

            # -- algebraic identity: bool of a 0/1-valued op is it ---------
            if op == "bool":
                a = ins.args[0]
                if isinstance(a, Value) and defops.get(a.vid) in _BOOLEAN \
                        and a.vid not in poisoned:
                    canon.alias(d, a)
                    ins.op, ins.args = "nop", []
                    counts["fold"] += 1
                    continue

            # -- copy propagation ------------------------------------------
            if op == "move":
                src = ins.args[0]
                if isinstance(src, Value) and src.vid not in poisoned:
                    canon.alias(d, src)
                    ins.op, ins.args = "nop", []
                    counts["copyprop"] += 1
                continue

            # -- algebraic identity: x * 1 (int) is x ----------------------
            if op == "*":
                for i_, j_ in ((0, 1), (1, 0)):
                    a = ins.args[i_]
                    if isinstance(a, Value) and consts.get(a.vid) is not None \
                            and type(consts[a.vid]) is int \
                            and consts[a.vid] == 1:
                        other = ins.args[j_]
                        if isinstance(other, Value) \
                                and other.vid not in poisoned:
                            canon.alias(d, other)
                            ins.op, ins.args = "nop", []
                            counts["fold"] += 1
                        break
                if ins.op == "nop":
                    continue

            # -- block-local load CSE --------------------------------------
            if op in LOADS:
                key = (op, epoch) + tuple(
                    a.vid if isinstance(a, Value) else ("l", a)
                    for a in ins.args)
                prior = loads.get(key)
                if prior is not None:
                    canon.alias(d, prior)
                    ins.op, ins.args = "nop", []
                    counts["cse"] += 1
                else:
                    loads[key] = d
                continue

            # -- global CSE over pure values -------------------------------
            if op in PURE:
                vids = tuple(a.vid if isinstance(a, Value) else ("l", a)
                             for a in ins.args)
                if op in _COMMUTATIVE:
                    vids = tuple(sorted(vids, key=repr))
                key = (op, _const_key(ins.extra) if op == "const"
                       else ins.extra, vids)
                prior = lookup(key)
                if prior is not None:
                    canon.alias(d, prior)
                    ins.op, ins.args, ins.extra = "nop", [], None
                    counts["cse"] += 1
                else:
                    scopes[-1][key] = d
        if b.term is not None:
            b.term.args = [canon.resolve(a) if isinstance(a, Value) else a
                           for a in b.term.args]
        for kid in tree.get(bid, ()):
            visit(kid)
        scopes.pop()

    _deep_recursion(fn, lambda: visit(fn.entry))
    canon.sweep(fn)


_SENTINEL = object()


def _deep_recursion(fn: TACFunc, thunk) -> None:
    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, len(fn.blocks) * 6 + 200))
    try:
        thunk()
    finally:
        sys.setrecursionlimit(old)


# -- jump threading ----------------------------------------------------------


def _use_blocks(fn: TACFunc) -> dict[int, set[int]]:
    """vid -> block ids with at least one use (instr args or term args)."""
    uses: dict[int, set[int]] = {}
    for b in fn.blocks.values():
        for ins in b.instrs:
            for a in ins.args:
                if isinstance(a, Value):
                    uses.setdefault(a.vid, set()).add(b.bid)
        if b.term is not None:
            for a in b.term.args:
                if isinstance(a, Value):
                    uses.setdefault(a.vid, set()).add(b.bid)
    return uses


def jump_thread(fn: TACFunc, counts, poisoned: set[int]) -> None:
    """Resolve branches that are decided before they are reached.

    Two rewrites, iterated to a fixpoint:

    * a ``jz``/``jnz`` whose condition is a known constant becomes an
      unconditional jump (the dead edge's phi operands are dropped);
    * a *phi-only* block ``S`` branching on one of its own phis lets
      every predecessor that feeds the phi a constant jump directly to
      the target that constant decides, bypassing ``S``.

    The second rewrite is what dissolves lowered short-circuit
    ``&&``/``||`` diamonds: the early-exit arm feeds ``const 0``/``1``
    into the merge phi, so after threading it the surviving arm
    *dominates* the join and the follow-up :func:`dvnt` can CSE the
    condition's subexpressions with the body's.

    Threading ``P -> T`` is only legal when nothing defined in ``S`` is
    live into ``T``: we require every phi of ``S`` to be used inside
    ``S`` only, and ``T`` to carry no phis (so the new edge needs no
    operands).  Blocks cut off by rewrites are deleted, and phis left
    with a single predecessor decay to ``move``s for copy propagation.
    """

    def decide(term_op: str, succs, c) -> int:
        jump = not bool(c) if term_op == "jz" else bool(c)
        return succs[0] if jump else succs[1]

    # each rewrite removes an edge or a conditional branch, so the
    # fixpoint is bounded by CFG size; the range is a defensive cap.
    for _round in range(len(fn.blocks) * 4 + 32):
        changed = False
        defm = _def_map(fn)
        uses = _use_blocks(fn)
        reachable = set(fn.rpo())
        for sid in sorted(reachable, key=lambda b: fn.blocks[b].key):
            S = fn.blocks[sid]
            t = S.term
            if t is None or t.op not in ("jz", "jnz"):
                continue
            cond = t.args[0]
            if not isinstance(cond, Value) or cond.vid in poisoned:
                continue
            cd = defm.get(cond.vid)
            if cd is None:
                continue

            # -- constant condition: fold the branch -----------------------
            if cd.op == "const":
                tgt = decide(t.op, S.succs, cd.extra)
                other = S.succs[1] if tgt == S.succs[0] else S.succs[0]
                S.term = Instr("jmp")
                S.succs = [tgt]
                if other != tgt:
                    for phi in fn.blocks[other].phis():
                        if sid in phi.extra["preds"]:
                            k = phi.extra["preds"].index(sid)
                            del phi.args[k]
                            del phi.extra["preds"][k]
                counts["thread"] += 1
                changed = True
                continue

            # -- phi condition: thread constant-contributing preds ---------
            if cd.op != "phi" or cd not in S.instrs:
                continue
            if any(i.op not in ("phi", "nop") for i in S.instrs):
                continue
            phis = S.phis()
            if any(uses.get(p.dest.vid, set()) - {sid} for p in phis):
                continue
            for k, pbid in enumerate(cd.extra["preds"]):
                arg = cd.args[k]
                ad = defm.get(arg.vid) if isinstance(arg, Value) else None
                if ad is None or ad.op != "const":
                    continue
                P = fn.blocks.get(pbid)
                if P is None or pbid not in reachable \
                        or P.succs.count(sid) != 1:
                    continue
                tgt = decide(t.op, S.succs, ad.extra)
                if tgt == sid or any(fn.blocks[tgt].phis()):
                    continue
                P.succs[P.succs.index(sid)] = tgt
                for phi in phis:
                    j = phi.extra["preds"].index(pbid)
                    del phi.args[j]
                    del phi.extra["preds"][j]
                counts["thread"] += 1
                changed = True
                break      # maps are stale; re-derive before the next one
            if changed:
                break
        if not changed:
            break

    # -- cleanup: drop cut-off blocks, decay single-pred phis to moves -----
    live = set(fn.rpo())
    for bid in list(fn.blocks):
        if bid not in live:
            del fn.blocks[bid]
    fn.compute_preds()
    for b in fn.blocks.values():
        for ins in b.instrs:
            if ins.op != "phi":
                continue
            kept = [(p, a) for p, a in zip(ins.extra["preds"], ins.args)
                    if p in live]
            if len(kept) == 1:
                ins.op, ins.args, ins.extra = "move", [kept[0][1]], None
            elif len(kept) < len(ins.args):
                ins.extra["preds"] = [p for p, _ in kept]
                ins.args = [a for _, a in kept]


# -- loop infrastructure -----------------------------------------------------


def _loops_with_preheaders(fn: TACFunc):
    """(header, body, preheader, latches) for every natural loop that
    has the dedicated preheader decode promised, innermost first."""
    idom = fn.dominators()
    out = []
    for header, body in fn.natural_loops(idom):
        h = fn.blocks[header]
        outside = [p for p in h.preds if p not in body]
        latches = [p for p in h.preds if p in body]
        if len(outside) == 1 and len(fn.blocks[outside[0]].succs) == 1:
            out.append((header, body, outside[0], latches))
    return out


def _def_blocks(fn: TACFunc) -> dict[int, int]:
    return {ins.dest.vid: b.bid for b in fn.blocks.values()
            for ins in b.instrs if isinstance(ins.dest, Value)}


def licm(fn: TACFunc, counts, poisoned: set[int]) -> None:
    """Hoist never-trapping pure instructions whose operands are defined
    outside the loop into its preheader.  Processes loops innermost
    first, so an invariant chain bubbles as far out as it is invariant."""
    loops = _loops_with_preheaders(fn)
    defb = _def_blocks(fn)
    rpo = fn.rpo()
    for header, body, pre_bid, _latches in loops:
        pre = fn.blocks[pre_bid]

        def invariant(a) -> bool:
            if not isinstance(a, Value):
                return True
            return defb.get(a.vid) not in body    # params/undef: no def

        changed = True
        while changed:
            changed = False
            for bid in rpo:
                if bid not in body:
                    continue
                blk = fn.blocks[bid]
                kept = []
                for ins in blk.instrs:
                    if ins.op in SPECULATABLE and ins.dest is not None \
                            and not any(isinstance(a, Value)
                                        and a.vid in poisoned
                                        for a in ins.args) \
                            and all(invariant(a) for a in ins.args):
                        pre.instrs.append(ins)
                        defb[ins.dest.vid] = pre_bid
                        counts["licm"] += 1
                        changed = True
                    else:
                        kept.append(ins)
                blk.instrs = kept


def strength_reduce(fn: TACFunc, counts, poisoned: set[int]) -> None:
    """``d = iv * k`` (k loop-invariant) becomes a derived induction
    variable: one preheader multiply plus an add on the back edge,
    replacing the per-iteration multiply.  Affine recognition goes
    through :mod:`repro.ir.affine` so the IR and the loopfast
    vectorizer agree on what "affine in the induction variable" means."""
    from repro.ir.affine import ssa_affine_mul

    defm = _def_map(fn)
    defb = _def_blocks(fn)
    canon = _Canon()
    for header, body, pre_bid, latches in _loops_with_preheaders(fn):
        if len(latches) != 1:
            continue
        latch = fn.blocks[latches[0]]
        h = fn.blocks[header]
        pre = fn.blocks[pre_bid]

        def invariant(a) -> bool:
            if not isinstance(a, Value):
                return False
            return defb.get(a.vid) not in body

        # basic IVs: phi(init from pre, upd from latch) with upd = phi +- c
        basics: dict[int, tuple[Value, Value, Value, int]] = {}
        for phi in h.instrs:
            if phi.op != "phi":
                break
            preds = phi.extra["preds"]
            if sorted(preds) != sorted([pre_bid, latches[0]]):
                continue
            init = phi.args[preds.index(pre_bid)]
            upd = phi.args[preds.index(latches[0])]
            if not isinstance(upd, Value) or upd.vid not in defm:
                continue
            u = defm[upd.vid]
            if u.op not in ("+", "-") or defb.get(upd.vid) not in body:
                continue
            step = None
            sign = 1
            if isinstance(u.args[0], Value) \
                    and u.args[0].vid == phi.dest.vid \
                    and invariant(u.args[1]):
                step, sign = u.args[1], (1 if u.op == "+" else -1)
            elif u.op == "+" and isinstance(u.args[1], Value) \
                    and u.args[1].vid == phi.dest.vid \
                    and invariant(u.args[0]):
                step, sign = u.args[0], 1
            if step is not None and isinstance(init, Value):
                basics[phi.dest.vid] = (init, step, phi.dest, sign)

        if not basics:
            continue
        for bid in sorted(body):
            for ins in fn.blocks[bid].instrs:
                if ins.op != "*" or ins.dest is None:
                    continue
                if any(isinstance(a, Value) and a.vid in poisoned
                       for a in ins.args):
                    continue
                m = ssa_affine_mul(ins, basics, invariant)
                if m is None:
                    continue
                iv_vid, k = m
                init, step, phi_v, sign = basics[iv_vid]
                # preheader: d0 = init * k ; incr = step * k (negated
                # for a down-counting iv)
                d0 = fn.new_value()
                pre.instrs.append(Instr("*", d0, (init, k)))
                incr = fn.new_value()
                pre.instrs.append(Instr("*", incr, (step, k)))
                if sign < 0:
                    n2 = fn.new_value()
                    pre.instrs.append(Instr("neg", n2, (incr,)))
                    incr = n2
                dphi = fn.new_value()
                dnext = fn.new_value()
                args = [None, None]
                preds = [pre_bid, latches[0]]
                hp = list(h.preds)
                phi_args = [d0 if p == pre_bid else dnext for p in hp]
                h.instrs.insert(0, Instr(
                    "phi", dphi, phi_args, {"slot": None, "preds": hp}))
                latch.instrs.append(Instr("+", dnext, (dphi, incr)))
                defb[dphi.vid] = header
                defb[dnext.vid] = latches[0]
                defb[d0.vid] = pre_bid
                canon.alias(ins.dest, dphi)
                ins.op, ins.args = "nop", []
                counts["strength"] += 1
    canon.sweep(fn)


def dce(fn: TACFunc, counts) -> None:
    """Mark/sweep dead code elimination.  Roots: effects, terminator
    operands, and anything not provably pure; only ``PURE``/``phi``/
    ``nop``/``flacc`` instructions may disappear."""
    defm = _def_map(fn)
    live: set[int] = set()
    work: list[Value] = []

    def mark(a) -> None:
        if isinstance(a, Value) and a.vid not in live:
            live.add(a.vid)
            work.append(a)

    removable = PURE | {"phi", "flacc"}
    for b in fn.blocks.values():
        for ins in b.instrs:
            if ins.op == "nop":
                continue
            if ins.op not in removable:
                for a in ins.args:
                    mark(a)
                if ins.dest is not None:
                    live.add(ins.dest.vid)
        if b.term is not None:
            for a in b.term.args:
                mark(a)
    while work:
        v = work.pop()
        ins = defm.get(v.vid)
        if ins is None:
            continue
        for a in ins.args:
            mark(a)
    for b in fn.blocks.values():
        kept = []
        for ins in b.instrs:
            if ins.op == "nop":
                continue
            if ins.op in removable and ins.dest is not None \
                    and ins.dest.vid not in live:
                counts["dce"] += 1
                continue
            kept.append(ins)
        b.instrs = kept
