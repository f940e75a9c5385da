"""SSA well-formedness verifier for the TAC mid-level IR (S30).

The pipeline's structural ``_verify`` checks the *emitted bytecode*;
nothing checked the IR in between, so a pass that broke SSA form (a
duplicated definition, a use hoisted above its def, a phi left behind
after an edge was retargeted) surfaced only as a wrong answer or a
linearizer crash several passes later.  :func:`verify_fn` pins the
invariants every pass relies on:

* **CFG shape** — every reachable block ends in a terminator with the
  right successor count (``jmp`` 1, ``jz``/``jnz``/``fastloop`` 2,
  ``ret``/``ret_none`` 0), edges are symmetric (``succs``/``preds``
  agree), and targets exist;
* **reducibility** — every edge that closes a cycle enters a block that
  dominates its source, so each loop has one entry.  The compiled
  functions (:mod:`repro.cexec.pyfunc`) structure every reducible CFG
  into ``while``/``if`` and run anything else on the closure stream;
  structured C lowers to reducible flow, and no pass may break that;
* **single definition** — no SSA value is defined by two instructions;
* **def dominates use** — straight-line uses see their def earlier in
  the same block or in a strict dominator; a phi's *k*-th operand is a
  use at the end of its *k*-th predecessor;
* **phi arity** — a phi's operand list is exactly as long as its
  recorded predecessor list, which matches the block's actual preds
  (the multiset, so a shared ``jz`` target with both edges from one
  block still verifies).

``undef`` (vid 0) and parameter values (vids 1..nparams) are defined
at entry and dominate everything.  The verifier runs between every
pass when ``REPRO_IR_STRICT`` is set (the tests/ir suites run it
unconditionally) and costs one linear scan plus the dominator tree the
function already computes for its passes.
"""

from __future__ import annotations

from repro.ir.tac import TACFunc, TERMINATORS, Value

#: Ops that never define a value even when ``dest`` is still set
#: (nop-ed instructions keep their old dest field).
_NON_DEFS = frozenset(["nop"] + sorted(TERMINATORS))

_SUCC_COUNT = {"jmp": 1, "jz": 2, "jnz": 2, "fastloop": 2,
               "ret": 0, "ret_none": 0}


class VerifyError(AssertionError):
    """An IR invariant does not hold; the message names the pass that
    just ran (``where``), the block, and the offending instruction."""


def _fail(where: str, fn: TACFunc, bid, msg: str) -> None:
    tag = f" after {where}" if where else ""
    raise VerifyError(f"IR verify failed{tag} in '{fn.name}' B{bid}: {msg}")


def verify_fn(fn: TACFunc, *, where: str = "") -> None:
    """Check ``fn``; raises :class:`VerifyError` on the first violation.

    Works on SSA-form functions (Value operands).  Pre-SSA / post-
    destruction functions (int slot operands) get the CFG checks only.
    """
    reachable = set(fn.rpo())
    if fn.entry not in fn.blocks:
        _fail(where, fn, fn.entry, "entry block missing")

    # -- CFG shape -----------------------------------------------------------
    for bid in reachable:
        b = fn.blocks[bid]
        if b.term is None:
            _fail(where, fn, bid, "reachable block has no terminator")
        op = b.term.op
        if op not in TERMINATORS:
            _fail(where, fn, bid, f"terminator op {op!r} is not a terminator")
        want = _SUCC_COUNT[op]
        if len(b.succs) != want:
            _fail(where, fn, bid,
                  f"{op} expects {want} successor(s), has {len(b.succs)}")
        for s in b.succs:
            if s not in fn.blocks:
                _fail(where, fn, bid, f"successor B{s} does not exist")
            if b.bid not in fn.blocks[s].preds:
                _fail(where, fn, bid,
                      f"edge to B{s} missing from its preds")
        for p in b.preds:
            if p not in fn.blocks or b.bid not in fn.blocks[p].succs:
                _fail(where, fn, bid,
                      f"pred B{p} does not list this block as a successor")

    check_reducible(fn, where=where)

    # -- SSA form ------------------------------------------------------------
    ssa = any(isinstance(i.dest, Value) or
              any(isinstance(a, Value) for a in i.args)
              for bid in reachable for i in fn.blocks[bid].instrs)
    if not ssa:
        return

    nparams = len(fn.params)
    defs: dict[int, tuple[int, int]] = {}  # vid -> (block, instr index)
    for bid in reachable:
        for idx, ins in enumerate(fn.blocks[bid].instrs):
            if ins.op in _NON_DEFS or not isinstance(ins.dest, Value):
                continue
            vid = ins.dest.vid
            if vid in defs:
                _fail(where, fn, bid,
                      f"value v{vid} defined twice "
                      f"(also in B{defs[vid][0]})")
            defs[vid] = (bid, idx)

    idom = fn.dominators()

    def entry_defined(vid: int) -> bool:
        return vid <= nparams  # undef (0) and parameters

    def check_use(v, use_bid: int, use_idx: int | None, what: str) -> None:
        if not isinstance(v, Value):
            return
        if entry_defined(v.vid):
            return
        site = defs.get(v.vid)
        if site is None:
            _fail(where, fn, use_bid,
                  f"{what} uses v{v.vid} which has no definition")
        dbid, didx = site
        if dbid == use_bid:
            if use_idx is not None and didx >= use_idx:
                _fail(where, fn, use_bid,
                      f"{what} uses v{v.vid} before its definition")
        elif not fn.dominates(idom, dbid, use_bid):
            _fail(where, fn, use_bid,
                  f"{what} uses v{v.vid} whose def in B{dbid} does "
                  f"not dominate")

    for bid in reachable:
        b = fn.blocks[bid]
        for idx, ins in enumerate(b.instrs):
            if ins.op == "phi":
                preds = list(ins.extra["preds"])
                if len(ins.args) != len(preds):
                    _fail(where, fn, bid,
                          f"phi has {len(ins.args)} operand(s) for "
                          f"{len(preds)} recorded predecessor(s)")
                if sorted(preds) != sorted(b.preds):
                    _fail(where, fn, bid,
                          f"phi preds {sorted(preds)} != block preds "
                          f"{sorted(b.preds)}")
                for k, (arg, p) in enumerate(zip(ins.args, preds)):
                    # a phi operand is a use at the end of its pred
                    check_use(arg, p, None, f"phi operand {k}")
            elif ins.op != "nop":
                for a in ins.args:
                    check_use(a, bid, idx, f"'{ins.op}'")
        if b.term is not None:
            for a in b.term.args:
                check_use(a, bid, None, f"terminator '{b.term.op}'")


def check_reducible(fn: TACFunc, *, where: str = "") -> None:
    """Raise :class:`VerifyError` unless every retreating edge of a
    depth-first order (one into a block no later in reverse postorder)
    enters a block that dominates its source."""
    order = fn.rpo()
    index = {b: i for i, b in enumerate(order)}
    idom = fn.dominators()
    for bid in order:
        for s in fn.blocks[bid].succs:
            if index[s] <= index[bid] and not fn.dominates(idom, s, bid):
                _fail(where, fn, bid,
                      f"irreducible: edge to B{s} enters a cycle through "
                      f"a block that does not dominate it")


def verify_all(fns, *, where: str = "") -> None:
    """Verify a batch of functions (tests/ir convenience)."""
    for fn in fns:
        verify_fn(fn, where=where)
