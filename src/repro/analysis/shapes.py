"""Matrix shape & bounds analysis (S25 pass 2).

Forward interval propagation over the lowered trees: integer locals are
tracked as intervals, matrices as ``(kind, per-axis dimension
intervals, null-ness)`` descriptors seeded by the allocation and
``readMatrix`` intrinsics and refined by the rank/dimension guards the
matrix lowering already emits.  The pass then *statically evaluates*
every runtime guard and raw element access:

* ``rt_getf``/``rt_setf``/``rt_geti``/``rt_seti`` — flat index
  provably outside ``[0, size)``,
* ``rt_shape_check`` / ``rt_matmul_check`` / ``rt_require_dim`` /
  ``rt_bounds_check`` / ``rt_check_rank`` / ``rt_require_divisible`` —
  guard condition provably violated,
* ``rt_allocf``/``rt_alloci`` — provably negative dimension,
* any use of a matrix that is still provably NULL.

**Must-fail only**: a diagnostic is emitted only when *every*
concretization of the abstract state traps, so the pass reports errors
(these programs cannot run to completion) and is false-positive-free by
construction — over-approximation can only make it silent, never wrong.
Loops are handled by widening interval bounds to ±∞ after a few
iterations (:func:`repro.analysis.dataflow.solve`'s ``widen`` hook),
which trades loop-carried precision for termination; straight-line
constant shapes — the common case in matrix programs — stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import solve
from repro.cminus.absyn import node_cons_to_list
from repro.util.diagnostics import Diagnostics, SourceSpan

PHASE = "analysis.shape"

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    # Symbolic provenance: a variable (or ``m.dimK`` pseudo-variable)
    # this value is *exactly equal to* at run time, when one is known.
    # Two TOP intervals with the same sym are still provably equal —
    # which is how the genarray guard ``hi <= dim`` is discharged when
    # both sides load the same loop bound.  Arithmetic, joins of
    # mismatching syms, and rebinding of the named variable (see
    # ``_Pass.bind``) all drop the sym; dropping is always sound.
    sym: str | None = None

    def __post_init__(self):
        assert self.lo <= self.hi

    @property
    def constant(self) -> int | None:
        if self.lo == self.hi and math.isfinite(self.lo):
            return int(self.lo)
        return None

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi),
                        self.sym if self.sym == other.sym else None)

    def widen(self, newer: "Interval") -> "Interval":
        return Interval(-_INF if newer.lo < self.lo else self.lo,
                        _INF if newer.hi > self.hi else self.hi,
                        self.sym if self.sym == newer.sym else None)


TOP_I = Interval(-_INF, _INF)
BOOL_I = Interval(0, 1)


def _iv(v: int) -> Interval:
    return Interval(v, v)


def _mul_bound(a: float, b: float) -> float:
    if a == 0 or b == 0:  # interval product: 0 * inf contributes 0
        return 0
    return a * b


def iv_add(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo + b.lo, a.hi + b.hi)


def iv_sub(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo - b.hi, a.hi - b.lo)


def iv_mul(a: Interval, b: Interval) -> Interval:
    c = [_mul_bound(a.lo, b.lo), _mul_bound(a.lo, b.hi),
         _mul_bound(a.hi, b.lo), _mul_bound(a.hi, b.hi)]
    return Interval(min(c), max(c))


def iv_neg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def disjoint(a: Interval, b: Interval) -> bool:
    return a.hi < b.lo or b.hi < a.lo


@dataclass(frozen=True)
class MatVal:
    """Abstract matrix: element kind, per-axis dims, null-ness."""

    kind: str | None                       # "f" | "i" | None (unknown)
    dims: tuple[Interval, ...] | None      # None: unknown rank
    null: str = "no"                       # "yes" | "no" | "maybe"

    def join(self, other: "MatVal") -> "MatVal":
        kind = self.kind if self.kind == other.kind else None
        if (self.dims is not None and other.dims is not None
                and len(self.dims) == len(other.dims)):
            dims = tuple(a.join(b) for a, b in zip(self.dims, other.dims))
        else:
            dims = None
        null = self.null if self.null == other.null else "maybe"
        return MatVal(kind, dims, null)

    def widen(self, newer: "MatVal") -> "MatVal":
        if (self.dims is None or newer.dims is None
                or len(self.dims) != len(newer.dims)):
            return MatVal(newer.kind, None, newer.null)
        dims = tuple(a.widen(b) for a, b in zip(self.dims, newer.dims))
        return MatVal(newer.kind, dims, newer.null)

    def size(self) -> Interval:
        if self.dims is None:
            return Interval(0, _INF)
        acc = _iv(1)
        for d in self.dims:
            acc = iv_mul(acc, Interval(max(0, d.lo), d.hi))
        return acc


def fmt_interval(iv: Interval) -> str:
    c = iv.constant
    return str(c) if c is not None else "?"


def fmt_dims(m: MatVal) -> str:
    if m.dims is None:
        return "(?)"
    return "(" + ", ".join(fmt_interval(d) for d in m.dims) + ")"


# State: var name -> Interval | MatVal | ("tup", (vals...)).  A name
# missing from the state is TOP (unknown).


def _join_val(a, b):
    if isinstance(a, Interval) and isinstance(b, Interval):
        return a.join(b)
    if isinstance(a, MatVal) and isinstance(b, MatVal):
        return a.join(b)
    if (isinstance(a, tuple) and isinstance(b, tuple)
            and a[0] == b[0] == "tup" and len(a[1]) == len(b[1])):
        parts = tuple(
            _join_val(x, y) for x, y in zip(a[1], b[1]))
        if any(p is None for p in parts):
            return None
        return ("tup", parts)
    return None  # mismatched kinds -> TOP


def join_states(a: dict, b: dict) -> dict:
    out = {}
    for k, v in a.items():
        w = b.get(k)
        if w is None:
            continue
        j = _join_val(v, w)
        if j is not None:
            out[k] = j
    return out


def widen_states(old: dict, new: dict) -> dict:
    out = {}
    for k, v in new.items():
        w = old.get(k)
        if w is None:
            continue  # appeared late: give it up (ensures ascent)
        if isinstance(w, Interval) and isinstance(v, Interval):
            out[k] = w.widen(v)
        elif isinstance(w, MatVal) and isinstance(v, MatVal):
            out[k] = w.widen(v)
        # tuples and mismatches drop to TOP under widening
    return out


def _is_mat_type(type_node) -> bool:
    # "rt_mat *" yes; the mangled tuple types ("tup_rt_mat___i_i") no.
    return (type_node.prod == "tRaw"
            and str(type_node.children[0]).lstrip().startswith("rt_mat"))


def _real_span(span) -> bool:
    """Synthesized guard/temp nodes carry the default span; surface
    statements carry their original one."""
    if span is None:
        return False
    s = span.start
    return not (s.line == 1 and s.column == 0 and s.offset == 0)


def _find_span(node):
    """First real span in a (possibly rebuilt) subtree: rebuilt statement
    wrappers carry the default span, but surface sub-expressions keep
    their original ones."""
    if not hasattr(node, "prod"):
        return None
    if _real_span(getattr(node, "span", None)):
        return node.span
    for c in node.children:
        sp = _find_span(c)
        if sp is not None:
            return sp
    return None


class _Pass:
    def __init__(self, cfg: CFG, diags: Diagnostics | None):
        self.cfg = cfg
        self.diags = diags
        self.seen: set[tuple] = set()
        self.cur_span = None  # effective span of the item being replayed
        # ``rt_bounds_check`` call nodes (by identity) whose guard the
        # fixpoint proves can never fire: every concretization of the
        # (over-approximate) intervals satisfies lo >= 0 and hi <= dim.
        # Consumed by the bytecode compiler to discharge the guard
        # statically (:func:`proven_in_range`).
        self.proven: set[int] = set()

    # -- reporting -----------------------------------------------------------

    def report(self, message: str, span) -> None:
        if self.diags is None:
            return
        if not _real_span(span):
            span = self.cur_span
        where = span if span is not None else SourceSpan()
        key = (message, where.start.line, where.start.column)
        if key in self.seen:
            return
        self.seen.add(key)
        self.diags.error(message, where, PHASE)

    def require_alloc(self, val, argnode, span, what: str) -> None:
        if isinstance(val, MatVal) and val.null == "yes":
            name = (f" '{argnode.children[0]}'"
                    if argnode.prod == "var" else "")
            self.report(
                f"use of unallocated matrix{name} in {what}", span)

    # -- expressions ---------------------------------------------------------

    def expr(self, n, st: dict):
        p = n.prod
        ch = n.children
        if p == "intLit":
            return _iv(int(ch[0]))
        if p == "boolLit":
            return _iv(int(ch[0]))
        if p == "floatLit":
            return TOP_I
        if p == "strLit":
            return None
        if p == "rawExpr":
            if ch[0] == "NULL":
                return MatVal(None, None, "yes")
            return None
        if p == "var":
            v = st.get(ch[0])
            if v is None:
                # Unknown value, but still a nameable one: remember the
                # variable so later equality against another read of it
                # (or of a copy) can be discharged.
                return Interval(-_INF, _INF, sym=ch[0])
            if isinstance(v, Interval) and v.sym is None \
                    and v.constant is None:
                return replace(v, sym=ch[0])
            return v
        if p == "assign":
            v = self.expr(ch[1], st)
            if ch[0].prod == "var":
                self.bind(st, ch[0].children[0], v)
            else:
                self.expr(ch[0], st)
            return v
        if p == "binop":
            op = ch[0]
            a = self.expr(ch[1], st)
            b = self.expr(ch[2], st)
            if op in ("&&", "||") or op in ("<", "<=", ">", ">=",
                                           "==", "!="):
                return BOOL_I
            if isinstance(a, Interval) and isinstance(b, Interval):
                if op == "+":
                    return iv_add(a, b)
                if op == "-":
                    return iv_sub(a, b)
                if op == "*":
                    return iv_mul(a, b)
            return None  # /, % and non-interval operands: unknown
        if p == "unop":
            v = self.expr(ch[1], st)
            if ch[0] == "-" and isinstance(v, Interval):
                return iv_neg(v)
            if ch[0] == "!":
                return BOOL_I
            return None
        if p == "castE":
            v = self.expr(ch[1], st)
            if isinstance(v, Interval):
                # int() truncates toward zero, which is monotone; float
                # casts cannot move an exact integral bound.  The sym is
                # an *exact equality* witness, which truncation breaks.
                return replace(v, sym=None) if v.sym is not None else v
            return v
        if p == "call":
            return self.call(n, st)
        return None

    def bind(self, st: dict, name: str, val) -> None:
        # Rebinding invalidates every symbolic-equality witness that
        # names this variable (including the ``name.dimK`` pseudo-syms
        # of a matrix variable's axes).
        pref = name + "."

        def stale(s) -> bool:
            return s is not None and (s == name or s.startswith(pref))

        def scrub(v):
            if isinstance(v, Interval):
                return replace(v, sym=None) if stale(v.sym) else v
            if isinstance(v, MatVal) and v.dims is not None \
                    and any(stale(d.sym) for d in v.dims):
                return replace(v, dims=tuple(
                    replace(d, sym=None) if stale(d.sym) else d
                    for d in v.dims))
            if isinstance(v, tuple) and len(v) == 2 and v[0] == "tup":
                parts = tuple(scrub(x) for x in v[1])
                return v if all(a is b for a, b in zip(parts, v[1])) \
                    else ("tup", parts)
            return v

        for k in list(st):
            nv = scrub(st[k])
            if nv is not st[k]:
                st[k] = nv
        if val is None:
            st.pop(name, None)
        else:
            st[name] = val

    # -- intrinsic calls -----------------------------------------------------

    def call(self, n, st: dict):
        name = n.children[0]
        argnodes = node_cons_to_list(n.children[1])
        vals = [self.expr(a, st) for a in argnodes]
        span = n.span

        def mat(i) -> MatVal | None:
            v = vals[i] if i < len(vals) else None
            return v if isinstance(v, MatVal) else None

        def iv(i) -> Interval:
            v = vals[i] if i < len(vals) else None
            return v if isinstance(v, Interval) else TOP_I

        def lit(i) -> str | None:
            a = argnodes[i] if i < len(argnodes) else None
            return a.children[0] if a is not None and a.prod == "strLit" \
                else None

        if name in ("rt_allocf", "rt_alloci"):
            rank = iv(0).constant
            dims = None
            if rank is not None and 1 + rank <= len(vals):
                raw = [iv(1 + k) for k in range(rank)]
                for d in raw:
                    if d.hi < 0:
                        self.report(
                            "matrix allocated with a negative dimension "
                            f"({fmt_interval(d)})", span)
                dims = tuple(Interval(max(0, d.lo), max(0, d.hi), d.sym)
                             for d in raw)
            return MatVal("f" if name == "rt_allocf" else "i", dims, "no")

        if name == "readMatrix":
            return MatVal(None, None, "no")

        if name == "rt_check_rank":
            m = mat(0)
            rank = iv(1).constant
            want = None
            c = iv(2).constant
            if c is not None:
                want = "f" if c else "i"
            if m is not None and rank is not None:
                if m.dims is not None and len(m.dims) != rank:
                    self.report(
                        f"matrix has rank {len(m.dims)}, declared rank "
                        f"{rank}", span)
                elif m.kind is not None and want is not None \
                        and m.kind != want:
                    kinds = {"f": "float", "i": "int"}
                    self.report(
                        f"matrix holds {kinds[m.kind]} elements, declared "
                        f"{kinds[want]}", span)
                elif argnodes[0].prod == "var" and m.dims is None:
                    # The guard passed at run time implies this rank/kind:
                    # adopt it (this is how readMatrix results get shapes).
                    self.bind(st, argnodes[0].children[0],
                              MatVal(want or m.kind, (TOP_I,) * rank,
                                     m.null))
            return None

        if name == "rt_dim":
            m = mat(0)
            self.require_alloc(vals[0], argnodes[0], span, "dimSize")
            k = iv(1).constant
            # Pseudo-sym for the axis length itself: matrix shapes are
            # immutable after allocation, so two rt_dim reads through
            # the same still-bound variable are equal.  Invalidated when
            # the variable is rebound (``bind`` scrubs "m."-prefixed
            # syms).
            dsym = (f"{argnodes[0].children[0]}.dim{k}"
                    if k is not None and argnodes[0].prod == "var"
                    else None)
            if m is not None and m.dims is not None and k is not None:
                if 0 <= k < len(m.dims):
                    d = m.dims[k]
                    if d.sym is None and dsym is not None \
                            and d.constant is None:
                        return replace(d, sym=dsym)
                    return d
                if k >= len(m.dims) or k < 0:
                    self.report(
                        f"dimension axis {k} is out of range for a rank-"
                        f"{len(m.dims)} matrix", span)
            return Interval(0, _INF, sym=dsym)

        if name == "rt_size":
            m = mat(0)
            return m.size() if m is not None else Interval(0, _INF)

        if name in ("rt_getf", "rt_geti", "rt_setf", "rt_seti"):
            m = mat(0)
            self.require_alloc(vals[0], argnodes[0], span,
                               "matrix element access")
            idx = iv(1)
            if m is not None and m.null != "yes":
                size = m.size()
                if idx.hi < 0:
                    self.report(
                        "matrix index is always negative "
                        f"({fmt_interval(idx)})", span)
                elif idx.lo >= size.hi:
                    c = idx.constant
                    shown = (f"index {c}" if c is not None
                             else "index") + \
                        f" is out of bounds for {fmt_dims(m)} " \
                        f"(size {fmt_interval(size)})"
                    self.report(f"matrix {shown}", span)
            return TOP_I if name in ("rt_getf", "rt_geti") else None

        if name == "rt_bounds_check":
            lo, hi, dim = iv(0), iv(1), iv(2)
            what = lit(3) or "index"
            if lo.hi < 0:
                self.report(
                    f"{what} lower bound is always negative "
                    f"({fmt_interval(lo)})", span)
            elif hi.lo > dim.hi:
                self.report(
                    f"{what} range end {fmt_interval(hi)} always exceeds "
                    f"dimension {fmt_interval(dim)}", span)
            elif lo.lo >= 0 and (hi.hi <= dim.lo
                                 or (hi.sym is not None
                                     and hi.sym == dim.sym)):
                # Must-pass: the over-approximate intervals (or an exact
                # symbolic equality hi == dim) already satisfy the
                # guard, so every concrete run does too.
                self.proven.add(id(n))
            return None

        if name == "rt_require_dim":
            m = mat(0)
            self.require_alloc(vals[0], argnodes[0], span,
                               "a shape requirement")
            d = iv(1).constant
            want = iv(2)
            if m is not None and m.dims is not None and d is not None \
                    and 0 <= d < len(m.dims):
                if disjoint(m.dims[d], want):
                    self.report(
                        f"dimension {d} is {fmt_interval(m.dims[d])}, "
                        f"required to be {fmt_interval(want)}", span)
                elif argnodes[0].prod == "var":
                    got = m.dims[d]
                    # The guard passing means dims[d] == want exactly,
                    # so either side's sym is a valid equality witness.
                    refined = Interval(max(got.lo, want.lo),
                                       min(got.hi, want.hi),
                                       got.sym or want.sym)
                    dims = (m.dims[:d] + (refined,) + m.dims[d + 1:])
                    self.bind(st, argnodes[0].children[0],
                              MatVal(m.kind, dims, m.null))
            return None

        if name == "rt_matmul_check":
            a, b = mat(0), mat(1)
            self.require_alloc(vals[0], argnodes[0], span,
                               "matrix multiply")
            self.require_alloc(vals[1], argnodes[1], span,
                               "matrix multiply")
            if a is not None and b is not None:
                if a.dims is not None and len(a.dims) != 2:
                    self.report(
                        f"matrix multiply of a rank-{len(a.dims)} matrix "
                        "(rank 2 required)", span)
                elif b.dims is not None and len(b.dims) != 2:
                    self.report(
                        f"matrix multiply by a rank-{len(b.dims)} matrix "
                        "(rank 2 required)", span)
                elif (a.dims is not None and b.dims is not None
                        and disjoint(a.dims[1], b.dims[0])):
                    self.report(
                        f"matrix multiply dimensions never agree: "
                        f"{fmt_dims(a)} by {fmt_dims(b)}", span)
            return None

        if name == "rt_shape_check":
            a, b = mat(0), mat(1)
            what = lit(2) or "elementwise operation"
            self.require_alloc(vals[0], argnodes[0], span, what)
            self.require_alloc(vals[1], argnodes[1], span, what)
            if a is not None and b is not None \
                    and a.dims is not None and b.dims is not None:
                if len(a.dims) != len(b.dims):
                    self.report(
                        f"{what} on matrices of rank {len(a.dims)} and "
                        f"{len(b.dims)}", span)
                elif any(disjoint(x, y)
                         for x, y in zip(a.dims, b.dims)):
                    self.report(
                        f"{what} on shapes {fmt_dims(a)} and {fmt_dims(b)} "
                        "that never match", span)
            return None

        if name == "rt_require_divisible":
            nv, fv = iv(0), iv(1)
            what = lit(2) or "partition"
            if fv.hi <= 0:
                self.report(
                    f"{what}: factor is never positive "
                    f"({fmt_interval(fv)})", span)
            elif nv.constant is not None and fv.constant is not None \
                    and nv.constant % fv.constant != 0:
                self.report(
                    f"{what}: trip count {nv.constant} is not divisible "
                    f"by {fv.constant}", span)
            return None

        if name == "rt_assign_copy":
            src = mat(1)
            return src if src is not None else MatVal(None, None, "maybe")

        if name == "writeMatrix":
            if len(vals) > 1:
                self.require_alloc(vals[1], argnodes[1], span,
                                   "writeMatrix")
            return None

        if name.startswith("__tuple_"):
            return ("tup", tuple(vals))

        if name.startswith("__tget_"):
            idx = int(name[len("__tget_"):])
            v = vals[0] if vals else None
            if isinstance(v, tuple) and v[0] == "tup" and idx < len(v[1]):
                return v[1][idx]
            return None

        # rc ops, prints, pool/spawn/sync, vector ops, user calls: no
        # shape effect; a user call's return value is unknown.  Matrix
        # *shapes* are immutable after allocation, so facts about
        # arguments survive any call.
        return None

    # -- block transfer ------------------------------------------------------

    def block(self, block, st: dict) -> dict:
        st = dict(st)
        # Synthesized guards carry the default span and *precede* the
        # surface statement they protect, so each item's effective span
        # is the next real one in the block (falling back to the last
        # preceding real one).
        spans = [_find_span(it) for it in block.items]
        eff: list = [None] * len(spans)
        nxt = None
        for i in range(len(spans) - 1, -1, -1):
            if spans[i] is not None:
                nxt = spans[i]
            eff[i] = nxt
        prev = None
        for i, sp in enumerate(spans):
            if eff[i] is None:
                eff[i] = prev
            if sp is not None:
                prev = sp
        for i, item in enumerate(block.items):
            self.cur_span = eff[i]
            p = item.prod
            if p == "decl":
                tnode = item.children[0]
                if _is_mat_type(tnode):
                    self.bind(st, item.children[1],
                              MatVal(None, None, "yes"))
                else:
                    # both engines zero-fill declared scalars
                    self.bind(st, item.children[1],
                              _iv(0) if not _is_float_type(tnode)
                              else None)
            elif p in ("declInit", "forDecl"):
                v = self.expr(item.children[2], st)
                self.bind(st, item.children[1], v)
            elif p == "exprStmt":
                self.expr(item.children[0], st)
            elif p == "returnStmt":
                self.expr(item.children[0], st)
            elif p in ("returnVoid", "rawStmt"):
                pass
            else:  # bare condition / step expression
                self.expr(item, st)
        return st

    # -- edge refinement (S30) -----------------------------------------------

    _FLIP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
             "==": "!=", "!=": "=="}
    _MIRROR = {"<": ">", ">": "<", "<=": ">=", ">=": "<=",
               "==": "==", "!=": "!="}

    def refine_edge(self, block, label, st: dict) -> dict:
        """Narrow a predecessor's out-state along its ``True``/``False``
        edge: a loop-header or branch comparison pins the compared
        variable's interval on the edge where it held (or failed).
        The narrowing is a sym-preserving interval *meet* — shrinking a
        variable's range does not change its runtime value, so any
        exact-equality witness it carried stays valid, and an ``==``
        comparison additionally *donates* the other side's sym (this is
        how ``if (k == dimSize(m, 0))`` lets a later ``[0, k)`` bounds
        guard discharge against ``m.dim0``).  Bounds stay non-strict
        (``x < b`` narrows to ``x <= b.hi``) because float-typed
        operands may flow through, for which ``b.hi - 1`` is unsound."""
        if label is None or not block.items:
            return st
        return self._refine_cond(block.items[-1], bool(label), st)

    def _refine_cond(self, cond, held: bool, st: dict) -> dict:
        p = getattr(cond, "prod", None)
        ch = cond.children if p is not None else ()
        if p == "unop" and ch[0] == "!":
            return self._refine_cond(ch[1], not held, st)
        if p == "binop" and ch[0] in ("&&", "||"):
            # a held && (a failed ||) pins both operands
            if (ch[0] == "&&") == held:
                return self._refine_cond(
                    ch[2], held, self._refine_cond(ch[1], held, st))
            return st
        if p != "binop" or ch[0] not in self._FLIP:
            return st
        op = ch[0] if held else self._FLIP[ch[0]]
        out = self._refine_var(ch[1], op, ch[2], st)
        return self._refine_var(ch[2], self._MIRROR[op], ch[1], out)

    def _refine_var(self, node, op, other, st: dict) -> dict:
        """Meet ``node OP other`` into the state when node is a bare
        variable; no-op otherwise."""
        if getattr(node, "prod", None) != "var" or op == "!=":
            return st
        name = node.children[0]
        cur = st.get(name)
        if cur is None:
            cur = Interval(-_INF, _INF, sym=name)
        if not isinstance(cur, Interval):
            return st
        # evaluate the other side on a scratch copy: condition
        # subexpressions must not leak bindings into the edge state
        b = self.expr(other, dict(st))
        if not isinstance(b, Interval):
            return st
        if op == "==":
            lo, hi = max(cur.lo, b.lo), min(cur.hi, b.hi)
            sym = b.sym or cur.sym
        elif op in ("<", "<="):
            lo, hi = cur.lo, min(cur.hi, b.hi)
            sym = cur.sym
        else:  # > >=
            lo, hi = max(cur.lo, b.lo), cur.hi
            sym = cur.sym
        if lo > hi:
            return st  # infeasible edge: keep the (sound) wider state
        refined = Interval(lo, hi, sym)
        if refined == cur:
            return st
        out = dict(st)
        out[name] = refined
        return out


def _is_float_type(type_node) -> bool:
    if type_node.prod == "tFloat":
        return True
    if type_node.prod == "tRaw":
        return str(type_node.children[0]).strip() in ("float", "double")
    return False


def _solve_and_replay(cfg: CFG, diags: Diagnostics | None) -> frozenset[int]:
    """Solve the interval fixpoint once, then replay every reachable
    block against its in-state: the replay reports must-fail guards into
    ``diags`` (when given) and collects the must-pass bounds guards."""
    silent = _Pass(cfg, None)
    states = solve(
        cfg, silent.block, join=join_states, entry_state={}, init={},
        direction="forward", widen=widen_states, widen_after=3,
        edge=silent.refine_edge,
    )
    replay = _Pass(cfg, diags)
    for bid in sorted(cfg.reachable()):
        replay.block(cfg.blocks[bid], states[bid][0])
    return frozenset(replay.proven)


def check_shapes(cfg: CFG, diags: Diagnostics) -> frozenset[int]:
    """Run the pass on one function CFG, emitting into ``diags``.

    Returns the same proven-in-range guard set as
    :func:`proven_in_range`, so a caller that also compiles the function
    (``analyze_result``) can seed the bytecode compiler with it instead
    of solving the fixpoint a second time."""
    return _solve_and_replay(cfg, diags)


def proven_in_range(cfg: CFG) -> frozenset[int]:
    """Node ids of ``rt_bounds_check`` calls in ``cfg`` whose guard the
    interval fixpoint proves passes on every execution (``lo >= 0`` and
    ``hi <= dim`` for all concretizations).  Mirror of the must-*fail*
    reporting in :func:`check_shapes`: because the intervals
    over-approximate, a bound that holds abstractly holds concretely,
    so discharging such a guard can never suppress a real trap.  The
    bytecode compiler uses this to compile the guard to the
    ``rt_bounds_ok`` counter bump instead."""
    return _solve_and_replay(cfg, None)
