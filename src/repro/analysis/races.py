"""Static data-race detection with affine disjointness proofs (S30,
pass 3).

This pass consumes the other two S30 layers — the per-function access
summaries (:mod:`repro.analysis.access`) and the may-happen-in-parallel
pairs (:mod:`repro.analysis.mhp`) — and answers three questions:

**Reports** — for every MHP pair where one side writes, can the two
index sets be *refuted* (proven disjoint)?  Refutation uses, in order:

1. *cancellation*: the polynomial difference of the two affine forms
   collapses to a nonzero constant (``m[i]`` vs ``m[i + 1]``);
2. *GCD/parity*: all IV coefficients are integer constants with a
   common divisor the constant difference does not share (``m[2*i]``
   vs ``m[2*j + 1]``);
3. *interval*: constant IV ranges put the difference strictly above or
   below zero (``m[i]``, i < 50, vs ``m[50 + j]``, j >= 0).

A same-root pair that survives refutation is reported with an
S25-style witness chain ("task 'f' writes m[base + i]; continuation
reads m[5]; no sync between — via 'g'").  Pairs whose matrix identity
is uncertain (⊤ roots, may-aliasing parameters) *block clearance* but
are never reported — the corpus false-positive bar is absolute.

**Task clearance** — a spawn callee whose only S25 task blocker is the
trap hazard becomes pool-eligible when every trap source is an element
access (or its fused-loop fallback), every access of every spawn site
is proven in bounds of its (constant-shape) matrix, and no unrefuted
MHP pair touches any function reachable from it.  The cleared verdict
feeds :meth:`repro.analysis.parsafety.ParallelSafety.task_safe`, so
the VM's ``_spawn`` gate and ``reproc check --explain-parallel`` move
together.

**Shard certificates** — for each ``__rt_pool_run`` site, two distinct
chunks ``[lo, hi)`` and ``[lo', hi')`` of the region are compared with
the chunk bounds held symbolic.  The mixed-radix argument (the chunk
axis stride covers the value span of every inner axis, spans bounded
by the caller's dominating ``rt_bounds_check`` facts) certifies the
writes disjoint; ``reproc check --races`` prints the certificates.

If the analysis itself fails, clearance returns nothing and every
eligibility decision is bit-for-bit what S29 made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.access import READ, WRITE, Access, Summaries, subst_poly
from repro.analysis.callgraph import CallGraph
from repro.analysis.hazards import H_TRAP, TASK_BLOCKERS
from repro.ir.affine import Poly

#: Trap evidence compatible with clearance: traps made impossible by
#: the in-bounds proof (element accesses and their fused-loop
#: fallback) or only raisable on malformed lowering (axis literals).
_BENIGN_TRAPS = frozenset({
    "matrix element read may trap (index out of range)",
    "matrix element write may trap (index out of range)",
    "dimension query may trap (axis out of range)",
    "fused numpy loop may trap on its scalar fallback",
})


@dataclass(frozen=True)
class RaceFinding:
    """One reported (unrefuted, definite-identity) race."""

    fn: str                     # function whose execution exhibits it
    kind: str                   # "task-cont" | "task-task" | "spawn-target"
    proven: bool                # True: provably the same element
    message: str
    witness: tuple[str, ...] = ()
    span: object = None

    def lines(self) -> list[str]:
        out = [f"race: {self.message}"]
        out.extend(f"    {w}" for w in self.witness)
        return out


@dataclass
class RaceAnalysis:
    """Program-wide result of the S30 race pass."""

    findings: list[RaceFinding] = field(default_factory=list)
    #: spawn callee -> proof sentence (race-free, pool-eligible)
    cleared: dict[str, str] = field(default_factory=dict)
    #: spawn callee considered for clearance -> why it stays blocked
    blocked: dict[str, str] = field(default_factory=dict)
    #: pool region -> (proven, certificate / reason)
    certificates: dict[str, tuple] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def race_cleared(self, name: str) -> bool:
        return name in self.cleared


# -- index refutation --------------------------------------------------------


def _const(p) -> int | None:
    return None if p is None else p.constant


def refute(r1: Access, r2: Access) -> str:
    """Compare two access index forms of the *same* matrix: returns
    ``"disjoint"`` (proven never the same element), ``"same"`` (proven
    always the same element), or ``"unknown"``.  IVs with the same name
    denote the same runtime value (a task and its continuation inside
    one loop iteration share the iteration's IV); cross-iteration pairs
    arrive with renamed IVs."""
    if r1.top or r2.top:
        return "unknown"
    coeffs: dict[str, list] = {}
    for rec, sign in ((r1, 1), (r2, -1)):
        for t in rec.ivs:
            ent = coeffs.setdefault(t.name, [Poly.const(0), t.lo, t.hi])
            ent[0] = ent[0] + t.coeff if sign > 0 else ent[0] - t.coeff
    base = r1.base - r2.base
    live = {n: (c, lo, hi) for n, (c, lo, hi) in coeffs.items()
            if c.constant != 0}
    if not live:
        c = base.constant
        if c == 0:
            return "same"
        return "disjoint" if c is not None else "unknown"
    # vacuous: an IV with a provably empty range never produces an access
    for _n, (_c, lo, hi) in live.items():
        clo, chi = _const(lo), _const(hi)
        if clo is not None and chi is not None and chi <= clo:
            return "disjoint"
    b = base.constant
    ccoeffs = [c.constant for c, _lo, _hi in live.values()]
    if b is not None and all(c is not None for c in ccoeffs):
        g = math.gcd(*(abs(c) for c in ccoeffs))
        if g > 1 and b % g != 0:
            return "disjoint"
        lo_sum = hi_sum = b
        bounded = True
        for c, lo, hi in live.values():
            clo, chi = _const(lo), _const(hi)
            if clo is None or chi is None:
                bounded = False
                break
            a1, a2 = c.constant * clo, c.constant * (chi - 1)
            lo_sum += min(a1, a2)
            hi_sum += max(a1, a2)
        if bounded and (lo_sum > 0 or hi_sum < 0):
            return "disjoint"
    return "unknown"


def roots_relation(a: str, b: str) -> str:
    """``"same"`` / ``"distinct"`` / ``"maybe"`` for two summary roots.
    Allocation roots (``a:``/``i:``) are fresh objects: distinct from
    every other root.  Two different parameter roots may alias (a
    caller can pass one matrix twice); ``?`` may alias anything."""
    if a == b and a != "?":
        return "same"
    if a == "?" or b == "?":
        return "maybe"
    if a.startswith(("a:", "i:")) or b.startswith(("a:", "i:")):
        return "distinct"
    return "maybe"  # two distinct p: roots


# -- in-bounds proofs --------------------------------------------------------


def record_in_bounds(rec: Access, dims) -> bool:
    """Is ``rec``'s whole index range provably within ``[0, size)`` of
    a matrix with the given constant shape?"""
    if rec.top or dims is None:
        return False
    size = 1
    for d in dims:
        c = _const(d)
        if c is None:
            return False
        size *= c
    lo = hi = _const(rec.base)
    if lo is None:
        return False
    for t in rec.ivs:
        c, tlo, thi = _const(t.coeff), _const(t.lo), _const(t.hi)
        if c is None or tlo is None or thi is None:
            return False
        if thi <= tlo:
            return True  # empty range: the access never happens
        a1, a2 = c * tlo, c * (thi - 1)
        lo += min(a1, a2)
        hi += max(a1, a2)
    return 0 <= lo and hi < size


# -- shard disjointness (mixed-radix argument) -------------------------------

_CHUNK_ATOMS = ("chunk:lo", "chunk:hi")


def _mentions_chunk(p) -> bool:
    return p is not None and bool(p.atoms() & set(_CHUNK_ATOMS))


def _prime(p):
    """Rename the symbolic chunk bounds to the second chunk's."""
    if p is None:
        return None
    env = {a: (Poly.atom(a + "'"), {}) for a in _CHUNK_ATOMS}
    v = subst_poly(p, env)
    return None if v is None or v[1] else v[0]


def _positive_monomial(p: Poly) -> bool:
    """Every term has a nonnegative coefficient and at least one is
    positive — with atoms standing for axis lengths (>= 0), the value
    is >= 0 wherever it is nonzero."""
    if not p.terms:
        return False
    return all(c > 0 for c in p.terms.values())


def chunk_disjoint(w: Access, r: Access, facts: list) -> tuple:
    """Prove that ``w`` executed for chunk ``[chunk:lo, chunk:hi)``
    and ``r`` executed for a *different* chunk never touch the same
    element.  Returns ``(proven, reason)``.

    Requires both indices to depend on a chunk-ranged axis in the same
    way; the remaining axes must pair up with equal coefficients and
    ranges, their total span bounded below the chunk stride by the
    dominating guard facts (span_k <= dim_k and the stride is the
    mixed-radix product of inner dims)."""
    if w.top or r.top:
        return False, f"{w.what or 'a write'}: index not affine"
    wchunk = [t for t in w.ivs
              if _mentions_chunk(t.lo) or _mentions_chunk(t.hi)]
    rchunk = [t for t in r.ivs
              if _mentions_chunk(t.lo) or _mentions_chunk(t.hi)]
    if len(wchunk) != 1 or len(rchunk) != 1:
        return False, f"{w.what}: no single chunk-driven axis"
    cw, cr = wchunk[0], rchunk[0]
    if _mentions_chunk(cw.coeff) or cw.lo is None or cw.hi is None \
            or cr.lo is None or cr.hi is None:
        return False, f"{w.what}: chunk axis not affine in the chunk bounds"
    # chunk axis value set must be exactly offset + [chunk:lo, chunk:hi)
    off_w = cw.lo - Poly.atom("chunk:lo")
    if _mentions_chunk(off_w) or (cw.hi - Poly.atom("chunk:hi")) != off_w:
        return False, f"{w.what}: chunk axis range is not the chunk itself"
    off_r = cr.lo - Poly.atom("chunk:lo")
    if _mentions_chunk(off_r) or (cr.hi - Poly.atom("chunk:hi")) != off_r:
        return False, f"{r.what}: chunk axis range is not the chunk itself"
    if off_w != off_r or cw.coeff != cr.coeff:
        return False, f"{w.what} vs {r.what}: chunk axes differ"
    if _mentions_chunk(w.base) or _mentions_chunk(r.base) \
            or w.base != r.base:
        return False, f"{w.what} vs {r.what}: bases differ"
    stride = cw.coeff
    # pair up the inner axes by (coeff, range)
    rest_w = [t for t in w.ivs if t is not cw]
    rest_r = list(t for t in r.ivs if t is not cr)
    spans: list[tuple] = []  # (coeff, lo, hi) of each paired inner axis
    for t in rest_w:
        match = next(
            (u for u in rest_r
             if u.coeff == t.coeff and u.lo == t.lo and u.hi == t.hi), None)
        if match is None:
            return False, f"{w.what} vs {r.what}: inner axes differ"
        rest_r.remove(match)
        if t.lo is None or t.hi is None:
            return False, f"{w.what}: inner axis has unknown range"
        spans.append((t.coeff, t.lo, t.hi))
    if rest_r:
        return False, f"{w.what} vs {r.what}: inner axes differ"
    # |sum inner_k| <= sum coeff_k * (span_k - 1) < |stride|
    budget = stride
    for coeff, lo, hi in spans:
        if not _positive_monomial(coeff):
            return False, f"{w.what}: inner coefficient sign unknown"
        span = None
        cs, clo, chi = _const(coeff), _const(lo), _const(hi)
        if clo is not None and chi is not None:
            span = Poly.const(max(chi - clo, 1))
        else:
            for flo, fhi, fdim in facts:
                if flo[1] or fhi[1]:  # facts must be loop-invariant
                    continue
                if flo[0] == lo and fhi[0] == hi:
                    span = fdim[0] if not fdim[1] else None
                    break
        if span is None:
            return False, (f"{w.what}: no guard bounds the inner axis "
                           f"[{lo!r}, {hi!r})")
        budget = budget - coeff * (span - Poly.const(1))
        del cs
    slack = budget.constant
    if slack is None or slack < 1:
        if not spans and _positive_monomial(stride):
            # stride >= 1 whenever any inner iteration exists is not
            # derivable without an inner axis; require a constant
            return False, f"{w.what}: chunk stride not provably nonzero"
        return False, (f"{w.what}: chunk stride does not cover the "
                       f"inner extent")
    return True, (f"{w.what} is injective across chunks (stride covers "
                  f"the guarded inner extent)")


def prove_shard(region: str, crecs: list, facts: list,
                opaque: bool) -> tuple:
    """Disjointness certificate for one pool region's chunks."""
    if opaque:
        return False, "worker body not fully analyzable"
    writes = [r for r in crecs if r.mode == WRITE]
    if not writes:
        return True, "read-only region: shards share no written element"
    for w in writes:
        if w.root == "?":
            return False, f"{w.what}: written matrix identity unknown"
        if w.top:
            return False, f"{w.what or 'a write'}: index not affine"
    for w in writes:
        for r in crecs:
            rel = roots_relation(w.root, r.root)
            if rel == "distinct":
                continue
            if rel == "maybe":
                return False, (f"{w.what} vs {r.what}: matrices may "
                               f"alias")
            ok, why = chunk_disjoint(w, r, facts)
            if not ok:
                return False, why
    n = len(writes)
    return True, (f"{n} write{'s' if n != 1 else ''} proven disjoint "
                  f"across chunks (affine mixed-radix injectivity)")


# -- the program-level pass --------------------------------------------------


def _fmt_span(span) -> str:
    if span is None:
        return ""
    start = getattr(span, "start", None)
    return str(start) if start is not None else str(span)


def _chain_suffix(chain: tuple) -> str:
    if not chain:
        return ""
    return " via " + " -> ".join(f"'{c}'" for c in chain)


def analyze_races(program) -> RaceAnalysis:
    """Run the full S30 pass over a compiled program.  Raises only on
    internal errors; callers wanting best-effort behavior (the VM
    eligibility gate) wrap this in :func:`race_analysis_for`."""
    summaries = Summaries(program)
    for fname in program.functions:
        summaries.summary(fname)

    out = RaceAnalysis()
    seen: set = set()
    #: functions during whose execution some unrefuted pair arises
    tainted: set[str] = set()
    #: spawn callees participating in an unrefuted pair
    tainted_callees: set[str] = set()
    #: spawn callee -> list of (walker, Task)
    spawned: dict[str, list] = {}

    def add_finding(f: RaceFinding) -> None:
        key = (f.fn, f.kind, f.message, _fmt_span(f.span))
        if key not in seen:
            seen.add(key)
            out.findings.append(f)

    for key, walker in sorted(summaries.walkers.items()):
        kind_, fname = key
        tracker = walker.tracker
        for task in tracker.tasks:
            spawned.setdefault(task.callee, []).append((walker, task))
        for pair in tracker.pairs:
            task = pair.task
            if pair.kind == "var":
                tainted.add(fname)
                tainted_callees.add(task.callee)
                msg = (f"task '{task.callee}' is pending; continuation "
                       f"{pair.var_mode}s its spawn target "
                       f"'{pair.var}' before sync")
                add_finding(RaceFinding(
                    fname, "spawn-target", True, msg,
                    (f"spawned at {_fmt_span(task.span)}; "
                     f"touched at {_fmt_span(pair.span)}",), pair.span))
                continue
            if pair.kind == "cont":
                others = [(pair.access, "continuation",
                           pair.access.chain)]
                okind = "task-cont"
            else:
                others = [(rec, f"sibling task '{pair.other.callee}'",
                           rec.chain[1:]
                           if rec.chain[:1] == (pair.other.callee,)
                           else rec.chain)
                          for rec in pair.other.records]
                okind = "task-task"
            for trec in task.records:
                for orec, owho, ochain in others:
                    if trec.mode != WRITE and orec.mode != WRITE:
                        continue
                    rel = roots_relation(trec.root, orec.root)
                    if rel == "distinct":
                        continue
                    if rel == "maybe":
                        tainted.add(fname)
                        tainted_callees.add(task.callee)
                        if pair.kind == "task":
                            tainted_callees.add(pair.other.callee)
                        continue
                    verdict = refute(trec, orec)
                    if verdict == "disjoint":
                        continue
                    tainted.add(fname)
                    tainted_callees.add(task.callee)
                    if pair.kind == "task":
                        tainted_callees.add(pair.other.callee)
                    if not (trec.definite and orec.definite):
                        continue
                    qual = ("provably the same element"
                            if verdict == "same"
                            else "cannot be proven disjoint")
                    msg = (f"task '{task.callee}' {trec.mode}s "
                           f"{trec.what}{_chain_suffix(trec.chain[1:])}; "
                           f"{owho} {orec.mode}s {orec.what}"
                           f"{_chain_suffix(ochain)} — {qual}; "
                           f"no sync between")
                    wit = (f"spawned at {_fmt_span(task.span)}"
                           f"{_chain_suffix(task.chain)}",
                           f"conflicting access at {_fmt_span(orec.span)}")
                    add_finding(RaceFinding(
                        fname, okind, verdict == "same", msg, wit,
                        orec.span or task.span))

        for region, crecs, facts, opq, _span in walker.pool_sites:
            cert = prove_shard(region, crecs, facts, opq)
            prev = out.certificates.get(region)
            if prev is None or (prev[0] and not cert[0]):
                out.certificates[region] = cert

    # -- task clearance ------------------------------------------------------
    cg = CallGraph(program)
    for callee in sorted(spawned):
        sites = spawned[callee]
        hz = program.hazards_for(callee) if callee in program.functions \
            else None
        if hz is None:
            out.blocked[callee] = "unknown function"
            continue
        blocking = hz & TASK_BLOCKERS
        if not blocking:
            continue  # already eligible without us
        if blocking - {H_TRAP}:
            out.blocked[callee] = (
                "blocked by non-trap hazards: "
                + ", ".join(sorted(blocking - {H_TRAP})))
            continue
        reach = cg.reachable(("fn", callee))
        bad = None
        if callee in tainted_callees:
            bad = "unrefuted MHP conflict involving this task"
        for node_key in reach if bad is None else ():
            if node_key[0] == "fn" and node_key[1] in tainted:
                bad = f"unrefuted race while '{node_key[1]}' runs"
                break
            for eff in cg.node(node_key).effects:
                if eff.hazard == H_TRAP and eff.what not in _BENIGN_TRAPS:
                    bad = f"may trap: {eff.what}"
                    break
            if bad:
                break
        if bad is None:
            nrec = 0
            for walker, task in sites:
                for rec in task.records:
                    if rec.root == "?" or not rec.definite:
                        bad = f"{rec.what}: matrix identity unknown"
                        break
                    if not record_in_bounds(
                            rec, walker.sum.dims.get(rec.root)):
                        bad = (f"{rec.what}: not provably in bounds "
                               f"at the spawn site")
                        break
                    nrec += 1
                if bad:
                    break
        if bad is not None:
            out.blocked[callee] = bad
        else:
            out.cleared[callee] = (
                f"race-free: every access across {len(sites)} spawn "
                f"site{'s' if len(sites) != 1 else ''} proven in-bounds "
                f"and disjoint from all concurrent work")

    out.findings.sort(key=lambda f: (f.fn, _fmt_span(f.span), f.message))
    return out


def race_analysis_for(program) -> RaceAnalysis | None:
    """Best-effort entry point shared by the VM eligibility gate and the
    diagnostics report (memoized on the program); None when the
    analysis failed."""
    cached = getattr(program, "_race_analysis", False)
    if cached is not False:
        return cached
    try:
        result = analyze_races(program)
    except Exception:
        result = None
    program._race_analysis = result
    return result
