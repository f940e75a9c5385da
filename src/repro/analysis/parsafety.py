"""Explainable interprocedural parallel-safety analysis (S25).

Reimplements the S23 hazard fixpoint of
``BytecodeProgram._hazards``/``_direct_hazards`` on top of the shared
:class:`repro.analysis.callgraph.CallGraph`, with one addition: every
verdict can *explain itself*.  The fixpoint equations are unchanged —

    hazards(n) = direct(n) ∪ ⋃ hazards(callee)   over n's call edges

with cycles (recursion) converging because hazard sets only grow — so
shard/task eligibility decisions are bit-identical to the pre-S25
private fixpoint (``tests/analysis/test_parallel_safety.py`` proves
this differentially).  What is new is the witness search: for each
hazard that blocks a construct, a BFS over the same call edges finds a
*shortest* call chain from the construct to a node whose direct effect
carries that hazard, and the verdict renders it as

    with-loop region '__wl_body0' is not shard-safe:
      file I/O whose cross-shard order would be observable
        via 'helper': writes a matrix file (writeMatrix)

``BytecodeProgram.lifted_parallel_safe``/``task_parallel_safe`` now
consult this class, so the VM refuses exactly what the diagnostics
explain — the silent bail of S23 is gone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.analysis.callgraph import CallGraph, Key, display_name
from repro.analysis.hazards import (
    H_SPAWN, HAZARD_GLOSS, PROCESS_BLOCKERS, SHARD_BLOCKERS, TASK_BLOCKERS,
)


@dataclass(frozen=True)
class Blocker:
    """Why one hazard blocks a construct: the hazard, the shortest call
    chain that reaches it, and the direct-effect evidence at its end."""

    hazard: str
    chain: tuple[Key, ...]  # root first; last element owns the effect
    what: str

    def render(self) -> str:
        gloss = HAZARD_GLOSS.get(self.hazard, self.hazard)
        via = " -> ".join(display_name(k) for k in self.chain[1:])
        site = f", reached via {via}" if via else ""
        return f"{gloss}{site}; evidence: {self.what}"


@dataclass(frozen=True)
class ParallelVerdict:
    """The decision for one parallel construct, with its reasons."""

    kind: str        # "shard" (with-loop/matrixMap region) | "task" (spawn)
    name: str        # worker region name / spawned callee
    safe: bool
    hazards: frozenset
    blockers: tuple[Blocker, ...]
    # S27: a shard-safe region may additionally qualify for the
    # shared-memory *process* pool (shard-safe AND no rc traffic).  None
    # for task verdicts, where the question does not arise.
    process_safe: bool | None = None
    process_blockers: tuple[Blocker, ...] = ()
    # S30: when a task verdict is safe *despite* effect blockers, the
    # race analysis discharged them; this carries its proof sentence.
    race_note: str | None = None

    @property
    def construct(self) -> str:
        return (f"with-loop region '{self.name}'" if self.kind == "shard"
                else f"cilk task '{self.name}'")

    def headline(self) -> str:
        if self.safe:
            if self.kind == "shard":
                where = ("thread or process workers" if self.process_safe
                         else "thread workers only")
                return (f"{self.construct}: OK - may be sharded across "
                        f"the worker pool ({where})")
            return (f"{self.construct}: OK - may be scheduled as an "
                    f"off-thread task")
        return (f"{self.construct}: runs sequentially - not "
                f"{self.kind}-safe")

    def explain(self) -> str:
        lines = [self.headline()]
        if self.safe and self.race_note is not None:
            for b in self.blockers:
                lines.append(
                    f"  hazard discharged by race analysis: {b.render()}")
            lines.append(f"  {self.race_note}")
        else:
            for b in self.blockers:
                lines.append(f"  blocked by {b.render()}")
        if self.safe and self.process_safe is False:
            for b in self.process_blockers:
                lines.append(f"  process pool blocked by {b.render()}")
        return "\n".join(lines)


class ParallelSafety:
    """Hazard fixpoint + witness search over the shared call graph.

    One instance is memoized per :class:`BytecodeProgram` (its
    ``.safety`` property); the VM and ``reproc check`` therefore share
    one traversal and necessarily agree.
    """

    def __init__(self, program, graph: CallGraph | None = None):
        self.program = program
        self.graph = graph if graph is not None else CallGraph(program)
        self._memo: dict[Key, frozenset] = {}

    # -- the S23 fixpoint, verbatim semantics --------------------------------

    def hazards(self, key: Key) -> frozenset:
        memo = self._memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        # Collect the reachable, not-yet-memoized subgraph...
        direct: dict[Key, set] = {}
        edges: dict[Key, set] = {}
        stack = [key]
        while stack:
            k = stack.pop()
            if k in direct:
                continue
            node = self.graph.node(k)
            direct[k] = set(node.hazards)
            edges[k] = set(node.calls)
            for callee in edges[k]:
                if callee not in direct and callee not in memo:
                    stack.append(callee)
        # ...and propagate hazards to a fixpoint (cycles — recursion —
        # converge because hazard sets only grow).
        changed = True
        while changed:
            changed = False
            for k, hz in direct.items():
                for callee in edges[k]:
                    callee_hz = memo.get(callee) or direct.get(callee, ())
                    if not (set(callee_hz) <= hz):
                        hz |= set(callee_hz)
                        changed = True
        for k, hz in direct.items():
            memo[k] = frozenset(hz)
        return memo[key]

    def shard_safe(self, name: str) -> bool:
        return not (self.hazards(("lifted", name)) & SHARD_BLOCKERS)

    def task_safe(self, name: str) -> bool:
        if name not in self.program.functions:
            return False
        if not (self.hazards(("fn", name)) & TASK_BLOCKERS):
            return True
        # S30: a trap-blocked task becomes eligible when the race
        # analysis proves every spawn-site access in bounds and
        # disjoint from all concurrent work.  If the analysis failed
        # it returns None and the S25 decision stands bit-for-bit.
        from repro.analysis.races import race_analysis_for
        ra = race_analysis_for(self.program)
        return ra is not None and ra.race_cleared(name)

    def process_safe(self, name: str) -> bool:
        """Whether a shard may execute in a *process* worker (S27):
        shard-safe and free of refcount traffic, so copies of the
        capture matrices in shared memory behave identically."""
        return not (self.hazards(("lifted", name)) & PROCESS_BLOCKERS)

    # -- explanation ---------------------------------------------------------

    def witness(self, root: Key, hazard: str) -> Blocker:
        """Shortest call chain from ``root`` to a direct carrier of
        ``hazard``.  The fixpoint guarantees one exists whenever
        ``hazard in self.hazards(root)``."""
        parent: dict[Key, Key | None] = {root: None}
        q: deque[Key] = deque([root])
        while q:
            k = q.popleft()
            node = self.graph.node(k)
            for e in node.effects:
                if e.hazard == hazard:
                    chain: list[Key] = []
                    cur: Key | None = k
                    while cur is not None:
                        chain.append(cur)
                        cur = parent[cur]
                    return Blocker(hazard, tuple(reversed(chain)), e.what)
            for callee in node.calls:
                if callee not in parent:
                    parent[callee] = k
                    q.append(callee)
        raise AssertionError(  # pragma: no cover - fixpoint invariant
            f"hazard {hazard!r} has no witness under {root!r}")

    def verdict(self, kind: str, name: str) -> ParallelVerdict:
        if kind == "shard":
            root: Key = ("lifted", name)
            blockset = SHARD_BLOCKERS
            safe = self.shard_safe(name)
        else:
            root = ("fn", name)
            blockset = TASK_BLOCKERS
            safe = self.task_safe(name)
        hz = self.hazards(root)
        blocking = sorted((hz & blockset) - {H_SPAWN})
        blockers = tuple(self.witness(root, h) for h in blocking)
        if kind != "shard":
            note = None
            if safe and blocking:
                from repro.analysis.races import race_analysis_for
                ra = race_analysis_for(self.program)
                if ra is not None:
                    note = ra.cleared.get(name)
            return ParallelVerdict(kind, name, safe, hz, blockers,
                                   race_note=note)
        p_safe = self.process_safe(name)
        p_blocking = sorted((hz & PROCESS_BLOCKERS) - set(blocking))
        p_blockers = tuple(self.witness(root, h) for h in p_blocking)
        return ParallelVerdict(kind, name, safe, hz, blockers,
                               process_safe=p_safe,
                               process_blockers=p_blockers)


def analyze_parallel(program) -> list[ParallelVerdict]:
    """Verdicts for every parallel construct of a compiled program: one
    shard verdict per lifted with-loop/matrixMap worker, one task
    verdict per distinct Cilk spawn callee (``SpawnedFunc`` records,
    which carry the callee under ``call_name`` and no tree body)."""
    safety = program.safety
    verdicts: list[ParallelVerdict] = []
    seen_tasks: set[str] = set()
    for lf in program.lifted:
        if hasattr(lf, "body"):
            verdicts.append(safety.verdict("shard", lf.name))
        else:
            callee = getattr(lf, "call_name", lf.name)
            if callee not in seen_tasks:
                seen_tasks.add(callee)
                verdicts.append(safety.verdict("task", callee))
    return verdicts
