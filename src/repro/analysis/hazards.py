"""The parallel-eligibility hazard vocabulary (S23/S25).

The fork-join pool may only move code off the owning thread when doing
so cannot change observable behavior.  These constants name the effects
that can make movement observable; they were born in
:mod:`repro.cexec.bytecode` (S23) and moved here when the hazard
fixpoint was reimplemented as a shared interprocedural analysis (S25) —
:mod:`repro.cexec.bytecode` re-exports them for compatibility.

This module is import-free on purpose: both the bytecode compiler and
the analysis package depend on it, in that order, with no cycle.
"""

from __future__ import annotations

H_IO = "io"          # file I/O: cross-shard ordering would be observable
H_PRINT = "print"    # stdout: shards buffer + merge, tasks cannot
H_TRAP = "trap"      # may raise: a pooled task would move the raise site
H_POOL = "pool"      # nested parallel region: region_sizes ordering
H_RC = "rc"          # refcount mutation: frees would reorder across tasks
H_SPAWN = "spawn"    # spawns sub-tasks (informational; never a blocker)

ALL_HAZARDS = frozenset([H_IO, H_PRINT, H_TRAP, H_POOL, H_RC, H_SPAWN])

# A with-loop/matrixMap shard re-raises the lowest-index trap and merges
# buffered stats/stdout in shard order, so only cross-shard file I/O is
# genuinely order-observable.
SHARD_BLOCKERS = frozenset([H_IO])
# A pooled Cilk task runs to completion off-thread with no deterministic
# merge point before its sync, so anything ordered blocks it: traps (the
# elided run raises at the spawn point), prints, file I/O, refcount
# frees, and nested regions (ordered region_sizes trace).
TASK_BLOCKERS = frozenset([H_IO, H_PRINT, H_TRAP, H_POOL, H_RC])
# A shard moved into a *process* worker (S27) sees copies of the capture
# matrices in shared memory; element writes copy back deterministically,
# but an rc op on a capture would act on the worker's copy of its count,
# so rc traffic joins I/O here.  ParallelSafety.process_safe lifts the rc
# blocker when no capture can reach an rc op.  Everything buffered
# (prints, stats) or merged (traps) ships back over the result pipe.
PROCESS_BLOCKERS = frozenset([H_IO, H_RC])

# Opcodes that can raise (div/mod by zero, float->int of inf/nan, OOB
# element access, refcount underflow, fastloop commit of a trapping
# plan).  Pure arithmetic, moves and jumps cannot.
TRAP_OPS = frozenset([
    "/", "%", "cast_int", "rt_getf", "rt_setf", "rt_geti", "rt_seti",
    "rt_dim", "rc_dec", "fastloop",
])

# One-line, user-facing gloss per hazard for `reproc check
# --explain-parallel` (see repro.analysis.parsafety).
HAZARD_GLOSS = {
    H_IO: "file I/O whose cross-shard order would be observable",
    H_PRINT: "prints to stdout (tasks have no ordered merge point)",
    H_TRAP: "may trap at run time (a pooled task would move the raise site)",
    H_POOL: "opens a nested parallel region (ordered region trace)",
    H_RC: "mutates reference counts (frees would reorder across tasks)",
    H_SPAWN: "spawns sub-tasks",
}
