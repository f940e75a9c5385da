"""Tree-walking interpreter for lowered (plain-C) host trees.

One of two Python execution engines: it runs the *same* lowered trees
the C printer emits, with the runtime (matrices, refcounting, the
fork-join pool, 4-lane vectors, RMAT I/O) implemented as Python
intrinsics.  Used when gcc is unavailable and by tests that want
instrumented execution (allocation counts, pool-region traces, refcount
balance) without a compile step.

The runtime itself lives in :class:`RTRuntime` and is shared with the
bytecode VM (:mod:`repro.cexec.vm`), which compiles the same trees to a
register bytecode and is the default engine; this tree-walker is kept as
the differential-testing reference.

C semantics are modeled where they differ from Python: integer division
truncates toward zero (and traps on a zero divisor), float division by
zero gives IEEE 754 infinities and NaN, `%` follows C, matrices hold
float32, and `&&`/`||` short-circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.ag.tree import Node
from repro.cexec.rmat import read_rmat, write_rmat
from repro.cminus.absyn import node_cons_to_list


class InterpError(Exception):
    pass


class RuntimeTrap(InterpError):
    """A runtime check failed (the C runtime would exit(2))."""


#: Faults the engines let numpy/Python raise raw (out-of-range accesses,
#: arithmetic faults); a caller running a program reports them as its
#: trap, like :class:`RuntimeTrap`.
RAW_TRAPS = (IndexError, ZeroDivisionError, OverflowError)


@dataclass
class RTMat:
    kind: str  # "f" | "i"
    dims: tuple[int, ...]
    data: np.ndarray
    rc: int = 1

    @property
    def size(self) -> int:
        return int(self.data.size)

    def as_numpy(self) -> np.ndarray:
        return self.data.reshape(self.dims).copy()


@dataclass
class InterpStats:
    allocs: int = 0
    frees: int = 0
    copies: int = 0
    parallel_regions: int = 0
    tasks_spawned: int = 0
    # How many of those spawns actually went to the worker pool instead
    # of being elided inline (S30: race clearance makes this nonzero for
    # effectful-but-disjoint tasks).  NOT part of the engine-differential
    # contract — it legitimately depends on pool presence and saturation.
    tasks_pooled: int = 0
    region_sizes: list[int] = field(default_factory=list)
    # Why the fast paths were NOT taken, reason -> count (S25 satellite):
    # fastloop_bails counts loop-nest executions whose plan refused and
    # fell back to the scalar bytecode loop compiled behind the
    # ``fastloop`` instruction (a loop below loopfast.MIN_TRIP never
    # enters its plan and is not counted), shard_bails counts with-loop
    # regions that ran sequentially instead of on the worker pool.
    fastloop_bails: dict[str, int] = field(default_factory=dict)
    shard_bails: dict[str, int] = field(default_factory=dict)
    # Functions the VM ran on its closure stream because the S29
    # compiler refused them ("name: reason" -> binds).  NOT part of the
    # engine-differential contract: only the compiled VM records it.
    compile_bails: dict[str, int] = field(default_factory=dict)
    # Dynamic VM instructions retired (only populated when the VM runs
    # in counting mode, e.g. under the E-IR benchmark); NOT part of the
    # engine-differential contract — O0 and O2 legitimately differ here.
    instrs: int = 0
    # Per-pass optimizer rewrite totals for the program that ran
    # (fold/copyprop/cse/licm/strength/dce/functions/bailouts), attached
    # once after the run from the compiled program — compile-time facts,
    # so merge() deliberately leaves them alone.
    opt_counts: dict[str, int] = field(default_factory=dict,
                                       metadata={"merge": "skip"})
    # Always 0: the VM has no quickening, deopts or inline caches (the
    # E-ABL ablation in EXPERIMENTS.md found no win).  Kept because the
    # e2e benchmark's per-layer counters read them.
    quickened: int = 0
    deopts: int = 0
    ic_misses: int = 0
    # Bounds guards the S25 interval proof let the compiler drop.  NOT
    # part of the engine-differential contract (the tree walker keeps
    # every guard).
    guards_elided: int = 0

    @property
    def leaked(self) -> int:
        return self.allocs - self.frees

    def bail(self, which: str, reason: str) -> None:
        d = (self.fastloop_bails if which == "fastloop" else
             self.compile_bails if which == "compile" else self.shard_bails)
        d[reason] = d.get(reason, 0) + 1

    def merge(self, other: "InterpStats") -> "InterpStats":
        """Fold another stats record into this one (left-to-right).

        Used by the S23 fork-join pool to combine per-worker/per-task
        counters into the parent: counts add, lists (``region_sizes``)
        extend in shard order, count dicts add per key — so a pooled run's
        merged stats are identical to the sequential run's.  A field
        whose ``merge`` metadata is ``"skip"`` is left alone."""
        for f in fields(self):
            if f.metadata.get("merge") == "skip":
                continue
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, list):
                mine.extend(theirs)
            elif isinstance(mine, dict):
                for k, v in theirs.items():
                    mine[k] = mine.get(k, 0) + v
            else:
                setattr(self, f.name, mine + theirs)
        return self


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any):
        self.value = value


class Scope:
    __slots__ = ("vars", "parent")

    def __init__(self, parent: "Scope | None" = None):
        self.vars: dict[str, Any] = {}
        self.parent = parent

    def lookup_scope(self, name: str) -> "Scope | None":
        s: Scope | None = self
        while s is not None:
            if name in s.vars:
                return s
            s = s.parent
        return None

    def get(self, name: str) -> Any:
        s = self.lookup_scope(name)
        if s is None:
            raise InterpError(f"undefined variable {name!r}")
        return s.vars[name]

    def set(self, name: str, value: Any) -> None:
        s = self.lookup_scope(name)
        if s is None:
            raise InterpError(f"assignment to undefined variable {name!r}")
        s.vars[name] = value

    def declare(self, name: str, value: Any) -> None:
        self.vars[name] = value


def _strided_lanes(i, stride) -> list[int]:
    i, stride = int(i), int(stride)
    return [i, i + stride, i + 2 * stride, i + 3 * stride]


def _check_lanes(what: str, m: "RTMat", lanes) -> None:
    size = m.data.size
    for lane in lanes:
        if not 0 <= lane < size:
            raise RuntimeTrap(f"vector {what} lane index {lane} outside "
                              f"a matrix of {size} elements")


def c_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise RuntimeTrap("integer division by zero")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if b == 0:
        # IEEE 754, as in C: the hardware picks the infinity's sign and
        # the NaN, where Python would raise ZeroDivisionError.
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(a) / np.float64(b))
    return a / b


def c_mod(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise RuntimeTrap("integer modulo by zero")
        return a - c_div(a, b) * b
    return math.fmod(a, b)


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
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
}


class RTRuntime:
    """The shared execution runtime: matrices, stats, intrinsics, I/O.

    Both Python engines — the tree-walking :class:`Interpreter` and the
    bytecode :class:`repro.cexec.vm.VM` — execute against this exact
    runtime, so observable behavior (stdout, stats counters, traps) is
    engine-independent by construction.
    """

    def __init__(self, *, workdir: str | Path = ".", nthreads: int = 1):
        self.workdir = Path(workdir)
        self.nthreads = max(1, nthreads)
        self.stats = InterpStats()
        self.stdout: list[str] = []

    def close(self) -> None:
        """Release execution resources.  The base runtime holds none;
        the VM overrides this to quiesce its fork-join worker pool."""

    # -- refcounting ---------------------------------------------------------

    def _rc_inc(self, m: "RTMat | None") -> None:
        if m is not None:
            m.rc += 1

    def _rc_dec(self, m: "RTMat | None") -> None:
        if m is None:
            return
        m.rc -= 1
        if m.rc == 0:
            self.stats.frees += 1
            m.data = np.empty(0, dtype=m.data.dtype)  # poison reuse
        elif m.rc < 0:
            raise RuntimeTrap("refcount underflow (double free)")

    # -- I/O and printing ----------------------------------------------------

    def _read_matrix(self, fname: str) -> RTMat:
        arr = read_rmat(self.workdir / fname)
        kind = "f" if arr.dtype.kind == "f" else "i"
        self.stats.allocs += 1
        return RTMat(kind, arr.shape,
                     arr.reshape(-1).astype(np.float32 if kind == "f" else np.int32))

    def _write_matrix(self, fname: str, m: RTMat) -> None:
        write_rmat(self.workdir / fname, m.as_numpy())

    def _print_int(self, v) -> None:
        self.stdout.append(str(int(v)))

    def _print_float(self, v) -> None:
        self.stdout.append(f"{v:g}")

    # -- runtime intrinsics (rt_*) -------------------------------------------

    def _alloc(self, kind: str, rank: int, dims: list[int]) -> RTMat:
        dims = tuple(int(d) for d in dims[:rank])
        if any(d < 0 for d in dims):
            raise RuntimeTrap(f"negative dimension in allocation: {dims}")
        size = 1
        for d in dims:
            size *= d
        self.stats.allocs += 1
        dtype = np.float32 if kind == "f" else np.int32
        return RTMat(kind, dims, np.zeros(size, dtype=dtype))

    def rt_allocf(self, rank, d0, d1, d2, d3):
        return self._alloc("f", int(rank), [d0, d1, d2, d3])

    def rt_alloci(self, rank, d0, d1, d2, d3):
        return self._alloc("i", int(rank), [d0, d1, d2, d3])

    def rt_dim(self, m: RTMat, d) -> int:
        return int(m.dims[int(d)])

    def rt_size(self, m: RTMat) -> int:
        return m.size

    def rt_getf(self, m: RTMat, i) -> float:
        return float(m.data[int(i)])

    def rt_setf(self, m: RTMat, i, v) -> None:
        m.data[int(i)] = np.float32(v)

    def rt_geti(self, m: RTMat, i) -> int:
        return int(m.data[int(i)])

    def rt_seti(self, m: RTMat, i, v) -> None:
        m.data[int(i)] = int(v)

    def rt_bounds_check(self, lo, hi, dim, what) -> None:
        if lo < 0 or hi > dim:
            raise RuntimeTrap(f"{what} range [{lo},{hi}) outside dimension {dim}")

    def rt_bounds_ok(self, lo, hi, dim, what) -> None:
        # Residue of a statically-discharged rt_bounds_check: the S25
        # interval fixpoint proved lo >= 0 and hi <= dim on every path
        # (repro.analysis.shapes.proven_in_range), so only the counter
        # survives to run time.
        self.stats.guards_elided += 1

    def rt_require_dim(self, m: "RTMat | None", d, n) -> None:
        if m is None:
            raise RuntimeTrap("use of unallocated matrix")
        if m.dims[int(d)] != int(n):
            raise RuntimeTrap(f"dimension {d} is {m.dims[int(d)]}, expected {n}")

    def rt_check_rank(self, m: RTMat, rank, is_float) -> None:
        want = "f" if is_float else "i"
        if len(m.dims) != int(rank) or m.kind != want:
            raise RuntimeTrap(
                f"matrix has rank {len(m.dims)}/{m.kind}, declared {rank}/{want}"
            )

    def rt_matmul_check(self, a: RTMat, b: RTMat) -> None:
        if len(a.dims) != 2 or len(b.dims) != 2 or a.dims[1] != b.dims[0]:
            raise RuntimeTrap(f"matrix multiply of {a.dims} by {b.dims}")

    def rt_shape_check(self, a: RTMat, b: RTMat, op) -> None:
        if a.dims != b.dims:
            raise RuntimeTrap(f"{op} on shapes {a.dims} vs {b.dims}")

    @staticmethod
    def rt_require_divisible(n, f, what) -> None:
        # Pure (no runtime state), so a loopfast nest plan can evaluate
        # it once to learn whether the scalar nest would trap.
        if f <= 0 or n % f != 0:
            raise RuntimeTrap(f"{what}: trip count {n} not divisible by {f}")

    def rt_assign_copy(self, dst: "RTMat | None", src: RTMat) -> RTMat:
        if dst is not None and src is not None and dst is not src \
                and dst.dims == src.dims and dst.kind == src.kind:
            dst.data[:] = src.data
            self.stats.copies += 1
            self._rc_dec(src)
            return dst
        self._rc_dec(dst)
        return src

    # 4-lane vectors: numpy float32 arrays of length 4
    def rt_vsplatf(self, x):
        return np.full(4, x, dtype=np.float32)

    def rt_viotaf(self, base):
        return np.arange(base, base + 4, dtype=np.float32)

    # Each lane must index the matrix: a short slice or a wrapped
    # negative index would otherwise surface later as a raw numpy error
    # or silently read the wrong element.

    def rt_vloadf(self, m: RTMat, i):
        i = int(i)
        _check_lanes("load", m, (i, i + 3))
        return m.data[i:i + 4].astype(np.float32)

    def rt_vstoref(self, m: RTMat, i, v):
        i = int(i)
        _check_lanes("store", m, (i, i + 3))
        m.data[i:i + 4] = v

    def rt_vgatherf(self, m: RTMat, i, stride):
        lanes = _strided_lanes(i, stride)
        _check_lanes("gather", m, lanes)
        return m.data[lanes].astype(np.float32)

    def rt_vscatterf(self, m: RTMat, i, stride, v):
        lanes = _strided_lanes(i, stride)
        _check_lanes("scatter", m, lanes)
        m.data[lanes] = v

    def rt_vaddf(self, a, b):
        return a + b

    def rt_vsubf(self, a, b):
        return a - b

    def rt_vmulf(self, a, b):
        return a * b

    def rt_vdivf(self, a, b):
        return a / b

    def rt_vsumf(self, v):
        return float(v[0] + v[1] + v[2] + v[3])


class Interpreter(RTRuntime):
    """Executes a lowered Root node by walking the tree."""

    def __init__(self, lowered_root: Node, ctx, *, workdir: str | Path = ".",
                 nthreads: int = 1):
        super().__init__(workdir=workdir, nthreads=nthreads)
        self.functions: dict[str, Node] = {}
        for f in node_cons_to_list(lowered_root.children[0]):
            self.functions[f.children[1]] = f
        # lifted pool workers: name -> (body Node, capture names).  Cilk
        # SpawnedFuncs carry no tree body (the interpreter runs spawned
        # calls inline) and are skipped.
        self.lifted: dict[str, tuple[Node, list[str]]] = {}
        for lf in getattr(ctx, "lifted", []):
            if hasattr(lf, "body"):
                self.lifted[lf.name] = (lf.body, [n for _t, n in lf.captures])

    # -- entry points ------------------------------------------------------------

    def run_main(self, argv: list[str] | None = None) -> int:
        if "main" not in self.functions:
            raise InterpError("no main function")
        with np.errstate(all="ignore"):  # IEEE specials are silent, as in C
            out = self.call_function("main", [])
        return int(out) if out is not None else 0

    def call_function(self, name: str, args: list[Any]) -> Any:
        func = self.functions.get(name)
        if func is None:
            raise InterpError(f"call to unknown function {name!r}")
        _rett, _name, params, body = func.children
        scope = Scope()
        pnames = [p.children[1] for p in node_cons_to_list(params)]
        if len(pnames) != len(args):
            raise InterpError(f"{name}: expected {len(pnames)} args, got {len(args)}")
        for p, a in zip(pnames, args):
            scope.declare(p, a)
        try:
            self.exec_stmt(body, scope)
        except _Return as r:
            return r.value
        return None

    # -- statements -----------------------------------------------------------------

    def exec_stmt(self, node: Node, scope: Scope) -> None:
        p = node.prod
        ch = node.children
        if p == "block":
            inner = Scope(scope)
            for s in node_cons_to_list(ch[0]):
                self.exec_stmt(s, inner)
        elif p == "seqStmt":
            for s in node_cons_to_list(ch[0]):
                self.exec_stmt(s, scope)
        elif p in ("decl",):
            scope.declare(ch[1], _zero_of(ch[0]))
        elif p == "declInit":
            scope.declare(ch[1], self.eval(ch[2], scope))
        elif p == "exprStmt":
            self.eval(ch[0], scope)
        elif p == "ifStmt":
            if self._truthy(self.eval(ch[0], scope)):
                self.exec_stmt(ch[1], scope)
        elif p == "ifElse":
            if self._truthy(self.eval(ch[0], scope)):
                self.exec_stmt(ch[1], scope)
            else:
                self.exec_stmt(ch[2], scope)
        elif p == "whileStmt":
            while self._truthy(self.eval(ch[0], scope)):
                try:
                    self.exec_stmt(ch[1], scope)
                except _Break:
                    break
                except _Continue:
                    continue
        elif p == "doWhile":
            while True:
                try:
                    self.exec_stmt(ch[0], scope)
                except _Break:
                    break
                except _Continue:
                    pass
                if not self._truthy(self.eval(ch[1], scope)):
                    break
        elif p == "forStmt":
            inner = Scope(scope)
            init = ch[0]
            if init.prod == "forDecl":
                inner.declare(init.children[1], self.eval(init.children[2], inner))
            else:
                self.eval(init.children[0], inner)
            while self._truthy(self.eval(ch[1], inner)):
                try:
                    self.exec_stmt(ch[3], inner)
                except _Break:
                    break
                except _Continue:
                    pass
                self.eval(ch[2], inner)
        elif p == "returnStmt":
            raise _Return(self.eval(ch[0], scope))
        elif p == "returnVoid":
            raise _Return(None)
        elif p == "breakStmt":
            raise _Break()
        elif p == "continueStmt":
            raise _Continue()
        elif p == "rawStmt":
            text = ch[0].strip()
            if not text.startswith("#pragma"):
                raise InterpError(f"cannot interpret raw statement {text!r}")
        else:
            raise InterpError(f"cannot interpret statement {p!r}")

    @staticmethod
    def _truthy(v: Any) -> bool:
        return bool(v)

    # -- expressions ------------------------------------------------------------------

    def eval(self, node: Node, scope: Scope) -> Any:
        p = node.prod
        ch = node.children
        if p == "intLit":
            return ch[0]
        if p == "floatLit":
            return float(np.float32(ch[0]))
        if p == "boolLit":
            return int(ch[0])
        if p == "strLit":
            return ch[0]
        if p == "var":
            return scope.get(ch[0])
        if p == "rawExpr":
            if ch[0] == "NULL":
                return None
            raise InterpError(f"cannot interpret raw expression {ch[0]!r}")
        if p == "binop":
            op = ch[0]
            if op == "&&":
                return int(self._truthy(self.eval(ch[1], scope))
                           and self._truthy(self.eval(ch[2], scope)))
            if op == "||":
                return int(self._truthy(self.eval(ch[1], scope))
                           or self._truthy(self.eval(ch[2], scope)))
            a = self.eval(ch[1], scope)
            b = self.eval(ch[2], scope)
            return _BINOPS[op](a, b)
        if p == "unop":
            v = self.eval(ch[1], scope)
            return -v if ch[0] == "-" else int(not self._truthy(v))
        if p == "assign":
            if ch[0].prod != "var":
                raise InterpError(f"assignment target {ch[0].prod!r} in lowered code")
            value = self.eval(ch[1], scope)
            scope.set(ch[0].children[0], value)
            return value
        if p == "castE":
            v = self.eval(ch[1], scope)
            return cast_value(ch[0], v)
        if p == "call":
            return self.eval_call(node, scope)
        raise InterpError(f"cannot interpret expression {p!r}")

    # -- calls ------------------------------------------------------------------------

    def eval_call(self, node: Node, scope: Scope) -> Any:
        name = node.children[0]
        argnodes = node_cons_to_list(node.children[1])

        if name == "__rt_pool_run":
            return self._pool_run(argnodes, scope)
        if name in ("__rt_spawn", "__rt_spawn_into"):
            # Cilk sequential elision: run the spawned call inline.
            into = name == "__rt_spawn_into"
            callee = argnodes[1].children[0]
            target = argnodes[2].children[0] if into else None
            value_args = [self.eval(a, scope)
                          for a in (argnodes[3:] if into else argnodes[2:])]
            self.stats.tasks_spawned += 1
            result = self.call_function(callee, value_args)
            if target is not None:
                scope.set(target, result)
            return None
        if name == "rt_sync":
            return None  # elided tasks are already complete
        if name.startswith("__tuple_"):
            return tuple(self.eval(a, scope) for a in argnodes)
        if name.startswith("__tget_"):
            idx = int(name[len("__tget_"):])
            return self.eval(argnodes[0], scope)[idx]

        args = [self.eval(a, scope) for a in argnodes]
        intrinsic = getattr(self, f"rt_{name[3:]}", None) if name.startswith("rt_") else None
        if intrinsic is not None:
            return intrinsic(*args)
        if name == "rc_inc":
            self._rc_inc(args[0])
            return None
        if name == "rc_dec":
            self._rc_dec(args[0])
            return None
        if name == "readMatrix":
            return self._read_matrix(args[0])
        if name == "writeMatrix":
            self._write_matrix(args[0], args[1])
            return None
        if name == "printInt":
            self._print_int(args[0])
            return None
        if name == "printFloat":
            self._print_float(args[0])
            return None
        return self.call_function(name, args)

    def _pool_run(self, argnodes: list[Node], scope: Scope) -> None:
        fname = argnodes[0].children[0]
        total = int(self.eval(argnodes[1], scope))
        captures = [self.eval(a, scope) for a in argnodes[2:]]
        body, names = self.lifted[fname]
        self.stats.parallel_regions += 1
        self.stats.region_sizes.append(total)
        per = -(-total // self.nthreads)
        for t in range(self.nthreads):
            lo, hi = min(t * per, total), min((t + 1) * per, total)
            if lo >= hi:
                continue
            s = Scope()
            for n, v in zip(names, captures):
                s.declare(n, v)
            s.declare("__lo", lo)
            s.declare("__hi", hi)
            self.exec_stmt(body, s)


def cast_value(type_node: Node, v: Any) -> Any:
    """C cast semantics shared by both engines: integral casts truncate,
    casts to float *or double* narrow through float32 (matrix storage is
    float32, and ``floatLit`` narrows the same way — a cast must not be
    able to smuggle extra precision past the declared C type)."""
    ctype = type_node.children[0] if type_node.prod == "tRaw" else type_node.prod
    if isinstance(ctype, str):
        ctype = ctype.strip()
    if ctype in ("tInt", "int", "long", "tBool", "tChar"):
        return int(v)
    if ctype in ("tFloat", "float", "double"):
        return float(np.float32(v))
    return v


def _zero_of(type_node: Node) -> Any:
    if type_node.prod == "tRaw":
        text = type_node.children[0]
        if "rt_mat" in text:
            return None
        if text in ("float", "double"):
            return 0.0
        return 0
    if type_node.prod == "tFloat":
        return 0.0
    return 0


ENGINES = ("vm", "tree")


def make_engine(lowered, ctx, *, engine: str = "vm",
                workdir: str | Path = ".", nthreads: int = 1, program=None,
                parallel_backend: str | None = None) -> RTRuntime:
    """An executor for a lowered tree: the bytecode VM (default) or the
    tree-walking reference interpreter.  Both expose ``run_main``,
    ``call_function``, ``stats`` and ``stdout``.

    ``nthreads > 1`` gives the VM an S23 fork-join worker pool;
    ``parallel_backend`` selects where shards execute — ``"thread"``
    (S23 pool), ``"process"`` (S27 shared-memory process pool with
    thread fallback for ineligible regions) or ``"auto"`` (process when
    eligible, else thread); ``None`` defers to
    ``REPRO_PARALLEL_BACKEND``, defaulting to threads.  The tree-walker
    is always sequential and ignores both.  ``program`` may supply a
    prebuilt :class:`~repro.cexec.bytecode.BytecodeProgram` to the VM."""
    if engine in ("vm", "bytecode"):
        from repro.cexec.vm import VM

        return VM(lowered, ctx, workdir=workdir, nthreads=nthreads,
                  program=program, parallel_backend=parallel_backend)
    if engine in ("tree", "interp"):
        return Interpreter(lowered, ctx, workdir=workdir, nthreads=nthreads)
    raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")


def run_program(
    source: str,
    extensions: list[str],
    inputs: dict[str, np.ndarray] | None = None,
    *,
    workdir: str | Path | None = None,
    output_names: list[str] | None = None,
    nthreads: int | None = None,
    options=None,
    engine: str = "vm",
    parallel_backend: str | None = None,
) -> tuple[int, dict[str, np.ndarray], InterpStats, "RTRuntime"]:
    """Translate and execute an extended-C program with RMAT inputs.

    ``engine`` selects the Python execution engine: ``"vm"`` (register
    bytecode + numpy-batched loops, the default) or ``"tree"`` (the
    tree-walking reference).  Both produce identical observable behavior.

    ``nthreads`` sizes the VM's S23 fork-join pool; ``None`` defers to
    the ``REPRO_THREADS`` environment variable (default 1).
    ``parallel_backend`` picks thread, process, or auto shard execution
    (``None`` defers to ``REPRO_PARALLEL_BACKEND``).  Any thread count
    and backend is observationally identical to ``nthreads=1``.
    """
    import tempfile
    from contextlib import nullcontext

    from repro.api import compile_source
    from repro.cexec.parallel import resolve_nthreads

    nthreads = resolve_nthreads(nthreads)
    cr = compile_source(source, extensions, options=options, nthreads=nthreads)
    if not cr.ok:
        raise InterpError("translation failed:\n" + "\n".join(cr.errors))
    # A directory made here is removed on every exit, once the outputs
    # are read; a caller's directory is left as it is.
    with (nullcontext(workdir) if workdir
          else tempfile.TemporaryDirectory(prefix="repro-interp-")) as wd:
        wd = Path(wd)
        wd.mkdir(parents=True, exist_ok=True)
        for name, arr in (inputs or {}).items():
            write_rmat(wd / name, arr)
        executor = make_engine(cr.lowered, cr.ctx, engine=engine,
                               workdir=wd, nthreads=nthreads,
                               parallel_backend=parallel_backend)
        try:
            rc = executor.run_main()
        finally:
            executor.close()  # quiesce and release any worker pool
        prog = getattr(executor, "program", None)
        if prog is not None:
            executor.stats.opt_counts = dict(
                getattr(prog, "opt_counts", {}) or {})
        outputs = {}
        for name in output_names or []:
            path = wd / name
            if path.exists():
                outputs[name] = read_rmat(path)
    return rc, outputs, executor.stats, executor
