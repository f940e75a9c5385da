"""Guarded numpy fast path for compiled loops and rectangular loop nests.

:func:`try_fast_loop` pattern-matches a ``forStmt`` at bytecode-compile
time: a ``for (long v = start; v < limit; v = v + c)`` (``<=`` and any
positive constant step also match), or a **rectangular nest** (up to
3-D) of such loops whose inner bounds are invariant across the nest, whose body
is a flat sequence of matrix stores (``rt_setf``/``rt_seti`` with any
index expression over the loop variables) and scalar reductions
(``acc = acc + E`` / ``acc = acc * E``).  When it matches, the whole
iteration space executes as vectorized numpy operations — gathers via
fancy indexing, stores via fancy-index assignment, reductions via
``np.cumsum``/``np.cumprod`` (which numpy evaluates strictly
left-to-right, unlike the pairwise ``np.sum``) — producing **bit-exact**
the same float64/float32 results as the scalar loops.

A **fold nest** is a rectangular nest whose innermost body declares its
accumulators, folds into them, and stores once per iteration —
``declInit*; for (k …) { acc = acc (+|*) E; … }; store+``, with several
folds allowed one after another.  fig1's lifted with-loop body
(``means[i,j] = fold(+, 0.0, mat[i,j,k]) / p``) has this shape.  Its
plan computes every accumulator of the shard as a vector over the
outer iterations, in blocks of whole outer rows of at most
:data:`FOLD_BLOCK` fold iterations (``np.cumsum``/``np.cumprod`` along
a ``(rows, 1 + nk)`` chain that starts at the initial value), then
evaluates the stores with each accumulator bound to its vector.  The
declared names belong to the plan, never to the frame, so it writes
back no slot.  Its trip count is the outer count times the fold
iterations of one outer iteration.

When a plan is entered: the ``fastloop`` instruction first evaluates
the loop bounds (:meth:`Plan.trip_count`).  A flattened iteration space
of fewer than :data:`MIN_TRIP` iterations — zero-trip spaces included —
continues straight into the scalar loop, because a plan's fixed numpy
cost outweighs a few scalar iterations; that is a choice, not a
refusal, so neither :meth:`Plan.run` nor the bail ledger sees it.  A
larger space, or one whose trip count is unknown (a non-integer bound,
a bound evaluator that raises), enters :meth:`Plan.run`, whose guards
decide.

Exactness is non-negotiable: the plan's guard + compute phase is *pure*
(no frame, matrix, or stats mutation) and every doubtful condition —
non-integer bounds, out-of-range indices, aliasing between a stored and
a loaded matrix (for a fold nest, any fold load from a matrix the nest
stores to), overlapping stores, integer division of vectors or by zero,
a non-float accumulator, a value an ``int32`` store would trap on, a
nest check that would trap — makes
:meth:`Plan.run` return ``False`` *before anything is
committed*, so the scalar bytecode loop compiled right behind the
``fastloop`` instruction reproduces the exact behavior, including traps
at the correct iteration with the correct partial state.  Only after
every guard passes does the commit phase (which cannot fail) write
stores and accumulators back.  (When a nest plan bails, the scalar
outer loops still run the *inner* loops' own plans per row, so
partially vectorizable nests degrade gracefully instead of all the way
to scalar.)

Affine interval reasoning (S25) discharges the runtime guards cheaply:
a store index recognized at compile time as ``c0 + Σ coeff·v`` over the
loop variables (coefficients loop-invariant integers) gets its bounds
checked from the interval corners and its index-uniqueness *proven* —
sorting axes by stride, each stride must clear the combined value span
of the axes below it (:func:`repro.ir.affine.nest_injective`, any
depth) — instead of scanned with ``np.unique``.  This is what admits non-unit strides
(``m[2*i+1]``) and 2-D row-major layouts (``m[i*w + j]``) that the
conservative monotone-scan guard used to reject, and it also provides
the interval/congruence evidence for allowing *multiple* stores to one
matrix when their index sets are identical (commit order = statement
order, last write wins, exactly like the scalar body) or provably
disjoint.

**Lanes.**  The transform extension's 4-lane vector code (paper §V,
Fig. 11) runs in the same plans with a trailing lane axis.  Its 11
``rt_v*`` intrinsics evaluate as ``(n, 4)`` float32 arrays (``(4,)``
when invariant) that compute exactly what the :class:`RTRuntime`
methods compute: float32 arithmetic, ``rt_vsplatf``'s rounding of an
int through float64, ``np.arange``'s float32 fill for ``rt_viotaf``,
and a left-to-right ``rt_vsumf``.  A lane fold ``acc =
rt_vaddf|rt_vmulf(acc, E)`` runs along a ``(rows, 1 + nk, 4)`` float32
chain.  ``rt_vstoref``/``rt_vscatterf`` stores index ``i + lane *
stride`` and pass the same range, injectivity, overlap and alias guards
with the lanes as one more axis.  A float32 array is a lane value and
nothing else is: a lane read where a scalar is expected, or the
reverse, bails.

**Nest checks.**  A nest level may open with pure checks
(:data:`_NEST_CHECKS`, the split and vectorize transforms'
``rt_require_divisible``) whose arguments read no loop variable.  The
plan evaluates each once and bails when the scalar nest would run it
(every loop around it has an iteration, even when a level inside is
empty) and trap.  Integer ``/`` on two scalars evaluates with
:func:`~repro.cexec.interp.c_div` and bails only on a zero divisor;
integer division of vectors still bails.

Allocation/copy/region stats are untouched by design: the matched
statement forms never allocate, copy, or open pool regions.

Thread-safety contract (S23/S27): one :class:`Plan` is embedded in its
function's *shared* instruction array, and the fork-join pool executes
that same array concurrently on every worker, each with a private frame
over a disjoint chunk of the iteration space.  :meth:`Plan.run` must
therefore stay reentrant — all per-execution state lives in the
per-call :class:`_Run`, never on the plan — and its numpy batch
operations are exactly the calls that release the GIL, which is what
makes sharding profitable at all.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ag.tree import Node
from repro.cexec.interp import RTRuntime, RuntimeTrap, c_div

# Largest total trip count the fast path will materialize arrays for;
# above this the scalar loop runs (slow but O(1) memory).  For a fold
# nest it caps the outer count, which sizes the only full-length arrays
# that plan builds, and the length of one fold axis.
MAX_TRIP = 1 << 24

# Smallest total trip count the ``fastloop`` instruction enters a plan
# for; shorter loops run the scalar loop behind it.  A plan pays a fixed
# cost in numpy calls (20-40 us on a 2-vCPU x86_64 VM) against about
# 1 us per scalar iteration: below 16 the scalar loop wins for every
# plan shape, from 16 to 32 the two are within a few us.  The E-XO
# benchmark (benchmarks/test_bench_interp.py) gates both sides.
MIN_TRIP = 16

# Most fold elements a fold-nest plan materializes at once: its folds
# run in blocks of whole outer rows up to this many iterations (a
# quarter as many for a fold over 4-lane vectors).  On fig1's
# 128x128x256 cube (2-vCPU x86_64 VM) 64K-iteration blocks ran fastest
# and kept the peak RSS of per-element plans; whole-shard blocks ran
# 2.3x slower and tripled it (DESIGN S27, "Fold-nest plans").  fig9's
# lane plan on 48x48x128 ran in 5.5 ms with a 2.7 MB traced peak at 64K
# elements, and in 9.3 ms with 7.6 MB at 64K iterations.
FOLD_BLOCK = 1 << 16

# Affine corner magnitudes past this bail instead of risking int64
# wraparound in the vectorized index arithmetic (the scalar loop
# computes with exact Python ints and traps on the range check).
_AFFINE_MAG_CAP = 1 << 62

# Lane offsets of a 4-lane vector, and the pure checks a nest level may
# open with (evaluated once per plan run, see the module docstring).
_LANES = np.arange(4, dtype=np.int64)
_NEST_CHECKS = frozenset(["rt_require_divisible"])


class _Bail(Exception):
    """Raised inside the pure guard/compute phase to fall back."""


class _Run:
    """Per-execution state threaded through the evaluator closures."""

    __slots__ = ("frame", "ivs", "n", "loads", "stmt_i")

    def __init__(self, frame, ivs, n):
        self.frame = frame
        self.ivs = ivs        # var name -> int64 flattened index vector
        self.n = n            # total (flattened) trip count
        self.loads = []       # (mat_object, idx_array, stmt_i)
        self.stmt_i = 0


def _is_intlike(x) -> bool:
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iub"
    return isinstance(x, (int, np.integer))  # includes bool


def _index_array(x, n: int) -> np.ndarray:
    """Validate and broadcast an index operand to an int64 vector."""
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "iub":
            raise _Bail("non-integer index vector")
        return x.astype(np.int64, copy=False)
    if not _is_intlike(x):
        raise _Bail("non-integer scalar index")
    return np.full(n, int(x), dtype=np.int64)


def _as_f64(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.float64, copy=False)
    return np.float64(x)


def _is_lane(x) -> bool:
    """A lane value: ``(4,)`` when invariant, ``(n, 4)`` per iteration."""
    return isinstance(x, np.ndarray) and x.dtype == np.float32 \
        and x.shape[-1:] == (4,)


def _scalar_of(x):
    if isinstance(x, np.ndarray) and x.dtype == np.float32:
        raise _Bail("vector value where a scalar is expected")
    return x


def _lane_of(x):
    if not _is_lane(x):
        raise _Bail("scalar value where a vector is expected")
    return x


def _acc_ok(x) -> bool:
    """A foldable accumulator: a float or one invariant lane vector."""
    return isinstance(x, float) or (_is_lane(x) and x.ndim == 1)


def _lane_index(base, stride, n: int) -> tuple[np.ndarray, int, int]:
    """The ``(n, 4)`` lane indices ``base + lane * stride`` and exact
    bounds on them.  The bounds come from the corners in Python ints, so
    a caller that checks them against the matrix size also rules out
    int64 wraparound in the array."""
    base = _index_array(base, n)
    if isinstance(stride, np.ndarray):
        stride = _index_array(stride, n)
        s_lo, s_hi = int(stride.min()), int(stride.max())
        stride = stride[:, None]
    elif _is_intlike(stride):
        stride = s_lo = s_hi = int(stride)
    else:
        raise _Bail("non-integer lane stride")
    b_lo, b_hi = int(base.min()), int(base.max())
    return (base[:, None] + stride * _LANES,
            min(b_lo, b_lo + 3 * s_lo), max(b_hi, b_hi + 3 * s_hi))


def _splat(x):
    """``rt_vsplatf`` of a scalar (the runtime's own ``np.full``) or of
    one value per iteration."""
    if not isinstance(x, np.ndarray):
        return np.full(4, x, dtype=np.float32)
    # np.full rounds a Python int through float64 on the way to float32
    x = x.astype(np.float64, copy=False).astype(np.float32)
    return np.broadcast_to(x[:, None], (x.size, 4))


def _iota(b):
    """``rt_viotaf``: ``np.arange(b, b + 4, dtype=np.float32)`` per base.
    numpy rounds the first two values through float64 and fills the
    rest as ``start + i * (second - start)`` in float32."""
    if not isinstance(b, np.ndarray):
        v = np.arange(b, b + 4, dtype=np.float32)
        if v.shape != (4,):
            raise _Bail("iota base gives no 4 lanes")
        return v
    if b.dtype.kind not in "iu" \
            or max(-int(b.min()), int(b.max())) > _AFFINE_MAG_CAP:
        raise _Bail("iota base not a small integer")
    out = np.empty((b.size, 4), np.float32)
    out[:, 0] = b.astype(np.float64)
    out[:, 1] = (b + 1).astype(np.float64)
    delta = out[:, 1] - out[:, 0]
    out[:, 2] = out[:, 0] + np.float32(2) * delta
    out[:, 3] = out[:, 0] + np.float32(3) * delta
    return out


def _fold_chain(init, e, rows: int, nk: int, op: str) -> np.ndarray:
    """Fold ``nk`` terms per row into ``init`` and return each row's
    result.  The ``(rows, 1 + nk)`` chain (``(rows, 1 + nk, 4)`` float32
    for a lane accumulator) holds the initial value in its first column
    and the terms ``e`` (one per row and step, or invariant) after it;
    ``np.cumsum``/``np.cumprod`` along it accumulate strictly left to
    right in the chain's dtype, like the scalar fold.  The first column
    stays even when it is ``0.0``: the scalar ``0.0 + -0.0`` is ``+0.0``,
    so a chain that started at the first term would keep a ``-0.0`` the
    scalar does not."""
    lane = _is_lane(init)
    if lane != _is_lane(e):
        raise _Bail("vector and scalar mixed in one fold")
    tail = (4,) if lane else ()
    chain = np.empty((rows, 1 + nk) + tail,
                     np.float32 if lane else np.float64)
    chain[:, 0] = init
    each = isinstance(e, np.ndarray) and e.ndim > len(tail)
    chain[:, 1:] = e.reshape((rows, nk) + tail) if each else e
    scan = np.cumsum if op == "+" else np.cumprod
    return scan(chain, axis=1, dtype=chain.dtype, out=chain)[:, -1]


def _affine_eval(affine, rt, spans, lane=None):
    """Evaluate a compile-time affine form against the live iteration
    space: returns ``(idx, lo, hi, unique_proven)`` where ``idx`` is the
    full flattened int64 index vector, ``[lo, hi]`` the exact value
    interval (from the per-term corners — the form is separable), and
    ``unique_proven`` whether injectivity over the grid is discharged
    without scanning.  A lane store passes its integer ``lane`` stride:
    the lanes are one more axis (4 values from 0), innermost in
    ``idx``."""
    c0_ev, coeffs = affine
    c0 = c0_ev(rt)
    lo = hi = c0
    mag = abs(c0)
    terms = []
    axes = [(name, cev(rt), spans[name]) for name, cev in coeffs.items()]
    if lane is not None:
        axes.append((None, lane, (0, 3, 1, 4)))
    for name, coef, (first, last, step, count) in axes:
        a, b = coef * first, coef * last
        lo += min(a, b)
        hi += max(a, b)
        mag += max(abs(a), abs(b))
        terms.append((name, coef, step, count))
    if mag > _AFFINE_MAG_CAP:
        raise _Bail("affine index magnitude too large")
    idx = np.full(rt.n, c0, dtype=np.int64)
    for name, coef, step, count in terms:
        if coef and name is not None:
            idx += coef * rt.ivs[name]
    if lane is not None:
        idx = (idx[:, None] + lane * _LANES).reshape(-1)
    # Injectivity: every multi-trip axis must appear with a nonzero
    # stride, and each stride (ascending) must clear the combined value
    # span of the axes below it — blocks nest instead of interleaving.
    # The sorted-stride proof (shared with the IR) works at any depth.
    from repro.ir.affine import nest_injective

    active = [(abs(coef * step), count) for _, coef, step, count in terms
              if count > 1 and coef != 0]
    multi = sum(1 for s in spans.values() if s[3] > 1) + (lane is not None)
    unique = len(active) == multi and nest_injective(active)
    return idx, lo, hi, unique


def _count(first, limit, step: int, inclusive: bool) -> int:
    if not _is_intlike(first) or not _is_intlike(limit):
        raise _Bail("non-integer loop bounds")
    stop = int(limit) + 1 if inclusive else int(limit)
    return max(0, (stop - int(first) + step - 1) // step)


class FoldBody:
    """The innermost body of a fold nest, ``declInit*; for (k …) { acc =
    acc (+|*) E; … }; store+`` (several folds may follow one another).

    ``prefix`` holds the body's declarations, ``(name, ev)`` in statement
    order: the accumulators and the locals such as a fold's lower bound.
    They are never frame slots; the plan binds them by name.  ``folds``
    holds ``(var, start_ev, limit_ev, step, inclusive, reductions)`` per
    fold loop, with reductions ``(stmt_i, acc_name, op, ev)``."""

    __slots__ = ("prefix", "folds")

    def __init__(self, prefix: list, folds: list):
        self.prefix = prefix
        self.folds = folds

    def axes(self, frame) -> tuple[dict, list]:
        """The locals by name (each evaluated once: its initializer reads
        no loop variable, and the nest writes no frame slot) and
        ``(var, first, step, count, reductions)`` per fold loop."""
        binds: dict = {}
        rt = _Run(frame, binds, 1)
        for name, ev in self.prefix:
            binds[name] = ev(rt)
        folds = []
        for var, start_ev, limit_ev, step, incl, reds in self.folds:
            first = start_ev(rt)
            count = _count(first, limit_ev(rt), step, incl)
            folds.append((var, int(first), step, count, reds))
        return binds, folds


class Plan:
    """A matched loop (nest): evaluator closures plus guarded commits."""

    def __init__(self, loops: list, stores: list, reductions: list,
                 fold: FoldBody | None = None, checks: list = ()):
        # loops: (var_name, start_ev, limit_ev, step:int, inclusive:bool)
        #        outermost first
        # stores: (stmt_i, kind "f"|"i"|"v", mat_slot, idx_ev, val_ev,
        #          affine, stride_ev)
        #        affine: None | (const_ev, {var_name: coeff_ev})
        #        stride_ev: a lane store's lane stride, else None
        # reductions: (stmt_i, acc_slot, op "+"|"*", ev)
        # fold: the innermost fold body of a fold nest, else None
        # checks: (level, check, arg_evs) per nest check, run by the
        #        scalar nest once per iteration of loops 0..level
        self.loops = loops
        self.stores = stores
        self.reductions = reductions
        self.fold = fold
        self.checks = checks
        # Frame slots the evaluator closures read / the commits write —
        # the pinning contract the mid-level IR (S28) honors around the
        # opaque ``fastloop`` instruction.  Filled by try_fast_loop.
        self.read_slots: frozenset[int] = frozenset()
        self.write_slots: frozenset[int] = frozenset()

    @property
    def steps(self):
        folded = [] if self.fold is None else \
            [r for *_, reds in self.fold.folds for r in reds]
        return self.stores + self.reductions + folded

    @property
    def label(self) -> str:
        """The loop variables, e.g. ``i,j fold k`` for a fold nest."""
        text = ",".join(v for v, *_ in self.loops)
        if self.fold is not None:
            text += " fold " + ",".join(v for v, *_ in self.fold.folds)
        return text

    def run(self, frame, stats=None) -> bool:
        """Execute the whole loop; True on success, False to fall back.

        Phase 1 (guard + compute) is pure: any exception — a _Bail from
        a guard, or anything unforeseen — aborts with no state changed.
        Phase 2 (commit) performs only infallible numpy writes.

        When ``stats`` (an :class:`~repro.cexec.interp.InterpStats`) is
        given, each fallback records the guard's reason so ``reproc
        --stats`` can report *why* the scalar loop ran.
        """
        try:
            commits = self._compute(frame)
        except _Bail as bail:
            if stats is not None:
                stats.bail("fastloop", str(bail))
            return False
        except Exception as err:  # pragma: no cover - defensive
            if stats is not None:
                stats.bail("fastloop", f"unexpected {type(err).__name__}")
            return False
        for c in commits:
            c()
        return True

    def trip_count(self, frame) -> int | None:
        """The flattened trip count (for a fold nest, the outer count
        times the fold iterations of one outer iteration), or None when
        it is unknown — a non-integer bound or a bound evaluator that
        raises — in which case :meth:`run` decides and records why."""
        try:
            n = self._axes(frame)[1]
            if n and self.fold is not None:
                n *= sum(f[3] for f in self.fold.axes(frame)[1])
            return n
        except Exception:
            return None

    def _axes(self, frame) -> tuple[list, int]:
        """``(name, first, step, count)`` per loop, outermost first, and
        the flattened trip count."""
        rt0 = _Run(frame, {}, 0)
        axes = []
        n = 1
        for name, start_ev, limit_ev, step, inclusive in self.loops:
            start = start_ev(rt0)
            count = _count(start, limit_ev(rt0), step, inclusive)
            axes.append((name, int(start), step, count))
            n *= count
        return axes, n

    def _compute(self, frame) -> list:
        axes, n = self._axes(frame)
        for level, check, arg_evs in self.checks:
            if all(count for *_, count in axes[:level + 1]):
                rt0 = _Run(frame, {}, 1)
                try:
                    check(*[ev(rt0) for ev in arg_evs])
                except RuntimeTrap:
                    raise _Bail("nest check would trap") from None
        if n == 0:
            return []  # zero-trip space: nothing to run, nothing to skip
        if n > MAX_TRIP:
            raise _Bail("trip count too large to materialize")
        # Flattened row-major index vectors (outermost varies slowest),
        # mirroring the scalar nest's execution order exactly.
        ivs: dict[str, np.ndarray] = {}
        spans: dict[str, tuple] = {}
        reps_after, reps_before = n, 1
        for name, first, step, count in axes:
            reps_after //= count
            iv = np.arange(first, first + count * step, step, dtype=np.int64)
            if reps_after > 1:
                iv = np.repeat(iv, reps_after)
            if reps_before > 1:
                iv = np.tile(iv, reps_before)
            ivs[name] = iv
            spans[name] = (first, first + (count - 1) * step, step, count)
            reps_before *= count
        fold_loads: set[int] = set()
        if self.fold is not None:
            binds, fold_loads = _fold_phase(self.fold, frame, ivs, n)
            ivs = {**ivs, **binds}
        rt = _Run(frame, ivs, n)
        commits: list[Callable[[], None]] = []

        # id(mat) -> list of (idx_array, stmt_i, lo, hi)
        stored: dict[int, list] = {}
        for stmt_i, kind, mat_slot, idx_ev, val_ev, affine, stride_ev \
                in self.stores:
            rt.stmt_i = stmt_i
            mat = frame[mat_slot]
            data = getattr(mat, "data", None)
            if not isinstance(data, np.ndarray):
                raise _Bail("store target is not a matrix")
            stride = None if stride_ev is None else stride_ev(rt)
            if affine is not None:
                if stride is not None \
                        and not isinstance(stride, (int, np.integer)):
                    raise _Bail("non-integer lane stride")
                idx, lo, hi, unique = _affine_eval(
                    affine, rt, spans, None if stride is None
                    else int(stride))
            elif stride is not None:
                idx, lo, hi = _lane_index(idx_ev(rt), stride, n)
                idx = idx.reshape(-1)
                unique = False
            else:
                idx = _index_array(idx_ev(rt), n)
                lo, hi = int(idx.min()), int(idx.max())
                unique = False
            if lo < 0 or hi >= data.size:
                raise _Bail("store index out of range")
            # Duplicate store indices: scalar semantics are last-wins
            # interleaved with loads; too subtle to vectorize.  The
            # affine proof skips the O(n log n) scan entirely.
            if not unique and idx.size > 1 \
                    and not np.all(idx[1:] > idx[:-1]) \
                    and np.unique(idx).size != idx.size:
                raise _Bail("duplicate store indices")
            # Several stores to one matrix are fine when their index
            # sets are identical (commit order = statement order, so
            # the last statement wins per index, like the scalar body)
            # or provably disjoint; partial overlap interleaves.
            for pidx, p_stmt, plo, phi in stored.get(id(mat), ()):
                if idx.shape == pidx.shape and np.array_equal(idx, pidx):
                    continue
                if hi < plo or phi < lo:
                    continue
                if np.intersect1d(idx, pidx, assume_unique=True).size == 0:
                    continue
                raise _Bail("overlapping stores to one matrix")
            stored.setdefault(id(mat), []).append((idx, stmt_i, lo, hi))
            vals = val_ev(rt)
            if kind == "v":
                if data.dtype != np.float32:
                    raise _Bail("vector store to an int matrix")
                out = np.broadcast_to(vals, (n, 4)).reshape(-1)
            elif kind == "f":
                out = np.asarray(_as_f64(vals)).astype(np.float32)
            else:
                v64 = np.asarray(_as_f64(vals))
                if not np.all(np.isfinite(v64)):
                    raise _Bail("non-finite value for integer store")
                out = np.trunc(v64)
                if np.any(out < -2**31) or np.any(out >= 2**31):
                    raise _Bail("integer store out of int32 range")
                out = out.astype(np.int32)
            commits.append(
                lambda data=data, idx=idx, out=out: data.__setitem__(idx, out))

        accs: dict[int, int] = {}
        for stmt_i, acc_slot, op, ev in self.reductions:
            rt.stmt_i = stmt_i
            acc0 = frame[acc_slot]
            if not _acc_ok(acc0):
                raise _Bail("non-float accumulator")
            if acc_slot in accs:
                raise _Bail("two reductions on one accumulator")
            accs[acc_slot] = stmt_i
            # one chain of n terms (IEEE-754 + and * are commutative, so
            # `acc = E op acc` folds the same)
            total = _fold_chain(acc0, ev(rt), 1, n, op)[0]
            total = float(total) if isinstance(acc0, float) else total.copy()
            commits.append(
                lambda frame=frame, s=acc_slot, t=total:
                    frame.__setitem__(s, t))

        # The fold phase keeps no load indices (it runs in blocks), so a
        # fold that loads from any matrix the nest stores to refuses.
        if not fold_loads.isdisjoint(stored):
            raise _Bail("load aliases a stored matrix")
        # Aliasing: a load from a stored matrix is safe when it reads
        # exactly the elements some statement writes *and* textually
        # precedes that store (read-then-write per index; all loads
        # happen before any commit, matching scalar order), or when its
        # index set is provably disjoint from every store's (interval
        # separation first, exact membership scan as the backstop).
        for mat, lidx, l_stmt in rt.loads:
            for sidx, s_stmt, slo, shi in stored.get(id(mat), ()):
                if lidx.shape == sidx.shape and np.array_equal(lidx, sidx):
                    if l_stmt > s_stmt:
                        raise _Bail("load aliases a stored matrix")
                    continue
                if lidx.size == 0:
                    continue
                if int(lidx.max()) < slo or shi < int(lidx.min()):
                    continue
                if not np.isin(lidx, sidx).any():
                    continue
                raise _Bail("load aliases a stored matrix")
        return commits


def _fold_phase(fold: FoldBody, frame, ivs: dict, n: int) -> tuple[dict, set]:
    """Run every fold of a fold nest over the ``n`` flattened outer
    iterations (``ivs``).  Returns the bindings the stores evaluate
    under — the locals as declared, each accumulator as its f64 vector
    (``(n, 4)`` float32 for a lane accumulator) — and the ids of the
    matrices the folds load from.

    A fold runs in blocks of whole outer rows of at most
    :data:`FOLD_BLOCK` elements (one row when the fold axis alone is
    longer), one :func:`_fold_chain` per block and accumulator.
    """
    binds, folds = fold.axes(frame)
    for *_, reds in folds:
        for _stmt_i, acc, _op, _ev in reds:
            if not _acc_ok(binds[acc]):
                raise _Bail("non-float accumulator")
    loaded: set[int] = set()
    accs: dict[str, np.ndarray] = {}
    for var, first, step, nk, reds in folds:
        if nk > MAX_TRIP:
            raise _Bail("trip count too large to materialize")
        for _stmt_i, acc, _op, _ev in reds:
            accs[acc] = np.full((n,) + np.shape(binds[acc]), binds[acc])
        if nk == 0:
            continue
        width = 4 if any(_is_lane(binds[r[1]]) for r in reds) else 1
        rows = max(1, FOLD_BLOCK // (nk * width))
        ks = np.tile(np.arange(first, first + nk * step, step,
                               dtype=np.int64), min(rows, n))
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            blk = dict(binds)
            for name, iv in ivs.items():
                blk[name] = np.repeat(iv[r0:r1], nk)
            blk[var] = ks[:(r1 - r0) * nk]
            rt = _Run(frame, blk, (r1 - r0) * nk)
            for stmt_i, acc, op, ev in reds:
                rt.stmt_i = stmt_i
                accs[acc][r0:r1] = _fold_chain(binds[acc], ev(rt),
                                               r1 - r0, nk, op)
            loaded.update(id(mat) for mat, _idx, _s in rt.loads)
    binds.update(accs)
    return binds, loaded


# --------------------------------------------------------------------------
# Compile-time matching
# --------------------------------------------------------------------------


def _refs_var(node, name: str) -> bool:
    if not isinstance(node, Node):
        return False
    if node.prod == "var" and node.children[0] == name:
        return True
    return any(_refs_var(c, name) for c in node.children)


def _stmt_list(node: Node, out: list[Node]) -> None:
    """Flatten block/seq structure into a statement list (any kinds)."""
    from repro.cminus.absyn import node_cons_to_list

    if node.prod in ("block", "seqStmt"):
        for s in node_cons_to_list(node.children[0]):
            _stmt_list(s, out)
    else:
        out.append(node)


def _flatten_body(node: Node, out: list[Node]) -> bool:
    stmts: list[Node] = []
    _stmt_list(node, stmts)
    for s in stmts:
        if s.prod != "exprStmt":
            return False
        out.append(s.children[0])
    return True


def _build_ev(fc, node, var_names, lane=False):
    """Expression -> evaluator closure ``rt -> scalar | ndarray``, or
    None when the expression is outside the vectorizable language.
    All frame slots are resolved here, at compile time; loop variables
    (``var_names``) evaluate to their flattened index vectors.  With
    ``lane`` the expression must be a 4-lane vector: a name that holds
    one, or an ``rt_v*`` intrinsic that makes one."""
    if not isinstance(node, Node):
        return None
    p = node.prod
    ch = node.children
    if p == "var":
        of = _lane_of if lane else _scalar_of
        if ch[0] in var_names:
            name = ch[0]
            return lambda rt: of(rt.ivs[name])
        slot = fc.lookup(ch[0])
        if slot is None:
            return None
        return lambda rt: of(rt.frame[slot])
    if p == "call":
        return _build_call_ev(fc, node, var_names, lane)
    if lane:
        return None
    if p == "intLit":
        v = ch[0]
        return lambda rt: v
    if p == "floatLit":
        v = float(np.float32(ch[0]))
        return lambda rt: v
    if p == "boolLit":
        v = int(ch[0])
        return lambda rt: v
    if p == "binop":
        op = ch[0]
        a = _build_ev(fc, ch[1], var_names)
        b = _build_ev(fc, ch[2], var_names)
        if a is None or b is None:
            return None
        if op == "+":
            return lambda rt: a(rt) + b(rt)
        if op == "-":
            return lambda rt: a(rt) - b(rt)
        if op == "*":
            return lambda rt: a(rt) * b(rt)
        if op == "/":
            def div(rt, a=a, b=b):
                x, y = a(rt), b(rt)
                if _is_intlike(x) and _is_intlike(y):
                    if isinstance(x, np.ndarray) \
                            or isinstance(y, np.ndarray):
                        raise _Bail("integer division")
                    if y == 0:
                        raise _Bail("integer division by zero")
                    return c_div(x, y)  # the scalar VM's own truncation
                # IEEE 754 f64 division, zero divisors included (c_div)
                return _as_f64(x) / _as_f64(y)
            return div
        if op in ("<", "<=", ">", ">=", "==", "!="):
            import operator
            f = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                 ">=": operator.ge, "==": operator.eq, "!=": operator.ne}[op]

            def cmp(rt, a=a, b=b, f=f):
                r = f(a(rt), b(rt))
                if isinstance(r, np.ndarray):
                    return r.astype(np.int64)
                return int(r)
            return cmp
        return None  # %, &&, || : scalar semantics too subtle
    if p == "unop":
        v = _build_ev(fc, ch[1], var_names)
        if v is None:
            return None
        if ch[0] == "-":
            return lambda rt: -v(rt)

        def unot(rt, v=v):
            r = v(rt)
            if isinstance(r, np.ndarray):
                return (r == 0).astype(np.int64)
            return int(not r)
        return unot
    if p == "castE":
        from repro.cexec.bytecode import cast_kind

        v = _build_ev(fc, ch[1], var_names)
        if v is None:
            return None
        kind = cast_kind(ch[0])
        if kind is None:
            return v
        if kind == "int":
            def toint(rt, v=v):
                r = v(rt)
                if isinstance(r, np.ndarray):
                    if r.dtype.kind in "iub":
                        return r.astype(np.int64)
                    if not np.all(np.isfinite(r)):
                        raise _Bail("int cast of non-finite")
                    return np.trunc(r).astype(np.int64)
                return int(r)
            return toint

        def tof32(rt, v=v):
            r = v(rt)
            if isinstance(r, np.ndarray):
                return r.astype(np.float32).astype(np.float64)
            return float(np.float32(r))
        return tof32
    return None


# rt_v* arithmetic: float32 in, float32 out, as RTRuntime computes it
_LANE_ARITH = {"rt_vaddf": np.add, "rt_vsubf": np.subtract,
               "rt_vmulf": np.multiply, "rt_vdivf": np.divide}


def _build_lane_call_ev(fc, name: str, args: list, var_names):
    """The ``rt_v*`` intrinsics that make a 4-lane vector."""
    if name in _LANE_ARITH and len(args) == 2:
        a = _build_ev(fc, args[0], var_names, lane=True)
        b = _build_ev(fc, args[1], var_names, lane=True)
        if a is None or b is None:
            return None
        f = _LANE_ARITH[name]
        return lambda rt: f(a(rt), b(rt))
    if name in ("rt_vsplatf", "rt_viotaf") and len(args) == 1:
        x = _build_ev(fc, args[0], var_names)
        if x is None:
            return None
        f = _splat if name == "rt_vsplatf" else _iota
        return lambda rt: f(x(rt))
    if name not in ("rt_vloadf", "rt_vgatherf") \
            or len(args) != (2 if name == "rt_vloadf" else 3) \
            or args[0].prod != "var" or args[0].children[0] in var_names:
        return None
    mslot = fc.lookup(args[0].children[0])
    idx_ev = _build_ev(fc, args[1], var_names)
    stride_ev = (lambda rt: 1) if name == "rt_vloadf" \
        else _build_ev(fc, args[2], var_names)
    if mslot is None or idx_ev is None or stride_ev is None:
        return None

    def vload(rt):
        mat = rt.frame[mslot]
        data = getattr(mat, "data", None)
        if not isinstance(data, np.ndarray):
            raise _Bail("load source is not a matrix")
        idx, lo, hi = _lane_index(idx_ev(rt), stride_ev(rt), rt.n)
        if lo < 0 or hi >= data.size:
            raise _Bail("load index out of range")
        rt.loads.append((mat, idx.reshape(-1), rt.stmt_i))
        return data[idx].astype(np.float32, copy=False)
    return vload


def _build_call_ev(fc, node: Node, var_names, lane=False):
    from repro.cminus.absyn import node_cons_to_list

    name = node.children[0]
    args = node_cons_to_list(node.children[1])
    if lane:
        return _build_lane_call_ev(fc, name, args, var_names)
    if name == "rt_vsumf" and len(args) == 1:
        v = _build_ev(fc, args[0], var_names, lane=True)
        if v is None:
            return None

        def vsum(rt, v=v):
            x = v(rt)
            s = ((x[..., 0] + x[..., 1]) + x[..., 2]) + x[..., 3]
            return float(s) if x.ndim == 1 else s.astype(np.float64)
        return vsum
    if name in ("rt_getf", "rt_geti"):
        if len(args) != 2 or args[0].prod != "var" \
                or args[0].children[0] in var_names:
            return None
        mslot = fc.lookup(args[0].children[0])
        idx_ev = _build_ev(fc, args[1], var_names)
        if mslot is None or idx_ev is None:
            return None
        want = "f" if name == "rt_getf" else "i"

        def load(rt, mslot=mslot, idx_ev=idx_ev, want=want):
            mat = rt.frame[mslot]
            data = getattr(mat, "data", None)
            if not isinstance(data, np.ndarray):
                raise _Bail("load source is not a matrix")
            idx = _index_array(idx_ev(rt), rt.n)
            size = data.size
            if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= size):
                raise _Bail("load index out of range")
            rt.loads.append((mat, idx, rt.stmt_i))
            got = data[idx]
            return got.astype(np.float64) if want == "f" \
                else got.astype(np.int64)
        return load
    if name == "rt_size":
        if len(args) != 1 or args[0].prod != "var" \
                or args[0].children[0] in var_names:
            return None
        mslot = fc.lookup(args[0].children[0])
        if mslot is None:
            return None

        def size(rt, mslot=mslot):
            mat = rt.frame[mslot]
            if not isinstance(getattr(mat, "data", None), np.ndarray):
                raise _Bail("rt_size of a non-matrix")
            return mat.size
        return size
    if name == "rt_dim":
        if len(args) != 2 or args[0].prod != "var" \
                or args[0].children[0] in var_names:
            return None
        mslot = fc.lookup(args[0].children[0])
        d_ev = _build_ev(fc, args[1], ())  # dim index must be invariant
        if mslot is None or d_ev is None \
                or any(_refs_var(args[1], v) for v in var_names):
            return None

        def dim(rt, mslot=mslot, d_ev=d_ev):
            mat = rt.frame[mslot]
            if not isinstance(getattr(mat, "data", None), np.ndarray):
                raise _Bail("rt_dim of a non-matrix")
            return int(mat.dims[int(d_ev(rt))])
        return dim
    return None


def _affine_form(fc, node, var_names):
    """Recognize ``c0 + Σ coeff·v`` over the loop variables with
    loop-invariant integer coefficients.  Returns ``(const_ev,
    {var: coeff_ev})`` — closures ``rt -> int`` that raise :class:`_Bail`
    on non-integer runtime values — or None when the expression is not
    (recognizably) affine.  The matched sub-language is division-free,
    so the vectorized evaluation distributes exactly like the scalar
    one.  The walk itself lives in :mod:`repro.ir.affine` (shared with
    the strength reducer) instantiated over the closure ring; this
    wrapper only supplies the tree predicates and the frame-slot atom."""
    from repro.cexec.bytecode import cast_kind
    from repro.ir.affine import ClosureRing, tree_affine

    def atom(nm):
        slot = fc.lookup(nm)
        if slot is None:
            return None

        def inv(rt, slot=slot):
            x = rt.frame[slot]
            if isinstance(x, np.ndarray) or not _is_intlike(x):
                raise _Bail("non-integer affine term")
            return int(x)
        return inv

    return tree_affine(node, var_names, ClosureRing, atom=atom,
                       refs_var=_refs_var, cast_kind_of=cast_kind,
                       is_node=lambda n: isinstance(n, Node))


# The lane folds: acc = rt_vaddf|rt_vmulf(acc, E)
_LANE_FOLDS = {"rt_vaddf": "+", "rt_vmulf": "*"}


def _match_reduction(e: Node):
    """``acc = acc (+|*) E`` / ``acc = E (+|*) acc``, or the lane fold
    ``acc = rt_vaddf|rt_vmulf(acc, E)``, where E does not mention the
    accumulator.  Returns (acc_name, op, E, lane) or None."""
    from repro.cminus.absyn import node_cons_to_list

    if e.prod != "assign" or e.children[0].prod != "var":
        return None
    acc = e.children[0].children[0]
    rhs = e.children[1]
    if rhs.prod == "call" and rhs.children[0] in _LANE_FOLDS:
        args = node_cons_to_list(rhs.children[1])
        if len(args) != 2 or args[0].prod != "var" \
                or args[0].children[0] != acc:
            return None
        op, other, lane = _LANE_FOLDS[rhs.children[0]], args[1], True
    elif rhs.prod == "binop" and rhs.children[0] in ("+", "*"):
        op, lhs_n, rhs_n = rhs.children
        lane = False
        if lhs_n.prod == "var" and lhs_n.children[0] == acc:
            other = rhs_n
        elif rhs_n.prod == "var" and rhs_n.children[0] == acc:
            other = lhs_n
        else:
            return None
    else:
        return None
    if _refs_var(other, acc):
        return None
    return acc, op, other, lane


# Store intrinsic -> (kind, argument count)
_STORES = {"rt_setf": ("f", 3), "rt_seti": ("i", 3),
           "rt_vstoref": ("v", 3), "rt_vscatterf": ("v", 4)}


def _match_store(fc, e: Node, stmt_i: int, var_names, affine_vars):
    """``rt_setf``/``rt_seti(m, idx, val)``, ``rt_vstoref(m, idx, vec)``
    or ``rt_vscatterf(m, idx, stride, vec)`` -> a :class:`Plan` store, or
    None.  ``var_names`` evaluate from the run's bindings; the index is
    recognized as affine over ``affine_vars`` only when it (and a
    scatter's stride) reads no other bound name."""
    from repro.cminus.absyn import node_cons_to_list

    if e.prod != "call" or e.children[0] not in _STORES:
        return None
    kind, nargs = _STORES[e.children[0]]
    args = node_cons_to_list(e.children[1])
    if len(args) != nargs or args[0].prod != "var" \
            or args[0].children[0] in var_names:
        return None
    mslot = fc.lookup(args[0].children[0])
    idx_ev = _build_ev(fc, args[1], var_names)
    val_ev = _build_ev(fc, args[-1], var_names, lane=kind == "v")
    stride_ev = None
    if kind == "v":
        stride_ev = (lambda rt: 1) if nargs == 3 \
            else _build_ev(fc, args[2], var_names)
    if mslot is None or idx_ev is None or val_ev is None \
            or (kind == "v" and stride_ev is None):
        return None
    affine = None
    if not any(_refs_var(a, v) for a in args[1:nargs - 1]
               for v in var_names if v not in affine_vars) \
            and not any(_refs_var(a, v) for a in args[2:nargs - 1]
                        for v in affine_vars):
        affine = _affine_form(fc, args[1], affine_vars)
    return stmt_i, kind, mslot, idx_ev, val_ev, affine, stride_ev


# Bound expressions may be re-evaluated by the scalar loops (limits every
# iteration, inner-loop starts every outer iteration); the fast path
# reads them once, so they must be provably unchanged by the body:
# literals, plain variables (checked against accumulators), and
# rt_size/rt_dim (matrix *shapes* are immutable, only data mutates).
_LIMIT_PRODS = frozenset(["intLit", "var", "binop", "unop", "castE"])
# A fold nest's declarations are scalars computed once per plan run.
_DECL_PRODS = _LIMIT_PRODS | {"floatLit", "boolLit"}


def _limit_ok(node: Node, prods=_LIMIT_PRODS) -> bool:
    if not isinstance(node, Node):
        return True
    if node.prod == "call":
        if node.children[0] not in ("rt_size", "rt_dim"):
            return False
        from repro.cminus.absyn import node_cons_to_list

        return all(_limit_ok(a, prods)
                   for a in node_cons_to_list(node.children[1]))
    if node.prod not in prods:
        return False
    return all(_limit_ok(c, prods) for c in node.children
               if isinstance(c, Node))


def _parse_header(node: Node):
    """Match one ``for (long v = start; v (<|<=) limit; v = v + c)``
    header with a positive integer-literal step.  Returns ``(var_name,
    start_node, limit_node, step, inclusive, body_node)`` or None."""
    init, cond, step, body = node.children
    if init.prod != "forDecl":
        return None
    var_name = init.children[1]
    if cond.prod != "binop" or cond.children[0] not in ("<", "<=") \
            or cond.children[1].prod != "var" \
            or cond.children[1].children[0] != var_name:
        return None
    inclusive = cond.children[0] == "<="
    limit_node = cond.children[2]
    if step.prod != "assign" or step.children[0].prod != "var" \
            or step.children[0].children[0] != var_name:
        return None
    s_rhs = step.children[1]
    if s_rhs.prod != "binop" or s_rhs.children[0] != "+":
        return None
    a, b = s_rhs.children[1], s_rhs.children[2]
    c = None
    if a.prod == "var" and a.children[0] == var_name and b.prod == "intLit":
        c = int(b.children[0])
    elif b.prod == "var" and b.children[0] == var_name and a.prod == "intLit":
        c = int(a.children[0])
    if c is None or c < 1:
        return None
    start_node = init.children[2]
    if _refs_var(start_node, var_name) or _refs_var(limit_node, var_name):
        # forDecl init reads the *outer* binding of the same name in the
        # scalar compiler; too confusing to mirror — fall back.
        return None
    return var_name, start_node, limit_node, c, inclusive, body


class _SlotRecorder:
    """Proxy over the function compiler that records every frame slot a
    plan's evaluator closures capture — the IR optimizer must keep
    exactly those slots live-and-in-place across the ``fastloop``."""

    __slots__ = ("_fc", "seen")

    def __init__(self, fc):
        self._fc = fc
        self.seen: set[int] = set()

    def lookup(self, name: str):
        s = self._fc.lookup(name)
        if s is not None:
            self.seen.add(s)
        return s


def _is_lane_type(type_node: Node) -> bool:
    return type_node.prod == "tRaw" \
        and str(type_node.children[0]).strip() == "rt_v4f"


def _match_fold_nest(fc, loops: list, outer: tuple, body: Node,
                     checks: list):
    """Match a rectangular nest's innermost body against ``(declInit*
    for)+ store+``: declarations, fold loops whose bodies are flat
    reductions into accumulators declared there, then matrix stores.
    Returns a :class:`Plan` or None.  Declines when a fold bound reads
    an outer loop variable, a declaration reads a loop variable, a store
    reads a fold variable, or an accumulator is read anywhere but in its
    own fold and the stores.  Each name binds as the scalar body would
    see it at that statement: a local only after its declaration, and
    an ``rt_v4f`` local as a lane vector."""
    stmts: list[Node] = []
    _stmt_list(body, stmts)
    local: list[str] = []          # declared names, in statement order
    fold_vars: set[str] = set()
    prefix, folds = [], []
    no_acc: list[Node] = []        # nodes that must not read accumulators
    at = 0
    while at < len(stmts) and stmts[at].prod in ("declInit", "forStmt"):
        s = stmts[at]
        if s.prod == "declInit":
            name, init = s.children[1], s.children[2]
            if name in outer or name in local or name in fold_vars \
                    or not _limit_ok(init, _DECL_PRODS) \
                    or any(_refs_var(init, v) for v in (*outer, *fold_vars)):
                return None
            ev = _build_ev(fc, init, tuple(local),
                           lane=_is_lane_type(s.children[0]))
            if ev is None:
                return None
            prefix.append((name, ev))
            local.append(name)
            no_acc.append(init)
        else:
            hdr = _parse_header(s)
            if hdr is None:
                return None
            var, start, limit, step, incl, fbody = hdr
            if var in outer or var in local \
                    or not _limit_ok(start) or not _limit_ok(limit) \
                    or any(_refs_var(b, v) for b in (start, limit)
                           for v in outer):
                return None
            start_ev = _build_ev(fc, start, tuple(local))
            limit_ev = _build_ev(fc, limit, tuple(local))
            fstmts: list[Node] = []
            if start_ev is None or limit_ev is None \
                    or not _flatten_body(fbody, fstmts) or not fstmts:
                return None
            reds = []
            for e in fstmts:
                red = _match_reduction(e)
                if red is None or red[0] not in local:
                    return None
                acc, op, other, lane = red
                ev = _build_ev(fc, other, (*outer, var, *local), lane)
                if ev is None:
                    return None
                reds.append((at, acc, op, ev))
                no_acc.append(other)
            no_acc.extend((start, limit))
            folds.append((var, start_ev, limit_ev, step, incl, reds))
            fold_vars.add(var)
        at += 1
    stores = []
    for i in range(at, len(stmts)):
        s = stmts[i]
        if s.prod != "exprStmt" or any(_refs_var(s, v) for v in fold_vars):
            return None
        store = _match_store(fc, s.children[0], i, (*outer, *local), outer)
        if store is None:
            return None
        stores.append(store)
    accs = [acc for *_, reds in folds for _i, acc, _op, _ev in reds]
    if not stores or not folds or len(set(accs)) != len(accs) \
            or any(_refs_var(n_, acc) for n_ in no_acc for acc in accs):
        return None
    return Plan(loops, stores, [], FoldBody(prefix, folds), checks)


def try_fast_loop(fc, node: Node) -> Plan | None:
    """Match ``forStmt`` against the vectorizable pattern — a single
    loop or a rectangular nest (up to 3-D); None = no plan (the scalar
    loop runs alone; an inner loop of an unmatched nest still gets its
    own plan when the scalar body compiles it).  Called with the
    *enclosing* scope active — loop variables are never frame slots on
    this path."""
    from repro.cminus.absyn import node_cons_to_list

    hdr = _parse_header(node)
    if hdr is None:
        return None
    fc = _SlotRecorder(fc)
    v1, start1, limit1, step1, incl1, body = hdr
    if not _limit_ok(limit1):
        return None
    loops_src = [(v1, start1, limit1, step1, incl1)]
    checks_src: list[tuple[int, Node]] = []   # (level, check call)
    # Rectangular nest: each level's body is exactly one inner for whose
    # bounds are invariant across the whole nest, after any nest checks
    # (up to 3-D; the affine injectivity proof in nest_injective handles
    # any depth, the cap just bounds compile-time matching).
    while len(loops_src) < 3:
        nest_stmts: list[Node] = []
        _stmt_list(body, nest_stmts)
        at = 0
        while at < len(nest_stmts) and nest_stmts[at].prod == "exprStmt" \
                and nest_stmts[at].children[0].prod == "call" \
                and nest_stmts[at].children[0].children[0] in _NEST_CHECKS:
            at += 1
        if len(nest_stmts) != at + 1 or nest_stmts[at].prod != "forStmt":
            break
        hdr_in = _parse_header(nest_stmts[at])
        if hdr_in is None:
            return None
        v2, start2, limit2, step2, incl2, body2 = hdr_in
        outer_vars = [v for v, *_ in loops_src]
        if v2 in outer_vars \
                or any(_refs_var(start2, v) or _refs_var(limit2, v)
                       for v in outer_vars) \
                or not _limit_ok(start2) or not _limit_ok(limit2):
            return None
        checks_src.extend((len(loops_src) - 1, s.children[0])
                          for s in nest_stmts[:at])
        loops_src.append((v2, start2, limit2, step2, incl2))
        body = body2
    var_names = tuple(v for v, *_ in loops_src)

    loops = []
    for v, start_node, limit_node, stp, incl in loops_src:
        start_ev = _build_ev(fc, start_node, ())
        limit_ev = _build_ev(fc, limit_node, ())
        if start_ev is None or limit_ev is None:
            return None
        loops.append((v, start_ev, limit_ev, stp, incl))
    # Bounds the scalar path re-evaluates mid-nest must not read an
    # accumulator (stale pre-loop state on the fast path); the outer
    # start is evaluated once on both paths, so it is exempt.
    reeval_bounds = [limit1]
    for _, s2, l2, _, _ in loops_src[1:]:
        reeval_bounds.extend((s2, l2))
    # Nest checks read no loop variable, so one evaluation stands for
    # every one the scalar nest makes; a string argument is the message.
    checks = []
    for level, c in checks_src:
        arg_evs = []
        for a in node_cons_to_list(c.children[1]):
            if a.prod == "strLit":
                arg_evs.append(lambda rt, text=a.children[0]: text)
                continue
            ev = _build_ev(fc, a, ())
            if ev is None or not _limit_ok(a) \
                    or any(_refs_var(a, v) for v in var_names):
                return None
            arg_evs.append(ev)
            reeval_bounds.append(a)
        checks.append((level, getattr(RTRuntime, c.children[0]), arg_evs))

    stmts: list[Node] = []
    if not _flatten_body(body, stmts) or not stmts:
        plan = _match_fold_nest(fc, loops, var_names, body, checks)
        if plan is not None:
            plan.read_slots = frozenset(fc.seen)
        return plan
    stores, reductions = [], []
    acc_names: list[str] = []
    store_val_nodes: list[Node] = []
    for i, e in enumerate(stmts):
        store = _match_store(fc, e, i, var_names, var_names)
        if store is not None:
            stores.append(store)
            store_val_nodes.append(e)
            continue
        red = _match_reduction(e)
        if red is None or red[0] in var_names:
            return None
        acc, op, other, lane = red
        slot = fc.lookup(acc)
        ev = _build_ev(fc, other, var_names, lane)
        if slot is None or ev is None:
            return None
        reductions.append((i, slot, op, ev))
        acc_names.append(acc)
        store_val_nodes.append(e.children[1])
    # Any accumulator read outside its own fold (in a store value/index,
    # another reduction, or a re-evaluated bound) sees stale pre-loop
    # state on the fast path — bail at compile time.
    for acc in acc_names:
        if any(_refs_var(bn, acc) for bn in reeval_bounds):
            return None
        if sum(1 for n_ in store_val_nodes if _refs_var(n_, acc)) \
                > acc_names.count(acc):
            return None
    if len(set(acc_names)) != len(acc_names):
        return None
    plan = Plan(loops, stores, reductions, checks=checks)
    plan.read_slots = frozenset(fc.seen)
    plan.write_slots = frozenset(slot for _i, slot, _op, _ev in reductions)
    return plan
