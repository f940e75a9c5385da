"""Resource-limited program execution — the serve daemon's run entry (S26).

:func:`run_limited` wraps :func:`repro.cexec.interp.run_program` with the
three caps a multi-tenant daemon needs before it can execute untrusted
matrix programs:

* a **wall-clock deadline** enforced in-process via ``signal.setitimer``
  (SIGALRM), which interrupts the scalar VM between instructions — the
  supervising parent still holds a hard kill as the backstop for code
  stuck inside a C-level call;
* an **output-size cap**: the executor's stdout list is replaced with a
  :class:`CappedStdout` that traps the program the moment accumulated
  output crosses the limit (a runaway print loop cannot OOM the worker);
* an optional **address-space cap** (``RLIMIT_AS``), applied once per
  process via :func:`apply_memory_limit` so an allocation bomb dies with
  ``MemoryError`` inside the worker instead of taking the host down.

Results come back as a plain JSON-able dict (``ok``/``kind``/``stdout``/
``returncode``/``outputs``/counters) because the caller is usually on the
far side of a process boundary (:mod:`repro.serve.workers`).  Every
failure mode is a *value*, never an exception: traps, compile errors,
timeouts and output overruns all produce a well-formed result dict.
"""

from __future__ import annotations

import signal
import threading
import time
from typing import Any

from repro.cexec.interp import InterpError, RuntimeTrap

#: Result ``kind`` values, in order of increasing severity.
KIND_OK = "ok"
KIND_COMPILE_ERROR = "compile_error"
KIND_TRAP = "trap"
KIND_TIMEOUT = "timeout"
KIND_OUTPUT_LIMIT = "output_limit"
KIND_OOM = "oom"
KIND_INTERNAL = "internal"

DEFAULT_OUTPUT_CAP = 1 << 20  # 1 MiB of program stdout


class OutputLimitExceeded(RuntimeTrap):
    """The program printed more than the configured output cap."""


class DeadlineExceeded(InterpError):
    """The in-process wall-clock deadline fired mid-execution."""


class CappedStdout(list):
    """A stdout sink that traps the program once ``cap`` bytes accumulate.

    The engines append one formatted value per print call; the cap is
    checked on every append so a tight print loop is stopped within one
    line of crossing the limit, not after exhausting memory.
    """

    __slots__ = ("cap", "used")

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap
        self.used = 0

    def append(self, item: str) -> None:  # noqa: A003 - list API
        self.used += len(item) + 1  # + newline the caller will add
        if self.used > self.cap:
            raise OutputLimitExceeded(
                f"program output exceeded {self.cap} bytes"
            )
        super().append(item)


def apply_memory_limit(max_bytes: int) -> bool:
    """Cap this process's address space (best effort, Linux/POSIX only).

    Returns True when the limit was applied.  Failures are swallowed —
    the cap is defense in depth, not a correctness requirement.
    """
    if max_bytes <= 0:
        return False
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        new_hard = hard if hard != resource.RLIM_INFINITY else max_bytes
        resource.setrlimit(
            resource.RLIMIT_AS, (min(max_bytes, new_hard), new_hard)
        )
        return True
    except Exception:
        return False


class _Deadline:
    """SIGALRM-based wall-clock deadline (main-thread only).

    ``signal.setitimer`` can only be armed from the main thread of the
    main interpreter; anywhere else (e.g. the daemon running a request
    inline in a handler thread for tests) the deadline degrades to the
    supervisor's hard kill, which is always armed.
    """

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self.armed = False
        self._prev: Any = None

    def __enter__(self) -> "_Deadline":
        if (
            self.seconds is not None
            and self.seconds > 0
            and threading.current_thread() is threading.main_thread()
        ):
            def _on_alarm(signum, frame):
                raise DeadlineExceeded(
                    f"execution exceeded {self.seconds:.3g}s wall-clock limit"
                )

            self._prev = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self.armed = True
        return self

    def __exit__(self, *exc) -> None:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._prev)
            self.armed = False


def run_limited(
    source: str,
    extensions: list[str],
    *,
    inputs: dict[str, Any] | None = None,
    output_names: list[str] | None = None,
    engine: str = "vm",
    nthreads: int = 1,
    options=None,
    timeout_s: float | None = None,
    output_cap: int = DEFAULT_OUTPUT_CAP,
    workdir=None,
) -> dict:
    """Compile and execute one program under resource caps.

    ``inputs`` maps RMAT file names to nested lists / numpy arrays that
    are materialized in the run's working directory; ``output_names``
    lists RMAT files to read back (returned as nested lists so the result
    crosses process and JSON boundaries unchanged).

    Returns a dict with at minimum ``ok`` (bool), ``kind`` (one of the
    ``KIND_*`` constants), ``stdout`` (list of printed lines, possibly
    truncated), and ``elapsed_s``.  Successful runs add ``returncode``,
    ``outputs`` and the headline interpreter counters.
    """
    import tempfile
    from contextlib import nullcontext
    from pathlib import Path

    from repro.api import compile_source

    t0 = time.perf_counter()

    def done(kind: str, **extra) -> dict:
        out = {
            "ok": kind == KIND_OK,
            "kind": kind,
            "elapsed_s": time.perf_counter() - t0,
        }
        out.update(extra)
        return out

    try:
        cr = compile_source(source, list(extensions), options=options,
                            nthreads=nthreads)
    except Exception as e:
        return done(KIND_COMPILE_ERROR, errors=[str(e)], stdout=[])
    if not cr.ok:
        return done(KIND_COMPILE_ERROR, errors=list(cr.errors), stdout=[])

    # A directory made here is removed on every exit, once the outputs
    # are read; a caller's directory is left as it is.
    with (nullcontext(workdir) if workdir
          else tempfile.TemporaryDirectory(prefix="repro-serve-")) as wd:
        return _run_in(cr, Path(wd), done, inputs=inputs,
                       output_names=output_names, engine=engine,
                       nthreads=nthreads, timeout_s=timeout_s,
                       output_cap=output_cap)


def _run_in(cr, wd, done, *, inputs, output_names, engine, nthreads,
            timeout_s, output_cap) -> dict:
    """:func:`run_limited`'s execution in the working directory ``wd``."""
    import numpy as np

    from repro.cexec.interp import make_engine
    from repro.cexec.rmat import read_rmat, write_rmat

    wd.mkdir(parents=True, exist_ok=True)
    for name, data in (inputs or {}).items():
        arr = np.asarray(data, dtype=np.float32)
        write_rmat(wd / name, arr)

    capped = CappedStdout(output_cap)
    executor = make_engine(cr.lowered, cr.ctx, engine=engine,
                           workdir=wd, nthreads=nthreads)
    executor.stdout = capped
    truncated = False
    try:
        with _Deadline(timeout_s):
            try:
                rc = executor.run_main()
            except OutputLimitExceeded as e:
                truncated = True
                return done(KIND_OUTPUT_LIMIT, error=str(e),
                            stdout=list(capped), truncated=True)
            except DeadlineExceeded as e:
                return done(KIND_TIMEOUT, error=str(e), stdout=list(capped))
            except MemoryError:
                return done(KIND_OOM, error="address-space limit exceeded",
                            stdout=list(capped))
            except RuntimeTrap as e:
                # The C runtime exits 2 on traps; mirror that contract.
                return done(KIND_TRAP, error=str(e), returncode=2,
                            stdout=list(capped))
            except InterpError as e:
                return done(KIND_INTERNAL, error=str(e), stdout=list(capped))
            except (IndexError, ZeroDivisionError, OverflowError) as e:
                # The VM lets numpy/Python surface bounds and arithmetic
                # faults raw; to a daemon they are program traps, not bugs.
                return done(KIND_TRAP, error=f"runtime error: {e}",
                            returncode=2, stdout=list(capped))
            except Exception as e:
                return done(KIND_INTERNAL, error=f"{type(e).__name__}: {e}",
                            stdout=list(capped))
    finally:
        try:
            executor.close()
        except Exception:
            pass

    outputs: dict[str, Any] = {}
    for name in output_names or []:
        path = wd / name
        if path.exists():
            outputs[name] = read_rmat(path).tolist()
    stats = executor.stats
    return done(
        KIND_OK,
        returncode=rc,
        stdout=list(capped),
        truncated=truncated,
        outputs=outputs,
        stats={
            "allocs": stats.allocs,
            "frees": stats.frees,
            "parallel_regions": stats.parallel_regions,
            "tasks_spawned": stats.tasks_spawned,
        },
    )
