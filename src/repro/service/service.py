"""The compilation service: request/response types and concurrent batches.

:class:`CompileService` is the long-running entry point the ROADMAP's
serving story needs: it owns a :class:`TranslatorCache`, compiles
individual :class:`CompileRequest` objects through the staged pipeline
(parse → decorate → lower → emit, each timed), and fans
:meth:`CompileService.compile_batch` across a thread pool.  Responses
never raise for per-program problems — syntax and semantic errors are
reported in :attr:`CompileResponse.errors` so one bad program cannot
poison a batch.

A compile unit is built once while anyone still holds its result: a
``compile`` of a source some caller's live :class:`CompileResult` was
built from (same translator, source and filename) returns that very
result, so ``check`` followed by ``compile`` parses, lowers, emits and
generates bytecode once.
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro.cminus.env import Optimizations
from repro.driver import CompileResult, Translator
from repro.lexing.scanner import ScanError
from repro.parsing.parser import ParseError
from repro.service.cache import TranslatorCache
from repro.service.stats import ServiceStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.report import AnalysisReport


class CancelToken:
    """A cooperative cancellation flag checked between pipeline stages.

    The serve daemon hands every admitted request a token; cancelling it
    (client disconnect, shutdown deadline) makes the service abandon the
    compile at the next stage boundary instead of finishing work nobody
    will read.  Tokens are thread-safe and single-use.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


#: The error-message marker a cancelled response carries.
CANCELLED = "compilation cancelled"


@dataclass(frozen=True)
class CompileRequest:
    """One program to compile against one extension configuration."""

    source: str
    extensions: tuple[str, ...] = ("matrix",)
    filename: str = "<input>"
    options: Optimizations | None = None
    nthreads: int = 4
    check_only: bool = False
    cancel: CancelToken | None = None


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock seconds spent in each pipeline stage."""

    parse: float = 0.0
    decorate: float = 0.0
    lower: float = 0.0
    emit: float = 0.0

    @property
    def total(self) -> float:
        return self.parse + self.decorate + self.lower + self.emit


@dataclass
class CompileResponse:
    """Outcome of one request: errors/output plus timings."""

    request: CompileRequest
    errors: list[str] = field(default_factory=list)
    c_source: str | None = None
    result: CompileResult | None = None
    timings: StageTimings = field(default_factory=StageTimings)
    report: "AnalysisReport | None" = None   # set by CompileService.check

    @property
    def ok(self) -> bool:
        return not self.errors


class CompileService:
    """A reusable compilation front-end over the translator cache."""

    def __init__(
        self,
        cache: TranslatorCache | None = None,
        *,
        max_workers: int = 4,
        analysis_cache_size: int = 64,
    ):
        self.cache = cache or TranslatorCache()
        self.max_workers = max_workers
        self._counters = self.cache.counters
        # S25 analysis-report LRU: (translator fingerprint, source digest)
        # -> AnalysisReport.  Reports are frozen, safe to share.
        self._analysis_lock = threading.Lock()
        self._analysis_cache: "OrderedDict[tuple, AnalysisReport]" = \
            OrderedDict()
        self._analysis_cache_size = analysis_cache_size
        # Live results: (translator, source digest, filename) -> the
        # CompileResult a caller still holds.  Weak values, so the table
        # keeps nothing alive; only full, successful, non-check_only
        # compiles enter it.
        self._results_lock = threading.Lock()
        self._results: "weakref.WeakValueDictionary[tuple, CompileResult]" \
            = weakref.WeakValueDictionary()

    # -- single requests ------------------------------------------------------

    def translator_for(self, request: CompileRequest) -> Translator:
        return self.cache.get(
            list(request.extensions),
            options=request.options,
            nthreads=request.nthreads,
        )

    def _abandon(self, request: CompileRequest,
                 timings: StageTimings) -> CompileResponse:
        self._counters.add(serve_cancelled=1)
        return CompileResponse(request, errors=[CANCELLED], timings=timings)

    def compile(self, request: CompileRequest) -> CompileResponse:
        """Compile one request through the staged, timed pipeline.

        A :class:`CancelToken` on the request is honoured at every stage
        boundary (never mid-stage): a cancelled request comes back as an
        error response carrying :data:`CANCELLED`.

        A full compile of a unit whose result a caller still holds is
        served from that live result (counted in ``results_shared``,
        zero stage timings) instead of being rebuilt.
        """
        self._counters.add(requests=1)
        cancel = request.cancel
        if cancel is not None and cancel.cancelled:
            return self._abandon(request, StageTimings())
        try:
            translator = self.translator_for(request)
        except ValueError as e:  # unknown extension
            self._counters.add(failures=1)
            return CompileResponse(request, errors=[str(e)])

        key = (translator,
               hashlib.sha256(request.source.encode()).hexdigest(),
               request.filename)
        if not request.check_only:
            with self._results_lock:
                shared = self._results.get(key)
            if shared is not None:
                self._counters.add(results_shared=1)
                return CompileResponse(
                    request, c_source=shared.c_source, result=shared)

        t0 = time.perf_counter()
        try:
            root = translator.parse(request.source, request.filename)
        except (ParseError, ScanError) as e:
            dt = time.perf_counter() - t0
            self._counters.add(failures=1, parse_s=dt)
            return CompileResponse(
                request, errors=[str(e)], timings=StageTimings(parse=dt)
            )
        t1 = time.perf_counter()
        if cancel is not None and cancel.cancelled:
            return self._abandon(request, StageTimings(parse=t1 - t0))

        dn, ctx = translator.decorate(root)
        errors = list(dn.att("errors"))
        t2 = time.perf_counter()

        if errors or request.check_only:
            timings = StageTimings(parse=t1 - t0, decorate=t2 - t1)
            self._counters.add(
                failures=1 if errors else 0,
                parse_s=timings.parse,
                decorate_s=timings.decorate,
            )
            result = CompileResult(request.source, root, errors, None, None, ctx)
            return CompileResponse(
                request, errors=errors, result=result, timings=timings
            )

        if cancel is not None and cancel.cancelled:
            return self._abandon(
                request, StageTimings(parse=t1 - t0, decorate=t2 - t1))

        lowered = dn.att("lowered")
        t3 = time.perf_counter()
        c_source = translator.emit_c(lowered, ctx)
        t4 = time.perf_counter()

        timings = StageTimings(
            parse=t1 - t0, decorate=t2 - t1, lower=t3 - t2, emit=t4 - t3
        )
        self._counters.add(
            parse_s=timings.parse,
            decorate_s=timings.decorate,
            lower_s=timings.lower,
            emit_s=timings.emit,
        )
        result = CompileResult(request.source, root, errors, lowered, c_source, ctx)
        with self._results_lock:
            self._results[key] = result
        return CompileResponse(
            request, errors=errors, c_source=c_source, result=result, timings=timings
        )

    # -- static analysis (S25) ------------------------------------------------

    def check(self, request: CompileRequest) -> CompileResponse:
        """Compile and run the S25 analysis passes over one request.

        The :class:`~repro.analysis.report.AnalysisReport` lands in
        ``response.report``; reports are cached in an LRU keyed by
        (translator fingerprint, source digest, filename, race-check
        state) — the translator-cache identity plus the S30 escape
        hatch, so an edited source, a changed extension set, or a
        toggled ``REPRO_NO_RACE_CHECK`` misses while repeated checks
        hit.
        """
        from repro.analysis.races import race_check_disabled
        from repro.analysis.report import analyze_result

        key = (
            self.cache.fingerprint(
                list(request.extensions),
                options=request.options, nthreads=request.nthreads),
            hashlib.sha256(request.source.encode()).hexdigest(),
            request.filename,
            # REPRO_NO_RACE_CHECK changes the report's race payload, so
            # a daemon serving both settings must not mix the entries.
            race_check_disabled(),
        )
        with self._analysis_lock:
            cached = self._analysis_cache.get(key)
            if cached is not None:
                self._analysis_cache.move_to_end(key)
        if cached is not None:
            self._counters.add(analysis_cache_hits=1)
            return CompileResponse(request, report=cached)

        # Analysis needs the lowered tree + bytecode, so force a full
        # compile even for check_only requests.
        response = self.compile(
            replace(request, check_only=False)
            if request.check_only else request)
        if not response.ok or response.result is None:
            return response
        response.report = analyze_result(
            response.result, filename=request.filename)
        self._counters.add(analyses=1)
        with self._analysis_lock:
            self._analysis_cache[key] = response.report
            self._analysis_cache.move_to_end(key)
            while len(self._analysis_cache) > self._analysis_cache_size:
                self._analysis_cache.popitem(last=False)
        return response

    def check_batch(
        self,
        requests: Sequence[CompileRequest],
        *,
        max_workers: int | None = None,
    ) -> list[CompileResponse]:
        """``check`` across a worker pool; responses keep request order."""
        self._counters.add(batches=1)
        requests = list(requests)
        workers = max_workers if max_workers is not None else self.max_workers
        if workers <= 1 or len(requests) <= 1:
            return [self.check(r) for r in requests]
        with ThreadPoolExecutor(
            max_workers=min(workers, len(requests)),
            thread_name_prefix="repro-check",
        ) as pool:
            return list(pool.map(self.check, requests))

    # -- batches --------------------------------------------------------------

    def compile_batch(
        self,
        requests: Sequence[CompileRequest],
        *,
        max_workers: int | None = None,
    ) -> list[CompileResponse]:
        """Compile ``requests`` concurrently; responses keep request order.

        Per-program failures come back as error responses, never
        exceptions.  ``max_workers=1`` degrades to a plain sequential loop
        (no pool overhead), which the throughput benchmark uses as its
        baseline.
        """
        self._counters.add(batches=1)
        requests = list(requests)
        workers = max_workers if max_workers is not None else self.max_workers
        if workers <= 1 or len(requests) <= 1:
            return [self.compile(r) for r in requests]
        with ThreadPoolExecutor(
            max_workers=min(workers, len(requests)),
            thread_name_prefix="repro-compile",
        ) as pool:
            return list(pool.map(self.compile, requests))

    # -- stats ----------------------------------------------------------------

    def stats(self) -> ServiceStats:
        return self._counters.snapshot()

    def reset_stats(self) -> None:
        self._counters.reset()
