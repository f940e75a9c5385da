"""Service counters and their immutable snapshots.

A single :class:`Counters` instance is shared by the translator cache and
the compile service; every mutation happens under its lock, and
:meth:`Counters.snapshot` returns a frozen :class:`ServiceStats` that can
be read, compared and printed without synchronization.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of the compilation service's counters."""

    # Translator cache.
    translator_hits: int = 0        # in-memory LRU hits
    translator_misses: int = 0      # LRU misses (a build was needed)
    artifact_hits: int = 0          # builds served from the on-disk store
    artifact_misses: int = 0        # builds that regenerated tables/DFA
    evictions: int = 0              # LRU evictions
    # Compile requests.
    requests: int = 0
    failures: int = 0               # requests returning errors
    batches: int = 0
    results_shared: int = 0         # compiles served from a live result
    # Static analysis (S25 `reproc check`).
    analyses: int = 0               # reports computed
    analysis_cache_hits: int = 0    # reports served from the LRU
    # Cumulative per-stage wall time (seconds) across all requests.
    parse_s: float = 0.0
    decorate_s: float = 0.0
    lower_s: float = 0.0
    emit_s: float = 0.0
    # Serve daemon (S26 `reproc serve`).
    serve_compile: int = 0          # /compile requests admitted
    serve_check: int = 0            # /check requests admitted
    serve_run: int = 0              # /run requests admitted
    serve_stats: int = 0            # /stats requests answered
    serve_coalesced: int = 0        # requests served by another's in-flight work
    serve_timeouts: int = 0         # runs killed at the wall-clock deadline
    serve_worker_restarts: int = 0  # workers respawned after crash/kill
    serve_rejections: int = 0       # 429 busy responses (queue full)
    serve_cancelled: int = 0        # compiles abandoned via a cancel token

    @property
    def hit_rate(self) -> float:
        total = self.translator_hits + self.translator_misses
        return self.translator_hits / total if total else 0.0

    def pretty(self) -> str:
        return "\n".join(
            [
                f"translator cache : {self.translator_hits} hits, "
                f"{self.translator_misses} misses "
                f"({self.hit_rate:.0%} hit rate), {self.evictions} evictions",
                f"artifact store   : {self.artifact_hits} hits, "
                f"{self.artifact_misses} rebuilds",
                f"requests         : {self.requests} "
                f"({self.failures} failed, {self.batches} batches)",
                f"shared results   : {self.results_shared} compiles reused "
                "a live result",
                f"analysis reports : {self.analyses} computed, "
                f"{self.analysis_cache_hits} cache hits",
                f"stage time (s)   : parse {self.parse_s:.3f}, "
                f"decorate {self.decorate_s:.3f}, lower {self.lower_s:.3f}, "
                f"emit {self.emit_s:.3f}",
                f"serve requests   : {self.serve_compile} compile, "
                f"{self.serve_check} check, {self.serve_run} run, "
                f"{self.serve_stats} stats ({self.serve_coalesced} coalesced, "
                f"{self.serve_rejections} rejected busy)",
                f"serve workers    : {self.serve_worker_restarts} restarts, "
                f"{self.serve_timeouts} timeouts, "
                f"{self.serve_cancelled} cancelled",
            ]
        )


class Counters:
    """Thread-safe mutable counters behind :class:`ServiceStats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, float] = {
            f.name: 0 if f.type == "int" else 0.0 for f in fields(ServiceStats)
        }

    def add(self, **deltas: float) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._values[name] += delta

    def snapshot(self) -> ServiceStats:
        with self._lock:
            ints = {
                f.name: int(self._values[f.name]) if f.type == "int"
                else float(self._values[f.name])
                for f in fields(ServiceStats)
            }
        return ServiceStats(**ints)

    def reset(self) -> None:
        with self._lock:
            for name in self._values:
                self._values[name] = 0
