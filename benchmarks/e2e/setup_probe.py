"""Set-up probe: a fresh process builds a workload's translators.

``python -m benchmarks.e2e.setup_probe CONFIGS`` imports the public API,
builds one translator per ``[extensions, nthreads]`` pair of the JSON
list ``CONFIGS`` and prints one JSON line (translator build seconds,
peak RSS).  The benchmark runs it with an empty ``REPRO_CACHE_DIR`` and
times it from spawn to that line.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak resident set (``VmHWM``).  Unlike ``ru_maxrss``,
    which Linux carries across fork and exec, it starts afresh in every
    program, so a child does not report its parent's peak."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def main(argv: list[str]) -> int:
    from repro.api import make_translator

    t0 = time.perf_counter()
    for extensions, nthreads in json.loads(argv[0]):
        make_translator(extensions, nthreads=nthreads)
    print(json.dumps({"translator_s": time.perf_counter() - t0,
                      "rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
