"""Compare two e2e benchmark records.

``python -m benchmarks.e2e.compare OLD.json NEW.json``

For every workload and end-to-end metric it prints both medians with
their quartiles, the metric's bound and a verdict:

* ``worse``: NEW's median is worse than OLD's by more than the bound;
* ``unresolved``: not worse, but either record's quartile spread
  (``(q3 - q1) / median``) exceeds the bound -- unless every NEW sample
  is better than every OLD one, which is ``better``;
* ``better``: NEW's median is better by more than the bound;
* ``unchanged`` otherwise.

A workload's ``fail_ratio`` may not rise at all.  Per-layer metrics
whose NEW median lies outside OLD's quartile range are listed.  The exit
status is 1 on any ``worse`` verdict or rise in ``fail_ratio``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def verdict(old: dict, new: dict, bound: float, lower_better: bool) -> str:
    sign = 1 if lower_better else -1
    change = sign * (new["median"] - old["median"]) / old["median"]
    if change > bound:
        return "worse"
    if max(spread(old), spread(new)) > bound:
        best_old = min(sign * v for v in old["samples"])
        worst_new = max(sign * v for v in new["samples"])
        return "better" if worst_new < best_old else "unresolved"
    return "better" if -change > bound else "unchanged"


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    lines: list[str] = []
    regressed = False
    for workload, o in old["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            lines.append(f"== {workload}: missing from NEW")
            regressed = True
            continue
        lines.append(f"== {workload}")
        for name, os_ in o["end_to_end"].items():
            ns = n["end_to_end"].get(name)
            if ns is None:
                lines.append(f"  {name:22s} missing from NEW")
                regressed = True
                continue
            v = verdict(os_, ns, os_["bound"], os_["better"] == "lower")
            regressed |= v == "worse"
            lines.append(
                f"  {name:22s} {os_['median']:10.4g} "
                f"[{os_['q1']:.4g}, {os_['q3']:.4g}] -> {ns['median']:10.4g} "
                f"[{ns['q1']:.4g}, {ns['q3']:.4g}] {os_['unit']:4s} "
                f"bound {os_['bound']:.0%}: {v}")
        rose = n["fail_ratio"] > o["fail_ratio"]
        regressed |= rose
        lines.append(f"  {'fail_ratio':22s} {o['fail_ratio']:.4g} -> "
                     f"{n['fail_ratio']:.4g}: "
                     f"{'worse (must not rise)' if rose else 'ok'}")
        moved = []
        for name, s in o["per_layer"].items():
            m = n["per_layer"].get(name, s)["median"]
            if not s["q1"] <= m <= s["q3"]:
                moved.append(f"    {name}: {s['median']:.4g} -> {m:.4g} "
                             f"{s['unit']} (outside [{s['q1']:.4g}, "
                             f"{s['q3']:.4g}])")
        if moved:
            lines.append("  per-layer medians outside OLD's quartiles:")
            lines.extend(moved)
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m benchmarks.e2e.compare OLD.json NEW.json",
              file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    lines, regressed = compare(old, new)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
