"""`reproc check` entry point: run every S25 pass over one compile
result and collect a structured, cacheable report."""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.analysis.cfg import function_cfgs
from repro.analysis.initialized import check_initialized
from repro.analysis.parsafety import ParallelVerdict, analyze_parallel
from repro.analysis.rcbalance import check_rc_balance
from repro.analysis.shapes import check_shapes
from repro.util.diagnostics import Diagnostic, Diagnostics, Severity


def _span_json(span) -> dict | None:
    start = getattr(span, "start", None)
    if start is None:
        return None
    return {"file": start.filename, "line": start.line,
            "col": start.column + 1}


@dataclass(frozen=True)
class AnalysisReport:
    """Immutable result of analyzing one program — safe to cache and
    share across threads (the compile service keys it by translator
    fingerprint + source digest)."""

    filename: str
    diagnostics: tuple[Diagnostic, ...]       # source-ordered
    parallel: tuple[ParallelVerdict, ...]     # one per parallel construct
    functions: int                            # CFGs analyzed
    # S30 race analysis, or None when it failed.  Rendered only under
    # ``--races``/``--json`` so the S25 golden output is byte-identical
    # either way.
    races: object = None

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics
                   if d.severity is Severity.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics
                   if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        return self.error_count == 0

    @property
    def race_count(self) -> int:
        return len(self.races.findings) if self.races is not None else 0

    def summary(self, *, races: bool = False) -> str:
        e, w = self.error_count, self.warning_count
        r = self.race_count if races else 0
        failed = races and self.races is None
        if not e and not w and not r and not failed:
            return f"{self.filename}: no issues"
        parts = ["race analysis failed"] if failed else []
        if e:
            parts.append(f"{e} error" + ("s" if e != 1 else ""))
        if w:
            parts.append(f"{w} warning" + ("s" if w != 1 else ""))
        if r:
            parts.append(f"{r} race finding" + ("s" if r != 1 else ""))
        return f"{self.filename}: " + ", ".join(parts)

    def format(self, *, explain_parallel: bool = False,
               races: bool = False) -> str:
        lines = [str(d) for d in self.diagnostics]
        if explain_parallel:
            for v in self.parallel:
                first, *rest = v.explain().splitlines()
                lines.append(f"parallel: {first}")
                lines.extend(rest)
        if races:
            lines.extend(self._race_lines())
        lines.append(self.summary(races=races))
        return "\n".join(lines)

    def _race_lines(self) -> list[str]:
        ra = self.races
        if ra is None:
            return ["races: analysis failed"]
        out: list[str] = []
        for f in ra.findings:
            out.extend(f.lines())
        for name in sorted(ra.cleared):
            out.append(f"race task '{name}': cleared - {ra.cleared[name]}")
        for name in sorted(ra.blocked):
            out.append(f"race task '{name}': blocked - {ra.blocked[name]}")
        for region in sorted(ra.certificates):
            proven, why = ra.certificates[region]
            verdict = "proven" if proven else "not proven"
            out.append(f"race cert '{region}': {verdict} - {why}")
        n = len(ra.findings)
        out.append("races: clean" if not n
                   else f"races: {n} finding" + ("s" if n != 1 else ""))
        return out

    def to_json(self) -> str:
        """Machine-readable report (stable schema, one JSON object):
        every diagnostic carries its pass, severity, span, and message;
        race findings additionally carry their witness chains."""
        ra = self.races
        body = {
            "filename": self.filename,
            "ok": self.ok,
            "errors": self.error_count,
            "warnings": self.warning_count,
            "functions": self.functions,
            "diagnostics": [
                {"pass": d.phase, "severity": d.severity.name.lower(),
                 "span": _span_json(d.span), "message": d.message}
                for d in self.diagnostics],
            "parallel": [
                {"kind": v.kind, "name": v.name, "safe": v.safe,
                 "process_safe": v.process_safe,
                 "race_note": v.race_note,
                 "blockers": [
                     {"hazard": b.hazard, "what": b.what,
                      "chain": [str(k[1]) for k in b.chain[1:]]}
                     for b in v.blockers]}
                for v in self.parallel],
            "races": None if ra is None else {
                "findings": [
                    {"pass": "races", "fn": f.fn, "kind": f.kind,
                     "proven": f.proven, "severity": "warning",
                     "span": _span_json(f.span), "message": f.message,
                     "witness": list(f.witness)}
                    for f in ra.findings],
                "cleared": dict(sorted(ra.cleared.items())),
                "blocked": dict(sorted(ra.blocked.items())),
                "certificates": {
                    region: {"proven": proven, "why": why}
                    for region, (proven, why)
                    in sorted(ra.certificates.items())},
            },
        }
        return json.dumps(body, indent=2, sort_keys=False)


def analyze_result(result, *, filename: str | None = None
                   ) -> AnalysisReport:
    """Run all four passes over a successful
    :class:`repro.driver.CompileResult`, plus the S30 race pass."""
    # Deferred: races -> access -> repro.ir would re-enter a partially
    # initialized repro.cexec.bytecode at package-import time.
    from repro.analysis.races import race_analysis_for

    if not result.ok or result.lowered is None:
        raise ValueError("analyze_result needs a successful compile "
                         "(run semantic checking first)")
    fname = filename if filename is not None else "<input>"
    diags = Diagnostics()
    cfgs = function_cfgs(result.lowered, result.ctx)
    proven: dict[str, frozenset[int]] = {}
    for name in cfgs:
        cfg = cfgs[name]
        check_initialized(cfg, diags)
        proven[name] = check_shapes(cfg, diags)
        check_rc_balance(cfg, diags)
    program = result.bytecode()
    # The shapes fixpoint above already proved which bounds guards are
    # in range; seed them so bytecode generation does not re-solve it.
    program.seed_proven_guards(proven)
    parallel = tuple(analyze_parallel(program))
    return AnalysisReport(
        fname, tuple(diags.sorted()), parallel, len(cfgs),
        races=race_analysis_for(program))
