"""S30 static race detection: every crafted racy example under
``examples/analysis/races/`` is flagged with its witness chain, every
race-free one is cleared (and becomes task-pool eligible), the
``--races`` text output matches the committed goldens exactly, the
cleared programs stay observationally identical at any worker count,
and a failed analysis fails ``reproc check --races``."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_result
from repro.analysis.races import race_analysis_for
from repro.api import make_translator
from repro.cexec.bytecode import BytecodeProgram
from repro.cexec.interp import run_program

ROOT = Path(__file__).resolve().parents[2]
RACES = ROOT / "examples" / "analysis" / "races"
GOLDEN = RACES / "golden"
EXTS = ("matrix", "cilk")

CASES = sorted(RACES.glob("*.xc"), key=lambda p: p.name)

#: name -> (expected finding count, tasks expected cleared)
EXPECT = {
    "disjoint_halves.xc": (0, {"fill"}),
    "even_odd.xc": (0, {"evens", "odds"}),
    "indirect_index.xc": (1, set()),
    "racy_continuation.xc": (1, set()),
    "racy_overlap.xc": (1, set()),
}


def compiled(path: Path):
    translator = make_translator(list(EXTS))
    rel = path.relative_to(ROOT).as_posix()
    result = translator.compile(path.read_text(), rel)
    assert result.ok, "\n".join(str(e) for e in result.errors)
    return result, rel


def test_examples_and_goldens_in_sync():
    assert {p.name for p in CASES} == set(EXPECT)
    want = {p.with_suffix(".txt").name for p in CASES}
    assert want == {p.name for p in GOLDEN.glob("*.txt")}


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.name)
def test_races_output_matches_golden(path):
    result, rel = compiled(path)
    report = analyze_result(result, filename=rel)
    golden = (GOLDEN / path.with_suffix(".txt").name).read_text()
    assert report.format(races=True) == golden.rstrip("\n")


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.name)
def test_verdicts_and_clearance(path):
    result, _ = compiled(path)
    program = BytecodeProgram(result.lowered, result.ctx)
    ra = race_analysis_for(program)
    assert ra is not None
    nfind, cleared = EXPECT[path.name]
    assert len(ra.findings) == nfind, [f.message for f in ra.findings]
    assert set(ra.cleared) == cleared
    # clearance (or its absence) drives task-pool eligibility
    for name in cleared:
        assert program.task_parallel_safe(name)
    for name in ra.blocked:
        assert not program.task_parallel_safe(name)


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.name)
def test_racy_findings_carry_witness_chains(path):
    nfind, _ = EXPECT[path.name]
    if not nfind:
        pytest.skip("race-free example")
    result, _ = compiled(path)
    program = BytecodeProgram(result.lowered, result.ctx)
    ra = race_analysis_for(program)
    (finding,) = ra.findings
    text = "\n".join(finding.lines())
    assert "cannot be proven disjoint" in text
    assert "spawned at" in text and "conflicting access at" in text


def test_failed_analysis_fails_races_check(monkeypatch, capsys):
    # A crash inside the analysis must read as a failure, never as a
    # clean report; the S25 task verdict stands meanwhile.
    from repro.analysis import races
    from repro.cli import main

    def crash(program):
        raise RuntimeError("injected analysis failure")

    monkeypatch.setattr(races, "analyze_races", crash)
    path = RACES / "racy_overlap.xc"
    rc = main(["check", str(path), "-x", ",".join(EXTS), "--races"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "races: analysis failed" in out
    assert "no issues" not in out

    result, _ = compiled(RACES / "disjoint_halves.xc")
    program = BytecodeProgram(result.lowered, result.ctx)
    assert race_analysis_for(program) is None
    assert not program.task_parallel_safe("fill")


@pytest.mark.parametrize(
    "name", ["disjoint_halves.xc", "even_odd.xc"])
def test_cleared_programs_identical_at_any_worker_count(name):
    # The proof has teeth: the cleared spawns actually run on the task
    # pool at nthreads=4 and the observable behavior is bit-identical
    # to the sequential run.
    src = (RACES / name).read_text()

    def run(n):
        rc, outs, st, ex = run_program(src, list(EXTS), nthreads=n)
        return rc, list(ex.stdout), outs, st

    rc1, out1, files1, st1 = run(1)
    rc4, out4, files4, st4 = run(4)
    assert (rc1, out1, files1) == (rc4, out4, files4)
    # clearance made the spawns pool-eligible, and they really ran there
    assert st1.tasks_pooled == 0
    assert st4.tasks_pooled > 0
