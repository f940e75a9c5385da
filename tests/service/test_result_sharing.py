"""CompileService live-result sharing and the seeded guard sets.

``compile`` of a unit whose result a caller still holds returns that
very result (weak, content-keyed table); ``check`` seeds the bytecode
compiler with the proven-in-range guard sets the shapes pass already
computed, so each function's interval fixpoint is solved once.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

import repro.analysis.shapes as shapes
from repro.analysis.cfg import build_cfg, function_cfgs
from repro.analysis.shapes import check_shapes, proven_in_range
from repro.api import compile_source
from repro.cminus.env import Optimizations
from repro.programs import PROGRAMS, load
from repro.service import CompileRequest, CompileService
from repro.util.diagnostics import Diagnostics

EXTS = ("matrix", "transform")

PROVABLE = """int main() {
    int n = 9;
    Matrix float <1> a = with ([0] <= [i] < [n]) genarray([n], 2.0);
    writeMatrix("a.data", a);
    return 0;
}
"""


@pytest.fixture()
def service(mem_cache) -> CompileService:
    return CompileService(mem_cache, max_workers=4)


def fig1_request(**kw) -> CompileRequest:
    return CompileRequest(load("fig1"), **{"extensions": EXTS, **kw})


class TestSharing:
    def test_compile_after_check_returns_the_same_result(self, service):
        req = fig1_request(filename="fig1.xc")
        checked = service.check(req)
        compiled = service.compile(req)
        assert compiled.result is checked.result
        fresh = compile_source(req.source, list(EXTS), filename="fig1.xc")
        assert compiled.c_source == fresh.c_source

    def test_shared_hit_counts_a_request_but_no_stage_time(self, service):
        req = fig1_request()
        first = service.compile(req)
        before = service.stats()
        again = service.compile(req)
        after = service.stats()
        assert again.result is first.result
        assert again.timings.total == 0.0
        assert after.requests == before.requests + 1
        assert after.results_shared == before.results_shared + 1
        for stage in ("parse_s", "decorate_s", "lower_s", "emit_s"):
            assert getattr(after, stage) == getattr(before, stage)
        assert "shared results   : 1 " in after.pretty()

    @pytest.mark.parametrize("change", [
        {"filename": "other.xc"},
        {"extensions": ("matrix",)},
        {"options": Optimizations(opt_level=0)},
        {"options": Optimizations(parallelize=False)},
        {"nthreads": 2},
    ])
    def test_configuration_changes_miss(self, service, change):
        held = service.compile(fig1_request())
        other = service.compile(fig1_request(**change))
        assert other.ok and other.result is not held.result
        assert service.stats().results_shared == 0

    def test_edited_source_misses(self, service):
        held = service.compile(fig1_request())
        other = service.compile(
            CompileRequest(load("fig1") + "\n", extensions=EXTS))
        assert other.result is not held.result

    def test_table_retains_nothing(self, service):
        resp = service.compile(fig1_request())
        assert len(service._results) == 1
        del resp
        gc.collect()
        assert len(service._results) == 0
        parse_s = service.stats().parse_s
        rebuilt = service.compile(fig1_request())
        assert rebuilt.ok and rebuilt.timings.total > 0
        assert service.stats().results_shared == 0
        assert service.stats().parse_s > parse_s
        assert len(service._results) == 1

    def test_check_only_never_enters_or_reads_the_table(self, service):
        partial = service.compile(fig1_request(check_only=True))
        assert partial.ok and partial.result.lowered is None
        assert len(service._results) == 0
        full = service.compile(fig1_request())
        assert full.result is not partial.result
        again = service.compile(fig1_request(check_only=True))
        assert again.result is not full.result
        assert again.result.lowered is None
        assert service.stats().results_shared == 0

    def test_failed_compiles_never_enter_the_table(self, service):
        bad = CompileRequest("int main() { return nope; }", extensions=EXTS)
        first = service.compile(bad)
        second = service.compile(bad)
        assert not first.ok and not second.ok
        assert second.result is not first.result
        syntax = CompileRequest("int main( {", extensions=EXTS)
        assert not service.compile(syntax).ok
        assert len(service._results) == 0
        assert service.stats().results_shared == 0

    def test_concurrent_compiles_share_one_result(self, service):
        held = service.check(fig1_request())
        barrier = threading.Barrier(8, timeout=30)
        got = []

        def worker():
            barrier.wait()
            got.append(service.compile(fig1_request()).result)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8 and all(r is held.result for r in got)
        assert service.stats().results_shared == 8


class TestSeededGuards:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_seeded_sets_equal_proven_in_range(self, name):
        cr = compile_source(load(name), list(EXTS))
        assert cr.ok
        program = cr.bytecode()
        trees = {**program.functions, **program.lifted_trees}
        cfgs = function_cfgs(cr.lowered, cr.ctx)
        assert set(cfgs) == set(trees)
        for fname, cfg in cfgs.items():
            params, body = trees[fname]
            seeded = check_shapes(cfg, Diagnostics())
            assert seeded == proven_in_range(build_cfg(fname, params, body))

    def test_check_solves_each_fixpoint_once(self, service, monkeypatch):
        # Recorded, not raised: bytecode generation swallows analysis
        # failures (guard elision is best-effort).
        fallbacks = []
        monkeypatch.setattr(shapes, "proven_in_range",
                            lambda cfg: fallbacks.append(cfg) or frozenset())
        resp = service.check(CompileRequest(load("fig8"), extensions=EXTS))
        assert resp.ok and resp.report.ok
        program = service.compile(
            CompileRequest(load("fig8"), extensions=EXTS)).result.bytecode()
        for fname in program.functions:
            program.spec_code_for(fname)
        assert program.opt_counts and not fallbacks

    def test_seeded_guards_are_elided(self, service, tmp_path):
        resp = service.check(CompileRequest(PROVABLE))
        assert resp.ok and resp.report.ok
        executor = resp.result.make_engine(workdir=tmp_path, nthreads=1)
        try:
            assert executor.run_main() == 0
            assert executor.stats.guards_elided >= 1
        finally:
            executor.close()
