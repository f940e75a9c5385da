"""Working directories: ``run_program`` and ``run_limited`` remove the
directory they make when the caller passes none, on every exit path and
after the outputs are read, and leave a caller's directory alone."""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro.cexec.interp import RuntimeTrap, run_program
from repro.cexec.limited import run_limited

WRITE_PROG = """
int main() {
    Matrix float <1> v = readMatrix("in.data");
    Matrix float <1> w = init(Matrix float <1>, 3);
    w = with ([0] <= [i] < [3]) genarray([3], 2.0 * v[i]);
    writeMatrix("out.data", w);
    return 0;
}
"""

TRAP_PROG = """
int main() {
    Matrix float <1> v = readMatrix("in.data");
    int z = 0;
    printInt(3 / z);
    return 0;
}
"""

LOOP_PROG = """
int main() {
    int i = 0;
    while (1 == 1) { i = i + 1; if (i > 1000000) i = 0; }
    return 0;
}
"""

PRINT_BOMB = """
int main() {
    int i = 0;
    while (i < 100000) { printInt(i); i = i + 1; }
    return 0;
}
"""

IN = {"in.data": np.array([1.0, 2.0, 3.0], np.float32)}


@pytest.fixture()
def private_tmp(tmp_path, monkeypatch):
    """Point every ``tempfile`` default at an empty directory."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return tmp


class TestRunProgram:
    @pytest.mark.parametrize("engine", ["vm", "tree"])
    def test_ok_reads_outputs_then_removes(self, private_tmp, engine):
        rc, outs, _st, _ex = run_program(
            WRITE_PROG, ["matrix"], IN, output_names=["out.data"],
            nthreads=1, engine=engine)
        assert rc == 0 and list(outs["out.data"]) == [2.0, 4.0, 6.0]
        assert list(private_tmp.iterdir()) == []

    def test_trap_removes(self, private_tmp):
        with pytest.raises(RuntimeTrap):
            run_program(TRAP_PROG, ["matrix"], IN, nthreads=1)
        assert list(private_tmp.iterdir()) == []

    def test_callers_directory_is_kept(self, private_tmp, tmp_path):
        mine = tmp_path / "mine"
        run_program(WRITE_PROG, ["matrix"], IN, workdir=mine,
                    output_names=["out.data"], nthreads=1)
        assert sorted(p.name for p in mine.iterdir()) == \
            ["in.data", "out.data"]
        assert list(private_tmp.iterdir()) == []


class TestRunLimited:
    @pytest.mark.parametrize("source, kind, extra", [
        (WRITE_PROG, "ok", {"output_names": ["out.data"]}),
        ("int main() { return nope; }", "compile_error", {}),
        (TRAP_PROG, "trap", {}),
        (LOOP_PROG, "timeout", {"timeout_s": 0.3}),
        (PRINT_BOMB, "output_limit", {"output_cap": 64}),
    ], ids=["ok", "compile_error", "trap", "timeout", "output_limit"])
    def test_every_exit_removes(self, private_tmp, source, kind, extra):
        r = run_limited(source, ["matrix"],
                        inputs={"in.data": [1.0, 2.0, 3.0]}, **extra)
        assert r["kind"] == kind, r
        if kind == "ok":
            assert r["outputs"]["out.data"] == [2.0, 4.0, 6.0]
        assert list(private_tmp.iterdir()) == []

    def test_callers_directory_is_kept(self, private_tmp, tmp_path):
        mine = tmp_path / "mine"
        r = run_limited(WRITE_PROG, ["matrix"], workdir=mine,
                        inputs={"in.data": [1.0, 2.0, 3.0]})
        assert r["ok"]
        assert sorted(p.name for p in mine.iterdir()) == \
            ["in.data", "out.data"]
        assert list(private_tmp.iterdir()) == []
