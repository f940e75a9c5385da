"""Program execution prints no numpy floating-point warnings.

The generated C computes ``inf - inf``, overflowing float32 stores and
out-of-range float literals silently (IEEE 754).  Every Python engine
configuration must do the same: no ``RuntimeWarning`` through the
``warnings`` machinery, nothing on the process's stderr (where forked
shard workers would print), and output bytes identical to the tree
walker whether a numpy loop plan, the scalar bytecode, a pool thread or
a forked worker computed them.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import compile_source
from repro.cexec import loopfast
from repro.cexec.interp import run_program

# 32 lanes (a loop plan) of inf - inf, 4 lanes (scalar bytecode) of an
# overflowing float32 store, and a literal past float32's range.
GENARRAY = """
int main() {
    Matrix float <1> x = readMatrix("x.data");
    Matrix float <1> d = with ([0] <= [i] < [32]) genarray([32], x[i] - x[i]);
    Matrix float <1> s = with ([0] <= [i] < [4]) genarray([4], x[i] * 1e30);
    float big = (float) 1e39;
    printFloat(big);
    printFloat((float) (1e30 * 1e10));
    writeMatrix("d.data", d);
    writeMatrix("s.data", s);
    return 0;
}
"""

# The same arithmetic inside a matrixMap, so shards compute it.
MATRIXMAP = """
Matrix float <1> f(Matrix float <1> v) {
    Matrix float <1> r = with ([0] <= [i] < [32]) genarray([32], v[i] - v[i]);
    Matrix float <1> s = with ([0] <= [i] < [4]) genarray([4], v[i] * 1e30);
    r[0] = s[0] + (float) 1e39;
    return r;
}
int main() {
    Matrix float <2> x = readMatrix("x2.data");
    Matrix float <2> y = matrixMap(f, x, [1]);
    writeMatrix("y.data", y);
    return 0;
}
"""

CONFIGS = {
    "tree": dict(engine="tree"),
    "vm-seq": dict(nthreads=1),
    "vm-every-plan": dict(nthreads=1),
    "threads-2": dict(nthreads=2, parallel_backend="thread"),
    "processes-2": dict(nthreads=2, parallel_backend="process"),
}


def inputs():
    x = np.full(32, 1e30, dtype=np.float32)
    x[::3] = np.inf
    return {"x.data": x, "x2.data": np.tile(x, (4, 1))}


def run_quietly(src, outputs, config, monkeypatch, capfd):
    """(rc, stdout, output bytes) of one run that must warn nowhere."""
    with monkeypatch.context() as m:
        if config == "vm-every-plan":
            m.setattr(loopfast, "MIN_TRIP", 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, files, _st, ex = run_program(
                src, ["matrix"], inputs(), output_names=outputs,
                **CONFIGS[config])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capfd.readouterr().err == ""
    assert set(files) == set(outputs)
    return rc, list(ex.stdout), {k: v.tobytes() for k, v in files.items()}


@pytest.mark.parametrize("src,outputs", [
    (GENARRAY, ["d.data", "s.data"]),
    (MATRIXMAP, ["y.data"]),
], ids=["genarray", "matrixmap"])
def test_ieee_special_values_are_silent_everywhere(src, outputs,
                                                   monkeypatch, capfd):
    ref = run_quietly(src, outputs, "tree", monkeypatch, capfd)
    assert ref[0] == 0
    for config in CONFIGS:
        assert run_quietly(src, outputs, config, monkeypatch, capfd) == ref, \
            config


def test_compile_time_float32_narrowing_is_silent(capfd):
    # Compiling outside any run: the const pool narrows 1e39 and the IR
    # folds the cast of 1e40, both to inf.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = compile_source(GENARRAY, ["matrix"]).bytecode().code_for("main")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capfd.readouterr().err == ""
    assert any(ins[0] == "const" and ins[2] == float("inf")
               for ins in code.instrs)
