"""Integration: every paper figure's program runs end-to-end and agrees
with its oracle (see DESIGN.md's experiment index; the generated-code
*shape* assertions additionally live in benchmarks/)."""

import numpy as np
import pytest

from repro.eddy import conn_comp, synthetic_ssh, temporal_mean, temporal_scores
from repro.programs import load


@pytest.fixture(scope="module")
def cube():
    return np.random.default_rng(42).normal(0, 0.5, (6, 8, 12)).astype(np.float32)


class TestFig1:
    def test_temporal_mean(self, xc, cube):
        rc, outs, interp = xc.run(load("fig1"), {"ssh.data": cube}, ["means.data"])
        assert rc == 0
        assert np.allclose(outs["means.data"], temporal_mean(cube), atol=1e-5)
        assert interp.stats.leaked == 0


class TestFig3Shape:
    """The Fig 1 -> Fig 3 translation: fused loops, no temp, no slice."""

    def test_no_copy_no_temp_no_slice(self, xc, cube):
        rc, _outs, interp = xc.run(load("fig1"), {"ssh.data": cube}, [])
        assert rc == 0
        # exactly two allocations: readMatrix + init; the with-loop writes
        # into `means` directly, and the fold iterates mat without a slice
        assert interp.stats.allocs == 2
        assert interp.stats.copies == 0

    def test_library_baseline_copies(self, tmp_path, cube):
        from tests.conftest import XCRunner

        xc_off = XCRunner(tmp_path, ("matrix",),
                          fuse_assignment=False, eliminate_slices=False)
        rc, outs, interp = xc_off.run(load("fig1"), {"ssh.data": cube},
                                      ["means.data"])
        assert rc == 0
        # library emulation: a with-loop temp is materialized and copied,
        # and each (i,j) materializes a p-slice
        assert interp.stats.copies == 1
        assert interp.stats.allocs > 2 + cube.shape[0] * cube.shape[1]
        assert np.allclose(outs["means.data"], temporal_mean(cube), atol=1e-5)
        assert interp.stats.leaked == 0


class TestFig4:
    def test_conncomp_pipeline(self, xc):
        rng = np.random.default_rng(9)
        ssh = rng.normal(0.2, 0.5, (8, 9, 5)).astype(np.float32)
        dates = np.array([1011990, 1012000, 1012010, 1012020, 1012030],
                         dtype=np.int32)
        rc, outs, interp = xc.run(load("fig4"),
                                  {"ssh.data": ssh, "dates.data": dates},
                                  ["eddyLabels.data"])
        assert rc == 0
        labels = outs["eddyLabels.data"]
        assert labels.shape == (8, 9, 4)  # one frame filtered out
        for out_t, src_t in enumerate(range(1, 5)):
            assert (labels[:, :, out_t] == conn_comp(ssh[:, :, src_t])).all()
        assert interp.stats.leaked == 0


class TestFig8:
    def test_eddy_scoring_matches_reference(self, xc):
        data = synthetic_ssh((5, 6, 32), n_eddies=2, seed=21)
        rc, outs, interp = xc.run(load("fig8"), {"ssh.data": data.cube},
                                  ["temporalScores.data"])
        assert rc == 0
        got = outs["temporalScores.data"]
        assert np.allclose(got, temporal_scores(data.cube), atol=1e-3)
        assert interp.stats.leaked == 0

    def test_scores_rank_eddies_over_noise(self, xc):
        data = synthetic_ssh((10, 12, 48), n_eddies=2, seed=33)
        rc, outs, _ = xc.run(load("fig8"), {"ssh.data": data.cube},
                             ["temporalScores.data"])
        scores = outs["temporalScores.data"].max(axis=2)
        mask = data.eddy_mask()
        if mask.any() and (~mask).any():
            assert scores[mask].mean() > 3 * scores[~mask].mean()


class TestFig9:
    def test_transformed_program_same_answer(self, xct, cube):
        # 8 columns: divisible by the split factor 4
        c = np.random.default_rng(3).normal(0, 1, (6, 8, 10)).astype(np.float32)
        rc, outs, _ = xct.run(load("fig9"), {"ssh.data": c}, ["means.data"])
        assert rc == 0
        assert np.allclose(outs["means.data"], temporal_mean(c), atol=1e-4)


class TestBackendsAgree:
    """Interpreter and gcc produce identical outputs for the programs."""

    @pytest.mark.parametrize("fig,exts,inputs,outname", [
        ("fig1", ("matrix",), None, "means.data"),
        ("fig8", ("matrix",), None, "temporalScores.data"),
        ("fig9", ("matrix", "transform"), None, "means.data"),
    ])
    def test_native_equals_interpreted(self, tmp_path, fig, exts, inputs, outname):
        from repro.cexec import compile_and_run, gcc_available
        from tests.conftest import XCRunner

        if not gcc_available():
            pytest.skip("gcc not available")
        cube = np.random.default_rng(7).normal(0, 0.4, (4, 8, 16)).astype(np.float32)
        src = load(fig)
        xc = XCRunner(tmp_path, exts)
        _rc, outs, _ = xc.run(src, {"ssh.data": cube}, [outname])
        native = compile_and_run(src, list(exts), {"ssh.data": cube},
                                 output_names=[outname], nthreads=2)
        a, b = outs[outname], native.outputs[outname]
        assert a.shape == b.shape
        assert np.allclose(a, b, atol=1e-4)

    def test_fig4_native_equals_interpreted(self, tmp_path):
        from repro.cexec import compile_and_run, gcc_available
        from tests.conftest import XCRunner

        if not gcc_available():
            pytest.skip("gcc not available")
        rng = np.random.default_rng(4)
        ssh = rng.normal(0.1, 0.5, (6, 7, 4)).astype(np.float32)
        dates = np.array([1012000, 1012001, 1011000, 1012002], dtype=np.int32)
        src = load("fig4")
        xc = XCRunner(tmp_path, ("matrix",))
        _rc, outs, _ = xc.run(src, {"ssh.data": ssh, "dates.data": dates},
                              ["eddyLabels.data"])
        native = compile_and_run(src, ["matrix"],
                                 {"ssh.data": ssh, "dates.data": dates},
                                 output_names=["eddyLabels.data"])
        assert (outs["eddyLabels.data"] == native.outputs["eddyLabels.data"]).all()


DIV_BY_ZERO = """
int main() {
    Matrix float <1> x = readMatrix("x.data");
    int n = dimSize(x, 0);
    float z = 0.0;
    float nz = -z;
    Matrix float <1> s = init(Matrix float <1>, 4);
    s[0] = x[1] / z;
    s[1] = -x[1] / z;
    s[2] = x[1] / nz;
    s[3] = z / z;
    Matrix float <1> a = init(Matrix float <1>, n);
    a = with ([0] <= [i] < [n]) genarray([n], x[i] / z);
    Matrix float <1> b = init(Matrix float <1>, n);
    b = with ([0] <= [i] < [n]) genarray([n], -x[i] / z);
    Matrix float <1> c = init(Matrix float <1>, n);
    c = with ([0] <= [i] < [n]) genarray([n], x[i] / nz);
    writeMatrix("s.data", s);
    writeMatrix("a.data", a);
    writeMatrix("b.data", b);
    writeMatrix("c.data", c);
    return 0;
}
"""


class TestFloatDivisionByZero:
    """Float division by zero follows IEEE 754 on every engine, as in the
    generated C: the tree walker, the VM (scalar code and numpy plans)
    and the gcc build write the same bytes and exit 0."""

    def three_engines(self, src, inputs, outputs):
        from repro.cexec import compile_and_run, gcc_available
        from repro.cexec.interp import run_program

        got = {}
        for engine in ("tree", "vm"):
            rc, files, _st, _ex = run_program(
                src, ["matrix"], inputs, output_names=outputs,
                nthreads=1, engine=engine)
            got[engine] = (rc, {k: files[k].tobytes() for k in outputs})
        if gcc_available():
            native = compile_and_run(src, ["matrix"], inputs,
                                     output_names=outputs)
            got["gcc"] = (native.returncode,
                          {k: native.outputs[k].tobytes() for k in outputs})
        assert all(v == got["tree"] for v in got.values()), got
        return got["tree"]

    def test_scalar_and_plan_quotients(self, monkeypatch):
        from repro.cexec import loopfast

        plans = []
        orig = loopfast.Plan.run

        def run(self, frame, stats=None):
            plans.append(orig(self, frame, stats))
            return plans[-1]
        monkeypatch.setattr(loopfast.Plan, "run", run)
        # 17 lanes: each genarray enters its plan at the shipped MIN_TRIP
        x = np.array([1.5, -2.0, 0.0, -0.0, np.inf, -np.inf, np.nan]
                     + [3.0] * 10, dtype=np.float32)
        outs = ["s.data", "a.data", "b.data", "c.data"]
        rc, files = self.three_engines(DIV_BY_ZERO, {"x.data": x}, outs)
        assert rc == 0 and plans == [True] * 3
        s = np.frombuffer(files["s.data"], np.float32)
        assert list(s[:3]) == [-np.inf, np.inf, np.inf] and np.isnan(s[3])
        a = np.frombuffer(files["a.data"], np.float32)
        assert list(a[:2]) == [np.inf, -np.inf] and np.isnan(a[2:4]).all()

    def test_fig1_on_an_empty_time_axis(self):
        cube = np.zeros((3, 4, 0), np.float32)
        rc, files = self.three_engines(load("fig1"), {"ssh.data": cube},
                                       ["means.data"])
        assert rc == 0
        assert np.isnan(np.frombuffer(files["means.data"], np.float32)).all()


class TestThreadCountInvariance:
    """Results must not depend on the worker count (determinism of the
    enhanced fork-join parallelization, §III-C)."""

    def test_fig1_native_threads(self):
        from repro.cexec import compile_and_run, gcc_available

        if not gcc_available():
            pytest.skip("gcc not available")
        cube = np.random.default_rng(2).normal(0, 1, (12, 10, 8)).astype(np.float32)
        outs = []
        for nt in (1, 2, 5):
            run = compile_and_run(load("fig1"), ["matrix"], {"ssh.data": cube},
                                  output_names=["means.data"], nthreads=nt)
            outs.append(run.outputs["means.data"])
            assert run.stats.leaked == 0
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])
