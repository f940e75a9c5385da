"""Interpreter runtime semantics: C arithmetic corner cases, scoping
machinery, and error behaviour — tested at the unit level (the
differential test against gcc lives in tests/integration)."""

import numpy as np
import pytest

from repro.cexec.interp import (
    InterpError,
    RTMat,
    RuntimeTrap,
    Scope,
    c_div,
    c_mod,
)


class TestCDivision:
    @pytest.mark.parametrize("a,b,want", [
        (7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3),
        (1, 3, 0), (-1, 3, 0), (6, 3, 2), (0, 5, 0),
    ])
    def test_div_truncates_toward_zero(self, a, b, want):
        assert c_div(a, b) == want

    @pytest.mark.parametrize("a,b,want", [
        (7, 3, 1), (-7, 3, -1), (7, -3, 1), (-7, -3, -1), (0, 3, 0),
    ])
    def test_mod_follows_c(self, a, b, want):
        assert c_mod(a, b) == want

    def test_identity_holds(self):
        for a in range(-20, 21):
            for b in (-7, -3, -1, 1, 3, 7):
                assert c_div(a, b) * b + c_mod(a, b) == a

    def test_div_by_zero_traps(self):
        with pytest.raises(RuntimeTrap):
            c_div(1, 0)
        with pytest.raises(RuntimeTrap):
            c_mod(1, 0)

    def test_float_division_is_true(self):
        assert c_div(1.0, 2) == 0.5
        assert c_div(7, 2.0) == 3.5

    def test_float_division_by_zero_is_ieee(self):
        assert c_div(1.0, 0) == np.inf
        assert c_div(-1.0, 0.0) == -np.inf
        assert c_div(1, -0.0) == -np.inf
        assert np.isnan(c_div(0.0, 0))
        assert isinstance(c_div(1.0, 0), float)


class TestScope:
    def test_chain_lookup(self):
        outer = Scope()
        outer.declare("x", 1)
        inner = Scope(outer)
        assert inner.get("x") == 1

    def test_shadowing(self):
        outer = Scope()
        outer.declare("x", 1)
        inner = Scope(outer)
        inner.declare("x", 2)
        assert inner.get("x") == 2
        assert outer.get("x") == 1

    def test_set_writes_defining_scope(self):
        outer = Scope()
        outer.declare("x", 1)
        inner = Scope(outer)
        inner.set("x", 9)
        assert outer.get("x") == 9

    def test_undefined_get(self):
        with pytest.raises(InterpError, match="undefined variable"):
            Scope().get("nope")

    def test_undefined_set(self):
        with pytest.raises(InterpError, match="assignment to undefined"):
            Scope().set("nope", 1)


class TestFloat32Semantics:
    """Matrix storage is float32, like the C backend."""

    def test_storage_rounds_to_f32(self, xc):
        rc, outs, _ = xc.run("""int main() {
            Matrix float <1> v = init(Matrix float <1>, 1);
            v[0] = 0.1;
            writeMatrix("out.data", v);
            return 0;
        }""", {}, ["out.data"])
        assert outs["out.data"][0] == np.float32(0.1)

    def test_float_literal_is_f32(self, xc_host):
        # 16777217 is not representable in float32 (2^24 + 1)
        rc, _outs, interp = xc_host.run(
            "int main() { printFloat(16777217.0); return 0; }"
        )
        assert interp.stdout == [f"{float(np.float32(16777217.0)):g}"]

    @pytest.mark.parametrize("ctype", ["float", "double", "tFloat"])
    def test_cast_narrows_through_f32(self, ctype):
        # a cast to float OR double must not smuggle float64 precision
        # past the declared C type (tRaw "double" used to be a no-op)
        from repro.ag.tree import Node
        from repro.cexec.interp import cast_value

        node = (Node("tRaw", [ctype]) if ctype in ("float", "double")
                else Node(ctype, []))
        assert cast_value(node, 16777217.0) == float(np.float32(16777217.0))

    def test_cast_to_int_truncates(self):
        from repro.ag.tree import Node
        from repro.cexec.interp import cast_value

        assert cast_value(Node("tRaw", ["long"]), -2.9) == -2
        assert cast_value(Node("tInt", []), 3.7) == 3


class TestRuntimeTraps:
    def test_messages_match_c_runtime(self, xc):
        cases = [
            ("""int main() {
                Matrix float <1> v = init(Matrix float <1>, 4);
                Matrix float <1> w = v[0 : 9];
                return 0;
            }""", "range"),
            ("""int main() {
                Matrix float <2> a = init(Matrix float <2>, 2, 3);
                Matrix float <2> b = init(Matrix float <2>, 2, 3);
                Matrix float <2> c = a * b;
                return 0;
            }""", "multiply"),
        ]
        for src, frag in cases:
            with pytest.raises(RuntimeTrap, match=frag):
                xc.run(src, {}, [])

    def test_native_traps_too(self, xc):
        """The C runtime exits with status 2 on the same violations."""
        from repro.cexec import compile_and_run, gcc_available

        if not gcc_available():
            pytest.skip("gcc not available")
        src = """int main() {
            Matrix float <1> v = init(Matrix float <1>, 4);
            Matrix float <1> w = v[0 : 9];
            return 0;
        }"""
        run = compile_and_run(src, ["matrix"], check=False)
        assert run.returncode == 2
        assert "range" in run.stderr


class TestVectorLanes:
    """The §V vector intrinsics trap when any lane falls outside the
    matrix, instead of returning a short slice or wrapping a negative
    index to the end."""

    @staticmethod
    def rt():
        from repro.cexec.interp import RTRuntime

        return RTRuntime()

    @staticmethod
    def mat(n=8):
        return RTMat("f", (n,), np.arange(n, dtype=np.float32))

    def test_in_range_lanes(self):
        rt, m = self.rt(), self.mat()
        assert list(rt.rt_vloadf(m, 4)) == [4, 5, 6, 7]
        assert list(rt.rt_vgatherf(m, 7, -2)) == [7, 5, 3, 1]
        rt.rt_vscatterf(m, 0, 2, np.full(4, -1, np.float32))
        rt.rt_vstoref(m, 1, np.full(4, 9, np.float32))
        assert list(m.data) == [-1, 9, 9, 9, 9, 5, -1, 7]

    @pytest.mark.parametrize("call, lane", [
        (lambda rt, m: rt.rt_vloadf(m, 5), 8),
        (lambda rt, m: rt.rt_vloadf(m, -1), -1),
        (lambda rt, m: rt.rt_vstoref(m, 6, np.zeros(4, np.float32)), 9),
        (lambda rt, m: rt.rt_vgatherf(m, 2, -1), -1),
        (lambda rt, m: rt.rt_vscatterf(m, 1, 3, np.zeros(4, np.float32)),
         10),
    ], ids=["load-past-end", "load-negative", "store-past-end",
            "gather-negative", "scatter-past-end"])
    def test_out_of_range_lane_traps(self, call, lane):
        rt, m = self.rt(), self.mat()
        before = m.data.copy()
        with pytest.raises(RuntimeTrap, match=f"lane index {lane} outside "
                           "a matrix of 8 elements"):
            call(rt, m)
        assert m.data.tobytes() == before.tobytes()


class TestRTMat:
    def test_as_numpy_shape(self):
        m = RTMat("f", (2, 3), np.arange(6, dtype=np.float32))
        out = m.as_numpy()
        assert out.shape == (2, 3)
        assert out[1, 2] == 5.0

    def test_as_numpy_copies(self):
        m = RTMat("f", (4,), np.zeros(4, dtype=np.float32))
        out = m.as_numpy()
        out[0] = 99
        assert m.data[0] == 0
