"""The reproc command-line driver."""

import numpy as np
import pytest

from repro.cexec import gcc_available
from repro.cexec.rmat import read_rmat, write_rmat
from repro.cli import main
from repro.programs import load


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "prog.xc").write_text(load("fig1"))
    write_rmat(tmp_path / "ssh.data",
               np.random.default_rng(0).random((3, 4, 5), dtype=np.float32))
    return tmp_path


def test_list_extensions(capsys):
    assert main(["--list-extensions"]) == 0
    out = capsys.readouterr().out
    for name in ("cminus", "matrix", "refcount", "transform", "tuples"):
        assert name in out


def test_translate_writes_c(workdir, capsys):
    rc = main([str(workdir / "prog.xc"), "-x", "matrix"])
    assert rc == 0
    c = (workdir / "prog.c").read_text()
    assert "rt_pool_run" in c or "for (long" in c


def test_check_mode_clean(workdir, capsys):
    assert main([str(workdir / "prog.xc"), "-x", "matrix", "--check"]) == 0
    assert "no errors" in capsys.readouterr().out


def test_check_mode_errors(tmp_path, capsys):
    (tmp_path / "bad.xc").write_text("int main() { return nope; }")
    assert main([str(tmp_path / "bad.xc"), "--check"]) == 1
    assert "undeclared identifier" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["/nonexistent.xc"]) == 1


def test_output_path_option(workdir):
    out = workdir / "custom.c"
    assert main([str(workdir / "prog.xc"), "-x", "matrix", "-o", str(out)]) == 0
    assert out.exists()


def test_ablation_flags_change_output(workdir):
    main([str(workdir / "prog.xc"), "-x", "matrix", "--sequential",
          "-o", str(workdir / "a.c")])
    main([str(workdir / "prog.xc"), "-x", "matrix", "--sequential",
          "--no-fusion", "--no-slice-elim", "-o", str(workdir / "b.c")])
    a = (workdir / "a.c").read_text()
    b = (workdir / "b.c").read_text()
    a_body = a[a.index("int __user_main"):]
    b_body = b[b.index("int __user_main"):]
    assert "rt_assign_copy" not in a_body
    assert "rt_assign_copy" in b_body


@pytest.mark.skipif(not gcc_available(), reason="gcc not available")
def test_run_mode_native(workdir):
    rc = main([str(workdir / "prog.xc"), "-x", "matrix", "--run",
               "--engine", "native", "--threads", "2"])
    assert rc == 0
    got = read_rmat(workdir / "means.data")
    want = read_rmat(workdir / "ssh.data").mean(axis=2)
    assert np.allclose(got, want, atol=1e-5)


@pytest.mark.parametrize("engine", ["vm", "tree"])
def test_run_mode_python_engines(workdir, engine):
    """--run needs no gcc on the Python engines (vm is the default)."""
    rc = main([str(workdir / "prog.xc"), "-x", "matrix", "--run",
               "--engine", engine, "--threads", "2"])
    assert rc == 0
    got = read_rmat(workdir / "means.data")
    want = read_rmat(workdir / "ssh.data").mean(axis=2)
    assert np.allclose(got, want, atol=1e-5)


def test_run_default_engine_is_vm(workdir):
    rc = main([str(workdir / "prog.xc"), "-x", "matrix", "--run"])
    assert rc == 0
    assert (workdir / "means.data").exists()


def test_run_trap_exits_2(tmp_path, capsys):
    (tmp_path / "trap.xc").write_text("""
        int main() {
            Matrix float <1> a = init(Matrix float <1>, 4);
            Matrix float <1> b = init(Matrix float <1>, 5);
            Matrix float <1> c = a + b;
            writeMatrix("c.data", c);
            return 0;
        }
    """)
    rc = main([str(tmp_path / "trap.xc"), "-x", "matrix", "--run"])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err


OUT_OF_RANGE = """
int main() {
    Matrix float <1> v = init(Matrix float <1>, 3);
    printInt(7);
    float x = v[5];
    printFloat(x);
    return 0;
}
"""


@pytest.mark.parametrize("engine", ["vm", "tree"])
def test_run_out_of_range_element_is_a_runtime_error(tmp_path, capsys,
                                                     engine):
    """An out-of-range element read is the program's trap: the output
    printed before it, then one ``runtime error`` line and exit 2."""
    (tmp_path / "oob.xc").write_text(OUT_OF_RANGE)
    rc = main([str(tmp_path / "oob.xc"), "-x", "matrix", "--run",
               "--engine", engine, "--threads", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out.splitlines()[-1] == "7"
    assert err == ("reproc: runtime error: index 5 is out of bounds for "
                   "axis 0 with size 3\n")


def test_run_integer_overflow_is_a_runtime_error(tmp_path, capsys):
    """An int too large for an int matrix element overflows in numpy;
    the CLI reports it like any trap."""
    (tmp_path / "ovf.xc").write_text("""
        int main() {
            Matrix int <1> v = init(Matrix int <1>, 2);
            int big = 65536 * 65536;
            printInt(1);
            v[0] = big;
            return 0;
        }
    """)
    rc = main([str(tmp_path / "ovf.xc"), "-x", "matrix", "--run"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out.splitlines()[-1] == "1"
    assert err.startswith("reproc: runtime error: Python integer ")


def test_unknown_extension(workdir, capsys):
    with pytest.raises(ValueError, match="unknown extension"):
        main([str(workdir / "prog.xc"), "-x", "nonsense"])


# -- batch mode (S21 compilation service) -------------------------------------


@pytest.fixture()
def batchdir(tmp_path):
    for name in ("fig1", "fig4", "fig8"):
        (tmp_path / f"{name}.xc").write_text(load(name))
    return tmp_path


def test_batch_writes_all_outputs(batchdir, capsys):
    files = [str(batchdir / f"{n}.xc") for n in ("fig1", "fig4", "fig8")]
    assert main(["batch", *files, "-x", "matrix", "-j", "2"]) == 0
    for n in ("fig1", "fig4", "fig8"):
        assert (batchdir / f"{n}.c").exists()
    out = capsys.readouterr().out
    assert out.count("wrote ") == 3


def test_batch_matches_single_file_mode(batchdir):
    src = str(batchdir / "fig1.xc")
    assert main([src, "-x", "matrix", "-o", str(batchdir / "single.c")]) == 0
    assert main(["batch", src, "-x", "matrix",
                 "--out-dir", str(batchdir / "out")]) == 0
    single = (batchdir / "single.c").read_text()
    batch = (batchdir / "out" / "fig1.c").read_text()
    assert single == batch


def test_batch_stats_flag(batchdir, capsys):
    files = [str(batchdir / f"{n}.xc") for n in ("fig1", "fig4")]
    assert main(["batch", *files, "-x", "matrix", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "translator cache" in out
    assert "requests" in out


def test_batch_check_mode(batchdir, capsys):
    src = str(batchdir / "fig1.xc")
    assert main(["batch", src, "-x", "matrix", "--check"]) == 0
    assert "no errors" in capsys.readouterr().out


def test_batch_reports_errors_and_fails(batchdir, capsys):
    bad = batchdir / "bad.xc"
    bad.write_text("int main() { return nope; }")
    good = str(batchdir / "fig1.xc")
    assert main(["batch", good, str(bad), "-x", "matrix"]) == 1
    err = capsys.readouterr().err
    assert "undeclared identifier" in err
    assert (batchdir / "fig1.c").exists()  # good program still compiled


def test_batch_missing_file(capsys):
    assert main(["batch", "/nonexistent.xc"]) == 1
    assert "no such file" in capsys.readouterr().err
