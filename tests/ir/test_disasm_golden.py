"""Golden-dump drift gate for ``reproc disasm --ir``.

The committed ``golden_disasm.txt`` pins the whole pipeline end to end:
TAC decode shape, SSA numbering, which rewrites each pass performs on
the fixed input, the per-pass counts line, and the final register
bytecode.  Any behavioral change to the optimizer shows up as a diff
here and must be re-blessed deliberately:

    PYTHONPATH=src python -m repro.cli disasm tests/ir/golden_input.xc \\
        --ir -O2 > tests/ir/golden_disasm.txt
"""

from __future__ import annotations

import difflib
from pathlib import Path

from repro.cli import main

HERE = Path(__file__).parent


class TestGoldenDump:
    def test_disasm_ir_matches_golden(self, capsys):
        rc = main(["disasm", str(HERE / "golden_input.xc"), "--ir", "-O2"])
        assert rc == 0
        got = capsys.readouterr().out
        want = (HERE / "golden_disasm.txt").read_text()
        if got != want:
            diff = "\n".join(difflib.unified_diff(
                want.splitlines(), got.splitlines(),
                "golden_disasm.txt", "reproc disasm", lineterm=""))
            raise AssertionError(
                "disasm output drifted from the golden dump; if the "
                "change is intentional, regenerate it (see module "
                f"docstring).\n{diff}")

    def test_golden_counts_every_pass(self):
        """The golden input must keep exercising all seven counters."""
        counts = [ln for ln in (HERE / "golden_disasm.txt").read_text()
                  .splitlines() if ln.startswith("-- counts:")][0]
        for key in ("fold=", "copyprop=", "cse=", "thread=", "licm=",
                    "strength=", "dce="):
            assert key in counts, f"golden input no longer triggers {key}"

    def test_disasm_spec_matches_golden(self, capsys):
        """Same drift gate for what the VM runs (S29): each function's
        compiled Python — its structured loops and branches, the
        comparisons folded into tests and the dropped ``int()`` wraps.
        Regenerate:

            PYTHONPATH=src python -m repro.cli disasm \\
                tests/ir/golden_input.xc --spec -O2 \\
                > tests/ir/golden_disasm_spec.txt
        """
        rc = main(["disasm", str(HERE / "golden_input.xc"),
                   "--spec", "-O2"])
        assert rc == 0
        got = capsys.readouterr().out
        want = (HERE / "golden_disasm_spec.txt").read_text()
        if got != want:
            diff = "\n".join(difflib.unified_diff(
                want.splitlines(), got.splitlines(),
                "golden_disasm_spec.txt", "reproc disasm --spec",
                lineterm=""))
            raise AssertionError(
                "compiled-function disasm drifted from the golden "
                "dump; if intentional, regenerate it (see docstring)."
                f"\n{diff}")
        assert "while " in got and "def _fn(" in got, \
            "golden input no longer compiles to a structured loop"

    def test_disasm_O0_shows_raw_bytecode(self, capsys):
        rc = main(["disasm", str(HERE / "golden_input.xc"), "-O0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== kernel -O0 ==" in out
        assert "nregs=" in out
        assert "-- tac --" not in out  # stages only with --ir
