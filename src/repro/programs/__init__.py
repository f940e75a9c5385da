"""The paper's example programs in extended C, shipped as package data."""

from __future__ import annotations

from pathlib import Path

_DIR = Path(__file__).parent

PROGRAMS = {
    "fig1": "fig1_temporal_mean.xc",
    "fig4": "fig4_conncomp.xc",
    "fig8": "fig8_eddy_scoring.xc",
    "fig9": "fig9_transformed_mean.xc",
    "mandelbrot": "mandelbrot.xc",
}


def load(name: str) -> str:
    """Source text of a paper program ("fig1", "fig4", "fig8", "fig9"
    or a bare filename)."""
    fname = PROGRAMS.get(name, name)
    path = _DIR / fname
    if not path.exists():
        raise FileNotFoundError(f"no such program {name!r}; have {sorted(PROGRAMS)}")
    return path.read_text()


def path_of(name: str) -> Path:
    return _DIR / PROGRAMS.get(name, name)


def corpus_cases() -> list[tuple]:
    """The full corpus at small, deterministic sizes: ``(name, source,
    extensions, inputs, output_names)`` tuples ready for
    :func:`repro.cexec.interp.run_program`.

    Shared by the E-IR instruction-count benchmark and the dispatch-
    specialization differential tests — same seeds everywhere, so both
    observe the same dynamic behavior.  The mandelbrot viewport
    and iteration budget are shrunk by textual substitution of the
    integer literals in the source (the compiled program is otherwise
    identical)."""
    import numpy as np

    from repro.eddy import synthetic_ssh

    cases: list[tuple] = []
    cube = np.random.default_rng(0).normal(0, 0.5, (6, 8, 12)) \
        .astype(np.float32)
    cases.append(("fig1", load("fig1"), ["matrix"],
                  {"ssh.data": cube}, ["means.data"]))
    ssh = np.random.default_rng(9).normal(0.2, 0.5, (8, 9, 5)) \
        .astype(np.float32)
    dates = np.array([1011990, 1012000, 1012010, 1012020, 1012030],
                     dtype=np.int32)
    cases.append(("fig4", load("fig4"), ["matrix"],
                  {"ssh.data": ssh, "dates.data": dates},
                  ["eddyLabels.data"]))
    eddy = synthetic_ssh((5, 6, 32), n_eddies=2, seed=21)
    cases.append(("fig8", load("fig8"), ["matrix"],
                  {"ssh.data": eddy.cube}, ["temporalScores.data"]))
    c9 = np.random.default_rng(3).normal(0, 1, (6, 8, 10)) \
        .astype(np.float32)
    cases.append(("fig9", load("fig9"), ["matrix", "transform"],
                  {"ssh.data": c9}, ["means.data"]))
    src = load("mandelbrot")
    for old, new in (("int h = 40;", "int h = 10;"),
                     ("int w = 60;", "int w = 12;"),
                     ("int maxIter = 80;", "int maxIter = 24;")):
        assert old in src, f"mandelbrot.xc drifted: {old!r} missing"
        src = src.replace(old, new)
    cases.append(("mandelbrot", src, ["matrix"], {}, ["mandel.data"]))
    return cases
