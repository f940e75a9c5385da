"""Seeded inputs and output oracles for the e2e benchmark workloads.

Every input is a function of ``--seed``.  A seed changes the data a
program sees, never the amount of work it does, so runs on different
seeds stay comparable:

* the temporal means (fig1, fig9) do the same work for any data, so
  their cubes are fresh normal draws;
* fig8 walks troughs and fig4 propagates labels, so their work depends
  on the data's shape.  They take a fixed base cube and apply a seeded
  spatial permutation (fig8) or frame order (fig4) and a positive
  affine map, which keeps every comparison the program makes;
* compile units and serve requests are fixed multisets of programs,
  put in seeded order under seeded names.

The oracles are the independent references the tests use
(``repro.eddy`` numpy code, the tree-walking interpreter), with the
tolerances of ``tests/integration/test_figures.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.eddy import conn_comp, synthetic_ssh, temporal_mean, temporal_scores
from repro.programs import load

FIG1_SHAPE = (128, 128, 256)
FIG8_SHAPE = (12, 12, 96)
FIG4_SHAPE = (40, 40, 8)      # frames kept after the date filter
FIG9_SHAPE = (48, 48, 128)
MANDEL = (60, 90, 100)        # h, w, maxIter

#: Kept-frame dates start here; fig4 drops frames dated before it.
FIG4_FIRST_DATE = 1012000


def mandelbrot_source(h: int, w: int, max_iter: int) -> str:
    """The corpus mandelbrot with its viewport and iteration budget
    replaced (the integer literals are the only change)."""
    src = load("mandelbrot")
    for old, new in (("int h = 40;", f"int h = {h};"),
                     ("int w = 60;", f"int w = {w};"),
                     ("int maxIter = 80;", f"int maxIter = {max_iter};")):
        if old not in src:
            raise ValueError(f"mandelbrot.xc drifted: {old!r} missing")
        src = src.replace(old, new)
    return src


@dataclass
class Program:
    """One corpus program with its seeded inputs."""

    name: str
    source: str
    extensions: list[str]
    inputs: dict[str, np.ndarray]
    output: str


def _affine(rng: np.random.Generator, cube: np.ndarray, *, shift: bool
            ) -> np.ndarray:
    a = np.float32(rng.uniform(0.5, 1.5))
    b = np.float32(rng.uniform(-0.5, 0.5) if shift else 0.0)
    return (cube * a + b).astype(np.float32)


def fig1(seed: int) -> Program:
    cube = np.random.default_rng(seed).normal(0, 0.4, FIG1_SHAPE)
    return Program("fig1", load("fig1"), ["matrix"],
                   {"ssh.data": cube.astype(np.float32)}, "means.data")


def fig8(seed: int) -> Program:
    base = synthetic_ssh(FIG8_SHAPE, n_eddies=3, seed=8).cube
    rng = np.random.default_rng(seed)
    m, n, p = FIG8_SHAPE
    series = base.reshape(m * n, p)[rng.permutation(m * n)]
    cube = _affine(rng, series.reshape(FIG8_SHAPE), shift=True)
    return Program("fig8", load("fig8"), ["matrix"], {"ssh.data": cube},
                   "temporalScores.data")


def fig4(seed: int) -> Program:
    m, n, kept = FIG4_SHAPE
    base = np.random.default_rng(4).normal(0.2, 0.5, (m, n, kept + 1))
    rng = np.random.default_rng(seed)
    order = rng.permutation(kept + 1)
    dropped = int(rng.integers(kept + 1))   # position of the early frame
    dates = np.empty(kept + 1, dtype=np.int32)
    dates[dropped] = FIG4_FIRST_DATE - 10
    dates[np.arange(kept + 1) != dropped] = \
        FIG4_FIRST_DATE + 10 * np.arange(kept)
    cube = _affine(rng, base[:, :, order].astype(np.float32), shift=False)
    return Program("fig4", load("fig4"), ["matrix"],
                   {"ssh.data": cube, "dates.data": dates},
                   "eddyLabels.data")


def fig9(seed: int) -> Program:
    cube = np.random.default_rng(seed).normal(0, 1, FIG9_SHAPE)
    return Program("fig9", load("fig9"), ["matrix", "transform"],
                   {"ssh.data": cube.astype(np.float32)}, "means.data")


def mandelbrot() -> Program:
    """Fixed viewport: escape-time work depends on it, and the program
    reads no input."""
    return Program("mandelbrot", mandelbrot_source(*MANDEL), ["matrix"],
                   {}, "mandel.data")


def programs(workload: str, seed: int) -> list[Program]:
    if workload == "ssh-fastloop":
        return [fig1(seed), fig8(seed)]
    if workload == "scalar-dispatch":
        return [fig4(seed), fig9(seed), mandelbrot()]
    raise ValueError(f"{workload} runs no corpus programs")


def oracle(prog: Program):
    """A checker for ``prog``'s output: it returns why an output is wrong,
    or None.  The reference is computed once, here."""
    cube = prog.inputs.get("ssh.data")
    if prog.name == "fig4":
        keep = prog.inputs["dates.data"] >= FIG4_FIRST_DATE
        frames = cube[:, :, keep]
        want = np.stack([conn_comp(frames[:, :, t])
                         for t in range(frames.shape[2])], axis=2)
        atol = None
    elif prog.name == "mandelbrot":
        want, atol = tree_walker_output(prog), None
    elif prog.name == "fig8":
        want, atol = temporal_scores(cube), 1e-3
    elif prog.name in ("fig1", "fig9"):
        want = temporal_mean(cube)
        atol = 1e-5 if prog.name == "fig1" else 1e-4
    else:
        raise ValueError(f"no oracle for {prog.name}")

    def check(got: np.ndarray) -> str | None:
        ok = got.shape == want.shape and (
            (got == want).all() if atol is None
            else np.allclose(got, want, atol=atol))
        return None if ok else f"{prog.name}: output differs from the oracle"

    return check


def tree_walker_output(prog: Program) -> np.ndarray:
    """``prog``'s output on the tree-walking reference interpreter."""
    import tempfile
    from pathlib import Path

    from repro.api import run_source

    with tempfile.TemporaryDirectory() as wd:
        rc, outs, _stats, _ex = run_source(
            prog.source, prog.extensions, prog.inputs, engine="tree",
            workdir=Path(wd), output_names=[prog.output])
    if rc != 0 or prog.output not in outs:
        raise RuntimeError(f"tree walker failed on {prog.name} (rc {rc})")
    return outs[prog.output]


# -- compile-stream units ------------------------------------------------------

#: Per pass: (corpus program, copies) -> units.  A fixed multiset keeps
#: the work of a pass independent of the seed; "copies" > 1 renames every
#: function of the program and adds a main that calls each copy, so the
#: unit grows while staying a well-formed, check-clean program.
UNIT_MIX = {
    ("fig1", 1): 1, ("fig4", 1): 1, ("fig8", 1): 1, ("fig9", 1): 1,
    ("mandelbrot", 1): 2,
    ("fig1", 4): 2, ("fig9", 4): 1, ("mandelbrot", 4): 1,
    ("fig1", 16): 1, ("fig9", 16): 1,
}

#: Functions each corpus program defines (renamed in copies).
FUNCTIONS = {
    "fig1": ("main",),
    "fig4": ("connComp", "main"),
    "fig8": ("getTrough", "computeArea", "scoreTS", "main"),
    "fig9": ("main",),
    "mandelbrot": ("escape", "main"),
}

EXTENSIONS = {"fig9": ("matrix", "transform")}


def renamed_copies(name: str, copies: int, tag: str) -> str:
    src = load(name)
    pattern = re.compile(r"\b(%s)\b" % "|".join(FUNCTIONS[name]))
    parts = [pattern.sub(lambda m, c=c: f"{m.group(1)}_{tag}{c}", src)
             for c in range(copies)]
    calls = " ".join(f"main_{tag}{c}();" for c in range(copies))
    parts.append(f"int main() {{ {calls} return 0; }}\n")
    return "\n".join(parts)


def compile_units(seed: int) -> list[tuple[str, tuple[str, ...], str]]:
    """One pass worth of ``(label, extensions, source)`` units in seeded
    order.  The caller appends a per-pass comment to every source."""
    rng = np.random.default_rng(seed)
    units = []
    for (name, copies), count in UNIT_MIX.items():
        for i in range(count):
            if copies == 1:
                src = load(name)
            else:
                tag = "u%04x" % int(rng.integers(1 << 16))
                src = renamed_copies(name, copies, tag)
            units.append((f"{name}x{copies}", EXTENSIONS.get(name, ("matrix",)),
                          src))
    order = rng.permutation(len(units))
    return [units[i] for i in order]


# -- serve-mix requests --------------------------------------------------------

#: The request mix: 10 runs of small mandelbrot variants, 6 runs of fig1
#: on a 6x8x16 inline cube, 4 compiles of fig4 (50/30/20%).
MANDEL_VARIANTS = ((8, 12, 30), (10, 12, 30), (8, 16, 30), (12, 12, 30),
                   (8, 12, 40), (10, 10, 40), (12, 8, 40), (10, 14, 30),
                   (14, 8, 30), (9, 12, 36))
SERVE_FIG1_SHAPE = (6, 8, 16)
SERVE_FIG1_RUNS = 6
SERVE_COMPILES = 4
#: Mixes per closed-loop round.  The daemon recycles a worker every 64
#: runs, and a recycled worker's first run rebuilds its translator, so
#: a round whose run count is not a multiple of 2 workers x 64 carries
#: a varying number of those slow runs.  8 mixes hold 128 runs.
SERVE_MIXES_PER_ROUND = 8


def serve_round(seed: int, mixes: int = SERVE_MIXES_PER_ROUND
                ) -> list[dict]:
    """The fixed request multiset of one round, in seeded order.  Each
    request is ``{"type", "source", "inputs", "output", "key"}``; ``key``
    names the expected result (equal keys, equal results)."""
    rng = np.random.default_rng(seed)
    mix = [{"type": "run", "source": mandelbrot_source(*v), "inputs": {},
            "output": "mandel.data", "key": f"mandel{v}"}
           for v in MANDEL_VARIANTS]
    for i in range(SERVE_FIG1_RUNS):
        cube = rng.normal(0, 0.5, SERVE_FIG1_SHAPE).astype(np.float32)
        mix.append({"type": "run", "source": load("fig1"),
                    "inputs": {"ssh.data": cube}, "output": "means.data",
                    "key": f"fig1-{i}"})
    mix += [{"type": "compile", "source": load("fig4"), "inputs": {},
             "output": None, "key": "fig4"}] * SERVE_COMPILES
    reqs = mix * mixes
    return [reqs[i] for i in rng.permutation(len(reqs))]
