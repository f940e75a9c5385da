"""The translator driver: compose host + chosen extensions, run pipeline.

This is the paper's §II workflow: the programmer picks a set of language
extensions; the "compiler-generating tools" compose their specifications
with the host and produce a custom translator.  :class:`Translator` is
that generated translator: it scans/parses with the composed grammar,
decorates the tree with the composed attribute grammar, reports
domain-specific errors, and emits plain parallel C.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.ag.core import AGSpec
from repro.ag.eval import decorate
from repro.ag.tree import Node
from repro.cminus.env import Binding, CompileContext, Env, Optimizations
from repro.cminus.types import VOID
from repro.grammar.cfg import GrammarSpec
from repro.parsing.parser import Parser


@dataclass
class LanguageModule:
    """A composable language-extension (or host) specification bundle."""

    name: str
    grammar: GrammarSpec
    ag: AGSpec
    builtins: list[Binding] = field(default_factory=list)
    # Called with the fresh CompileContext before decoration; registers
    # operator overload handlers, refcount hooks, etc.
    context_hooks: list[Callable[[CompileContext], None]] = field(default_factory=list)
    prefer_shift: frozenset[str] = frozenset()
    requires: tuple[str, ...] = ()
    # Names of runtime features this module's lowerings may request.
    runtime_features: tuple[str, ...] = ()


class CompileError(Exception):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("\n".join(errors))


#: Serializes the (cheap) lazy construction in CompileResult.bytecode.
_BYTECODE_LOCK = threading.Lock()


@dataclass
class CompileResult:
    source: str
    root: Node
    errors: list[str]
    lowered: Node | None
    c_source: str | None
    ctx: CompileContext
    _bytecode: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.errors

    def bytecode(self):
        """The compiled :class:`~repro.cexec.bytecode.BytecodeProgram`
        for this result, built once and shared — many VMs (e.g. one per
        test or per input set) can execute it without recompiling."""
        if not self.ok:
            raise CompileError(self.errors)
        if self._bytecode is None:
            from repro.cexec.bytecode import BytecodeProgram

            with _BYTECODE_LOCK:  # a service may share one result
                if self._bytecode is None:
                    self._bytecode = BytecodeProgram(self.lowered, self.ctx)
        return self._bytecode

    def make_engine(self, *, engine: str = "vm", workdir: str = ".",
                    nthreads: int | None = None, fork_mode: str = "enhanced",
                    parallel_backend: str | None = None,
                    profile: bool = False):
        """A ready-to-run executor for this compile result.

        ``engine="vm"`` reuses the memoized :meth:`bytecode` program (so
        repeated engines skip recompilation); ``"tree"`` builds the
        reference interpreter.  ``nthreads`` sizes the VM's S23 fork-join
        pool, ``None`` deferring to ``REPRO_THREADS`` (default 1);
        ``parallel_backend`` picks thread/process/auto shard execution
        (``None`` defers to ``REPRO_PARALLEL_BACKEND``); call
        ``close()`` on the executor to release the pools."""
        from repro.cexec.interp import make_engine as _make_engine
        from repro.cexec.parallel import resolve_nthreads

        if not self.ok:
            raise CompileError(self.errors)
        program = self.bytecode() if engine in ("vm", "bytecode") else None
        return _make_engine(self.lowered, self.ctx, engine=engine,
                            workdir=workdir,
                            nthreads=resolve_nthreads(nthreads),
                            fork_mode=fork_mode, program=program,
                            parallel_backend=parallel_backend,
                            profile=profile)


class Translator:
    """A custom translator generated from host + extension modules.

    Thread safety: a constructed translator is immutable — grammar, parse
    tables, scanner DFA and AG spec are read-only after ``__init__`` —
    and every ``compile()``/``parse()``/``decorate()`` call keeps its
    mutable state (parser stacks, scan position, :class:`CompileContext`,
    decorated-tree caches) local to the call, so one translator may serve
    concurrent compiles (see ``tests/service/test_concurrency.py``).
    """

    def __init__(
        self,
        modules: list[LanguageModule],
        *,
        options: Optimizations | None = None,
        nthreads: int = 4,
        parser_factory: Callable[[GrammarSpec, frozenset[str]], Parser] | None = None,
    ):
        if not modules:
            raise ValueError("need at least the host module")
        self.modules = resolve_dependencies(modules)
        self.options = options or Optimizations()
        self.nthreads = nthreads

        host, *exts = self.modules
        spec = host.grammar.compose(*(e.grammar for e in exts))
        self.ag: AGSpec = host.ag.compose(*(e.ag for e in exts)) if exts else host.ag
        self.prefer_shift = frozenset().union(*(m.prefer_shift for m in self.modules))
        # The compilation service passes a factory that restores LALR tables
        # and the scanner DFA from the persistent artifact cache instead of
        # regenerating them (see repro.service.artifacts).
        if parser_factory is not None:
            self.parser = parser_factory(spec, self.prefer_shift)
        else:
            self.parser = Parser(spec.build(), prefer_shift=self.prefer_shift)
        self.grammar = self.parser.grammar
        self.builtins = [b for m in self.modules for b in m.builtins]

    # -- pipeline -----------------------------------------------------------------

    def parse(self, source: str, filename: str = "<input>") -> Node:
        return self.parser.parse(source, filename)

    def fresh_context(self) -> CompileContext:
        ctx = CompileContext(options=self.options)
        ctx.nthreads = self.nthreads
        for m in self.modules:
            for hook in m.context_hooks:
                hook(ctx)
        return ctx

    def decorate(self, root: Node, ctx: CompileContext | None = None):
        ctx = ctx or self.fresh_context()
        env = Env({b.name: b for b in self.builtins})
        return decorate(
            self.ag,
            root,
            {
                "env": env,
                "ctx": ctx,
                "in_index": False,
                "in_loop": False,
                "fun_ret": VOID,
            },
        ), ctx

    def compile(
        self, source: str, filename: str = "<input>", *, check_only: bool = False
    ) -> CompileResult:
        root = self.parse(source, filename)
        dn, ctx = self.decorate(root)
        errors = list(dn.att("errors"))
        if errors or check_only:
            return CompileResult(source, root, errors, None, None, ctx)
        lowered = dn.att("lowered")
        c_source = self.emit_c(lowered, ctx)
        return CompileResult(source, root, errors, lowered, c_source, ctx)

    def compile_or_raise(self, source: str, filename: str = "<input>") -> CompileResult:
        result = self.compile(source, filename)
        if not result.ok:
            raise CompileError(result.errors)
        return result

    # -- C assembly ------------------------------------------------------------------

    def emit_c(self, lowered: Node, ctx: CompileContext) -> str:
        from repro.codegen.emit import assemble_c_program

        return assemble_c_program(lowered, ctx)


def resolve_dependencies(modules: list[LanguageModule]) -> list[LanguageModule]:
    """Add required modules (by registry name) and order host-first."""
    from repro.api import module_registry

    registry = module_registry()
    by_name = {m.name: m for m in modules}
    order: list[LanguageModule] = []
    visiting: set[str] = set()

    def visit(m: LanguageModule) -> None:
        if m.name in visiting:
            return
        visiting.add(m.name)
        for dep in m.requires:
            dep_mod = by_name.get(dep) or registry.get(dep)
            if dep_mod is None:
                raise ValueError(f"module {m.name!r} requires unknown module {dep!r}")
            by_name.setdefault(dep, dep_mod)
            visit(dep_mod)
        if m not in order:
            order.append(m)

    for m in list(modules):
        visit(m)
    # Host (no requirements, name "cminus") must come first.
    order.sort(key=lambda m: 0 if m.name == "cminus" else 1)
    return order
