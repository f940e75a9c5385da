"""Canonical fingerprints for translator configurations.

A translator is fully determined by (a) the *content* of the composed
language-module specifications — terminal declarations with their regexes
and disambiguation metadata, productions, shift preferences — (b) the
selected :class:`~repro.cminus.env.Optimizations`, (c) the thread count
baked into generated code, and (d) the package version (our lowering
rules change between versions even when the grammar does not).

Two fingerprints are derived from that content:

* :func:`translator_fingerprint` — keys the in-memory translator cache;
  covers everything above.
* :func:`syntax_fingerprint` — keys the persistent artifact cache; covers
  only what the LALR tables and scanner DFA depend on (grammar content,
  shift preferences, package version), so translators that differ only in
  optimization flags or thread count share one on-disk artifact.

Fingerprints are hex SHA-256 digests of a canonical, printable encoding;
semantic actions (Python closures) are deliberately excluded — they are
re-attached from the freshly composed grammar when artifacts are restored,
and the package version stands in for their behaviour.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import Iterable

import repro
from repro.cminus.env import Optimizations
from repro.driver import LanguageModule
from repro.lexing.regex import Alt, Chars, Concat, Epsilon, Regex, Star
from repro.lexing.terminals import Terminal

# Bump when the artifact serialization layout changes incompatibly.
# 2: S24 — entries additionally carry the dense compiled scanner/parser
#    tables (CompiledDFA / CompiledTables payloads); format-1 entries
#    predate them and are discarded wholesale via the versioned subdir.
ARTIFACT_FORMAT = 2


def encode_regex(rx: Regex) -> str:
    """A canonical printable encoding of a regex AST (structure-complete)."""
    if isinstance(rx, Epsilon):
        return "e"
    if isinstance(rx, Chars):
        return "c" + ",".join(f"{lo}-{hi}" for lo, hi in rx.charset.intervals)
    if isinstance(rx, Concat):
        return f".({encode_regex(rx.left)})({encode_regex(rx.right)})"
    if isinstance(rx, Alt):
        return f"|({encode_regex(rx.left)})({encode_regex(rx.right)})"
    if isinstance(rx, Star):
        return f"*({encode_regex(rx.body)})"
    raise TypeError(f"unknown regex node {type(rx).__name__}")  # pragma: no cover


def _encode_terminal(t: Terminal) -> str:
    return "|".join(
        [
            t.name,
            encode_regex(t.regex),
            ",".join(sorted(t.dominates)),
            f"L{int(t.layout)}M{int(t.marking)}",
            t.origin,
        ]
    )


def _module_lines(m: LanguageModule) -> Iterable[str]:
    yield f"module {m.name} start={m.grammar.start}"
    for t in sorted(m.grammar.terminals, key=lambda t: t.name):
        yield "  T " + _encode_terminal(t)
    for lhs, rhs, _action, name, origin in m.grammar.raw_productions:
        yield f"  P {lhs} ::= {' '.join(rhs)} [{name}|{origin}]"
    if m.prefer_shift:
        yield "  prefer_shift " + ",".join(sorted(m.prefer_shift))
    if m.requires:
        yield "  requires " + ",".join(m.requires)


def _options_line(options: Optimizations) -> str:
    # Enumerate fields generically so adding a flag invalidates fingerprints.
    return "options " + ",".join(
        f"{f.name}={getattr(options, f.name)!r}" for f in fields(options)
    )


def _digest(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def syntax_fingerprint(modules: list[LanguageModule]) -> str:
    """Fingerprint of everything the parse tables / scanner DFA depend on.

    ``modules`` must already be dependency-resolved and ordered (as
    :class:`~repro.driver.Translator` stores them).
    """
    lines = [f"repro {repro.__version__} artifact-format {ARTIFACT_FORMAT}"]
    for m in modules:
        lines.extend(_module_lines(m))
    return _digest(lines)


def translator_fingerprint(
    modules: list[LanguageModule],
    options: Optimizations | None,
    nthreads: int,
) -> str:
    """Cache key for a fully configured translator."""
    lines = [
        f"repro {repro.__version__}",
        _options_line(options or Optimizations()),
        f"nthreads {nthreads}",
    ]
    for m in modules:
        lines.extend(_module_lines(m))
    return _digest(lines)
