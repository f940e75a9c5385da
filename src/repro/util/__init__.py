"""Shared infrastructure: source locations, diagnostics, ordered structures."""

import os

from repro.util.diagnostics import (
    Diagnostic,
    DiagnosticError,
    Diagnostics,
    Severity,
    SourceLocation,
    SourceSpan,
)


def env_flag(name: str) -> bool:
    """True when boolean env var *name* is set to a non-empty value
    other than ``0``; unset, empty and ``0`` all mean off."""
    return os.environ.get(name, "") not in ("", "0")


__all__ = [
    "Diagnostic",
    "DiagnosticError",
    "Diagnostics",
    "Severity",
    "SourceLocation",
    "SourceSpan",
    "env_flag",
]
