"""Diagnostics for the mini-CUDA front end.

Every error carries a source location so that compiler passes and the
simulator can point back at the offending kernel line, mirroring how a real
source-to-source tool (the paper used Cetus) reports problems.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourceLoc:
    """A (line, column) position inside a kernel source string."""

    line: int = 0
    col: int = 0

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.line}:{self.col}"


class MiniCudaError(Exception):
    """Base class for all front-end and compiler diagnostics."""

    def __init__(self, message: str, loc: SourceLoc | None = None):
        self.loc = loc
        if loc is not None and (loc.line or loc.col):
            message = f"[{loc}] {message}"
        super().__init__(message)


class LexError(MiniCudaError):
    """Raised when the lexer meets a character sequence it cannot tokenize."""


class ParseError(MiniCudaError):
    """Raised when the parser meets an unexpected token."""


class PragmaError(MiniCudaError):
    """Raised for malformed ``#pragma np`` directives."""


class TypeError_(MiniCudaError):
    """Raised by semantic analysis for type mismatches.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class TransformError(MiniCudaError):
    """Raised when a CUDA-NP transformation cannot be applied legally."""
