"""Exceptions shared by the CLI layer."""

from __future__ import annotations


class SchemaError(ValueError):
    """Input-document violation, carrying a JSON-pointer-style path."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer
        self.message = message


class InternalCheckError(RuntimeError):
    """A theorem-backed check failed: this is a bug, not a finding."""
