"""Fixture: conformant export surface (clean)."""

from repro.core.instance_index import intern_pattern

__all__ = ["mine"]


def mine():
    return intern_pattern((), ())
