"""Fixture: broken export (RC003), broken import (RC101)."""

from repro.core.instance_index import (
    KERNEL_GONE,  # RC101: instance_index does not bind this
    intern_pattern,
)

__all__ = ["mine", "vanished"]  # RC003: 'vanished' is unbound


def mine():
    return intern_pattern((), ())
