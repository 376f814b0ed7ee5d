"""Field checks shared by the modules: value equality and copying for the
frozen dataclasses that hold numpy arrays, and the integer test for counts
and seeds."""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def _equal_fields(self, other):
    """__eq__ for dataclasses with array fields: every field equal, array
    fields by value (the generated __eq__ would take the truth value of an
    elementwise comparison, which raises). Classes using it set
    __hash__ = None."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not np.array_equal(a, b):
                return False
        elif a != b:
            return False
    return True


def _reduce_through_init(self):
    """__reduce__ for dataclasses whose __post_init__ freezes or derives
    state: pickle and copy rebuild the instance from its fields through
    the constructor, which a field-by-field copy would bypass."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))
