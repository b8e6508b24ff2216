"""The package's record base, and the cross product of the Galilean 3-space G3.

A vector of G3 is a plain (x, y, z) sequence of floats.  The first
coordinate spans the absolute direction; a vector whose first coordinate
is zero is isotropic, and lengths of isotropic vectors are the Euclidean
lengths of their (y, z) parts.
"""

from __future__ import annotations


class Record:
    """Base of the package's value records, immutable by convention.

    A record names its fields in ``_fields`` and assigns them in its own
    ``__init__``; nothing assigns to them afterwards.  Records of the same
    class with equal fields are equal and hash equally, a record never
    equals one of another class, and the repr reads ``Name(field=value, ...)``.
    A record that caches a compiled kernel with ``cached_property`` omits
    ``__slots__`` and so keeps a ``__dict__``; the cache takes no part in
    equality.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, k) for k in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def cross_parts(a, b) -> tuple[float, float, float]:
    """Galilean cross product of (x, y, z) sequences, as an (x, y, z) tuple; always isotropic."""
    return (0.0, a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
