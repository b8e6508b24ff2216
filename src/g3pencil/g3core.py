"""Vector algebra of the Galilean 3-space G3.

The first coordinate spans the absolute direction; a vector whose first
coordinate is zero is isotropic, and lengths of isotropic vectors are the
Euclidean lengths of their (y, z) parts.  The scalar product is degenerate:
it sees only the first components unless both vectors are isotropic.
"""

from __future__ import annotations

import math

from .errors import NonIsotropicInput, ZeroVector

ZERO_NORM_FLOOR = 1e-14


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


class G3Vector(Record):
    """A vector (x, y, z); x is the absolute component, y and z isotropic."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        self.x = x
        self.y = y
        self.z = z

    def __add__(self, other: "G3Vector") -> "G3Vector":
        return G3Vector(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "G3Vector") -> "G3Vector":
        return G3Vector(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "G3Vector":
        return G3Vector(-self.x, -self.y, -self.z)

    def __mul__(self, k: float) -> "G3Vector":
        return G3Vector(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def dot(a: G3Vector, b: G3Vector) -> float:
    """Galilean scalar product: a1*b1 unless both vectors are isotropic."""
    if a.x != 0.0 or b.x != 0.0:
        return a.x * b.x
    return a.y * b.y + a.z * b.z


def cross(a: G3Vector, b: G3Vector) -> G3Vector:
    """Galilean cross product; the result is always isotropic."""
    return G3Vector(*cross_parts(a.as_tuple(), b.as_tuple()))


def cross_parts(a, b) -> tuple[float, float, float]:
    """:func:`cross` on plain (x, y, z) sequences, as an (x, y, z) tuple."""
    return (0.0, a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def isotropic_norm(a: G3Vector) -> float:
    """Euclidean length of an isotropic vector's (y, z) part."""
    if a.x != 0.0:
        raise NonIsotropicInput(f"vector {a.as_tuple()} has nonzero absolute component")
    return math.hypot(a.y, a.z)


def normalize_isotropic(a: G3Vector) -> G3Vector:
    """Scale an isotropic vector to unit isotropic norm."""
    n = isotropic_norm(a)
    if n < ZERO_NORM_FLOOR:
        raise ZeroVector(f"cannot normalize near-zero vector {a.as_tuple()}")
    return G3Vector(0.0, a.y / n, a.z / n)

