"""Projective points and deduplicated point sets.

Exact points are normalized so their first nonzero coordinate is 1;
floating points so the max-modulus coordinate is 1.  Points are compared
by the chordal distance, which needs no normalization.  Coordinates
serialize as "num/den" strings (exact) or [re, im] pairs (floating).
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations
from math import hypot, isfinite, ldexp

from .rationals import format_rational, is_rational, parse_rational, rational

FLOAT_DEDUP_TOL = 1e-8


class ProjectivePoint:
    __slots__ = ("coords", "exact", "_complex", "_key")

    def __init__(self, coords):
        coords = list(coords)
        if not coords:
            raise ValueError("empty coordinate vector")
        exact = all(is_rational(c) for c in coords)
        if exact:
            coords = [rational(c) if isinstance(c, int) else c for c in coords]
            if all(c == 0 for c in coords):
                raise ValueError("all coordinates are zero")
            lead = next(c for c in coords if c != 0)
            self.coords = tuple(c / lead for c in coords)
        else:
            zs = _in_range([complex(c) for c in coords])
            mags = [abs(z) for z in zs]
            top = max(mags)
            if top == 0.0:
                raise ValueError("all coordinates are zero")
            lead = zs[mags.index(top)]
            self.coords = tuple(z / lead for z in zs)
        self.exact = exact
        self._complex = None
        self._key = None

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def as_complex(self):
        """Max-modulus-normalized complex coordinates (for metric comparisons).

        Computed on first use and kept: a point's coordinates do not change.
        """
        if self._complex is None:
            zs = [complex(c) for c in self.coords]
            mags = [abs(z) for z in zs]
            lead = zs[mags.index(max(mags))]
            self._complex = tuple(z / lead for z in zs)
        return self._complex

    def is_real(self, tol: float = FLOAT_DEDUP_TOL) -> bool:
        if self.exact:
            return True
        return all(abs(z.imag) <= tol for z in self.as_complex())

    def distance(self, other: "ProjectivePoint") -> float:
        """The chordal distance max |a_i b_j - a_j b_i| / (|a| |b|).

        It is 0 exactly when a and b are one projective point, and it
        needs no lead coordinate: two renderings of a point whose
        coordinates tie in modulus are close whichever coordinate each was
        normalized by.
        """
        a, b = self.as_complex(), other.as_complex()
        cross = max(
            (abs(a[i] * b[j] - a[j] * b[i]) for i, j in combinations(range(len(a)), 2)),
            default=0.0,
        )
        return cross / (hypot(*map(abs, a)) * hypot(*map(abs, b)))

    def same_point(self, other: "ProjectivePoint", tol: float = FLOAT_DEDUP_TOL) -> bool:
        if len(self.coords) != len(other.coords):
            return False
        if self.exact and other.exact:
            return self.coords == other.coords
        return self.distance(other) < tol

    def sort_key(self):
        if self._key is None:
            self._key = tuple((round(z.real, 9), round(z.imag, 9)) for z in self.as_complex())
        return self._key

    def __eq__(self, other):
        return isinstance(other, ProjectivePoint) and self.same_point(other)

    def __hash__(self):
        # exact points hash by coordinates; floats fall back to identity buckets
        if self.exact:
            return hash(self.coords)
        return hash(len(self.coords))

    def coords_json(self):
        if self.exact:
            return [format_rational(c) for c in self.coords]
        return [[z.real, z.imag] for z in self.as_complex()]

    def __repr__(self):
        if self.exact:
            return "(" + ", ".join(format_rational(c) for c in self.coords) + ")"
        return "(" + ", ".join(f"{z:.6g}" for z in self.as_complex()) + ")"


# a coordinate part at or past this size is scaled down before normalization
_BIG = 2.0**1020


def _in_range(zs: list) -> list:
    """zs, or zs times a power of two (the same projective point) when a part
    is so large that its modulus, or a complex quotient by it, would overflow.

    The scaling is exact but for parts that underflow, so points of moderate
    size keep their coordinates bit for bit.
    """
    if max(max(abs(z.real), abs(z.imag)) for z in zs) < _BIG:
        return zs
    return [complex(ldexp(z.real, -8), ldexp(z.imag, -8)) for z in zs]


def _double(x) -> float:
    """x as a double; ValueError when it is past the double range or not finite."""
    try:
        value = float(x)
    except OverflowError:
        raise ValueError("coordinate past the double range") from None
    if not isfinite(value):
        raise ValueError(f"coordinate {value} is not finite")
    return value


def point_from_json(coords) -> ProjectivePoint:
    """A point from its JSON coordinates: "num/den" strings and integers are
    exact, floats and [re, im] pairs floating and finite; booleans are
    rejected."""
    vals = []
    for c in coords:
        if isinstance(c, str):
            vals.append(parse_rational(c))
        elif isinstance(c, (list, tuple)):
            vals.append(complex(_double(c[0]), _double(c[1])))
        elif isinstance(c, int) and not isinstance(c, bool):
            vals.append(rational(c))
        elif isinstance(c, float):
            vals.append(_double(c))
        else:
            raise ValueError(f"bad coordinate {c!r}")
    return ProjectivePoint(vals)


class PointSet:
    """Deduplicated points in a fixed P^n, kept in sorted order."""

    def __init__(self, n: int, points=()):
        self.n = n
        self.points: list[ProjectivePoint] = []
        for p in points:
            self.add(p)

    def add(self, p: ProjectivePoint) -> bool:
        if p.n != self.n:
            raise ValueError("point has wrong ambient dimension")
        if any(p.same_point(q) for q in self.points):
            return False
        # after every point of an equal key, as a stable sort would place it
        insort(self.points, p, key=ProjectivePoint.sort_key)
        return True

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return any(p.same_point(q) for q in self.points)

    def is_subset_of(self, other: "PointSet") -> bool:
        return all(p in other for p in self.points)

    def same_set(self, other: "PointSet") -> bool:
        return len(self) == len(other) and self.is_subset_of(other)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "points": [{"coords": p.coords_json(), "mult": 1} for p in self.points],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointSet":
        ps = cls(int(data["n"]))
        for entry in data["points"]:
            ps.add(point_from_json(entry["coords"]))
        return ps

    def __repr__(self):
        return f"PointSet(n={self.n}, size={len(self.points)})"
