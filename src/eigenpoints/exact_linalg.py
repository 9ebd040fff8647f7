"""Exact rational matrices.

The kernel comes from ``modular.kernel``: the reduced-echelon kernel basis,
lifted from word-size primes and checked exactly over Q.  The basis is
canonical and the rank is exact: no thresholds anywhere.  The rank is first
read from the pivots of one modular image (``modular.pivot_columns``), a
proved lower bound; when that image is full, min(rows, cols), it is the
rank and nothing is lifted, else the rank is cols minus the size of the
lifted kernel.  Entries may be ints or rationals; int entries stay ints, so
rows of ints go to ``modular`` with only their content removed, and only
rows holding rationals have denominators to clear.
"""

from __future__ import annotations

from math import gcd as int_gcd
from math import lcm

from . import modular
from .rationals import ONE, ZERO, rational


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def mul_vector(self, v):
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum((row[j] * v[j] for j in range(self.cols)), ZERO) for row in self.entries]

    def _integer_rows(self):
        """The rows with denominators cleared and content removed; the kernel is unaffected."""
        out = []
        for row in self.entries:
            try:
                g = int_gcd(*row)
            except TypeError:
                # the row holds rationals: clear its denominators first
                den = lcm(*(int(x.denominator) for x in row))
                row = [int(x.numerator) * (den // int(x.denominator)) for x in row]
                g = int_gcd(*row)
            out.append([v // g for v in row] if g > 1 else row)
        return out

    def rank_bound(self) -> int:
        """The rank of one modular image: a proved lower bound on the rank."""
        return len(next(modular.pivot_columns(self._integer_rows(), self.cols)))

    def independent_rows(self, count: int) -> list:
        """The rows that the first modular image with at least ``count`` pivots picks, by index.

        The rows, denominators cleared, are the images' columns, so each row
        independent modulo q of the rows before it is picked, and the picked
        rows are independent over Q.  With ``count`` the rank over Q, they
        are the greedy basis of the row space over Q.  After
        ``_PRIME_BUDGET`` images with fewer pivots, ArithmeticError.
        """
        columns = list(zip(*self._integer_rows()))
        for pivots in modular.pivot_columns(columns, self.rows):
            if len(pivots) >= count:
                return pivots
        raise ArithmeticError("no modular image with that many pivots within the prime budget")

    def rank(self) -> int:
        bound = self.rank_bound()
        if bound == min(self.rows, self.cols):
            return bound
        return self.cols - len(self.right_kernel())

    def right_kernel(self):
        """Basis of {v : A v = 0}, one primitive integer vector per free column.

        The basis is canonical: vector k has entry 1 (before scaling) at the
        k-th free column and zeros at the other free columns.
        """
        return [[rational(x) for x in v] for v in modular.kernel(self._integer_rows(), self.cols)]

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

