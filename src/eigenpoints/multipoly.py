"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``nvars`` variables x0..x_{nvars-1} is stored as a dict
mapping exponent tuples to nonzero rational coefficients.  The canonical
term order everywhere (storage, printing, serialization) is graded
lexicographic: higher total degree first, ties broken by the exponent
tuple with x0 weighted heaviest.

Two interchange formats are supported:

* text, a sum of terms ``c * x0^a0 x1^a1 ...`` with ``c`` a rational
  written as ``num/den``;
* JSON, ``{"nvars": n, "terms": [{"coef": "num/den", "exp": [a0,...]}]}``.
"""

from __future__ import annotations

import re

from .rationals import ONE, ZERO, format_rational, parse_rational, rational


def _grlex_key(mono):
    return (sum(mono), mono)


class Polynomial:
    """Immutable-by-convention sparse polynomial over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, coef in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"exponent tuple {mono} has wrong length")
                c = coef if not isinstance(coef, int) else rational(coef)
                if c != 0:
                    clean[tuple(mono)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: rational(c) if isinstance(c, int) else c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        mono = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(nvars, {mono: ONE})

    @classmethod
    def monomial(cls, exponents, coef=ONE) -> "Polynomial":
        exponents = tuple(exponents)
        return cls(len(exponents), {exponents: coef})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable counts")

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check_compatible(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, ZERO) + c
            if s == 0:
                res.pop(m, None)
            else:
                res[m] = s
        return Polynomial(self.nvars, res)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = rational(other) if isinstance(other, int) else other
            if c == 0:
                return Polynomial(self.nvars)
            return Polynomial(self.nvars, {m: co * c for m, co in self.terms.items()})
        self._check_compatible(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = res.get(m, ZERO) + c1 * c2
                if s == 0:
                    res.pop(m, None)
                else:
                    res[m] = s
        return Polynomial(self.nvars, res)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, ONE)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- calculus and evaluation ---------------------------------------

    def evaluate(self, point):
        """Exact (or floating, depending on the point's entries) value.

        The point must have one entry per variable; entries may be
        rationals, ints, floats or complex numbers, or polynomials in one
        variable count, at which the value is the composed polynomial.
        """
        if len(point) != self.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, polynomial has {self.nvars} variables"
            )
        total = None
        for mono, coef in self.terms.items():
            val = coef
            for x, e in zip(point, mono):
                if e:
                    val = val * x**e
            total = val if total is None else total + val
        if total is None:
            exact = all(not isinstance(x, (float, complex)) for x in point)
            return ZERO if exact else 0.0
        return total

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal derivative with respect to x_i."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        res = {}
        for mono, coef in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            m = mono[:i] + (e - 1,) + mono[i + 1 :]
            res[m] = res.get(m, ZERO) + coef * e
        return Polynomial(self.nvars, res)

    # -- substitutions -------------------------------------------------

    def dehomogenize(self, j: int) -> "Polynomial":
        """Set x_j = 1 and drop the variable (chart reduction)."""
        if self.nvars < 2:
            raise ValueError("cannot drop a variable from a univariate polynomial")
        res = {}
        for mono, coef in self.terms.items():
            m = mono[:j] + mono[j + 1 :]
            s = res.get(m, ZERO) + coef
            if s == 0:
                res.pop(m, None)
            else:
                res[m] = s
        return Polynomial(self.nvars - 1, res)

    def restrict_zero(self, j: int) -> "Polynomial":
        """Set x_j = 0 and drop the variable (hyperplane section)."""
        if self.nvars < 2:
            raise ValueError("cannot drop a variable from a univariate polynomial")
        res = {}
        for mono, coef in self.terms.items():
            if mono[j]:
                continue
            res[mono[:j] + mono[j + 1 :]] = coef
        return Polynomial(self.nvars - 1, res)

    # -- interchange ----------------------------------------------------

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coef in self.sorted_terms():
            factors = " ".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(mono) if e
            )
            c = format_rational(coef)
            parts.append(f"{c} * {factors}" if factors else c)
        return " + ".join(parts)

    _TERM_RE = re.compile(
        r"^\s*(?P<coef>[+-]?\d+(?:/\d+)?)?\s*\*?\s*(?P<monos>(?:x\d+(?:\^\d+)?\s*)*)\s*$"
    )

    @classmethod
    def from_text(cls, text: str, nvars: int) -> "Polynomial":
        """Parse the ``to_text`` format (spaces optional, '+'/'-' separators)."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        # normalize: turn binary minus into '+-'
        s = re.sub(r"(?<=[^e+\-*^ ])\s*-", "+-", s.replace(" - ", " +-"))
        terms = {}
        for chunk in s.split("+"):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = cls._TERM_RE.match(chunk)
            if not m:
                raise ValueError(f"cannot parse polynomial term {chunk!r}")
            coef_s = m.group("coef")
            if coef_s in (None, "", "+"):
                coef = ONE
            elif coef_s == "-":
                coef = -ONE
            else:
                coef = parse_rational(coef_s)
            mono = [0] * nvars
            for var in re.findall(r"x(\d+)(?:\^(\d+))?", m.group("monos") or ""):
                i = int(var[0])
                e = int(var[1]) if var[1] else 1
                if i >= nvars:
                    raise ValueError(f"variable x{i} out of range for nvars={nvars}")
                mono[i] += e
            key = tuple(mono)
            c = terms.get(key, ZERO) + coef
            if c == 0:
                terms.pop(key, None)
            else:
                terms[key] = c
        return cls(nvars, terms)

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"coef": format_rational(c), "exp": list(m)}
                for m, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        nvars = int(data["nvars"])
        terms = {}
        for t in data["terms"]:
            mono = tuple(int(e) for e in t["exp"])
            coef = parse_rational(t["coef"])
            terms[mono] = terms.get(mono, ZERO) + coef
        return cls(nvars, terms)
