"""Test-only oracle: Laurent polynomials over Z in one variable, exact.

The package keeps Z[v, 1/v] data as integer coefficient maps: Fock vectors
and Hecke elements are dicts from (label, exponent) to a nonzero int, and a
finished canonical-basis entry is a sorted tuple of (exponent, coefficient)
pairs.  This module keeps a Laurent polynomial as one object with its own
ring arithmetic, so that ``fock_oracle`` and ``bar_oracle`` recompute the
Fock-space route in an arithmetic the package does not share.  The
representation is a dict mapping exponent (int, possibly negative) to
nonzero int coefficient; all operations return new objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from lielocal.cyclotomic import poly_exact_div


class Laurent:
    """A Laurent polynomial with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | int = 0):
        if isinstance(coeffs, int):
            self._c = {0: coeffs} if coeffs else {}
        else:
            self._c = {e: c for e, c in coeffs.items() if c}

    @classmethod
    def variable(cls) -> "Laurent":
        return cls({1: 1})

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def coeff(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Laurent(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self._c == other._c

    def __add__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            other = Laurent(other)
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return Laurent(c)

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return Laurent({e: -v for e, v in self._c.items()})

    def __sub__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            other = Laurent(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "Laurent":
        return Laurent(other) - self

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            other = Laurent(other)
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return Laurent(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            raise ValueError("negative powers only for monomials; shift instead")
        result = Laurent(1)
        for _ in range(n):
            result = result * self
        return result

    def shifted(self, k: int) -> "Laurent":
        """Multiply by the k-th power of the variable."""
        return Laurent({e + k: v for e, v in self._c.items()})

    def bar(self) -> "Laurent":
        """The involution sending the variable to its inverse."""
        return Laurent({-e: v for e, v in self._c.items()})

    def exact_div(self, other: "Laurent") -> "Laurent":
        """Divide, requiring an exact Laurent quotient over Z; raises
        ValueError when there is none."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return Laurent(0)
        # strip the minimal degrees to divide ordinary polynomials
        a_shift, b_shift = min(self._c), min(other._c)
        quo = poly_exact_div(
            [self.coeff(e) for e in range(a_shift, max(self._c) + 1)],
            [other.coeff(e) for e in range(b_shift, max(other._c) + 1)])
        if quo is None:
            raise ValueError("not exactly divisible over Z")
        return Laurent({i + a_shift - b_shift: c for i, c in enumerate(quo)})

    def __call__(self, value):
        """Evaluate exactly at an int or Fraction; a negative exponent
        needs an invertible value."""
        total = sum((c * Fraction(value) ** e for e, c in self._c.items()), Fraction(0))
        return int(total) if total.denominator == 1 else total

    def eval_mod(self, value: int, modulus: int) -> int:
        """Evaluate at ``value`` modulo ``modulus``; negative exponents need
        ``value`` invertible mod ``modulus``."""
        return sum(c * pow(value, e, modulus) for e, c in self._c.items()) % modulus

    def to_string(self, var: str = "v") -> str:
        if not self._c:
            return "0"
        parts = []
        for e, c in sorted(self._c.items()):
            if e == 0:
                term = str(c)
            else:
                if c == 1:
                    term = ""
                elif c == -1:
                    term = "-"
                else:
                    term = str(c) + "*"
                term += var if e == 1 else f"{var}^{e}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    def __repr__(self) -> str:
        return f"Laurent({self.to_string()})"

    def to_json(self) -> dict[str, str]:
        """Exponent -> coefficient, both as decimal strings."""
        return {str(e): str(c) for e, c in sorted(self._c.items())}


def poly_from_coeffs(coeffs: Iterable[int]) -> Laurent:
    """Laurent polynomial from an ordinary coefficient list, degree 0 first."""
    return Laurent({i: c for i, c in enumerate(coeffs)})
