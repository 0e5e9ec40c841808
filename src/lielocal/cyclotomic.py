"""Cyclotomic polynomials over Z and exact arithmetic in Q(zeta_d).

Dense univariate polynomials are coefficient lists, constant term first.
``cyclotomic(d)`` produces Phi_d by exact division of x^d - 1; ``CycloField``
wraps Q[t]/(Phi_d(t)) with field inversion by the extended Euclidean
algorithm, which is what the regular-eigenvector computations need.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import InvariantError
from .linalg import rref

IntPoly = list[int]


def poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_sub(a: Sequence, b: Sequence) -> list:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                      for i in range(n)])


def poly_mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_eval(p: Sequence, x):
    acc = 0
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def poly_exact_div(num: Sequence[int], den: Sequence[int]) -> IntPoly | None:
    """Quotient of exact division over Z, or None if not divisible."""
    num = list(num)
    den = poly_trim(list(den))
    if not den:
        raise ZeroDivisionError
    poly_trim(num)
    if not num:
        return []
    dn = len(den) - 1
    lead = den[-1]
    quo = [0] * (len(num) - dn) if len(num) > dn else None
    if quo is None:
        return None
    while True:
        poly_trim(num)
        if not num:
            break
        n = len(num) - 1
        if n < dn:
            return None
        c, r = divmod(num[-1], lead)
        if r:
            return None
        quo[n - dn] = c
        for i, v in enumerate(den):
            num[i + n - dn] -= c * v
    return poly_trim(quo)


def poly_qdivmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    """(quotient, remainder) over Q."""
    num = [Fraction(x) for x in num]
    den = poly_trim([Fraction(x) for x in den])
    if not den:
        raise ZeroDivisionError
    dn = len(den) - 1
    lead = den[-1]
    quo = [Fraction(0)] * max(len(num) - dn, 0)
    while True:
        poly_trim(num)
        if len(num) - 1 < dn or not num:
            break
        n = len(num) - 1
        c = num[-1] / lead
        quo[n - dn] = c
        for i, v in enumerate(den):
            num[i + n - dn] -= c * v
    return poly_trim(quo), poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, constant term first."""
    if d < 1:
        raise ValueError("d must be positive")
    num: IntPoly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            q = poly_exact_div(num, list(cyclotomic(e)))
            if q is None:
                raise InvariantError(f"x^{d}-1 not divisible by Phi_{e}")
            num = q
    return tuple(num)


def euler_phi(d: int) -> int:
    return len(cyclotomic(d)) - 1


def factor_into_cyclotomics(poly: Sequence[int], candidates: Sequence[int]) -> dict[int, int]:
    """Factor a monic +-1-leading integer polynomial with nonzero constant
    term as a product of cyclotomic polynomials drawn from ``candidates``.

    Returns {d: exponent}.  Raises InvariantError if anything is left over,
    which catches both an incomplete candidate list and a non-cyclotomic
    input."""
    rem = poly_trim(list(poly))
    if not rem:
        raise ValueError("zero polynomial")
    out: dict[int, int] = {}
    for d in sorted(set(candidates)):
        phi = list(cyclotomic(d))
        while True:
            q = poly_exact_div(rem, phi)
            if q is None:
                break
            rem = q
            out[d] = out.get(d, 0) + 1
    if rem != [1]:
        raise InvariantError(
            f"polynomial is not a product of the candidate cyclotomics; leftover {rem}")
    return out


class CycloField:
    """Exact arithmetic in K = Q[t]/(Phi_d).  Elements are tuples of
    Fractions of length phi(d) (coefficients of 1, t, ..., t^(phi(d)-1)).
    The row members (``coerce``, ``nonzero``, ``scale_row``, ``sub_row``)
    make it a field object for :func:`lielocal.linalg.rref`."""

    nonzero = staticmethod(any)

    def __init__(self, d: int):
        self.d = d
        self.modulus = [Fraction(c) for c in cyclotomic(d)]
        self.degree = len(self.modulus) - 1

    def reduce(self, coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Remainder modulo the monic Phi_d, padded to phi(d) coefficients."""
        deg = self.degree
        rem = [Fraction(x) for x in coeffs] + [Fraction(0)] * (deg - len(coeffs))
        for k in range(len(rem) - 1, deg - 1, -1):
            for i in range(deg):
                rem[k - deg + i] -= rem[k] * self.modulus[i]
        return tuple(rem[:deg])

    def from_rational(self, a) -> tuple[Fraction, ...]:
        return self.reduce([Fraction(a)])

    @property
    def zero(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(0)] * self.degree)

    @property
    def one(self) -> tuple[Fraction, ...]:
        return self.from_rational(1)

    def zeta(self) -> tuple[Fraction, ...]:
        """The class of t, a primitive d-th root of unity."""
        return self.reduce([Fraction(0), Fraction(1)])

    def is_zero(self, a: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in a)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        if self.degree == 1:  # K = Q, for d = 1, 2
            return (a[0] * b[0],)
        return self.reduce(poly_mul(a, b))

    def scale(self, c, a):
        c = Fraction(c)
        return tuple(c * x for x in a)

    def inv(self, a: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        if self.degree == 1:
            return (Fraction(1) / a[0],)
        # extended Euclid in Q[t]: s*a + t*Phi = gcd (a unit since Phi_d is
        # irreducible over Q and deg a < deg Phi)
        r0, r1 = self.modulus[:], poly_trim([Fraction(x) for x in a])
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while r1:
            q, r = poly_qdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        if len(r0) != 1:
            raise InvariantError(
                f"Phi_{self.d} shares a factor with a nonzero element; not a field?")
        c = r0[0]
        return self.reduce([x / c for x in s0])

    def coerce(self, row) -> list[tuple[Fraction, ...]]:
        return list(row)

    def scale_row(self, c, row):
        return [self.mul(c, x) for x in row]

    def sub_row(self, row, c, pivot):
        """row - c * pivot."""
        return [self.sub(x, self.mul(c, y)) if any(y) else x for x, y in zip(row, pivot)]

    def dot(self, int_row, vec) -> tuple[Fraction, ...]:
        """sum_i int_row[i] * vec[i] for a row of rationals and a vector
        over K (a coroot paired with a vector, a matrix row times a vector)."""
        total = [Fraction(0)] * self.degree
        for c, x in zip(int_row, vec):
            if c:
                total = [t + c * y for t, y in zip(total, x)]
        return tuple(total)

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one
        base = tuple(a)
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out


def cyclo_rref(field: CycloField, mat: list[list[tuple]]) -> tuple[list[list[tuple]], list[int]]:
    """Row reduction over Q(zeta_d); returns (rref, pivot columns)."""
    return rref(mat, field)
