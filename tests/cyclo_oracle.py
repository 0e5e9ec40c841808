"""Test-only oracle: eigenspace work over K = Q(zeta_d), element by element.

The package does every eigenspace computation on the rational kernel of
Phi_d(w phi) (see the ``lielocal.weyl`` docstring for the descent argument).
This module keeps the direct route over K for comparison: exact arithmetic
in Q[t]/(Phi_d) with field inversion by the extended Euclidean algorithm, a
K-basis of ker(w phi - zeta_d), and the restriction of an integer matrix to
its span.  It is slow and only meant for small groups.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from field_oracle import kernel_basis, rank, rref

from lielocal.cyclotomic import cyclotomic, poly_mul, poly_trim
from lielocal.errors import InvariantError, check


def poly_sub(a: Sequence, b: Sequence) -> list:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                      for i in range(n)])


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


class CycloField:
    """Exact arithmetic in K = Q[t]/(Phi_d).  Elements are tuples of
    Fractions of length phi(d) (coefficients of 1, t, ..., t^(phi(d)-1)).
    The row members (``coerce``, ``nonzero``, ``scale_row``, ``sub_row``)
    make it a field object for :func:`field_oracle.rref`."""

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


def reduce_against(rows: Sequence[Sequence], pivots: Sequence[int], vec: Sequence,
                   field) -> list:
    """Residual of ``vec`` after elimination by the rows of a row-reduced
    echelon form with the given pivot columns; zero iff ``vec`` lies in
    their span."""
    residual = list(vec)
    for row, p in zip(rows, pivots):
        if field.nonzero(residual[p]):
            residual = field.sub_row(residual, residual[p], row)
    return residual


def eigenspace_basis(group, w: int, d: int):
    """(K, basis over K of ker(w phi - zeta_d) in X ⊗ K)."""
    field = CycloField(d)
    km = [[field.from_rational(x) for x in row] for row in group._twisted_matrix(w)]
    for i, row in enumerate(km):
        row[i] = field.sub(row[i], field.zeta())
    return field, kernel_basis(km, field)


def vanishes_on(field: CycloField, coroot, basis) -> bool:
    """True when the integer functional ``coroot`` is zero on span(basis)."""
    return all(field.is_zero(field.dot(coroot, v)) for v in basis)


def is_regular_eigenspace(group, field: CycloField, basis) -> bool:
    return bool(basis) and not any(vanishes_on(field, coroot, basis)
                                   for coroot in group.ctx.coroots)


def restrict_to_span(field: CycloField, int_matrix, rows, pivots):
    """Matrix of an integer matrix's action on the span of row-reduced
    ``rows``, in that basis; raises if the span is not preserved.  A vector
    of the span is the combination of the rows whose coefficients are its
    entries at the pivot columns, so each image is read off there."""
    cols = []
    for row in rows:
        image = [field.dot(m_row, row) for m_row in int_matrix]
        check(not any(map(field.nonzero, reduce_against(rows, pivots, image, field))),
              "centralizer does not preserve the eigenspace")
        cols.append([image[p] for p in pivots])
    return tuple(zip(*cols))


def eigenspace_action(group, w: int, d: int, centralizer,
                      matrices) -> tuple[list[int], list[int]]:
    """(identity, pseudo-reflections) among ``centralizer``, by restricting
    each element's matrix, ``matrices[v]``, to the K-eigenspace and taking
    rank(R - 1) over K."""
    field, basis = eigenspace_basis(group, w, d)
    rows, pivots = cyclo_rref(field, [list(v) for v in basis])
    one = field.one
    trivial, reflections = [], []
    for v in centralizer:
        r = restrict_to_span(field, matrices[v], rows, pivots)
        moved = rank([[field.sub(x, one) if i == j else x for j, x in enumerate(row)]
                      for i, row in enumerate(r)], field)
        if moved == 0:
            trivial.append(v)
        elif moved == 1:
            reflections.append(v)
    return trivial, reflections
