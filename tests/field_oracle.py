"""Test-only oracle: Gaussian elimination over a field object.

This is the elimination the package used before it moved to one
fraction-free integer routine (``lielocal.linalg._eliminate``).  It works
over any field passed as an object with row members: ``QQ`` (Fraction
entries), ``GF(p)``, and ``cyclo_oracle.CycloField``.  It shares no code
with the package's elimination, so the tests compare rank, kernel and
inverse against it, and the cyclotomic oracle uses it as its engine.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


class Rationals:
    """Q with :class:`~fractions.Fraction` entries.

    A field object works on whole rows so the elimination's inner loops stay
    list comprehensions: ``coerce`` a row, test an entry with ``nonzero``,
    ``inv`` and ``neg`` an entry, ``scale_row`` by an entry, and ``sub_row``
    a multiple of a pivot row.  ``GF`` offers the same members.  Every
    Fraction entry comes from ``coerce``, ``zero`` or ``one``, which import
    ``fractions`` when first called, so a process that does no rational
    work does not load it."""

    nonzero = staticmethod(bool)
    neg = staticmethod(operator.neg)

    @property
    def zero(self) -> Fraction:
        from fractions import Fraction
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        from fractions import Fraction
        return Fraction(1)

    def coerce(self, row) -> list[Fraction]:
        from fractions import Fraction
        return [Fraction(x) for x in row]

    def inv(self, x: Fraction) -> Fraction:
        return 1 / x

    def scale_row(self, c, row):
        return [c * x for x in row]

    def sub_row(self, row, c, pivot):
        """row - c * pivot."""
        return [x - c * y for x, y in zip(row, pivot)]


QQ = Rationals()


class GF:
    """The prime field F_p; entries are ints reduced into [0, p)."""

    zero = 0
    one = 1
    nonzero = staticmethod(bool)

    def __init__(self, p: int):
        self.p = p

    def coerce(self, row) -> list[int]:
        p = self.p
        return [x % p for x in row]

    def inv(self, x: int) -> int:
        return pow(x, -1, self.p)

    def neg(self, x: int) -> int:
        return -x % self.p

    def scale_row(self, c, row):
        p = self.p
        return [c * x % p for x in row]

    def sub_row(self, row, c, pivot):
        p = self.p
        return [(x - c * y) % p for x, y in zip(row, pivot)]


def _eliminate(m: list[list], field, reduced: bool) -> list[int]:
    """Gaussian elimination in place on coerced rows; returns the pivot
    columns.  ``reduced`` clears above each pivot too (row-reduced echelon
    form); without it only rows below are cleared, which is all a rank needs."""
    nonzero = field.nonzero
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if nonzero(m[i][c])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = field.scale_row(field.inv(m[r][c]), m[r])
        for i in range(0 if reduced else r + 1, rows):
            if i != r and nonzero(m[i][c]):
                m[i] = field.sub_row(m[i], m[i][c], m[r])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rref(a: Sequence[Sequence], field=QQ) -> tuple[list[list], list[int]]:
    """Row-reduced echelon form over ``field``; returns (R, pivot columns)."""
    m = [field.coerce(row) for row in a]
    return m, _eliminate(m, field, reduced=True)


def rank(a: Sequence[Sequence], field=QQ) -> int:
    return len(_eliminate([field.coerce(row) for row in a], field, reduced=False))


def kernel_basis(a: Sequence[Sequence], field=QQ) -> list[list]:
    """Basis of {x : a @ x = 0} over ``field``."""
    if not a:
        return []
    cols = len(a[0])
    r, pivots = rref(a, field)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * cols
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = field.neg(r[i][f])
        basis.append(v)
    return basis


def mat_inverse(a: Sequence[Sequence], field=QQ) -> list[list]:
    """Inverse over ``field``; raises ValueError on a singular matrix."""
    n = len(a)
    aug = [list(row) + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(a)]
    r, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in r[:n]]
