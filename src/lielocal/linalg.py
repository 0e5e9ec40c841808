"""Exact linear algebra over Q, F_p and Z on small dense matrices.

Matrices are plain lists of row lists.  Everything is exact: rational work
uses :class:`fractions.Fraction`, imported on first use, integer work stays
in Z, modular work reduces eagerly.  Sizes in this package never exceed a
few hundred rows, so simple Gaussian elimination is the right tool; one
elimination serves every field, passed as a field object (``QQ`` or
``GF(p)``).
The Smith normal form keeps its own loop: it works with unimodular row and
column operations over Z.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Sequence

from .errors import GuardExceeded

if TYPE_CHECKING:
    from fractions import Fraction

IntMatrix = list[list[int]]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    if a and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


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


def add_term(vec: dict, key, c, mod: int | None = None) -> None:
    """vec[key] += c in place, reduced mod ``mod`` when given; a zero entry
    is dropped, so equal sparse vectors are equal dicts."""
    if key in vec:
        c = vec[key] + c
    if mod is not None:
        c %= mod
    if c:
        vec[key] = c
    else:
        vec.pop(key, None)


def add_scaled(out: dict, vec: dict, c=1, mod: int | None = None) -> dict:
    """out += c * vec in place (``vec`` is left unchanged); returns ``out``.
    Reduction and zero-dropping as in :func:`add_term`."""
    if c == 1:
        for key, x in vec.items():
            add_term(out, key, x, mod)
    else:
        for key, x in vec.items():
            add_term(out, key, c * x, mod)
    return out


def closure(seeds, generators, act, guard: int | None = None) -> set:
    """The least set holding ``seeds`` and closed under x -> act(x, g) for
    every g in ``generators``, found breadth first.  Raises GuardExceeded
    once the set holds more than ``guard`` elements.

    ``WeylGroup.__init__`` and ``root_datum._reflection_closure`` keep their
    own loops: they record words and coroots in BFS order."""
    out = set(seeds)
    frontier = list(out)
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = act(x, g)
                if y not in out:
                    out.add(y)
                    new.append(y)
                    if guard is not None and len(out) > guard:
                        raise GuardExceeded(f"closure exceeded guard {guard}")
        frontier = new
    return out


def sparse_rank(rows: list[dict[int, int]], ell: int) -> int:
    """Rank over F_ell of a matrix given as sparse rows (column -> entry).

    The row update stays inline rather than calling :func:`add_scaled`: this
    loop carries the dg rank computations, and a call per entry made them
    slower (about 15% in most timing runs)."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        row = {c: v % ell for c, v in row.items() if v % ell}
        while row:
            col = min(row)
            if col in pivots:
                base = pivots[col]
                f = row[col] * pow(base[col], -1, ell) % ell
                for c, v in base.items():
                    new = (row.get(c, 0) - f * v) % ell
                    if new:
                        row[c] = new
                    else:
                        row.pop(c, None)
            else:
                pivots[col] = row
                rank += 1
                break
    return rank


# -- integer Smith normal form -------------------------------------------------


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, S, V) with U @ a @ V = S diagonal, U and V unimodular,
    and the diagonal entries forming a divisibility chain d1 | d2 | ...
    (nonnegative; zeros trail)."""
    s = [[int(x) for x in row] for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if s[t][t] < 0:
            negate_row(t)
        # clear row and column t by division; restart if a remainder appears
        dirty = False
        for i in range(t + 1, m):
            if s[i][t]:
                q = s[i][t] // s[t][t]
                add_row(t, i, -q)
                if s[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j]:
                q = s[t][j] // s[t][t]
                add_col(t, j, -q)
                if s[t][j]:
                    dirty = True
        if dirty:
            continue
        # ensure s[t][t] divides every remaining entry
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    return u, s, v
