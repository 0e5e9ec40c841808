"""Numeric oracles for the Fock-space bar involution.

The package computes the bar involution by straightening q-wedges and
checks bar-invariance symbolically.  This module keeps the earlier route,
which shares none of that code, as an independent check at small sizes.
Its Fock vectors map partitions to Laurent polynomials, as in
tests/fock_oracle.py:

* ``_bar_matrix`` reads the involution off one exact solve of the family
  matrix at v = t = 2^64, as the balanced base-t digits of each value, and
  returns it only after the symbolic identities W M(1/v) = M(v) and
  W W(1/v) = 1 hold;
* ``numeric_bar_check`` re-expands every G over the family at eight exact
  points, one d-core block at a time, with ``fraction_free_solve``, a
  Bareiss solve in integer arithmetic that also gives ``det``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from field_oracle import rref
from fock_oracle import FockVector, _bar_apply
from laurent_oracle import Laurent

from lielocal.errors import InvariantError, check
from lielocal.fock_llt import Partition, _core_blocks

_QUOTIENT = operator.itemgetter(0)
_REMAINDER = operator.itemgetter(1)


def fraction_free_solve(a: Sequence[Sequence[int]],
                        b: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """(det a, det(a) * X) for the solution X of a @ X = b, all in Z.

    ``a`` is a square integer matrix and ``b`` has one row per row of ``a``.
    Fraction-free Gauss-Jordan elimination (Bareiss): after step k every row
    is scaled so that the leading block is the k-th pivot times the identity,
    and each update (p_k * x - f * y) / p_(k-1) divides exactly.  Every such
    division is checked, so a remainder raises InvariantError instead of
    going unnoticed.  A singular ``a`` gives (0, None).
    """
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a) \
            or len({len(rhs) for rhs in b}) > 1:
        raise ValueError("shape mismatch")
    m = [[operator.index(x) for x in row] + [operator.index(x) for x in rhs]
         for row, rhs in zip(a, b)]
    prev, sign = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        row_k = m[k]
        p = row_k[k]
        tail_k = row_k[k + 1:]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            steps = [divmod(p * x - f * y, prev) for x, y in zip(row[k + 1:], tail_k)]
            check(not any(map(_REMAINDER, steps)),
                  "fraction-free elimination met an inexact division")
            # columns up to k are never read again; keep the row's width
            row[k + 1:] = map(_QUOTIENT, steps)
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the last fraction-free pivot,
    with the sign of the row swaps; 0 when ``a`` is singular."""
    return fraction_free_solve(a, [()] * len(a))[0]


_BAR_CHECK_POINTS = (
    Fraction(2), Fraction(3), Fraction(5), Fraction(7),
    Fraction(-2), Fraction(-3), Fraction(7, 2), Fraction(-5, 3),
)


def _laurent_at(value: Fraction, t: int) -> Laurent:
    """The Laurent polynomial f with f(t) = value and every coefficient in
    [-t/2, t/2), for t a power of two: the balanced base-t digits of value,
    scaled by the least power of t that clears its denominator."""
    den = value.denominator
    if den & (den - 1):
        raise InvariantError(f"{value} has a denominator that is not a power of two")
    bits = t.bit_length() - 1
    low = -(-(den.bit_length() - 1) // bits)
    rest = value.numerator * (t**low // den)
    half = t // 2
    terms = {}
    exponent = -low
    while rest:
        digit = (rest + half) % t - half
        terms[exponent] = digit
        rest = (rest - digit) // t
        exponent += 1
    return Laurent(terms)


def _family_rows(labels, family, x) -> list[list[Fraction]]:
    """The family matrix at v = x, transposed: row c is A(labels[c])."""
    return [[family[a].get(p, Laurent(0))(x) for p in labels] for a in labels]


def _family_solve(mat: list[list[Fraction]],
                  rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve mat * X = rhs over Q, for a square family matrix mat."""
    size = len(mat)
    red, pivots = rref([row + r for row, r in zip(mat, rhs)])
    check(pivots[:size] == list(range(size)), "family matrix is singular at a check point")
    return [row[size:] for row in red]


def _bar_matrix(labels: list[Partition],
                family: dict[Partition, FockVector]) -> dict[Partition, FockVector]:
    """Matrix of the bar involution on the standard basis of one d-core
    block, as columns.

    The involution fixes every family vector, which pins it down: writing M
    for the family matrix, bar on standard coordinates is W = M(v) M(1/v)^-1.
    One exact solve at v = t = 2^64 gives W(t), and each entry is read off
    the balanced base-t digits of its value.  A singular solve, a value that
    is not a Laurent polynomial at t, or a failed symbolic check squares t
    and retries.
    """
    t = 2**64
    for _ in range(4):
        try:
            w_tr = _family_solve(_family_rows(labels, family, Fraction(1, t)),
                                 _family_rows(labels, family, t))
            candidate = {col: {row: e for row, x in zip(labels, w_col)
                               if (e := _laurent_at(x, t))}
                         for col, w_col in zip(labels, w_tr)}
        except InvariantError:
            pass
        else:
            if _bar_matrix_valid(labels, family, candidate):
                return candidate
        t *= t
    raise InvariantError("bar involution could not be read off an exact evaluation")


def _bar_matrix_valid(labels, family, columns) -> bool:
    """Symbolic check of W(v) M(1/v) = M(v) and W(v) W(1/v) = identity: the
    candidate bar fixes every family vector and squares to the identity."""
    return all(_bar_apply(columns, family[p]) == family[p]
               and _bar_apply(columns, columns[p]) == {p: Laurent(1)}
               for p in labels)


def _cleared_values(entries, num: int, den: int, low: int, high: int) -> list[list[int]]:
    """den^high * num^-low * f(num/den) for each Laurent f in ``entries``
    (lists of (exponent, coefficient) pairs with exponents in [low, high]):
    the values at v = num/den with one common denominator cleared."""
    num_pows = [num**k for k in range(high - low + 1)]
    den_pows = [den**k for k in range(high - low + 1)]
    return [[sum(c * num_pows[e - low] * den_pows[high - e] for e, c in f)
             for f in row] for row in entries]


def numeric_bar_check(matrix, family) -> None:
    """Check bar-invariance of every G by re-expansion over the family at
    each point of ``_BAR_CHECK_POINTS``, one d-core block at a time.

    Each G is a combination sum c_A(v) A of bar-invariant family vectors,
    so its bar image is the combination with v-inverted coefficients: solve
    for the c_A at v = 1/t and re-expand at v = t, which must give G(t).
    Both sides are scaled by one power product that clears every
    denominator; the solve is fraction-free, returning det * c_A, and the
    re-expansion is compared with det * G(t) in Z.
    """
    labels = matrix.labels
    position = {p: k for k, p in enumerate(labels)}
    zero = Laurent(0)
    for block in _core_blocks(labels, matrix.d):
        cols = [position[p] for p in block]
        rows = [lam for lam, row in enumerate(matrix.entries)
                if any(row[c] for c in cols)]
        # transposed: one row per column label mu of the block
        fam = [[list(family[a].get(mu, zero).items()) for a in block] for mu in block]
        g = [[list(matrix.entries[lam][c]) for lam in rows] for c in cols]
        exponents = [e for row in fam + g for f in row for e, _ in f]
        low, high = min(exponents, default=0), max(exponents, default=0)
        for t in _BAR_CHECK_POINTS:
            num, den = t.numerator, t.denominator
            # at v = 1/t the roles of numerator and denominator swap
            det, coeffs = fraction_free_solve(_cleared_values(fam, den, num, low, high),
                                              _cleared_values(g, den, num, low, high))
            check(det != 0, "family matrix is singular at a check point")
            by_g = list(zip(*coeffs))  # det * c_A, one tuple per G
            for j, (fam_t, g_t) in enumerate(zip(_cleared_values(fam, num, den, low, high),
                                                 _cleared_values(g, num, den, low, high))):
                for k, (coeff, value) in enumerate(zip(by_g, g_t)):
                    if sum(map(operator.mul, fam_t, coeff)) != det * value:
                        raise InvariantError(
                            f"G({labels[rows[k]]}) is not bar-invariant "
                            f"(coefficient of {block[j]} at v = {t})")
