"""Cyclotomic polynomials over Z and the rational kernel of Phi_d(M).

Dense univariate polynomials are coefficient lists, constant term first.
``cyclotomic(d)`` produces Phi_d by exact division of x^d - 1.
``phi_d_matrix`` evaluates Phi_d at an integer matrix, and ``cyclo_rref``
gives an integer basis of its kernel over Q; all eigenspace work is done on
that kernel (:mod:`lielocal.weyl` says why that is exact), in integer
arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import InvariantError
from .linalg import IntMatrix, _eliminate, identity, kernel_basis, mat_mul

IntPoly = list[int]


def poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


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


def phi_d_matrix(m: Sequence[Sequence[int]], d: int) -> IntMatrix:
    """Phi_d(m) for a square integer matrix, by Horner's rule (Phi_d is monic)."""
    n = len(m)
    acc = identity(n)
    for c in reversed(cyclotomic(d)[:-1]):
        acc = mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += c
    return acc


def cyclo_rref(m: Sequence[Sequence[int]], d: int) -> tuple[IntMatrix, list[int]]:
    """Integer basis of ker_Q Phi_d(m), with the pivot columns of its echelon
    form: one per row exactly when the rows are independent."""
    basis = kernel_basis(phi_d_matrix(m, d))
    return basis, _eliminate([list(row) for row in basis])
