"""Exact linear algebra over Z and F_p on small dense matrices.

Matrices are plain lists of integer row lists.  One elimination,
:func:`_eliminate`, serves every dense rank, kernel, inverse and leading
minor: fraction-free over Z (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968), so a rank
or kernel over Q needs no fractions, and reduced eagerly modulo a prime.
Sizes in this package never exceed a few hundred rows, so plain elimination
is the right tool.  ``sparse_rank`` keeps its own loop over sparse rows,
and the Smith normal form its own unimodular row and column operations.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import GuardExceeded, check

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


def _eliminate(m: IntMatrix, mod: int | None = None, reduced: bool = False) -> list[int]:
    """Integer row echelon form of ``m``, in place; returns the pivot columns.

    Each row update is p·row - f·pivot_row, for the pivot p and the row's
    entry f in the pivot column.  Over Z (``mod`` None) the update is divided
    exactly by the previous pivot (Bareiss), so every entry stays a minor of
    the input and the last pivot is the minor on the pivot rows and columns.
    Modulo a prime ``mod`` the entries are reduced, and each pivot row is
    first scaled by its pivot's inverse, so the pivots are 1.  ``reduced``
    clears above each pivot too; every pivot row then carries the last pivot
    at its pivot column.  Without it only rows below are cleared, which is
    all a rank needs."""
    if mod is not None:
        m[:] = [[x % mod for x in row] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        others = [i for i in range(0 if reduced else r + 1, rows) if i != r]
        if mod is None:
            prow = m[r]
            p = prow[c]
            for i in others:
                f = m[i][c]
                if f or p != prev:
                    m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], prow)]
            prev = p
        else:
            inv = pow(m[r][c], -1, mod)
            prow = m[r] = [inv * x % mod for x in m[r]]
            for i in others:
                f = m[i][c]
                if f:
                    m[i] = [(x - f * y) % mod for x, y in zip(m[i], prow)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(a: Sequence[Sequence[int]], mod: int | None = None) -> int:
    """Rank of an integer matrix over Q, or over F_mod for a prime ``mod``."""
    return len(_eliminate([list(row) for row in a], mod))


def kernel_basis(a: Sequence[Sequence[int]]) -> IntMatrix:
    """Basis of ker_Q a = {x : a @ x = 0} in primitive integer rows, one per
    free column f, nonzero at f and zero at the other free columns.  Each
    row is checked against ``a`` before it is returned."""
    cols = len(a[0]) if a else 0
    m = [list(row) for row in a]
    pivots = _eliminate(m, reduced=True)
    last = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = last
        for i, p in enumerate(pivots):
            v[p] = -m[i][f]
        g = math.gcd(*v)
        v = [x // g for x in v]
        check(not any(mat_vec(a, v)), "kernel vector is not in the kernel")
        basis.append(v)
    return basis


def mat_inverse(a: Sequence[Sequence[int]], p: int) -> IntMatrix:
    """Inverse over F_p; raises ValueError on a matrix singular mod p."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    if _eliminate(aug, p, reduced=True)[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in aug]


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

    ``WeylGroup.__init__`` and ``weyl.orbit_chain_poincare`` keep their own
    loops: they record words and orbit sizes in BFS order.  So does
    ``root_datum._reflection_closure``, for speed: closing root-coroot pairs
    here made ``build_root_datum("E8")`` about 5% slower."""
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
