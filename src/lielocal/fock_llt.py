"""Canonical bases of the level-one Fock space for quantum affine sl_d.

The Fock space has standard basis |lambda> over partitions, an action of
the quantum affine algebra (the lowering operators f_i add boxes of residue
i = (col - row) mod d, with v-weights counting addable versus removable
i-boxes in higher rows), and a commuting Heisenberg algebra.  The boson
operator V_k adds horizontal d-ribbon strips of k ribbons, weighted by
(-1/v)^spin; on d-quotients it acts as an ordinary horizontal k-strip.

Every partition decomposes as m_i(lambda) = m_i(kappa) + d*m_i(nu) with
kappa d-regular; the vectors

    A(lambda) = V_{nu_1} V_{nu_2} ... (ladder monomial of kappa) |empty>

are fixed by the bar involution and span the degree-n part, so they
determine it: one exact solve at v = 2^64 gives the bar matrix, whose
Laurent entries are the balanced base-2^64 digits of its values.  A
correction recursion against that matrix yields the canonical basis: the
unique bar-invariant vectors G(lambda) = |lambda> + sum of v Z[v] multiples
of smaller |mu>.  Evaluating the coefficient matrix at v = 1 gives, for d the
multiplicative order of q modulo ell and ell large, the conjectural square
part of the unipotent decomposition matrix of GL_n(q); outputs are generic
in that sense and carry no effective bound on ell.

Every elimination step checks its own preconditions (bar-symmetric pivots,
exact divisions); a violation means the combinatorial conventions broke and
raises InvariantError rather than returning a wrong matrix.  The finished
basis is checked once more, independently of the bar matrix: re-expanded
over the family at eight exact points, one d-core block at a time, with a
fraction-free solve in integer arithmetic.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardExceeded, InvariantError, check
from .laurent import Laurent, quantum_factorial
from .linalg import add_scaled, add_term, fraction_free_solve, rref

LLT_GUARD = 12

Partition = tuple[int, ...]
FockVector = dict[Partition, Laurent]


# ---------------------------------------------------------------------------
# partitions


def partitions(n: int) -> list[Partition]:
    """All partitions of n, ascending lexicographic (refines dominance)."""
    if n < 0:
        raise ValueError("n must be non-negative")

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return sorted(gen(n, n))


def multiplicities(p: Partition) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in p:
        out[part] = out.get(part, 0) + 1
    return out


def from_multiplicities(m: dict[int, int]) -> Partition:
    parts = []
    for size in sorted(m, reverse=True):
        parts.extend([size] * m[size])
    return tuple(parts)


def is_d_regular(p: Partition, d: int) -> bool:
    return all(count < d for count in multiplicities(p).values())


def regular_singular_split(p: Partition, d: int) -> tuple[Partition, Partition]:
    """(kappa, nu) with m_i(p) = m_i(kappa) + d*m_i(nu), kappa d-regular."""
    m = multiplicities(p)
    kappa = {size: count % d for size, count in m.items()}
    nu = {size: count // d for size, count in m.items()}
    return from_multiplicities(kappa), from_multiplicities(nu)


# ---------------------------------------------------------------------------
# beta-numbers, cores, quotients, ribbons


def _beta_set(p: Partition, slots: int) -> list[int]:
    """First-column hook lengths padded to `slots` rows: beta_i = p_i + slots - i."""
    check(slots >= len(p), "not enough beta slots")
    rows = list(p) + [0] * (slots - len(p))
    return [rows[i] + slots - 1 - i for i in range(slots)]


def _partition_from_beta(beta: list[int]) -> Partition:
    b = sorted(beta, reverse=True)
    slots = len(b)
    parts = [b[i] - (slots - 1 - i) for i in range(slots)]
    check(all(x >= 0 for x in parts), "beta set is not positive")
    check(all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)),
          "beta set has repeats")
    return tuple(x for x in parts if x > 0)


def _slots_for(n: int, d: int) -> int:
    slots = n + d
    return slots + (-slots) % d  # round up to a multiple of d


def d_core_and_quotient(p: Partition, d: int) -> tuple[Partition, tuple[Partition, ...]]:
    """d-core and d-quotient via the abacus: runner r keeps the betas = r mod d."""
    slots = _slots_for(sum(p) if p else 1, d)
    beta = _beta_set(p, slots)
    runners: list[list[int]] = [[] for _ in range(d)]
    for b in beta:
        runners[b % d].append(b // d)
    quotient = tuple(_partition_from_beta(sorted(r)) for r in runners)
    core_beta = []
    for r in range(d):
        count = len(runners[r])
        core_beta.extend(r + d * j for j in range(count))
    core = _partition_from_beta(core_beta)
    check(sum(core) + d * sum(sum(q) for q in quotient) == sum(p),
          "core and quotient sizes do not add up")
    return core, quotient


def d_core(p: Partition, d: int) -> Partition:
    if d > sum(p):
        # no hook is as long as d, so p is its own core; skipping the abacus
        # keeps a huge d from costing O(d) beta lists
        return p
    return d_core_and_quotient(p, d)[0]


def _partition_from_core_quotient(core: Partition, quotient, d: int,
                                  slots: int) -> Partition:
    beta_core = _beta_set(core, slots)
    runners: list[list[int]] = [[] for _ in range(d)]
    for b in beta_core:
        runners[b % d].append(b // d)
    beta = []
    for r in range(d):
        positions = sorted(runners[r])
        count = len(positions)
        check(positions == list(range(count)), "core beta set is not flush")
        q = list(quotient[r])
        rows = [0] * (count - len(q)) + list(reversed(q))
        check(len(q) <= count, "quotient component too tall for the slot count")
        beta.extend(r + d * (rows[i] + i) for i in range(count))
    return _partition_from_beta(beta)


def _single_ribbon_removals(p: Partition, d: int):
    """(smaller partition, height - 1) per removable rim d-ribbon, by
    decreasing head position.  On the abacus a ribbon removal moves a bead
    down d steps; height - 1 counts the beads it jumps over."""
    slots = _slots_for(max(sum(p), 1), d)
    beta = set(_beta_set(p, slots))
    out = []
    for b in sorted(beta, reverse=True):
        if b - d >= 0 and (b - d) not in beta:
            jumped = sum(1 for c in beta if b - d < c < b)
            nb = set(beta)
            nb.remove(b)
            nb.add(b - d)
            out.append((_partition_from_beta(sorted(nb)), jumped))
    return out


def ribbon_strip_spin(outer: Partition, inner: Partition, d: int) -> int:
    """Spin sum(height - 1) of the horizontal-strip tiling of outer/inner.

    A skew can have several d-ribbon tilings with different spins; the
    horizontal strip one peels the ribbon with the rightmost head first.
    """
    total = 0
    current = outer
    while current != inner:
        for smaller, jumped in _single_ribbon_removals(current, d):
            if all(a >= b for a, b in itertools.zip_longest(smaller, inner,
                                                            fillvalue=0)):
                total += jumped
                current = smaller
                break
        else:
            raise InvariantError(
                f"skew {outer}/{inner} is not tileable by {d}-ribbons")
    return total


def _horizontal_strip_additions(p: Partition, size: int):
    """Ordinary horizontal strips: mu >= p, mu/p has at most one box per column."""
    rows = len(p) + 1
    padded = list(p) + [0]
    out = []

    def rec(i: int, remaining: int, current: list[int]):
        if i == rows:
            if remaining == 0:
                out.append(tuple(x for x in current if x > 0))
            return
        low = padded[i]
        high = padded[i - 1] if i > 0 else padded[i] + remaining
        cap = min(high, padded[i] + remaining)
        for new in range(low, cap + 1):
            current.append(new)
            rec(i + 1, remaining - (new - low), current)
            current.pop()

    rec(0, size, [])
    return out


# ---------------------------------------------------------------------------
# Fock vectors and operators


def fock_add(a: FockVector, b: FockVector) -> FockVector:
    return add_scaled(dict(a), b)


def fock_scale(c: Laurent | int, a: FockVector) -> FockVector:
    if isinstance(c, int):
        c = Laurent(c)
    if not c:
        return {}
    return {p: c * x for p, x in a.items()}


def _cells_with_residue(p: Partition, d: int, i: int, addable: bool):
    """Addable or removable boxes of residue i, listed by increasing row."""
    rows = len(p) + (1 if addable else 0)
    padded = list(p) + [0]
    out = []
    for r in range(rows):
        if addable:
            col = padded[r]
            ok = r == 0 or padded[r - 1] > col
        else:
            col = padded[r] - 1
            ok = col >= 0 and (r + 1 >= len(p) or padded[r + 1] <= col)
        if ok and (col - r) % d == i % d:
            out.append(r)
    return out


def _add_box(p: Partition, row: int) -> Partition:
    padded = list(p) + [0]
    padded[row] += 1
    return tuple(x for x in padded if x > 0)


def f_once(i: int, vec: FockVector, d: int) -> FockVector:
    """f_i: add one box of residue i; the v-exponent counts addable minus
    removable i-boxes in strictly higher rows."""
    out: FockVector = {}
    for p, c in vec.items():
        addable = _cells_with_residue(p, d, i, addable=True)
        removable = _cells_with_residue(p, d, i, addable=False)
        for row in addable:
            exponent = sum(1 for r in addable if r < row) \
                - sum(1 for r in removable if r < row)
            add_term(out, _add_box(p, row), c.shifted(exponent))
    return out


def f_action(i: int, k: int, vec: FockVector, d: int) -> FockVector:
    """Divided power f_i^(k): apply f_i k times and divide by [k]!."""
    if k < 1:
        raise ValueError("divided power needs k >= 1")
    if d < 2:
        raise ValueError("d must be at least 2")
    out = dict(vec)
    for _ in range(k):
        out = f_once(i, out, d)
    factorial = quantum_factorial(k)
    try:
        return {p: c.exact_div(factorial) for p, c in out.items()}
    except ValueError as exc:
        raise InvariantError(f"divided power is not integral: {exc}") from exc


def boson_strip(k: int, vec: FockVector, d: int) -> FockVector:
    """V_k: add horizontal d-ribbon strips of k ribbons, weight (-1/v)^spin.

    A horizontal d-ribbon strip is a skew shape with the same d-core whose
    d-quotient grows by ordinary horizontal strips totalling k boxes.
    """
    if k < 1:
        raise ValueError("strip size must be positive")
    out: FockVector = {}
    for p, c in vec.items():
        core, quotient = d_core_and_quotient(p, d)
        slots = _slots_for(sum(p) + d * k, d)
        # distribute k boxes over the d quotient components
        componentwise = []
        for component in quotient:
            componentwise.append({
                size: _horizontal_strip_additions(component, size)
                for size in range(k + 1)
            })
        for split in itertools.product(range(k + 1), repeat=d):
            if sum(split) != k:
                continue
            choices = [componentwise[r][split[r]] for r in range(d)]
            for combo in itertools.product(*choices):
                target = _partition_from_core_quotient(core, combo, d, slots)
                spin = ribbon_strip_spin(target, p, d)
                add_term(out, target,
                         c.shifted(-spin) * Laurent(-1 if spin % 2 else 1))
    return out


def ladder_sequence(p: Partition, d: int) -> list[tuple[int, int]]:
    """(residue, count) per ladder of the diagram, in increasing ladder order.

    The ladder of the box (row a, col b), 1-indexed, is a + (d-1)(b-1); all
    boxes on a ladder share the residue (b - a) mod d.
    """
    ladders: dict[int, list[int]] = {}
    for a, row_len in enumerate(p, start=1):
        for b in range(1, row_len + 1):
            ladders.setdefault(a + (d - 1) * (b - 1), []).append((b - a) % d)
    out = []
    for index in sorted(ladders):
        residues = set(ladders[index])
        check(len(residues) == 1, "ladder mixes residues")
        out.append((residues.pop(), len(ladders[index])))
    return out


def ladder_monomial(kappa: Partition, d: int) -> FockVector:
    """A(kappa) = f_{i_m}^{(k_m)} ... f_{i_1}^{(k_1)} |empty> along ladders."""
    check(is_d_regular(kappa, d), "ladder monomials need d-regular partitions")
    vec: FockVector = {(): Laurent(1)}
    for residue, count in ladder_sequence(kappa, d):
        vec = f_action(residue, count, vec, d)
    return vec


def bar_invariant_family(n: int, d: int) -> dict[Partition, FockVector]:
    """A(lambda) = boson strips for the singular part applied to the ladder
    monomial of the regular part; each member is fixed by the bar involution."""
    out = {}
    for p in partitions(n):
        kappa, nu = regular_singular_split(p, d)
        vec = ladder_monomial(kappa, d)
        for part in sorted(nu, reverse=True):
            vec = boson_strip(part, vec, d)
        out[p] = vec
    return out


# ---------------------------------------------------------------------------
# canonical basis


@dataclass(frozen=True)
class FockMatrix:
    """Canonical basis coefficients: entry[r][c] is the coefficient of the
    standard basis vector |labels[c]> in G(labels[r])."""

    n: int
    d: int
    labels: tuple[Partition, ...]
    entries: tuple[tuple[Laurent, ...], ...]

    def entry(self, row_label: Partition, col_label: Partition) -> Laurent:
        r = self.labels.index(row_label)
        c = self.labels.index(col_label)
        return self.entries[r][c]

    def evaluate(self, v: int) -> list[list[int]]:
        return [[e(v) for e in row] for row in self.entries]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "labels": [list(p) for p in self.labels],
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }

    def to_csv(self, at_one: bool = False) -> str:
        def name(p: Partition) -> str:
            return "[" + ".".join(str(x) for x in p) + "]"

        lines = ["label," + ",".join(name(p) for p in self.labels)]
        for label, row in zip(self.labels, self.entries):
            if at_one:
                cells = [str(e(1)) for e in row]
            else:
                cells = [e.to_string("v").replace(" ", "") for e in row]
            lines.append(name(label) + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


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


def _bar_matrix(labels: list[Partition],
                family: dict[Partition, FockVector]) -> dict[Partition, FockVector]:
    """Matrix of the bar involution on the standard basis, as columns.

    The involution fixes every family vector, which pins it down: writing M
    for the family matrix, bar on standard coordinates is W = M(v) M(1/v)^-1.
    Its entries are Laurent polynomials over Z, so one exact solve at
    v = t = 2^64 gives W(t), and each entry is read off the balanced base-t
    digits of its value.  The candidate is returned only if it passes the
    symbolic identities W(v) M(1/v) = M(v) and W(v) W(1/v) = 1, which have
    W as their only solution; a singular solve, a value that is not a
    Laurent polynomial at t, or a failed identity squares t and retries.
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


def _bar_apply(columns: dict[Partition, FockVector], vec: FockVector) -> FockVector:
    out: FockVector = {}
    for p, c in vec.items():
        add_scaled(out, columns[p], c.bar())
    return out


def _antisymmetric_positive_part(r: Laurent) -> Laurent:
    """For r with r(1/v) = -r(v), the q with r = q(v) - q(1/v), q in vZ[v]."""
    check(r.bar() == -r, "correction coefficient is not antisymmetric")
    terms = {e: c for e, c in r.items() if e > 0}
    return Laurent(terms)


def llt_canonical_basis(n: int, d: int) -> FockMatrix:
    """Canonical basis of the degree-n part of the Fock space.

    The bar involution is reconstructed from the invariant family one d-core
    block at a time, then each G(lambda) = |lambda> + lower terms is produced
    by the usual correction recursion: while bar(g) differs from g, the top
    coefficient of the difference is antisymmetric and determines a unique
    correction in vZ[v] by an already-finished smaller G.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > LLT_GUARD:
        raise GuardExceeded(f"n = {n} exceeds the canonical basis guard {LLT_GUARD}")
    return _cached_basis(n, d)


def _cached_basis(n: int, d: int) -> FockMatrix:
    key = (n, d)
    hit = _BASIS_CACHE.get(key)
    if hit is not None:
        return hit
    labels = partitions(n)
    family = bar_invariant_family(n, d)
    position = {p: k for k, p in enumerate(labels)}

    basis: dict[Partition, FockVector] = {}
    for block in _core_blocks(labels, d, family):
        columns = _bar_matrix(block, family)
        for p in block:
            g: FockVector = {p: Laurent(1)}
            while True:
                delta = add_scaled(_bar_apply(columns, g), g, -1)
                if not delta:
                    break
                top = max(delta, key=position.__getitem__)
                check(position[top] < position[p],
                      f"bar image of G({p}) sticks out above")
                q = _antisymmetric_positive_part(delta[top])
                add_scaled(g, basis[top], q)
            basis[p] = g

    entries = tuple(
        tuple(basis[row].get(col, Laurent(0)) for col in labels)
        for row in labels
    )
    matrix = FockMatrix(n=n, d=d, labels=tuple(labels), entries=entries)
    verify_bar_invariance(matrix, family)
    report = shape_check(matrix)
    check(report.unitriangular and report.unit_diagonal and report.positive_shift,
          f"canonical basis shape violation: {report.failures}")
    _BASIS_CACHE[key] = matrix
    return matrix


_BASIS_CACHE: dict[tuple[int, int], FockMatrix] = {}


def _core_blocks(labels, d: int, family) -> list[list[Partition]]:
    """The labels grouped by d-core, each group in label order, after
    checking that every family vector stays inside its label's group: the
    family matrix is block-diagonal by d-core."""
    blocks: dict[Partition, list[Partition]] = {}
    for p in labels:
        blocks.setdefault(d_core(p, d), []).append(p)
    for block in blocks.values():
        members = set(block)
        for p in block:
            check(set(family[p]) <= members,
                  f"family vector for {p} leaves its d-core block")
    return list(blocks.values())


_BAR_CHECK_POINTS = (
    Fraction(2), Fraction(3), Fraction(5), Fraction(7),
    Fraction(-2), Fraction(-3), Fraction(7, 2), Fraction(-5, 3),
)


def _family_rows(labels, family, x) -> list[list[Fraction]]:
    """The family matrix at v = x, transposed: row c is A(labels[c])."""
    return [[family[a].get(p, Laurent(0))(x) for p in labels] for a in labels]


def _family_solve(mat: list[list[Fraction]],
                  rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve mat * X = rhs over Q, for a square family matrix mat.

    This stays a ``Fraction`` elimination: at v = 2^64 a fraction-free
    solve carries determinant-sized integers, and on the n = 8 and n = 10
    blocks it measured 5 to 18 times slower."""
    size = len(mat)
    red, pivots = rref([row + r for row, r in zip(mat, rhs)])
    check(pivots[:size] == list(range(size)), "family matrix is singular at a check point")
    return [row[size:] for row in red]


def _cleared_values(entries, num: int, den: int, low: int, high: int) -> list[list[int]]:
    """den^high * num^-low * f(num/den) for each Laurent f in ``entries``
    (lists of (exponent, coefficient) pairs with exponents in [low, high]):
    the values at v = num/den with one common denominator cleared."""
    num_pows = [num**k for k in range(high - low + 1)]
    den_pows = [den**k for k in range(high - low + 1)]
    return [[sum(c * num_pows[e - low] * den_pows[high - e] for e, c in f)
             for f in row] for row in entries]


def verify_bar_invariance(matrix: FockMatrix, family=None) -> None:
    """Check bar-invariance of every G by re-expansion over the family,
    one d-core block at a time, in integer arithmetic.

    Each G is a combination sum c_A(v) A of family vectors that the bar
    involution fixes, so its bar image is the combination with v-negated
    coefficients.  The coefficients are rational functions of v, so the
    identity 'negate the c_A and re-expand' is verified at a fixed panel of
    exact rational points t: solve for the c_A at v = 1/t and re-expand at
    v = t, which must reproduce G evaluated at t.

    The family matrix M is block-diagonal by d-core (checked here too), so
    the identity splits exactly into one identity per block B, over the
    columns in B and the rows G(lambda) with an entry there.  At each t
    both sides are scaled by one power product that clears every
    denominator; the solve is fraction-free, returning det * c_A, and the
    re-expansion is compared with det * G(t) in Z.
    """
    labels = matrix.labels
    if family is None:
        family = bar_invariant_family(matrix.n, matrix.d)
    position = {p: k for k, p in enumerate(labels)}
    zero = Laurent(0)
    for block in _core_blocks(labels, matrix.d, family):
        cols = [position[p] for p in block]
        rows = [lam for lam, row in enumerate(matrix.entries)
                if any(row[c] for c in cols)]
        # transposed: one row per column label mu of the block
        fam = [[list(family[a].get(mu, zero).items()) for a in block] for mu in block]
        g = [[list(matrix.entries[lam][c].items()) for lam in rows] for c in cols]
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


def generic_decomposition_matrix(n: int, d: int) -> list[list[int]]:
    """Canonical basis evaluated at v = 1: for d the order of q mod ell and
    ell large, the conjectural square unipotent decomposition matrix of
    GL_n(q) (no effective bound on ell is known)."""
    return llt_canonical_basis(n, d).evaluate(1)


@dataclass(frozen=True)
class ShapeReport:
    """Outcome of the triangularity and positivity checks on a FockMatrix."""

    unitriangular: bool
    unit_diagonal: bool
    positive_shift: bool  # off-diagonal entries in v Z>=0 [v]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.unitriangular and self.unit_diagonal and self.positive_shift

    def to_json(self) -> dict:
        return {
            "unitriangular": self.unitriangular,
            "unit_diagonal": self.unit_diagonal,
            "positive_shift": self.positive_shift,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def shape_check(matrix: FockMatrix) -> ShapeReport:
    """Check lower-unitriangularity, unit diagonal, and that off-diagonal
    entries lie in v Z>=0 [v]; failures carry their location."""
    failures = []
    unitriangular = True
    unit_diagonal = True
    positive = True
    size = len(matrix.labels)
    for r in range(size):
        for c in range(size):
            e = matrix.entries[r][c]
            where = f"({matrix.labels[r]}, {matrix.labels[c]})"
            if r == c:
                if e != Laurent(1):
                    unit_diagonal = False
                    failures.append(f"diagonal {where} = {e.to_string('v')}")
            elif c > r:
                if e:
                    unitriangular = False
                    failures.append(f"upper entry {where} = {e.to_string('v')}")
            elif e:
                if e.min_degree() < 1 or any(co < 0 for _, co in e.items()):
                    positive = False
                    failures.append(f"entry {where} = {e.to_string('v')}")
    return ShapeReport(
        unitriangular=unitriangular,
        unit_diagonal=unit_diagonal,
        positive_shift=positive,
        failures=tuple(failures),
    )
