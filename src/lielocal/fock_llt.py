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

are fixed by the bar involution and span the degree-n part.  The
involution itself comes from q-wedges (Leclerc-Thibon): |lambda> is the
wedge u_{k_0} ^ ... ^ u_{k_{r-1}} with k_j = lambda_j - j, and its bar image
is the reversed wedge straightened back to normal order, up to a unit
monomial.  The resulting matrix W is unitriangular, with entries in
Z[v, 1/v].  A correction recursion against W yields the canonical basis: the
unique bar-invariant vectors G(lambda) = |lambda> + sum of v Z[v] multiples
of smaller |mu>.  Evaluating the coefficient matrix at v = 1 gives, for d the
multiplicative order of q modulo ell and ell large, the conjectural square
part of the unipotent decomposition matrix of GL_n(q); outputs are generic
in that sense and carry no effective bound on ell.

Every step checks its own preconditions (unit diagonals, antisymmetric
corrections, exact divisions); a violation means the combinatorial
conventions broke and raises InvariantError rather than returning a wrong
matrix.  The finished basis is checked once more, as identities over
Z[v, 1/v]: W fixes every family vector and squares to 1, the family is
nonsingular on each d-core block, so W is the bar involution, and W fixes
every G.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import GuardExceeded, InvariantError, check
from .laurent import Laurent, quantum_factorial
from .linalg import GF, add_scaled, add_term, rank

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


def ribbon_strip_spin(outer: Partition, inner: Partition, d: int) -> int:
    """Spin sum(height - 1) of the horizontal-strip tiling of outer/inner.

    A skew can have several d-ribbon tilings with different spins; the
    horizontal strip one peels the ribbon with the rightmost head first.  On
    the abacus a ribbon removal moves a bead down d steps, and height - 1
    counts the beads it jumps over.  With one slot count for both shapes, a
    partition contains inner exactly when its descending beta set is
    elementwise >= inner's, so each step moves the highest bead whose move
    keeps that.
    """
    slots = _slots_for(max(sum(outer), sum(inner), 1), d)
    beta = _beta_set(outer, slots)  # descending
    target = _beta_set(inner, slots)
    total = 0
    while beta != target:
        for i, b in enumerate(beta):
            low = b - d
            if low < 0 or low in beta:
                continue
            j = i + 1  # the bead lands below the beads in (low, b)
            while j < slots and beta[j] > low:
                j += 1
            moved = beta[i + 1:j] + [low]
            if all(x >= y for x, y in zip(moved, target[i:j])):
                total += j - i - 1
                beta[i:j] = moved
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


class FockMatrix(NamedTuple):
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


# ---------------------------------------------------------------------------
# the bar involution, by straightening q-wedges (Leclerc-Thibon)


_ONE = Laurent(1)
_ZERO = Laurent(0)


def _wedge_pair(low: int, high: int, d: int) -> list[tuple[int, int, Laurent]]:
    """u_low ^ u_high, for low < high, as terms (a, b, c) of c u_a ^ u_b
    with a > b.

    With i = (high - low) mod d: u_l ^ u_m = -u_m ^ u_l when i = 0, and
    otherwise -v^-1 u_m ^ u_l + (v^-2 - 1) sum_j (-1)^j v^-j
    u_{m-s_j} ^ u_{l+s_j}, where s_{2k} = kd + i, s_{2k+1} = (k+1)d and the
    sum runs while m - s_j > l + s_j.
    """
    i = (high - low) % d
    if i == 0:
        return [(high, low, Laurent(-1))]
    out = [(high, low, Laurent({-1: -1}))]
    j = 0
    while True:
        s = (j // 2) * d + (i if j % 2 == 0 else d)
        if high - s <= low + s:
            return out
        sign = -1 if j % 2 else 1
        out.append((high - s, low + s, Laurent({-j - 2: sign, -j: -sign})))
        j += 1


def _insert(wedge: tuple[int, ...], x: int, d: int, memo: dict) -> dict:
    """u_x ^ wedge, for a normal-ordered (decreasing) wedge, straightened
    to normal-ordered wedges with Laurent coefficients."""
    if not wedge or x > wedge[0]:
        return {(x,) + wedge: _ONE}
    if x == wedge[0]:
        return {}  # u_x ^ u_x = 0
    key = (wedge, x)
    hit = memo.get(key)
    if hit is None:
        hit = {}
        for a, b, c in _wedge_pair(x, wedge[0], d):
            for rest, c_rest in _insert(wedge[1:], b, d, memo).items():
                for out, c_out in _insert(rest, a, d, memo).items():
                    add_term(hit, out, c * c_rest * c_out)
        memo[key] = hit
    return hit


def _bar_columns(labels, slots: int, d: int) -> dict[Partition, FockVector]:
    """Matrix of the bar involution on the standard basis, as columns:
    column lambda is bar|lambda>, with entries in Z[v, 1/v].

    lambda is the wedge u_{k_0} ^ ... ^ u_{k_{slots-1}}, k_j = lambda_j - j.
    Up to a factor +-v^e, its bar image is the reversed wedge straightened
    back to normal order, one factor at a time from the right; the factor
    is the one that makes the diagonal coefficient 1.  Any slots >= n gives
    the same columns.
    """
    memo: dict = {}
    columns = {}
    for label in labels:
        k = [(label[j] if j < len(label) else 0) - j for j in range(slots)]
        wedge = {(k[0],): _ONE}
        for x in k[1:]:
            grown: dict = {}
            for normal, c in wedge.items():
                for out, c_out in _insert(normal, x, d, memo).items():
                    add_term(grown, out, c * c_out)
            wedge = grown
        column = {tuple(part for j, e in enumerate(normal) if (part := e + j)): c
                  for normal, c in wedge.items()}
        diagonal = column.get(label, _ZERO)
        terms = list(diagonal.items())
        if len(terms) != 1 or terms[0][1] not in (1, -1):
            raise InvariantError(f"straightened wedge of {label} has diagonal "
                                 f"coefficient {diagonal.to_string('v')}, not +-v^e")
        (e, sign), = terms
        columns[label] = {mu: c.shifted(-e) * sign for mu, c in column.items()}
    return columns


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

    Each G(lambda) = |lambda> + lower terms is produced by the usual
    correction recursion against the straightened bar involution: while
    bar(g) differs from g, the top coefficient of the difference is
    antisymmetric and determines a unique correction in vZ[v] by an
    already-finished smaller G.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > LLT_GUARD:
        raise GuardExceeded(f"n = {n} exceeds the canonical basis guard {LLT_GUARD}")
    return _cached_basis(n, d)


@lru_cache(maxsize=None)
def _cached_basis(n: int, d: int) -> FockMatrix:
    """The canonical basis for (n, d), built once per process.

    The bar involution W comes from straightening q-wedges, and the
    recursion runs against it in label order.  Adding q G(mu) to g adds
    (q(1/v) - q) G(mu) to bar(g) - g, as G(mu) is already bar-invariant, so
    W is applied once per label.  Each top of bar(g) - g must lie strictly
    below the last, so the recursion ends even for a wrong W.  The finished
    matrix then goes through verify_bar_invariance, which checks W and
    every G symbolically, and through shape_check.
    """
    labels = partitions(n)
    family = bar_invariant_family(n, d)
    bar = _bar_columns(labels, max(n, 1), d)
    position = {p: k for k, p in enumerate(labels)}

    basis: dict[Partition, FockVector] = {}
    for p in labels:
        g: FockVector = {p: _ONE}
        delta = add_scaled(dict(bar[p]), g, -1)  # bar(g) - g
        bound = position[p]
        while delta:
            top = max(delta, key=position.__getitem__)
            check(position[top] < bound, f"bar image of G({p}) sticks out above")
            bound = position[top]
            q = _antisymmetric_positive_part(delta[top])
            add_scaled(g, basis[top], q)
            add_scaled(delta, basis[top], q.bar() - q)
        basis[p] = g

    entries = tuple(
        tuple(basis[row].get(col, _ZERO) for col in labels)
        for row in labels
    )
    matrix = FockMatrix(n=n, d=d, labels=tuple(labels), entries=entries)
    verify_bar_invariance(matrix, family, bar)
    shape_check(matrix)
    return matrix


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


# the family's rank is taken mod this prime at v = 2
_RANK_PRIME = 2**61 - 1


def verify_bar_invariance(matrix: FockMatrix, family=None, bar=None) -> None:
    """Check, symbolically over Z[v, 1/v], that every G is bar-invariant.

    ``bar`` (by default the straightened involution) is a matrix W given
    as columns.  Per d-core block it must be unitriangular with unit
    diagonal, keep each column inside the block, fix every family vector
    and satisfy W W(1/v) = 1.  The family must also be nonsingular on the
    block: full rank mod a large prime at v = 2.  A semilinear map that
    fixes a basis is determined by it, so W is then the bar involution,
    whatever produced it.  Last, W must fix every row G of the matrix.
    """
    labels = matrix.labels
    if family is None:
        family = bar_invariant_family(matrix.n, matrix.d)
    if bar is None:
        bar = _bar_columns(labels, max(matrix.n, 1), matrix.d)
    position = {p: k for k, p in enumerate(labels)}
    for block in _core_blocks(labels, matrix.d, family):
        members = set(block)
        for p in block:
            column = bar[p]
            check(set(column) <= members, f"bar image of {p} leaves its d-core block")
            check(column.get(p) == _ONE
                  and all(position[mu] < position[p] for mu in column if mu != p),
                  f"bar image of {p} is not |{p}> plus lower terms")
        for p in block:
            check(_bar_apply(bar, family[p]) == family[p],
                  f"bar involution does not fix the family vector of {p}")
            check(_bar_apply(bar, bar[p]) == {p: _ONE},
                  f"bar involution does not square to 1 on {p}")
        values = [[family[a].get(mu, _ZERO).eval_mod(2, _RANK_PRIME) for mu in block]
                  for a in block]
        check(rank(values, GF(_RANK_PRIME)) == len(block),
              f"family is singular on the d-core block of {block[0]}")
    for p, row in zip(labels, matrix.entries):
        g = {mu: e for mu, e in zip(labels, row) if e}
        check(_bar_apply(bar, g) == g, f"G({p}) is not bar-invariant")


def shape_check(matrix: FockMatrix) -> None:
    """Check lower-unitriangularity, unit diagonal, and that off-diagonal
    entries lie in v Z>=0 [v].  One InvariantError lists every failure with
    its location."""
    failures = []
    for r, row in enumerate(matrix.entries):
        for c, e in enumerate(row):
            where = f"({matrix.labels[r]}, {matrix.labels[c]})"
            if r == c and e != _ONE:
                failures.append(f"diagonal {where} = {e.to_string('v')}")
            elif c > r and e:
                failures.append(f"upper entry {where} = {e.to_string('v')}")
            elif c < r and e and (e.min_degree() < 1 or any(co < 0 for _, co in e.items())):
                failures.append(f"entry {where} = {e.to_string('v')} is not in v Z>=0 [v]")
    check(not failures, "canonical basis shape violation: " + "; ".join(failures))
