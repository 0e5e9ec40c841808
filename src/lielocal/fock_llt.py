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

A Fock vector is a coefficient map: a dict from (partition, v-exponent) to a
nonzero int.  Multiplying by a power of v or applying v -> 1/v re-keys it,
and adding vectors adds ints.  An operator is given by the image of each
basis vector, itself such a map, and one function, ``_act``, applies every
operator: f_i and V_k in the family, each straightening step of a q-wedge,
and the bar involution.  The correction recursion updates its maps in place.
An entry of the finished FockMatrix, which shape_check and the output
writers read, is a sorted tuple of (v-exponent, coefficient) pairs: () is
zero and ((0, 1),) is one.
"""

from __future__ import annotations

import itertools
from functools import cache, partial
from typing import NamedTuple

from .cyclotomic import poly_exact_div, poly_mul
from .errors import GuardExceeded, InvariantError, check
from .linalg import add_term, rank

LLT_GUARD = 12

Partition = tuple[int, ...]
# A Fock vector is a coefficient map: sum c v^e |p> over its items (p, e) -> c,
# every c a nonzero int.
FockVector = dict[tuple[Partition, int], int]
# A FockMatrix entry: sum c v^e over its pairs (e, c), sorted by e.
Entry = tuple[tuple[int, int], ...]


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


def _f_terms(p: Partition, i: int, d: int) -> FockVector:
    """f_i|p> as a coefficient map: one box of residue i added; the exponent
    counts addable minus removable i-boxes in strictly higher rows."""
    addable = _cells_with_residue(p, d, i, addable=True)
    removable = _cells_with_residue(p, d, i, addable=False)
    out: FockVector = {}
    for row in addable:
        shift = sum(1 for r in addable if r < row) - sum(1 for r in removable if r < row)
        add_term(out, (_add_box(p, row), shift), 1)
    return out


def _strip_terms(p: Partition, k: int, d: int) -> FockVector:
    """V_k|p> as a coefficient map: a horizontal d-ribbon strip of spin s
    adds (-1)^s v^-s |target>.

    A horizontal d-ribbon strip is a skew shape with the same d-core whose
    d-quotient grows by ordinary horizontal strips totalling k boxes.
    """
    core, quotient = d_core_and_quotient(p, d)
    slots = _slots_for(sum(p) + d * k, d)
    # distribute k boxes over the d quotient components
    componentwise = [{size: _horizontal_strip_additions(component, size)
                      for size in range(k + 1)} for component in quotient]
    out: FockVector = {}
    for split in itertools.product(range(k + 1), repeat=d):
        if sum(split) != k:
            continue
        choices = [componentwise[r][split[r]] for r in range(d)]
        for combo in itertools.product(*choices):
            target = _partition_from_core_quotient(core, combo, d, slots)
            spin = ribbon_strip_spin(target, p, d)
            add_term(out, (target, -spin), -1 if spin % 2 else 1)
    return out


def _nonzero(vec: dict) -> dict:
    """vec without its zero coefficients."""
    return {key: c for key, c in vec.items() if c}


def _by_label(vec: FockVector) -> dict[Partition, dict[int, int]]:
    """The coefficient of each label of vec, as a map v-exponent -> int."""
    out: dict[Partition, dict[int, int]] = {}
    for (p, e), c in vec.items():
        out.setdefault(p, {})[e] = c
    return out


def _act(vec: dict, image) -> dict:
    """The image of vec under the operator with |p> -> image(p), each a
    coefficient map: v^e |p> goes to v^e image(p)."""
    out: dict = {}
    for (p, e), c in vec.items():
        for (target, shift), x in image(p).items():
            key = (target, e + shift)
            out[key] = out.get(key, 0) + c * x
    return _nonzero(out)


def _quantum_factorial(k: int) -> list[int]:
    """[k]! as coefficients of v^(-k(k-1)/2), v^(1-k(k-1)/2), ..., the
    product of [m] = v^(m-1) + v^(m-3) + ... + v^(1-m) for m <= k."""
    out = [1]
    for m in range(2, k + 1):
        out = poly_mul(out, [1, 0] * (m - 1) + [1])
    return out


def _divided_power(vec: FockVector, k: int, terms_of) -> FockVector:
    """The operator of ``_act`` applied k times and divided by [k]!, one
    label at a time; a quotient outside Z[v, 1/v] raises InvariantError."""
    for _ in range(k):
        vec = _act(vec, terms_of)
    if k == 1:
        return vec
    factorial = _quantum_factorial(k)
    quotient: FockVector = {}
    for p, terms in _by_label(vec).items():
        low = min(terms)
        coeffs = poly_exact_div([terms.get(e, 0) for e in range(low, max(terms) + 1)],
                                factorial)
        if coeffs is None:
            raise InvariantError(f"divided power is not integral: the coefficient "
                                 f"of {p} is not divisible by [{k}]!")
        # [k]! starts at v^(-k(k-1)/2)
        low += k * (k - 1) // 2
        quotient.update(((p, low + j), c) for j, c in enumerate(coeffs) if c)
    return quotient


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


def _ladder_monomial(kappa: Partition, d: int, f_terms) -> FockVector:
    """A(kappa) = f_{i_m}^{(k_m)} ... f_{i_1}^{(k_1)} |empty> along ladders,
    with f_i|p> given by f_terms(p, i)."""
    check(is_d_regular(kappa, d), "ladder monomials need d-regular partitions")
    vec: FockVector = {((), 0): 1}
    for residue, count in ladder_sequence(kappa, d):
        vec = _divided_power(vec, count, lambda p: f_terms(p, residue))
    return vec


def bar_invariant_family(n: int, d: int) -> dict[Partition, FockVector]:
    """A(lambda) = boson strips for the singular part applied to the ladder
    monomial of the regular part; each member is fixed by the bar involution.

    The f_i and V_k images of one partition recur across the family, so
    each is computed once per family and looked up after that."""
    f_terms, strip_terms = cache(partial(_f_terms, d=d)), cache(partial(_strip_terms, d=d))
    out = {}
    for p in partitions(n):
        kappa, nu = regular_singular_split(p, d)
        vec = _ladder_monomial(kappa, d, f_terms)
        for part in sorted(nu, reverse=True):
            vec = _act(vec, lambda q: strip_terms(q, part))
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
    entries: tuple[tuple[Entry, ...], ...]

    def evaluate(self, v: int) -> list[list[int]]:
        return [[sum(c * v**e for e, c in entry) for entry in row] for row in self.entries]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "labels": [list(p) for p in self.labels],
            "entries": [[{str(e): str(c) for e, c in entry} for entry in row]
                        for row in self.entries],
        }

    def to_csv(self, at_one: bool = False) -> str:
        def name(p: Partition) -> str:
            return "[" + ".".join(str(x) for x in p) + "]"

        lines = ["label," + ",".join(name(p) for p in self.labels)]
        for label, row in zip(self.labels, self.entries):
            if at_one:
                cells = [str(sum(c for _, c in entry)) for entry in row]
            else:
                cells = [_entry_string(entry).replace(" ", "") for entry in row]
            lines.append(name(label) + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def _entry_string(entry: Entry) -> str:
    """An entry as text, lowest power first: "1 + v - 2*v^3", "0" for zero."""
    out = ""
    for e, c in entry:
        if e == 0:
            term = str(abs(c))
        else:
            term = ("" if abs(c) == 1 else f"{abs(c)}*") + ("v" if e == 1 else f"v^{e}")
        if out:
            out += (" - " if c < 0 else " + ") + term
        else:
            out = ("-" if c < 0 else "") + term
    return out or "0"


# ---------------------------------------------------------------------------
# the bar involution, by straightening q-wedges (Leclerc-Thibon)


def _wedge_pair(low: int, high: int, d: int) -> list[tuple[int, int, tuple]]:
    """u_low ^ u_high, for low < high, as terms (a, b, c) of c u_a ^ u_b
    with a > b, where c is a tuple of (v-exponent, coefficient) pairs.

    With i = (high - low) mod d: u_l ^ u_m = -u_m ^ u_l when i = 0, and
    otherwise -v^-1 u_m ^ u_l + (v^-2 - 1) sum_j (-1)^j v^-j
    u_{m-s_j} ^ u_{l+s_j}, where s_{2k} = kd + i, s_{2k+1} = (k+1)d and the
    sum runs while m - s_j > l + s_j.
    """
    i = (high - low) % d
    if i == 0:
        return [(high, low, ((0, -1),))]
    out = [(high, low, ((-1, -1),))]
    j = 0
    while True:
        s = (j // 2) * d + (i if j % 2 == 0 else d)
        if high - s <= low + s:
            return out
        sign = -1 if j % 2 else 1
        out.append((high - s, low + s, ((-j - 2, sign), (-j, -sign))))
        j += 1


def _insert(wedge: tuple[int, ...], x: int, d: int, memo: dict) -> dict:
    """u_x ^ wedge, for a normal-ordered (decreasing) wedge, straightened
    to normal-ordered wedges: a map (wedge, v-exponent) -> int."""
    if not wedge or x > wedge[0]:
        return {((x,) + wedge, 0): 1}
    if x == wedge[0]:
        return {}  # u_x ^ u_x = 0
    key = (wedge, x)
    hit = memo.get(key)
    if hit is None:
        hit = {}
        tail = wedge[1:]
        for a, b, c in _wedge_pair(x, wedge[0], d):
            for (rest, e_rest), c_rest in _insert(tail, b, d, memo).items():
                for (out, e_out), c_out in _insert(rest, a, d, memo).items():
                    e_rest_out = e_rest + e_out
                    c_rest_out = c_rest * c_out
                    for e, coeff in c:
                        term = (out, e + e_rest_out)
                        hit[term] = hit.get(term, 0) + coeff * c_rest_out
        hit = memo[key] = _nonzero(hit)
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
        wedge = {((k[0],), 0): 1}
        for x in k[1:]:
            wedge = _act(wedge, lambda normal: _insert(normal, x, d, memo))
        column = {(tuple(part for j, k_j in enumerate(normal) if (part := k_j + j)), e): c
                  for (normal, e), c in wedge.items()}
        diagonal = {e: c for (mu, e), c in column.items() if mu == label}
        if len(diagonal) != 1 or set(diagonal.values()) - {1, -1}:
            raise InvariantError(f"straightened wedge of {label} has diagonal "
                                 f"coefficient {_entry_string(sorted(diagonal.items()))}, not +-v^e")
        (e, sign), = diagonal.items()
        columns[label] = {(mu, f - e): sign * c for (mu, f), c in column.items()}
    return columns


def _bar_apply(columns: dict[Partition, FockVector], vec: FockVector) -> FockVector:
    """bar(vec) = sum c v^-e bar|p> over the terms (p, e) -> c of vec: the
    columns applied to vec with its exponents negated."""
    return _act({(p, -e): c for (p, e), c in vec.items()}, columns.__getitem__)


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


@cache
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
        g: FockVector = {(p, 0): 1}
        delta = dict(bar[p])  # bar(g) - g
        add_term(delta, (p, 0), -1)
        bound = position[p]
        while delta:
            top = max(position[mu] for mu, _ in delta)
            check(top < bound, f"bar image of G({p}) sticks out above")
            bound = top
            mu = labels[top]
            r = {e: c for (nu, e), c in delta.items() if nu == mu}
            check(all(r.get(-e) == -c for e, c in r.items()),
                  "correction coefficient is not antisymmetric")
            # r = q(v) - q(1/v) with q in vZ[v]: g gains q G(mu), and
            # bar(g) - g gains (q(1/v) - q) G(mu)
            q = [(e, c) for e, c in r.items() if e > 0]
            for (nu, f), x in basis[mu].items():
                for e, c in q:
                    add_term(g, (nu, f + e), c * x)
                    add_term(delta, (nu, f - e), c * x)
                    add_term(delta, (nu, f + e), -c * x)
        basis[p] = g

    entries = []
    for row in labels:
        terms = _by_label(basis[row])
        entries.append(tuple(tuple(sorted(terms.get(mu, {}).items())) for mu in labels))
    matrix = FockMatrix(n=n, d=d, labels=tuple(labels), entries=tuple(entries))
    verify_bar_invariance(matrix, family, bar)
    shape_check(matrix)
    return matrix


def _core_blocks(labels, d: int) -> list[list[Partition]]:
    """The labels grouped by d-core, each group in label order."""
    blocks: dict[Partition, list[Partition]] = {}
    for p in labels:
        blocks.setdefault(d_core(p, d), []).append(p)
    return list(blocks.values())


# the family's rank is taken mod this prime at v = 2
_RANK_PRIME = 2**61 - 1


def verify_bar_invariance(matrix: FockMatrix, family=None, bar=None) -> None:
    """Check, symbolically over Z[v, 1/v], that every G is bar-invariant.

    ``family`` and ``bar`` are coefficient maps, by default the family and
    the straightened involution.  The family matrix must be block-diagonal
    by d-core.  ``bar`` is a matrix W given as columns.  Per d-core block
    it must be unitriangular with unit diagonal, keep each column inside the
    block, fix every family vector and satisfy W W(1/v) = 1.  The family
    must also be nonsingular on the block: full rank mod a large prime at
    v = 2.  A semilinear map that fixes a basis is determined by it, so W is
    then the bar involution, whatever produced it.  Last, W must fix every
    row G of the matrix.
    """
    labels = matrix.labels
    if family is None:
        family = bar_invariant_family(matrix.n, matrix.d)
    if bar is None:
        bar = _bar_columns(labels, max(matrix.n, 1), matrix.d)
    position = {p: k for k, p in enumerate(labels)}
    blocks = _core_blocks(labels, matrix.d)
    for block in blocks:
        members = set(block)
        for p in block:
            check({mu for mu, _ in family[p]} <= members,
                  f"family vector for {p} leaves its d-core block")
    for block in blocks:
        members = set(block)
        for p in block:
            column = bar[p]
            check({mu for mu, _ in column} <= members,
                  f"bar image of {p} leaves its d-core block")
            check(column.get((p, 0)) == 1
                  and all(position[mu] < position[p] for mu, e in column if (mu, e) != (p, 0)),
                  f"bar image of {p} is not |{p}> plus lower terms")
        for p in block:
            check(_bar_apply(bar, family[p]) == family[p],
                  f"bar involution does not fix the family vector of {p}")
            check(_bar_apply(bar, bar[p]) == {(p, 0): 1},
                  f"bar involution does not square to 1 on {p}")
        values = []
        for a in block:
            at_two = dict.fromkeys(block, 0)
            for (mu, e), c in family[a].items():
                at_two[mu] += c * pow(2, e, _RANK_PRIME)
            values.append(list(at_two.values()))
        check(rank(values, _RANK_PRIME) == len(block),
              f"family is singular on the d-core block of {block[0]}")
    for p, row in zip(labels, matrix.entries):
        g = {(mu, e): c for mu, entry in zip(labels, row) for e, c in entry}
        check(_bar_apply(bar, g) == g, f"G({p}) is not bar-invariant")


def shape_check(matrix: FockMatrix) -> None:
    """Check lower-unitriangularity, unit diagonal, and that off-diagonal
    entries lie in v Z>=0 [v].  One InvariantError lists every failure with
    its location; a location is formatted only for a failing entry."""
    labels = matrix.labels
    failures = []
    for r, row in enumerate(matrix.entries):
        for c, e in enumerate(row):
            if r == c:
                if e != ((0, 1),):
                    failures.append(f"diagonal ({labels[r]}, {labels[c]}) = {_entry_string(e)}")
            elif not e:
                continue
            elif c > r:
                failures.append(f"upper entry ({labels[r]}, {labels[c]}) = {_entry_string(e)}")
            elif e[0][0] < 1 or any(co < 0 for _, co in e):
                failures.append(f"entry ({labels[r]}, {labels[c]}) = {_entry_string(e)} "
                                "is not in v Z>=0 [v]")
    check(not failures, "canonical basis shape violation: " + "; ".join(failures))
