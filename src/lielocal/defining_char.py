"""Defining-characteristic data: restricted weights, central characters,
block partitions, weight strata, and the alternating chain sum.

For the finite group G(q) attached to a datum, the q-restricted weights
X_q = {0..q-1}^rank index the simple modules in characteristic p | q.  The
dual of the fixed-point center is the finite abelian group
    Z^rank / (column span of [A | q*P - 1]),
A the Cartan matrix (columns = simple roots in fundamental-weight
coordinates), P the permutation matrix of the twist on weights.  Reduction
modulo that column span is computed once by Smith normal form and reused
everywhere as the map gamma.

Strata: for a weight lam, supp(lam) = {simple roots a with lam_a != q-1} and
I(lam) is the union of the twist-orbits meeting supp(lam).  The stratum of a
twist-stable subset I is X'_I = {lam : I(lam) = I}; its size has the closed
form prod over orbits o inside I of (q^{|o|} - 1).

Counting never enumerates weights.  gamma is linear, gamma(lam) =
sum_i lam_i * gamma(omega_i), and lam_i * gamma(omega_i) depends only on
lam_i modulo the exponent e of the center dual, so one coordinate
contributes a distribution over the center dual in O(e) steps at any q.
The number of weights per central character is the convolution of these
distributions (`lemma_counts`, and the cross-check in `block_partition`);
a stratum's kernel count is the zero entry of the convolution over its
orbits, each orbit without its all-(q-1) point, shifted by the fixed
coordinates.  WEIGHT_GUARD bounds only the functions that list weights:
`restricted_weights`, `block_partition` and `alperin_weights`.  Listings
are checked against the closed forms and the convolved counts.

A listed weight is a tuple, built once: a stratum is one `itertools.product`
over the twist-orbits, and `to_json` hands out the report's immutable
tuples of weights rather than copying them into lists (`json` writes both
alike).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple

from .errors import GuardExceeded, check
from .generic_order import prime_power_base
from .linalg import closure, smith_normal_form
from .root_datum import RootDatum

WEIGHT_GUARD = 10**7


def _check_q(q: int) -> None:
    if q < 2 or prime_power_base(q) is None:
        raise ValueError(f"q = {q} is not a prime power")


def _check_weight_guard(datum: RootDatum, q: int) -> None:
    # q^rank may have too many digits to print, so the message names the rank
    if q**datum.rank > WEIGHT_GUARD:
        raise GuardExceeded(
            f"q^rank exceeds the weight guard {WEIGHT_GUARD} at rank {datum.rank}")


def phi_orbits(datum: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Orbits of the twist on simple-root indices, each sorted, sorted by
    first element."""
    seen = set()
    orbits = []
    for i in range(datum.rank):
        if i in seen:
            continue
        orbit = []
        j = i
        while j not in seen:
            seen.add(j)
            orbit.append(j)
            j = datum.phi[j]
        orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


def phi_stable_subsets(datum: RootDatum) -> list[tuple[int, ...]]:
    """All unions of twist-orbits, as sorted index tuples (including () and
    the full set), ordered by (size, tuple)."""
    orbits = phi_orbits(datum)
    subsets = []
    for bits in itertools.product((0, 1), repeat=len(orbits)):
        members: list[int] = []
        for take, orbit in zip(bits, orbits):
            if take:
                members.extend(orbit)
        subsets.append(tuple(sorted(members)))
    return sorted(subsets, key=lambda s: (len(s), s))


class CenterDual(NamedTuple):
    """The character group of the fixed-point center, as invariant factors
    plus the integer change of basis realizing lam -> gamma(lam)."""

    label: str
    q: int
    invariants: tuple[int, ...]       # the factors > 1, divisibility order
    transform_rows: tuple[tuple[int, ...], ...]  # rows of U kept (one per factor)

    @property
    def size(self) -> int:
        n = 1
        for s in self.invariants:
            n *= s
        return n

    def gamma(self, lam) -> tuple[int, ...]:
        return tuple(sum(r * x for r, x in zip(row, lam)) % s
                     for row, s in zip(self.transform_rows, self.invariants))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.invariants)

    def elements(self) -> list[tuple[int, ...]]:
        return sorted(itertools.product(*(range(s) for s in self.invariants)))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % s for x, y, s in zip(a, b, self.invariants))

    def scale(self, r: int, a) -> tuple[int, ...]:
        return tuple((r * x) % s for x, s in zip(a, self.invariants))

    def subgroup(self, generators) -> frozenset:
        """The subgroup generated by the given elements: in a finite group,
        the closure of zero under adding them."""
        gens = [tuple(g) for g in generators]
        return frozenset(closure((self.zero(),), gens, self.add))

    def to_json(self) -> dict:
        return {"invariants": [str(s) for s in self.invariants],
                "size": str(self.size)}


def _omega_gammas(center: CenterDual, rank: int) -> list[tuple[int, ...]]:
    """gamma(omega_i) for each simple-root index i."""
    return [center.gamma([1 if j == i else 0 for j in range(rank)])
            for i in range(rank)]


def center_dual(datum: RootDatum, q: int) -> CenterDual:
    _check_q(q)
    n = datum.rank
    a = [list(row) for row in datum.cartan]
    p = datum.phi_matrix()
    cols = [[a[i][j] for j in range(n)] for i in range(n)]
    stacked = [cols[i] + [q * p[i][j] - (1 if i == j else 0) for j in range(n)]
               for i in range(n)]
    u, s, _ = smith_normal_form(stacked)
    invariants = []
    rows = []
    for i in range(n):
        si = s[i][i]
        check(si != 0, "center dual must be finite")
        if si > 1:
            invariants.append(si)
            rows.append(tuple(u[i]))
    cd = CenterDual(label=datum.label, q=q,
                    invariants=tuple(invariants), transform_rows=tuple(rows))
    # q * gamma(omega_{phi(i)}) = gamma(omega_i) holds by construction; spot it
    omega_gamma = _omega_gammas(cd, n)
    for i in range(n):
        check(cd.scale(q, omega_gamma[datum.phi[i]]) == omega_gamma[i],
              "center-dual twist relation failed")
    return cd


def restricted_weights(datum: RootDatum, q: int):
    """All q-restricted weights in lexicographic order (an iterator)."""
    _check_q(q)
    _check_weight_guard(datum, q)
    return itertools.product(range(q), repeat=datum.rank)


def steinberg_weight(datum: RootDatum, q: int) -> tuple[int, ...]:
    _check_q(q)
    return (q - 1,) * datum.rank


def stratum_size(datum: RootDatum, q: int, subset) -> int:
    """Closed form |X'_I| = prod over orbits inside I of (q^{|o|} - 1)."""
    size = 1
    inside = set(subset)
    for orbit in phi_orbits(datum):
        if set(orbit) <= inside:
            size *= q ** len(orbit) - 1
    return size


def stratum_members(datum: RootDatum, q: int, subset):
    """The weights of X'_I, as an iterator.

    One column per twist-orbit, in `phi_orbits` order: inside I the orbit's
    value tuples other than all-(q-1), outside I that tuple alone.  The
    weights come in lexicographic order of these orbit values, each orbit's
    values read in its sorted index order.  For split types every orbit is
    one index, so this is lexicographic order on weights; for twisted types
    it is not (2A3 at q = 3 starts (0,0,0), (0,1,0), (0,0,1)).  CLI output
    depends on this order."""
    inside = set(subset)
    orbits = phi_orbits(datum)
    check(all(set(o) <= inside or not (set(o) & inside) for o in orbits),
          "stratum index must be a union of twist-orbits")
    columns = []
    for orbit in orbits:
        values = list(itertools.product(range(q), repeat=len(orbit)))
        columns.append(values[:-1] if set(orbit) <= inside else values[-1:])
    weights = map(sum, itertools.product(*columns), itertools.repeat(()))
    order = [i for orbit in orbits for i in orbit]
    if order != sorted(order):
        weights = map(operator.itemgetter(*map(order.index, range(datum.rank))),
                      weights)
    return weights


def _indexed(center: CenterDual):
    """The center dual in `elements()` order (zero has index 0), the index
    of each element, and the addition table on indices."""
    elements = center.elements()
    index = {z: k for k, z in enumerate(elements)}
    add = [[index[center.add(a, b)] for b in elements] for a in elements]
    return elements, index, add


def _coordinate_counts(center: CenterDual, index, g, q: int) -> list[int]:
    """By index: how many x in range(q) give each value of x * g.  The value
    depends on x modulo the exponent e of the center dual only, so this
    takes O(e) steps at any q."""
    e = math.lcm(*center.invariants)
    counts = [0] * len(index)
    for r in range(min(e, q)):
        counts[index[center.scale(r, g)]] += q // e + (r < q % e)
    return counts


def _convolve(add, dists) -> list[int]:
    """By index: the distribution of a sum of independent terms, one term
    per distribution (the empty sum is zero)."""
    total = [1] + [0] * (len(add) - 1)
    for dist in dists:
        out = [0] * len(add)
        for a, x in enumerate(total):
            if x:
                row = add[a]
                for b, y in enumerate(dist):
                    if y:
                        out[row[b]] += x * y
        total = out
    return total


def _weight_counts(center: CenterDual, index, add, datum: RootDatum,
                   q: int) -> list[int]:
    """By index: the number of non-Steinberg restricted weights per central
    character, as the convolution of the coordinate distributions."""
    counts = _convolve(add, [_coordinate_counts(center, index, g, q)
                             for g in _omega_gammas(center, datum.rank)])
    counts[index[center.gamma(steinberg_weight(datum, q))]] -= 1
    return counts


class BlockData(NamedTuple):
    zeta: tuple[int, ...]
    size: int
    members: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {"zeta": list(self.zeta), "size": str(self.size),
                "weights": self.members}


class BlockReport(NamedTuple):
    label: str
    q: int
    center: CenterDual
    blocks: tuple[BlockData, ...]
    steinberg: tuple[int, ...]

    def block_of(self, zeta) -> BlockData:
        for b in self.blocks:
            if b.zeta == tuple(zeta):
                return b
        raise KeyError(zeta)

    def to_json(self) -> dict:
        return {
            "type": self.label,
            "q": str(self.q),
            "center_dual": self.center.to_json(),
            "blocks": [b.to_json() for b in self.blocks],
            "steinberg": {"weight": list(self.steinberg), "defect_zero": True},
            "total_weights": str(self.q**len(self.steinberg)),
        }


def block_partition(datum: RootDatum, q: int) -> BlockReport:
    """Partition of the non-Steinberg restricted weights by central character;
    the Steinberg weight (q-1, ..., q-1) stands alone with defect zero.

    The weights are listed in lexicographic order, with gamma built one
    coordinate at a time from a table of each coordinate's contribution
    and the addition table of the center dual.  Each block's size is
    checked against the convolved count."""
    center = center_dual(datum, q)
    st = steinberg_weight(datum, q)
    check(center.gamma(st) == center.zero(),
          "Steinberg weight must have trivial central character")
    _check_weight_guard(datum, q)
    elements, index, add = _indexed(center)
    tables = [[index[center.scale(x, g)] for x in range(q)]
              for g in _omega_gammas(center, datum.rank)]
    prefixes = [((), 0)]
    for table in tables[:-1]:
        prefixes = [(p + (x,), add[a][t])
                    for p, a in prefixes for x, t in enumerate(table)]
    # last_values[a][k]: the last coordinates taking gamma from a to k
    last_values = [[[] for _ in elements] for _ in elements]
    for a, row in enumerate(add):
        for x, t in enumerate(tables[-1]):
            last_values[a][row[t]].append(x)
    groups: list[list] = [[] for _ in elements]
    for p, a in prefixes:
        for members, values in zip(groups, last_values[a]):
            members.extend([p + (x,) for x in values])
    check(groups[0][-1] == st, "the Steinberg weight must be listed last")
    groups[0].pop()
    check(sum(map(len, groups)) + 1 == q**datum.rank,
          "weight enumeration is incomplete")
    for zeta, members, count in zip(
            elements, groups, _weight_counts(center, index, add, datum, q)):
        check(len(members) == count,
              f"block {zeta} lists {len(members)} weights, "
              f"but the convolution counts {count}")
    blocks = tuple(
        BlockData(zeta=z, size=len(members), members=tuple(members))
        for z, members in zip(elements, groups))
    return BlockReport(label=datum.label, q=q, center=center,
                       blocks=blocks, steinberg=st)


class LemmaEntry(NamedTuple):
    zeta: tuple[int, ...]
    formula_count: int
    direct_count: int
    equal_to_principal: bool
    criterion: bool

    def to_json(self) -> dict:
        return {"zeta": list(self.zeta),
                "formula_count": str(self.formula_count),
                "direct_count": str(self.direct_count),
                "equal_to_principal": self.equal_to_principal,
                "criterion": self.criterion}


class LemmaReport(NamedTuple):
    label: str
    q: int
    center: CenterDual
    entries: tuple[LemmaEntry, ...]
    strata: tuple[tuple[tuple[int, ...], int, int], ...]  # (I, |X'_I|, c_I)

    def entry(self, zeta) -> LemmaEntry:
        for e in self.entries:
            if e.zeta == tuple(zeta):
                return e
        raise KeyError(zeta)

    def to_json(self) -> dict:
        return {
            "type": self.label,
            "q": str(self.q),
            "center_dual": self.center.to_json(),
            "entries": [e.to_json() for e in self.entries],
            "strata": [{"subset": [i + 1 for i in subset], "size": str(size),
                        "kernel_size": str(c)}
                       for subset, size, c in self.strata],
        }


def lemma_counts(datum: RootDatum, q: int) -> LemmaReport:
    """Per central character zeta: the stratified count
        sum over nonempty twist-stable I of [zeta in <gamma(omega_a): a in I>]
            * #(X'_I with gamma = 0)
    against the direct count #(non-Steinberg weights with gamma = zeta).
    A mismatch is an invariant breach.  Also reports whether each block is as
    large as the principal one and the subgroup-membership criterion for that.

    Both sides are convolutions of per-coordinate distributions (see the
    module docstring), so no weight is enumerated and the cost does not
    grow with q: the direct side convolves all coordinates, the stratified
    side convolves per orbit and removes each orbit's all-(q-1) point."""
    center = center_dual(datum, q)
    zero = center.zero()
    elements, index, add = _indexed(center)
    direct = dict(zip(elements, _weight_counts(center, index, add, datum, q)))

    n = datum.rank
    omega_gamma = _omega_gammas(center, n)
    coordinate = [_coordinate_counts(center, index, g, q) for g in omega_gamma]
    # Per orbit: the distribution over its weights without the all-(q-1)
    # point, and that point alone, where the orbit sits outside a stratum.
    orbits = phi_orbits(datum)
    free = {}
    fixed = {}
    for orbit in orbits:
        corner = index[center.gamma(
            [q - 1 if j in orbit else 0 for j in range(n)])]
        free[orbit] = _convolve(add, [coordinate[i] for i in orbit])
        free[orbit][corner] -= 1
        fixed[orbit] = [int(k == corner) for k in range(len(elements))]

    subsets = [s for s in phi_stable_subsets(datum) if s]
    strata = []
    kernel_counts = {}
    generated = {}
    total = 0
    for subset in subsets:
        inside = set(subset)
        dist = _convolve(add, [free[o] if set(o) <= inside else fixed[o]
                               for o in orbits])
        size = sum(dist)
        c = dist[index[zero]]
        check(size == stratum_size(datum, q, subset),
              f"stratum {subset} count disagrees with the closed form")
        total += size
        kernel_counts[subset] = c
        generated[subset] = center.subgroup(omega_gamma[i] for i in subset)
        strata.append((subset, size, c))
    check(total + 1 == q**n, "strata must partition the restricted weights")

    per_root = [center.subgroup([omega_gamma[i]]) for i in range(n)]
    intersection = set(center.elements())
    for sub in per_root:
        intersection &= sub

    entries = []
    principal = direct[zero]
    for zeta in center.elements():
        formula = sum(kernel_counts[s] for s in subsets if zeta in generated[s])
        check(formula == direct[zeta],
              f"stratified count {formula} != direct count {direct[zeta]} "
              f"for zeta = {zeta}")
        check(direct[zeta] <= principal,
              "block sizes cannot exceed the principal block")
        entries.append(LemmaEntry(
            zeta=zeta,
            formula_count=formula,
            direct_count=direct[zeta],
            equal_to_principal=direct[zeta] == principal,
            criterion=zeta in intersection,
        ))
    return LemmaReport(label=datum.label, q=q, center=center,
                       entries=tuple(entries), strata=tuple(strata))


class AlperinEntry(NamedTuple):
    subset: tuple[int, ...]       # the stratum index I
    levi: tuple[int, ...]         # complementary simple roots
    size: int
    members: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {"subset": [i + 1 for i in self.subset],
                "levi": [i + 1 for i in self.levi],
                "size": str(self.size),
                "weights": self.members}


class AlperinReport(NamedTuple):
    label: str
    q: int
    entries: tuple[AlperinEntry, ...]
    total: int

    def to_json(self) -> dict:
        return {"type": self.label, "q": str(self.q),
                "entries": [e.to_json() for e in self.entries],
                "total": str(self.total)}


def alperin_weights(datum: RootDatum, q: int) -> AlperinReport:
    """The stratum-by-stratum tally realizing the weight count: each
    twist-stable I pairs the weights of X'_I with the unipotent radical of the
    standard parabolic whose Levi has simple roots Delta - I.  The total is
    q^rank, matching the number of simple modules."""
    _check_q(q)
    _check_weight_guard(datum, q)
    delta = tuple(range(datum.rank))
    entries = []
    total = 0
    for subset in phi_stable_subsets(datum):
        members = tuple(stratum_members(datum, q, subset))
        check(len(members) == stratum_size(datum, q, subset),
              f"stratum {subset} enumeration disagrees with the closed form")
        total += len(members)
        levi = tuple(i for i in delta if i not in subset)
        entries.append(AlperinEntry(subset=subset, levi=levi, size=len(members),
                                    members=members))
    check(total == q**datum.rank,
          "strata must partition the restricted weights")
    return AlperinReport(label=datum.label, q=q,
                         entries=tuple(entries), total=total)


def _levi_count(orbit_sizes, q: int, levi: int) -> int:
    """`levi_irreducible_count` for the Levi whose twist-orbits are the set
    bits of `levi`, orbit k having orbit_sizes[k] simple roots."""
    factors = [q**n - 1 for n in orbit_sizes]
    # the twist-stable J' inside the Levi are the submasks of `levi`, and
    # |X'_{Delta - J'}| is the product of the factors of the orbits not in J'
    total = 0
    inner = levi
    while True:
        total += math.prod(f for k, f in enumerate(factors) if not inner >> k & 1)
        if not inner:
            break
        inner = (inner - 1) & levi
    closed = math.prod(f + 1 if levi >> k & 1 else f
                       for k, f in enumerate(factors))
    check(total == closed, "Levi weight count disagrees with the closed form")
    return total


def levi_irreducible_count(datum: RootDatum, q: int, levi_subset) -> int:
    """Number of simple modules of the standard Levi with the given simple
    roots (a twist-stable subset), in the defining characteristic: the sum of
    |X'_{Delta - J'}| over twist-stable J' inside the Levi.  Matches the
    closed form q^{|J|} * prod over orbits outside J of (q^{|o|} - 1)."""
    _check_q(q)
    levi = set(levi_subset)
    check(all(datum.phi[i] in levi for i in levi),
          "Levi subset must be twist-stable")
    orbits = phi_orbits(datum)
    mask = sum(1 << k for k, orbit in enumerate(orbits) if orbit[0] in levi)
    return _levi_count([len(o) for o in orbits], q, mask)


class KnorrRobinsonReport(NamedTuple):
    label: str
    q: int
    head_term: int
    chain_terms: tuple[tuple[int, int], ...]  # (chain length j, signed total)
    total: int

    def to_json(self) -> dict:
        return {"type": self.label, "q": str(self.q),
                "head_term": str(self.head_term),
                "chain_terms": [[j, str(t)] for j, t in self.chain_terms],
                "total": str(self.total)}


def knorr_robinson_sum(datum: RootDatum, q: int) -> KnorrRobinsonReport:
    """Alternating sum over chains of proper twist-stable subsets
    J_1 > J_2 > ... > J_j (strict containments): the empty chain contributes
    q^rank - 1 and a length-j chain contributes (-1)^j times the number of
    simple modules of the Levi on J_j.  The total vanishes; a nonzero value is
    an invariant breach."""
    _check_q(q)
    sizes = [len(o) for o in phi_orbits(datum)]
    n = len(sizes)
    # a twist-stable subset is a bitmask over the orbits; the proper ones
    # are 0 .. full - 1, and a strict subset of s is a smaller number
    full = (1 << n) - 1
    below = [[t for t in range(s) if not t & ~s] for s in range(full)]

    # h[s] = sum of the Levi count of the last element over the chains of
    # the current length starting at s
    h = [_levi_count(sizes, q, s) for s in range(full)]
    by_length = {}
    for j in range(1, n + 1):
        if term := sum(h):
            by_length[j] = (-1 if j % 2 else 1) * term
        h = [sum(h[t] for t in below[s]) for s in range(full)]

    head = q**datum.rank - 1
    total = head + sum(by_length.values())
    check(total == 0, f"Knorr-Robinson chain sum for {datum.label} at q={q} "
                      f"is {total}, not 0")
    return KnorrRobinsonReport(
        label=datum.label, q=q, head_term=head,
        chain_terms=tuple(sorted(by_length.items())), total=total)
