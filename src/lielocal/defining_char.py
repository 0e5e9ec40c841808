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
form prod over orbits o inside I of (q^{|o|} - 1), which is asserted against
the enumeration whenever we enumerate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GuardExceeded, check
from .generic_order import prime_power_base
from .linalg import smith_normal_form
from .root_datum import RootDatum

WEIGHT_GUARD = 10**7


def _check_q(q: int) -> None:
    if q < 2 or prime_power_base(q) is None:
        raise ValueError(f"q = {q} is not a prime power")


def _check_weight_guard(datum: RootDatum, q: int, guard: int) -> None:
    if q**datum.rank > guard:
        raise GuardExceeded(
            f"q^rank = {q**datum.rank} exceeds the weight guard {guard}")


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


@dataclass(frozen=True)
class CenterDual:
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

    def subgroup(self, generators) -> frozenset:
        """Closure of a set of elements under addition."""
        elems = {self.zero()}
        frontier = [tuple(g) for g in generators]
        while frontier:
            nxt = []
            for g in frontier:
                for h in list(elems):
                    s = self.add(g, h)
                    if s not in elems:
                        elems.add(s)
                        nxt.append(s)
            frontier = nxt
        return frozenset(elems)

    def to_json(self) -> dict:
        return {"invariants": [str(s) for s in self.invariants],
                "size": str(self.size)}


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
    for i in range(n):
        e_i = [1 if j == i else 0 for j in range(n)]
        e_f = [1 if j == datum.phi[i] else 0 for j in range(n)]
        lhs = tuple((q * x) % s_ for x, s_ in zip(cd.gamma(e_f), cd.invariants))
        check(lhs == cd.gamma(e_i), "center-dual twist relation failed")
    return cd


def restricted_weights(datum: RootDatum, q: int, guard: int = WEIGHT_GUARD):
    """All q-restricted weights in lexicographic order (an iterator)."""
    _check_q(q)
    _check_weight_guard(datum, q, guard)
    return itertools.product(range(q), repeat=datum.rank)


def steinberg_weight(datum: RootDatum, q: int) -> tuple[int, ...]:
    _check_q(q)
    return (q - 1,) * datum.rank


def stratum_of(datum: RootDatum, q: int, lam) -> tuple[int, ...]:
    """I(lam): the union of twist-orbits meeting {a : lam_a != q-1}."""
    members: set[int] = set()
    for orbit in phi_orbits(datum):
        if any(lam[i] != q - 1 for i in orbit):
            members.update(orbit)
    return tuple(sorted(members))


def stratum_size(datum: RootDatum, q: int, subset) -> int:
    """Closed form |X'_I| = prod over orbits inside I of (q^{|o|} - 1)."""
    size = 1
    inside = set(subset)
    for orbit in phi_orbits(datum):
        if set(orbit) <= inside:
            size *= q ** len(orbit) - 1
    return size


def stratum_members(datum: RootDatum, q: int, subset):
    """Iterate the weights of X'_I in lexicographic order."""
    inside = set(subset)
    orbits_in = [o for o in phi_orbits(datum) if set(o) <= inside]
    check(all(set(o) <= inside or not (set(o) & inside) for o in phi_orbits(datum)),
          "stratum index must be a union of twist-orbits")
    base = [q - 1] * datum.rank
    choices = []
    for orbit in orbits_in:
        full = [c for c in itertools.product(range(q), repeat=len(orbit))
                if any(x != q - 1 for x in c)]
        choices.append(full)
    for combo in itertools.product(*choices):
        lam = list(base)
        for orbit, values in zip(orbits_in, combo):
            for idx, val in zip(orbit, values):
                lam[idx] = val
        yield tuple(lam)


@dataclass(frozen=True)
class BlockData:
    zeta: tuple[int, ...]
    size: int
    members: tuple[tuple[int, ...], ...] | None

    def to_json(self) -> dict:
        data = {"zeta": list(self.zeta), "size": str(self.size)}
        if self.members is not None:
            data["weights"] = [list(w) for w in self.members]
        return data


@dataclass(frozen=True)
class BlockReport:
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


def block_partition(datum: RootDatum, q: int, include_weights: bool = True,
                    guard: int = WEIGHT_GUARD) -> BlockReport:
    """Partition of the non-Steinberg restricted weights by central character;
    the Steinberg weight (q-1, ..., q-1) stands alone with defect zero."""
    center = center_dual(datum, q)
    st = steinberg_weight(datum, q)
    check(center.gamma(st) == center.zero(),
          "Steinberg weight must have trivial central character")
    groups: dict[tuple[int, ...], list] = {z: [] for z in center.elements()}
    count = 0
    for lam in restricted_weights(datum, q, guard):
        count += 1
        if lam == st:
            continue
        groups[center.gamma(lam)].append(lam)
    check(count == q**datum.rank, "weight enumeration is incomplete")
    blocks = tuple(
        BlockData(zeta=z, size=len(members),
                  members=tuple(members) if include_weights else None)
        for z, members in sorted(groups.items()))
    return BlockReport(label=datum.label, q=q, center=center,
                       blocks=blocks, steinberg=st)


@dataclass(frozen=True)
class LemmaEntry:
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


@dataclass(frozen=True)
class LemmaReport:
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


def lemma_counts(datum: RootDatum, q: int, guard: int = WEIGHT_GUARD) -> LemmaReport:
    """Per central character zeta: the stratified count
        sum over nonempty twist-stable I of [zeta in <gamma(omega_a): a in I>]
            * #(X'_I with gamma = 0)
    against the direct count #(non-Steinberg weights with gamma = zeta).
    A mismatch is an invariant breach.  Also reports whether each block is as
    large as the principal one and the subgroup-membership criterion for that."""
    _check_weight_guard(datum, q, guard)
    center = center_dual(datum, q)
    zero = center.zero()

    direct: dict[tuple[int, ...], int] = {z: 0 for z in center.elements()}
    st = steinberg_weight(datum, q)
    for lam in restricted_weights(datum, q, guard):
        if lam != st:
            direct[center.gamma(lam)] += 1

    n = datum.rank
    omega_gamma = []
    for i in range(n):
        e_i = [1 if j == i else 0 for j in range(n)]
        omega_gamma.append(center.gamma(e_i))

    subsets = [s for s in phi_stable_subsets(datum) if s]
    strata = []
    kernel_counts = {}
    generated = {}
    total = 0
    for subset in subsets:
        size = 0
        c = 0
        for lam in stratum_members(datum, q, subset):
            size += 1
            if center.gamma(lam) == zero:
                c += 1
        check(size == stratum_size(datum, q, subset),
              f"stratum {subset} enumeration disagrees with the closed form")
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


@dataclass(frozen=True)
class AlperinEntry:
    subset: tuple[int, ...]       # the stratum index I
    levi: tuple[int, ...]         # complementary simple roots
    size: int
    members: tuple[tuple[int, ...], ...] | None

    def to_json(self) -> dict:
        data = {"subset": [i + 1 for i in self.subset],
                "levi": [i + 1 for i in self.levi],
                "size": str(self.size)}
        if self.members is not None:
            data["weights"] = [list(w) for w in self.members]
        return data


@dataclass(frozen=True)
class AlperinReport:
    label: str
    q: int
    entries: tuple[AlperinEntry, ...]
    total: int

    def to_json(self) -> dict:
        return {"type": self.label, "q": str(self.q),
                "entries": [e.to_json() for e in self.entries],
                "total": str(self.total)}


def alperin_weights(datum: RootDatum, q: int, include_weights: bool = True,
                    guard: int = WEIGHT_GUARD) -> AlperinReport:
    """The stratum-by-stratum tally realizing the weight count: each
    twist-stable I pairs the weights of X'_I with the unipotent radical of the
    standard parabolic whose Levi has simple roots Delta - I.  The total is
    q^rank, matching the number of simple modules."""
    _check_weight_guard(datum, q, guard)
    delta = tuple(range(datum.rank))
    entries = []
    total = 0
    for subset in phi_stable_subsets(datum):
        members = tuple(stratum_members(datum, q, subset))
        check(len(members) == stratum_size(datum, q, subset),
              f"stratum {subset} enumeration disagrees with the closed form")
        total += len(members)
        levi = tuple(i for i in delta if i not in subset)
        entries.append(AlperinEntry(
            subset=subset, levi=levi, size=len(members),
            members=members if include_weights else None))
    check(total == q**datum.rank,
          "strata must partition the restricted weights")
    return AlperinReport(label=datum.label, q=q,
                         entries=tuple(entries), total=total)


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
    delta = tuple(range(datum.rank))
    total = 0
    inner = [o for o in orbits if set(o) <= levi]
    for bits in itertools.product((0, 1), repeat=len(inner)):
        chosen: set[int] = set()
        for take, orbit in zip(bits, inner):
            if take:
                chosen.update(orbit)
        complement = tuple(i for i in delta if i not in chosen)
        total += stratum_size(datum, q, complement)
    closed = q ** len(levi)
    for orbit in orbits:
        if not (set(orbit) <= levi):
            closed *= q ** len(orbit) - 1
    check(total == closed, "Levi weight count disagrees with the closed form")
    return total


@dataclass(frozen=True)
class KnorrRobinsonReport:
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
    proper = [s for s in phi_stable_subsets(datum) if len(s) < datum.rank]
    irr = {s: levi_irreducible_count(datum, q, s) for s in proper}

    # h[s][j] = sum of irr(last element) over chains of length j starting at s
    max_len = len(phi_orbits(datum))
    h: dict[tuple[int, ...], list[int]] = {
        s: [0] * (max_len + 1) for s in proper}
    for s in proper:
        h[s][1] = irr[s]
    for j in range(2, max_len + 1):
        for s in proper:
            h[s][j] = sum(h[t][j - 1] for t in proper
                          if len(t) < len(s) and set(t) < set(s))
    by_length = {}
    for j in range(1, max_len + 1):
        term = sum(h[s][j] for s in proper)
        if term:
            by_length[j] = (-1 if j % 2 else 1) * term

    head = q**datum.rank - 1
    total = head + sum(by_length.values())
    check(total == 0, f"Knorr-Robinson chain sum for {datum.label} at q={q} "
                      f"is {total}, not 0")
    return KnorrRobinsonReport(
        label=datum.label, q=q, head_term=head,
        chain_terms=tuple(sorted(by_length.items())), total=total)
