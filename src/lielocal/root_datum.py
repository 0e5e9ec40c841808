"""Simply connected root data with a diagram automorphism.

Conventions, fixed once for the whole package:

* The character lattice X is Z^n in the fundamental-weight basis, so a weight
  is a plain integer tuple and ``<omega_i, alpha_j_vee> = delta_ij``.
* ``cartan[i][j] = <alpha_j, alpha_i_vee>`` (row i pairs against the i-th
  simple coroot).  A root written in simple-root coordinates ``c`` has
  fundamental-weight coordinates ``cartan @ c``.
* Positive roots are stored in simple-root coordinates together with their
  coroots in simple-coroot coordinates; both are produced by one reflection
  closure from the simple pairs.
* The diagram automorphism ``phi`` is a permutation of {0..n-1} preserving the
  Cartan matrix; it acts on weights by permuting fundamental-weight
  coordinates.
* The W-invariant inner product is normalized so short roots have squared
  length 2: ``(alpha_i, alpha_j) = d_i * cartan[i][j]`` with integer
  symmetrizer ``d_i >= 1``.

Simple groups of types A..G with rank at most 8 are supported, split or
twisted (2A, 2D, 3D4, 2E6); one table from label prefix to ranks
(``_RANKS``) names them all, and GL_1..GL_9 too.  The very twisted
Suzuki/Ree families need a square-root twist that is not a Frobenius
endomorphism over F_q and are rejected.  So is an explicit Cartan matrix
(``from_cartan``) whose symmetrized form is not positive definite: its root
system is infinite.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import NamedTuple

from .errors import InvariantError, UnsupportedTypeError, check
from .linalg import _eliminate

# The grammar of type labels: a prefix of the table (the twist order, if
# any, then the family letter; or GL) and then the rank in ASCII digits
# with no leading zero, which must lie in the prefix's range.  The table's order is the order of
# ALL_LABELS.  GL<n> is a label with no root datum: GL_9 has the Weyl group
# of A_8, the largest GL whose Weyl group fits the enumeration guard.
_RANKS: dict[str, range] = {
    "A": range(1, 9), "B": range(2, 9), "C": range(2, 9), "D": range(3, 9),
    "E": range(6, 9), "F": range(4, 5), "G": range(2, 3),
    "2A": range(2, 9), "2D": range(3, 9), "3D": range(4, 5), "2E": range(6, 7),
    "GL": range(1, 10),
}

_LABEL_RE = re.compile("(%s)(0|[1-9][0-9]*)" % "|".join(_RANKS))


def _rank_in_range(label: str, match: re.Match) -> int:
    n = int(match[2])
    if n not in _RANKS[match[1]]:
        raise UnsupportedTypeError(f"unsupported type {label!r} (rank out of range)")
    return n


def _prefix_and_rank(label: str) -> tuple[str, int]:
    """(prefix, rank) of a label that names a root datum; raises
    UnsupportedTypeError for anything else."""
    if label in ("2B2", "2G2", "2F4"):
        raise UnsupportedTypeError(f"{label}: F not Frobenius: out of scope")
    m = _LABEL_RE.fullmatch(label)
    if m is None or m[1] == "GL":
        raise UnsupportedTypeError(f"unsupported type {label!r}")
    return m[1], _rank_in_range(label, m)


def parse_label(label: str) -> tuple[int, str, int]:
    """(twist order, family, rank) of a supported type label such as "A3",
    "2A3" or "3D4"; raises UnsupportedTypeError for anything else."""
    prefix, n = _prefix_and_rank(label)
    return int(prefix[:-1] or 1), prefix[-1], n


def gl_rank(label: str) -> int | None:
    """n for a label "GL<n>" with 1 <= n <= 9, None for a label of any other
    form; a GL label outside that range raises UnsupportedTypeError."""
    m = _LABEL_RE.fullmatch(label)
    return None if m is None or m[1] != "GL" else _rank_in_range(label, m)


def split_degrees(family: str, n: int) -> list[int]:
    """Reflection degrees d_i of the Weyl group of a family and rank (as
    accepted by parse_label): |W| = prod d_i and N = sum (d_i - 1)."""
    if family == "A":
        return list(range(2, n + 2))
    if family in ("B", "C"):
        return [2 * i for i in range(1, n + 1)]
    if family == "D":
        return [2 * i for i in range(1, n)] + [n]
    if family == "G":
        return [2, 6]
    if family == "F":
        return [2, 6, 8, 12]
    return {6: [2, 5, 6, 8, 9, 12],
            7: [2, 6, 8, 10, 12, 14, 18],
            8: [2, 8, 12, 14, 18, 20, 24, 30]}[n]


def _chain_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cartan_matrix(family: str, n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        # a[i][j] = <alpha_j, alpha_i_vee>
        a[i][j] = cij
        a[j][i] = cji

    if family == "A":
        for i, j in _chain_edges(n):
            bond(i, j)
    elif family == "B":
        # alpha_{n-1} short: <alpha_{n-2}, alpha_{n-1}_vee> = -2
        for i, j in _chain_edges(n - 1):
            bond(i, j)
        bond(n - 2, n - 1, -1, -2)
    elif family == "C":
        # alpha_{n-1} long: <alpha_{n-1}, alpha_{n-2}_vee> = -2
        for i, j in _chain_edges(n - 1):
            bond(i, j)
        bond(n - 2, n - 1, -2, -1)
    elif family == "D":
        for i, j in _chain_edges(n - 1):
            bond(i, j)
        bond(n - 3, n - 1)
    elif family == "G":
        # alpha_0 short, alpha_1 long: <alpha_1, alpha_0_vee> = -3
        bond(0, 1, -3, -1)
    elif family == "F":
        # 0-1 long chain, 2-3 short chain, double bond 1 => 2
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif family == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8) with node 2 hanging off node 4
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        for i, j in edges:
            bond(i, j)
    else:
        raise UnsupportedTypeError(f"unsupported type family {family!r}")
    return a


def _diagram_automorphism(prefix: str, n: int) -> tuple[int, ...]:
    """The twist of a label's prefix on the simple roots, the identity for a
    split prefix."""
    if prefix == "2A":
        return tuple(n - 1 - i for i in range(n))
    if prefix == "2D":
        return (*range(n - 2), n - 1, n - 2)
    if prefix == "3D":
        # rotate the three outer nodes 0 -> 2 -> 3 -> 0 around the center 1
        return (2, 1, 3, 0)
    if prefix == "2E":
        return (5, 1, 4, 3, 2, 0)
    return tuple(range(n))


def _symmetrizer(cartan: list[list[int]]) -> tuple[int, ...]:
    """Positive integers d_i with d_i * a[i][j] = d_j * a[j][i], found by
    propagating ratios through the diagram, in integers: a connected part
    starts at 1 and is rescaled by the least factor a ratio needs, so it
    ends as the least integer multiple of its rational solution.  The result
    is the least integer multiple of the solution that is 1 on the first
    node of every part."""
    n = len(cartan)
    d = [0] * n
    parts = []
    for start in range(n):
        if d[start]:
            continue
        d[start] = 1
        part = [start]
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j]:
                    num, den = d[i] * cartan[i][j], cartan[j][i]
                    if d[j] == 0:
                        scale = abs(den) // math.gcd(num, den)
                        for k in part:
                            d[k] *= scale
                        d[j] = num * scale // den
                        part.append(j)
                        stack.append(j)
                    elif d[j] * den != num:
                        raise UnsupportedTypeError("Cartan matrix is not symmetrizable")
        parts.append(part)
    lead = math.lcm(*(d[part[0]] for part in parts))
    for part in parts:
        scale = lead // d[part[0]]
        for k in part:
            d[k] *= scale
    g = math.gcd(*d)
    out = tuple(x // g for x in d)
    for i in range(n):
        for j in range(n):
            if out[i] * cartan[i][j] != out[j] * cartan[j][i]:
                raise InvariantError("symmetrizer failed to symmetrize")
    return out


class RootDatum(NamedTuple):
    """Immutable simply connected root datum with twist; ``pos_roots`` are in
    the order of :func:`_reflection_closure`, the simple roots first."""

    label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    phi: tuple[int, ...]
    pos_roots: tuple[tuple[int, ...], ...]
    pos_coroots: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]

    # -- derived basics ------------------------------------------------------

    @property
    def N(self) -> int:
        return len(self.pos_roots)

    @property
    def delta(self) -> int:
        """The order of the twist: the lcm of its orbit lengths."""
        return math.lcm(*map(len, phi_orbits(self)))

    def pairing(self, lam, coroot) -> int:
        """<lam, coroot>: lam in fundamental-weight coordinates, coroot in
        simple-coroot coordinates."""
        if len(lam) != self.rank or len(coroot) != self.rank:
            raise ValueError("dimension mismatch")
        return sum(l * c for l, c in zip(lam, coroot))

    def root_weight_coords(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """Fundamental-weight coordinates of a root given in simple-root
        coordinates (the Cartan matrix applied columnwise)."""
        return tuple(sum(self.cartan[i][j] * root[j] for j in range(self.rank))
                     for i in range(self.rank))

    def phi_matrix(self) -> list[list[int]]:
        """Matrix of phi on X: omega_i -> omega_{phi(i)}."""
        n = self.rank
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[self.phi[i]][i] = 1
        return m


def _reflection_closure(cartan) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """All positive roots (simple-root coords) and coroots (simple-coroot
    coords), via closure under simple reflections; sorted by (height,
    -coords), so the simple roots come first, in node order."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen: dict[tuple[int, ...], tuple[int, ...]] = {s: s for s in simple}
    frontier = list(simple)
    while frontier:
        new_frontier = []
        for root in frontier:
            coroot = seen[root]
            for i in range(n):
                # s_i on root coords uses row i of the Cartan matrix;
                # on coroot coords it uses column i.
                pr = sum(cartan[i][j] * root[j] for j in range(n))
                new_root = tuple(root[j] - (pr if j == i else 0) for j in range(n))
                pc = sum(cartan[j][i] * coroot[j] for j in range(n))
                new_coroot = tuple(coroot[j] - (pc if j == i else 0) for j in range(n))
                if all(x >= 0 for x in new_root):
                    if new_root not in seen:
                        seen[new_root] = new_coroot
                        new_frontier.append(new_root)
                    elif seen[new_root] != new_coroot:
                        raise InvariantError("inconsistent coroot in closure")
                else:
                    if not all(x <= 0 for x in new_root):
                        raise InvariantError("reflection left +-Phi")
        frontier = new_frontier
    roots = sorted(seen, key=lambda r: (sum(r), tuple(-x for x in r)))
    return roots, [seen[r] for r in roots]


def _check_finite_type(cartan, symmetrizer: tuple[int, ...]) -> None:
    """Refuse a Cartan matrix of infinite type, on which the root closure
    would never end.  A symmetrizable Cartan matrix is of finite type exactly
    when diag(symmetrizer)·A is positive definite, that is when its leading
    principal minors are positive.  The k-th leading block is eliminated
    for k = 1..n: once the first k-1 minors are positive no row is swapped,
    so its last pivot is the k-th minor."""
    n = len(cartan)
    m = [[symmetrizer[i] * cartan[i][j] for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        block = [row[:k] for row in m[:k]]
        if len(_eliminate(block)) < k or block[-1][-1] <= 0:
            raise UnsupportedTypeError("Cartan matrix is not of finite type")


def _finish_datum(label: str, cartan, phi: tuple[int, ...]) -> RootDatum:
    _check_input(cartan, phi)
    symmetrizer = _symmetrizer([list(r) for r in cartan])
    _check_finite_type(cartan, symmetrizer)
    roots, coroots = _reflection_closure(cartan)
    datum = RootDatum(
        label=label,
        rank=len(cartan),
        cartan=tuple(tuple(r) for r in cartan),
        phi=phi,
        pos_roots=tuple(roots),
        pos_coroots=tuple(coroots),
        symmetrizer=symmetrizer,
    )
    _validate(datum)
    return datum


def build_root_datum(type_label: str) -> RootDatum:
    """Construct the simply connected root datum named by ``type_label``
    ("A3", "2A3", "3D4", "G2", ...)."""
    prefix, n = _prefix_and_rank(type_label)
    return _finish_datum(type_label, cartan_matrix(prefix[-1], n),
                         _diagram_automorphism(prefix, n))


def from_cartan(label: str, cartan, phi=None) -> RootDatum:
    """Datum from an explicit Cartan matrix (e.g. reducible A1 x A1) with an
    optional automorphism; validated like the built-in types.  A matrix that
    is not a symmetrizable Cartan matrix of finite type, a phi that is not a
    permutation preserving it, a built-in label with other data, and a label
    GL<n> (label-keyed routes answer for the built-in type, or for S_n)
    raise UnsupportedTypeError: they are bad input, not a bug."""
    n = len(cartan)
    phi = tuple(range(n)) if phi is None else tuple(phi)
    if (gl := gl_rank(label)) is not None:  # a GL label out of range raises too
        raise UnsupportedTypeError(f"{label!r} names GL_{gl}, whose Weyl group is S_{gl}")
    try:
        prefix, rank = _prefix_and_rank(label)
    except UnsupportedTypeError:
        pass  # a label that names no built-in type
    else:
        if ([list(r) for r in cartan], phi) != (cartan_matrix(prefix[-1], rank),
                                                _diagram_automorphism(prefix, rank)):
            raise UnsupportedTypeError(
                f"{label!r} names a built-in type, whose Cartan matrix or twist differ")
    return _finish_datum(label, cartan, phi)


def _check_input(a, p: tuple[int, ...]) -> None:
    """The conditions on a Cartan matrix and its twist that a caller of
    ``from_cartan`` can break, each refused with UnsupportedTypeError; the
    symmetrizer divides by the off-diagonal entries, so they are checked
    before it runs."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise UnsupportedTypeError("Cartan matrix is not square")
    if any(type(x) is not int for row in (p, *a) for x in row):
        raise UnsupportedTypeError("Cartan matrix and phi must hold integers")
    if sorted(p) != list(range(n)):
        raise UnsupportedTypeError("phi is not a permutation")
    for i in range(n):
        if a[i][i] != 2:
            raise UnsupportedTypeError(f"cartan[{i}][{i}] != 2")
        for j in range(n):
            if i != j and a[i][j] > 0:
                raise UnsupportedTypeError("positive off-diagonal Cartan entry")
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise UnsupportedTypeError("asymmetric Cartan zero pattern")
    if any(a[p[i]][p[j]] != a[i][j] for i in range(n) for j in range(n)):
        raise UnsupportedTypeError("phi does not preserve the Cartan matrix")


def _validate(datum: RootDatum) -> None:
    p = datum.phi
    try:
        twist, family, label_rank = parse_label(datum.label)
    except UnsupportedTypeError:
        pass  # from_cartan data under a label that names no type
    else:
        if twist > 1:
            check(datum.delta == twist, "twist order mismatch")
        expected_n = sum(d - 1 for d in split_degrees(family, label_rank))
        check(datum.N == expected_n, f"positive-root count {datum.N} != {expected_n}")
    # <root, its coroot> = 2
    for root, coroot in zip(datum.pos_roots, datum.pos_coroots):
        w = datum.root_weight_coords(root)
        check(datum.pairing(w, coroot) == 2, "<alpha, alpha_vee> != 2")
    # phi permutes the positive roots (as root-coordinate vectors)
    root_set = set(datum.pos_roots)
    for root in datum.pos_roots:
        image = tuple(_apply_perm_to_root(p, root))
        check(image in root_set, "phi does not permute positive roots")


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


def _apply_perm_to_root(p: tuple[int, ...], root: tuple[int, ...]) -> list[int]:
    out = [0] * len(root)
    for i, c in enumerate(root):
        out[p[i]] = c
    return out


@lru_cache(maxsize=None)
def cached_datum(type_label: str) -> RootDatum:
    return build_root_datum(type_label)


def labels_of_rank(max_rank: int) -> list[str]:
    """The labels with a root datum and rank at most ``max_rank``, in the
    order of the prefix table."""
    return [f"{prefix}{n}" for prefix, ranks in _RANKS.items() if prefix != "GL"
            for n in ranks if n <= max_rank]


ALL_LABELS: tuple[str, ...] = tuple(labels_of_rank(max(map(max, _RANKS.values()))))
