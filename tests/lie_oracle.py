"""Test-only oracles on Weyl groups, root data and weights, and readers for
the package's JSON output.

Each is the direct definition of something the package computes another
way or never needs: the whole group by one BFS with a dict over every
permutation (the package walks one length at a time and keeps flat
columns), every element's signed-root permutation rebuilt once from its
word, products, inverses, the longest element and the twist of an
enumerated group by composing those permutations (the package steps
through its right multiplication table instead), the longest element's
permutation of a context by greedy ascent (the package never needs w_0
outside the Garside normal form's length test), the twisted centralizer
by a scan of the permutation table (the package walks F-conjugates in
index order), the d-regular elements by an eigenspace basis at every
element of the largest eigenspace dimension (the package takes one per
F-class), the Poincaré
polynomial counted from an enumerated group (the package takes the degree
product and checks it against a parabolic orbit chain), the stratum of one
weight (the package counts and lists whole strata), a stratum's weights
built one by one (the package takes one product over the twist-orbits),
the Knörr–Robinson chain terms from every chain listed (the package runs a
recursion over orbit bitmasks), the W-invariant form on roots, and the
simple reflections' matrices written out entry by entry (the package takes
each from its root and coroot as 1 - alpha⊗alpha^vee).  The
readers invert ``to_json`` so that tests can compare printed output with
objects.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

from laurent_oracle import Laurent

from lielocal.defining_char import phi_orbits, phi_stable_subsets, stratum_size
from lielocal.generic_order import CycloFactorization
from lielocal.root_datum import cached_datum, gl_rank


def bfs_enumeration(ctx):
    """(permutations, words, right rows) of the whole group by one BFS from
    the identity, generators in ascending order, with one dict from every
    permutation to its index: ``right[w][i]`` is the index of w·s_i.  The
    package walks one length at a time and keeps flat columns instead."""
    n_gens, N, compose, gen_perms = ctx.n_gens, ctx.N, ctx.compose, ctx.gen_perms
    perms = [ctx.identity_perm]
    words = [()]
    position = {ctx.identity_perm: 0}
    right = [[-1] * n_gens]
    for w, perm in enumerate(perms):  # grows while it is walked
        for i in range(n_gens):
            if perm[i] < N:  # l(w s_i) = l(w) + 1
                p = compose(perm, gen_perms[i])
                ws = position.get(p)
                if ws is None:
                    ws = len(perms)
                    perms.append(p)
                    words.append(words[w] + (i,))
                    position[p] = ws
                    right.append([-1] * n_gens)
                right[w][i] = ws
                right[ws][i] = w
    return perms, words, right


@lru_cache(maxsize=None)
def permutations(group) -> tuple[bytes, ...]:
    """The signed-root permutation of every element of an enumerated group,
    in index order, each the product of the generators along its word;
    built once per group."""
    ctx = group.ctx
    return tuple(reduce(ctx.compose, (ctx.gen_perms[i] for i in group.word(w)),
                        ctx.identity_perm) for w in group.elements)


@lru_cache(maxsize=None)
def index_of(group) -> dict[bytes, int]:
    """Signed-root permutation -> element index of an enumerated group."""
    return {p: w for w, p in enumerate(permutations(group))}


def multiply(group, a: int, b: int) -> int:
    perms = permutations(group)
    return index_of(group)[group.ctx.compose(perms[a], perms[b])]


def inverse(group, a: int) -> int:
    return index_of(group)[group.ctx.invert(permutations(group)[a])]


def phi_image(group, a: int) -> int:
    """phi w phi^{-1}, by composing with the twist's permutation."""
    ctx = group.ctx
    p = ctx.compose(ctx.phi_perm, ctx.compose(permutations(group)[a], ctx.invert(ctx.phi_perm)))
    return index_of(group)[p]


def longest(group) -> int:
    """The unique element of length N."""
    ctx = group.ctx
    candidates = [w for w, p in enumerate(permutations(group)) if ctx.length(p) == ctx.N]
    assert len(candidates) == 1, "longest element is not unique"
    return candidates[0]


def longest_element_perm(ctx) -> bytes:
    """Signed-root permutation of w_0, by greedy ascent from the identity:
    a context alone, so E7 and E8 need no enumeration."""
    cur = ctx.identity_perm
    while True:
        i = next((i for i in range(ctx.n_gens) if cur[i] < ctx.N), None)
        if i is None:
            return cur
        cur = ctx.compose(cur, ctx.gen_perms[i])


def centralizer_by_scan(group, w: int) -> list[int]:
    """C_W(w phi) = {v : v (w phi) = (w phi) v}, in index order, by a scan of
    the permutation table.  The package conjugates w by every element along
    the BFS parents instead."""
    ctx, m = group.ctx, 2 * group.ctx.N
    perms = b"".join(permutations(group))
    sigma = ctx.compose(permutations(group)[w], ctx.phi_perm)
    candidates = group.elements
    if m:
        # v·sigma = sigma·v needs v[sigma[0]] = sigma[v[0]]: two columns
        # of the permutation table, compared for every v at once
        column = perms[::m].translate(sigma + ctx._pad)
        candidates = [v for v, (x, y) in enumerate(zip(perms[sigma[0]::m], column))
                      if x == y]
    centralizer = []
    for v in candidates:
        p = perms[v * m:(v + 1) * m]
        if ctx.compose(p, sigma) == ctx.compose(sigma, p):
            centralizer.append(v)
    return centralizer


def regular_witnesses_by_scan(group, d: int) -> list[int]:
    """The d-regular elements, in index order, by an eigenspace basis of
    every element of the largest eigenspace dimension, checked for a
    vanishing coroot.  The package takes one basis per F-class instead."""
    dims = group.phi_d_dimensions(d)
    best = max(dims)
    return [w for w, dim in enumerate(dims) if best and dim == best
            and group.is_regular_eigenspace(group.eigenspace_basis(w, d))]


def poincare_polynomial(group) -> list[int]:
    """Coefficient k is the number of elements of length k."""
    out = [0] * (group.ctx.N + 1)
    for w in group.elements:
        out[len(group.word(w))] += 1
    return out


def stratum_of(datum, q: int, lam) -> tuple[int, ...]:
    """I(lam): the union of twist-orbits meeting {a : lam_a != q-1}."""
    members: set[int] = set()
    for orbit in phi_orbits(datum):
        if any(lam[i] != q - 1 for i in orbit):
            members.update(orbit)
    return tuple(sorted(members))


def stratum_members_by_weight(datum, q: int, subset):
    """The weights of X'_I built one at a time: each orbit inside I takes
    every value tuple but all-(q-1), every other coordinate is q-1.  The
    package takes one product over all orbits instead."""
    inside = set(subset)
    orbits_in = [o for o in phi_orbits(datum) if set(o) <= inside]
    choices = [[c for c in itertools.product(range(q), repeat=len(orbit))
                if any(x != q - 1 for x in c)] for orbit in orbits_in]
    for combo in itertools.product(*choices):
        lam = [q - 1] * datum.rank
        for orbit, values in zip(orbits_in, combo):
            for idx, val in zip(orbit, values):
                lam[idx] = val
        yield tuple(lam)


def knorr_robinson_chains(datum, q: int) -> dict[int, int]:
    """Signed chain terms of the Knörr–Robinson sum by listing every chain
    J_1 > ... > J_j of proper twist-stable subsets, each chain contributing
    (-1)^j times the Levi count of J_j summed over strata; nonzero terms
    only.  The package runs a recursion over orbit bitmasks instead."""
    proper = [frozenset(s) for s in phi_stable_subsets(datum)
              if len(s) < datum.rank]
    delta = frozenset(range(datum.rank))

    def levi_count(levi):
        return sum(stratum_size(datum, q, tuple(sorted(delta - inner)))
                   for inner in proper if inner <= levi)

    terms: dict[int, int] = {}

    def extend(chain):
        j = len(chain)
        terms[j] = terms.get(j, 0) + (-1) ** j * levi_count(chain[-1])
        for t in proper:
            if t < chain[-1]:
                extend(chain + [t])

    for s in proper:
        extend([s])
    return {j: t for j, t in terms.items() if t}


def root_inner(datum, r1, r2) -> int:
    """(r1, r2) in the W-invariant form, roots in simple-root coords;
    (alpha_i, alpha_j) = d_i * cartan[i][j], short roots have norm 2."""
    total = 0
    for i, a in enumerate(r1):
        if a:
            for j, b in enumerate(r2):
                if b:
                    total += a * b * datum.symmetrizer[i] * datum.cartan[i][j]
    return total


def simple_reflection_matrices(label: str) -> list[list[list[int]]]:
    """The matrices of the simple reflections s_i: on the weight lattice of
    a datum, delta_rc - cartan[r][i]·delta_ci (column i is s_i(omega_i) =
    omega_i - alpha_i); for GL_n, the transposition of coordinates i, i + 1."""
    n = gl_rank(label)
    if n is None:
        cartan = cached_datum(label).cartan
        return [[[(r == c) - cartan[r][i] * (c == i) for c in range(len(cartan))]
                 for r in range(len(cartan))] for i in range(len(cartan))]
    swaps = [{i: i + 1, i + 1: i} for i in range(n - 1)]
    return [[[int(swap.get(r, r) == c) for c in range(n)] for r in range(n)] for swap in swaps]


def laurent_from_json(data) -> Laurent:
    return Laurent({int(e): int(c) for e, c in data.items()})


def factorization_from_json(data) -> CycloFactorization:
    return CycloFactorization(
        label=data["type"],
        rank=int(data["rank"]),
        qpower=int(data["qpower"]),
        exponents=tuple(sorted((int(d), int(a)) for d, a in data["exponents"].items())),
        factor_pairs=tuple((int(d), (int(o), int(e)))
                           for d, (o, e) in data["factor_pairs"]),
    )
