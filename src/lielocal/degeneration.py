"""Degeneration of group algebras of finite abelian ell-groups.

For P = prod_i (Z/ell^{r_i})^{n_i} and V = J(F_ell P)/J(F_ell P)^2, any
linear section sigma of the quotient J -> V extends to an algebra map
S(V) -> F_ell P which factors through an isomorphism

    S(V)/(v^{ell^{r_i}} for v in V_i)  ->  F_ell P.

When a finite group E of order prime to ell acts on P (preserving the
factor decomposition), averaging an arbitrary section over E produces an
E-equivariant sigma, so the isomorphism intertwines the two E-actions and
extends to the semidirect products.

The module constructs the averaged section, extends it to the full
monomial basis, and certifies the result exactly: dimension equality,
unitriangularity of the matrix with respect to the radical filtration
(images are leading monomial plus strictly higher-degree terms), the
truncation relations, and E-equivariance on generators.  Any failed check
raises InvariantError since it signals a broken construction, not bad
input, so the result keeps only the verified section; its JSON certificate
states the dimensions, both |P|, and the order of E.

The same data feeds a Koszul-type differential graded algebra
F_ell[t] (x) Lambda(V) (x) S(V) with d(v) = t v^{ell^{r_i}} for v in V_i,
with t and S(V) in degree 0 and V in degree -1.  The wedge generator v_j
carries internal degree ell^{r_j} and each polynomial variable degree 1, so
d preserves internal degree.  Over F_ell(t) its cohomology vanishes outside
degree 0 and H^0 is the truncated algebra.  dg_cohomology_check verifies
both with exact ranks over F_ell: every entry of d carries one factor t, so
the package's differential acts on basis cells (subset, monomial) and leaves
t out.  It ranks one Koszul block per fine-degree type, weighted by a
generating-function count; the layer sizes are checked against a direct
count of the cells, and H^0 against the truncated algebra's Hilbert series.

Elements of F_ell P exist only in "radical coordinates": the products
u^a = prod_j u_j^{a_j}, u_j = g_j - 1, with 0 <= a_j < ell^{r_j} form a
basis of F_ell P, and since u^{ell^r} = g^{ell^r} - 1 = 0, multiplication
in that basis is truncated polynomial multiplication.  An automorphism e
with generator matrix M acts through one list of images
e(u_k) = prod_j (1 + u_j)^{M[j][k]} - 1, built once per automorphism
(`TruncatedAlgebra.unit_images`).  The group-element basis lives only in
the test oracle ``tests/degeneration_oracle.py``: the binomial expansions
in both directions and convolution of group elements, which show that the
truncated product is the group algebra's.  The oracle also has the dg
algebra as an algebra: its own differential with the t-power, the product,
and the d^2 = 0 and Leibniz checks.

DEGEN_GUARD caps both |P| for basis-level constructions and the size of
the generated automorphism group E (4096).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, reduce
from typing import Iterator, NamedTuple

from .cyclotomic import poly_mul
from .errors import GuardExceeded, check
from .generic_order import is_prime, valuation
from .linalg import add_scaled, add_term, closure, identity, mat_inverse, sparse_rank

DEGEN_GUARD = 4096

Exponents = tuple[int, ...]
UPoly = dict[Exponents, int]  # radical coordinates, coefficients mod ell


# ---------------------------------------------------------------------------
# the group and its automorphisms


class AbelianLGroup:
    """P = prod_i (Z/ell^{r_i})^{n_i} with a finite ell'-group of
    automorphisms given by integer generator matrices.

    Coordinates are exponent vectors: coordinate j belongs to factor
    block(j) and is taken mod ell^{r_{block(j)}}.  A generator matrix M
    sends the group generator g_j to prod_k g_k^{M[k][j]}; it must be
    block diagonal with respect to the factor decomposition.

    An immutable value, validated at construction; ``moduli`` and
    ``block_index`` are computed on first use, so that a guard can refuse
    a group whose order is too large to form.
    """

    def __init__(self, ell: int, factors: tuple[tuple[int, int], ...],
                 e_generators: tuple[tuple[tuple[int, ...], ...], ...] = ()) -> None:
        # straight into the instance dict, since __setattr__ refuses
        vars(self).update(ell=ell, factors=factors, e_generators=e_generators)
        if not is_prime(ell):
            raise ValueError("ell must be prime, got %r" % (ell,))
        for r, n in factors:
            if r < 1 or n < 1:
                raise ValueError("factor (r, n) = (%d, %d) must be positive" % (r, n))
        rank = self.rank
        for mat in e_generators:
            if len(mat) != rank or any(len(row) != rank for row in mat):
                raise ValueError("automorphism matrix must be %d x %d" % (rank, rank))
            self._validate_generator(mat)

    def _key(self) -> tuple:
        return self.ell, self.factors, self.e_generators

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return type(self).__name__ + repr(self._key())

    def __setattr__(self, name, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def _validate_generator(self, mat) -> None:
        blocks = self.block_index
        rank = self.rank
        # ell^{r_i} | off-block entry of row r, by valuation: r_i is not yet guarded
        for r in range(rank):
            r_i = self.factors[blocks[r]][0]
            for c in range(rank):
                x = mat[r][c]
                if blocks[r] != blocks[c] and x and valuation(x, self.ell) < r_i:
                    raise ValueError(
                        "automorphism does not preserve the factor decomposition")
        # invertibility mod ell of each diagonal block
        for i in range(len(self.factors)):
            idx = [j for j in range(rank) if blocks[j] == i]
            block = [[mat[r][c] for c in idx] for r in idx]
            try:
                mat_inverse(block, self.ell)
            except ValueError:
                raise ValueError("automorphism block %d is singular mod %d"
                                 % (i, self.ell)) from None

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.factors)

    @cached_property
    def block_index(self) -> tuple[int, ...]:
        out = []
        for i, (_, n) in enumerate(self.factors):
            out.extend([i] * n)
        return tuple(out)

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        out = []
        for r, n in self.factors:
            out.extend([self.ell ** r] * n)
        return tuple(out)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    def _normalize(self, mat) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(mat[r][c] % self.moduli[r] for c in range(self.rank))
                     for r in range(self.rank))

    def _compose(self, a, b) -> tuple[tuple[int, ...], ...]:
        rank = self.rank
        return tuple(
            tuple(sum(a[r][k] * b[k][c] for k in range(rank)) % self.moduli[r]
                  for c in range(rank))
            for r in range(rank))

    def automorphism_group(self):
        """All elements of E = <generators>, as normalized matrices."""
        one = self._normalize(identity(self.rank))
        gens = [self._normalize(m) for m in self.e_generators]
        return sorted(closure((one,), gens, lambda mat, g: self._compose(g, mat),
                              DEGEN_GUARD))


# ---------------------------------------------------------------------------
# the truncated symmetric algebra


class TruncatedAlgebra:
    """S(V)/(v^{ell^{r_i}} for v in V_i): monomials with per-variable
    exponent below ell^{r_i}, truncated multiplication.

    By the freshman's dream the ideal generated by the powers of ALL
    vectors of V_i coincides with the one generated by the basis powers
    v_j^{ell^{r_i}}, so the quotient has this monomial basis.

    An immutable value like :class:`AbelianLGroup`; ``hilbert_series`` is cached.
    """

    def __init__(self, ell: int, moduli: tuple[int, ...]) -> None:
        vars(self).update(ell=ell, moduli=moduli)

    def _key(self) -> tuple:
        return self.ell, self.moduli

    __eq__, __hash__ = AbelianLGroup.__eq__, AbelianLGroup.__hash__
    __repr__, __setattr__ = AbelianLGroup.__repr__, AbelianLGroup.__setattr__
    __delattr__ = __setattr__

    @classmethod
    def of_group(cls, group: AbelianLGroup) -> "TruncatedAlgebra":
        return cls(group.ell, group.moduli)

    def basis(self) -> Iterator[Exponents]:
        return itertools.product(*(range(m) for m in self.moduli))

    def multiply(self, a: UPoly, b: UPoly) -> UPoly:
        out: UPoly = {}
        moduli = self.moduli
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(map(operator.add, ea, eb))
                if all(map(operator.lt, exp, moduli)):
                    add_term(out, exp, ca * cb, self.ell)
        return out

    def power(self, a: UPoly, k: int) -> UPoly:
        result: UPoly = {(0,) * len(self.moduli): 1}
        base = dict(a)
        while k:
            if k & 1:
                result = self.multiply(result, base)
            k >>= 1
            if k:
                base = self.multiply(base, base)
        return result

    def unit_images(self, mat) -> list[UPoly]:
        """The images e(u_k) of u_k = g_k - 1 under the automorphism e with
        generator matrix ``mat``: e(g_k) = prod_j g_j^{mat[j][k]}, so
        e(u_k) = prod_j (1 + u_j)^{mat[j][k] mod m_j} - 1."""
        one = (0,) * len(self.moduli)
        images = []
        for k in range(len(self.moduli)):
            image: UPoly = {one: 1}
            for j, m in enumerate(self.moduli):
                if x := mat[j][k] % m:
                    g_j = {one: 1, one[:j] + (1,) + one[j + 1:]: 1}
                    image = self.multiply(image, self.power(g_j, x))
            add_term(image, one, -1, self.ell)
            images.append(image)
        return images

    def act(self, units: list[UPoly], poly: UPoly) -> UPoly:
        """The algebra map sending u_j to units[j], applied to ``poly``:
        u^a -> prod_j units[j]^{a_j}."""
        one = (0,) * len(self.moduli)
        out: UPoly = {}
        for a, c in poly.items():
            term: UPoly = {one: c}
            for j, aj in enumerate(a):
                if aj:
                    term = self.multiply(term, self.power(units[j], aj))
            add_scaled(out, term, mod=self.ell)
        return out

    @cached_property
    def hilbert_series(self) -> tuple[int, ...]:
        """Dimension of each degree 0..top_degree: the coefficients of
        prod_j (1 + t + ... + t^(m_j - 1))."""
        return tuple(reduce(poly_mul, ([1] * m for m in self.moduli), [1]))

    @property
    def top_degree(self) -> int:
        return sum(m - 1 for m in self.moduli)


# ---------------------------------------------------------------------------
# the averaged section and the isomorphism


class RadicalSection(NamedTuple):
    """An E-equivariant linear right inverse V -> J(F_ell P) of the
    projection J -> V = J/J^2, stored in radical coordinates."""

    group: AbelianLGroup
    images: tuple  # per generator of V, a UPoly
    e_order: int


def radical_section(group: AbelianLGroup) -> RadicalSection:
    """Average the canonical section v_j -> u_j = g_j - 1 over E.

    sigma = |E|^{-1} sum_e  e . sigma_0 . e^{-1}, where e acts on V by the
    generator matrix reduced mod ell and on F_ell P through its images
    e(u_k).  Requires |E| prime to ell.
    """
    ell = group.ell
    aut = group.automorphism_group()
    if len(aut) % ell == 0:
        raise ValueError(
            "automorphism group order %d is divisible by ell = %d; "
            "no equivariant section by averaging" % (len(aut), ell))
    inv_order = pow(len(aut), -1, ell)
    algebra = TruncatedAlgebra.of_group(group)

    images: list[UPoly] = [{} for _ in range(group.rank)]
    for mat in aut:
        # e^{-1} v_j = sum_k inv_v[k][j] v_k; sigma_0 sends v_k to u_k; then e
        inv_v = mat_inverse(mat, ell)
        units = algebra.unit_images(mat)
        for j, image in enumerate(images):
            for k, unit in enumerate(units):
                if inv_v[k][j]:
                    add_scaled(image, unit, inv_v[k][j] * inv_order, ell)

    section = RadicalSection(group=group, images=tuple(images),
                             e_order=len(aut))
    _check_right_inverse(section)
    _check_equivariance(section, algebra)
    return section


def _check_right_inverse(section: RadicalSection) -> None:
    rank = section.group.rank
    for j, img in enumerate(section.images):
        zero = tuple(0 for _ in range(rank))
        check(zero not in img, "section image %d has a constant term" % j)
        for k in range(rank):
            e_k = tuple(1 if c == k else 0 for c in range(rank))
            expected = 1 if k == j else 0
            check(img.get(e_k, 0) == expected,
                  "section is not a right inverse at generator %d" % j)


def _check_equivariance(section: RadicalSection, algebra: TruncatedAlgebra) -> None:
    """e(sigma(v_j)) = sigma(e v_j) for every generator e of E and every j."""
    ell = section.group.ell
    for mat in section.group.e_generators:
        units = algebra.unit_images(mat)
        for j, image in enumerate(section.images):
            rhs: UPoly = {}
            for k, other in enumerate(section.images):
                if coeff := mat[k][j] % ell:
                    add_scaled(rhs, other, coeff, ell)
            check(algebra.act(units, image) == rhs,
                  "section is not equivariant at generator %d" % j)


class DegenerationIsomorphism(NamedTuple):
    """The averaged section, once build_isomorphism has verified that it
    extends to an isomorphism; both dimensions of the certificate are |P|,
    since the ladder of images is checked to hold |P| monomials."""

    section: RadicalSection

    def to_json(self) -> dict:
        group = self.section.group
        order = str(group.order)
        return {
            "ell": group.ell,
            "factors": [list(f) for f in group.factors],
            "order": order,
            "certificate": {"dim_source": order, "dim_target": order,
                            "e_order": self.section.e_order},
        }


def build_isomorphism(group: AbelianLGroup) -> DegenerationIsomorphism:
    """Extend the averaged section multiplicatively and certify that it is
    an E-equivariant isomorphism onto F_ell P.

    It checks the truncation relations sigma(v)^{ell^{r_i}} = 0 (on basis
    vectors and on sums, which the freshman's dream reduces to the basis
    case), unitriangularity with respect to total degree (each monomial
    maps to itself plus strictly higher-degree terms, hence the map is
    injective), that the ladder of images holds |P| monomials (so the map
    is onto F_ell P), and E-equivariance on generators.  A failure raises
    InvariantError: the construction is supposed to make all four true for
    every valid input.
    """
    exponent = sum(r * n for r, n in group.factors)
    # ell^exponent with exponent >= bit_length(guard) exceeds the guard for
    # any ell >= 2, and is not formed: at exponent 10^12 it would not fit in
    # memory, and even ell^99999 is too long to print
    if exponent >= DEGEN_GUARD.bit_length() or group.order > DEGEN_GUARD:
        raise GuardExceeded("group order %d^%d exceeds guard %d"
                            % (group.ell, exponent, DEGEN_GUARD))
    section = radical_section(group)
    algebra = TruncatedAlgebra.of_group(group)
    ell = group.ell
    rank = group.rank

    # sigma(v)^{ell^{r_i}} = 0 on generators, and on a sum inside each
    # factor, exercising (a+b)^ell = a^ell + b^ell
    powers = [(section.images[j], group.moduli[j]) for j in range(rank)]
    for i in range(len(group.factors)):
        idx = [j for j in range(rank) if group.block_index[j] == i]
        if len(idx) > 1:
            combo: UPoly = {}
            for t, j in enumerate(idx):
                add_scaled(combo, section.images[j], t + 1, ell)
            powers.append((combo, group.moduli[idx[0]]))
    check(not any(algebra.power(x, m) for x, m in powers),
          "truncation relations fail for the averaged section")

    ladder: dict[Exponents, UPoly] = {}
    zero = tuple(0 for _ in range(rank))
    ladder[zero] = {zero: 1}
    for exps in sorted(algebra.basis(), key=lambda e: (sum(e), e)):
        if exps == zero:
            continue
        j = next(k for k in range(rank) if exps[k])
        prev = tuple(e - 1 if k == j else e for k, e in enumerate(exps))
        image = algebra.multiply(ladder[prev], section.images[j])
        ladder[exps] = image
        degree = sum(exps)
        check(image.get(exps, 0) == 1
              and not any(sum(e) <= degree and e != exps for e in image),
              "images are not unitriangular for the total-degree filtration")
    check(len(ladder) == group.order, "the unitriangular ladder does not hold |P| monomials")

    # E-equivariance on generators was checked by radical_section
    return DegenerationIsomorphism(section=section)


# ---------------------------------------------------------------------------
# the differential graded algebra and its cohomology


def _differential(moduli: tuple[int, ...], subset: tuple[int, ...],
                  monomial: Exponents) -> list[tuple[int, tuple[int, ...], Exponents]]:
    """d of the basis cell (subset, monomial) of the dg algebra, without its
    factor t: a list of (sign, subset', monomial'), since d(v_j) = t v_j^{m_j}
    and d is a derivation."""
    out = []
    for pos, j in enumerate(subset):
        bumped = tuple(e + (moduli[j] if k == j else 0) for k, e in enumerate(monomial))
        out.append((-1 if pos % 2 else 1, subset[:pos] + subset[pos + 1:], bumped))
    return out


class DGReport(NamedTuple):
    """The verified cohomology: dg_cohomology_check returns one only when
    no degree but 0 has cohomology and H^0 has the truncated algebra's
    dimensions, which ``to_json`` states."""

    ell: int
    factors: tuple[tuple[int, int], ...]
    degree_bound: int
    h0_dims: tuple[int, ...]
    complete: bool

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "factors": [list(f) for f in self.factors],
            "degree_bound": self.degree_bound,
            "h0_dims": list(self.h0_dims),
            "truncated_dims": list(self.h0_dims),
            "nonzero_cohomology": [],
            "complete": self.complete,
        }


def _type_counts(moduli: tuple[int, ...], subset: tuple[int, ...],
                 bound: int) -> list[int]:
    """count_T(D) for D <= bound, the number of fine degrees of internal degree
    D and type T = subset: the coefficients of prod_{j in T} x^{m_j}/(1-x)
    times prod_{j not in T} (1-x^{m_j})/(1-x), by prefix sums and shifts."""
    series = [1] + [0] * bound
    for j, m in enumerate(moduli):
        partial = list(itertools.accumulate(series))
        shifted = ([0] * m + partial)[:bound + 1]
        series = shifted if j in subset else [p - s for p, s in zip(partial, shifted)]
    return series


def _layer_sizes(moduli: tuple[int, ...], bound: int) -> list[list[int]]:
    """sizes[k][D], the number of cells (S, x^a) with |S| = k in internal degree
    D: the wedge polynomial prod_j (1 + y x^{m_j}) prefix-summed n times."""
    wedge = [[1] + [0] * bound] + [[0] * (bound + 1) for _ in moduli]
    for m in moduli:
        wedge[1:] = [[a + b for a, b in zip(row, [0] * m + lower)]
                     for lower, row in zip(wedge, wedge[1:])]
    for _ in moduli:
        wedge = [list(itertools.accumulate(row)) for row in wedge]
    return wedge


def _koszul_ranks(ell: int, moduli: tuple[int, ...], subset: tuple[int, ...]) -> list[int]:
    """ranks[k] of d from |S| = k to k - 1 (ranks[0] = 0) on the block at
    beta_T = sum_{j in T} m_j e_j, T = subset: one cell per S in T, with rows
    from _differential; every image cell must lie in the block."""
    beta = tuple(m * (j in subset) for j, m in enumerate(moduli))
    ranks, index = [0], {((), beta): 0}
    for k in range(1, len(subset) + 1):
        layer = [(s, tuple(b - moduli[j] * (j in s) for j, b in enumerate(beta)))
                 for s in itertools.combinations(subset, k)]
        rows = [{} for _ in layer]
        for row, (s, mono) in zip(rows, layer):
            for sgn, rest, bumped in _differential(moduli, s, mono):
                check((rest, bumped) in index, "d leaves the block %r" % (subset,))
                add_term(row, index[rest, bumped], sgn, ell)
        ranks.append(sparse_rank(rows, ell))
        index = {c: i for i, c in enumerate(layer)}
    return ranks


def dg_cohomology_check(group: AbelianLGroup, degree_bound: int) -> DGReport:
    """Verify, over F_ell(t) and in every internal degree up to the bound,
    that the Koszul-type complex has cohomology only in degree 0, where it
    matches the truncated algebra.

    Entries of d carry one factor of t, so ranks over F_ell(t) are ranks over
    F_ell.  d fixes the fine degree beta = a + sum_{j in S} m_j e_j of a cell
    (S, x^a), and the block of beta is the Koszul complex on its type
    T = {j : beta_j >= m_j}: its exact ranks are taken once per type and
    weighted by count_T(D).  The layer sizes must equal the direct count of
    cells, and H^0 the truncated algebra's Hilbert series.
    """
    ell, moduli, n = group.ell, group.moduli, group.rank
    algebra = TruncatedAlgebra.of_group(group)
    if degree_bound < max(moduli, default=0):
        raise ValueError(
            "inconclusive at bound %d: no truncation relation has internal "
            "degree below %d" % (degree_bound, max(moduli)))
    degrees = range(degree_bound + 1)
    sizes = [[0] * (degree_bound + 1) for _ in range(n + 1)]
    ranks = [[0] * (degree_bound + 1) for _ in range(n + 2)]
    for subset in (t for k in range(n + 1) for t in itertools.combinations(range(n), k)
                   if sum(moduli[j] for j in t) <= degree_bound):
        counts = _type_counts(moduli, subset, degree_bound)
        for k, rank_k in enumerate(_koszul_ranks(ell, moduli, subset)):
            cells = math.comb(len(subset), k)
            sizes[k] = [x + c * cells for x, c in zip(sizes[k], counts)]
            ranks[k] = [x + c * rank_k for x, c in zip(ranks[k], counts)]
    check(sizes == _layer_sizes(moduli, degree_bound),
          "layer sizes summed over the types differ from the direct count")
    # (cohomological degree, internal degree, dimension)
    bad = [(-k, d, sizes[k][d] - ranks[k][d] - ranks[k + 1][d])
           for d in degrees for k in range(1, n + 1)
           if sizes[k][d] != ranks[k][d] + ranks[k + 1][d]]
    check(not bad, "cohomology outside degree zero: %r" % (bad,))
    h0_dims = tuple(sizes[0][d] - ranks[1][d] for d in degrees)
    series = algebra.hilbert_series[:degree_bound + 1]
    truncated = series + (0,) * (degree_bound + 1 - len(series))
    check(h0_dims == truncated,
          "H^0 dimensions %r do not match the truncated algebra %r" % (h0_dims, truncated))
    return DGReport(ell=ell, factors=group.factors, degree_bound=degree_bound,
                    h0_dims=h0_dims, complete=degree_bound >= algebra.top_degree)
