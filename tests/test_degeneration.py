"""Degeneration of abelian ell-group algebras and the Koszul dg algebra."""

import collections
import itertools
import math
import random
import time

import pytest
from degeneration_oracle import (
    check_d_squared,
    check_leibniz,
    convolve_group_algebra,
    differential,
    group_algebra_to_radical,
    group_element_to_radical,
    group_elements,
    image_of_monomial,
    radical_to_group_algebra,
)

from lielocal import degeneration
from lielocal.degeneration import (
    AbelianLGroup,
    TruncatedAlgebra,
    build_isomorphism,
    dg_cohomology_check,
    radical_section,
)
from lielocal.errors import GuardExceeded, InvariantError
from lielocal.linalg import add_term, sparse_rank

CYCLE_ON_V4 = ((0, 1), (1, 1))  # order 3 on (Z/2)^2
SWAP_2 = ((0, 1), (1, 0))


def cycle(n):
    """The matrix sending g_j to g_{j+1 mod n}: not symmetric for n >= 3."""
    return tuple(tuple(int(k == (j + 1) % n) for j in range(n)) for k in range(n))


# (group, |E|): a 3-cycle on (Z/ell)^3, and a 4-cycle with -1 on (Z/5)^4
NON_SYMMETRIC = [
    (AbelianLGroup(ell=ell, factors=((1, 3),), e_generators=(cycle(3),)), 3)
    for ell in (2, 5, 7)
] + [(AbelianLGroup(ell=5, factors=((1, 4),), e_generators=(
    cycle(4), tuple(tuple(-(i == j) for j in range(4)) for i in range(4)))), 8)]


def small_primes(limit):
    return [p for p in range(2, limit + 1)
            if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def all_groups_up_to(limit):
    """Every (ell, factors) with prod ell^(r*n) <= limit, E trivial."""
    out = []
    for ell in small_primes(limit):
        max_exp = 0
        while ell ** (max_exp + 1) <= limit:
            max_exp += 1
        # multisets of exponents r with sum <= max_exp
        def exponent_multisets(budget, cap):
            yield ()
            for r in range(1, min(budget, cap) + 1):
                for rest in exponent_multisets(budget - r, r):
                    yield (r,) + rest

        for multiset in exponent_multisets(max_exp, max_exp):
            if not multiset:
                continue
            counts: dict = {}
            for r in multiset:
                counts[r] = counts.get(r, 0) + 1
            factors = tuple(sorted(counts.items(), reverse=True))
            out.append((ell, factors))
    return out


class TestGroupValidation:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            AbelianLGroup(ell=4, factors=((1, 1),))
        with pytest.raises(ValueError):
            AbelianLGroup(ell=2, factors=((0, 1),))
        with pytest.raises(ValueError):
            AbelianLGroup(ell=2, factors=((1, 2),), e_generators=(((1,),),))

    def test_rejects_block_mixing(self):
        with pytest.raises(ValueError):
            AbelianLGroup(ell=2, factors=((2, 1), (1, 1)),
                          e_generators=(SWAP_2,))

    def test_rejects_singular_block(self):
        with pytest.raises(ValueError):
            AbelianLGroup(ell=2, factors=((1, 2),),
                          e_generators=(((1, 1), (1, 1)),))

    def test_order_and_moduli(self):
        g = AbelianLGroup(ell=3, factors=((2, 2), (1, 1)))
        assert g.order == 243
        assert g.moduli == (9, 9, 3)
        assert g.block_index == (0, 0, 1)
        assert len(list(group_elements(g))) == 243

    def test_automorphism_group_sizes(self):
        swap = AbelianLGroup(ell=3, factors=((1, 2),), e_generators=(SWAP_2,))
        assert len(swap.automorphism_group()) == 2
        cyc = AbelianLGroup(ell=2, factors=((1, 2),),
                            e_generators=(CYCLE_ON_V4,))
        assert len(cyc.automorphism_group()) == 3


class TestRadicalCoordinates:
    GROUPS = [
        AbelianLGroup(ell=2, factors=((2, 1),)),
        AbelianLGroup(ell=2, factors=((1, 2),)),
        AbelianLGroup(ell=2, factors=((2, 1), (1, 1))),
        AbelianLGroup(ell=3, factors=((2, 1),)),
        AbelianLGroup(ell=3, factors=((1, 2),)),
        AbelianLGroup(ell=5, factors=((1, 1),)),
    ]

    def test_round_trip_on_basis(self):
        for g in self.GROUPS:
            for x in group_elements(g):
                poly = group_element_to_radical(x, g.moduli, g.ell)
                back = radical_to_group_algebra(poly, g.moduli, g.ell)
                assert back == {x: 1}, (g.factors, x)

    def test_truncated_product_is_convolution(self):
        rng = random.Random(7)
        for g in self.GROUPS:
            alg = TruncatedAlgebra.of_group(g)
            basis = list(alg.basis())
            for _ in range(12):
                a = {rng.choice(basis): rng.randrange(1, g.ell)
                     for _ in range(3)}
                b = {rng.choice(basis): rng.randrange(1, g.ell)
                     for _ in range(3)}
                direct = alg.multiply(a, b)
                ga = radical_to_group_algebra(a, g.moduli, g.ell)
                gb = radical_to_group_algebra(b, g.moduli, g.ell)
                conv = convolve_group_algebra(ga, gb, g.moduli, g.ell)
                assert group_algebra_to_radical(conv, g.moduli, g.ell) == direct

    def test_freshmans_dream_in_group_algebra(self):
        rng = random.Random(11)
        for g in self.GROUPS:
            elements = list(group_elements(g))

            def power(elem, k):
                out = {tuple(0 for _ in g.moduli): 1}
                for _ in range(k):
                    out = convolve_group_algebra(out, elem, g.moduli, g.ell)
                return out

            for _ in range(6):
                a = {rng.choice(elements): rng.randrange(1, g.ell)}
                b = {rng.choice(elements): rng.randrange(1, g.ell)}
                ab = {k: v for k, v in a.items()}
                for k, v in b.items():
                    ab[k] = (ab.get(k, 0) + v) % g.ell
                lhs = power(ab, g.ell)
                rhs = power(a, g.ell)
                for k, v in power(b, g.ell).items():
                    nv = (rhs.get(k, 0) + v) % g.ell
                    if nv:
                        rhs[k] = nv
                    else:
                        rhs.pop(k, None)
                lhs = {k: v for k, v in lhs.items() if v % g.ell}
                assert lhs == rhs


class TestRadicalSection:
    def test_canonical_when_no_action(self):
        g = AbelianLGroup(ell=3, factors=((2, 2),))
        section = radical_section(g)
        assert section.e_order == 1
        assert section.images == ({(1, 0): 1}, {(0, 1): 1})

    def test_swap_action_keeps_canonical_section(self):
        g = AbelianLGroup(ell=3, factors=((1, 2),), e_generators=(SWAP_2,))
        section = radical_section(g)
        assert section.e_order == 2
        assert section.images == ({(1, 0): 1}, {(0, 1): 1})

    def test_cycle_on_v4_produces_corrected_section(self):
        g = AbelianLGroup(ell=2, factors=((1, 2),),
                          e_generators=(CYCLE_ON_V4,))
        section = radical_section(g)
        assert section.e_order == 3
        assert section.images == ({(1, 0): 1, (1, 1): 1},
                                  {(0, 1): 1, (1, 1): 1})

    def test_rejects_order_divisible_by_ell(self):
        g = AbelianLGroup(ell=2, factors=((1, 2),), e_generators=(SWAP_2,))
        with pytest.raises(ValueError, match="divisible by ell"):
            radical_section(g)

    def test_unit_images_match_the_group_element_route(self):
        # for every e in E: e(u_k) is the oracle's expansion of e(g_k) - 1,
        # and act(e) on an element is permuting its group elements by e
        mixed = AbelianLGroup(ell=2, factors=((2, 1), (1, 3)), e_generators=(
            ((1, 0, 0, 0),) + tuple((0,) + row for row in cycle(3)),))
        rng = random.Random(13)
        for g in [g for g, _ in NON_SYMMETRIC] + [mixed]:
            alg = TruncatedAlgebra.of_group(g)
            basis = list(alg.basis())
            one = (0,) * g.rank
            for mat in g.automorphism_group():
                def image(x):
                    return tuple(sum(a * b for a, b in zip(row, x)) % m
                                 for row, m in zip(mat, g.moduli))

                units = alg.unit_images(mat)
                for k, unit in enumerate(units):
                    g_k = one[:k] + (1,) + one[k + 1:]
                    assert unit == group_algebra_to_radical(
                        {image(g_k): 1, one: g.ell - 1}, g.moduli, g.ell), (g.factors, mat, k)
                poly = {rng.choice(basis): rng.randrange(1, g.ell) for _ in range(3)}
                permuted = {}
                for x, c in radical_to_group_algebra(poly, g.moduli, g.ell).items():
                    add_term(permuted, image(x), c, g.ell)
                assert alg.act(units, poly) == \
                    group_algebra_to_radical(permuted, g.moduli, g.ell), (g.factors, mat)


class TestSectionCertificate:
    """Each check of radical_section trips on a tampered construction."""

    @pytest.mark.parametrize("kept, j", [(((1, 0), (0, 1)), 1), (CYCLE_ON_V4, 0)])
    def test_a_partial_average_is_not_equivariant(self, monkeypatch, kept, j):
        # averaged over one element of E, the section is e . sigma_0 . e^{-1};
        # for the identity that is sigma_0, which sends v_0 to u_0 and is
        # equivariant there (e(u_0) = u_1), but not at v_1
        monkeypatch.setattr(AbelianLGroup, "automorphism_group", lambda self: [kept])
        g = AbelianLGroup(ell=2, factors=((1, 2),), e_generators=(CYCLE_ON_V4,))
        with pytest.raises(InvariantError,
                           match=f"section is not equivariant at generator {j}"):
            radical_section(g)

    def test_a_constant_term_is_caught(self, monkeypatch):
        real = TruncatedAlgebra.unit_images

        def shifted(self, mat):
            images = real(self, mat)
            for image in images:
                image[(0,) * len(self.moduli)] = 1
            return images

        monkeypatch.setattr(TruncatedAlgebra, "unit_images", shifted)
        with pytest.raises(InvariantError, match="section image 0 has a constant term"):
            radical_section(AbelianLGroup(ell=3, factors=((1, 2),)))

    def test_a_wrong_linear_part_is_caught(self, monkeypatch):
        real = TruncatedAlgebra.unit_images

        def doubled(self, mat):
            return [{a: 2 * c % self.ell for a, c in image.items()}
                    for image in real(self, mat)]

        monkeypatch.setattr(TruncatedAlgebra, "unit_images", doubled)
        with pytest.raises(InvariantError,
                           match="section is not a right inverse at generator 0"):
            radical_section(AbelianLGroup(ell=3, factors=((1, 2),)))


class TestIsomorphism:
    def test_cyclic_groups(self):
        for ell in (2, 3, 5, 7):
            for r in (1, 2):
                if ell ** r > 729:
                    continue
                iso = build_isomorphism(AbelianLGroup(ell=ell, factors=((r, 1),)))
                assert iso.to_json()["certificate"]["dim_source"] == str(ell ** r)

    def test_cycle_on_v4(self):
        g = AbelianLGroup(ell=2, factors=((1, 2),),
                          e_generators=(CYCLE_ON_V4,))
        iso = build_isomorphism(g)
        assert iso.section.e_order == 3

    def test_swap_on_nine(self):
        g = AbelianLGroup(ell=3, factors=((1, 2),), e_generators=(SWAP_2,))
        iso = build_isomorphism(g)
        assert iso.section.e_order == 2

    def test_two_copies_of_nine(self):
        g = AbelianLGroup(ell=3, factors=((2, 2),))
        iso = build_isomorphism(g)
        assert iso.to_json()["certificate"]["dim_source"] == "81"
        assert iso.to_json()["certificate"]["dim_target"] == "81"

    def test_mixed_factors_with_action(self):
        # Z/4 x (Z/2)^2 with the order-3 action on the second block
        mat = ((1, 0, 0), (0, 0, 1), (0, 1, 1))
        g = AbelianLGroup(ell=2, factors=((2, 1), (1, 2)), e_generators=(mat,))
        iso = build_isomorphism(g)
        assert iso.section.e_order == 3

    def test_inversion_action(self):
        g = AbelianLGroup(ell=5, factors=((2, 1),), e_generators=(((-1,),),))
        iso = build_isomorphism(g)
        assert iso.section.e_order == 2

    def test_images_multiplicative(self):
        g = AbelianLGroup(ell=2, factors=((1, 2),),
                          e_generators=(CYCLE_ON_V4,))
        iso = build_isomorphism(g)
        alg = TruncatedAlgebra.of_group(g)
        for a in alg.basis():
            for b in alg.basis():
                prod = tuple(x + y for x, y in zip(a, b))
                if any(e >= m for e, m in zip(prod, alg.moduli)):
                    continue
                lhs = image_of_monomial(iso, prod)
                rhs = alg.multiply(image_of_monomial(iso, a),
                                   image_of_monomial(iso, b))
                assert lhs == rhs

    def test_a_short_basis_trips_the_ladder_count(self, monkeypatch):
        # without its top monomial the ladder is still unitriangular, but
        # it spans a subspace of dimension |P| - 1
        real = TruncatedAlgebra.basis
        monkeypatch.setattr(TruncatedAlgebra, "basis", lambda self: list(real(self))[:-1])
        for g in (AbelianLGroup(ell=3, factors=((1, 2),)),
                  AbelianLGroup(ell=2, factors=((2, 1), (1, 2)))):
            with pytest.raises(InvariantError, match=r"does not hold \|P\| monomials"):
                build_isomorphism(g)

    @pytest.mark.parametrize("g, e_order", NON_SYMMETRIC,
                             ids=["2^3", "5^3", "7^3", "5^4"])
    def test_non_symmetric_actions(self, g, e_order):
        # permutation matrices of 3- and 4-cycles are not symmetric, so an
        # action read off the transpose breaks the certificate here
        iso = build_isomorphism(g)
        assert iso.section.e_order == e_order
        assert iso.to_json()["certificate"]["dim_source"] == str(g.order)

    def test_guard(self):
        g = AbelianLGroup(ell=2, factors=((13, 1),))
        with pytest.raises(GuardExceeded):
            build_isomorphism(g)

    def test_huge_exponent_validates_without_forming_the_power(self):
        # ell^(10^12) would not fit in memory; validation compares valuations
        factors = ((10**12, 1), (1, 1))
        g = AbelianLGroup(ell=2, factors=factors, e_generators=(((1, 0), (0, 1)),))
        assert "moduli" not in vars(g)
        with pytest.raises(GuardExceeded, match=r"2\^1000000000001 exceeds"):
            build_isomorphism(g)
        with pytest.raises(ValueError, match="factor decomposition"):
            AbelianLGroup(ell=2, factors=factors, e_generators=(((1, 2**40), (0, 1)),))
        # an off-block entry divisible by ell^{r_i} of its row is allowed
        AbelianLGroup(ell=3, factors=((2, 1), (1, 1)), e_generators=(((1, 9), (3, 1)),))
        with pytest.raises(ValueError, match="factor decomposition"):
            AbelianLGroup(ell=3, factors=((2, 1), (1, 1)), e_generators=(((1, 3), (3, 1)),))

    def test_every_group_up_to_729(self):
        groups = all_groups_up_to(729)
        assert len(groups) > 200
        seen = 0
        for ell, factors in groups:
            iso = build_isomorphism(AbelianLGroup(ell=ell, factors=factors))
            seen += 1
        assert seen == len(groups)

    def test_trivial_group(self):
        iso = build_isomorphism(AbelianLGroup(ell=3, factors=()))
        assert iso.to_json()["certificate"]["dim_source"] == "1"


def _monomials_of_degree(n, degree):
    if degree < 0:
        return []
    if n == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for x in range(remaining + 1):
            rec(prefix + (x,), remaining - x, slots - 1)

    rec((), degree, n)
    return out


def _dimensions_by_degree(moduli):
    """The number of monomials of the truncated algebra in each degree, by
    enumeration of the monomial basis."""
    return collections.Counter(map(sum, itertools.product(*(range(m) for m in moduli))))


def _degreewise_dg_json(group, degree_bound):
    """The whole-degree computation that dg_cohomology_check replaced, kept
    as an oracle: per internal degree, list every cell (S, x^a), build each
    d as one sparse matrix from the oracle's differential, and take its
    rank.  Returns the JSON form of its report, with the truncated
    dimensions counted by enumeration and every nonzero cohomology group
    found, which the package's report states as checked."""
    ell, moduli = group.ell, group.moduli
    algebra = TruncatedAlgebra.of_group(group)
    dimensions = _dimensions_by_degree(moduli)
    n = len(moduli)
    h0, truncated, bad = [], [], []
    for degree in range(degree_bound + 1):
        layers = []
        k = 0
        while True:
            layer = []
            for subset in itertools.combinations(range(n), k):
                rest = degree - sum(moduli[j] for j in subset)
                for mono in _monomials_of_degree(n, rest):
                    layer.append((subset, mono))
            if not layer and k > 0:
                break
            layers.append(layer)
            k += 1
        ranks = []
        for k in range(1, len(layers)):
            index = {cell: i for i, cell in enumerate(layers[k - 1])}
            rows = []
            for subset, mono in layers[k]:
                row = {}
                for sgn, _, rest, bumped in differential(moduli, 0, subset, mono):
                    col = index[(rest, bumped)]
                    row[col] = (row.get(col, 0) + sgn) % ell
                rows.append(row)
            ranks.append(sparse_rank(rows, ell))
        ranks.append(0)
        for k in range(1, len(layers)):
            h_dim = len(layers[k]) - ranks[k - 1] - ranks[k]
            if h_dim:
                bad.append((-k, degree, h_dim))
        h0.append(len(layers[0]) - ranks[0])
        truncated.append(dimensions[degree])
    return {"ell": ell, "factors": [list(f) for f in group.factors],
            "degree_bound": degree_bound, "h0_dims": h0, "truncated_dims": truncated,
            "nonzero_cohomology": [list(x) for x in bad],
            "complete": degree_bound >= algebra.top_degree}


def _dg_complex_size(group, bound):
    """Upper estimate for the number of cells the degreewise oracle touches
    up to the internal degree bound."""
    n = group.rank
    subsets = sum(1 for k in range(n + 1)
                  for choice in itertools.combinations(group.moduli, k)
                  if sum(choice) <= bound)
    return subsets * math.comb(bound + n, n)


class TestTruncatedAlgebra:
    def test_degree_dimensions(self):
        alg = TruncatedAlgebra(ell=3, moduli=(9, 3))
        dimensions = _dimensions_by_degree(alg.moduli)
        assert alg.hilbert_series == tuple(dimensions[d] for d in range(alg.top_degree + 1))
        assert sum(alg.hilbert_series) == 27
        assert alg.hilbert_series[:2] == (1, 2)
        assert alg.top_degree == 10

    def test_associative_commutative(self):
        rng = random.Random(3)
        alg = TruncatedAlgebra(ell=3, moduli=(3, 3, 3))
        basis = list(alg.basis())
        for _ in range(10):
            a = {rng.choice(basis): rng.randrange(1, 3) for _ in range(2)}
            b = {rng.choice(basis): rng.randrange(1, 3) for _ in range(2)}
            c = {rng.choice(basis): rng.randrange(1, 3) for _ in range(2)}
            assert alg.multiply(a, b) == alg.multiply(b, a)
            assert alg.multiply(alg.multiply(a, b), c) == \
                alg.multiply(a, alg.multiply(b, c))


class TestDGAlgebra:
    def test_d_squared_zero(self):
        for moduli in [(2,), (2, 2), (4, 2), (9, 9), (3, 3, 3)]:
            ell = 2 if moduli[0] % 2 == 0 else 3
            check_d_squared(ell, moduli)

    def test_leibniz(self):
        rng = random.Random(5)
        pairs = []
        for _ in range(8):
            size_a = rng.randrange(0, 3)
            wedge_a = tuple(sorted(rng.sample(range(3), size_a)))
            mono_a = tuple(rng.randrange(0, 2) for _ in range(3))
            a = {(0, wedge_a, mono_a): rng.randrange(1, 3)}
            size_b = rng.randrange(0, 3)
            wedge_b = tuple(sorted(rng.sample(range(3), size_b)))
            mono_b = tuple(rng.randrange(0, 2) for _ in range(3))
            b = {(0, wedge_b, mono_b): rng.randrange(1, 3),
                 (0, (), tuple(rng.randrange(0, 2) for _ in range(3))):
                     rng.randrange(1, 3)}
            pairs.append((a, b))
        check_leibniz(3, (3, 3, 9), pairs)

    def test_cohomology_cyclic(self):
        for ell in (2, 3, 5):
            g = AbelianLGroup(ell=ell, factors=((1, 1),))
            report = dg_cohomology_check(g, 2 * ell)
            assert report.complete
            assert report.h0_dims[:ell] == tuple([1] * ell)
            assert report.h0_dims[ell:] == tuple([0] * (ell + 1))

    def test_cohomology_examples(self):
        cases = [
            (AbelianLGroup(ell=2, factors=((1, 2),)), 8),
            (AbelianLGroup(ell=3, factors=((1, 2),)), 6),
            (AbelianLGroup(ell=3, factors=((2, 1),)), 18),
            (AbelianLGroup(ell=3, factors=((2, 2),)), 18),
            (AbelianLGroup(ell=2, factors=((2, 1), (1, 2))), 8),
        ]
        for g, bound in cases:
            # raises unless only H^0 is nonzero
            report = dg_cohomology_check(g, bound)
            dimensions = _dimensions_by_degree(g.moduli)
            assert report.h0_dims == tuple(dimensions[d] for d in range(bound + 1))

    def test_trivial_group_cohomology(self):
        report = dg_cohomology_check(AbelianLGroup(ell=3, factors=()), 3)
        assert report.h0_dims == (1, 0, 0, 0)

    def test_inconclusive_bound(self):
        g = AbelianLGroup(ell=3, factors=((2, 1),))
        with pytest.raises(ValueError, match="inconclusive at bound"):
            dg_cohomology_check(g, 8)

    def test_report_json(self):
        g = AbelianLGroup(ell=2, factors=((1, 2),))
        report = dg_cohomology_check(g, 4)
        data = report.to_json()
        assert data["complete"] is True
        assert data["h0_dims"] == [1, 2, 1, 0, 0]

    def test_iso_report_json(self):
        g = AbelianLGroup(ell=3, factors=((1, 2),), e_generators=(SWAP_2,))
        iso = build_isomorphism(g)
        data = iso.to_json()
        assert data["order"] == "9"
        assert data["certificate"]["e_order"] == 2


class TestDGByType:
    """dg_cohomology_check ranks one Koszul block per fine-degree type; the
    degreewise oracle builds every whole-degree matrix."""

    def test_matches_degreewise_oracle(self):
        groups = [AbelianLGroup(ell=ell, factors=factors)
                  for ell, factors in all_groups_up_to(729)]
        groups += [
            AbelianLGroup(ell=2, factors=((1, 2),), e_generators=(CYCLE_ON_V4,)),
            AbelianLGroup(ell=3, factors=((1, 2),), e_generators=(SWAP_2,)),
        ]
        compared = 0
        for group in groups:
            bound = 2 * max(group.moduli)
            if _dg_complex_size(group, bound) > 400_000:
                continue
            assert dg_cohomology_check(group, bound).to_json() == \
                _degreewise_dg_json(group, bound), (group.ell, group.factors)
            compared += 1
        assert compared == 250

    def test_type_counts_match_enumeration(self):
        for moduli in [(2,), (4, 2), (3, 3, 9), (2, 2, 2, 8)]:
            bound = 2 * max(moduli)
            n = len(moduli)
            for size in range(n + 1):
                for subset in itertools.combinations(range(n), size):
                    counts = [0] * (bound + 1)
                    for degree in range(bound + 1):
                        for beta in _monomials_of_degree(n, degree):
                            if subset == tuple(j for j in range(n)
                                               if beta[j] >= moduli[j]):
                                counts[degree] += 1
                    assert degeneration._type_counts(moduli, subset, bound) \
                        == counts, (moduli, subset)

    def test_layer_sizes_match_enumeration(self):
        for moduli in [(), (2,), (4, 2), (3, 3, 9), (2, 2, 2, 8)]:
            bound = 2 * max(moduli, default=1)
            n = len(moduli)
            sizes = [[sum(len(_monomials_of_degree(n, d - sum(moduli[j] for j in s)))
                          for s in itertools.combinations(range(n), k))
                      for d in range(bound + 1)] for k in range(n + 1)]
            assert degeneration._layer_sizes(moduli, bound) == sizes, moduli

    def test_largest_groups_end_quickly(self):
        started = time.perf_counter()
        reports = []
        for ell, factors in [(2, ((6, 1), (1, 3))), (2, ((2, 1), (1, 10))),
                             (691, ((1, 1),)), (3, ((2, 1), (1, 5)))]:
            group = AbelianLGroup(ell=ell, factors=factors)
            # raises unless only H^0 is nonzero
            reports.append((group, dg_cohomology_check(group, 2 * max(group.moduli))))
        assert time.perf_counter() - started < 5.0
        for group, report in reports:
            dimensions = _dimensions_by_degree(group.moduli)
            assert report.h0_dims == tuple(dimensions[d] for d in range(len(report.h0_dims)))

    def test_tampered_type_count_trips_layer_sizes(self, monkeypatch):
        real = degeneration._type_counts

        def tampered(moduli, subset, bound):
            counts = real(moduli, subset, bound)
            if not subset:
                counts[1] += 1
            return counts

        monkeypatch.setattr(degeneration, "_type_counts", tampered)
        group = AbelianLGroup(ell=3, factors=((2, 1), (1, 2)))
        with pytest.raises(InvariantError, match="layer sizes"):
            dg_cohomology_check(group, 18)

    def test_flipped_sign_trips_cohomology(self, monkeypatch):
        real = degeneration._differential

        def flipped(moduli, subset, monomial):
            out = real(moduli, subset, monomial)
            if subset == (0, 1):
                sgn, rest, bumped = out[0]
                out[0] = (-sgn, rest, bumped)
            return out

        monkeypatch.setattr(degeneration, "_differential", flipped)
        group = AbelianLGroup(ell=3, factors=((2, 1), (1, 2)))
        with pytest.raises(InvariantError, match="cohomology outside degree zero"):
            dg_cohomology_check(group, 18)

    def test_image_outside_block_trips(self, monkeypatch):
        real = degeneration._differential

        def leaking(moduli, subset, monomial):
            return [(sgn, rest, bumped[:-1] + (bumped[-1] + 1,))
                    for sgn, rest, bumped in real(moduli, subset, monomial)]

        monkeypatch.setattr(degeneration, "_differential", leaking)
        group = AbelianLGroup(ell=3, factors=((1, 2),))
        with pytest.raises(InvariantError, match="leaves the block"):
            dg_cohomology_check(group, 6)

    def test_other_hilbert_series_trips_h0(self, monkeypatch):
        # the report states H^0 as the truncated algebra's dimensions only
        # because this check compares the two
        real = TruncatedAlgebra.hilbert_series.func

        def bumped(self):
            series = real(self)
            return series[:1] + (series[1] + 1,) + series[2:]

        monkeypatch.setattr(TruncatedAlgebra, "hilbert_series", property(bumped))
        group = AbelianLGroup(ell=3, factors=((2, 1), (1, 2)))
        with pytest.raises(InvariantError, match=r"H\^0 dimensions .* do not match "
                                                 r"the truncated algebra"):
            dg_cohomology_check(group, 18)
