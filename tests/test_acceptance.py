"""End-to-end acceptance suite.

Ten self-contained checks, one per headline guarantee of the library. Each
function is a single pytest item so `pytest -v` prints one pass/fail line
per guarantee. All arithmetic is exact; the only tolerances are the stated
wall-clock budgets.
"""

import time

from braid_hecke_oracle import HeckeAlgebra, lambda_of_perm, pi_normal_form, specialize
from groundtruth import (
    order_sl2_bruteforce,
    order_sl3_counted,
    order_sp4_counted,
    order_su3_counted,
    sylow_gl2,
)
from lie_oracle import longest_element_perm, multiply
from test_braid_hecke import ALL_LABELS
from test_degeneration import CYCLE_ON_V4, SWAP_2, all_groups_up_to

from lielocal.braid_hecke import (
    garside_nf,
    hecke_poincare,
    verify_regular_braid_identity,
)
from lielocal.defining_char import (
    alperin_weights,
    knorr_robinson_sum,
    lemma_counts,
)
from lielocal.degeneration import (
    AbelianLGroup,
    build_isomorphism,
    dg_cohomology_check,
)
from lielocal.ell_local import gl_sylow_structure, sylow_structure
from lielocal.fock_llt import d_core, llt_canonical_basis, shape_check, verify_bar_invariance
from lielocal.generic_order import (
    evaluate_order,
    generic_order,
    multiplicative_order,
    prime_power_base,
    valuation,
)
from lielocal.root_datum import cached_datum, labels_of_rank
from lielocal.weyl import context_from_datum, generate_weyl

Q_GRID = (2, 3, 4, 5, 7, 8, 9)
ELL_GRID = (5, 7, 11, 13)

# Simply connected groups whose root system is of type A (including the
# rank-3 coincidence D3 = A3), with the matrix size n and the sign eps such
# that the finite group is SL_n(q) (eps = +1) or SU_n(q) (eps = -1).
TYPE_A_LIKE = {
    "A1": (2, 1), "A2": (3, 1), "A3": (4, 1), "A4": (5, 1), "D3": (4, 1),
    "2A2": (3, -1), "2A3": (4, -1), "2A4": (5, -1), "2D3": (4, -1),
}


def test_01_generic_order_matches_bruteforce_matrix_group_counts():
    """The cyclotomic order polynomial evaluates to the exact order of the
    matrix group, counted from matrices over the finite field."""
    started = time.time()
    oracles = [
        ("A1", order_sl2_bruteforce),
        ("A2", order_sl3_counted),
        ("2A2", order_su3_counted),
        ("C2", order_sp4_counted),
    ]
    for label, oracle in oracles:
        factorization = generic_order(cached_datum(label))
        for q in (2, 3, 4, 5, 7):
            assert evaluate_order(factorization, q) == oracle(q), (label, q)
    assert time.time() - started < 60.0


def test_02_per_block_simple_counts_inequality_and_equality_criterion():
    """Per-central-character simple-module counts: the closed formula agrees
    with the direct block partition, no block exceeds the principal one, the
    equality flag matches the weight-lattice criterion, and for SL_n/SU_n
    equality at a nontrivial character happens exactly when n is a prime
    power ell^r dividing q - eps (then the equal characters form the order-ell
    subgroup)."""
    for label in labels_of_rank(4):
        datum = cached_datum(label)
        for q in Q_GRID:
            report = lemma_counts(datum, q)
            principal = next(e for e in report.entries if not any(e.zeta))
            for e in report.entries:
                assert e.formula_count == e.direct_count, (label, q, e.zeta)
                assert e.direct_count <= principal.direct_count, (label, q, e.zeta)
                assert e.equal_to_principal == (
                    e.direct_count == principal.direct_count), (label, q, e.zeta)
                assert e.equal_to_principal == e.criterion, (label, q, e.zeta)
            n_equal = sum(1 for e in report.entries if e.equal_to_principal)
            nontrivial_equal = any(
                e.equal_to_principal for e in report.entries if any(e.zeta))
            if label in TYPE_A_LIKE:
                n, eps = TYPE_A_LIKE[label]
                ell = prime_power_base(n)
                expected = ell is not None and (q - eps) % n == 0
                assert nontrivial_equal == expected, (label, q)
                assert n_equal == (ell if expected else 1), (label, q)
            else:
                assert nontrivial_equal is False, (label, q)
                assert n_equal == 1, (label, q)


def test_03_weight_count_sums_to_restricted_weight_total():
    """Summing projective-simple counts over the stable subsets of simple
    roots recovers q^rank, the number of simple modules in defining
    characteristic."""
    for label in labels_of_rank(4):
        datum = cached_datum(label)
        for q in Q_GRID:
            report = alperin_weights(datum, q)
            assert report.total == q ** datum.rank, (label, q)


def test_04_alternating_parabolic_chain_sum_vanishes():
    """The alternating sum of nonprojective simple-module counts over
    parabolic chains is zero, and in rank one both the group and its Borel
    contribute exactly q - 1 nonprojective simples."""
    for label in labels_of_rank(4):
        datum = cached_datum(label)
        for q in Q_GRID:
            assert knorr_robinson_sum(datum, q).total == 0, (label, q)
    for q in Q_GRID:
        report = knorr_robinson_sum(cached_datum("A1"), q)
        assert report.head_term == q - 1, q
        assert report.chain_terms == ((1, -(q - 1)),), q


def test_05_sylow_valuation_and_abelian_criterion():
    """The l-part read off the cyclotomic factorization equals the valuation
    of the integer group order; the abelian flag matches triviality of l in
    the relative Weyl group; in GL mode n < d*l forces an abelian Sylow, and
    GL_2 agrees with a from-scratch Sylow subgroup computation."""
    for label in labels_of_rank(4):
        datum = cached_datum(label)
        factorization = generic_order(datum)
        for q in Q_GRID:
            for ell in ELL_GRID:
                if q % ell == 0:
                    continue
                report = sylow_structure(datum, q, ell)
                assert report.nu == valuation(
                    evaluate_order(factorization, q), ell), (label, q, ell)
                assert report.d == multiplicative_order(q, ell), (label, q, ell)
                cyclic_part_only = (report.levi is None
                                    or report.levi.w_prime_order % ell != 0)
                assert report.abelian == cyclic_part_only, (label, q, ell)
    for n in range(1, 6):
        for q in Q_GRID:
            for ell in ELL_GRID:
                if q % ell == 0:
                    continue
                d = multiplicative_order(q, ell)
                if n < d * ell:
                    assert gl_sylow_structure(n, q, ell).abelian is True, \
                        (n, q, ell)
    for q in (2, 3, 4, 5, 7):
        for ell in ELL_GRID:
            if q % ell == 0:
                continue
            order, abelian = sylow_gl2(q, ell)
            report = gl_sylow_structure(2, q, ell)
            assert ell ** report.nu == order, (q, ell)
            assert report.abelian == abelian, (q, ell)


def test_06_regular_braid_power_identity_and_full_twist():
    """For every d >= 2 admitting a regular element in rank <= 3 (split
    types and the twisted rank-2 unitary type), some regular element's
    braid lift has d-th twisted power equal to the full twist; the d = 1
    witness is the full twist itself, equal to the squared lift of the
    longest element in every type."""
    split_rank3 = [l for l in labels_of_rank(3) if not l[0].isdigit()]
    for label in split_rank3 + ["2A2"]:
        datum = cached_datum(label)
        group = generate_weyl(datum)
        degrees = sorted({d for d, _ in generic_order(datum).exponents})
        for d in range(2, max(degrees) + 1):
            if group.regular_elements(d) is None:
                continue
            report = verify_regular_braid_identity(datum, d)
            assert report.holds, (label, d)
            assert report.witness_word is not None, (label, d)
    for label in ALL_LABELS:
        ctx = context_from_datum(cached_datum(label))
        squared = lambda_of_perm(ctx, longest_element_perm(ctx)).power(2)
        assert garside_nf(ctx, squared) == pi_normal_form(ctx), label


def test_07_eigenspace_dimension_equals_order_polynomial_exponent():
    """For every d, the dimension of the largest eigenspace of a twisted
    Weyl element with primitive d-th root eigenvalue equals the exponent of
    the d-th cyclotomic polynomial in the generic order."""
    for label in labels_of_rank(4):
        datum = cached_datum(label)
        group = generate_weyl(datum)
        factorization = generic_order(datum)
        max_d = max(d for d, _ in factorization.exponents)
        for d in range(1, max_d + 1):
            _, dim = group.max_phi_d_eigenspace(d)
            assert dim == factorization.exponent(d), (label, d)


def test_08_canonical_basis_bar_invariance_and_triangular_shape():
    """Canonical basis matrices for n <= 8, d in {2,3,4}: every vector
    passes an independent bar-involution check, the matrix is unitriangular
    with off-diagonal entries in v*Z[v] with nonnegative coefficients and
    respects d-core blocks, and d > n yields the identity matrix."""
    started = time.time()
    for n in range(1, 9):
        for d in (2, 3, 4):
            matrix = llt_canonical_basis(n, d)
            verify_bar_invariance(matrix)
            shape_check(matrix)
            labels = matrix.labels
            for r, row in enumerate(matrix.entries):
                for c, entry in enumerate(row):
                    if entry:
                        assert d_core(labels[r], d) == d_core(labels[c], d), \
                            (n, d, labels[r], labels[c])
            if d > n:
                for r, row in enumerate(matrix.entries):
                    for c, entry in enumerate(row):
                        assert sum(x for _, x in entry) == (1 if r == c else 0), \
                            (n, d, r, c)
                        if r != c:
                            assert not entry, (n, d, r, c)
    assert time.time() - started < 300.0


def test_09_degeneration_certificates_and_dg_cohomology_vanishing():
    """The truncated-symmetric-algebra model of the modular group algebra:
    certified isomorphisms for every abelian l-group of order <= 729 and for
    the named order-3 and swap actions; cohomology of the associated dg
    algebra vanishes outside degree zero up to internal degree twice the
    largest factor order, for every one of those groups."""
    groups = [AbelianLGroup(ell=ell, factors=factors)
              for ell, factors in all_groups_up_to(729)]
    assert len(groups) == 277
    for group in groups:
        iso = build_isomorphism(group)
    acted = [
        AbelianLGroup(ell=2, factors=((1, 2),), e_generators=(CYCLE_ON_V4,)),
        AbelianLGroup(ell=3, factors=((1, 2),), e_generators=(SWAP_2,)),
    ]
    for group, e_order in zip(acted, (3, 2)):
        iso = build_isomorphism(group)
        assert iso.certificate.e_order == e_order

    checked = 0
    for group in groups + acted:
        report = dg_cohomology_check(group, 2 * max(group.moduli))
        assert not report.nonzero_cohomology, (group.ell, group.factors)
        checked += 1
    assert checked == 279


def test_10_hecke_associativity_poincare_and_group_algebra_limit():
    """The Hecke algebra is associative on all basis triples in rank <= 2,
    its Poincare polynomial at 1 counts the Weyl group in rank <= 4, and
    specializing products at 1 reproduces the group algebra's structure
    constants in rank <= 2."""
    for label in labels_of_rank(2):
        group = generate_weyl(cached_datum(label))
        algebra = HeckeAlgebra(group)
        basis = [algebra.basis_element(w) for w in range(len(group))]
        for a in basis:
            for b in basis:
                ab = a * b
                for c in basis:
                    assert (ab) * c == a * (b * c), label
        for u in range(len(group)):
            for v in range(len(group)):
                values = specialize(basis[u] * basis[v], 1)
                nonzero = {w: x for w, x in values.items() if x != 0}
                assert nonzero == {multiply(group, u, v): 1}, (label, u, v)
    for label in labels_of_rank(4):
        assert sum(hecke_poincare(label)) == len(
            generate_weyl(cached_datum(label))), label
