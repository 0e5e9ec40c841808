"""Sylow structure away from the defining characteristic: eigenspace Levis,
orthogonal reflection systems, and the abelianity criterion."""

import json

import cyclo_oracle
import pytest

import lielocal.ell_local as ell_local
from lielocal.cyclotomic import cyclotomic, poly_eval
from lielocal.errors import InvariantError
from lielocal.ell_local import gl_sylow_structure, sylow_structure
from lielocal.generic_order import (
    evaluate_order,
    generic_order,
    gl_order,
    multiplicative_order,
    valuation,
)
from lielocal.root_datum import cached_datum, gl_rank, labels_of_rank
from lielocal.weyl import generate_weyl, gl_weyl

from groundtruth import sylow_gl2


def centralizer_levi(datum, d):
    """Levi data of the maximal zeta_d-eigenspace witness, as the Sylow
    report finds it."""
    return ell_local._levi_of_group(generate_weyl(datum), d)[1]


def gl_centralizer_levi(n, d):
    """centralizer_levi for GL_n (S_n acting on Z^n)."""
    return ell_local._levi_of_group(gl_weyl(n), d)[1]


# ---------------------------------------------------------------------------
# Levi data for specific eigenspaces


def test_levi_a2_full_torus_case():
    levi = centralizer_levi(cached_datum("A2"), 1)
    assert levi.eigenspace_dim == 2
    assert levi.witness_word == ()
    assert levi.root_subsystem == ()
    assert levi.w_L_order == 1
    assert len(levi.orthogonal_system) == 3
    assert levi.w_prime_order == 6


def test_levi_a2_coxeter_line_is_regular():
    levi = centralizer_levi(cached_datum("A2"), 3)
    assert levi.eigenspace_dim == 1
    assert levi.root_subsystem == ()
    assert levi.w_L_order == 1
    assert levi.orthogonal_system == ()
    assert levi.w_prime_order == 1


def test_levi_a2_reflection_line():
    # the d=2 eigenspace is the line spanned by the first simple root; the
    # only reflection stabilizing it is its own
    levi = centralizer_levi(cached_datum("A2"), 2)
    assert levi.eigenspace_dim == 1
    assert levi.root_subsystem == ()
    assert levi.orthogonal_system == ((2, -1),)
    assert levi.w_prime_order == 2


def test_levi_a1_line():
    levi = centralizer_levi(cached_datum("A1"), 2)
    assert levi.eigenspace_dim == 1
    assert levi.root_subsystem == ()
    assert levi.orthogonal_system == ((2,),)
    assert levi.w_prime_order == 2


def test_levi_b2():
    regular = centralizer_levi(cached_datum("B2"), 4)
    assert regular.eigenspace_dim == 1
    assert regular.root_subsystem == ()
    assert regular.w_prime_order == 1
    full = centralizer_levi(cached_datum("B2"), 2)
    assert full.eigenspace_dim == 2
    assert full.w_L_order == 1
    assert len(full.orthogonal_system) == 4
    assert full.w_prime_order == 8


def test_levi_b3_nontrivial_levi_roots():
    # rank-one Phi_4 torus inside B_3: its centralizer keeps one short root,
    # and nothing orthogonal stabilizes the eigenline
    levi = centralizer_levi(cached_datum("B3"), 4)
    assert levi.eigenspace_dim == 1
    assert len(levi.root_subsystem) == 1
    assert levi.w_L_order == 2
    assert levi.orthogonal_system == ()
    assert levi.w_prime_order == 1


def test_levi_twisted_su3():
    full = centralizer_levi(cached_datum("2A2"), 2)
    assert full.eigenspace_dim == 2
    assert full.root_subsystem == ()
    assert full.w_prime_order == 6
    line = centralizer_levi(cached_datum("2A2"), 6)
    assert line.eigenspace_dim == 1
    assert line.root_subsystem == ()
    assert line.w_prime_order == 1


def test_levi_missing_torus_rejected():
    with pytest.raises(ValueError, match="no Phi_4-torus"):
        centralizer_levi(cached_datum("A2"), 4)
    with pytest.raises(ValueError, match="no Phi_3-torus"):
        centralizer_levi(cached_datum("A1"), 3)
    with pytest.raises(ValueError):
        centralizer_levi(cached_datum("A2"), 0)


def test_levi_gl6_cycle_leaves_a_transposition():
    # the zeta_4-line of a 4-cycle in S_6 kills the root e_5 - e_6; nothing
    # orthogonal to it moves the line
    levi = gl_centralizer_levi(6, 4)
    assert levi.eigenspace_dim == 1
    assert levi.root_subsystem == ((0, 0, 0, 0, 1, -1),)
    assert levi.w_L_order == 2
    assert levi.orthogonal_system == ()
    assert levi.w_prime_order == 1


def test_levi_gl6_three_transpositions():
    levi = gl_centralizer_levi(6, 2)
    assert levi.eigenspace_dim == 3
    assert levi.root_subsystem == ()
    assert len(levi.orthogonal_system) == 3
    assert levi.w_prime_order == 8


def test_levi_eigenspace_dim_matches_order_exponent():
    for label in ["A1", "A2", "2A2", "B2", "G2", "A3", "B3", "3D4"]:
        factorization = generic_order(cached_datum(label))
        for d, a_d in factorization.exponents:
            levi = centralizer_levi(cached_datum(label), d)
            assert levi.eigenspace_dim == a_d


def _stabilizer_orthogonal_system(group, d):
    """The orthogonal system by direct linear algebra over Q(zeta_d): roots
    outside Phi_L that pair to zero with its coroots and whose reflection
    maps each eigenspace basis vector back into the eigenspace, moving at
    least one of them."""
    ctx = group.ctx
    witness, _ = group.max_phi_d_eigenspace(d)
    field, basis = cyclo_oracle.eigenspace_basis(group, witness, d)
    rows, pivots = cyclo_oracle.cyclo_rref(field, [list(v) for v in basis])
    levi = [k for k in range(ctx.N) if cyclo_oracle.vanishes_on(field, ctx.coroots[k], basis)]
    chosen = []
    for k, beta in enumerate(ctx.pos_roots):
        if k in levi or any(sum(a * b for a, b in zip(beta, ctx.coroots[j]))
                            for j in levi):
            continue
        images = [tuple(field.sub(x, field.scale(b, field.dot(ctx.coroots[k], v)))
                        for x, b in zip(v, beta))
                  for v in basis]
        stabilizes = all(not any(map(field.nonzero,
                                     cyclo_oracle.reduce_against(rows, pivots, im, field)))
                         for im in images)
        if stabilizes and any(im != tuple(v) for im, v in zip(images, basis)):
            chosen.append(beta)
    return tuple(chosen)


@pytest.mark.parametrize("label", labels_of_rank(4) + [f"GL{n}" for n in range(1, 7)])
def test_orthogonal_system_matches_stabilizer_oracle(label):
    n = gl_rank(label)
    if n is not None:
        group, factorization = gl_weyl(n), gl_order(n)
        levi_of = lambda d: gl_centralizer_levi(n, d)
    else:
        datum = cached_datum(label)
        group, factorization = generate_weyl(datum), generic_order(datum)
        levi_of = lambda d: centralizer_levi(datum, d)
    for d, _ in factorization.exponents:
        assert levi_of(d).orthogonal_system == _stabilizer_orthogonal_system(group, d), d


def test_orthogonal_root_pairing_with_a_levi_coroot_is_caught(monkeypatch):
    # A coroot that vanishes on the eigenspace pairs to zero with every root
    # lying in it, so the check can only trip when the Levi selection itself
    # is wrong.  A3 at d = 1 is the full torus: Phi_L is empty and all six
    # roots are orthogonal.  Treating alpha_1^vee as vanishing on the
    # eigenspace makes alpha_1 a Levi root that alpha_1 and its neighbours
    # pair with.
    datum = cached_datum("A3")
    levi = centralizer_levi(datum, 1)
    assert levi.root_subsystem == () and len(levi.orthogonal_system) == 6
    alpha_1_vee = generate_weyl(datum).ctx.coroots[0]
    real = ell_local.vanishes_on
    monkeypatch.setattr(ell_local, "vanishes_on",
                        lambda coroot, basis: coroot == alpha_1_vee or real(coroot, basis))
    with pytest.raises(InvariantError, match="pairs with a Levi coroot"):
        centralizer_levi(datum, 1)


# ---------------------------------------------------------------------------
# Sylow reports


def test_sylow_a1_q4_ell5():
    report = sylow_structure(cached_datum("A1"), 4, 5)
    assert report.d == 2
    assert report.nu == 1
    assert report.abelian is True
    assert report.outside_hypotheses is False
    assert report.levi is not None
    assert report.levi.w_prime_order == 2
    assert report.relative_weyl_order == 2


def test_sylow_trivial_when_ell_does_not_divide_order():
    # |SU_3(2)| = 216 has no 5-part
    report = sylow_structure(cached_datum("2A2"), 2, 5)
    assert report.nu == 0
    assert report.levi is None
    assert report.abelian is True
    assert report.relative_weyl_order == 1
    assert report.d == 4


def test_sylow_b3_cyclic():
    report = sylow_structure(cached_datum("B3"), 2, 5)
    assert report.d == 4
    assert report.nu == 1
    assert report.abelian is True
    assert report.levi.w_L_order == 2


def test_sylow_rejects_bad_input():
    with pytest.raises(ValueError, match="defining characteristic"):
        sylow_structure(cached_datum("A1"), 4, 2)
    with pytest.raises(ValueError):
        sylow_structure(cached_datum("A1"), 4, 6)
    with pytest.raises(ValueError):
        sylow_structure(cached_datum("A1"), 6, 5)


def test_sylow_small_primes_flagged_but_computed():
    report = sylow_structure(cached_datum("A1"), 3, 2)
    assert report.outside_hypotheses is True
    assert report.d == 1
    assert report.nu == 3
    # the Sylow 2-subgroup of SL_2(3) is quaternion of order 8
    assert report.abelian is False

    report = sylow_structure(cached_datum("A1"), 4, 3)
    assert report.outside_hypotheses is True
    assert report.nu == 1
    assert report.abelian is True

    # extraspecial Sylow 3-subgroup of SU_3(2), order 27
    report = sylow_structure(cached_datum("2A2"), 2, 3)
    assert report.outside_hypotheses is True
    assert report.d == 2
    assert report.nu == 3
    assert report.abelian is False


def test_sylow_gl_mode_examples():
    report = gl_sylow_structure(3, 2, 7)
    assert report.d == 3
    assert report.nu == 1
    assert report.abelian is True
    assert report.relative_weyl_order == 3
    assert report.levi.w_prime_order == 1

    # S_3 has order prime to 5, so d=1 Sylows of GL_3 are abelian
    report = gl_sylow_structure(3, 11, 5)
    assert report.d == 1
    assert report.abelian is True

    # S_5 has order divisible by 5: the wreath product is nonabelian
    report = gl_sylow_structure(5, 11, 5)
    assert report.d == 1
    assert report.abelian is False
    assert report.nu == valuation(evaluate_order(gl_order(5), 11), 5)


def test_sylow_gl6_pairing():
    report = gl_sylow_structure(6, 4, 5)
    assert report.d == 2
    assert report.levi.w_prime_order == 8
    assert report.relative_weyl_order == 48
    assert report.abelian is True


def test_sylow_gl2_bruteforce_agreement():
    for q in [2, 3, 4, 5, 7]:
        for ell in [2, 3, 5, 7]:
            if q % ell == 0:
                continue
            expected_order, expected_abelian = sylow_gl2(q, ell)
            report = gl_sylow_structure(2, q, ell)
            assert ell**report.nu == expected_order, (q, ell)
            assert report.abelian == expected_abelian, (q, ell)


def test_sylow_gl_small_rank_is_abelian():
    # n < d*ell forces an abelian (even homocyclic) Sylow subgroup
    for n in [2, 3, 4, 5]:
        for q in [2, 3, 4]:
            for ell in [5, 7, 11]:
                d = multiplicative_order(q, ell)
                if n < d * ell:
                    report = gl_sylow_structure(n, q, ell)
                    assert report.abelian is True, (n, q, ell)


def test_sylow_grid_consistency():
    labels = ["A1", "A2", "2A2", "B2", "G2", "A3", "B3", "C3", "3D4"]
    for label in labels:
        datum = cached_datum(label)
        factorization = generic_order(datum)
        for q in [2, 3, 4, 5]:
            for ell in [5, 7, 11, 13]:
                if q % ell == 0:
                    continue
                report = sylow_structure(datum, q, ell)
                assert report.nu == valuation(
                    evaluate_order(factorization, q), ell)
                assert report.d == multiplicative_order(q, ell)
                assert (report.levi is None) == (report.nu == 0)
                if report.levi is None:
                    continue
                a_d = factorization.exponent(report.d)
                assert report.levi.eigenspace_dim == a_d
                minimal = a_d * valuation(
                    poly_eval(list(cyclotomic(report.d)), q), ell)
                if report.nu == minimal and report.relative_weyl_order % ell:
                    assert report.abelian is True, (label, q, ell)


def test_abelian_cases_pass_reflection_check():
    cases = [
        ("A2", 2, 7),   # d = 3
        ("A1", 4, 5),   # d = 2
        ("B2", 2, 5),   # d = 4
        ("2A2", 3, 7),  # d = 6
    ]
    for label, q, ell in cases:
        report = sylow_structure(cached_datum(label), q, ell)
        assert report.abelian is True
        group = generate_weyl(cached_datum(label))
        witness, _ = group.max_phi_d_eigenspace(report.d)
        basis = group.eigenspace_basis(witness, report.d)
        centralizer = group.centralizer_of_twisted(witness)
        assert len(centralizer) == report.relative_weyl_order
        group._centralizer_reflection_check(
            witness, report.d, basis, centralizer)


def test_gl_reflection_check_on_abelian_case():
    report = gl_sylow_structure(3, 2, 7)
    group = gl_weyl(3)
    witness, _ = group.max_phi_d_eigenspace(report.d)
    basis = group.eigenspace_basis(witness, report.d)
    centralizer = group.centralizer_of_twisted(witness)
    group._centralizer_reflection_check(
        witness, report.d, basis, centralizer)


def test_sylow_report_serialization():
    report = sylow_structure(cached_datum("A2"), 4, 5)
    data = report.to_json()
    text = json.dumps(data, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["type"] == "A2"
    assert parsed["ell"] == 5
    assert parsed["q"] == "4"
    assert parsed["nu"] == str(report.nu)
    assert parsed["abelian"] == report.abelian
    assert parsed["levi"]["w_prime_order"] == str(report.levi.w_prime_order)
    assert all(isinstance(r, list) for r in parsed["levi"]["root_subsystem"])

    trivial = sylow_structure(cached_datum("2A2"), 2, 5)
    assert trivial.to_json()["levi"] is None
