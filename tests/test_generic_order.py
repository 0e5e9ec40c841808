"""Generic order polynomials: cyclotomic exponents, evaluation, ell-parts."""

import pytest

from groundtruth import (
    order_sl2_bruteforce,
    order_sl3_counted,
    order_sp4_counted,
    order_su3_counted,
)
from lie_oracle import factorization_from_json

from lielocal.cyclotomic import cyclotomic, poly_eval
from lielocal.errors import InvariantError
from lielocal.generic_order import (
    ell_part,
    evaluate_order,
    factor_pairs_for,
    generic_order,
    gl_order,
    is_prime,
    multiplicative_order,
    prime_divisors,
    prime_power_base,
    valuation,
)
from lielocal.root_datum import ALL_LABELS, cached_datum
from lielocal.weyl import generate_weyl


def expo(label):
    return dict(generic_order(cached_datum(label)).exponents)


def test_exponent_tables_small_types():
    assert expo("A1") == {1: 1, 2: 1}
    assert expo("A2") == {1: 2, 2: 1, 3: 1}
    assert expo("2A2") == {1: 1, 2: 2, 6: 1}
    assert expo("B2") == {1: 2, 2: 2, 4: 1}
    assert expo("C2") == expo("B2")
    assert expo("G2") == {1: 2, 2: 2, 3: 1, 6: 1}
    assert expo("3D4") == {1: 2, 2: 2, 3: 2, 6: 2, 12: 1}
    assert expo("2E6") == {1: 4, 2: 6, 3: 2, 4: 2, 6: 3, 8: 1, 10: 1, 12: 1, 18: 1}


def test_split_exponent_at_1_is_rank():
    for label in ("A1", "A3", "B3", "C4", "D4", "F4", "E6", "E8"):
        datum = cached_datum(label)
        assert expo(label)[1] == datum.rank


def test_degree_sum_invariant_all_labels():
    for label in ALL_LABELS:
        datum = cached_datum(label)
        pairs = factor_pairs_for(label)
        assert sum(d for d, _ in pairs) == datum.N + datum.rank
        f = generic_order(datum)
        # total cyclotomic degree matches too
        total = sum(a * len(cyclotomic(d)) - a for d, a in f.exponents)
        assert total == datum.N + datum.rank


@pytest.mark.parametrize("label", sorted(ALL_LABELS))
@pytest.mark.parametrize("q", [2, 3])
def test_factorization_equals_direct_product(label, q):
    """q^N * prod Phi_d(q)^a == q^N * prod (q^d - eps) computed with plain
    integers, for every supported type."""
    datum = cached_datum(label)
    f = generic_order(datum)
    direct = q**datum.N
    pending = {}
    for d, (order, exp) in f.factor_pairs:
        if order == 1:
            direct *= q**d - 1
        elif order == 2:
            direct *= q**d + 1
        else:
            pending[d] = pending.get(d, 0) + 1
            if pending[d] == 2:
                direct *= q**(2 * d) + q**d + 1
                pending[d] = 0
    assert all(v == 0 for v in pending.values())
    assert evaluate_order(f, q) == direct


def test_known_orders_against_matrix_counts():
    a1 = generic_order(cached_datum("A1"))
    for q in (2, 3, 4, 5):
        assert evaluate_order(a1, q) == order_sl2_bruteforce(q)
    a2 = generic_order(cached_datum("A2"))
    for q in (2, 3):
        assert evaluate_order(a2, q) == order_sl3_counted(q)
    c2 = generic_order(cached_datum("C2"))
    for q in (2, 3):
        assert evaluate_order(c2, q) == order_sp4_counted(q)
    su = generic_order(cached_datum("2A2"))
    for q in (2, 3):
        assert evaluate_order(su, q) == order_su3_counted(q)


def test_triality_form_order_at_2():
    f = generic_order(cached_datum("3D4"))
    assert evaluate_order(f, 2) == 211341312


def test_gl_mode_exponents():
    assert dict(gl_order(4).exponents) == {1: 4, 2: 2, 3: 1, 4: 1}
    assert dict(gl_order(6).exponents) == {1: 6, 2: 3, 3: 2, 4: 1, 5: 1, 6: 1}
    for n in range(1, 9):
        exps = dict(gl_order(n).exponents)
        assert exps == {d: n // d for d in range(1, n + 1) if n // d > 0}
    assert dict(gl_order(4, unitary=True).exponents) == {1: 2, 2: 4, 4: 1, 6: 1}
    assert dict(gl_order(3, unitary=True).exponents) == {1: 1, 2: 3, 6: 1}


def test_gl_mode_values():
    assert evaluate_order(gl_order(2), 7) == 2016
    assert evaluate_order(gl_order(3), 2) == 168  # GL_3(2) = SL_3(2)
    gu3 = gl_order(3, unitary=True)
    for q in (2, 3):
        assert evaluate_order(gu3, q) == (q + 1) * order_su3_counted(q)


def test_eigenspace_dimensions_match_exponents():
    for label in ("A1", "A2", "B2", "G2", "2A2", "A3"):
        group = generate_weyl(cached_datum(label))
        exps = dict(generic_order(cached_datum(label)).exponents)
        for d in range(1, 13):
            _, dim = group.max_phi_d_eigenspace(d)
            assert dim == exps.get(d, 0), (label, d)


def test_evaluate_order_rejects_bad_q():
    f = generic_order(cached_datum("A1"))
    for q in (0, 1, 6, 10, 12, -4):
        with pytest.raises(ValueError):
            evaluate_order(f, q)
    assert evaluate_order(f, 8) == 8 * (8 * 8 - 1)
    assert evaluate_order(f, 9) == 9 * 80
    assert evaluate_order(f, 49) == 49 * (49 * 49 - 1)


def _trial_division_is_prime(m):
    return m >= 2 and all(m % k for k in range(2, int(m**0.5) + 1))


def test_prime_helpers():
    assert [m for m in range(2, 20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert all(is_prime(m) == _trial_division_is_prime(m) for m in range(20000))
    for p in (10**9 + 7, 10**12 + 39, 10**18 + 3):
        assert is_prime(p)
    # Carmichael numbers and a strong pseudoprime to bases 2, 3, 5 and 7
    for m in (561, 41041, 3215031751):
        assert not is_prime(m)
    with pytest.raises(ValueError, match="too large"):
        is_prime(3317044064679887385961981)
    assert prime_power_base(8) == 2
    assert prime_power_base(9) == 3
    assert prime_power_base(49) == 7
    assert prime_power_base(6) is None
    assert prime_power_base(1) is None
    assert prime_power_base(2**100) == 2
    assert prime_power_base(6**50) is None
    assert prime_power_base((10**9 + 7) ** 3) == 10**9 + 7
    assert valuation(216, 3) == 3
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(4, 3) == 1
    assert multiplicative_order(5, 3) == 2


def _linear_order(q, ell):
    d, power = 1, q % ell
    while power != 1:
        power = power * q % ell
        d += 1
    return d


def test_multiplicative_order_matches_linear_loop():
    for ell in range(2, 3000):
        if is_prime(ell):
            for q in range(2, 17):
                if q % ell:
                    assert multiplicative_order(q, ell) == _linear_order(q, ell), (q, ell)
    with pytest.raises(ValueError, match="not prime"):
        multiplicative_order(2, 15)
    with pytest.raises(ValueError, match="not invertible"):
        multiplicative_order(14, 7)


def test_prime_divisors():
    assert prime_divisors(1) == set()
    assert prime_divisors(2**64) == {2}
    assert prime_divisors(997 * 991 * 1009**2) == {991, 997, 1009}
    p, q = 1073741789, 1073741827  # the primes on either side of 2^30
    assert prime_divisors(2 * p * q) == {2, p, q}
    assert prime_divisors(p**2) == {p}


def test_ell_part_values():
    a1 = generic_order(cached_datum("A1"))
    assert ell_part(a1, 5, 3) == (2, 1)  # |SL_2(5)| = 120
    assert ell_part(a1, 4, 5) == (2, 1)  # |SL_2(4)| = 60
    a2 = generic_order(cached_datum("A2"))
    assert ell_part(a2, 2, 7) == (3, 1)  # 168 = 2^3 * 3 * 7
    assert ell_part(a2, 2, 3) == (2, 1)
    su = generic_order(cached_datum("2A2"))
    assert ell_part(su, 2, 3) == (2, 3)  # 216 = 2^3 * 3^3
    gl3 = gl_order(3)
    assert ell_part(gl3, 4, 3) == (1, 4)  # |GL_3(4)| has 3-part 81
    assert ell_part(gl3, 2, 5) == (4, 0)  # Phi_4 does not divide |GL_3|


def test_ell_part_rejects_bad_input():
    f = generic_order(cached_datum("A1"))
    with pytest.raises(ValueError):
        ell_part(f, 4, 4)
    with pytest.raises(ValueError):
        ell_part(f, 4, 1)
    with pytest.raises(ValueError, match="defining characteristic"):
        ell_part(f, 4, 2)
    with pytest.raises(ValueError, match="defining characteristic"):
        ell_part(f, 9, 3)
    with pytest.raises(ValueError):
        ell_part(f, 6, 5)


def test_ell_valuations_agree_with_integer_orders():
    for label in ("A2", "B2", "G2", "2A2", "3D4"):
        f = generic_order(cached_datum(label))
        for q in (2, 3, 4, 5):
            n = evaluate_order(f, q)
            for ell in (3, 5, 7, 11, 13):
                if q % ell == 0:
                    continue
                _, nu = ell_part(f, q, ell)
                assert nu == valuation(n, ell)


def test_unsupported_labels_rejected():
    with pytest.raises(ValueError):
        factor_pairs_for("2B2")
    with pytest.raises(ValueError):
        factor_pairs_for("H3")
    with pytest.raises(ValueError):
        gl_order(0)


def test_json_round_trip():
    f = generic_order(cached_datum("2A2"))
    data = f.to_json()
    assert data["qpower"] == "3"
    assert data["exponents"] == {"1": "1", "2": "2", "6": "1"}
    assert factorization_from_json(data) == f


def test_cyclotomic_values_positive_at_prime_powers():
    for label in ("E7", "E8", "2E6"):
        f = generic_order(cached_datum(label))
        for q in (2, 3):
            for d, a in f.exponents:
                value = poly_eval(list(cyclotomic(d)), q)
                assert value > 1 if d > 1 else value > 0
                assert a >= 0
