"""Unit tests for the exact-arithmetic support modules."""

import math
import random
from fractions import Fraction

import field_oracle
import pytest
from bar_oracle import _family_solve, det, fraction_free_solve
from cyclo_oracle import CycloField
from field_oracle import GF, QQ, rref
from fock_oracle import quantum_factorial, quantum_integer
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from laurent_oracle import Laurent, poly_from_coeffs
from lie_oracle import laurent_from_json

from lielocal import defining_char, degeneration, fock_llt, linalg, weyl
from lielocal.cyclotomic import (
    cyclotomic,
    euler_phi,
    factor_into_cyclotomics,
    poly_eval,
    poly_exact_div,
    poly_mul,
)
from lielocal.errors import GuardExceeded, InvariantError
from lielocal.linalg import (
    add_scaled,
    add_term,
    closure,
    identity,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_vec,
    rank,
    smith_normal_form,
)
from lielocal.root_datum import cached_datum
from test_degeneration import CYCLE_ON_V4


_QI = CycloField(4)  # Q(i)
_QW = CycloField(3)

# case id -> (field, matrix, rank over that field)
ELIMINATION_CASES = {
    "Q": (QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]], 2),
    "GF2": (GF(2), [[2, 4], [1, 2]], 1),  # reduces to [[0,0],[1,0]]
    "GF5": (GF(5), [[2, 4], [1, 2]], 1),
    "GF3": (GF(3), [[1, 0], [0, 3]], 1),
    # [[1, i], [i, -1]] has rank 1 over Q(i)
    "Qzeta4": (_QI, [[_QI.one, _QI.zeta()], [_QI.zeta(), _QI.neg(_QI.one)]], 1),
    "Qzeta3-identity": (_QW, [[_QW.one if r == c else _QW.zero for c in range(3)]
                              for r in range(3)], 3),
}

_V = Laurent.variable()

# case id -> (mod, a, b, c, a + c*b as a sparse vector)
SPARSE_CASES = {
    "laurent": (None, {1: _V + 1, 2: Laurent(2)},
                {1: _V, 2: Laurent(1), 3: Laurent({-1: 1})}, -2,
                {1: 1 - _V, 3: Laurent({-1: -2})}),
    "mod3": (3, {(0,): 1, (1,): 2}, {(0,): 5, (1,): 2, (2,): 4}, 2,
             {(0,): 2, (2,): 2}),
}


# small random Laurent polynomials: up to four terms, exponents in [-4, 4]
_laurents = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5),
                            max_size=4).map(Laurent)


_PRIMES = (2, 5, 2**61 - 1)


@st.composite
def _low_rank_matrices(draw):
    """An integer matrix of at most 7 x 7 whose rank over Q is at most a
    drawn bound, as a product of two random factors."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    inner = draw(st.integers(0, min(rows, cols)))
    if inner == 0:
        return [[0] * cols for _ in range(rows)]
    entries = st.integers(-6, 6)
    left = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
    return mat_mul(left, right)


def _inverse_or_none(inverse, a, field):
    try:
        return inverse(a, field)
    except ValueError:
        return None


class TestLaurent:
    def test_ring_ops(self):
        v = Laurent.variable()
        p = v + 1
        q = v - 1
        assert p * q == v * v - 1
        assert (p + q) == 2 * v
        assert p - p == 0
        assert Laurent(0).is_zero()
        assert (v**3).coeff(3) == 1

    def test_random_ring_axioms(self):
        rng = random.Random(7)

        def rand_poly():
            return Laurent({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)})

        for _ in range(50):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a

    @settings(derandomize=True)
    @given(_laurents, _laurents, _laurents)
    def test_ring_axioms_property(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a * 1 == a and a + 0 == a and a - a == 0

    @settings(derandomize=True)
    @given(_laurents, _laurents)
    def test_bar_is_an_involutive_ring_map(self, a, b):
        assert a.bar().bar() == a
        assert (a + b).bar() == a.bar() + b.bar()
        assert (a * b).bar() == a.bar() * b.bar()
        assert Laurent(1).bar() == 1
        assert Laurent.variable().bar() == Laurent({-1: 1})

    @settings(derandomize=True)
    @given(_laurents, _laurents)
    def test_exact_div_round_trip(self, a, b):
        assume(b)
        assert (a * b).exact_div(b) == a

    @settings(derandomize=True)
    @given(_laurents, _laurents)
    def test_exact_div_rejects_a_non_multiple(self, a, b):
        # b divides a*b + 1 only when b is a unit, that is +-v^k
        terms = list(b.items())
        assume(terms and not (len(terms) == 1 and abs(terms[0][1]) == 1))
        with pytest.raises(ValueError):
            (a * b + 1).exact_div(b)

    def test_bar(self):
        p = Laurent({2: 3, -1: 5, 0: 7})
        assert p.bar() == Laurent({-2: 3, 1: 5, 0: 7})
        assert p.bar().bar() == p

    def test_eval(self):
        p = Laurent({2: 1, 0: -1})
        assert p(3) == 8
        assert p(Fraction(1, 2)) == Fraction(-3, 4)
        q = Laurent({-1: 1, 1: 1})
        assert q(2) == Fraction(5, 2)
        assert q.eval_mod(2, 7) == (4 + 2) % 7

    def test_exact_div(self):
        v = Laurent.variable()
        num = (v + 1) * (v**2 - v + 3)
        assert num.exact_div(v + 1) == v**2 - v + 3
        with pytest.raises(ValueError):
            (v + 2).exact_div(v + 1)
        shifted = num.shifted(-3)
        assert shifted.exact_div(v + 1) == (v**2 - v + 3).shifted(-3)

    def test_quantum_integers(self):
        v = Laurent.variable()
        assert quantum_integer(2) == v + v.shifted(-2)  # v + v^-1
        assert quantum_integer(3) == Laurent({2: 1, 0: 1, -2: 1})
        # [3]! = [3][2], bar-symmetric
        f3 = quantum_factorial(3)
        assert f3 == f3.bar()
        assert f3(1) == 6
        # quantum binomial [4]!/([2]![2]!) is a Laurent polynomial
        gauss = quantum_factorial(4).exact_div(quantum_factorial(2) * quantum_factorial(2))
        assert gauss(1) == 6

    def test_json_round_trip(self):
        p = Laurent({-2: 3, 5: -17})
        assert laurent_from_json(p.to_json()) == p

    def test_poly_from_coeffs(self):
        assert poly_from_coeffs([1, 0, 2]) == Laurent({0: 1, 2: 2})


class TestLinalg:
    def test_rank_and_kernel(self):
        a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert rank(a) == 2
        ker = kernel_basis(a)
        assert len(ker) == 1
        for v in ker:
            assert all(x == 0 for x in mat_vec(a, v))

    def test_det_and_inverse(self):
        a = [[2, 1], [1, 3]]
        assert det(a) == 5
        inv = field_oracle.mat_inverse(a)
        assert mat_mul(a, inv) == [[1, 0], [0, 1]]
        inv = mat_inverse(a, 7)
        assert [[x % 7 for x in row] for row in mat_mul(a, inv)] == [[1, 0], [0, 1]]
        assert det([[1, 2], [2, 4]]) == 0

    @pytest.mark.parametrize("case", list(ELIMINATION_CASES))
    def test_rank_and_kernel_over_field(self, case):
        field, a, expected = ELIMINATION_CASES[case]
        if field is QQ or isinstance(field, GF):
            assert rank(a, getattr(field, "p", None)) == expected
        assert field_oracle.rank(a, field) == expected
        assert len(rref(a, field)[1]) == expected
        ker = field_oracle.kernel_basis(a, field)
        assert len(ker) == len(a[0]) - expected
        for v in ker:
            for row in a:
                total = field.zero
                for x, y in zip(field.coerce(row), v):
                    total = field.sub_row([total], field.neg(x), [y])[0]  # += x * y
                assert not field.nonzero(total)

    def test_family_solve_rejects_a_singular_matrix(self):
        # the oracle's _bar_matrix catches this InvariantError and retries
        # with a larger t
        singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(InvariantError, match="singular"):
            _family_solve(singular, [[Fraction(1)], [Fraction(0)]])

    def test_inverse_mod_rejects_a_singular_matrix(self):
        assert mat_inverse([[0, 1], [1, 1]], 2) == [[1, 1], [1, 0]]
        with pytest.raises(ValueError):
            mat_inverse([[2, 4], [1, 2]], 5)

    @settings(derandomize=True, max_examples=300)
    @given(_low_rank_matrices())
    def test_elimination_matches_the_field_oracle(self, a):
        assert rank(a) == field_oracle.rank(a)
        for p in _PRIMES:
            assert rank(a, p) == field_oracle.rank(a, GF(p))
        ker = kernel_basis(a)
        oracle = field_oracle.kernel_basis(a)
        assert len(ker) == len(oracle)
        assert field_oracle.rank(ker + oracle) == len(oracle)
        for v in ker:
            assert not any(mat_vec(a, v)) and math.gcd(*v) == 1
        if len(a) == len(a[0]):
            for p in _PRIMES:
                assert _inverse_or_none(mat_inverse, a, p) == \
                    _inverse_or_none(field_oracle.mat_inverse, a, GF(p))

    @settings(derandomize=True, max_examples=300)
    @given(_low_rank_matrices())
    def test_pivot_rows_carry_the_last_pivot(self, a):
        # every Bareiss division is exact, so the reduced form is integral
        # and diagonal on the pivot columns, and on a nonsingular square
        # matrix the last pivot is the determinant up to sign
        m = [list(row) for row in a]
        pivots = linalg._eliminate(m, reduced=True)
        if pivots:
            last = m[len(pivots) - 1][pivots[-1]]
            for i, c in enumerate(pivots):
                assert [m[i][q] for q in pivots] == [last * (q == c) for q in pivots]
            if len(a) == len(a[0]) == len(pivots):
                assert abs(last) == abs(det(a))

    def test_kernel_basis_checks_its_rows(self, monkeypatch):
        real = linalg._eliminate

        def corrupt(m, *args, **kwargs):
            pivots = real(m, *args, **kwargs)
            m[0][-1] += 1
            return pivots

        monkeypatch.setattr(linalg, "_eliminate", corrupt)
        with pytest.raises(InvariantError, match="not in the kernel"):
            kernel_basis([[1, 2, 3], [2, 4, 6], [1, 0, 1]])

    @pytest.mark.parametrize("case", sorted(SPARSE_CASES))
    def test_sparse_vector_update(self, case):
        mod, a, b, c, expected = SPARSE_CASES[case]
        b_before = dict(b)
        out = dict(a)
        assert add_scaled(out, b, c, mod) is out
        assert out == expected
        assert b == b_before
        if mod is not None:
            assert all(0 < x < mod for x in out.values())
        by_term = dict(a)
        for key, x in b.items():
            add_term(by_term, key, c * x, mod)
        assert by_term == expected
        # cancellation drops every entry, so a zero vector is the empty dict
        assert add_scaled(dict(expected), expected, -1, mod) == {}
        key = next(iter(expected))
        add_term(by_term, key, -by_term[key], mod)
        assert key not in by_term

    def test_closure(self):
        def step(x, g):
            return (x + g) % 12

        assert closure((0,), (4,), step) == {0, 4, 8}
        assert closure((1,), (4, 6), step) == {1, 3, 5, 7, 9, 11}
        assert closure((0,), (), step) == {0}
        assert closure((0,), (4,), step, guard=3) == {0, 4, 8}
        with pytest.raises(GuardExceeded):
            closure((0,), (4,), step, guard=2)

    def test_smith_normal_form_random(self):
        rng = random.Random(11)
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            u, s, v = smith_normal_form(a)
            assert mat_mul(mat_mul(u, a), v) == s
            assert abs(det(u)) == 1
            assert abs(det(v)) == 1
            diag = [s[i][i] for i in range(min(m, n))]
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert s[i][j] == 0
            for x, y in zip(diag, diag[1:]):
                if y != 0:
                    assert x != 0 and y % x == 0
            assert all(x >= 0 for x in diag)

    def test_smith_known(self):
        # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6 as a chain -> diag 1,6? No:
        # SNF of diag(2,3) is diag(1,6).
        u, s, v = smith_normal_form([[2, 0], [0, 3]])
        assert [s[0][0], s[1][1]] == [1, 6]

    @settings(derandomize=True)
    @given(st.data())
    def test_fraction_free_solve_matches_rref(self, data):
        n = data.draw(st.integers(1, 5))
        width = data.draw(st.integers(0, 3))
        entries = st.integers(-50, 50)
        a = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=n, max_size=n))
        b = data.draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                               min_size=n, max_size=n))
        assume(_fraction_det(a) != 0)
        d, scaled = fraction_free_solve(a, b)
        assert d == _fraction_det(a)
        red, pivots = rref([row + r for row, r in zip(a, b)])
        assert pivots[:n] == list(range(n))
        assert [[Fraction(x, d) for x in row] for row in scaled] == \
            [row[n:] for row in red]

    @settings(derandomize=True)
    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_det_matches_a_fraction_determinant(self, a):
        # small entries make singular matrices common, so both branches run
        assert det(a) == _fraction_det(a)
        if det(a) == 0:
            assert fraction_free_solve(a, [[1]] * len(a)) == (0, None)

    def test_fraction_free_solve_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            fraction_free_solve([[1, 2]], [[1]])
        with pytest.raises(ValueError):
            fraction_free_solve([[1]], [[1], [2]])
        with pytest.raises(TypeError):
            det([[Fraction(1, 2)]])

    @settings(derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                           min_size=m, max_size=m))))
    def test_smith_normal_form_properties(self, a):
        u, s, v = smith_normal_form(a)
        m, n = len(a), len(a[0])
        assert mat_mul(mat_mul(u, a), v) == s
        assert abs(_fraction_det(u)) == 1
        assert abs(_fraction_det(v)) == 1
        assert all(s[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        diag = [s[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert (y == 0) if x == 0 else (y % x == 0)


def _fraction_det(a) -> Fraction:
    """Determinant by Gaussian elimination over Q, independent of linalg."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


class TestCyclotomic:
    def test_small_values(self):
        assert list(cyclotomic(1)) == [-1, 1]
        assert list(cyclotomic(2)) == [1, 1]
        assert list(cyclotomic(3)) == [1, 1, 1]
        assert list(cyclotomic(4)) == [1, 0, 1]
        assert list(cyclotomic(6)) == [1, -1, 1]
        assert list(cyclotomic(12)) == [1, 0, -1, 0, 1]

    def test_product_identity(self):
        # prod over e | d of Phi_e = x^d - 1
        for d in (1, 2, 6, 12, 30):
            prod = [1]
            for e in range(1, d + 1):
                if d % e == 0:
                    prod = poly_mul(prod, list(cyclotomic(e)))
            expected = [-1] + [0] * (d - 1) + [1]
            assert prod == expected

    def test_euler_phi(self):
        assert [euler_phi(d) for d in (1, 2, 3, 4, 6, 12, 30)] == [1, 1, 2, 2, 2, 4, 8]

    def test_factor_into_cyclotomics(self):
        # q^6 - 1 over candidates
        p = [-1, 0, 0, 0, 0, 0, 1]
        f = factor_into_cyclotomics(p, [1, 2, 3, 6])
        assert f == {1: 1, 2: 1, 3: 1, 6: 1}
        # (q^2-1)^2 (q^3-1)
        a = poly_mul(poly_mul([-1, 0, 1], [-1, 0, 1]), [-1, 0, 0, 1])
        f = factor_into_cyclotomics(a, [1, 2, 3])
        assert f == {1: 3, 2: 2, 3: 1}
        with pytest.raises(InvariantError):
            factor_into_cyclotomics([-1, 0, 0, 0, 0, 0, 1], [1, 2, 3])  # missing Phi_6
        with pytest.raises(InvariantError):
            factor_into_cyclotomics([2, 1], [1, 2])  # x+2 is not cyclotomic

    def test_poly_exact_div(self):
        assert poly_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
        assert poly_exact_div([1, 2, 1], [1, 1]) == [1, 1]
        assert poly_exact_div([1, 1, 1], [1, 1]) is None

    def test_poly_eval(self):
        assert poly_eval([1, 2, 3], 2) == 1 + 4 + 12


class TestCycloField:
    def test_field_axioms_d5(self):
        k = CycloField(5)
        z = k.zeta()
        # zeta^5 = 1, and 1 + z + z^2 + z^3 + z^4 = 0
        assert k.pow(z, 5) == k.one
        total = k.zero
        for i in range(5):
            total = k.add(total, k.pow(z, i))
        assert k.is_zero(total)

    def test_inverse_round_trip(self):
        rng = random.Random(3)
        for d in (3, 4, 5, 8, 12):
            k = CycloField(d)
            for _ in range(10):
                a = k.reduce([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(k.degree)])
                if k.is_zero(a):
                    continue
                assert k.mul(a, k.inv(a)) == k.one

    def test_zeta_is_primitive(self):
        for d in (2, 3, 4, 6, 12):
            k = CycloField(d)
            z = k.zeta()
            for e in range(1, d):
                assert k.pow(z, e) != k.one
            assert k.pow(z, d) == k.one


def _lowered_guard_calls():
    cyc = degeneration.AbelianLGroup(ell=2, factors=((1, 2),),
                                     e_generators=(CYCLE_ON_V4,))
    cases = [
        (weyl, "WEYL_GUARD", 10,
         lambda: weyl.WeylGroup(weyl.context_from_datum(cached_datum("A3")))),
        (defining_char, "WEIGHT_GUARD", 8,
         lambda: defining_char.block_partition(cached_datum("A2"), 3)),
        (fock_llt, "LLT_GUARD", 5, lambda: fock_llt.llt_canonical_basis(6, 2)),
        (degeneration, "DEGEN_GUARD", 2, cyc.automorphism_group),
    ]
    return [pytest.param(*case, id=case[1]) for case in cases]


@pytest.mark.parametrize("module, name, value, call", _lowered_guard_calls())
def test_lowered_guard_constant_is_read_at_call_time(monkeypatch, module, name,
                                                     value, call):
    """Each guard is a module constant that its functions read when called,
    so lowering it makes a call that fits the default refuse."""
    call()  # fits the default guard
    monkeypatch.setattr(module, name, value)
    with pytest.raises(GuardExceeded):
        call()
