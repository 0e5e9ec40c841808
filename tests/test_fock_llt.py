"""Fock space combinatorics and the canonical basis matrices."""

import itertools
from fractions import Fraction

import bar_oracle
import fock_oracle
import pytest
from bar_oracle import _BAR_CHECK_POINTS, numeric_bar_check
from field_oracle import rref
from fock_oracle import laurent_vector
from hypothesis import given, settings
from hypothesis import strategies as st
from laurent_oracle import Laurent

from lielocal import fock_llt
from lielocal.errors import GuardExceeded, InvariantError
from lielocal.fock_llt import (
    FockMatrix,
    bar_invariant_family,
    d_core,
    d_core_and_quotient,
    is_d_regular,
    ladder_sequence,
    llt_canonical_basis,
    partitions,
    regular_singular_split,
    ribbon_strip_spin,
    shape_check,
    verify_bar_invariance,
)
from lielocal.linalg import add_scaled

V = Laurent.variable()
ONE = Laurent(1)
ZERO = Laurent(0)
EMPTY = {((), 0): 1}


def _f(i, d):
    """f_i|p> as the package's coefficient map, looked up at each call so
    that a patched ``fock_llt._f_terms`` is the one applied."""
    return lambda p: fock_llt._f_terms(p, i, d)


def f_once(i, vec, d):
    """f_i, through the package's operator application."""
    return fock_llt._act(vec, _f(i, d))


def f_action(i, k, vec, d):
    """The divided power f_i^(k), through the package's division by [k]!."""
    return fock_llt._divided_power(vec, k, _f(i, d))


def boson_strip(k, vec, d):
    """V_k, through the package's operator application."""
    return fock_llt._act(vec, lambda p: fock_llt._strip_terms(p, k, d))


def ladder_monomial(kappa, d):
    """A(kappa), the package's ladder product of divided powers."""
    return fock_llt._ladder_monomial(kappa, d, lambda p, i: fock_llt._f_terms(p, i, d))


def _basis_vector(p):
    """|p> as a coefficient map."""
    return {(p, 0): 1}


def _entry(f):
    """A Laurent polynomial as a FockMatrix entry."""
    return tuple(f.items())


def _matrix_entry(m, row_label, col_label):
    """The coefficient of |col_label> in G(row_label)."""
    return m.entries[m.labels.index(row_label)][m.labels.index(col_label)]


def _laurent(entry):
    """A FockMatrix entry as a Laurent polynomial."""
    return Laurent(dict(entry))


def _laurent_family(family):
    """A family of coefficient maps in the partition -> Laurent form that
    the numeric oracles read."""
    return {p: laurent_vector(vec) for p, vec in family.items()}


def _partition_count(n: int) -> int:
    """Euler's pentagonal recurrence, independent of the generator."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]


def _dominates(a, b):
    """a >= b in the dominance order (both partitions of the same n)."""
    pa = list(itertools.accumulate(a))
    pb = list(itertools.accumulate(b))
    while len(pa) < len(pb):
        pa.append(pa[-1])
    while len(pb) < len(pa):
        pb.append(pb[-1])
    return all(x >= y for x, y in zip(pa, pb))


def _cells(p):
    return {(r, c) for r, row in enumerate(p) for c in range(row)}


def _border_strip_targets(p, m):
    """mu containing p with mu/p a single border strip of m boxes, with the
    strip's row count; by direct geometry (connected skew, no 2x2 square)."""
    out = []
    base = _cells(p)
    for mu in partitions(sum(p) + m):
        cells = _cells(mu) - base
        if len(cells) != m or not (_cells(mu) >= base):
            continue
        # connectivity by edge adjacency
        todo = [next(iter(cells))]
        seen = {todo[0]}
        while todo:
            r, c = todo.pop()
            for nxt in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        if seen != cells:
            continue
        if any((r, c) in cells and (r + 1, c) in cells and (r, c + 1) in cells
               and (r + 1, c + 1) in cells for (r, c) in cells):
            continue
        rows = len({r for r, _ in cells})
        out.append((mu, rows))
    return out


def _power_sum_multiply(coeffs: dict, m: int) -> dict:
    """Multiply an integer combination of Schur functions by p_m, via the
    classical border-strip rule."""
    out: dict = {}
    for p, c in coeffs.items():
        for mu, rows in _border_strip_targets(p, m):
            sign = -1 if (rows - 1) % 2 else 1
            out[mu] = out.get(mu, 0) + sign * c
    return {p: c for p, c in out.items() if c}


def _at_one(vec) -> dict:
    """A coefficient map at v = 1, as partition -> int."""
    out: dict = {}
    for (p, _), c in vec.items():
        out[p] = out.get(p, 0) + c
    return {p: c for p, c in out.items() if c}


class TestPartitions:
    def test_order_and_count(self):
        assert partitions(4) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
        for n in range(13):
            assert len(partitions(n)) == _partition_count(n)

    def test_order_refines_dominance(self):
        for n in range(2, 9):
            labels = partitions(n)
            for i, a in enumerate(labels):
                for b in labels[i + 1:]:
                    assert not _dominates(a, b)

    def test_regular_singular_split(self):
        kappa, nu = regular_singular_split((2, 2, 2, 1), 3)
        assert kappa == (1,) and nu == (2,)
        kappa, nu = regular_singular_split((3, 1, 1), 2)
        assert kappa == (3,) and nu == (1,)
        for n in range(1, 9):
            for d in (2, 3):
                for p in partitions(n):
                    kappa, nu = regular_singular_split(p, d)
                    assert is_d_regular(kappa, d)
                    assert sum(kappa) + d * sum(nu) == n


class TestCoresAndRibbons:
    def test_known_cores(self):
        assert d_core((2, 2), 2) == ()
        assert d_core((2, 1), 2) == (2, 1)
        assert d_core((3, 1), 3) == (3, 1)
        assert d_core((4,), 2) == ()

    def test_core_quotient_sizes(self):
        for n in range(9):
            for d in (2, 3, 4):
                for p in partitions(n):
                    core, quotient = d_core_and_quotient(p, d)
                    assert sum(core) + d * sum(sum(q) for q in quotient) == n
                    assert d_core(core, d) == core

    def test_core_of_a_partition_smaller_than_d(self):
        for n in range(7):
            for p in partitions(n):
                for d in range(n + 1, n + 4):
                    assert d_core(p, d) == p == d_core_and_quotient(p, d)[0]
        # no O(d) abacus: this would exhaust memory if one were built
        assert d_core((5, 3, 1), 10**15) == (5, 3, 1)

    def test_spin_examples(self):
        assert ribbon_strip_spin((4,), (), 2) == 0
        assert ribbon_strip_spin((3, 1), (), 2) == 1
        assert ribbon_strip_spin((2, 2), (), 2) == 2
        assert ribbon_strip_spin((2, 1, 1), (2,), 2) == 1
        assert ribbon_strip_spin((3,), (), 3) == 0
        assert ribbon_strip_spin((1, 1, 1), (), 3) == 2

    def test_spin_rejects_untileable(self):
        with pytest.raises(InvariantError):
            ribbon_strip_spin((2, 1), (), 2)
        with pytest.raises(InvariantError):
            ribbon_strip_spin((2, 2), (1, 1, 1), 2)

    def test_spin_matches_the_peeling_oracle(self, monkeypatch):
        # every spin bar_invariant_family asks for, for n <= 9 and d in 2..4;
        # each family lists the strips of one (partition, k) once
        calls = []
        monkeypatch.setattr(fock_llt, "ribbon_strip_spin",
                            lambda *args: calls.append(args) or ribbon_strip_spin(*args))
        for n in range(10):
            for d in (2, 3, 4):
                bar_invariant_family(n, d)
        monkeypatch.undo()
        assert len(calls) == 736 and len(set(calls)) == 574
        for outer, inner, d in set(calls):
            assert ribbon_strip_spin(outer, inner, d) == _peeled_spin(outer, inner, d)

    def test_spin_rejections_match_the_peeling_oracle(self):
        for d in (2, 3):
            for n in range(7):
                for outer in partitions(n):
                    for k in range(n + 1):
                        for inner in partitions(k):
                            try:
                                want = _peeled_spin(outer, inner, d)
                            except InvariantError:
                                with pytest.raises(InvariantError, match="not tileable"):
                                    ribbon_strip_spin(outer, inner, d)
                            else:
                                assert ribbon_strip_spin(outer, inner, d) == want


def _peeled_spin(outer, inner, d):
    """The earlier ribbon_strip_spin, kept as an oracle: list every
    removable d-ribbon by decreasing head, each as a whole partition at a
    slot count fitted to it, and peel the first that stays above inner."""

    def removals(p):
        slots = fock_llt._slots_for(max(sum(p), 1), d)
        beta = set(fock_llt._beta_set(p, slots))
        for b in sorted(beta, reverse=True):
            if b - d >= 0 and (b - d) not in beta:
                jumped = sum(1 for c in beta if b - d < c < b)
                yield fock_llt._partition_from_beta(sorted(beta - {b} | {b - d})), jumped

    total, current = 0, outer
    while current != inner:
        for smaller, jumped in removals(current):
            if all(a >= b for a, b in itertools.zip_longest(smaller, inner, fillvalue=0)):
                total, current = total + jumped, smaller
                break
        else:
            raise InvariantError(f"skew {outer}/{inner} is not tileable by {d}-ribbons")
    return total


class TestOperators:
    def test_f_single_box(self):
        assert f_action(0, 1, EMPTY, 2) == {((1,), 0): 1}
        out = f_action(1, 1, _basis_vector((1,)), 2)
        assert out == {((2,), 0): 1, ((1, 1), 1): 1}

    def test_f_divided_power(self):
        out = f_action(1, 2, _basis_vector((1,)), 2)
        assert out == {((2, 1), 0): 1}

    def test_f_zeroth_divided_power_is_the_identity(self):
        seed = {((2, 1), 1): 2, ((3,), -1): -1}
        for d in (2, 3):
            assert f_action(0, 0, seed, d) == seed
            assert fock_oracle.f_action(0, 0, laurent_vector(seed), d) == \
                laurent_vector(seed)

    def test_non_integral_divided_power_raises(self, monkeypatch):
        # f_i that also keeps |p>: (f_i + 1)^2 |p> has coefficient 1 at |p>,
        # which [2]! does not divide, in f_action and in the whole basis
        f_terms = fock_llt._f_terms
        monkeypatch.setattr(fock_llt, "_f_terms",
                            lambda p, i, d: {**f_terms(p, i, d), (p, 0): 1})
        with pytest.raises(InvariantError, match="divided power is not integral"):
            f_action(1, 2, _basis_vector((1,)), 2)
        fock_llt._cached_basis.cache_clear()
        with pytest.raises(InvariantError, match="divided power is not integral"):
            llt_canonical_basis(3, 2)
        fock_llt._cached_basis.cache_clear()

    def test_boson_examples(self):
        out = laurent_vector(boson_strip(1, EMPTY, 2))
        assert out == {(2,): ONE, (1, 1): -V.shifted(-2)}
        out = laurent_vector(boson_strip(2, EMPTY, 2))
        assert out == {(4,): ONE, (3, 1): -V.shifted(-2),
                       (2, 2): V.shifted(-3)}
        out = laurent_vector(boson_strip(1, EMPTY, 3))
        assert out == {(3,): ONE, (2, 1): -V.shifted(-2),
                       (1, 1, 1): V.shifted(-3)}

    def test_boson_single_ribbon_matches_border_strip_rule(self):
        for d in (2, 3):
            for n in range(5):
                for p in partitions(n):
                    vec = laurent_vector(boson_strip(1, _basis_vector(p), d))
                    expected = {}
                    for mu, rows in _border_strip_targets(p, d):
                        coeff = (-V.shifted(-2)) ** (rows - 1)
                        expected[mu] = coeff
                    assert vec == expected

    def test_boson_newton_identity_at_one(self):
        # k * h_k = sum_i p_i h_{k-i}, transported through the p_d plethysm
        for d in (2, 3):
            for p in [(), (1,), (2, 1), (1, 1)]:
                for k in (1, 2, 3):
                    lhs = {q: k * c for q, c in
                           _at_one(boson_strip(k, _basis_vector(p), d)).items()}
                    rhs: dict = {}
                    for i in range(1, k + 1):
                        if i == k:
                            partial = _at_one(_basis_vector(p))
                        else:
                            partial = _at_one(boson_strip(k - i, _basis_vector(p), d))
                        term = _power_sum_multiply(partial, i * d)
                        for q, c in term.items():
                            rhs[q] = rhs.get(q, 0) + c
                    rhs = {q: c for q, c in rhs.items() if c}
                    assert lhs == rhs, (d, p, k)

    def test_commutators_vanish(self):
        seeds = [EMPTY, _basis_vector((1,)), _basis_vector((2, 1)),
                 _basis_vector((2, 2)), {((3, 1), 1): 1}]
        for d in (2, 3):
            for i in range(d):
                for k in (1, 2):
                    for seed in seeds:
                        a = f_once(i, boson_strip(k, seed, d), d)
                        b = boson_strip(k, f_once(i, seed, d), d)
                        assert add_scaled(dict(a), b, -1) == {}
        for d in (2, 3):
            for j, k in ((1, 2), (2, 3)):
                for seed in seeds[:3]:
                    a = boson_strip(j, boson_strip(k, seed, d), d)
                    b = boson_strip(k, boson_strip(j, seed, d), d)
                    assert add_scaled(dict(a), b, -1) == {}

    def test_ladder_sequence(self):
        assert ladder_sequence((2,), 2) == [(0, 1), (1, 1)]
        assert ladder_sequence((2, 1), 2) == [(0, 1), (1, 2)]
        assert ladder_sequence((3, 1), 3) == [(0, 1), (2, 1), (1, 1), (2, 1)]

    def test_ladder_monomials(self):
        assert laurent_vector(ladder_monomial((2,), 2)) == {(2,): ONE, (1, 1): V}
        assert ladder_monomial((2, 1), 2) == {((2, 1), 0): 1}
        with pytest.raises(InvariantError):
            ladder_monomial((1, 1), 2)

    def test_family_members_contain_their_label(self):
        for n in range(7):
            for d in (2, 3):
                family = bar_invariant_family(n, d)
                for p, vec in family.items():
                    assert any(mu == p for mu, _ in vec), (n, d, p)


class TestCanonicalBasis:
    def test_two_boxes(self):
        m = llt_canonical_basis(2, 2)
        assert m.labels == ((1, 1), (2,))
        assert m.entries == ((((0, 1),), ()), (((1, 1),), ((0, 1),)))

    def test_three_boxes_d3(self):
        m = llt_canonical_basis(3, 3)
        assert _matrix_entry(m, (2, 1), (1, 1, 1)) == _entry(V)
        assert _matrix_entry(m, (3,), (2, 1)) == _entry(V)
        assert _matrix_entry(m, (3,), (1, 1, 1)) == _entry(ZERO)

    def test_four_boxes_d2(self):
        m = llt_canonical_basis(4, 2)
        rows = {lab: {mu: _laurent(e) for mu, e in zip(m.labels, row) if e}
                for lab, row in zip(m.labels, m.entries)}
        assert rows[(4,)] == {(4,): ONE, (3, 1): V, (2, 1, 1): V,
                              (1, 1, 1, 1): V * V}
        assert rows[(3, 1)] == {(3, 1): ONE, (2, 2): V, (2, 1, 1): V * V}
        assert rows[(2, 2)] == {(2, 2): ONE, (2, 1, 1): V}
        assert rows[(2, 1, 1)] == {(2, 1, 1): ONE, (1, 1, 1, 1): V}
        assert rows[(1, 1, 1, 1)] == {(1, 1, 1, 1): ONE}

    def test_identity_when_d_exceeds_n(self):
        for n in range(1, 7):
            m = llt_canonical_basis(n, n + 1)
            for r in range(len(m.labels)):
                for c in range(len(m.labels)):
                    assert m.entries[r][c] == _entry(ONE if r == c else ZERO)

    def test_shape_small_grid(self):
        for n in range(9):
            for d in (2, 3, 4):
                shape_check(llt_canonical_basis(n, d))

    def test_shape_n_nine_ten(self):
        for n in (9, 10):
            for d in (2, 3, 4):
                shape_check(llt_canonical_basis(n, d))

    def test_core_refinement(self):
        for n in range(2, 9):
            for d in (2, 3):
                m = llt_canonical_basis(n, d)
                for r, lab in enumerate(m.labels):
                    for c, mu in enumerate(m.labels):
                        if m.entries[r][c] and r != c:
                            assert d_core(lab, d) == d_core(mu, d), (n, d, lab, mu)

    def test_column_count(self):
        for n in (5, 6, 7):
            m = llt_canonical_basis(n, 2)
            assert len(m.labels) == _partition_count(n)
            assert all(len(row) == len(m.labels) for row in m.entries)

    def test_bar_check_rejects_tampering(self):
        m = llt_canonical_basis(4, 2)
        rows = [list(row) for row in m.entries]
        rows[3][1] = _entry(_laurent(rows[3][1]) + V)  # corrupt one coefficient
        bad = FockMatrix(n=4, d=2, labels=m.labels,
                         entries=tuple(tuple(r) for r in rows))
        with pytest.raises(InvariantError):
            verify_bar_invariance(bad)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            llt_canonical_basis(13, 2)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            llt_canonical_basis(3, 1)
        with pytest.raises(ValueError):
            llt_canonical_basis(-1, 2)


def _whole_matrix_bar_check(matrix, family):
    """Independent oracle for verify_bar_invariance: the same identity at the
    same points, over the whole matrix at once in Fraction arithmetic.

    Solve M(1/t)^T X = G(1/t)^T for the family coefficients of every G at
    v = 1/t, re-expand them against the family at v = t, and compare with
    G(t) entry by entry."""
    labels = matrix.labels
    size = len(labels)

    def family_rows(x):
        return [[family[a].get(p, ZERO)(x) for p in labels] for a in labels]

    for t in _BAR_CHECK_POINTS:
        m_at_inv = [list(col) for col in zip(*family_rows(1 / t))]
        a_at_t = family_rows(t)
        g_at_inv = [[_laurent(matrix.entries[c][r])(1 / t) for c in range(size)]
                    for r in range(size)]
        red, pivots = rref([row + r for row, r in zip(m_at_inv, g_at_inv)])
        if pivots[:size] != list(range(size)):
            raise InvariantError("family matrix is singular at a check point")
        coeffs = [row[size:] for row in red]
        for lam in range(size):
            for mu in range(size):
                total = sum((a_at_t[j][mu] * coeffs[j][lam] for j in range(size)),
                            Fraction(0))
                if total != _laurent(matrix.entries[lam][mu])(t):
                    raise InvariantError(f"G({labels[lam]}) is not bar-invariant")


def _with_entry_added(matrix, row_label, col_label, extra):
    rows = [list(row) for row in matrix.entries]
    r = matrix.labels.index(row_label)
    c = matrix.labels.index(col_label)
    rows[r][c] = _entry(_laurent(rows[r][c]) + extra)
    return FockMatrix(n=matrix.n, d=matrix.d, labels=matrix.labels,
                      entries=tuple(tuple(row) for row in rows))


def _block_sizes(matrix):
    """The sizes of the d-core blocks of a FockMatrix, sorted."""
    blocks = {}
    for p in matrix.labels:
        core = d_core(p, matrix.d)
        blocks[core] = blocks.get(core, 0) + 1
    return sorted(blocks.values())


class TestBarVerification:
    """verify_bar_invariance against two numeric oracles: the eight-point
    check by blocks, and the whole-matrix Fraction check."""

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_both_accept_every_small_basis(self, d):
        for n in range(8):
            matrix = llt_canonical_basis(n, d)
            family = bar_invariant_family(n, d)
            verify_bar_invariance(matrix, family)
            numeric_bar_check(matrix, _laurent_family(family))
            _whole_matrix_bar_check(matrix, _laurent_family(family))

    def _both_reject(self, matrix, family):
        with pytest.raises(InvariantError):
            verify_bar_invariance(matrix, family)
        with pytest.raises(InvariantError):
            numeric_bar_check(matrix, _laurent_family(family))
        with pytest.raises(InvariantError):
            _whole_matrix_bar_check(matrix, _laurent_family(family))

    def test_both_reject_tampering_away_from_the_empty_core(self):
        # n = 7, d = 3 has blocks of 3-core (1,), (3, 1) and (2, 1, 1)
        matrix = llt_canonical_basis(7, 3)
        family = bar_invariant_family(7, 3)
        for core in ((1,), (3, 1)):
            block = [p for p in matrix.labels if d_core(p, 3) == core]
            top, low = block[-1], block[0]
            self._both_reject(_with_entry_added(matrix, top, low, V), family)

    def test_both_reject_an_entry_outside_its_rows_block(self):
        matrix = llt_canonical_basis(7, 3)
        family = bar_invariant_family(7, 3)
        row = (7,)
        col = next(p for p in matrix.labels if d_core(p, 3) != d_core(row, 3))
        self._both_reject(_with_entry_added(matrix, row, col, V), family)

    def test_both_reject_a_family_vector_leaving_its_block(self):
        matrix = llt_canonical_basis(7, 3)
        family = dict(bar_invariant_family(7, 3))
        member = (7,)
        outsider = next(p for p in matrix.labels
                        if d_core(p, 3) != d_core(member, 3))
        family[member] = add_scaled(dict(family[member]), {(outsider, 1): 1})
        with pytest.raises(InvariantError, match="leaves its d-core block"):
            verify_bar_invariance(matrix, family)
        with pytest.raises(InvariantError):
            _whole_matrix_bar_check(matrix, _laurent_family(family))

    def test_one_rank_per_block(self, monkeypatch):
        matrix = llt_canonical_basis(8, 3)
        rank = fock_llt.rank
        sizes = []
        monkeypatch.setattr(fock_llt, "rank",
                            lambda a, mod: sizes.append(len(a)) or rank(a, mod))
        verify_bar_invariance(matrix)
        assert sorted(sizes) == _block_sizes(matrix)

    def test_oracle_solves_once_per_block_and_point(self, monkeypatch):
        matrix = llt_canonical_basis(8, 3)
        solve = bar_oracle.fraction_free_solve
        sizes = []
        monkeypatch.setattr(bar_oracle, "fraction_free_solve",
                            lambda a, b: sizes.append(len(a)) or solve(a, b))
        numeric_bar_check(matrix, _laurent_family(bar_invariant_family(8, 3)))
        points = len(_BAR_CHECK_POINTS)
        assert points == 8
        assert sorted(sizes) == sorted(_block_sizes(matrix) * points)

    def test_huge_d_gives_singleton_blocks(self):
        matrix = llt_canonical_basis(6, 10**12)
        assert all(d_core(p, 10**12) == p for p in matrix.labels)
        verify_bar_invariance(matrix)
        self._both_reject(_with_entry_added(matrix, (6,), (1,) * 6, V),
                          bar_invariant_family(6, 10**12))


T = 2**64


def _block_and_family(n, d):
    family = _laurent_family(bar_invariant_family(n, d))
    block = [p for p in partitions(n) if d_core(p, d) == ()]
    return block, family


class TestBarMatrix:
    """The numeric bar matrix, kept in bar_oracle as an independent route."""

    @settings(derandomize=True)
    @given(st.dictionaries(st.integers(-40, 40),
                           st.integers(-(T // 2) + 1, T // 2 - 1), max_size=12))
    def test_digit_reader_round_trips(self, terms):
        f = Laurent(terms)
        assert bar_oracle._laurent_at(Fraction(f(T)), T) == f

    def test_digit_reader_rejects_odd_denominators(self):
        with pytest.raises(InvariantError, match="power of two"):
            bar_oracle._laurent_at(Fraction(1, 3), T)
        with pytest.raises(InvariantError, match="power of two"):
            bar_oracle._laurent_at(Fraction(5, 3 * T), T)

    def test_one_solve_per_block(self, monkeypatch):
        solve = bar_oracle._family_solve
        calls = []
        monkeypatch.setattr(bar_oracle, "_family_solve",
                            lambda *args: calls.append(1) or solve(*args))
        block, family = _block_and_family(6, 2)
        columns = bar_oracle._bar_matrix(block, family)
        assert len(calls) == 1
        assert bar_oracle._bar_matrix_valid(block, family, columns)

    def test_retries_with_a_larger_t(self, monkeypatch):
        block, family = _block_and_family(6, 2)
        expected = bar_oracle._bar_matrix(block, family)
        solve = bar_oracle._family_solve
        calls = []

        def singular_once(mat, rhs):
            calls.append(1)
            if len(calls) == 1:
                raise InvariantError("family matrix is singular at a check point")
            return solve(mat, rhs)

        monkeypatch.setattr(bar_oracle, "_family_solve", singular_once)
        assert bar_oracle._bar_matrix(block, family) == expected
        assert len(calls) == 2

    def test_never_returns_an_unverified_candidate(self, monkeypatch):
        monkeypatch.setattr(bar_oracle, "_bar_matrix_valid", lambda *args: False)
        block, family = _block_and_family(4, 2)
        with pytest.raises(InvariantError):
            bar_oracle._bar_matrix(block, family)

    def test_oracle_agrees_with_straightening(self):
        for n in range(9):
            for d in (2, 3, 4, 5):
                labels = partitions(n)
                family = _laurent_family(bar_invariant_family(n, d))
                columns = fock_llt._bar_columns(labels, max(n, 1), d)
                for block in fock_llt._core_blocks(labels, d):
                    assert bar_oracle._bar_matrix(block, family) == {
                        p: laurent_vector(columns[p]) for p in block}, (n, d, block[0])


class TestLaurentRoute:
    """The coefficient-map route against the Laurent-valued route kept in
    tests/fock_oracle.py: bar columns, family vectors, operator images and
    canonical-basis entries, index for index."""

    def _assert_same(self, n, d):
        labels = partitions(n)
        columns = fock_llt._bar_columns(labels, max(n, 1), d)
        assert {p: laurent_vector(columns[p]) for p in labels} == \
            fock_oracle._bar_columns(labels, max(n, 1), d), (n, d)
        family = bar_invariant_family(n, d)
        oracle_family = fock_oracle.bar_invariant_family(n, d)
        for p in labels:
            assert laurent_vector(family[p]) == oracle_family[p], (n, d, p)
        matrix = llt_canonical_basis(n, d)
        basis = fock_oracle.canonical_basis(n, d)
        for r, row in enumerate(labels):
            for c, col in enumerate(labels):
                assert matrix.entries[r][c] == _entry(basis[row].get(col, ZERO)), \
                    (n, d, row, col)

    @pytest.mark.parametrize("d", (2, 3, 4, 5))
    def test_every_n_up_to_nine(self, d):
        for n in range(10):
            self._assert_same(n, d)

    def test_ten_boxes_d3(self):
        self._assert_same(10, 3)

    def test_quantum_factorials(self):
        for k in range(1, 8):
            low = -k * (k - 1) // 2
            assert Laurent({low + j: c for j, c in enumerate(fock_llt._quantum_factorial(k))}) \
                == fock_oracle.quantum_factorial(k)

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_operators_on_basis_vectors(self, d):
        for n in range(7):
            for p in partitions(n):
                seed = {(p, 1): 2, ((n + 1,), -1): -1}
                laurent_seed = laurent_vector(seed)
                for i in range(d):
                    assert laurent_vector(f_once(i, seed, d)) == \
                        fock_oracle.f_once(i, laurent_seed, d)
                    for k in (2, 3):
                        assert laurent_vector(f_action(i, k, seed, d)) == \
                            fock_oracle.f_action(i, k, laurent_seed, d)
                for k in (1, 2):
                    assert laurent_vector(boson_strip(k, seed, d)) == \
                        fock_oracle.boson_strip(k, laurent_seed, d)


def _bar_squared(columns):
    """W W(1/v), as columns."""
    return {p: fock_llt._bar_apply(columns, column) for p, column in columns.items()}


class TestStraightening:
    """The q-wedge bar involution and the symbolic verifier's checks."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 8).flatmap(lambda n: st.integers(2, 7).flatmap(
        lambda d: st.tuples(st.just(n), st.just(d), st.integers(max(n, 1), n + 2 * d)))))
    def test_columns_do_not_depend_on_the_slot_count(self, case):
        n, d, slots = case
        labels = partitions(n)
        columns = fock_llt._bar_columns(labels, slots, d)
        assert columns == fock_llt._bar_columns(labels, max(n, 1), d)
        assert _bar_squared(columns) == {p: _basis_vector(p) for p in labels}

    def test_small_columns(self):
        def columns(n, slots, d):
            return {p: laurent_vector(column) for p, column in
                    fock_llt._bar_columns(partitions(n), slots, d).items()}

        antisym = V - V.shifted(-2)  # v - 1/v
        assert columns(2, 2, 2) == {
            (1, 1): {(1, 1): ONE}, (2,): {(2,): ONE, (1, 1): antisym}}
        assert columns(2, 2, 3) == {
            (1, 1): {(1, 1): ONE}, (2,): {(2,): ONE}}
        assert columns(3, 3, 3)[(3,)] == {
            (3,): ONE, (2, 1): antisym, (1, 1, 1): V.shifted(-3) - ONE}

    def _matrix_family_bar(self, n=7, d=3):
        matrix = llt_canonical_basis(n, d)
        family = bar_invariant_family(n, d)
        bar = fock_llt._bar_columns(matrix.labels, n, d)
        verify_bar_invariance(matrix, family, bar)
        return matrix, family, bar

    def test_rejects_a_changed_bar_entry(self):
        matrix, family, bar = self._matrix_family_bar()
        p = (7,)
        mu = next(mu for mu, _ in bar[p] if mu != p)
        tampered = dict(bar)
        tampered[p] = add_scaled(dict(bar[p]), {(mu, 1): 1})
        with pytest.raises(InvariantError, match="bar involution does not"):
            verify_bar_invariance(matrix, family, tampered)

    def test_rejects_a_bar_column_that_is_not_unitriangular(self):
        matrix, family, bar = self._matrix_family_bar()
        tampered = dict(bar)
        column = tampered[(7,)] = dict(bar[(7,)])
        del column[(7,), 0]
        column[(7,), 1] = 1
        with pytest.raises(InvariantError, match="lower terms"):
            verify_bar_invariance(matrix, family, tampered)

    def test_rejects_a_changed_g_entry(self):
        matrix, family, bar = self._matrix_family_bar()
        row = matrix.labels[-1]
        col = next(mu for mu in reversed(matrix.labels[:-1])
                   if d_core(mu, 3) == d_core(row, 3))
        with pytest.raises(InvariantError, match="is not bar-invariant"):
            verify_bar_invariance(_with_entry_added(matrix, row, col, V), family, bar)

    def test_rejects_a_family_vector_that_bar_moves(self):
        matrix, family, bar = self._matrix_family_bar()
        family = dict(family)
        family[(7,)] = add_scaled(dict(family[(7,)]), {((7,), 1): 1})
        with pytest.raises(InvariantError, match="does not fix the family vector"):
            verify_bar_invariance(matrix, family, bar)

    def test_rejects_a_singular_family(self):
        matrix, family, bar = self._matrix_family_bar()
        family = dict(family)
        block = [p for p in matrix.labels if d_core(p, 3) == d_core((7,), 3)]
        family[block[-1]] = family[block[-2]]  # bar-invariant, but a repeat
        with pytest.raises(InvariantError, match="singular"):
            verify_bar_invariance(matrix, family, bar)

    def test_rejects_a_pair_rule_with_a_non_unit_diagonal(self, monkeypatch):
        pair = fock_llt._wedge_pair
        monkeypatch.setattr(fock_llt, "_wedge_pair", lambda low, high, d: [
            (a, b, tuple((e, 2 * c) for e, c in terms)) for a, b, terms in pair(low, high, d)])
        with pytest.raises(InvariantError, match="diagonal"):
            fock_llt._bar_columns(partitions(4), 4, 2)


class TestEvaluationAndOutput:
    def test_decomposition_matrix_two_boxes(self):
        assert llt_canonical_basis(2, 2).evaluate(1) == [[1, 0], [1, 1]]

    def test_decomposition_matrix_four_boxes(self):
        m = llt_canonical_basis(4, 2).evaluate(1)
        assert m == [
            [1, 0, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [0, 1, 1, 0, 0],
            [0, 1, 1, 1, 0],
            [1, 1, 0, 1, 1],
        ]

    def test_json_round_trip_shape(self):
        m = llt_canonical_basis(3, 2)
        data = m.to_json()
        assert data["n"] == 3 and data["d"] == 2
        assert data["labels"] == [[1, 1, 1], [2, 1], [3]]
        assert data["entries"][2][0] == {"1": "1"}
        assert data["entries"][0][0] == {"0": "1"}

    def test_csv_output(self):
        m = llt_canonical_basis(2, 2)
        text = m.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "label,[1.1],[2]"
        assert lines[1] == "[1.1],1,0"
        assert lines[2] == "[2],v,1"
        at_one = m.to_csv(at_one=True)
        assert at_one.strip().split("\n")[2] == "[2],1,1"

    def test_shape_check_reports_failures(self):
        labels = ((1, 1), (2,))
        bad = FockMatrix(n=2, d=2, labels=labels,
                         entries=((_entry(ONE), _entry(V)), (_entry(ONE + V), _entry(Laurent(2)))))
        with pytest.raises(InvariantError, match="canonical basis shape violation") as caught:
            shape_check(bad)
        message = str(caught.value)
        assert "diagonal ((2,), (2,)) = 2" in message
        assert "upper entry ((1, 1), (2,)) = v" in message
        assert "entry ((2,), (1, 1)) = 1 + v is not in v Z>=0 [v]" in message
        # negative and non-unit coefficients and negative exponents, each
        # written as Laurent.to_string writes it
        labels = ((1, 1, 1), (2, 1), (3,))
        rows = ((Laurent(2), V, ZERO),
                (ONE + V, ONE, Laurent({1: -1, 2: -3})),
                (Laurent({1: 1, 2: -1}), Laurent({-1: 1, 3: 2}), Laurent({-2: -2, 0: 1})))
        bad = FockMatrix(n=3, d=2, labels=labels,
                         entries=tuple(tuple(_entry(f) for f in row) for row in rows))
        with pytest.raises(InvariantError) as caught:
            shape_check(bad)
        assert str(caught.value) == (
            "canonical basis shape violation: "
            "diagonal ((1, 1, 1), (1, 1, 1)) = 2; "
            "upper entry ((1, 1, 1), (2, 1)) = v; "
            "entry ((2, 1), (1, 1, 1)) = 1 + v is not in v Z>=0 [v]; "
            "upper entry ((2, 1), (3,)) = -v - 3*v^2; "
            "entry ((3,), (1, 1, 1)) = v - v^2 is not in v Z>=0 [v]; "
            "entry ((3,), (2, 1)) = v^-1 + 2*v^3 is not in v Z>=0 [v]; "
            "diagonal ((3,), (3,)) = -2*v^-2 + 1")
