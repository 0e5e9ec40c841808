"""Weyl group enumeration, degrees, twisted classes, regular elements."""

import json
import math
import time
import tracemalloc
from array import array
from functools import lru_cache, reduce

import cyclo_oracle
import field_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from laurent_oracle import Laurent, poly_from_coeffs
from lie_oracle import (bfs_enumeration, centralizer_by_scan, index_of, inverse, longest,
                        multiply, permutations, phi_image, poincare_polynomial,
                        regular_witnesses_by_scan, simple_reflection_matrices)

import lielocal.cyclotomic
import lielocal.weyl
from lielocal import cli
from lielocal.braid_hecke import hecke_poincare, verify_regular_braid_identity
from lielocal.cyclotomic import cyclotomic, euler_phi, phi_d_matrix
from lielocal.ell_local import sylow_structure
from lielocal.generic_order import factor_pairs_for
from lielocal.errors import GuardExceeded, InvariantError, UnsupportedTypeError
from lielocal.linalg import closure, identity, mat_mul, rank
from lielocal.root_datum import (ALL_LABELS, build_root_datum, cached_datum, cartan_matrix,
                                 from_cartan, gl_rank, labels_of_rank, parse_label,
                                 split_degrees)
from lielocal.weyl import (
    ReflectionContext,
    TwistedClass,
    WeylGroup,
    context_from_datum,
    generate_weyl,
    gl_context,
    gl_weyl,
)


def group(label):
    return generate_weyl(build_root_datum(label))


def degree_product(degrees):
    """prod_i [d_i]_x = prod_i (1 + x + ... + x^{d_i - 1})."""
    out = Laurent(1)
    for d in degrees:
        out = out * poly_from_coeffs([1] * d)
    return out


class TestEnumeration:
    @pytest.mark.parametrize("label,order,max_len", [
        ("A1", 2, 1), ("A2", 6, 3), ("A3", 24, 6), ("B2", 8, 4),
        ("G2", 12, 6), ("B3", 48, 9), ("D4", 192, 12), ("F4", 1152, 24),
        ("2A2", 6, 3), ("3D4", 192, 12),
    ])
    def test_orders_and_longest(self, label, order, max_len):
        w = group(label)
        assert len(w) == order
        assert max(len(w.word(v)) for v in w.elements) == max_len
        assert len(w.word(longest(w))) == max_len

    def test_guard_rejects_large(self):
        for label in ("E7", "E8"):
            with pytest.raises(GuardExceeded) as exc:
                generate_weyl(build_root_datum(label))
            order = math.prod(split_degrees("E", int(label[1])))
            assert f"order {order} > guard" in str(exc.value)

    def test_guard_refuses_a_large_unlabelled_datum_up_front(self):
        # |W| = 2^20 is read off the Cartan matrix, so no element is listed
        cartan = [[2 * (i == j) for j in range(20)] for i in range(20)]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(GuardExceeded, match="order 1048576 > guard"):
                generate_weyl(from_cartan("A1x20", cartan))
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seconds < 0.5
        assert peak < 1 << 20

    def test_built_in_labels_are_cached_and_other_data_are_not(self):
        assert generate_weyl(build_root_datum("B3")) is generate_weyl(cached_datum("B3"))
        datum = from_cartan("A1xB2", [[2, 0, 0], [0, 2, -1], [0, -2, 2]])
        first, second = generate_weyl(datum), generate_weyl(datum)
        assert first is not second
        assert len(first) == len(second) == 16

    def test_lex_least_words(self):
        w = group("A2")
        words = sorted(map(w.word, w.elements))
        assert words == [(), (0,), (0, 1), (0, 1, 0), (1,), (1, 0)]

    def test_length_identities(self):
        for label in ("A2", "B2", "G2"):
            w = group(label)
            n = w.ctx.N
            w0 = longest(w)
            for v in w.elements:
                word = w.word(v)
                assert len(w.word(w.inverses[v])) == len(word)
                assert len(w.word(multiply(w, w0, v))) == n - len(word)

    def test_group_closure_small(self):
        w = group("B2")
        for a in range(len(w)):
            for b in range(len(w)):
                multiply(w, a, b)  # raises KeyError if not closed

    def test_gl_mode(self, capsys):
        w = gl_weyl(4)
        assert len(w) == 24
        assert w.ctx.N == 6
        poincare = poly_from_coeffs(poincare_polynomial(w))
        assert poincare == poly_from_coeffs(hecke_poincare("GL4")) == degree_product((1, 2, 3, 4))
        # GL1 has no generators, so no right multiplication column to count
        # its one element
        assert len(gl_weyl(1)) == 1 and gl_weyl(1).right == []
        assert cli.main(["weyl", "regular", "GL1", "--d", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "centralizer_is_reflection_group": True, "centralizer_order": 1, "d": 1,
            "eigenspace_dim": 1, "regular": True, "type": "GL1", "witness_length": 0,
            "witness_word": [], "zeta_order": 1}
        assert cli.main(["weyl", "regular", "GL1", "--d", "2"]) == 0
        assert json.loads(capsys.readouterr().out) == {"d": 2, "regular": False,
                                                       "type": "GL1"}

    def test_twist_must_permute_the_simple_reflections(self):
        # s_1 permutes the roots of A2 but sends alpha_1 to -alpha_1
        ctx = context_from_datum(build_root_datum("A2"))
        args = (ctx.label, ctx.n_gens, ctx.pos_roots, ctx.coroots)
        assert ReflectionContext(*args, ctx.phi_mat, 6).phi_simple == (0, 1)
        with pytest.raises(InvariantError, match="simple reflection"):
            ReflectionContext(*args, ctx.gen_matrices[0], 6)
        assert context_from_datum(build_root_datum("2A2")).phi_simple == (1, 0)

    def test_roots_not_led_by_the_simple_roots_are_refused(self):
        # alpha_0 + alpha_1 first: its reflection sends alpha_1 negative too
        ctx = context_from_datum(build_root_datum("A2"))
        with pytest.raises(InvariantError, match="simple roots are not listed first"):
            ReflectionContext(ctx.label, ctx.n_gens, ctx.pos_roots[::-1], ctx.coroots[::-1],
                              ctx.phi_mat, 6)

    @pytest.mark.parametrize("label", ALL_LABELS + tuple(f"GL{n}" for n in range(1, 10)))
    def test_simple_reflections_match_their_matrices_written_out(self, label):
        n = gl_rank(label)
        ctx = context_from_datum(cached_datum(label)) if n is None else gl_context(n)
        assert [list(map(list, m)) for m in ctx.gen_matrices] == simple_reflection_matrices(label)
        for i in range(ctx.n_gens):
            assert ctx.reflection_perm_of_root(i) == ctx.gen_perms[i]


class TestDegrees:
    @pytest.mark.parametrize("label,degs", [
        ("A1", (2,)), ("A2", (2, 3)), ("A4", (2, 3, 4, 5)),
        ("B2", (2, 4)), ("B3", (2, 4, 6)), ("C3", (2, 4, 6)),
        ("D4", (2, 4, 4, 6)), ("G2", (2, 6)), ("F4", (2, 6, 8, 12)),
        ("2A3", (2, 3, 4)), ("3D4", (2, 4, 4, 6)),
    ])
    def test_degree_tables(self, label, degs):
        poincare = poly_from_coeffs(poincare_polynomial(group(label)))
        assert poincare == poly_from_coeffs(hecke_poincare(label)) == degree_product(degs)

    def test_poincare_symmetry(self):
        p = poincare_polynomial(group("B2"))
        assert p == p[::-1]
        assert sum(p) == 8


class TestFConjugacy:
    def test_a1_split(self):
        classes = group("A1").f_conjugacy_classes()
        assert len(classes) == 2
        assert all(not c.twisted for c in classes)

    def test_a2_split_matches_conjugacy(self):
        classes = group("A2").f_conjugacy_classes()
        assert sorted(c.size for c in classes) == [1, 2, 3]

    def test_2a2_twisted(self):
        classes = group("2A2").f_conjugacy_classes()
        assert len(classes) == 3
        assert all(c.twisted for c in classes)
        assert sum(c.size for c in classes) == 6

    def test_a1xa1_swap(self):
        datum = from_cartan("A1xA1", [[2, 0], [0, 2]], phi=(1, 0))
        classes = WeylGroup(context_from_datum(datum)).f_conjugacy_classes()
        assert len(classes) == 2

    def test_class_sizes_divide_order(self):
        w = group("G2")
        for c in w.f_conjugacy_classes():
            assert len(w) % c.size == 0


class TestRegularElements:
    def test_a1_d2(self):
        rep = group("A1").regular_elements(2)
        assert rep is not None
        assert rep.witness_word == (0,)
        assert rep.eigenspace_dim == 1
        assert rep.centralizer_order == 2
        assert rep.to_json()["centralizer_is_reflection_group"] is True

    def test_a2_d3_coxeter(self):
        rep = group("A2").regular_elements(3)
        assert rep is not None
        assert len(rep.witness_word) == 2
        assert rep.centralizer_order == 3
        assert rep.eigenspace_dim == 1
        assert rep.to_json()["centralizer_is_reflection_group"] is True

    def test_a2_d6_none(self):
        assert group("A2").regular_elements(6) is None

    def test_a2_d1_identity(self):
        rep = group("A2").regular_elements(1)
        assert rep is not None
        assert rep.witness_word == ()
        assert rep.eigenspace_dim == 2
        assert rep.centralizer_order == 6
        assert rep.to_json()["centralizer_is_reflection_group"] is True

    def test_2a2_regular_ds(self):
        w = group("2A2")
        have = {d for d in range(1, 7) if w.regular_elements(d) is not None}
        assert have == {1, 2, 6}
        rep2 = w.regular_elements(2)
        assert rep2.eigenspace_dim == 2  # w0·phi acts as -1
        assert len(rep2.witness_word) == 3
        rep6 = w.regular_elements(6)
        assert rep6.eigenspace_dim == 1
        assert len(rep6.witness_word) == 1  # twisted Coxeter element s_1·phi

    def test_centralizer_order_times_class_size(self):
        w = group("B2")
        for d in (1, 2, 4):
            rep = w.regular_elements(d)
            assert rep is not None
            # |C_W(w phi)| * |F-class of w| = |W|
            size = next(c.size for c in w.f_conjugacy_classes()
                        if rep.witness in c.members)
            assert rep.centralizer_order * size == len(w)


class TestEigenspaces:
    @pytest.mark.parametrize("label,d,dim", [
        ("A1", 1, 1), ("A1", 2, 1),
        ("A2", 1, 2), ("A2", 2, 1), ("A2", 3, 1),
        ("2A2", 1, 1), ("2A2", 2, 2), ("2A2", 6, 1), ("2A2", 3, 0),
        ("B2", 4, 1), ("B2", 2, 2), ("G2", 6, 1), ("G2", 3, 1),
    ])
    def test_max_dims(self, label, d, dim):
        _, got = group(label).max_phi_d_eigenspace(d)
        assert got == dim

    def test_witness_tie_break_is_bfs_order(self):
        w = group("A2")
        witness, dim = w.max_phi_d_eigenspace(1)
        assert witness == 0 and w.word(witness) == ()
        assert dim == 2

    def test_eigenspace_basis_matches_dims(self):
        w = group("G2")
        for d in (1, 2, 3, 6):
            witness, dim = w.max_phi_d_eigenspace(d)
            basis = w.eigenspace_basis(witness, d)
            assert len(basis) == rank(basis) == euler_phi(d) * dim
            _, k_basis = cyclo_oracle.eigenspace_basis(w, witness, d)
            assert len(k_basis) == dim


# ---------------------------------------------------------------------------
# Oracles for the per-class, matrix-free route: every element's matrix is
# stored, as a BFS over the words would build it, and each quantity is
# computed element by element.

ORACLE_LABELS = labels_of_rank(4) + ["GL4"]


def oracle_group(label):
    return gl_weyl(int(label[2:])) if label.startswith("GL") else group(label)


def element_matrices(w):
    """Weight-lattice matrix of every element, each from its parent's."""
    mats = [identity(w.ctx.dim)]
    for v in w.elements[1:]:
        word = w.word(v)
        parent = index_of(w)[w.ctx.compose(permutations(w)[v], w.ctx.gen_perms[word[-1]])]
        mats.append(mat_mul(mats[parent], w.ctx.gen_matrices[word[-1]]))
    return mats


def label_degrees(label):
    """Reflection degrees of the label's Weyl group; GL_n has 1, 2, ..., n."""
    if label.startswith("GL"):
        return list(range(1, int(label[2:]) + 1))
    _, family, rank = parse_label(label)
    return split_degrees(family, rank)


def d_range(label):
    """1, ..., 2·(largest degree)·(twist order): an eigenvalue of w·phi has
    order dividing d_i·|phi| for a degree d_i."""
    twist = 1 if label.startswith("GL") else parse_label(label)[0]
    return range(1, 2 * max(label_degrees(label)) * twist + 1)


def divisors_of_degrees(label):
    return sorted({d for deg in label_degrees(label) for d in range(1, deg + 1) if deg % d == 0})


def per_element_dims(w, d):
    """dim_Q ker Phi_d(w phi) / phi(d), one rank per element."""
    phi_poly = cyclotomic(d)
    n = w.ctx.dim
    out = []
    for m in element_matrices(w):
        twisted = mat_mul(m, w.ctx.phi_mat)
        value = [[0] * n for _ in range(n)]
        power = identity(n)
        for c in phi_poly:
            value = [[x + c * y for x, y in zip(r, p)] for r, p in zip(value, power)]
            power = mat_mul(power, twisted)
        dim_q = n - rank(value)
        assert dim_q % euler_phi(d) == 0
        out.append(dim_q // euler_phi(d))
    return out


def rational_matrix(field, r):
    """A matrix over K = Q(zeta_d) as a rational matrix: each entry a becomes
    the matrix of x -> a·x in the basis 1, t, t^2, ... of K.  This is a
    faithful ring map, so closures correspond; integral entries become ints,
    which keeps the products cheap."""
    powers = [field.reduce([0] * i + [1]) for i in range(field.degree)]
    rows = []
    for row in r:
        blocks = [list(zip(*(field.mul(a, p) for p in powers))) for a in row]
        rows += [tuple(x.numerator if x.denominator == 1 else x
                       for b in blocks for x in b[i]) for i in range(field.degree)]
    return tuple(rows)


def matrix_closure_verdict(w, d, witness):
    """(|C_W(w phi)|, reflection-generated?) for the witness w, by the
    closure of the restricted Q(zeta_d)-matrices: the centralizer is found by
    matrix commutation, each element is restricted by its own solve, and the
    images of the pseudo-reflections are multiplied out."""
    mats = element_matrices(w)
    sigma = mat_mul(mats[witness], w.ctx.phi_mat)
    centralizer = [m for m in mats if mat_mul(m, sigma) == mat_mul(sigma, m)]
    field, basis = cyclo_oracle.eigenspace_basis(w, witness, d)
    n, k = len(basis[0]), len(basis)
    images = set()
    for m in centralizer:
        cols = [[field.dot(row, b) for row in m] for b in basis]
        aug = [[basis[j][i] for j in range(k)] + [cols[j][i] for j in range(k)]
               for i in range(n)]
        red, pivots = cyclo_oracle.cyclo_rref(field, aug)
        assert pivots == list(range(k))
        images.add(tuple(tuple(red[i][k + j] for j in range(k)) for i in range(k)))
    rational = {rational_matrix(field, r) for r in images}
    size = k * field.degree
    unit = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    # a pseudo-reflection over K has rank(r - 1) = 1, that is phi(d) over Q;
    # the entries may be Fractions, so the rank is the field oracle's
    reflections = [m for m in rational
                   if field_oracle.rank([[x - y for x, y in zip(row, one)] for row, one in zip(m, unit)])
                   == field.degree]
    generated = closure((unit,), reflections, lambda a, b: tuple(map(tuple, mat_mul(a, b))))
    return len(centralizer), generated == rational


class TestPerClassRoute:
    @pytest.mark.parametrize("label", ORACLE_LABELS)
    def test_phi_d_dimensions_match_per_element_ranks(self, label):
        w = oracle_group(label)
        for d in divisors_of_degrees(label):
            assert list(w.phi_d_dimensions(d)) == per_element_dims(w, d), d

    @pytest.mark.parametrize("label", labels_of_rank(3) + [f"GL{n}" for n in range(1, 5)])
    def test_phi_d_dimensions_past_the_totient_bound(self, label):
        # every d on both sides of phi(d) <= n and of d <= 2n^2: the per-element
        # ranks are taken at every d, where the group ranks only at phi(d) <= n
        w = oracle_group(label)
        for d in range(1, 2 * w.ctx.dim ** 2 + 13):
            assert list(w.phi_d_dimensions(d)) == per_element_dims(w, d), d

    @pytest.mark.parametrize("context,ds", [
        (lambda: context_from_datum(build_root_datum("B3")), (5, 7, 8, 12)),  # phi(d) = 4, 6
        (lambda: gl_context(4), (7, 9, 14, 18)),  # phi(d) = 6
    ], ids=["B3", "GL4"])
    def test_a_d_past_the_totient_takes_no_rank_and_no_class_walk(self, monkeypatch, context, ds):
        w = WeylGroup(context())

        def refuse(*args):
            raise AssertionError("ranked a d with phi(d) > n")

        monkeypatch.setattr(lielocal.weyl, "rank", refuse)
        monkeypatch.setattr(lielocal.weyl, "phi_d_matrix", refuse)
        for d in ds:
            assert euler_phi(d) > w.ctx.dim
            assert list(w.phi_d_dimensions(d)) == [0] * len(w), d
        assert "_partition" not in vars(w)
        assert not w._dims

    def test_huge_d_builds_no_cyclotomic_polynomial(self, monkeypatch):
        w = WeylGroup(context_from_datum(build_root_datum("A2")))

        def refuse(d):
            raise AssertionError(f"Phi_{d} built")

        monkeypatch.setattr(lielocal.cyclotomic, "cyclotomic", refuse)
        assert list(w.phi_d_dimensions(10**12)) == [0] * len(w)
        assert w.regular_elements(10**12) is None

    def test_large_d_keeps_no_list(self):
        # every dimension past 2n^2 is 0, and none of those answers is kept:
        # 1,000 distinct d once held a 120-long list each
        w = WeylGroup(gl_context(5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for d in range(10**6, 10**6 + 1000):
                assert list(w.phi_d_dimensions(d)) == [0] * len(w)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16 * 1024, grown

    def test_kept_dimensions_take_one_byte_per_element(self):
        # only the 13 d with phi(d) <= n of the 98 d <= 2n^2 are kept, each at
        # one byte per element of S_7's 5,040; as 13 lists of Python ints
        # would fit in 1 MiB too, the type code is checked as well
        w = gl_weyl(7)
        w.f_conjugacy_classes()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for d in range(1, 99):
                w.phi_d_dimensions(d)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1024 * 1024, grown
        assert sorted(w._dims) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18]
        assert {dims.typecode for dims in w._dims.values()} == {"b"}

    def test_one_rank_per_class(self, monkeypatch):
        w = WeylGroup(context_from_datum(build_root_datum("B3")))
        calls = []
        real_rank = lielocal.weyl.rank
        monkeypatch.setattr(lielocal.weyl, "rank",
                            lambda *a: calls.append(a) or real_rank(*a))
        w.phi_d_dimensions(4)
        assert len(calls) == len(w.f_conjugacy_classes())

    @pytest.mark.parametrize("label", ["B3", "G2", "3D4", "GL4"])
    def test_matrix_from_word_permutes_roots_as_perm(self, label):
        w = oracle_group(label)
        for v in w.elements:
            assert w.ctx._perm_of_matrix(w._matrix(v)) == w.perm(v)

    @pytest.mark.parametrize("label", labels_of_rank(4))
    def test_centralizer_verdict_matches_matrix_closure(self, label):
        w = group(label)
        # an eigenvalue of w·phi has order dividing d_i·|phi| for a degree d_i
        for d in range(1, 3 * max(label_degrees(label)) + 1):
            report = w.regular_elements(d)
            if report is not None:
                assert matrix_closure_verdict(w, d, report.witness) == (
                    report.centralizer_order, True), d

    @pytest.mark.parametrize("label", labels_of_rank(4) + [f"GL{n}" for n in range(1, 6)])
    def test_regular_witnesses_match_the_scan(self, label):
        w = oracle_group(label)
        for d in d_range(label):
            assert list(w.regular_witnesses(d)) == regular_witnesses_by_scan(w, d), d

    def test_matrices_only_for_class_representatives(self, monkeypatch):
        """On D6 at d = 2 the witness w0 is central, so its centralizer is
        all 23,040 elements: a lattice matrix is built once per F-class for
        the dimension, once for the one class of the largest dimension,
        and once for the witness; a permutation once per centralizer
        element and once for the witness."""
        w = WeylGroup(context_from_datum(cached_datum("D6")))
        matrices, perms = [], []
        real_matrix, real_perm = WeylGroup._matrix, WeylGroup.perm
        monkeypatch.setattr(WeylGroup, "_matrix",
                            lambda self, v: matrices.append(v) or real_matrix(self, v))
        monkeypatch.setattr(WeylGroup, "perm",
                            lambda self, v: perms.append(v) or real_perm(self, v))
        report = w.regular_elements(2)
        assert report.centralizer_order == len(w)
        classes = w.f_conjugacy_classes()
        representatives = {cls.representative for cls in classes}
        assert report.witness in representatives and set(matrices) <= representatives
        assert len(matrices) == len(classes) + 2
        assert sorted(perms) == sorted(list(w.elements) + [report.witness])

    def test_restriction_rejects_a_matrix_that_moves_the_span(self):
        w = group("A2")
        witness, _ = w.max_phi_d_eigenspace(3)
        field, basis = cyclo_oracle.eigenspace_basis(w, witness, 3)
        rows, pivots = cyclo_oracle.cyclo_rref(field, [list(v) for v in basis])
        with pytest.raises(InvariantError, match="does not preserve"):
            cyclo_oracle.restrict_to_span(field, w.ctx.gen_matrices[0], rows, pivots)


# ---------------------------------------------------------------------------
# The rational route against the Q(zeta_d) oracle: regularity, vanishing
# coroots, and which centralizer elements act on the eigenspace as the
# identity or as pseudo-reflections.

DESCENT_LABELS = labels_of_rank(3) + [f"GL{n}" for n in range(1, 5)]


def assert_same_action(w, d, witness, matrices):
    basis = w.eigenspace_basis(witness, d)
    centralizer = w.centralizer_of_twisted(witness)
    perms = [permutations(w)[v] for v in centralizer]
    # the package answers with positions in the permutation list
    trivial, reflections = w._eigenspace_action(witness, d, basis, perms)
    assert (([centralizer[k] for k in trivial], [centralizer[k] for k in reflections])
            == cyclo_oracle.eigenspace_action(w, witness, d, centralizer, matrices)
            ), (d, witness)


class TestRationalRoute:
    @pytest.mark.parametrize("label", DESCENT_LABELS)
    def test_every_element_matches_the_oracle(self, label):
        w = oracle_group(label)
        coroots = w.ctx.coroots
        matrices = element_matrices(w)
        for d in divisors_of_degrees(label):
            for v in range(len(w)):
                basis = w.eigenspace_basis(v, d)
                field, k_basis = cyclo_oracle.eigenspace_basis(w, v, d)
                assert ([lielocal.weyl.vanishes_on(c, basis) for c in coroots]
                        == [cyclo_oracle.vanishes_on(field, c, k_basis) for c in coroots])
                regular = w.is_regular_eigenspace(basis)
                assert regular == cyclo_oracle.is_regular_eigenspace(w, field, k_basis)
                if regular:
                    assert_same_action(w, d, v, matrices)

    @pytest.mark.parametrize("label", sorted(set(labels_of_rank(4)) - set(labels_of_rank(3))))
    def test_regular_witnesses_match_the_oracle(self, label):
        w = group(label)
        matrices = element_matrices(w)
        for d in divisors_of_degrees(label):
            witness = next(w.regular_witnesses(d), None)
            if witness is not None:
                assert_same_action(w, d, witness, matrices)

    def test_a_non_commuting_element_is_caught(self):
        w = group("A2")
        witness = w.regular_elements(3).witness
        basis = w.eigenspace_basis(witness, 3)
        centralizer = w.centralizer_of_twisted(witness)
        mover = index_of(w)[w.ctx.gen_perms[0]]
        assert mover not in centralizer
        with pytest.raises(InvariantError, match="does not preserve"):
            w._centralizer_reflection_check(witness, 3, basis, centralizer + [mover])

    def test_a_second_trivial_element_is_caught(self):
        w = group("B2")
        witness = w.regular_elements(4).witness
        basis = w.eigenspace_basis(witness, 4)
        centralizer = w.centralizer_of_twisted(witness)
        with pytest.raises(InvariantError, match="does not act faithfully"):
            w._centralizer_reflection_check(witness, 4, basis, centralizer + [0])

    def test_a_missing_reflection_is_caught(self, monkeypatch):
        w = group("B2")
        witness = w.regular_elements(1).witness
        basis = w.eigenspace_basis(witness, 1)
        centralizer = w.centralizer_of_twisted(witness)
        real = WeylGroup._eigenspace_action

        def one_reflection(self, *args):
            trivial, reflections = real(self, *args)
            return trivial, reflections[:1]

        monkeypatch.setattr(WeylGroup, "_eigenspace_action", one_reflection)
        with pytest.raises(InvariantError, match="not generated by its pseudo-reflections"):
            w._centralizer_reflection_check(witness, 1, basis, centralizer)

    def test_a_fixed_dimension_off_the_totient_is_caught(self, monkeypatch):
        w = group("A2")
        witness = w.regular_elements(3).witness
        basis = w.eigenspace_basis(witness, 3)
        centralizer = w.centralizer_of_twisted(witness)
        real = lielocal.weyl.rank
        monkeypatch.setattr(lielocal.weyl, "rank", lambda *a: real(*a) + 1)
        with pytest.raises(InvariantError, match="not divisible by phi"):
            w._centralizer_reflection_check(witness, 3, basis, centralizer)

    def test_a_short_basis_is_caught(self, monkeypatch):
        datum = build_root_datum("G2")
        w = generate_weyl(datum)
        real = lielocal.weyl.cyclo_rref

        def short(m, d):
            basis, pivots = real(m, d)
            return basis[1:], pivots[1:]

        monkeypatch.setattr(lielocal.weyl, "cyclo_rref", short)
        with pytest.raises(InvariantError, match="kernel dim mismatch"):
            w.regular_elements(6)
        # the braid search and the Levi data each read bases of their own
        with pytest.raises(InvariantError, match="kernel dim mismatch"):
            verify_regular_braid_identity(datum, 6)
        # 3 has order 6 mod 7
        with pytest.raises(InvariantError, match="kernel dim mismatch"):
            sylow_structure(datum, 3, 7)


# ---------------------------------------------------------------------------
# Springer's theorem as a check independent of enumeration: for a d-regular
# w, C_W(w phi) acts on the zeta_d-eigenspace as a reflection group whose
# degrees are the d_i with zeta_d^{d_i}·eps_i = 1 (Springer, Invent. Math. 25,
# 1974; Lehrer-Springer, 1999, for a twist).  Its order is their product and
# it holds sum(d_i - 1) pseudo-reflections (Shephard-Todd).

SPRINGER_LABELS = labels_of_rank(4) + ["D5", "2D5"] + [f"GL{n}" for n in range(1, 7)]


def springer_degrees(label, d):
    """The degrees d_i with zeta_d^{d_i}·eps_i = 1, eps_i = zeta_o^e read
    from the generic order's factor pairs; GL_n has 1, ..., n with eps 1."""
    if label.startswith("GL"):
        pairs = [(k, (1, 0)) for k in range(1, int(label[2:]) + 1)]
    else:
        pairs = factor_pairs_for(label)
    return [deg for deg, (o, e) in pairs if (deg * o + e * d) % (d * o) == 0]


@pytest.mark.parametrize("label", SPRINGER_LABELS)
def test_centralizers_match_springer_degrees(label):
    w = oracle_group(label)
    regular = 0
    for d in d_range(label):
        report = w.regular_elements(d)
        if report is None:
            continue
        regular += 1
        degrees = springer_degrees(label, d)
        assert len(degrees) == report.eigenspace_dim, d
        assert report.centralizer_order == math.prod(degrees), d
        centralizer = w.centralizer_of_twisted(report.witness)
        _, reflections = w._eigenspace_action(report.witness, d,
                                              w.eigenspace_basis(report.witness, d),
                                              [permutations(w)[v] for v in centralizer])
        assert len(reflections) == sum(deg - 1 for deg in degrees), d
    assert regular


# ---------------------------------------------------------------------------
# The integer route against the Fraction elimination of field_oracle: the
# eigenspace dimension and the Q-span of the basis, at every F-class
# representative (the dimension is a class function, checked above) and at
# the witness of the largest eigenspace.


@pytest.mark.parametrize("label", labels_of_rank(4))
def test_integer_eigenspaces_match_the_fraction_oracle(label):
    w = group(label)
    twist, family, n = parse_label(label)
    for d in range(1, 2 * max(split_degrees(family, n)) * twist + 1):
        dims = w.phi_d_dimensions(d)
        witnesses = [cls.representative for cls in w.f_conjugacy_classes()]
        for v in witnesses + [w.max_phi_d_eigenspace(d)[0]]:
            oracle = field_oracle.kernel_basis(phi_d_matrix(w._twisted_matrix(v), d))
            assert dims[v] * euler_phi(d) == len(oracle), (d, v)
            basis = w.eigenspace_basis(v, d)
            assert field_oracle.rank(basis + oracle) == len(basis) == len(oracle), (d, v)


# ---------------------------------------------------------------------------
# Oracles for the lookup tables: F-classes by the closure of products of
# signed-root permutations, and the table entries recomputed by composition.

TABLE_LABELS = labels_of_rank(4) + ["2D5", "GL1", "GL4"]
BFS_LABELS = ([label for label in labels_of_rank(6)
               if math.prod(split_degrees(*parse_label(label)[1:])) <= 60000]
              + [f"GL{n}" for n in range(1, 9)])


def multiply_closure_classes(w):
    """F-classes as orbits of x -> s_g x phi(s_g), each step two products in
    W, with members and classes in (length, word) order, as element indices."""
    pairs = [(g, phi_image(w, g)) for g in (index_of(w)[p] for p in w.ctx.gen_perms)]

    def act(x, pair):
        return multiply(w, multiply(w, pair[0], x), pair[1])

    def key(i):
        return len(w.word(i)), w.word(i)

    seen = set()
    classes = []
    for start in range(len(w)):
        if start not in seen:
            orbit = closure((start,), pairs, act)
            seen |= orbit
            classes.append(sorted(orbit, key=key))
    return sorted(classes, key=lambda c: key(c[0]))


def perm_of_word(ctx, word):
    return reduce(ctx.compose, (ctx.gen_perms[i] for i in word), ctx.identity_perm)


@lru_cache(maxsize=None)
def reflection_context(label):
    if label.startswith("GL"):
        return gl_context(int(label[2:]))
    return context_from_datum(cached_datum(label))


class TestLookupTables:
    @pytest.mark.parametrize("label", TABLE_LABELS)
    def test_classes_match_multiply_closure(self, label):
        w = oracle_group(label)
        got = [list(c.members) for c in w.f_conjugacy_classes()]
        assert got == multiply_closure_classes(w)

    @pytest.mark.parametrize("label", TABLE_LABELS)
    def test_right_table_and_inverses_match_composition(self, label):
        w = oracle_group(label)
        ctx = w.ctx
        for v in w.elements:
            for i, gen in enumerate(ctx.gen_perms):
                assert w.right[i][v] == index_of(w)[ctx.compose(w.perm(v), gen)]
            assert w.inverses[v] == inverse(w, v)

    @pytest.mark.parametrize("label", BFS_LABELS)
    def test_level_walk_matches_the_dict_bfs(self, label):
        ctx = reflection_context(label)
        w = WeylGroup(ctx)
        perms, words, right = bfs_enumeration(ctx)
        assert [w.perm(v) for v in w.elements] == perms
        assert [w.word(v) for v in w.elements] == words
        assert w.right == [array("i", col) for col in zip(*right)]
        inverses = []
        for word in words:
            v = 0
            for i in reversed(word):
                v = right[v][i]
            inverses.append(v)
        assert list(w.inverses) == inverses

    def test_wrong_classical_order_is_caught(self):
        # too small: the enumeration passes the preallocated columns, an
        # InvariantError and never an IndexError; too large: it leaves them
        # unfilled.  A from_cartan datum is checked like a built-in type.
        a1xa2 = from_cartan("A1xA2", [[2, 0, 0], [0, 2, -1], [0, -1, 2]])
        for datum, order in ((build_root_datum("A2"), 6), (a1xa2, 12)):
            for wrong, message in ((order - 1, f"passed its order {order - 1}"),
                                   (order + 1, f"{order} elements, classical order {order + 1}")):
                ctx = context_from_datum(datum)
                assert ctx.predicted_order == order
                ctx.predicted_order = wrong
                with pytest.raises(InvariantError, match=message):
                    WeylGroup(ctx)

    def test_a_non_simple_generator_is_caught(self):
        # s_1 replaced by the reflection s_0 s_1 s_0 of A2: its ascents from
        # the identity reach an element of length 3 in the first BFS level
        ctx = context_from_datum(build_root_datum("A2"))
        s0, s1 = ctx.gen_perms
        ctx.gen_perms = [s0, ctx.compose(s0, ctx.compose(s1, s0))]
        with pytest.raises(InvariantError, match="stored word is not reduced"):
            WeylGroup(ctx)

    def test_tampered_class_list_trips_orbit_stabilizer(self):
        w = WeylGroup(context_from_datum(build_root_datum("B2")))
        classes, owner = w._partition
        victim = next(c for c in classes if c.size > 1)
        w._partition = ([
            TwistedClass(members=c.members[:-1], word=c.word, twisted=c.twisted)
            if c is victim else c for c in classes], owner)
        with pytest.raises(InvariantError, match="F-class size"):
            w.centralizer_of_twisted(victim.representative)

    @pytest.mark.parametrize("label", ["B3", "2A3", "G2", "GL4"])
    def test_owner_array_class_size_matches_a_scan(self, label):
        w = oracle_group(label)
        classes = w.f_conjugacy_classes()
        owner = w._partition[1]
        for v in range(len(w)):
            scanned = next(c.size for c in classes if v in c.members)
            assert classes[owner[v]].size == scanned
            assert len(w.centralizer_of_twisted(v)) * scanned == len(w)

    @pytest.mark.parametrize("label", labels_of_rank(3) + [f"GL{n}" for n in range(1, 6)])
    def test_centralizer_matches_the_table_scan(self, label):
        w = oracle_group(label)
        for v in w.elements:
            assert w.centralizer_of_twisted(v) == centralizer_by_scan(w, v), v

    @pytest.mark.parametrize("label", ["GL8", "E6"])
    def test_classes_keep_only_index_columns(self, label):
        # right columns take 4 bytes per generator and element; last,
        # inverses, owner and the class members take 13 more
        ctx = reflection_context(label)
        tracemalloc.start()
        try:
            w = WeylGroup(ctx)
            w.f_conjugacy_classes()
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert live <= (4 * ctx.n_gens + 16) * len(w) + 64 * 1024

    def test_guard_counts_enumerated_elements(self, monkeypatch):
        # an unlabelled Cartan datum is sized by its orbit chain and refused
        # up front, like a built-in type
        ctx = context_from_datum(from_cartan("A1xA1", [[2, 0], [0, 2]]))
        assert ctx.predicted_order == 4
        monkeypatch.setattr(lielocal.weyl, "WEYL_GUARD", 4)
        assert len(WeylGroup(ctx)) == 4
        monkeypatch.setattr(lielocal.weyl, "WEYL_GUARD", 3)
        with pytest.raises(GuardExceeded, match="order 4 > guard 3"):
            WeylGroup(ctx)

    def test_more_than_256_signed_roots_refused(self):
        e8 = build_root_datum("E8").cartan
        cartan = [list(r) + [0] * 8 for r in e8] + [[0] * 8 + list(r) for r in e8]
        datum = from_cartan("E8xE8", cartan)
        assert 2 * datum.N == 480
        with pytest.raises(UnsupportedTypeError, match="480 signed roots"):
            context_from_datum(datum)
        # refused before sizing: the orbit chain of B20 would walk its 2^20
        # spin weights
        datum = from_cartan("X", cartan_matrix("B", 20))
        start = time.perf_counter()
        with pytest.raises(UnsupportedTypeError, match="X has 800 signed roots"):
            generate_weyl(datum)
        assert time.perf_counter() - start < 0.5
        with pytest.raises(UnsupportedTypeError, match="GL17 has 272 signed roots"):
            gl_weyl(17)

    @settings(derandomize=True)
    @given(st.data())
    def test_permutation_arithmetic_on_random_words(self, data):
        ctx = reflection_context(data.draw(st.sampled_from(
            ["A4", "B3", "G2", "F4", "2D5", "E6", "E8", "GL5"])))
        words = st.lists(st.integers(0, ctx.n_gens - 1), max_size=40)
        p, q, r = (perm_of_word(ctx, data.draw(words)) for _ in range(3))
        assert ctx.compose(ctx.invert(p), p) == ctx.identity_perm
        assert ctx.compose(ctx.compose(p, q), r) == ctx.compose(p, ctx.compose(q, r))
        word = ctx.word_from_perm(p)
        assert len(word) == ctx.length(p)
        assert perm_of_word(ctx, word) == p
