"""Garside normal forms against an exhaustive braid-rewriting oracle,
regular-element power identities, and Hecke algebra arithmetic."""

import functools
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from braid_hecke_oracle import (
    HeckeAlgebra,
    braid_relation_order,
    lambda_of_perm,
    pi_normal_form,
    specialize,
)
from lie_oracle import longest, longest_element_perm, multiply, poincare_polynomial

import lielocal.braid_hecke
from lielocal import cli
from lielocal.braid_hecke import (
    GarsideNF,
    _orbit_chain_poincare,
    garside_nf,
    hecke_poincare,
    verify_regular_braid_identity,
)
from lielocal.errors import InvariantError
from lielocal.root_datum import ALL_LABELS as EVERY_LABEL, cached_datum, cartan_matrix, labels_of_rank
from lielocal.weyl import context_from_datum, generate_weyl, gl_context, gl_weyl

ALL_LABELS = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4",
    "G2", "F4", "E6", "E7", "E8",
    "2A2", "2A3", "2A4", "2D4", "3D4", "2E6",
]


def _ctx(label):
    return context_from_datum(cached_datum(label))


# ---------------------------------------------------------------------------
# rewriting oracle: braid-relation closure of a positive word


def _relation_table(ctx):
    return {
        (i, j): braid_relation_order(ctx, i, j)
        for i in range(ctx.n_gens) for j in range(ctx.n_gens) if i != j
    }


def _alternating(i, j, m):
    return tuple(i if k % 2 == 0 else j for k in range(m))


def _braid_class(ctx, word, table):
    """All positive words obtainable from `word` by braid relations."""
    seen = {word}
    frontier = [word]
    while frontier:
        new = []
        for w in frontier:
            for (i, j), m in table.items():
                pattern = _alternating(i, j, m)
                flipped = _alternating(j, i, m)
                for p in range(len(w) - m + 1):
                    if w[p:p + m] == pattern:
                        candidate = w[:p] + flipped + w[p + m:]
                        if candidate not in seen:
                            seen.add(candidate)
                            new.append(candidate)
        frontier = new
    return seen


def _check_nf_against_oracle(ctx, words):
    table = _relation_table(ctx)
    canon_of = {}
    nf_of_class = {}
    for word in words:
        if word in canon_of:
            continue
        cls = _braid_class(ctx, word, table)
        canon = min(cls)
        forms = {garside_nf(ctx, w) for w in cls}
        assert len(forms) == 1, f"equivalent words got different normal forms: {canon}"
        nf = forms.pop()
        assert nf.delta_power * ctx.N + sum(map(len, nf.factors)) == len(word)
        for f in nf.factors:
            assert 1 <= len(f) <= ctx.N - 1
        nf_of_class[canon] = nf
        for w in cls:
            canon_of[w] = canon
    # distinct classes of the same length must get distinct normal forms
    by_nf = {}
    for canon, nf in nf_of_class.items():
        assert by_nf.setdefault(nf, canon) == canon, \
            f"inequivalent words share a normal form: {canon} vs {by_nf[nf]}"


def test_relation_orders():
    assert braid_relation_order(_ctx("A2"), 0, 1) == 3
    assert braid_relation_order(_ctx("B2"), 0, 1) == 4
    assert braid_relation_order(_ctx("G2"), 0, 1) == 6
    a3 = _ctx("A3")
    assert braid_relation_order(a3, 0, 2) == 2
    assert braid_relation_order(a3, 1, 2) == 3


def test_nf_matches_oracle_rank2_exhaustive():
    for label in ["A2", "B2", "G2"]:
        ctx = _ctx(label)
        words = [w for length in range(7)
                 for w in itertools.product(range(2), repeat=length)]
        _check_nf_against_oracle(ctx, words)


def test_nf_matches_oracle_random_rank34():
    rng = random.Random(7)
    for label, count, max_len in [("A3", 30, 8), ("B3", 20, 7), ("D4", 12, 6)]:
        ctx = _ctx(label)
        words = [
            tuple(rng.randrange(ctx.n_gens)
                  for _ in range(rng.randint(1, max_len)))
            for _ in range(count)
        ]
        _check_nf_against_oracle(ctx, words)


@functools.lru_cache(maxsize=None)
def _cached_ctx(label):
    return _ctx(label)


@settings(deadline=None, derandomize=True)
@given(st.data())
def test_nf_invariant_under_one_braid_relation(data):
    """The rank-2 to 4 oracle above never reaches the exceptional types; here
    one braid relation is applied inside random words of larger types."""
    ctx = _cached_ctx(data.draw(st.sampled_from(["E6", "E7", "E8", "F4", "2E6", "3D4"])))
    letters = st.lists(st.integers(0, ctx.n_gens - 1), max_size=16).map(tuple)
    u, v = data.draw(letters), data.draw(letters)
    i, j = data.draw(st.sampled_from(list(itertools.permutations(range(ctx.n_gens), 2))))
    m = braid_relation_order(ctx, i, j)
    nf = garside_nf(ctx, u + _alternating(i, j, m) + v)
    assert nf == garside_nf(ctx, u + _alternating(j, i, m) + v)
    assert nf.delta_power * ctx.N + sum(map(len, nf.factors)) == len(u) + m + len(v)


def test_nf_examples():
    ctx = _ctx("A2")
    assert garside_nf(ctx, ()) == GarsideNF(0, ())
    # one full twist absorbs into the Delta power, leaving a single letter
    assert garside_nf(ctx, (0, 1, 0, 1)) == GarsideNF(1, ((1,),))
    assert garside_nf(ctx, (0, 1) * 3) == GarsideNF(2, ())
    assert garside_nf(ctx, (0, 0)) == GarsideNF(0, ((0,), (0,)))
    with pytest.raises(ValueError):
        garside_nf(ctx, (0, 5))


def test_lambda_lift_is_word_independent():
    group = generate_weyl(cached_datum("B2"))
    ctx = group.ctx

    def reduced_words(perm):
        if perm == ctx.identity_perm:
            yield ()
            return
        for i in range(ctx.n_gens):
            if perm[i] >= ctx.N:  # s_i is a right descent
                shorter = ctx.compose(perm, ctx.gen_perms[i])
                for w in reduced_words(shorter):
                    yield w + (i,)

    for perm in map(group.perm, group.elements):
        forms = {garside_nf(ctx, w) for w in reduced_words(perm)}
        assert len(forms) == 1


def test_lambda_of_perm_braid_relation():
    ctx = _ctx("A2")
    a = garside_nf(ctx, (0, 1, 0))
    b = garside_nf(ctx, (1, 0, 1))
    assert a == b == GarsideNF(1, ())
    w0 = lambda_of_perm(ctx, longest_element_perm(ctx))
    assert len(w0) == ctx.N


def test_pi_equals_delta_squared_every_type():
    for label in ALL_LABELS:
        if label in ("E7", "E8"):
            continue  # covered by the acceptance suite; they take longer
        nf = pi_normal_form(_ctx(label))
        assert nf == GarsideNF(2, ())
    assert pi_normal_form(gl_context(4)) == GarsideNF(2, ())


def test_regular_identity_coxeter_a2():
    report = verify_regular_braid_identity(cached_datum("A2"), 3)
    assert report.witness_word is not None
    assert len(report.witness_word) == 2


def test_regular_identity_longest_element():
    report = verify_regular_braid_identity(cached_datum("A2"), 2)
    assert len(report.witness_word) == 3


def test_regular_identity_rank1():
    report = verify_regular_braid_identity(cached_datum("A1"), 2)
    assert report.witness_word == (0,)


def test_regular_identity_twisted():
    report = verify_regular_braid_identity(cached_datum("2A2"), 6)
    assert len(report.witness_word) == 1
    report = verify_regular_braid_identity(cached_datum("2A2"), 2)
    assert report.witness_word is not None


def test_regular_identity_b2_g2():
    for label, ds in [("B2", [2, 4]), ("G2", [2, 3, 6])]:
        for d in ds:
            report = verify_regular_braid_identity(cached_datum(label), d)
            assert report.witness_word is not None, (label, d)
            assert len(report.witness_word) == 2 * _ctx(label).N // d


def test_regular_identity_skips_zero_dimensional_eigenspaces(monkeypatch):
    """Only elements with a nonzero zeta_d-eigenspace get a cyclotomic
    kernel, and candidates_checked equals that of a scan over every element
    of the right length."""
    from lielocal.weyl import WeylGroup
    real = WeylGroup.eigenspace_basis
    kernels = []

    def counted(self, w, d):
        kernels.append((w, d))
        return real(self, w, d)

    for label, d in [("A3", 4), ("B3", 3), ("B3", 2), ("2A3", 6), ("G2", 6)]:
        datum = cached_datum(label)
        group = generate_weyl(datum)
        kernels.clear()
        monkeypatch.setattr(WeylGroup, "eigenspace_basis", counted)
        report = verify_regular_braid_identity(datum, d)
        monkeypatch.undo()
        dims = group.phi_d_dimensions(d)
        assert kernels and all(dims[w] for w, _ in kernels), (label, d)
        assert report.witness_word is not None, (label, d)
        scanned = 0
        for w in group.elements:
            word = group.word(w)
            if len(word) == 2 * group.ctx.N // d and group.is_regular_eigenspace(
                    group.eigenspace_basis(w, d)):
                scanned += 1
                if word == report.witness_word:
                    break
        assert report.candidates_checked == scanned, (label, d)


def test_regular_identity_runs_no_centralizer_check(monkeypatch):
    """The search prints no centralizer, so it builds none: with the
    centralizer scan and the eigenspace action refused, the reports are the
    ones recorded with the code that still ran the centralizer check."""
    from lielocal.weyl import WeylGroup

    def refuse(*args):
        raise AssertionError("centralizer work in the braid search")

    monkeypatch.setattr(WeylGroup, "centralizer_of_twisted", refuse)
    monkeypatch.setattr(WeylGroup, "_eigenspace_action", refuse)
    d6_witness = (0, 1, 0, 2, 1, 0, 3, 2, 1, 0, 4, 3, 2, 1, 0,
                  5, 3, 2, 1, 0, 4, 3, 2, 1, 5, 3, 2, 4, 3, 5)
    for label, d, witness in [("E6", 9, (0, 1, 2, 3, 1, 4, 3, 5)),
                              ("2E6", 18, (0, 1, 2, 3)),
                              ("G2", 6, (0, 1)),
                              ("D6", 2, d6_witness)]:
        report = verify_regular_braid_identity(cached_datum(label), d)
        assert (report.witness_word, report.candidates_checked) == (witness, 1), (label, d)
    with pytest.raises(ValueError, match="no regular element"):
        verify_regular_braid_identity(cached_datum("A2"), 4)


def test_regular_identity_no_regular_element():
    with pytest.raises(ValueError, match="no regular element"):
        verify_regular_braid_identity(cached_datum("A2"), 4)
    with pytest.raises(ValueError, match="no regular element"):
        verify_regular_braid_identity(cached_datum("A2"), 6)


def test_regular_identity_d1_has_no_witness():
    # the identity would need a word of length 2N, twice the longest element
    report = verify_regular_braid_identity(cached_datum("A2"), 1)
    assert report.witness_word is None
    assert report.to_json()["holds"] is False
    assert report.candidates_checked == 0


def test_regular_report_serialization():
    report = verify_regular_braid_identity(cached_datum("A2"), 3)
    data = report.to_json()
    assert data["type"] == "A2"
    assert data["d"] == 3
    assert data["holds"] is True
    assert data["witness_word"] in ([1, 2], [2, 1])


# ---------------------------------------------------------------------------
# Hecke algebra


def _algebra(label):
    return HeckeAlgebra(generate_weyl(cached_datum(label)))


def test_hecke_quadratic_relation():
    h = _algebra("A1")
    ts = h.generator(0)
    expected = ts.scaled({1: 1, 0: -1}) + h.unit().scaled({1: 1})
    assert ts * ts == expected


def test_hecke_unit_and_braid_relation():
    h = _algebra("A2")
    assert h.unit() * h.generator(0) == h.generator(0)
    lhs = h.generator(0) * h.generator(1) * h.generator(0)
    rhs = h.generator(1) * h.generator(0) * h.generator(1)
    assert lhs == rhs
    w0 = longest(h.group)
    assert lhs == h.basis_element(w0)


def test_hecke_from_word():
    h = _algebra("B2")
    for w in h.group.elements:
        word = h.group.word(w)
        product = h.unit()
        for letter in word:
            product = product * h.generator(letter)
        assert product == h.basis_element(w)


def test_hecke_associativity_exhaustive_rank2():
    for label in ["A2", "B2"]:
        h = _algebra(label)
        basis = [h.basis_element(w) for w in range(len(h.group))]
        for a in basis:
            for b in basis:
                ab = a * b
                for c in basis:
                    assert (ab) * c == a * (b * c)


def test_hecke_specialize_at_one_is_group_algebra():
    for label in ["A2", "B2"]:
        h = _algebra(label)
        group = h.group
        for a in range(len(group)):
            for b in range(len(group)):
                product = h.basis_element(a) * h.basis_element(b)
                values = specialize(product, 1)
                expected_index = multiply(group, a, b)
                nonzero = {w: v for w, v in values.items() if v != 0}
                assert nonzero == {expected_index: 1}, (label, a, b)


def test_hecke_specialize_minus_one():
    h = _algebra("A1")
    nilpotent = h.generator(0) + h.unit()
    squared = nilpotent * nilpotent
    values = specialize(squared, -1)
    assert all(v == 0 for v in values.values())


def test_hecke_specialize_modular():
    h = _algebra("A1")
    ts = h.generator(0)
    values = specialize(ts * ts, 4, modulus=3)
    identity_coeff = values[0]
    s_coeff = values[h.gen_index[0]]
    assert identity_coeff == 1  # x evaluates to 4 = 1 mod 3
    assert s_coeff == 0  # x - 1 evaluates to 0 mod 3


def test_hecke_specialize_rejects_noninvertible():
    h = _algebra("A1")
    ts = h.generator(0)
    with pytest.raises(ValueError):
        specialize(ts, 0)
    with pytest.raises(ValueError):
        specialize(ts, 2, modulus=4)
    with pytest.raises(ValueError):
        specialize(ts, 1, modulus=1)


def test_hecke_specialize_negative_exponent():
    h = _algebra("A1")
    inverse_x = h.unit().scaled({-1: 1})
    assert specialize(inverse_x, 2) == {0: Fraction(1, 2)}
    assert specialize(inverse_x, 2, modulus=5) == {0: 3}
    assert specialize(inverse_x, -1) == {0: -1}


def test_hecke_element_serialization():
    h = _algebra("A2")
    element = h.generator(0) * h.generator(0)
    data = element.to_json()
    assert data["coeffs"]["e"] == {"1": "1"}
    assert data["coeffs"]["1"] == {"0": "-1", "1": "1"}


def test_hecke_poincare_small_types():
    assert hecke_poincare("A2") == (1, 2, 2, 1)
    b2 = hecke_poincare("B2")
    assert b2 == (1, 2, 2, 2, 1)
    assert sum(b2) == 8
    assert hecke_poincare("2A2") == hecke_poincare("A2")
    assert sum(hecke_poincare("GL3")) == 6


def test_hecke_poincare_large_types_product_route():
    assert sum(hecke_poincare("E8")) == 696729600
    assert sum(hecke_poincare("E7")) == 2903040
    assert sum(hecke_poincare("F4")) == 1152
    with pytest.raises(ValueError):
        hecke_poincare("H3")


# ---------------------------------------------------------------------------
# the parabolic orbit chain that checks the degree product


@pytest.mark.parametrize("label", labels_of_rank(4) + [f"GL{n}" for n in range(1, 7)])
def test_orbit_chain_matches_enumeration(label):
    if label.startswith("GL"):
        n = int(label[2:])
        cartan, group = cartan_matrix("A", n - 1), gl_weyl(n)
    else:
        cartan, group = cached_datum(label).cartan, generate_weyl(cached_datum(label))
    assert _orbit_chain_poincare(cartan) == tuple(poincare_polynomial(group))


def test_every_label_is_checked_by_the_orbit_chain(monkeypatch):
    calls = []
    real = lielocal.braid_hecke._orbit_chain_poincare
    monkeypatch.setattr(lielocal.braid_hecke, "_orbit_chain_poincare",
                        lambda cartan: calls.append(cartan) or real(cartan))
    labels = list(EVERY_LABEL) + [f"GL{n}" for n in range(1, 10)]
    for label in labels:
        hecke_poincare(label)
    assert len(calls) == len(labels)


@pytest.mark.parametrize("label, wrong", [
    ("E8", [2, 6, 8, 10, 12, 14, 18, 30]),  # E7's degrees and a 30
    ("GL5", [2, 4, 6, 8]),  # B4's degrees for A4
])
def test_tampered_degrees_are_caught(label, wrong, monkeypatch, capsys):
    monkeypatch.setattr(lielocal.braid_hecke, "split_degrees", lambda family, rank: wrong)
    with pytest.raises(InvariantError):
        hecke_poincare(label)
    assert cli.main(["hecke", "poincare", label]) == 2
    assert "invariant violated" in capsys.readouterr().err


@pytest.mark.parametrize("label, at_one", [("GL9", "362880"), ("E8", "696729600")])
def test_poincare_cli_ends_within_five_seconds(label, at_one):
    result = subprocess.run(
        [sys.executable, "-m", "lielocal", "hecke", "poincare", label],
        capture_output=True, text=True, check=False, timeout=5)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["at_one"] == at_one
