"""Defining-characteristic structure: central characters, blocks, strata,
weight tallies, and the alternating chain sum."""

import itertools
import time

import pytest
from lie_oracle import knorr_robinson_chains, stratum_members_by_weight, stratum_of

from lielocal import defining_char
from lielocal.defining_char import (
    alperin_weights,
    block_partition,
    center_dual,
    knorr_robinson_sum,
    lemma_counts,
    phi_orbits,
    phi_stable_subsets,
    steinberg_weight,
    stratum_members,
    stratum_size,
)
from lielocal.errors import GuardExceeded, InvariantError
from lielocal.root_datum import ALL_LABELS, cached_datum, labels_of_rank

ORACLE_Q = (2, 3, 4, 5, 7)


def restricted_weights(datum, q):
    """Every q-restricted weight, in lexicographic order."""
    return itertools.product(range(q), repeat=datum.rank)


def levi_irreducible_count(datum, q, levi_subset):
    """The Levi count of a twist-stable subset, through the orbit bitmask
    that knorr_robinson_sum hands to ``_levi_count``."""
    orbits = phi_orbits(datum)
    mask = sum(1 << k for k, orbit in enumerate(orbits) if orbit[0] in levi_subset)
    return defining_char._levi_count([len(o) for o in orbits], q, mask)


def _enumerated_counts(datum, q):
    """Test-only oracle: the per-character direct count and the per-stratum
    (I, |X'_I|, c_I) triples, by enumerating every weight and applying
    gamma to it."""
    center = center_dual(datum, q)
    st = steinberg_weight(datum, q)
    direct = {z: 0 for z in center.elements()}
    for lam in restricted_weights(datum, q):
        if lam != st:
            direct[center.gamma(lam)] += 1
    strata = []
    for subset in phi_stable_subsets(datum):
        if not subset:
            continue
        members = list(stratum_members(datum, q, subset))
        kernel = sum(1 for lam in members if center.gamma(lam) == center.zero())
        strata.append((subset, len(members), kernel))
    return direct, strata


def test_phi_orbits():
    assert phi_orbits(cached_datum("A3")) == ((0,), (1,), (2,))
    assert phi_orbits(cached_datum("2A3")) == ((0, 2), (1,))
    assert phi_orbits(cached_datum("2A4")) == ((0, 3), (1, 2))
    assert phi_orbits(cached_datum("3D4")) == ((0, 2, 3), (1,))
    assert phi_orbits(cached_datum("2D4")) == ((0,), (1,), (2, 3))


def test_phi_stable_subsets():
    assert phi_stable_subsets(cached_datum("A2")) == [
        (), (0,), (1,), (0, 1)]
    assert phi_stable_subsets(cached_datum("2A2")) == [(), (0, 1)]
    assert phi_stable_subsets(cached_datum("3D4")) == [
        (), (1,), (0, 2, 3), (0, 1, 2, 3)]


def test_center_dual_sl2():
    cd = center_dual(cached_datum("A1"), 5)
    assert cd.invariants == (2,)
    assert cd.gamma((0,)) == (0,)
    assert cd.gamma((1,)) in ((1,),)
    assert cd.gamma((2,)) == (0,)
    assert cd.gamma((4,)) == (0,)
    assert cd.size == 2


def test_center_dual_sizes():
    # SL_n: gcd(n, q-1); SU_n: gcd(n, q+1); Sp_2n: gcd(2, q-1)
    assert center_dual(cached_datum("A2"), 4).size == 3
    assert center_dual(cached_datum("A2"), 2).size == 1
    assert center_dual(cached_datum("A2"), 7).size == 3
    assert center_dual(cached_datum("A3"), 5).size == 4
    assert center_dual(cached_datum("2A2"), 2).size == 3
    assert center_dual(cached_datum("2A2"), 5).size == 3
    assert center_dual(cached_datum("2A3"), 3).size == 4
    assert center_dual(cached_datum("C2"), 3).size == 2
    assert center_dual(cached_datum("C2"), 2).size == 1
    assert center_dual(cached_datum("B3"), 3).size == 2
    assert center_dual(cached_datum("G2"), 5).size == 1
    assert center_dual(cached_datum("F4"), 3).size == 1
    assert center_dual(cached_datum("3D4"), 3).size == 1
    assert center_dual(cached_datum("E6"), 4).size == 3
    assert center_dual(cached_datum("2E6"), 2).size == 3
    assert center_dual(cached_datum("D4"), 3).size == 4
    assert center_dual(cached_datum("2D4"), 3).size == 2


def test_center_dual_twist_relation():
    # q * gamma(omega_{phi(i)}) = gamma(omega_i), exercised for a twisted type
    cd = center_dual(cached_datum("2A2"), 2)
    g0 = cd.gamma((1, 0))
    g1 = cd.gamma((0, 1))
    assert tuple((2 * x) % s for x, s in zip(g1, cd.invariants)) == g0


def test_restricted_weights_and_guard():
    # the blocks list every weight but the Steinberg weight, and the strata
    # list every weight
    datum = cached_datum("A2")
    blocks = [lam for b in block_partition(datum, 3).blocks for lam in b.members]
    strata = [lam for e in alperin_weights(datum, 3).entries for lam in e.members]
    weights = sorted(strata)
    assert len(weights) == 9
    assert weights[0] == (0, 0)
    assert weights[-1] == (2, 2)
    assert weights == sorted(blocks + [steinberg_weight(datum, 3)])
    for listing in (block_partition, alperin_weights):
        with pytest.raises(GuardExceeded):
            listing(cached_datum("E8"), 9)
        with pytest.raises(ValueError):
            listing(datum, 6)


def test_steinberg_and_strata():
    datum = cached_datum("A2")
    st = steinberg_weight(datum, 4)
    assert st == (3, 3)
    assert stratum_of(datum, 4, st) == ()
    assert stratum_of(datum, 4, (1, 3)) == (0,)
    assert stratum_of(datum, 4, (3, 0)) == (1,)
    assert stratum_of(datum, 4, (1, 1)) == (0, 1)
    # twisted: any support inside an orbit pulls in the whole orbit
    tw = cached_datum("2A2")
    assert stratum_of(tw, 4, (1, 3)) == (0, 1)


def test_stratum_sizes_partition():
    for label in ("A1", "A2", "2A2", "C2", "A3", "2A3", "G2", "3D4"):
        datum = cached_datum(label)
        for q in (2, 3, 4):
            total = 0
            for subset in phi_stable_subsets(datum):
                size = stratum_size(datum, q, subset)
                members = list(stratum_members(datum, q, subset))
                assert len(members) == size
                assert all(stratum_of(datum, q, lam) == subset for lam in members)
                total += size
            assert total == q**datum.rank


@pytest.mark.parametrize("label", ALL_LABELS)
def test_stratum_members_match_the_weight_by_weight_oracle(label):
    datum = cached_datum(label)
    for q in (2, 3, 4):
        if q**datum.rank > 70000:
            continue
        for subset in phi_stable_subsets(datum):
            assert list(stratum_members(datum, q, subset)) == \
                list(stratum_members_by_weight(datum, q, subset)), (q, subset)


def test_twisted_strata_list_in_orbit_value_order():
    # orbits (0, 2) and (1,): the middle coordinate runs fastest
    members = list(stratum_members(cached_datum("2A3"), 3, (0, 1, 2)))
    assert members[:3] == [(0, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert members[-1] == (2, 1, 1)
    with pytest.raises(InvariantError, match="union of twist-orbits"):
        stratum_members(cached_datum("2A3"), 3, (0, 1))


def test_stratum_listing_is_checked_against_the_closed_form(monkeypatch):
    monkeypatch.setattr(defining_char, "stratum_size",
                        lambda *args: stratum_size(*args) + 1)
    with pytest.raises(InvariantError, match="disagrees with the closed form"):
        alperin_weights(cached_datum("A2"), 3)


def test_block_partition_sl2_q5():
    report = block_partition(cached_datum("A1"), 5)
    assert report.center.invariants == (2,)
    assert report.steinberg == (4,)
    sizes = {b.zeta: b.size for b in report.blocks}
    assert sizes == {(0,): 2, (1,): 2}
    members = {b.zeta: set(b.members) for b in report.blocks}
    assert members[report.center.gamma((0,))] == {(0,), (2,)}
    assert members[report.center.gamma((1,))] == {(1,), (3,)}


def test_block_partition_sl3_q4():
    report = block_partition(cached_datum("A2"), 4)
    assert report.center.size == 3
    assert sorted(b.size for b in report.blocks) == [5, 5, 5]
    assert report.steinberg == (3, 3)
    total = sum(b.size for b in report.blocks) + 1
    assert total == 16


def test_block_partition_sp4_q3():
    report = block_partition(cached_datum("C2"), 3)
    assert report.center.size == 2
    assert sorted(b.size for b in report.blocks) == [3, 5]
    principal = report.block_of(report.center.zero())
    assert principal.size == 5


def test_block_partition_su3_q2():
    report = block_partition(cached_datum("2A2"), 2)
    assert report.center.size == 3
    assert sorted(b.size for b in report.blocks) == [1, 1, 1]
    assert report.steinberg == (1, 1)


def test_block_json():
    report = block_partition(cached_datum("A1"), 3)
    data = report.to_json()
    assert data["type"] == "A1"
    assert data["q"] == "3"
    assert data["steinberg"] == {"weight": [2], "defect_zero": True}
    assert data["total_weights"] == "3"


def _entry(report, zeta):
    """The entry of a LemmaReport for the center-dual character zeta."""
    return next(e for e in report.entries if e.zeta == zeta)


def test_lemma_counts_sl2_q5():
    report = lemma_counts(cached_datum("A1"), 5)
    e0 = _entry(report, (0,))
    e1 = _entry(report, (1,))
    assert (e0.count, e1.count) == (2, 2)
    assert e1.equal_to_principal and e1.criterion


def test_lemma_counts_sp4_q3():
    report = lemma_counts(cached_datum("C2"), 3)
    e0 = _entry(report, (0,))
    e1 = _entry(report, (1,))
    assert e0.count == 5
    assert e1.count == 3
    assert not e1.equal_to_principal and not e1.criterion


def test_lemma_counts_su3_q2():
    report = lemma_counts(cached_datum("2A2"), 2)
    for e in report.entries:
        assert e.count == 1
        assert e.equal_to_principal and e.criterion


def test_lemma_counts_grid_consistency():
    for label in ("A1", "A2", "A3", "2A2", "2A3", "C2", "G2"):
        datum = cached_datum(label)
        for q in (2, 3, 4, 5):
            report = lemma_counts(datum, q)
            assert sum(sz for _, sz, _ in report.strata) == q**datum.rank - 1
            for e in report.entries:
                assert e.count <= _entry(report, report.center.zero()).count
                assert e.equal_to_principal == e.criterion, (label, q, e)


def test_equality_characterization_type_a():
    # all blocks match the principal one exactly when n is a power of ell
    # dividing q - eps (SL: eps = +1, SU: eps = -1)
    cases = [
        ("A1", 5, True),    # n = 2 = ell, 2 | 4
        ("A1", 4, True),    # center trivial, vacuous
        ("A2", 4, True),    # n = 3, 3 | 3
        ("A2", 7, True),    # n = 3, 3 | 6
        ("A3", 5, True),    # n = 4 = 2^2, 2 | 4
        ("A3", 3, False),   # center Z/2: 4 = 2^2 but q - 1 = 2: 2 | 2 -> true?
        ("2A2", 2, True),   # n = 3, 3 | q + 1 = 3
        ("2A2", 4, False),  # center Z/gcd(3,5) trivial -> vacuous true
        ("C2", 3, False),   # not type A with nontrivial center
        ("C2", 5, False),
    ]
    for label, q, _ in cases:
        report = lemma_counts(cached_datum(label), q)
        flags = [e.equal_to_principal for e in report.entries]
        crits = [e.criterion for e in report.entries]
        assert flags == crits, (label, q)


def test_alperin_table_sl2():
    report = alperin_weights(cached_datum("A1"), 4)
    by_subset = {e.subset: e for e in report.entries}
    assert by_subset[()].size == 1
    assert by_subset[()].members == ((3,),)
    assert by_subset[(0,)].size == 3
    assert by_subset[(0,)].levi == ()
    assert by_subset[()].levi == (0,)
    assert sum(e.size for e in report.entries) == 4


def test_alperin_table_su3():
    report = alperin_weights(cached_datum("2A2"), 3)
    by_subset = {e.subset: e for e in report.entries}
    assert set(by_subset) == {(), (0, 1)}
    assert by_subset[()].size == 1
    assert by_subset[(0, 1)].size == 8
    assert sum(e.size for e in report.entries) == 9


def test_levi_irreducible_counts():
    datum = cached_datum("A2")
    q = 2
    assert levi_irreducible_count(datum, q, ()) == (q - 1) ** 2
    assert levi_irreducible_count(datum, q, (0,)) == q * (q - 1)
    assert levi_irreducible_count(datum, q, (0, 1)) == q * q
    tw = cached_datum("2A2")
    assert levi_irreducible_count(tw, 2, ()) == 2 * 2 - 1
    assert levi_irreducible_count(tw, 2, (0, 1)) == 4


def _chain_sum(report):
    """The alternating chain sum of a KnorrRobinsonReport, from its terms."""
    return report.head_term + sum(t for _, t in report.chain_terms)


def test_knorr_robinson_sl2():
    for q in (2, 3, 4, 5, 7, 8, 9):
        report = knorr_robinson_sum(cached_datum("A1"), q)
        assert report.head_term == q - 1
        assert dict(report.chain_terms) == {1: -(q - 1)}
        assert _chain_sum(report) == 0


def test_knorr_robinson_sl3_q2():
    report = knorr_robinson_sum(cached_datum("A2"), 2)
    assert report.head_term == 3
    assert dict(report.chain_terms) == {1: -5, 2: 2}
    assert _chain_sum(report) == 0


def test_knorr_robinson_su3_q2():
    report = knorr_robinson_sum(cached_datum("2A2"), 2)
    assert report.head_term == 3
    assert dict(report.chain_terms) == {1: -3}
    assert _chain_sum(report) == 0


def test_knorr_robinson_grid():
    for label in ("A1", "A2", "A3", "2A2", "2A3", "B2", "C2", "G2", "B3",
                  "C3", "D3", "2D3", "3D4", "D4", "2D4", "F4"):
        for q in (2, 3, 4, 5):
            assert _chain_sum(knorr_robinson_sum(cached_datum(label), q)) == 0, \
                (label, q)


def test_knorr_robinson_large_rank():
    # closed forms only, no weight enumeration: big rank stays cheap
    assert _chain_sum(knorr_robinson_sum(cached_datum("E8"), 7)) == 0
    assert _chain_sum(knorr_robinson_sum(cached_datum("2E6"), 3)) == 0


@pytest.mark.parametrize("label", labels_of_rank(4))
def test_knorr_robinson_matches_the_chain_listing_oracle(label):
    datum = cached_datum(label)
    for q in (2, 3, 4):
        assert dict(knorr_robinson_sum(datum, q).chain_terms) == \
            knorr_robinson_chains(datum, q), q


def test_knorr_robinson_total_is_checked(monkeypatch):
    real = defining_char._levi_count
    monkeypatch.setattr(defining_char, "_levi_count",
                        lambda sizes, q, levi: real(sizes, q, levi) + (levi == 0))
    with pytest.raises(InvariantError, match="chain sum"):
        knorr_robinson_sum(cached_datum("A2"), 2)


def test_reports_serialize():
    lemma = lemma_counts(cached_datum("C2"), 3).to_json()
    assert lemma["entries"][0]["formula_count"] == lemma["entries"][0]["direct_count"] == "5"
    alperin = alperin_weights(cached_datum("A1"), 3).to_json()
    assert alperin["total"] == "3"
    kr = knorr_robinson_sum(cached_datum("A2"), 2).to_json()
    assert kr["total"] == "0"


@pytest.mark.parametrize("label", labels_of_rank(4))
def test_lemma_counts_match_the_enumeration_oracle(label):
    datum = cached_datum(label)
    for q in ORACLE_Q:
        report = lemma_counts(datum, q)
        direct, strata = _enumerated_counts(datum, q)
        assert {e.zeta: e.count for e in report.entries} == direct, q
        assert list(report.strata) == strata, q


@pytest.mark.parametrize("label", labels_of_rank(4))
def test_block_partition_matches_the_enumeration_oracle(label):
    datum = cached_datum(label)
    for q in ORACLE_Q:
        report = block_partition(datum, q)
        center = report.center
        st = steinberg_weight(datum, q)
        expected = {z: [] for z in center.elements()}
        for lam in restricted_weights(datum, q):
            if lam != st:
                expected[center.gamma(lam)].append(lam)
        assert [b.zeta for b in report.blocks] == sorted(expected), q
        for block in report.blocks:
            assert list(block.members) == expected[block.zeta], (q, block.zeta)
            assert block.size == len(block.members)


@pytest.mark.parametrize("label, q", [("E8", 10**9 + 7), ("A8", 2**61 - 1)])
def test_lemma_counts_beyond_the_weight_guard_end_quickly(label, q):
    datum = cached_datum(label)
    assert q**datum.rank > defining_char.WEIGHT_GUARD
    started = time.perf_counter()
    report = lemma_counts(datum, q)
    assert time.perf_counter() - started < 5.0
    assert sum(e.count for e in report.entries) == q**datum.rank - 1
    assert sum(size for _, size, _ in report.strata) == q**datum.rank - 1


def test_listing_still_guarded():
    with pytest.raises(GuardExceeded):
        block_partition(cached_datum("E8"), 9)
    with pytest.raises(GuardExceeded):
        alperin_weights(cached_datum("E8"), 9)


def test_block_sizes_are_checked_against_the_convolution(monkeypatch):
    real = defining_char._weight_counts

    def off_by_one(*args):
        counts = real(*args)
        counts[-1] += 1
        return counts

    monkeypatch.setattr(defining_char, "_weight_counts", off_by_one)
    with pytest.raises(InvariantError, match="the convolution counts"):
        block_partition(cached_datum("A2"), 4)
    # the stratified side is computed apart from the direct side, so a wrong
    # direct count is caught there too
    with pytest.raises(InvariantError, match="stratified count"):
        lemma_counts(cached_datum("A2"), 4)


@pytest.mark.parametrize("count", [alperin_weights, lemma_counts])
def test_a_missing_stratum_trips_the_partition_check(monkeypatch, count):
    # each stratum still agrees with its closed form, but without the last
    # one the strata no longer add up to the q^rank restricted weights
    real = defining_char.phi_stable_subsets
    monkeypatch.setattr(defining_char, "phi_stable_subsets",
                        lambda datum: real(datum)[:-1])
    with pytest.raises(InvariantError,
                       match="strata must partition the restricted weights"):
        count(cached_datum("2A3"), 3)
