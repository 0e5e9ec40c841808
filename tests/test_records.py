"""The contract of the package's result records: each is built by keyword
from its fields, compares by value and refuses assignment.

Every record is taken from a small real computation, then rebuilt by
keyword from the field names listed here, so a renamed, reordered, added or
dropped field fails, and so does a record that compares by identity.
"""

import inspect

import pytest

from lielocal.braid_hecke import (
    GarsideNF,
    RegularBraidReport,
    garside_nf,
    verify_regular_braid_identity,
)
from lielocal.defining_char import (
    AlperinEntry,
    AlperinReport,
    BlockData,
    BlockReport,
    CenterDual,
    KnorrRobinsonReport,
    LemmaEntry,
    LemmaReport,
    alperin_weights,
    block_partition,
    knorr_robinson_sum,
    lemma_counts,
)
from lielocal.degeneration import (
    AbelianLGroup,
    DegenerationIsomorphism,
    DGReport,
    RadicalSection,
    TruncatedAlgebra,
    build_isomorphism,
    dg_cohomology_check,
)
from lielocal.ell_local import LeviData, SylowReport, sylow_structure
from lielocal.fock_llt import FockMatrix, llt_canonical_basis
from lielocal.generic_order import CycloFactorization, generic_order
from lielocal.root_datum import RootDatum, cached_datum
from lielocal.weyl import RegularReport, TwistedClass, generate_weyl
from test_degeneration import SWAP_2

FIELDS = {
    RootDatum: "label rank cartan phi pos_roots pos_coroots symmetrizer",
    CycloFactorization: "label rank qpower exponents factor_pairs",
    TwistedClass: "members word twisted",
    RegularReport: "d witness witness_word eigenspace_dim centralizer_order",
    LeviData: "eigenspace_dim witness_word root_subsystem w_L_order "
              "orthogonal_system w_prime_order",
    SylowReport: "label ell q d nu abelian relative_weyl_order outside_hypotheses levi",
    GarsideNF: "delta_power factors",
    RegularBraidReport: "label d witness_word candidates_checked",
    FockMatrix: "n d labels entries",
    CenterDual: "invariants transform_rows",
    BlockData: "zeta size members",
    BlockReport: "label q center blocks steinberg",
    LemmaEntry: "zeta count equal_to_principal criterion",
    LemmaReport: "label q center entries strata",
    AlperinEntry: "subset levi size members",
    AlperinReport: "label q entries",
    KnorrRobinsonReport: "label q head_term chain_terms",
    AbelianLGroup: "ell factors e_generators",
    TruncatedAlgebra: "ell moduli",
    RadicalSection: "group images e_order",
    DegenerationIsomorphism: "section",
    DGReport: "ell factors degree_bound h0_dims complete",
}


def _records() -> list:
    datum = cached_datum("A2")
    group = generate_weyl(datum)
    sylow = sylow_structure(datum, 2, 7)
    blocks = block_partition(datum, 2)
    lemma = lemma_counts(datum, 2)
    alperin = alperin_weights(datum, 2)
    p = AbelianLGroup(ell=3, factors=((1, 2),), e_generators=(SWAP_2,))
    iso = build_isomorphism(p)
    return [
        datum, generic_order(datum), group.f_conjugacy_classes()[1],
        group.regular_elements(3), sylow.levi, sylow, garside_nf(group.ctx, (0, 1, 0)),
        verify_regular_braid_identity(datum, 3), llt_canonical_basis(3, 2),
        blocks.center, blocks.blocks[0], blocks, lemma.entries[0], lemma,
        alperin.entries[0], alperin, knorr_robinson_sum(datum, 2),
        p, TruncatedAlgebra.of_group(p), iso.section, iso,
        dg_cohomology_check(p, 6),
    ]


def test_every_record_is_listed_once():
    assert sorted(type(r).__name__ for r in _records()) == sorted(c.__name__ for c in FIELDS)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_contract(record):
    cls = type(record)
    names = FIELDS[cls].split()
    assert list(inspect.signature(cls).parameters) == names
    values = {name: getattr(record, name) for name in names}
    rebuilt = cls(**values)
    assert rebuilt == record and not rebuilt != record
    assert rebuilt is not record
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[name])
    assert {name: getattr(record, name) for name in names} == values


def test_validated_records_compare_and_hash_by_value():
    group = AbelianLGroup(3, ((1, 2),), (SWAP_2,))
    same = AbelianLGroup(ell=3, factors=((1, 2),), e_generators=(SWAP_2,))
    assert group == same and hash(group) == hash(same)
    assert group != AbelianLGroup(ell=3, factors=((1, 2),))
    assert group != (3, ((1, 2),), (SWAP_2,))
    with pytest.raises(AttributeError):
        del group.ell
    algebra = TruncatedAlgebra.of_group(group)
    assert algebra == TruncatedAlgebra(ell=3, moduli=(3, 3))
    assert hash(algebra) == hash(TruncatedAlgebra(3, (3, 3)))
    assert algebra != TruncatedAlgebra(ell=3, moduli=(3, 9))
    assert algebra.hilbert_series is algebra.hilbert_series


def test_block_index_is_computed_once():
    group = AbelianLGroup(ell=2, factors=((1, 2), (2, 1)))
    assert "block_index" not in vars(group)
    assert group.block_index is group.block_index == (0, 0, 1)
