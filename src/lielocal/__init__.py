"""Exact computation of generic local invariants of finite groups of Lie type.

The package computes, in exact arithmetic, structural invariants of the
finite groups G(q) attached to a root datum with Frobenius twist: generic
order polynomials and their ell-parts, defining-characteristic weight and
block combinatorics, Sylow ell-subgroup structure in non-defining
characteristic, Garside normal forms and regular-element identities in the
braid monoid, Poincaré polynomials, canonical bases of the level-one
Fock space, and Koszul-type degeneration certificates for elementary abelian
actions.
"""

__version__ = "0.1.0"
