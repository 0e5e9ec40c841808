"""l-local structure away from the defining characteristic.

For a prime l coprime to q, the Sylow l-subgroups of G(q) are governed by
the zeta_d-eigenspace of the twisted Weyl action on the weight lattice,
where d is the multiplicative order of q modulo l.  A torus S of order a
power of Phi_d(q) sits inside G with centralizer a Levi subgroup L; a
Sylow l-subgroup is then an extension of the l-part of Z(L)^F by a Sylow
l-subgroup of the reflection group W' attached to L.  In particular the
Sylow subgroup is abelian exactly when l does not divide |W'|.

This module computes that picture exactly over Q, on the rational kernel
of Phi_d(w phi) (:mod:`lielocal.weyl` says why that is exact):

* the canonical eigenspace witness w (from the Weyl-group machinery),
* the root subsystem of L = roots whose coroot vanishes on the eigenspace,
* the orthogonal system generating W': the roots beta whose reflection
  stabilizes the eigenspace and acts on it nontrivially.  That happens
  exactly when beta lies in the eigenspace, and a rational root can only
  do so when w phi fixes it (d = 1) or negates it (d = 2), so the system is
  read off the signed-root permutation of w phi and W' = 1 for d >= 3.
  Such roots pair to zero with every coroot of L, which is checked,
* the abelianity criterion and the relative Weyl group order |C_W(w phi)|.

Both the root-datum groups and GL_n (symmetric group action on Z^n) are
supported; ``gl_sylow_structure`` takes n instead of a datum.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import check
from .generic_order import CycloFactorization, ell_part, generic_order, gl_order
from .linalg import closure
from .root_datum import RootDatum
from .weyl import WeylGroup, generate_weyl, gl_weyl, vanishes_on


# ---------------------------------------------------------------------------
# Levi data attached to the maximal zeta_d-eigenspace


class LeviData(NamedTuple):
    """Root-theoretic data of the centralizer Levi of a Phi_d-torus.

    root_subsystem lists the positive roots of L (those whose coroot
    vanishes on the eigenspace); orthogonal_system lists the positive roots
    generating W': those w phi fixes when d = 1 or negates when d = 2, and
    none when d >= 3, where W' = 1.  Orders are computed by honest subgroup
    generation, not formulas.
    """

    label: str
    d: int
    eigenspace_dim: int
    witness_word: tuple[int, ...]
    root_subsystem: tuple[tuple[int, ...], ...]
    w_L_order: int
    orthogonal_system: tuple[tuple[int, ...], ...]
    w_prime_order: int

    def to_json(self) -> dict:
        return {
            "type": self.label,
            "d": self.d,
            "eigenspace_dim": self.eigenspace_dim,
            "witness_word": [i + 1 for i in self.witness_word],
            "root_subsystem": [list(r) for r in self.root_subsystem],
            "w_L_order": str(self.w_L_order),
            "orthogonal_system": [list(r) for r in self.orthogonal_system],
            "w_prime_order": str(self.w_prime_order),
        }


def _levi_of_group(group: WeylGroup, d: int) -> tuple[int, LeviData]:
    """(witness, Levi data) for the maximal zeta_d-eigenspace witness."""
    ctx = group.ctx
    witness, dim = group.max_phi_d_eigenspace(d)
    if dim == 0:
        raise ValueError(f"no Phi_{d}-torus in type {ctx.label}")
    basis = group.eigenspace_basis(witness, d)
    levi_idx = [k for k in range(ctx.N) if vanishes_on(ctx.coroots[k], basis)]

    # s_beta stabilizes the eigenspace E and moves it exactly when beta lies
    # in E.  A root is rational, so w phi must fix it (d = 1) or negate it
    # (d = 2); for d >= 3 no root lies in E.
    sigma = ctx.compose(group.perm(witness), ctx.phi_perm)
    shift = {1: 0, 2: ctx.N}.get(d)
    orth_idx = [] if shift is None else [k for k in range(ctx.N) if sigma[k] == k + shift]
    check(all(ctx.pairing(k, j) == 0 for k in orth_idx for j in levi_idx),
          "an orthogonal root pairs with a Levi coroot")

    reflection = {k: ctx.reflection_perm_of_root(k) for k in levi_idx + orth_idx}
    # both root sets must be closed under their own reflections
    for name, idx in (("Levi", levi_idx), ("orthogonal", orth_idx)):
        idx_set = set(idx)
        for k in idx:
            perm = reflection[k]
            for j in idx:
                image = perm[j] if perm[j] < ctx.N else perm[j] - ctx.N
                check(image in idx_set, f"{name} root set is not closed")

    # subgroups of the enumerated W, so they need no guard of their own
    w_l = closure((ctx.identity_perm,), [reflection[k] for k in levi_idx], ctx.compose)
    w_prime = closure((ctx.identity_perm,), [reflection[k] for k in orth_idx], ctx.compose)
    check(w_l & w_prime == {ctx.identity_perm},
          "Levi and orthogonal reflection groups overlap")

    return witness, LeviData(
        label=ctx.label,
        d=d,
        eigenspace_dim=dim,
        witness_word=group.word(witness),
        root_subsystem=tuple(ctx.pos_roots[k] for k in levi_idx),
        w_L_order=len(w_l),
        orthogonal_system=tuple(ctx.pos_roots[k] for k in orth_idx),
        w_prime_order=len(w_prime),
    )


# ---------------------------------------------------------------------------
# Sylow structure reports


class SylowReport(NamedTuple):
    """Shape of a Sylow l-subgroup of G(q) for l coprime to q.

    nu is the exact l-adic valuation of |G(q)|; abelian is decided by
    l | |W'|; relative_weyl_order is |C_W(w phi)| for the eigenspace
    witness, whose eigenspace dimension is checked against the
    Phi_d-exponent of the order polynomial.  Primes l <= 3 are computed
    but stamped outside_hypotheses, since small primes can be bad for the
    ambient group.  levi is None exactly when the Sylow subgroup is trivial.
    """

    label: str
    ell: int
    q: int
    d: int
    nu: int
    abelian: bool
    relative_weyl_order: int
    outside_hypotheses: bool
    levi: LeviData | None

    def to_json(self) -> dict:
        return {
            "type": self.label,
            "ell": self.ell,
            "q": str(self.q),
            "d": self.d,
            "nu": str(self.nu),
            "abelian": self.abelian,
            "relative_weyl_order": str(self.relative_weyl_order),
            "outside_hypotheses": self.outside_hypotheses,
            "levi": None if self.levi is None else self.levi.to_json(),
        }


def _sylow_of_group(group: WeylGroup, factorization: CycloFactorization,
                    q: int, ell: int) -> SylowReport:
    d, nu = ell_part(factorization, q, ell)
    a_d = factorization.exponent(d)
    outside = ell <= 3
    label = group.ctx.label
    if a_d == 0:
        check(nu == 0, "order polynomial has no Phi_d factor but a positive l-part")
        return SylowReport(
            label=label, ell=ell, q=q, d=d, nu=0, abelian=True,
            relative_weyl_order=1, outside_hypotheses=outside,
            levi=None,
        )
    witness, levi = _levi_of_group(group, d)
    check(levi.eigenspace_dim == a_d,
          "maximal eigenspace dimension disagrees with the Phi_d-exponent")
    relative = len(group.centralizer_of_twisted(witness))
    return SylowReport(
        label=label, ell=ell, q=q, d=d, nu=nu,
        abelian=(levi.w_prime_order % ell != 0),
        relative_weyl_order=relative,
        outside_hypotheses=outside,
        levi=levi,
    )


def sylow_structure(datum: RootDatum, q: int, ell: int) -> SylowReport:
    """Sylow l-subgroup shape of the finite group attached to a root datum.

    Rejects l dividing q (defining characteristic) and non-prime l via
    the order-polynomial l-part computation.
    """
    factorization = generic_order(datum)
    return _sylow_of_group(generate_weyl(datum), factorization, q, ell)


def gl_sylow_structure(n: int, q: int, ell: int) -> SylowReport:
    """Sylow l-subgroup shape of GL_n(q) for l coprime to q."""
    factorization = gl_order(n)
    return _sylow_of_group(gl_weyl(n), factorization, q, ell)
