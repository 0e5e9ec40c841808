"""l-local structure away from the defining characteristic.

For a prime l coprime to q, the Sylow l-subgroups of G(q) are governed by
the zeta_d-eigenspace of the twisted Weyl action on the weight lattice,
where d is the multiplicative order of q modulo l.  A torus S of order a
power of Phi_d(q) sits inside G with centralizer a Levi subgroup L; a
Sylow l-subgroup is then an extension of the l-part of Z(L)^F by a Sylow
l-subgroup of the reflection group W' attached to L.  In particular the
Sylow subgroup is abelian exactly when l does not divide |W'|.

This module computes that picture exactly over Q(zeta_d):

* the canonical eigenspace witness w (from the Weyl-group machinery),
* the root subsystem of L = roots whose coroot vanishes on the eigenspace,
* the orthogonal system: roots orthogonal to all of Phi_L that stabilize
  the eigenspace and act on it nontrivially, generating W',
* the abelianity criterion and the relative Weyl group order |C_W(w phi)|.

Both the root-datum groups and GL_n (symmetric group action on Z^n) are
supported; the latter has its own entry points taking n instead of a datum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycloField, cyclo_rref
from .errors import GuardExceeded, check
from .generic_order import CycloFactorization, ell_part, generic_order, gl_order
from .root_datum import RootDatum
from .weyl import WEYL_GUARD, WeylGroup, generate_weyl, gl_weyl, vanishes_on

__all__ = [
    "LeviData",
    "SylowReport",
    "centralizer_levi",
    "gl_centralizer_levi",
    "sylow_structure",
    "gl_sylow_structure",
]


# ---------------------------------------------------------------------------
# Levi data attached to the maximal zeta_d-eigenspace


@dataclass(frozen=True)
class LeviData:
    """Root-theoretic data of the centralizer Levi of a Phi_d-torus.

    root_subsystem lists the positive roots of L (those vanishing on the
    eigenspace); orthogonal_system lists the positive roots generating W'.
    Orders are computed by honest subgroup generation, not formulas.
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


def _reduce_against(field: CycloField, red_rows, pivots, vec):
    """Residual of vec after elimination by rref rows; zero iff in the span."""
    residual = list(vec)
    for row, p in zip(red_rows, pivots):
        c = residual[p]
        if field.nonzero(c):
            residual = field.sub_row(residual, c, row)
    return residual


def _reflection_image(field: CycloField, root, coroot, vec):
    """s_beta(v) = v - <v, beta^vee> beta, computed over K."""
    pairing = field.dot(coroot, vec)
    return tuple(field.sub(x, field.scale(b, pairing)) for x, b in zip(vec, root))


def _perm_closure(ctx, generators, guard: int) -> set[tuple[int, ...]]:
    """Subgroup of signed-root permutations generated by the given perms."""
    group = {ctx.identity_perm}
    frontier = [ctx.identity_perm]
    while frontier:
        new = []
        for p in frontier:
            for g in generators:
                q = ctx.compose(p, g)
                if q not in group:
                    group.add(q)
                    new.append(q)
        if len(group) > guard:
            raise GuardExceeded(f"subgroup closure exceeded guard {guard}")
        frontier = new
    return group


def _levi_of_group(group: WeylGroup, d: int, guard: int = WEYL_GUARD) -> LeviData:
    ctx = group.ctx
    witness, dim = group.max_phi_d_eigenspace(d)
    if dim == 0:
        raise ValueError(f"no Phi_{d}-torus in type {ctx.label}")
    field, basis = group.eigenspace_basis(witness.index, d)
    check(len(basis) == dim, "eigenspace basis size disagrees with its dimension")
    red_rows, pivots = cyclo_rref(field, [list(v) for v in basis])
    check(len(pivots) == dim, "eigenspace basis is not independent")

    levi_idx = [k for k in range(ctx.N) if vanishes_on(field, ctx.coroots[k], basis)]
    levi_set = set(levi_idx)

    orth_idx = []
    for k in range(ctx.N):
        if k in levi_set:
            continue
        if any(ctx.root_inner(k, j) != 0 for j in levi_idx):
            continue
        stabilizes = True
        acts_trivially = True
        for v in basis:
            image = _reflection_image(field, ctx.pos_roots[k], ctx.coroots[k], v)
            if image != tuple(v):
                acts_trivially = False
            residual = _reduce_against(field, red_rows, pivots, image)
            if not all(field.is_zero(x) for x in residual):
                stabilizes = False
                break
        if stabilizes and not acts_trivially:
            orth_idx.append(k)
    orth_set = set(orth_idx)

    # both root sets must be closed under their own reflections
    for name, idx_set in (("Levi", levi_set), ("orthogonal", orth_set)):
        for k in idx_set:
            perm = ctx.reflection_perm_of_root(k)
            for j in idx_set:
                image = perm[j] if perm[j] < ctx.N else perm[j] - ctx.N
                check(image in idx_set, f"{name} root set is not closed")

    w_l = _perm_closure(ctx, [ctx.reflection_perm_of_root(k) for k in levi_idx], guard)
    w_prime = _perm_closure(ctx, [ctx.reflection_perm_of_root(k) for k in orth_idx], guard)
    check(w_l & w_prime == {ctx.identity_perm},
          "Levi and orthogonal reflection groups overlap")

    return LeviData(
        label=ctx.label,
        d=d,
        eigenspace_dim=dim,
        witness_word=witness.word,
        root_subsystem=tuple(ctx.pos_roots[k] for k in levi_idx),
        w_L_order=len(w_l),
        orthogonal_system=tuple(ctx.pos_roots[k] for k in orth_idx),
        w_prime_order=len(w_prime),
    )


def centralizer_levi(datum: RootDatum, d: int, guard: int = WEYL_GUARD) -> LeviData:
    """Levi data of the maximal zeta_d-eigenspace witness for a root datum."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return _levi_of_group(generate_weyl(datum, guard), d, guard)


def gl_centralizer_levi(n: int, d: int, guard: int = WEYL_GUARD) -> LeviData:
    """Same as centralizer_levi for GL_n (S_n acting on Z^n)."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return _levi_of_group(gl_weyl(n, guard), d, guard)


# ---------------------------------------------------------------------------
# Sylow structure reports


@dataclass(frozen=True)
class SylowReport:
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
                    q: int, ell: int, guard: int) -> SylowReport:
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
    levi = _levi_of_group(group, d, guard)
    check(levi.eigenspace_dim == a_d,
          "maximal eigenspace dimension disagrees with the Phi_d-exponent")
    witness, _ = group.max_phi_d_eigenspace(d)
    relative = len(group.centralizer_of_twisted(witness.index))
    return SylowReport(
        label=label, ell=ell, q=q, d=d, nu=nu,
        abelian=(levi.w_prime_order % ell != 0),
        relative_weyl_order=relative,
        outside_hypotheses=outside,
        levi=levi,
    )


def sylow_structure(datum: RootDatum, q: int, ell: int,
                    guard: int = WEYL_GUARD) -> SylowReport:
    """Sylow l-subgroup shape of the finite group attached to a root datum.

    Rejects l dividing q (defining characteristic) and non-prime l via
    the order-polynomial l-part computation.
    """
    factorization = generic_order(datum)
    group = generate_weyl(datum, guard)
    return _sylow_of_group(group, factorization, q, ell, guard)


def gl_sylow_structure(n: int, q: int, ell: int,
                       guard: int = WEYL_GUARD) -> SylowReport:
    """Sylow l-subgroup shape of GL_n(q) for l coprime to q."""
    factorization = gl_order(n)
    group = gl_weyl(n, guard)
    return _sylow_of_group(group, factorization, q, ell, guard)
