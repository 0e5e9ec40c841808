"""Positive braid monoids, Garside normal forms, and Poincaré polynomials.

The positive braid monoid of a finite Weyl group W has one generator b_s per
simple reflection, subject only to the braid relations.  Every element of W
lifts canonically: lambda(w) = b_{s_1} ... b_{s_r} for any reduced word, the
result being independent of the choice.  The lift Delta = lambda(w_0) of the
longest element is a Garside element; every positive braid has a unique
left-greedy normal form Delta^k x_1 ... x_m with each x_i the lift of a
nontrivial group element, adjacent pairs left-weighted, and no x_i = Delta.

A positive word is a plain tuple of generator indices, and
``garside_nf(ctx, letters)`` takes it as it is.  Simple factors are
represented by their signed-root permutations, so words in E_7 or E_8
normalize fine without enumerating the group.  The full braid group (with
inverses) is out of scope.

The element pi = Delta^2 = lambda(w_0)^2 generates the center; the module
verifies the twisted regular power identity (lambda(w) phi)^d = pi phi^d by
expanding the left side letter-wise and comparing normal forms.

The Poincaré polynomial sum_w x^{l(w)} is the Hecke-algebra datum the
package computes: an ordinary coefficient tuple, constant term first, as
every polynomial of ``cyclotomic`` is.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .errors import check
from .cyclotomic import poly_mul
from .root_datum import RootDatum, cartan_matrix, gl_rank, parse_label, split_degrees
from .weyl import ReflectionContext, generate_weyl, orbit_chain_poincare


# ---------------------------------------------------------------------------
# Garside normal form


class GarsideNF(NamedTuple):
    """Left-greedy normal form Delta^k x_1 ... x_m.

    Factors are stored as the lexicographically least reduced words of the
    underlying group elements, so equal monoid elements compare equal.
    """

    delta_power: int
    factors: tuple[tuple[int, ...], ...]


def _make_left_weighted(ctx, u, v):
    """Slide simple left-divisors of v into u until the pair is left-weighted.

    Returns (u', v', changed); u' v' = u v in the monoid because each step
    replaces (u, v) by (us, sv) with l(us) = l(u)+1 and l(sv) = l(v)-1.
    """
    changed = False
    while True:
        # left descents of v are the right descents of its inverse
        movable = ctx.right_descents(ctx.invert(v)) - ctx.right_descents(u)
        if not movable:
            return u, v, changed
        s = min(movable)
        u = ctx.compose(u, ctx.gen_perms[s])
        v = ctx.compose(ctx.gen_perms[s], v)
        changed = True


def garside_nf(ctx: ReflectionContext, letters: tuple[int, ...]) -> GarsideNF:
    """Normal form of the positive word ``letters`` (generator indices), by
    letter-at-a-time insertion with leftward cascading."""
    for letter in letters:
        if not 0 <= letter < ctx.n_gens:
            raise ValueError(f"letter {letter} out of range")
    factors: list[bytes] = []
    for letter in letters:
        factors.append(ctx.gen_perms[letter])
        i = len(factors) - 1
        while i > 0:
            u, v, changed = _make_left_weighted(ctx, factors[i - 1], factors[i])
            if not changed:
                break
            factors[i - 1] = u
            if v == ctx.identity_perm:
                factors.pop(i)
            else:
                factors[i] = v
            i -= 1
    delta = 0
    while factors and ctx.length(factors[0]) == ctx.N:
        factors.pop(0)
        delta += 1
    # the result must be left-weighted everywhere; cheap to re-verify
    for a, b in zip(factors, factors[1:]):
        _, _, changed = _make_left_weighted(ctx, a, b)
        check(not changed, "normal form is not left-weighted")
    return GarsideNF(
        delta_power=delta,
        factors=tuple(ctx.word_from_perm(p) for p in factors),
    )


# ---------------------------------------------------------------------------
# Regular-element power identity


class RegularBraidReport(NamedTuple):
    """Outcome of searching d-regular elements w of length 2N/d for the
    identity lambda(w) phi(lambda(w)) ... phi^{d-1}(lambda(w)) = pi: it
    holds exactly when a witness was found."""

    label: str
    d: int
    witness_word: tuple[int, ...] | None
    candidates_checked: int

    def to_json(self) -> dict:
        return {
            "type": self.label,
            "d": self.d,
            "holds": self.witness_word is not None,
            "witness_word": None if self.witness_word is None
            else [i + 1 for i in self.witness_word],
            "candidates_checked": self.candidates_checked,
        }


def verify_regular_braid_identity(datum: RootDatum, d: int) -> RegularBraidReport:
    """Search the d-regular elements of the right length for the twisted
    power identity, comparing Garside normal forms of positive words."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    group = generate_weyl(datum)
    ctx = group.ctx
    witnesses = list(group.regular_witnesses(d))
    if not witnesses:
        raise ValueError(f"no regular element for d={d} in type {ctx.label}")
    target_length, rest = divmod(2 * ctx.N, d)
    pi_nf = GarsideNF(delta_power=2, factors=())
    checked = 0
    # witnesses come in index order, which is length order
    for w in witnesses:
        word = group.word(w)
        if rest or len(word) > target_length:
            break
        if len(word) < target_length:
            continue
        checked += 1
        letters, image = [], word
        for _ in range(d):
            letters.extend(image)
            image = tuple(ctx.phi_simple[i] for i in image)
        if garside_nf(ctx, tuple(letters)) == pi_nf:
            return RegularBraidReport(label=ctx.label, d=d, witness_word=word,
                                      candidates_checked=checked)
    return RegularBraidReport(label=ctx.label, d=d, witness_word=None,
                              candidates_checked=checked)


# ---------------------------------------------------------------------------
# Poincaré polynomials: the degree product, checked by a parabolic orbit chain


def hecke_poincare(label: str) -> tuple[int, ...]:
    """Poincaré polynomial sum_w x^{l(w)} of the Weyl group of the label, as
    its coefficients, constant term first.

    Computed from the degree product formula prod_i [d_i]_x, and checked
    against :func:`~lielocal.weyl.orbit_chain_poincare` of the Cartan
    matrix, which uses no degree table.  GL_n has the Weyl group of A_{n-1}.
    """
    n = gl_rank(label)
    if n is not None:
        family, rank = "A", n - 1
    else:
        _, family, rank = parse_label(label)
    from_degrees = tuple(reduce(
        poly_mul, ([1] * d for d in split_degrees(family, rank)), [1]))
    check(from_degrees == orbit_chain_poincare(cartan_matrix(family, rank)),
          f"degree product and parabolic orbit chain disagree for {label}")
    return from_degrees
