"""Test-only braid-monoid helpers and the Iwahori-Hecke algebra.

The package's Hecke datum is the Poincaré polynomial, and its braid code
is the Garside normal form and the regular power identity.  This module
holds what only the tests use around them:

- ``lambda_of_perm``, the canonical lift of a group element read off its
  signed-root permutation;
- ``pi_normal_form``, the normal form of lambda(w_0)^2 from the raw word,
  checked to be Delta^2;
- ``braid_relation_order``, the length m_ij of a braid relation, as the
  order of s_i s_j;
- the one-parameter Hecke algebra over Z[x, 1/x] of an enumerated Weyl
  group (``HeckeAlgebra``, ``HeckeElement``), on the basis T_w with
  T_w T_s = T_{ws} when the length goes up and
  T_w T_s = x T_{ws} + (x-1) T_w when it goes down, and ``specialize``,
  which evaluates x.  At x = 1 the algebra is the group algebra ZW, which
  checks the group's right multiplication table.

An element of the algebra is a coefficient map, as a Fock vector is in
``fock_llt``: a dict from (element index, x-exponent) to a nonzero int.
"""

from __future__ import annotations

import math
from fractions import Fraction

from lie_oracle import longest_element_perm

from lielocal.braid_hecke import BraidWord, GarsideNF, garside_nf
from lielocal.errors import InvariantError, check
from lielocal.linalg import add_scaled, add_term


def lambda_of_perm(ctx, perm: bytes) -> BraidWord:
    return BraidWord(ctx.word_from_perm(perm))


def pi_normal_form(ctx) -> GarsideNF:
    """Normal form of pi = lambda(w_0)^2, computed from the raw word."""
    w0 = ctx.word_from_perm(longest_element_perm(ctx))
    nf = garside_nf(ctx, BraidWord(w0 + w0))
    check(nf == GarsideNF(delta_power=2, factors=()),
          "lambda(w_0)^2 did not normalize to Delta^2")
    return nf


def braid_relation_order(ctx, i: int, j: int) -> int:
    """Order of s_i s_j in the group = length of the braid relation."""
    if i == j:
        return 1
    prod = ctx.compose(ctx.gen_perms[i], ctx.gen_perms[j])
    power = prod
    m = 1
    while power != ctx.identity_perm:
        power = ctx.compose(power, prod)
        m += 1
        if m > 6:
            raise InvariantError("braid relation order exceeds 6")
    return m


class HeckeAlgebra:
    """Hecke algebra of an enumerated Weyl group over Z[x, 1/x]."""

    def __init__(self, group):
        self.group = group
        self.gen_index = [col[0] for col in group.right]

    def element(self, support: dict[tuple[int, int], int]) -> "HeckeElement":
        return HeckeElement(self, {t: c for t, c in support.items() if c})

    def unit(self) -> "HeckeElement":
        return self.basis_element(0)

    def basis_element(self, w: int) -> "HeckeElement":
        return self.element({(w, 0): 1})

    def generator(self, i: int) -> "HeckeElement":
        return self.basis_element(self.gen_index[i])

    def _times_generator(self, support: dict, i: int) -> dict:
        col = self.group.right[i]
        out: dict[tuple[int, int], int] = {}
        for (w, e), c in support.items():
            ws = col[w]
            if ws > w:  # index order is length order: l(w s_i) = l(w) + 1
                add_term(out, (ws, e), c)
            else:  # T_w T_s = x T_ws + (x - 1) T_w
                add_term(out, (ws, e + 1), c)
                add_term(out, (w, e + 1), c)
                add_term(out, (w, e), -c)
        return out

    def multiply(self, a: "HeckeElement", b: "HeckeElement") -> "HeckeElement":
        check(a.algebra is self and b.algebra is self,
              "operands live in different algebras")
        out: dict[tuple[int, int], int] = {}
        for (v, f), c in b.support.items():
            acc = {(w, e + f): cw * c for (w, e), cw in a.support.items()}
            for letter in self.group.word(v):
                acc = self._times_generator(acc, letter)
            add_scaled(out, acc)
        return self.element(out)


class HeckeElement:
    """Sparse T-basis vector: a map (element index, x-exponent) -> nonzero
    int, the sum of c x^e T_w over its items."""

    __slots__ = ("algebra", "support")

    def __init__(self, algebra: HeckeAlgebra, support: dict[tuple[int, int], int]):
        self.algebra = algebra
        self.support = support

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.algebra is other.algebra and self.support == other.support

    def __repr__(self) -> str:
        terms = ", ".join(f"{c}*x^{e}*T[{w}]" for (w, e), c in sorted(self.support.items()))
        return f"HeckeElement({terms or '0'})"

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        return self.algebra.multiply(self, other)

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        check(self.algebra is other.algebra, "operands live in different algebras")
        return self.algebra.element(add_scaled(dict(self.support), other.support))

    def scaled(self, c: int | dict[int, int]) -> "HeckeElement":
        """c times the element, for an int or a map x-exponent -> int."""
        if isinstance(c, int):
            c = {0: c}
        out: dict[tuple[int, int], int] = {}
        for (w, e), x in self.support.items():
            for f, y in c.items():
                add_term(out, (w, e + f), x * y)
        return self.algebra.element(out)

    def to_json(self) -> dict:
        words: dict[str, dict[str, str]] = {}
        for (w, e), c in sorted(self.support.items()):
            word = self.algebra.group.word(w)
            key = ".".join(str(i + 1) for i in word) if word else "e"
            words.setdefault(key, {})[str(e)] = str(c)
        return {"coeffs": {k: words[k] for k in sorted(words)}}


def specialize(h: HeckeElement, x0, modulus: int | None = None) -> dict[int, object]:
    """Evaluate all coefficients at x = x0 (mod modulus if given).

    x0 must be invertible in the target ring, since T_s is invertible only
    when x is.  A negative power of an x0 other than +-1 is an exact
    Fraction.
    """
    out: dict[int, object] = {}
    if modulus is not None:
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if math.gcd(int(x0), modulus) != 1:
            raise ValueError(f"{x0} is not invertible mod {modulus}")
        for (w, e), c in h.support.items():
            out[w] = (out.get(w, 0) + c * pow(int(x0), e, modulus)) % modulus
        return out
    if x0 == 0:
        raise ValueError("x = 0 is not invertible")
    for (w, e), c in h.support.items():
        if e < 0 and x0 not in (1, -1):
            power = 1 / Fraction(x0) ** -e
        else:
            power = x0 ** abs(e)  # at x0 = +-1, x0^-k = x0^k
        out[w] = out.get(w, 0) + c * power
    return {w: int(v) if getattr(v, "denominator", None) == 1 else v
            for w, v in out.items()}
