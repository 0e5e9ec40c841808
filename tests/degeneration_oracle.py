"""Test-only oracle: the group-element basis of F_ell P, and the dg algebra
as an algebra.

The package works in radical coordinates (products of g_j - 1) only.  This
module keeps the group-element basis: the binomial expansions into radical
coordinates and back, and the group algebra's own product, convolution of
group elements, so that the truncated polynomial product and the action of
an automorphism can be compared with the group algebra's.  It
also has the Koszul-type dg algebra as an algebra, with a differential of
its own that keeps the t-power, and multiplies its elements, which the
package never does: ``dg_cohomology_check`` only needs the differential on
basis cells.  Everything here enumerates and is meant for small groups.
"""

from __future__ import annotations

import itertools
import math

from lielocal.degeneration import TruncatedAlgebra
from lielocal.errors import check
from lielocal.linalg import add_scaled, add_term


def group_elements(group):
    """Every element of P, as exponent tuples in lexicographic order."""
    return itertools.product(*(range(m) for m in group.moduli))


def group_element_to_radical(x, moduli, ell):
    """Expand the basis group element g^x as a polynomial in u_j = g_j - 1:
    prod_j (1 + u_j)^{x_j} = sum_a prod_j C(x_j, a_j) u^a."""
    out = {}
    per_coord = [[(a, math.comb(xj, a) % ell) for a in range(xj + 1)
                  if math.comb(xj, a) % ell] for xj in x]
    for combo in itertools.product(*per_coord):
        exp = tuple(a for a, _ in combo)
        coeff = 1
        for _, c in combo:
            coeff = coeff * c % ell
        if coeff:
            out[exp] = coeff
    return out


def group_algebra_to_radical(elem, moduli, ell):
    out = {}
    for x, c in elem.items():
        if c % ell:
            add_scaled(out, group_element_to_radical(x, moduli, ell), c, ell)
    return out


def radical_to_group_algebra(poly, moduli, ell):
    """Inverse expansion: u^a = prod_j (g_j - 1)^{a_j}
    = sum_x prod_j (-1)^{a_j - x_j} C(a_j, x_j) g^x."""
    out = {}
    for a, c in poly.items():
        per_coord = [[(x, (-1) ** (aj - x) * math.comb(aj, x) % ell)
                      for x in range(aj + 1)] for aj in a]
        for combo in itertools.product(*per_coord):
            x = tuple(v for v, _ in combo)
            coeff = c
            for _, s in combo:
                coeff = coeff * s % ell
            add_term(out, x, coeff, ell)
    return out


def convolve_group_algebra(a, b, moduli, ell):
    out = {}
    for x, cx in a.items():
        for y, cy in b.items():
            z = tuple((u + v) % m for u, v, m in zip(x, y, moduli))
            add_term(out, z, cx * cy, ell)
    return out


def image_of_monomial(iso, exponents):
    """The image of prod_j v_j^{a_j} under the degeneration isomorphism,
    as a product of powers of the section's images."""
    algebra = TruncatedAlgebra.of_group(iso.section.group)
    out = {tuple(0 for _ in exponents): 1}
    for j, a in enumerate(exponents):
        if a:
            out = algebra.multiply(out, algebra.power(iso.section.images[j], a))
    return out


def differential(moduli, t_power, subset, monomial):
    """d of the basis element t^t_power (x) v_S (x) x^monomial, S = subset
    sorted, as (sign, t-power, S minus j, monomial times x_j^{m_j}) for each
    j in S: d(v_j) = t x_j^{m_j}, and d passes the wedge generators of S
    before j, each flipping the sign."""
    out = []
    for j in subset:
        sign = (-1) ** sum(1 for i in subset if i < j)
        bumped = list(monomial)
        bumped[j] += moduli[j]
        out.append((sign, t_power + 1, tuple(i for i in subset if i != j), tuple(bumped)))
    return out


def dg_multiply(ell, a, b):
    """Product of dg elements written as {(t_power, subset, monomial): coeff}."""
    out = {}
    for (ta, wa, ma), ca in a.items():
        for (tb, wb, mb), cb in b.items():
            if set(wa) & set(wb):
                continue
            merged = tuple(sorted(wa + wb))
            # sign of the shuffle sorting wa + wb
            seq = list(wa + wb)
            sign = 1
            for i in range(len(seq)):
                for k in range(i + 1, len(seq)):
                    if seq[i] > seq[k]:
                        sign = -sign
            key = (ta + tb, merged,
                   tuple(x + y for x, y in zip(ma, mb)))
            add_term(out, key, sign * ca * cb, ell)
    return out


def d_of_element(ell, moduli, elem):
    out = {}
    for (t_power, subset, monomial), coeff in elem.items():
        for sgn, tp, rest, bumped in differential(moduli, t_power, subset, monomial):
            add_term(out, (tp, rest, bumped), sgn * coeff, ell)
    return out


def check_d_squared(ell, moduli):
    n = len(moduli)
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            elem = {(0, subset, tuple(0 for _ in range(n))): 1}
            dd = d_of_element(ell, moduli, d_of_element(ell, moduli, elem))
            check(not dd, "d^2 is nonzero on wedge %r" % (subset,))


def check_leibniz(ell, moduli, pairs):
    for a, b in pairs:
        left = d_of_element(ell, moduli, dg_multiply(ell, a, b))
        da_b = dg_multiply(ell, d_of_element(ell, moduli, a), b)
        # sign: d(ab) = (da)b + (-1)^{deg a} a (db); basis elements of a
        # must share one wedge size for the sign to be well defined
        sizes = {len(w) for (_, w, _) in a}
        check(len(sizes) == 1, "Leibniz test needs homogeneous left factor")
        sign = -1 if sizes.pop() % 2 else 1
        a_db = dg_multiply(ell, a, d_of_element(ell, moduli, b))
        rhs = add_scaled(da_b, a_db, sign, ell)
        check(left == rhs, "Leibniz rule fails")
