"""The Fock-space route with one Laurent polynomial per coefficient.

The package keeps Fock vectors as integer coefficient maps, (label,
v-exponent) -> int.  This module keeps the earlier route, in which a vector
maps each partition to a :class:`Laurent`, as an oracle for it: the q-wedge
straightening (``_wedge_pair``, ``_insert``, ``_bar_columns``), the bar
application (``_bar_apply``), the quantum integers and factorials, the
operators (``f_once``, ``f_action``, ``boson_strip``) and the ladder
monomial (``ladder_monomial``), the family and the correction recursion
(``canonical_basis``).  The package has no public operator: it applies
f_i and V_k only inside its family, through its private ``_act``,
``_divided_power`` and ``_ladder_monomial``, which the tests call
directly.  It shares with the package
only the partition combinatorics: cells, cores, quotients, ribbon spins and
ladders.  ``laurent_vector`` reads a coefficient map in the Laurent form.
"""

from __future__ import annotations

import itertools

from laurent_oracle import Laurent

from lielocal.errors import InvariantError, check
from lielocal.fock_llt import (
    Partition,
    _add_box,
    _cells_with_residue,
    _horizontal_strip_additions,
    _partition_from_core_quotient,
    _slots_for,
    d_core_and_quotient,
    is_d_regular,
    ladder_sequence,
    partitions,
    regular_singular_split,
    ribbon_strip_spin,
)
from lielocal.linalg import add_scaled, add_term

FockVector = dict[Partition, Laurent]

_ONE = Laurent(1)
_ZERO = Laurent(0)


def laurent_vector(vec: dict) -> FockVector:
    """The partition -> Laurent form of a coefficient map."""
    terms: dict[Partition, dict[int, int]] = {}
    for (p, e), c in vec.items():
        terms.setdefault(p, {})[e] = c
    return {p: Laurent(t) for p, t in terms.items()}


# ---------------------------------------------------------------------------
# operators and the family


def quantum_integer(k: int) -> Laurent:
    """[k] = (v^k - v^-k)/(v - v^-1) = v^(k-1) + v^(k-3) + ... + v^(1-k)."""
    if k < 0:
        return -quantum_integer(-k)
    return Laurent({k - 1 - 2 * i: 1 for i in range(k)})


def quantum_factorial(k: int) -> Laurent:
    out = Laurent(1)
    for i in range(2, k + 1):
        out = out * quantum_integer(i)
    return out


def f_once(i: int, vec: FockVector, d: int) -> FockVector:
    out: FockVector = {}
    for p, c in vec.items():
        addable = _cells_with_residue(p, d, i, addable=True)
        removable = _cells_with_residue(p, d, i, addable=False)
        for row in addable:
            exponent = sum(1 for r in addable if r < row) \
                - sum(1 for r in removable if r < row)
            add_term(out, _add_box(p, row), c.shifted(exponent))
    return out


def f_action(i: int, k: int, vec: FockVector, d: int) -> FockVector:
    out = dict(vec)
    for _ in range(k):
        out = f_once(i, out, d)
    factorial = quantum_factorial(k)
    try:
        return {p: c.exact_div(factorial) for p, c in out.items()}
    except ValueError as exc:
        raise InvariantError(f"divided power is not integral: {exc}") from exc


def boson_strip(k: int, vec: FockVector, d: int) -> FockVector:
    out: FockVector = {}
    for p, c in vec.items():
        core, quotient = d_core_and_quotient(p, d)
        slots = _slots_for(sum(p) + d * k, d)
        componentwise = []
        for component in quotient:
            componentwise.append({
                size: _horizontal_strip_additions(component, size)
                for size in range(k + 1)
            })
        for split in itertools.product(range(k + 1), repeat=d):
            if sum(split) != k:
                continue
            choices = [componentwise[r][split[r]] for r in range(d)]
            for combo in itertools.product(*choices):
                target = _partition_from_core_quotient(core, combo, d, slots)
                spin = ribbon_strip_spin(target, p, d)
                add_term(out, target,
                         c.shifted(-spin) * Laurent(-1 if spin % 2 else 1))
    return out


def ladder_monomial(kappa: Partition, d: int) -> FockVector:
    check(is_d_regular(kappa, d), "ladder monomials need d-regular partitions")
    vec: FockVector = {(): Laurent(1)}
    for residue, count in ladder_sequence(kappa, d):
        vec = f_action(residue, count, vec, d)
    return vec


def bar_invariant_family(n: int, d: int) -> dict[Partition, FockVector]:
    out = {}
    for p in partitions(n):
        kappa, nu = regular_singular_split(p, d)
        vec = ladder_monomial(kappa, d)
        for part in sorted(nu, reverse=True):
            vec = boson_strip(part, vec, d)
        out[p] = vec
    return out


# ---------------------------------------------------------------------------
# the bar involution, by straightening q-wedges


def _wedge_pair(low: int, high: int, d: int) -> list[tuple[int, int, Laurent]]:
    i = (high - low) % d
    if i == 0:
        return [(high, low, Laurent(-1))]
    out = [(high, low, Laurent({-1: -1}))]
    j = 0
    while True:
        s = (j // 2) * d + (i if j % 2 == 0 else d)
        if high - s <= low + s:
            return out
        sign = -1 if j % 2 else 1
        out.append((high - s, low + s, Laurent({-j - 2: sign, -j: -sign})))
        j += 1


def _insert(wedge: tuple[int, ...], x: int, d: int, memo: dict) -> dict:
    if not wedge or x > wedge[0]:
        return {(x,) + wedge: _ONE}
    if x == wedge[0]:
        return {}
    key = (wedge, x)
    hit = memo.get(key)
    if hit is None:
        hit = {}
        for a, b, c in _wedge_pair(x, wedge[0], d):
            for rest, c_rest in _insert(wedge[1:], b, d, memo).items():
                for out, c_out in _insert(rest, a, d, memo).items():
                    add_term(hit, out, c * c_rest * c_out)
        memo[key] = hit
    return hit


def _bar_columns(labels, slots: int, d: int) -> dict[Partition, FockVector]:
    memo: dict = {}
    columns = {}
    for label in labels:
        k = [(label[j] if j < len(label) else 0) - j for j in range(slots)]
        wedge = {(k[0],): _ONE}
        for x in k[1:]:
            grown: dict = {}
            for normal, c in wedge.items():
                for out, c_out in _insert(normal, x, d, memo).items():
                    add_term(grown, out, c * c_out)
            wedge = grown
        column = {tuple(part for j, e in enumerate(normal) if (part := e + j)): c
                  for normal, c in wedge.items()}
        diagonal = column.get(label, _ZERO)
        terms = list(diagonal.items())
        if len(terms) != 1 or terms[0][1] not in (1, -1):
            raise InvariantError(f"straightened wedge of {label} has diagonal "
                                 f"coefficient {diagonal.to_string('v')}, not +-v^e")
        (e, sign), = terms
        columns[label] = {mu: c.shifted(-e) * sign for mu, c in column.items()}
    return columns


def _bar_apply(columns: dict[Partition, FockVector], vec: FockVector) -> FockVector:
    out: FockVector = {}
    for p, c in vec.items():
        add_scaled(out, columns[p], c.bar())
    return out


# ---------------------------------------------------------------------------
# canonical basis


def canonical_basis(n: int, d: int) -> dict[Partition, FockVector]:
    """G(lambda) for every partition lambda of n, by the correction
    recursion against the Laurent-valued straightened bar involution."""
    labels = partitions(n)
    bar = _bar_columns(labels, max(n, 1), d)
    position = {p: k for k, p in enumerate(labels)}
    basis: dict[Partition, FockVector] = {}
    for p in labels:
        g: FockVector = {p: _ONE}
        delta = add_scaled(dict(bar[p]), g, -1)
        bound = position[p]
        while delta:
            top = max(delta, key=position.__getitem__)
            check(position[top] < bound, f"bar image of G({p}) sticks out above")
            bound = position[top]
            r = delta[top]
            check(r.bar() == -r, "correction coefficient is not antisymmetric")
            q = Laurent({e: c for e, c in r.items() if e > 0})
            add_scaled(g, basis[top], q)
            add_scaled(delta, basis[top], q.bar() - q)
        basis[p] = g
    return basis
