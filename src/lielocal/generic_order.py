"""Generic order polynomials |G(q)| = q^N · prod_d Phi_d(q)^{a(d)}.

The order of the finite group attached to a (possibly twisted) datum is a
product q^N · prod_i (q^{d_i} - eps_i) over the reflection degrees d_i, where
eps_i are roots of unity recording the twist (all 1 in the split case).  The
tables are classical; nothing here trusts them: the expansion is factored
exactly into cyclotomic polynomials (hard failure if anything is left over),
and the test suite compares evaluations against brute-force matrix-group
counts.

GL_n (degrees 1..n, the extra torus factor) has a generic order too, for
the GL labels of the CLI and for Sylow structure in GL mode; GL_n is not
simple and has no RootDatum here.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .cyclotomic import cyclotomic, factor_into_cyclotomics, poly_eval, poly_mul
from .errors import InvariantError, check
from .root_datum import RootDatum, parse_label, split_degrees

# eps values as (order, exponent): exp(2*pi*i*exponent/order)
_ONE = (1, 0)
_MINUS = (2, 1)
_OMEGA = (3, 1)
_OMEGA2 = (3, 2)


def factor_pairs_for(label: str) -> list[tuple[int, tuple[int, int]]]:
    """(degree, eps) list for a type label, eps a root of unity as
    (order, exponent)."""
    twist, family, n = parse_label(label)
    degrees = split_degrees(family, n)
    if twist == 1:
        return [(d, _ONE) for d in degrees]
    if family == "A":
        # eps_i = (-1)^{d_i}: factors q^d - 1 (d even), q^d + 1 (d odd)
        return [(d, _ONE if d % 2 == 0 else _MINUS) for d in degrees]
    if family == "D" and twist == 2:
        # eps = -1 on exactly one degree-n factor, the first
        flipped = degrees.index(n)
        return [(d, _MINUS if k == flipped else _ONE) for k, d in enumerate(degrees)]
    if family == "D" and twist == 3:
        # the two degree-4 factors pair into q^8 + q^4 + 1
        return [(2, _ONE), (4, _OMEGA), (4, _OMEGA2), (6, _ONE)]
    # 2E6, the last twist parse_label accepts
    return [(d, _MINUS if d in (5, 9) else _ONE) for d in degrees]


class CycloFactorization(NamedTuple):
    """|G(q)| = q^qpower · prod Phi_d(q)^{exponents[d]}."""

    label: str
    rank: int
    qpower: int
    exponents: tuple[tuple[int, int], ...]  # sorted (d, a(d)) pairs
    factor_pairs: tuple[tuple[int, tuple[int, int]], ...]

    def exponent(self, d: int) -> int:
        return dict(self.exponents).get(d, 0)

    def to_json(self) -> dict:
        return {
            "type": self.label,
            "rank": self.rank,
            "qpower": str(self.qpower),
            "exponents": {str(d): str(a) for d, a in self.exponents},
            "factor_pairs": [[d, [o, e]] for d, (o, e) in self.factor_pairs],
        }

def _expand_and_factor(label: str, rank: int, qpower: int,
                       pairs: list[tuple[int, tuple[int, int]]]) -> CycloFactorization:
    check(sum(d for d, _ in pairs) == qpower + rank,
          f"{label}: sum of degrees {sum(d for d, _ in pairs)} != N + rank")
    # multiply real factors directly; complex eps come in conjugate pairs
    poly = [1]
    omega_pending: dict[int, int] = {}
    candidates: set[int] = set()
    for d, (order, exp) in pairs:
        for k in range(1, order * d + 1):
            if (order * d) % k == 0:
                candidates.add(k)
        if order == 1:
            factor = [-1] + [0] * (d - 1) + [1]
        elif order == 2:
            factor = [1] + [0] * (d - 1) + [1]
        elif order == 3:
            omega_pending[d] = omega_pending.get(d, 0) + (1 if exp == 1 else -1)
            if omega_pending[d] == 0:
                # (q^d - w)(q^d - w^2) = q^{2d} + q^d + 1
                factor = [1] + [0] * (d - 1) + [1] + [0] * (d - 1) + [1]
            else:
                continue
        else:
            raise InvariantError(f"unsupported eps order {order}")
        poly = poly_mul(poly, factor)
    check(all(v == 0 for v in omega_pending.values()),
          f"{label}: unpaired complex eps factors")
    exps = factor_into_cyclotomics(poly, sorted(candidates))
    return CycloFactorization(
        label=label,
        rank=rank,
        qpower=qpower,
        exponents=tuple(sorted(exps.items())),
        factor_pairs=tuple((d, e) for d, e in pairs),
    )


def generic_order(datum: RootDatum) -> CycloFactorization:
    """Cyclotomic factorization of the generic order of the simply connected
    group with this datum."""
    pairs = factor_pairs_for(datum.label)
    return _expand_and_factor(datum.label, datum.rank, datum.N, pairs)


def gl_order(n: int) -> CycloFactorization:
    """Generic order of GL_n(q): degrees 1..n, every eps_i = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _expand_and_factor(f"GL{n}", n, n * (n - 1) // 2,
                              [(i, _ONE) for i in range(1, n + 1)])


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for m >= 3.3e24, where
    the fixed bases no longer decide primality."""
    if m >= _MR_BOUND:
        raise ValueError(f"{m} is too large to test for primality")
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    twos = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = odd * 2^twos
    odd = (m - 1) >> twos
    return all(pow(a, odd, m) == 1
               or any(pow(a, odd << i, m) == m - 1 for i in range(twos))
               for a in _MR_BASES)


def _integer_root(q: int, k: int) -> int:
    """floor(q^(1/k)) for q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // k)
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_base(q: int) -> int | None:
    """The prime p with q = p^k, or None if q is not a prime power."""
    if q < 2:
        return None
    for k in range(q.bit_length(), 1, -1):
        root = _integer_root(q, k)
        if root**k == q:
            # k is maximal, so root is no perfect power
            return root if is_prime(root) else None
    return q if is_prime(q) else None


def check_prime_power(q: int) -> None:
    """Raise ValueError unless q is a prime power."""
    if prime_power_base(q) is None:
        raise ValueError(f"q = {q} is not a prime power")


def evaluate_order(f: CycloFactorization, q: int) -> int:
    """Exact integer order at a prime power q."""
    check_prime_power(q)
    value = q**f.qpower
    for d, a in f.exponents:
        value *= poly_eval(list(cyclotomic(d)), q) ** a
    check(value > 0, "order must be positive")
    return value


def valuation(n: int, ell: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def _rho_factor(n: int) -> int:
    """A proper divisor of an odd composite n with no prime factor below
    1000, by Brent's variant of Pollard's rho (Brent, BIT 20 (1980)).  The
    polynomial constants c = 1, 2, ... are tried in turn, so the result is
    deterministic."""
    for c in itertools.count(1):
        y, r, g, prod = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g


def prime_divisors(n: int) -> set[int]:
    """The primes dividing 1 <= n < 3.3e24: trial division below 1000, then
    Pollard's rho on what is left, with :func:`is_prime` deciding each
    cofactor."""
    primes = set()
    for p in range(2, 1000):
        if n % p == 0:
            primes.add(p)
            while n % p == 0:
                n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            primes.add(m)
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    return primes


def multiplicative_order(q: int, ell: int) -> int:
    """Order of q modulo the prime ell: starting from e = ell - 1, divide
    out each prime p of ell - 1 while q^(e/p) = 1 (mod ell)."""
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    x = q % ell
    if x == 0:
        raise ValueError("q not invertible mod ell")
    e = ell - 1
    for p in prime_divisors(e):
        while e % p == 0 and pow(x, e // p, ell) == 1:
            e //= p
    return e


def ell_part(f: CycloFactorization, q: int, ell: int) -> tuple[int, int]:
    """(d, nu) with d the multiplicative order of q mod ell and nu the exact
    ell-adic valuation of |G(q)|."""
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    check_prime_power(q)
    if q % ell == 0:
        raise ValueError("defining characteristic: use defining_char")
    d = multiplicative_order(q, ell)
    nu = 0
    for e, a in f.exponents:
        value = poly_eval(list(cyclotomic(e)), q)
        if value % ell == 0:
            nu += a * valuation(value, ell)
    check(nu == valuation(evaluate_order(f, q), ell),
          "cyclotomic ell-valuation disagrees with the integer order")
    return d, nu
