"""Query pools of the three workloads.

Every workload is a fixed list of queries; the seed only permutes it, so
each run does the same work and runs differ only in order.  Why each
workload exists, and why two commands are left out, is in README.md.

A cold-CLI query is the argv of one ``python -m lielocal`` process.  An
API query is ``(kind, *args)``; ``session.py`` maps the kind to the public
function it calls.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

CLI_WEYL = [
    "sylow D6 --q 2 --ell 7",
    "weyl classes 2D5",
    "hecke poincare D5",
    "hecke poincare E8",
    "sylow GL6 --q 2 --ell 5",
    "sylow D5 --q 2 --ell 17",
    "weyl regular D5 --d 8",
    "braid verify-regular D5 --d 8",
    "braid verify-regular A5 --d 6",
    "order E8 --q 4 --ell 5",
    "degenerate --ell 2 --factors 1:4",
]

CLI_LLT = [
    "llt --n 10 --d 3",
    "llt --n 9 --d 4",
    "llt --n 8 --d 2 --csv",
    "llt --n 7 --d 3 --at-1",
]

# (q, ell) pairs for the warm Sylow grid on D5.  Only three multiplicative
# orders occur (d = 3, 4, 2), so after the first call per d the per-group
# phi_d cache answers.  ell = 3 is outside the hypotheses on purpose.
SYLOW_D5_GRID = [
    (2, 7), (4, 7), (16, 7), (9, 7), (11, 7),
    (3, 5), (2, 5), (7, 5), (8, 5),
    (4, 5), (9, 5), (2, 3), (5, 3),
]

# q near 10^9 (primes) and ell near 10^6 (primes): the multiplicative
# order of q mod ell and the exact valuation of |E8(q)|.
ELL_PART_GRID = [
    (1000000007, 1000003), (1000000007, 999983),
    (999999937, 1000003), (999999937, 1000033),
    (1000000009, 999983), (1000000009, 1000033),
]

KR_TYPES = [("E8", 2), ("F4", 2), ("E6", 2), ("2A3", 2), ("A3", 3), ("G2", 5)]


def dg_groups() -> list[tuple[int, str]]:
    """The 248 abelian ell-groups of order <= 729 whose dg complex Tier-1
    checks, as (ell, "r1:n1,r2:n2") in the CLI's --factors syntax."""
    with open(os.path.join(HERE, "dg_groups.json"), encoding="utf-8") as fh:
        return [(ell, factors) for ell, factors in json.load(fh)]


def api_session() -> list[tuple]:
    calls: list[tuple] = [
        ("lemma_counts", "A7", 7),
        ("block_partition", "A6", 8),
        ("alperin_weights", "A6", 8),
    ]
    calls += [("knorr_robinson_sum", label, q) for label, q in KR_TYPES]
    calls += [("degenerate", ell, factors) for ell, factors in dg_groups()]
    calls += [("sylow", "D5", q, ell) for q, ell in SYLOW_D5_GRID]
    calls += [("ell_part", "E8", q, ell) for q, ell in ELL_PART_GRID]
    return calls


WORKLOADS = {
    "cli-weyl": [tuple(q.split()) for q in CLI_WEYL],
    "cli-llt": [tuple(q.split()) for q in CLI_LLT],
    "api-session": api_session(),
}

COLD = {"cli-weyl", "cli-llt"}


def query_id(query: tuple) -> str:
    return " ".join(str(x) for x in query)


def plan(workload: str, seed: int) -> list[tuple]:
    """The workload's queries in the order the seed gives."""
    queries = list(WORKLOADS[workload])
    random.Random(seed).shuffle(queries)
    return queries
