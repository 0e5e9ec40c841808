"""Answer-carrying fields of every query's output.

The gate compares only what a query answers: class counts, valuations,
abelian flags, witness words, canonical-basis entries, block sizes, H^0
dimensions and so on.  Whitespace, key order and fields that only echo the
input or restate a certificate are ignored, so a change that drops a dead
JSON field does not read as a wrong answer.  Numbers are compared as
integers whether the output writes them as numbers or decimal strings.
"""

from __future__ import annotations

import hashlib
import json


def canon(x):
    """Integers written as decimal strings become ints; containers recurse."""
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, str) and x.lstrip("-").isdigit():
        return int(x)
    return x


def fingerprint(x) -> str:
    """Short hash of a long answer field, for the recorded table."""
    return hashlib.sha256(json.dumps(canon(x)).encode()).hexdigest()[:16]


def digest(items) -> str:
    """Order-insensitive fingerprint of a list of weights."""
    return fingerprint(sorted(canon(items)))


def _pick(data: dict, *keys) -> dict:
    return {k: canon(data[k]) for k in keys}


def order(data):
    out = _pick(data, "qpower", "exponents")
    for k in ("value", "d", "nu"):
        if k in data:
            out[k] = canon(data[k])
    return out


def weyl_classes(data):
    classes = sorted((canon(c["size"]), canon(c["representative_word"]))
                     for c in data["classes"])
    return {"order": canon(data["order"]), "class_count": data["class_count"],
            "classes": [list(c) for c in classes]}


def weyl_regular(data):
    if not data["regular"]:
        return {"regular": False}
    return _pick(data, "regular", "witness_word", "eigenspace_dim",
                 "centralizer_order", "centralizer_is_reflection_group")


def sylow(data):
    out = _pick(data, "d", "nu", "abelian", "relative_weyl_order",
                "outside_hypotheses")
    levi = data["levi"]
    out["levi"] = None if levi is None else _pick(
        levi, "eigenspace_dim", "witness_word", "w_L_order", "w_prime_order",
        "root_subsystem", "orthogonal_system")
    return out


def hecke_poincare(data):
    return _pick(data, "poincare", "at_one")


def braid_regular(data):
    return _pick(data, "holds", "witness_word")


def degenerate(data):
    cert = data["isomorphism"]["certificate"]
    out = _pick(cert, "dim_source", "dim_target", "e_order")
    out.update(_pick(data["dg"], "nonzero_cohomology", "complete"))
    out["h0_dims"] = fingerprint(data["dg"]["h0_dims"])
    return out


def llt_matrix(data):
    return _pick(data, "labels", "entries")


def llt_csv(text: str):
    return [[cell.strip() for cell in line.split(",")]
            for line in text.strip().splitlines()]


def lemma_counts(data):
    entries = [_pick(e, "zeta", "direct_count", "formula_count",
                     "equal_to_principal", "criterion") for e in data["entries"]]
    strata = [_pick(s, "subset", "size", "kernel_size") for s in data["strata"]]
    return {"entries": entries, "strata": strata}


def block_partition(data):
    blocks = [{"zeta": canon(b["zeta"]), "size": canon(b["size"]),
               "weights": digest(b["weights"])} for b in data["blocks"]]
    return {"blocks": blocks, "steinberg": canon(data["steinberg"])}


def alperin_weights(data):
    entries = [{"subset": canon(e["subset"]), "size": canon(e["size"]),
                "weights": digest(e["weights"])} for e in data["entries"]]
    return {"entries": entries, "total": canon(data["total"])}


def knorr_robinson_sum(data):
    return _pick(data, "chain_terms", "head_term", "total")


def ell_part(data):
    return _pick(data, "d", "nu")


def cli_answer(argv: tuple, stdout: str):
    """Answer fields of one CLI query from its standard output."""
    if argv[0] == "llt" and "--csv" in argv:
        return llt_csv(stdout)
    data = json.loads(stdout)
    if argv[0] == "weyl":
        return (weyl_classes if argv[1] == "classes" else weyl_regular)(data)
    if argv[0] == "braid":
        return braid_regular(data)
    if argv[0] == "hecke":
        return hecke_poincare(data)
    if argv[0] == "llt":
        return llt_matrix(data)
    return {"order": order, "sylow": sylow, "degenerate": degenerate}[argv[0]](data)


API_EXTRACTORS = {
    "lemma_counts": lemma_counts,
    "block_partition": block_partition,
    "alperin_weights": alperin_weights,
    "knorr_robinson_sum": knorr_robinson_sum,
    "degenerate": degenerate,
    "sylow": sylow,
    "ell_part": ell_part,
}
