"""Command line entry point.

Subcommands: order, weyl, sylow, blocks, alperin, kr-sum, braid, hecke,
llt, degenerate.  Output is JSON (sorted keys, two-space indent), except
for `llt --csv`.  Orders and counts that grow with q are decimal strings;
small structural integers (ranks, degrees, indices) are plain numbers.

Exit codes: 0 on success; 1 on bad input (unknown type label, invalid
flag combination, guard overflow); 2 when an internal mathematical
invariant is violated, which signals a bug rather than a usage error.
A process started with standard output closed is refused with exit 1.

`run` is the process entry point (`python -m lielocal` and the `lielocal`
script): it ends the process without interpreter teardown, with two
fallbacks given in its docstring.  `main` returns the exit code and is
what in-process callers use.

Size guards are the module constants weyl.WEYL_GUARD (10^6 elements),
defining_char.WEIGHT_GUARD (10^7 listed restricted weights),
fock_llt.LLT_GUARD (n <= 12) and degeneration.DEGEN_GUARD (4096); the CLI
uses their values.  A value with more decimal digits than the interpreter
converts to a string (sys.get_int_max_str_digits) is refused with exit 1.

Modules are imported on use: each subcommand handler imports the modules
its command needs when it runs, so a cold `llt` query loads the Fock-space
code and its arithmetic but no Weyl group, and `order` loads no Weyl,
braid, defining-characteristic, ell-local, LLT or degeneration code.  No
module imports `dataclasses`, which costs more to import than most queries.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .errors import InvariantError

_EMIT_BATCH = 65536  # encoder chunks joined per write


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; reserve 2 for
    invariant violations and report usage problems as exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(data) -> None:
    """Write `json.dumps(data, sort_keys=True, indent=2)` and a newline to
    stdout, in batches of encoder chunks, so that a large listing is never
    held as one list of chunks and one string."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(data)
    write = sys.stdout.write
    while batch := list(itertools.islice(chunks, _EMIT_BATCH)):
        write("".join(batch))
    write("\n")


def _check_printable(what: str, *values: int) -> None:
    """Refuse values with more decimal digits than the interpreter converts
    (``sys.get_int_max_str_digits``), before any conversion is tried: the
    conversion takes time quadratic in the length."""
    limit = sys.get_int_max_str_digits()
    if limit and any(abs(v) >= 10**limit for v in values):
        raise ValueError(f"{what} has more than {limit} decimal digits, "
                         "too many to print")


def _weyl_group(label: str):
    from .root_datum import cached_datum, gl_rank
    from .weyl import generate_weyl, gl_weyl

    n = gl_rank(label)
    if n is not None:
        return gl_weyl(n)
    return generate_weyl(cached_datum(label))


# ---------------------------------------------------------------------------
# subcommand handlers; each imports only the modules its command needs


def _run_order(args) -> None:
    from .generic_order import ell_part, evaluate_order, generic_order, gl_order
    from .root_datum import cached_datum, gl_rank

    n = gl_rank(args.type)
    factorization = gl_order(n) if n is not None else \
        generic_order(cached_datum(args.type))
    data = factorization.to_json()
    if args.ell is not None and args.q is None:
        raise ValueError("--ell requires --q")
    if args.q is not None:
        value = evaluate_order(factorization, args.q)
        _check_printable("|G(q)|", value)
        data["value"] = str(value)
        data["q"] = str(args.q)
    if args.ell is not None:
        d, nu = ell_part(factorization, args.q, args.ell)
        data["ell"] = args.ell
        data["d"] = d
        data["nu"] = str(nu)
    _emit(data)


def _run_weyl(args) -> None:
    group = _weyl_group(args.type)
    if args.action == "classes":
        classes = group.f_conjugacy_classes()
        _emit({
            "type": args.type,
            "order": str(len(group)),
            "class_count": len(classes),
            "classes": [c.to_json() for c in classes],
        })
        return
    report = group.regular_elements(args.d)
    if report is None:
        _emit({"type": args.type, "d": args.d, "regular": False})
        return
    data = report.to_json()
    data["type"] = args.type
    data["regular"] = True
    _emit(data)


def _run_sylow(args) -> None:
    from .ell_local import gl_sylow_structure, sylow_structure
    from .root_datum import cached_datum, gl_rank

    n = gl_rank(args.type)
    if n is not None:
        report = gl_sylow_structure(n, args.q, args.ell)
    else:
        report = sylow_structure(cached_datum(args.type), args.q, args.ell)
    _emit(report.to_json())


def _run_blocks(args) -> None:
    from .defining_char import block_partition
    from .root_datum import cached_datum

    report = block_partition(cached_datum(args.type), args.q)
    trivial = report.block_of(report.center.zero()).size
    nontrivial = sum(b.size for b in report.blocks) - trivial
    data = report.to_json()
    data["counts"] = {
        "trivial": str(trivial),
        "nontrivial": str(nontrivial),
        "defect_zero": "1",
    }
    _emit(data)


def _run_alperin(args) -> None:
    from .defining_char import alperin_weights
    from .root_datum import cached_datum

    _emit(alperin_weights(cached_datum(args.type), args.q).to_json())


def _run_kr_sum(args) -> None:
    from .defining_char import knorr_robinson_sum
    from .root_datum import cached_datum

    report = knorr_robinson_sum(cached_datum(args.type), args.q)
    _check_printable("a chain-sum term", report.head_term,
                     *(t for _, t in report.chain_terms))
    data = report.to_json()
    data["sum"] = data["total"]
    _emit(data)


def _run_braid(args) -> None:
    from .braid_hecke import verify_regular_braid_identity
    from .root_datum import cached_datum

    report = verify_regular_braid_identity(cached_datum(args.type), args.d)
    _emit(report.to_json())


def _run_hecke(args) -> None:
    from .braid_hecke import hecke_poincare

    poincare = hecke_poincare(args.type)
    _emit({
        "type": args.type,
        "poincare": {str(e): str(c) for e, c in enumerate(poincare)},
        "at_one": str(sum(poincare)),
    })


def _run_llt(args) -> None:
    from .fock_llt import llt_canonical_basis

    matrix = llt_canonical_basis(args.n, args.d)
    if args.csv:
        sys.stdout.write(matrix.to_csv(at_one=args.at_1))
        return
    if args.at_1:
        _emit({
            "n": matrix.n,
            "d": matrix.d,
            "labels": [list(p) for p in matrix.labels],
            "entries": matrix.evaluate(1),
        })
        return
    _emit(matrix.to_json())


def _parse_factors(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2 or not all(p.lstrip("-").isdigit() for p in pieces):
            raise ValueError("factors must look like r1:n1,r2:n2, got %r" % text)
        out.append((int(pieces[0]), int(pieces[1])))
    return tuple(out)


def _run_degenerate(args) -> None:
    from .degeneration import AbelianLGroup, build_isomorphism, dg_cohomology_check

    generators: tuple = ()
    if args.E is not None:
        with open(args.E, encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except (RecursionError, json.JSONDecodeError, UnicodeDecodeError):
                raw = None  # not UTF-8 JSON, or nested far deeper than any matrix list
        if not (isinstance(raw, list) and all(
                isinstance(mat, list) and all(
                    isinstance(row, list) and all(type(x) is int for x in row)
                    for row in mat)
                for mat in raw)):
            raise ValueError("matrix file must hold a list of integer matrices")
        generators = tuple(tuple(tuple(row) for row in mat) for mat in raw)
    group = AbelianLGroup(ell=args.ell, factors=_parse_factors(args.factors),
                          e_generators=generators)
    iso = build_isomorphism(group)
    dg = dg_cohomology_check(group, 2 * max(group.moduli))
    _emit({"isomorphism": iso.to_json(), "dg": dg.to_json()})


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    parser = _Parser(prog="lielocal",
                     description="generic local invariants of finite "
                                 "groups of Lie type")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("order", help="cyclotomic factorization of |G(q)|")
    p.add_argument("type")
    p.add_argument("--q", type=int)
    p.add_argument("--ell", type=int)
    p.set_defaults(func=_run_order)

    p = sub.add_parser("weyl", help="Weyl group data")
    weyl_sub = p.add_subparsers(dest="action", required=True,
                                parser_class=_Parser)
    pc = weyl_sub.add_parser("classes", help="F-conjugacy classes")
    pc.add_argument("type")
    pc.set_defaults(func=_run_weyl, action="classes")
    pr = weyl_sub.add_parser("regular", help="d-regular element witness")
    pr.add_argument("type")
    pr.add_argument("--d", type=int, required=True)
    pr.set_defaults(func=_run_weyl, action="regular")

    p = sub.add_parser("sylow", help="Sylow ell-subgroup structure")
    p.add_argument("type")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_run_sylow)

    p = sub.add_parser("blocks", help="defining-characteristic blocks")
    p.add_argument("type")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_run_blocks)

    p = sub.add_parser("alperin", help="weight count by parabolic stratum")
    p.add_argument("type")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_run_alperin)

    p = sub.add_parser("kr-sum", help="alternating chain sum (must vanish)")
    p.add_argument("type")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_run_kr_sum)

    p = sub.add_parser("braid", help="braid monoid identities")
    braid_sub = p.add_subparsers(dest="action", required=True,
                                 parser_class=_Parser)
    pv = braid_sub.add_parser("verify-regular",
                              help="check the d-regular power identity")
    pv.add_argument("type")
    pv.add_argument("--d", type=int, required=True)
    pv.set_defaults(func=_run_braid)

    p = sub.add_parser("hecke", help="Hecke algebra data")
    hecke_sub = p.add_subparsers(dest="action", required=True,
                                 parser_class=_Parser)
    pp = hecke_sub.add_parser("poincare", help="Poincare polynomial")
    pp.add_argument("type")
    pp.set_defaults(func=_run_hecke)

    p = sub.add_parser("llt", help="canonical basis of the Fock space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--at-1", dest="at_1", action="store_true",
                   help="evaluate entries at v = 1")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_run_llt)

    p = sub.add_parser("degenerate",
                       help="abelian ell-group degeneration certificate")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--E", help="JSON file with automorphism generator matrices")
    p.set_defaults(func=_run_degenerate)

    return parser


def main(argv=None) -> int:
    if sys.stdout is None:  # started with file descriptor 1 closed
        print("error: standard output is closed", file=sys.stderr)
        return 1
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _observed() -> bool:
    """Whether a tracer, profiler or debugger is attached to the process,
    or the interpreter stays open for inspection (python -i)."""
    if (sys.flags.inspect or sys.gettrace() is not None
            or sys.getprofile() is not None):
        return True
    monitoring = getattr(sys, "monitoring", None)  # cProfile's hook since 3.12
    return monitoring is not None and any(  # tool ids run from 0 to 5
        monitoring.get_tool(tool) is not None for tool in range(6))


def run(argv=None) -> None:
    """Run `main(argv)` as the whole process and end it with main's exit
    code; does not return.

    After flushing stdout and stderr it ends with `os._exit`, skipping
    interpreter teardown (freeing every object, atexit, module cleanup).
    It takes the normal exit instead when a stream is missing or its flush
    fails, so that the interpreter reports the failure and sets the exit
    status as it always has, and when `_observed()`, so that a profiler,
    coverage tool, debugger or interactive prompt still gets its turn."""
    code = main(argv)
    streams = (sys.stdout, sys.stderr)
    if None not in streams and not _observed():
        try:
            for stream in streams:
                stream.flush()
        except (OSError, ValueError):
            pass  # the normal exit below flushes again and reports it
        else:
            os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
