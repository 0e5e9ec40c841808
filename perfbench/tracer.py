"""Spans around lielocal's public functions, installed from outside.

``install`` replaces each function in ``TARGETS`` with a wrapper that
records a span (name, parent, start, end) in a :class:`Recorder`, and
returns or raises exactly what the function does.  Every binding of a
function is patched: ``weyl.py`` does ``from .linalg import rank``, so
``lielocal.weyl.rank`` is replaced along with ``lielocal.linalg.rank``.
Methods are patched on their class.  ``Laurent`` arithmetic and
``ReflectionContext.compose`` run millions of times and are not wrapped;
their cost lands in the self time of whichever span calls them.

A target that no longer exists raises ``LookupError`` at install time, so
a renamed public function fails the traced run instead of reading as zero.

Span names are ``<module>.<function>``; spans inside the program should
reuse them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time

# module.[Class.]function; the span name is module.function
TARGETS = (
    "root_datum.cached_datum",
    "weyl.generate_weyl",
    "weyl.gl_weyl",
    "weyl.WeylGroup.f_conjugacy_classes",
    "weyl.WeylGroup.phi_d_dimensions",
    "weyl.WeylGroup.eigenspace_basis",
    "weyl.WeylGroup.regular_elements",
    "weyl.WeylGroup.centralizer_of_twisted",
    "linalg.rank",
    "linalg.smith_normal_form",
    "cyclotomic.cyclo_rref",
    "generic_order.generic_order",
    "generic_order.ell_part",
    "ell_local.sylow_structure",
    "ell_local.gl_sylow_structure",
    "braid_hecke.verify_regular_braid_identity",
    "braid_hecke.garside_nf",
    "braid_hecke.hecke_poincare",
    "fock_llt.bar_invariant_family",
    "fock_llt.llt_canonical_basis",
    "fock_llt.verify_bar_invariance",
    "fock_llt.shape_check",
    "defining_char.center_dual",
    "defining_char.lemma_counts",
    "defining_char.block_partition",
    "defining_char.alperin_weights",
    "defining_char.knorr_robinson_sum",
    "degeneration.build_isomorphism",
    "degeneration.radical_section",
    "degeneration.dg_cohomology_check",
    "cli.main",
)

# guard constant -> module; read once per run and reported with the result
GUARDS = {
    "WEYL_GUARD": "weyl",
    "WEIGHT_GUARD": "defining_char",
    "LLT_GUARD": "fock_llt",
    "DEGEN_GUARD": "degeneration",
}

ENUMERATIONS = ("weyl.generate_weyl", "weyl.gl_weyl")


class Recorder:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.seen: set = set()

    def add(self, counter: str, value=1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def first(self, key) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def span(self, name: str):
        """Context manager recording one span under the current parent."""
        return _Span(self, name)

    def dump(self, path: str) -> None:
        """Write per-name self times and counters.  Summing here keeps the
        file small; ``dump_s`` is the time that took, so the harness can
        keep it out of the process start-up time."""
        start = time.perf_counter()
        summary = {
            "self_times": self_times(self.spans),
            "counters": dict(self.counters, **{
                "checks.poincare_unenumerated": unenumerated_poincare(self.spans)}),
            "top_s": sum(end - begin for _, parent, begin, end in self.spans
                         if parent < 0),
        }
        summary["dump_s"] = time.perf_counter() - start
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


class _Span:
    __slots__ = ("rec", "entry")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.entry = [name, rec.stack[-1] if rec.stack else -1, 0.0, 0.0]

    def __enter__(self):
        rec = self.rec
        rec.stack.append(len(rec.spans))
        rec.spans.append(self.entry)
        self.entry[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.entry[3] = time.perf_counter()
        self.rec.stack.pop()
        return False


# Counters read from arguments and results, after a call returns.  They
# only read; none changes what the call returns.

def _bind(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _note_classes(rec, fn, args, kwargs, result):
    if rec.first(("classes", id(args[0]))):
        rec.add("weyl.classes", len(result))


def _note_phi_d(rec, fn, args, kwargs, result):
    group, d = args[0], _bind(fn, args, kwargs)["d"]
    if not rec.first(("phi_d", group.ctx.label, d)):
        rec.add("weyl.phi_d_dimensions.repeats")


def _note_weights(rec, fn, args, kwargs, result):
    bound = _bind(fn, args, kwargs)
    rec.add("defining_char.weights", bound["q"] ** bound["datum"].rank)


NOTES = {
    "weyl.WeylGroup.f_conjugacy_classes": _note_classes,
    "weyl.WeylGroup.phi_d_dimensions": _note_phi_d,
    "braid_hecke.verify_regular_braid_identity":
        lambda rec, fn, a, k, r: rec.add("braid_hecke.candidates_checked",
                                         r.candidates_checked),
    "fock_llt.llt_canonical_basis":
        lambda rec, fn, a, k, r: rec.add("fock_llt.labels", len(r.labels)),
    "defining_char.lemma_counts": _note_weights,
    "defining_char.block_partition": _note_weights,
    "defining_char.alperin_weights": _note_weights,
    "degeneration.build_isomorphism":
        lambda rec, fn, a, k, r: rec.add("degeneration.groups"),
    "degeneration.dg_cohomology_check":
        lambda rec, fn, a, k, r: rec.add("checks.dg_incomplete", int(not r.complete)),
    "ell_local.sylow_structure":
        lambda rec, fn, a, k, r: rec.add("checks.sylow_outside_hypotheses",
                                         int(r.outside_hypotheses)),
    "ell_local.gl_sylow_structure":
        lambda rec, fn, a, k, r: rec.add("checks.sylow_outside_hypotheses",
                                         int(r.outside_hypotheses)),
}


def span_name(target: str) -> str:
    parts = target.split(".")
    return parts[0] + "." + parts[-1]


def _wrap(rec: Recorder, name: str, fn, note):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if note is not None:
            note(rec, fn, args, kwargs, result)
        return result

    return wrapper


def _count_elements(rec: Recorder, init):
    """WeylGroup.__init__ runs once per enumeration that actually happens."""

    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rec.add("weyl.elements", len(self.elements))

    return wrapper


def install(rec: Recorder) -> None:
    """Patch every target, and every binding of it, in all lielocal modules."""
    import lielocal

    modules = [importlib.import_module("lielocal." + info.name)
               for info in pkgutil.iter_modules(lielocal.__path__)
               if info.name != "__main__"]
    for target in TARGETS:
        module_name, *path = target.split(".")
        owner = importlib.import_module("lielocal." + module_name)
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if original is None:
            raise LookupError(f"trace target lielocal.{target} does not exist")
        wrapper = _wrap(rec, span_name(target), original, NOTES.get(target))
        setattr(owner, path[-1], wrapper)
        if len(path) == 1:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    weyl_group = importlib.import_module("lielocal.weyl").WeylGroup
    weyl_group.__init__ = _count_elements(rec, weyl_group.__init__)


def self_times(spans) -> dict[str, list]:
    """name -> [self seconds, calls].  A span's self time is its duration
    minus the durations of its direct children; spans of one process nest
    without overlap, so that is the part no child covers."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        acc = out.setdefault(name, [0.0, 0])
        acc[0] += (end - start) - child_time[i]
        acc[1] += 1
    return out


def unenumerated_poincare(spans) -> int:
    """hecke_poincare spans with no Weyl enumeration span below them."""
    enumerated = set()
    for i, (name, parent, _, _) in enumerate(spans):
        if name in ENUMERATIONS:
            while parent >= 0:
                enumerated.add(parent)
                parent = spans[parent][1]
    return sum(1 for i, s in enumerate(spans)
               if s[0] == "braid_hecke.hecke_poincare" and i not in enumerated)
