"""The command line interface: output schemas, determinism, exit codes."""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from laurent_oracle import Laurent
from lie_oracle import factorization_from_json, laurent_from_json

from lielocal import cli, defining_char
from lielocal.errors import InvariantError
from lielocal.generic_order import generic_order
from lielocal.root_datum import cached_datum, labels_of_rank


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestOrder:
    def test_sl2_value(self, capsys):
        data = run_json(capsys, "order", "A1", "--q", "5")
        assert data["value"] == "120"
        assert data["qpower"] == "1"

    def test_round_trip(self, capsys):
        data = run_json(capsys, "order", "2A2")
        rebuilt = factorization_from_json(data)
        assert rebuilt == generic_order(cached_datum("2A2"))

    def test_gl_mode(self, capsys):
        data = run_json(capsys, "order", "GL3", "--q", "4")
        assert data["value"] == str(63 * 60 * 48)

    def test_ell_part(self, capsys):
        data = run_json(capsys, "order", "A2", "--q", "4", "--ell", "5")
        assert data["d"] == 2
        assert data["nu"] == "1"

    def test_ell_requires_q(self, capsys):
        code, _, err = run_cli(capsys, "order", "A1", "--ell", "5")
        assert code == 1
        assert "requires --q" in err


class TestWeyl:
    def test_classes(self, capsys):
        data = run_json(capsys, "weyl", "classes", "A2")
        assert data["order"] == "6"
        assert data["class_count"] == 3

    def test_regular_witness(self, capsys):
        data = run_json(capsys, "weyl", "regular", "C2", "--d", "4")
        assert data["regular"] is True
        assert data["eigenspace_dim"] == 1

    def test_not_regular(self, capsys):
        data = run_json(capsys, "weyl", "regular", "A2", "--d", "4")
        assert data == {"type": "A2", "d": 4, "regular": False}

    def test_classes_e6_ends_within_five_seconds(self):
        result = subprocess.run(
            [sys.executable, "-m", "lielocal", "weyl", "classes", "E6"],
            capture_output=True, text=True, check=False, timeout=5)
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert (data["order"], data["class_count"]) == ("51840", 25)

    @pytest.mark.parametrize("d", ["30030", "1000000", "1000000000000"])
    def test_huge_d_ends_within_five_seconds(self, d):
        result = subprocess.run(
            [sys.executable, "-m", "lielocal", "weyl", "regular", "A2", "--d", d],
            capture_output=True, text=True, check=False, timeout=5)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"type": "A2", "d": int(d), "regular": False}


class TestSylow:
    def test_split_case(self, capsys):
        data = run_json(capsys, "sylow", "A2", "--q", "4", "--ell", "5")
        assert data["abelian"] is True
        assert data["nu"] == "1"
        assert data["d"] == 2

    def test_gl_mode(self, capsys):
        data = run_json(capsys, "sylow", "GL3", "--q", "2", "--ell", "7")
        assert data["abelian"] is True
        assert data["nu"] == "1"
        assert data["d"] == 3

    def test_defining_characteristic_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sylow", "A1", "--q", "4", "--ell", "2")
        assert code == 1
        assert err


class TestDefiningChar:
    def test_blocks_counts(self, capsys):
        data = run_json(capsys, "blocks", "A1", "--q", "5")
        assert data["counts"] == {"trivial": "2", "nontrivial": "2",
                                  "defect_zero": "1"}
        assert data["total_weights"] == "5"

    def test_blocks_counts_read_the_principal_block(self, capsys):
        # the principal block of SL_3(4) has 5 of the 15 non-Steinberg weights
        data = run_json(capsys, "blocks", "A2", "--q", "4")
        assert data["counts"] == {"trivial": "5", "nontrivial": "10",
                                  "defect_zero": "1"}

    def test_alperin_total(self, capsys):
        data = run_json(capsys, "alperin", "A2", "--q", "3")
        assert data["total"] == "9"

    def test_kr_sum(self, capsys):
        data = run_json(capsys, "kr-sum", "A2", "--q", "2")
        assert data["sum"] == "0"
        assert data["total"] == "0"


class TestBraidHecke:
    def test_verify_regular(self, capsys):
        data = run_json(capsys, "braid", "verify-regular", "A2", "--d", "3")
        assert data["holds"] is True

    @pytest.mark.parametrize("d", ["30030", "1000000", "1000000000000"])
    def test_verify_regular_huge_d_ends_within_five_seconds(self, d):
        result = subprocess.run(
            [sys.executable, "-m", "lielocal", "braid", "verify-regular", "A2", "--d", d],
            capture_output=True, text=True, check=False, timeout=5)
        assert result.returncode == 1
        assert "error: no regular element" in result.stderr
        assert "Traceback" not in result.stderr

    def test_poincare(self, capsys):
        data = run_json(capsys, "hecke", "poincare", "C2")
        poly = laurent_from_json(data["poincare"])
        assert poly(1) == 8
        assert data["at_one"] == "8"


class TestLLT:
    def test_at_one_matrix(self, capsys):
        data = run_json(capsys, "llt", "--n", "2", "--d", "2", "--at-1")
        assert data["entries"] == [[1, 0], [1, 1]]
        assert data["labels"] == [[1, 1], [2]]

    def test_polynomial_entries_round_trip(self, capsys):
        data = run_json(capsys, "llt", "--n", "3", "--d", "2")
        entry = laurent_from_json(data["entries"][2][0])
        assert entry == Laurent.variable()

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "llt", "--n", "2", "--d", "2", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "label,[1.1],[2]"
        assert out.splitlines()[2] == "[2],v,1"

    def test_v_and_at_1_conflict(self, capsys):
        code, _, err = run_cli(capsys, "llt", "--n", "2", "--d", "2",
                               "--v", "--at-1")
        assert code == 1

    def test_huge_d_ends_quickly_with_the_identity(self):
        # d > n: every partition is its own d-core, so every block is a
        # singleton and the basis is the identity
        result = subprocess.run(
            [sys.executable, "-m", "lielocal", "llt", "--n", "12", "--d", "99999999999"],
            capture_output=True, text=True, check=False, timeout=30)
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        size = len(data["labels"])
        assert size == 77
        assert data["entries"] == [[{"0": "1"} if r == c else {} for c in range(size)]
                                   for r in range(size)]


class TestDegenerate:
    def test_plain(self, capsys):
        data = run_json(capsys, "degenerate", "--ell", "3", "--factors", "1:2")
        assert data["isomorphism"]["order"] == "9"

    def test_with_action_file(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps([[[0, 1], [1, 1]]]))
        data = run_json(capsys, "degenerate", "--ell", "2",
                        "--factors", "1:2", "--E", str(path))
        assert data["isomorphism"]["certificate"]["e_order"] == 3

    def test_bad_factors(self, capsys):
        code, _, err = run_cli(capsys, "degenerate", "--ell", "3",
                               "--factors", "nonsense")
        assert code == 1
        assert "factors" in err

    @pytest.mark.parametrize("text", [
        "[1]", "[[1]]", "[[[null]]]", "[[[1.5]]]", "[[[true]]]", "[" * 100000 + "]" * 100000,
    ], ids=["flat", "matrix", "null", "float", "bool", "deep"])
    def test_malformed_action_file(self, capsys, tmp_path, text):
        path = tmp_path / "gens.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "degenerate", "--ell", "3",
                                 "--factors", "1:1", "--E", str(path))
        assert (code, out) == (1, "")
        assert "error: matrix file must hold a list of integer matrices" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "degenerate", "--ell", "2",
                             "--factors", "1:2", "--E", "/nonexistent.json")
        assert code == 1

    def test_mixed_factors_end_within_five_seconds(self):
        result = subprocess.run(
            [sys.executable, "-m", "lielocal", "degenerate", "--ell", "2",
             "--factors", "6:1,1:3"],
            capture_output=True, text=True, check=False, timeout=5)
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert data["dg"]["nonzero_cohomology"] == []
        assert data["dg"]["complete"] is True


class TestExitCodes:
    def test_unknown_type(self, capsys):
        code, _, _ = run_cli(capsys, "order", "Z9")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "blocks", "A1")
        assert code == 1

    # `blocks --json` and `llt --v` named the default and changed nothing
    @pytest.mark.parametrize("argv", [["blocks", "A2", "--q", "2", "--json"],
                                      ["llt", "--n", "2", "--d", "2", "--v"]])
    def test_flags_that_select_nothing_are_gone(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: " + argv[-1] in err

    def test_invariant_breach_maps_to_two(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InvariantError("chain sum is off")

        # the handler imports the function when it runs, so patch its module
        monkeypatch.setattr(defining_char, "knorr_robinson_sum", boom)
        code, _, err = run_cli(capsys, "kr-sum", "A1", "--q", "2")
        assert code == 2
        assert "invariant" in err

    @pytest.mark.parametrize("label", ["H3", "E9", "E5", "A0", "A300", "2B3", "3D5",
                                       "GL0", "GL10", "GL300"])
    @pytest.mark.parametrize("command", [["order"], ["hecke", "poincare"]])
    def test_unsupported_type_label(self, command, label):
        result = subprocess.run(
            [sys.executable, "-m", "lielocal", *command, label],
            capture_output=True, text=True, check=False, timeout=30)
        assert result.returncode == 1
        assert "error: unsupported type" in result.stderr
        assert "Traceback" not in result.stderr

    # outside the label grammar: a twist or rank the prefix table does not
    # allow, an unknown prefix, a digit that is not ASCII, a trailing newline
    @pytest.mark.parametrize("label", ["2A1", "2E7", "3D5", "2B3", "2G2", "GL0", "GL10", "A9",
                                       "X3", "A\u0663", "GL\u0663", "A3\n", "GL3\n"])
    @pytest.mark.parametrize("command", [["order", "L"], ["weyl", "classes", "L"],
                                         ["blocks", "L", "--q", "2"]])
    def test_refused_label(self, capsys, command, label):
        code, out, err = run_cli(capsys, *(label if arg == "L" else arg for arg in command))
        assert (code, out) == (1, "")
        assert err.startswith("error: unsupported type") or "F not Frobenius" in err, err
        assert "Traceback" not in err

    # a rank with a leading zero is outside the grammar, not a second
    # spelling of the rank
    @pytest.mark.parametrize("label", ["A03", "GL03", "A00"])
    @pytest.mark.parametrize("command", [["order", "L"], ["weyl", "classes", "L"],
                                         ["sylow", "L", "--q", "2", "--ell", "3"]])
    def test_leading_zero_rank_refused(self, capsys, command, label):
        code, out, err = run_cli(capsys, *(label if arg == "L" else arg for arg in command))
        assert (code, out, err) == (1, "", f"error: unsupported type {label!r}\n")

    def test_large_prime_q_ends_quickly(self):
        result = subprocess.run(
            [sys.executable, "-m", "lielocal", "order", "A2", "--q",
             "1000000000000000003"],
            capture_output=True, text=True, check=False, timeout=5)
        assert result.returncode == 0
        assert json.loads(result.stdout)["q"] == "1000000000000000003"

    def test_large_prime_ell_ends_quickly(self):
        ell = 1000000000039
        result = subprocess.run(
            [sys.executable, "-m", "lielocal", "order", "A2", "--q", "4", "--ell", str(ell)],
            capture_output=True, text=True, check=False, timeout=5)
        assert result.returncode == 0
        d = json.loads(result.stdout)["d"]
        assert d == (ell - 1) // 2 and pow(4, d, ell) == 1

    def test_hostile_argv_exit_cleanly(self, capsys, tmp_path):
        matrix_files = []
        for i, data in enumerate([b"[1]", b"[[1]]", b"[[[null]]]", b"[[[1.5]]]",
                                  b"[" * 100000 + b"]" * 100000,
                                  b"", b"[[[1]]", b"[[[\xff\xfe]]]"]):
            path = tmp_path / f"e{i}.json"
            path.write_bytes(data)
            matrix_files.append(str(path))
        identity_2 = tmp_path / "identity2.json"
        identity_2.write_text("[[[1, 0], [0, 1]]]")
        hostile = [
            (["weyl", "regular", "A2", "--d", "30030"], 0),
            (["weyl", "regular", "A2", "--d", "1000000"], 0),
            (["weyl", "regular", "A2", "--d", "1000000000000"], 0),
            (["braid", "verify-regular", "A2", "--d", "1000000"], 1),
            (["braid", "verify-regular", "A2", "--d", "1000000000000"], 1),
            (["llt", "--n", "-1", "--d", "2"], 1),
            (["llt", "--n", "3", "--d", "0"], 1),
            (["weyl", "regular", "A2", "--d", "0"], 1),
            (["braid", "verify-regular", "A2", "--d", "0"], 1),
            (["sylow", "A2", "--q", "1", "--ell", "5"], 1),
            (["sylow", "A2", "--q", "6", "--ell", "5"], 1),
            (["sylow", "GL3", "--q", "1", "--ell", "5"], 1),
            (["sylow", "GL3", "--q", "6", "--ell", "5"], 1),
            (["degenerate", "--ell", "2", "--factors", "0:1"], 1),
            (["degenerate", "--ell", "2", "--factors", "abc"], 1),
            (["degenerate", "--ell", "2", "--factors", "99999:1"], 1),
            (["degenerate", "--ell", "2", "--factors", "1:99999"], 1),
            (["degenerate", "--ell", "2", "--factors", "1000000000000:1"], 1),
            (["degenerate", "--ell", "2", "--factors", "1:1000000000000"], 1),
            (["degenerate", "--ell", "2", "--factors", "1000000000000:1,1:1",
              "--E", str(identity_2)], 1),
            (["alperin", "A1", "--q", "6"], 1),
            (["alperin", "A1", "--q", "0"], 1),
            (["order", "GL0"], 1),
            (["hecke", "poincare", "GL0"], 1),
            # |A1(q)| has about 12,600 digits: refused before any conversion
            (["order", "A1", "--q", str(2**14000), "--ell", "3"], 1),
            (["kr-sum", "A2", "--q", str(2**14000)], 1),
        ] + [(["degenerate", "--ell", "3", "--factors", "1:1", "--E", path], 1)
             for path in matrix_files]
        # q^rank has about 8,400 digits: the weight guard must not print it
        weight_guarded = [[command, "A2", "--q", str(2**14000)]
                          for command in ("blocks", "alperin")]
        hostile += [(argv, 1) for argv in weight_guarded]
        for argv, expected in hostile:
            code, _, err = run_cli(capsys, *argv)
            assert code == expected, (argv, err)
            assert "Traceback" not in err, argv
            if argv in weight_guarded:
                assert "exceeds the weight guard" in err and len(err.encode()) < 200, argv
            if "--E" in argv and argv[-1] in matrix_files:
                assert err == "error: matrix file must hold a list of integer matrices\n", argv

    def test_guard_and_q_messages(self, capsys):
        # the order 2^99999 has too many digits to print in decimal
        code, _, err = run_cli(capsys, "degenerate", "--ell", "2", "--factors", "99999:1")
        assert code == 1
        assert "group order 2^99999 exceeds guard" in err
        # one message for every command that takes q
        for q in ("6", "0", "1"):
            for argv in (["order", "A2", "--q", q], ["order", "GL3", "--q", q, "--ell", "5"],
                         ["sylow", "A2", "--q", q, "--ell", "5"], ["blocks", "A2", "--q", q],
                         ["alperin", "A1", "--q", q], ["kr-sum", "A2", "--q", q]):
                code, out, err = run_cli(capsys, *argv)
                assert (code, out, err) == (1, "", f"error: q = {q} is not a prime power\n"), argv

    def test_too_many_digits_to_print(self, capsys):
        code, out, err = run_cli(capsys, "order", "A1", "--q", str(2**14000), "--ell", "3")
        assert (code, out) == (1, "")
        assert err == "error: |G(q)| has more than 4300 decimal digits, too many to print\n"
        # |A1(q)| = q^3 - q has 4300 digits at q = 2^4761, and 4301 at 2^4762
        data = run_json(capsys, "order", "A1", "--q", str(2**4761))
        assert len(data["value"]) == 4300
        code, _, err = run_cli(capsys, "order", "A1", "--q", str(2**4762))
        assert code == 1 and "more than 4300 decimal digits" in err

    def test_success_is_zero(self, capsys):
        code, _, _ = run_cli(capsys, "order", "A1")
        assert code == 0


class TestDeterminism:
    def test_identical_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "sylow", "C2", "--q", "3", "--ell", "5")
        _, second, _ = run_cli(capsys, "sylow", "C2", "--q", "3", "--ell", "5")
        assert first == second

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "lielocal", "order", "A1", "--q", "2"],
            capture_output=True, text=True, check=False)
        assert result.returncode == 0
        assert json.loads(result.stdout)["value"] == "6"


class TestEmit:
    """`_emit` writes `json.dumps(data, sort_keys=True, indent=2)` and a
    newline, whatever the number of batches."""

    @staticmethod
    def _check(capsys, data):
        cli._emit(data)
        assert capsys.readouterr().out == json.dumps(data, sort_keys=True,
                                                     indent=2) + "\n"

    def test_empty(self, capsys):
        self._check(capsys, {})

    def test_small_report(self, capsys):
        report = defining_char.alperin_weights(cached_datum("2A3"), 3)
        self._check(capsys, report.to_json())

    def test_several_batches(self, capsys):
        data = {"b": [(i, -i) for i in range(50000)],
                "a": {"z": None, "y": "\u00e9"}}
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(data)
        assert sum(1 for _ in chunks) > 2 * cli._EMIT_BATCH
        self._check(capsys, data)


# ---------------------------------------------------------------------------
# fuzzing: argv drawn from a small grammar of the real interface


_LABELS = st.sampled_from(labels_of_rank(3) + [f"GL{n}" for n in range(1, 5)]
                          + ["", "Z9", "A0", "A99", "GL0", "GL", "2B2", "A1xA1", "--q", "-1"])
_INT = (st.integers(-3, 40) | st.just(10**12)).map(str)
_SMALL_Q = st.integers(-3, 16).map(str)
_EXTRA_TOKENS = ["--q", "--ell", "--d", "--n", "--csv", "--v", "--at-1", "--json", "x"]


def _opt(tokens):
    return st.just([]) | tokens


def _args(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps
                                             for t in ([p] if isinstance(p, str) else p)])


_FACTORS = (st.lists(st.tuples(_INT, _INT).map(":".join), min_size=1, max_size=2)
            .map(",".join)) | st.sampled_from(["", "abc", "1:", ":1", "1:1:1", "1:1,"])

_COMMANDS = st.one_of(
    _args(st.just("order"), _LABELS, _opt(_args(st.just("--q"), _INT)),
          _opt(_args(st.just("--ell"), _INT))),
    _args(st.just("weyl"), st.just("classes"), _LABELS),
    _args(st.just("weyl"), st.just("regular"), _LABELS, st.just("--d"), _INT),
    _args(st.just("sylow"), _LABELS, st.just("--q"), _INT, st.just("--ell"), _INT),
    _args(st.just("blocks"), _LABELS, st.just("--q"), _SMALL_Q),
    _args(st.just("alperin"), _LABELS, st.just("--q"), _SMALL_Q),
    _args(st.just("kr-sum"), _LABELS, st.just("--q"), _INT),
    _args(st.just("braid"), st.just("verify-regular"), _LABELS, st.just("--d"), _INT),
    _args(st.just("hecke"), st.just("poincare"), _LABELS),
    _args(st.just("llt"), st.just("--n"), st.integers(-3, 8).map(str), st.just("--d"), _INT,
          _opt(st.just(["--at-1"])), _opt(st.just(["--csv"]))),
    _args(st.just("degenerate"), st.just("--ell"), _INT, st.just("--factors"), _FACTORS,
          _opt(st.just(["--E", "/nonexistent/gens.json"]))),
)


@st.composite
def _argv(draw):
    """A well-formed command, then maybe one token dropped or replaced, or
    a short run of tokens taken from the whole vocabulary."""
    argv = draw(_COMMANDS)
    how = draw(st.sampled_from(["keep", "keep", "drop", "replace", "junk"]))
    if how == "junk":
        vocab = st.sampled_from(argv + _EXTRA_TOKENS + ["weyl", "braid", "hecke", "llt"])
        return draw(st.lists(vocab | _INT | _LABELS, max_size=5))
    if how != "keep":
        i = draw(st.integers(0, len(argv) - 1))
        replacement = [] if how == "drop" else [draw(st.sampled_from(_EXTRA_TOKENS) | _INT)]
        argv = argv[:i] + replacement + argv[i + 1:]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------------------
# cold processes: which modules a command loads, and hostile argv under
# resource limits


_LOADED_MODULES = """
import contextlib, io, json, sys
from lielocal import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


# One argv per subcommand, the at-1 form of `llt` and `hecke poincare` on
# E8.  None loads `dataclasses` or `inspect`, whose import costs a cold query
# more than most of its computation.  `llt`, `order` and `hecke poincare` do
# no rational work, and the eigenspace work of `sylow`, `weyl regular` and
# `braid verify-regular` is integer elimination: none loads `fractions`.
_NOT_LLT = ["lielocal.weyl", "lielocal.braid_hecke", "lielocal.defining_char",
            "lielocal.degeneration", "lielocal.ell_local"]


@pytest.mark.parametrize("argv, absent", [
    (["llt", "--n", "1", "--d", "2"], _NOT_LLT + ["lielocal.root_datum", "fractions"]),
    (["order", "A2"], _NOT_LLT + ["lielocal.fock_llt", "fractions"]),
    (["weyl", "classes", "A2"], []),
    (["weyl", "regular", "A2", "--d", "3"], []),
    (["sylow", "A2", "--q", "2", "--ell", "7"], []),
    (["blocks", "A2", "--q", "2"], []),
    (["alperin", "A2", "--q", "2"], []),
    (["kr-sum", "A2", "--q", "2"], []),
    (["braid", "verify-regular", "A2", "--d", "3"], []),
    (["hecke", "poincare", "A2"], []),
    (["degenerate", "--ell", "2", "--factors", "1:2"], []),
    (["llt", "--n", "7", "--d", "3", "--at-1"], _NOT_LLT + ["lielocal.root_datum", "fractions"]),
    (["hecke", "poincare", "E8"], ["lielocal.fock_llt", "fractions"]),
    (["sylow", "D6", "--q", "2", "--ell", "7"], ["fractions"]),
    (["weyl", "regular", "D5", "--d", "8"], ["fractions"]),
    (["braid", "verify-regular", "D5", "--d", "8"], ["fractions"]),
])
def test_command_loads_only_its_modules(argv, absent):
    result = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv],
                            capture_output=True, text=True, check=False, timeout=30)
    code, loaded = json.loads(result.stdout)
    assert code == 0, result.stderr
    unwanted = ["dataclasses", "inspect", *absent]
    assert [m for m in unwanted if m in loaded] == []


# Sets the limits on this process only, then runs the CLI: the first
# argument is the address space in bytes, the rest is the argv.  Core dumps
# are switched off so that a limit kill leaves no file behind.
_LIMITED_CLI = """
import resource, sys
for res, cap in ((resource.RLIMIT_AS, int(sys.argv[1])), (resource.RLIMIT_CPU, 10),
                 (resource.RLIMIT_CORE, 0)):
    hard = resource.getrlimit(res)[1]
    cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
    resource.setrlimit(res, (cap, cap))
from lielocal.cli import main
raise SystemExit(main(sys.argv[2:]))
"""


def _limited_cli(address_mib: int, argv) -> list[str]:
    """The command running `argv` with `address_mib` MiB of address space
    and 10 s of CPU."""
    return [sys.executable, "-c", _LIMITED_CLI, str(address_mib << 20), *argv]


def test_hostile_argv_end_within_resource_limits(tmp_path):
    """Each argv runs in its own child process with 512 MiB of address space
    and 10 s of CPU.  A child killed by a limit, a MemoryError, a traceback
    or an exit code other than 0, 1 or 2 fails the test."""
    files = {
        "identity": "[[[1, 0], [0, 1]]]",
        "swap": "[[[0, 1], [1, 0]]]",
        "wrong_size": "[[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]",
        "singular": "[[[1, 1], [1, 1]]]",
        "not_json": "{[1, 0",
        "not_matrices": '{"E": [[1]]}',
        "floats": "[[[1.0, 0], [0, 1]]]",
        "deep": "[" * 100000 + "]" * 100000,
        "empty": "",
    }
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)

    def degenerate(ell, factors, name):
        return ["degenerate", "--ell", ell, "--factors", factors,
                "--E", str(tmp_path / f"{name}.json")]

    huge = str(2**14000)
    argvs = [degenerate("3", "1:2", name) for name in files] + [
        degenerate("2", "1:2", "swap"),
        degenerate("2", "1000000000000:1,1:1", "identity"),
        degenerate("2", "100000000:1,1:1", "identity"),
        degenerate("2", "1:1,1000000000000:1", "identity"),
        degenerate("2", "2:1,1:1", "swap"),
        degenerate("1000000007", "1:2", "identity"),
        degenerate("3", "1:1000000000000", "identity"),
        ["degenerate", "--ell", "2", "--factors", "1:13"],
        ["degenerate", "--ell", "2", "--factors", "1000000000000:1000000000000"],
        ["order", "A1", "--q", huge, "--ell", "3"],
        ["order", "E8", "--q", huge],
        ["kr-sum", "A2", "--q", huge],
        ["blocks", "A2", "--q", huge],
        ["sylow", "A2", "--q", huge, "--ell", "3"],
        ["order", "E8", "--q", "1000000007", "--ell", "1000003"],
        ["sylow", "E8", "--q", "2", "--ell", "7"],
        ["weyl", "classes", "E7"],
        ["weyl", "regular", "A2", "--d", "1000000000000"],
        ["braid", "verify-regular", "E8", "--d", "30"],
        ["braid", "verify-regular", "D6", "--d", "2"],
        ["hecke", "poincare", "E8"],
        ["blocks", "E8", "--q", "9"],
        ["alperin", "A1", "--q", "1000000000000"],
        ["llt", "--n", "13", "--d", "2"],
        ["llt", "--n", "12", "--d", "1000000000000"],
    ]
    for argv in argvs:
        result = subprocess.run(_limited_cli(512, argv), capture_output=True,
                                text=True, check=False, timeout=60)
        shown = [a if len(a) < 40 else a[:12] + "..." for a in argv]
        assert result.returncode in (0, 1, 2), (shown, result.returncode)
        assert "Traceback" not in result.stderr, (shown, result.stderr[-2000:])
        assert "MemoryError" not in result.stderr, shown


@pytest.mark.parametrize("label", ["E6", "GL8"])
def test_weyl_classes_fit_in_40_mib(label):
    """The 51,840 elements of W(E6) and the 40,320 of S_8 are enumerated and
    split into F-classes with 40 MiB of address space: the group is held in
    flat columns, and a permutation dict is kept for one length at a time.
    Each needed more while the group kept four Python objects per element."""
    result = subprocess.run(_limited_cli(40, ["weyl", "classes", label]),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, check=False, timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stderr == ""


@pytest.mark.parametrize("argv", [["blocks", "A6", "--q", "8"],
                                  ["alperin", "A6", "--q", "8"]])
def test_weight_listing_fits_in_128_mib(argv):
    """A listing of 262,143 weights (about 26 MB of JSON) is written with
    128 MiB of address space: the report's weight tuples go to the encoder
    as they are, and stdout is written in batches."""
    result = subprocess.run(_limited_cli(128, argv), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, check=False,
                            timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stderr == ""


# ---------------------------------------------------------------------------
# the process entry point: `cli.run` flushes and ends the process with
# `os._exit`, except when a stream is missing, a tracer or profiler is set,
# or Python runs with -i


def _buffered_env() -> dict:
    """The test's environment, with stdout block-buffered in the child (so
    that output left in a buffer at exit would be lost) and argparse's help
    width fixed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["COLUMNS"] = "80"
    return env


@pytest.mark.parametrize("argv", [
    ["blocks", "A5", "--q", "8"],            # 2.8 MB, several _emit batches
    ["llt", "--n", "8", "--d", "2", "--csv"],  # written by sys.stdout.write
    ["order", "A2", "--q", "6"],             # exit 1, message on stderr
    ["--help"],
])
def test_process_prints_what_main_prints(capsysbinary, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(argv)
    captured = capsysbinary.readouterr()
    result = subprocess.run([sys.executable, "-m", "lielocal", *argv],
                            capture_output=True, env=_buffered_env(),
                            check=False, timeout=60)
    assert result.returncode == code
    assert result.stdout == captured.out
    assert result.stderr == captured.err


@pytest.mark.parametrize("argv", [["order", "A2"],
                                  ["llt", "--n", "3", "--d", "2", "--csv"]])
def test_closed_stdout_is_refused(argv):
    # the shell closes file descriptor 1 before Python starts
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "lielocal", *argv],
        stderr=subprocess.PIPE, text=True, check=False, timeout=60)
    assert (result.returncode, result.stderr) == (1, "error: standard output is closed\n")


# Registers an atexit handler, sets the hook named by argv[1], then runs the
# entry point.  `monitoring` stands in for a `sys.monitoring` tool, through
# which cProfile profiles since Python 3.12.
_ENTRY_WITH_ATEXIT = """
import atexit, os, sys, types
from lielocal import cli
atexit.register(os.write, 2, b"atexit ran")
hook = sys.argv[1]
if hook == "profile":
    sys.setprofile(lambda frame, event, arg: None)
elif hook == "trace":
    sys.settrace(lambda frame, event, arg: None)
elif hook == "monitoring":
    sys.monitoring = types.SimpleNamespace(
        get_tool=lambda tool: "profiler" if tool == 2 else None)
cli.run(["order", "A2"])
"""


@pytest.mark.parametrize("hook, teardown", [("none", False), ("profile", True),
                                            ("trace", True), ("monitoring", True)])
def test_teardown_runs_only_under_a_tracer_or_profiler(hook, teardown):
    result = subprocess.run([sys.executable, "-c", _ENTRY_WITH_ATEXIT, hook],
                            capture_output=True, text=True, env=_buffered_env(),
                            check=False, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["type"] == "A2"
    assert result.stderr == ("atexit ran" if teardown else "")


def test_cprofile_still_prints_its_table():
    result = subprocess.run([sys.executable, "-m", "cProfile", "-m", "lielocal",
                             "order", "A2"], capture_output=True, text=True,
                            env=_buffered_env(), check=False, timeout=60)
    assert result.returncode == 0, result.stderr
    assert '"type": "A2"' in result.stdout
    assert "function calls" in result.stdout


def test_python_i_still_reaches_its_prompt():
    result = subprocess.run([sys.executable, "-i", "-m", "lielocal", "order", "A2"],
                            stdin=subprocess.DEVNULL, capture_output=True,
                            text=True, env=_buffered_env(), check=False, timeout=60)
    assert json.loads(result.stdout)["type"] == "A2"
    assert ">>>" in result.stderr


def _called_at_top_level(path: pathlib.Path) -> list[str]:
    """The functions a module calls by name at its top level, or in its
    `if __name__ == "__main__"` block."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    statements = [*tree.body, *(s for node in tree.body
                                if isinstance(node, ast.If) for s in node.body)]
    return [s.value.func.id for s in statements
            if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)
            and isinstance(s.value.func, ast.Name)]


def test_every_launcher_calls_the_script_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as handle:
        entry = tomllib.load(handle)["project"]["scripts"]["lielocal"]
    module, _, name = entry.partition(":")
    assert module == "lielocal.cli" and callable(getattr(cli, name))
    package = pathlib.Path(cli.__file__).parent
    assert _called_at_top_level(package / "__main__.py") == [name]
    assert _called_at_top_level(package / "cli.py") == [name]
