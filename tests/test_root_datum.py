"""Root datum construction, pairings, and closure invariants."""

import subprocess
import sys

import pytest
from lie_oracle import root_inner

from lielocal.errors import UnsupportedTypeError
from lielocal.root_datum import (
    ALL_LABELS,
    build_root_datum,
    cartan_matrix,
    from_cartan,
    gl_rank,
    labels_of_rank,
    parse_label,
)

EXPECTED_N = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "C2": 4, "C3": 9,
    "D4": 12, "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
    "2A2": 3, "2A3": 6, "2D4": 12, "3D4": 12, "2E6": 36,
}


class TestConstruction:
    @pytest.mark.parametrize("label,n", sorted(EXPECTED_N.items()))
    def test_positive_root_counts(self, label, n):
        datum = build_root_datum(label)
        assert datum.N == n
        assert len(datum.pos_coroots) == n

    def test_a1(self):
        datum = build_root_datum("A1")
        assert datum.rank == 1
        assert datum.cartan == ((2,),)
        assert datum.N == 1
        assert datum.phi == (0,)
        assert datum.delta == 1

    def test_2a2(self):
        datum = build_root_datum("2A2")
        assert datum.rank == 2
        assert datum.cartan == ((2, -1), (-1, 2))
        assert datum.phi == (1, 0)
        assert datum.delta == 2

    def test_3d4(self):
        datum = build_root_datum("3D4")
        assert datum.delta == 3
        assert datum.N == 12

    def test_suzuki_ree_rejected(self):
        for label in ("2B2", "2G2", "2F4"):
            with pytest.raises(UnsupportedTypeError, match="F not Frobenius: out of scope"):
                build_root_datum(label)

    def test_unknown_rejected(self):
        for label in ("H3", "A0", "A9", "B1", "D2", "2E7", "3D5", "2C3", "xyz"):
            with pytest.raises(UnsupportedTypeError):
                build_root_datum(label)

    def test_all_labels_build(self):
        for label in ALL_LABELS:
            datum = build_root_datum(label)
            assert datum.rank <= 8

    def test_labels_of_rank(self):
        assert labels_of_rank(2) == ["A1", "A2", "B2", "C2", "G2", "2A2"]
        assert labels_of_rank(0) == []
        assert labels_of_rank(8) == list(ALL_LABELS)

    def test_all_labels_are_the_fixed_list(self):
        # read off the prefix table: the split families, then the twisted
        # prefixes, each by rank
        assert ALL_LABELS == (
            "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
            "B2", "B3", "B4", "B5", "B6", "B7", "B8",
            "C2", "C3", "C4", "C5", "C6", "C7", "C8",
            "D3", "D4", "D5", "D6", "D7", "D8",
            "E6", "E7", "E8", "F4", "G2",
            "2A2", "2A3", "2A4", "2A5", "2A6", "2A7", "2A8",
            "2D3", "2D4", "2D5", "2D6", "2D7", "2D8",
            "3D4", "2E6",
        )

    def test_labels_parse(self):
        assert [parse_label(label) for label in ("A3", "2A3", "3D4", "2D3", "E8")] == [
            (1, "A", 3), (2, "A", 3), (3, "D", 4), (2, "D", 3), (1, "E", 8)]
        assert [gl_rank(label) for label in ("GL1", "GL9", "A3", "3D4")] == [1, 9, None, None]

    @pytest.mark.parametrize("label", ["A\u0663", "2A\u0663", "A3\n", "2D4\n", "E\uff18",
                                       "GL\u0663", "GL3\n", "GL", "GL3x", "2GL3"])
    def test_only_ascii_digits_and_nothing_after(self, label):
        # the grammar's digits are ASCII and a label ends with them: no
        # Arabic-Indic or full-width digit, no trailing newline
        with pytest.raises(UnsupportedTypeError, match="unsupported type"):
            parse_label(label)
        assert gl_rank(label) is None

    @pytest.mark.parametrize("label", ["A03", "2A03", "E08", "A00", "GL03", "GL00"])
    def test_no_leading_zero(self, label):
        # one spelling per rank, so one cached datum per type
        with pytest.raises(UnsupportedTypeError, match=r"unsupported type '\w+'$"):
            parse_label(label)
        assert gl_rank(label) is None

    @pytest.mark.parametrize("label", ["2A1", "2E7", "3D5", "3D3", "2D2", "GL0", "GL10"])
    def test_rank_outside_the_prefix_range(self, label):
        parse = gl_rank if label.startswith("GL") else parse_label
        with pytest.raises(UnsupportedTypeError, match=r"\(rank out of range\)"):
            parse(label)


class TestPairing:
    def test_dual_basis(self):
        datum = build_root_datum("A2")
        omega1 = (1, 0)
        assert datum.pairing(omega1, (1, 0)) == 1
        assert datum.pairing(omega1, (0, 1)) == 0

    def test_cartan_diagonal(self):
        datum = build_root_datum("A2")
        alpha1 = datum.root_weight_coords((1, 0))
        assert datum.pairing(alpha1, (1, 0)) == 2
        assert datum.pairing(alpha1, (0, 1)) == -1

    def test_dimension_mismatch(self):
        datum = build_root_datum("A2")
        with pytest.raises(ValueError):
            datum.pairing((1, 0, 0), (1, 0))

    def test_highest_root_b2(self):
        datum = build_root_datum("B2")
        # long highest root 2*alpha_... ; height 3 root exists: coords (1,2)
        heights = sorted(sum(r) for r in datum.pos_roots)
        assert heights == [1, 1, 2, 3]


class TestGeometry:
    def test_symmetrizer_short_norm(self):
        for label, short_norms in [("A2", {2}), ("B2", {2, 4}), ("G2", {2, 6}), ("F4", {2, 4})]:
            datum = build_root_datum(label)
            norms = {root_inner(datum, r, r) for r in datum.pos_roots}
            assert norms == short_norms
            assert min(norms) == 2

    def test_inner_product_symmetry(self):
        datum = build_root_datum("F4")
        roots = datum.pos_roots
        for r1 in roots[:6]:
            for r2 in roots[:6]:
                assert root_inner(datum, r1, r2) == root_inner(datum, r2, r1)

    def test_reflection_matrix_involution(self):
        from lielocal.linalg import mat_mul, identity
        for label in ("A3", "B3", "G2", "2A3"):
            datum = build_root_datum(label)
            for i in range(datum.rank):
                m = datum.reflection_matrix(i)
                assert mat_mul(m, m) == identity(datum.rank)

    def test_simple_reflection_on_rho(self):
        datum = build_root_datum("A2")
        # s_1(rho) = rho - alpha_1 = (1,1) - (2,-1) = (-1,2)
        from lielocal.linalg import mat_vec
        assert mat_vec(datum.reflection_matrix(0), (1, 1)) == [-1, 2]

    def test_phi_on_weights_and_matrix(self):
        datum = build_root_datum("2A3")
        lam = (1, 2, 3)
        from lielocal.linalg import mat_vec
        image = [0] * datum.rank
        for i, x in enumerate(lam):
            image[datum.phi[i]] = x  # phi sends omega_i to omega_phi(i)
        assert tuple(image) == (3, 2, 1)
        assert tuple(mat_vec(datum.phi_matrix(), lam)) == (3, 2, 1)


class TestFromCartan:
    def test_a1xa1_swap(self):
        datum = from_cartan("A1xA1", [[2, 0], [0, 2]], phi=(1, 0))
        assert datum.N == 2
        assert datum.delta == 2

    def test_infinite_type_is_refused_quickly(self):
        # the root closure never ends on an affine or hyperbolic matrix, so
        # run it in a child process that a timeout can stop
        child = (
            "import time\n"
            "from lielocal.errors import UnsupportedTypeError\n"
            "from lielocal.root_datum import from_cartan\n"
            "for m in ([[2, -2], [-2, 2]], [[2, -3], [-3, 2]]):\n"
            "    start = time.perf_counter()\n"
            "    try:\n"
            "        from_cartan('aff', m)\n"
            "    except UnsupportedTypeError as exc:\n"
            "        print(time.perf_counter() - start, exc)\n")
        result = subprocess.run([sys.executable, "-c", child], capture_output=True,
                                text=True, check=False, timeout=30)
        lines = result.stdout.splitlines()
        assert result.returncode == 0 and len(lines) == 2, result.stderr
        for line in lines:
            seconds, message = line.split(" ", 1)
            assert float(seconds) < 1.0
            assert message == "Cartan matrix is not of finite type"

    def test_finite_types_still_build(self):
        assert from_cartan("A1xA1", [[2, 0], [0, 2]]).N == 2
        for label in ALL_LABELS:
            datum = build_root_datum(label)
            assert from_cartan(label, datum.cartan, datum.phi) == datum

    @pytest.mark.parametrize("label,family,phi", [
        ("A3", "A", (2, 1, 0)),  # the twist of 2A3
        ("B2", "C", None),
        ("2A3", "A", None),
    ])
    def test_built_in_label_with_other_data(self, label, family, phi):
        # caches keyed by label would answer for the built-in type
        with pytest.raises(UnsupportedTypeError, match="names a built-in type"):
            from_cartan(label, cartan_matrix(family, int(label[-1])), phi)

    @pytest.mark.parametrize("cartan,phi,message", [
        ([[2, -1], [-1, 2]], (0, 0), "phi is not a permutation"),
        ([[2, -1], [-1, 2]], (0,), "phi is not a permutation"),
        ([[2, -1], [-1, 2]], (0, 1, 2), "phi is not a permutation"),
        ([[2, -1], [-1, 3]], None, r"cartan\[1\]\[1\] != 2"),
        ([[2, 1], [1, 2]], None, "positive off-diagonal"),
        ([[2, -1], [0, 2]], None, "asymmetric Cartan zero pattern"),
        ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], None, "not symmetrizable"),
        (cartan_matrix("A", 3), (1, 0, 2), "phi does not preserve"),
        ([[2, -1]], None, "not square"),
        ([[2.0, -1], [-1, 2]], None, "must hold integers"),
        ([[2, -1.5], [-1, 2]], None, "must hold integers"),
        ([[2, -1], [-1, 2]], (0.0, 1), "must hold integers"),
    ])
    def test_malformed_input_is_bad_input(self, cartan, phi, message):
        # exit 1 in the CLI's terms, not the exit-2 "bug detected" category
        with pytest.raises(UnsupportedTypeError, match=message):
            from_cartan("X", cartan, phi)
