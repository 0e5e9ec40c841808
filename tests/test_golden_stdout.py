"""Full stdout of a few Weyl-group queries, two weight listings, four
canonical bases, two degenerations and one chain sum, pinned by its sha256.

tests/test_bench_answers.py compares only the answer fields of the
benchmark queries.  These queries reach the eigenspace, centralizer,
F-class and braid code on larger groups (E6, 2E6, F4, 3D4, GL6), and every
byte they print is pinned, so a refactor of those layers that changes any
output fails here.  The Weyl digests were recorded with the code before the
Weyl group dropped its permutation-to-index dict, except that of `braid
verify-regular D6 --d 2`, recorded while the braid search still ran the
centralizer check of `weyl regular` on its first witness.  The `blocks` and
`alperin` digests pin the order of 262,143 listed weights and the JSON
layout; they were recorded with the code that built each stratum weight by
weight, copied the weights into lists and printed one `json.dumps` string.
The four `llt` digests pin the canonical-basis matrices in JSON, CSV and
at v = 1; they were recorded while the Fock space still kept one Laurent
polynomial per coefficient.  The `degenerate` and `kr-sum` digests pin the
JSON keys that state a checked value rather than a stored field (the
certificate's dimensions, `truncated_dims`, `nonzero_cohomology`, `total`
and `sum`); they were recorded while the result records still stored
those values.
"""

import hashlib

import pytest

from lielocal import cli

GOLDEN = {
    "weyl regular E6 --d 9":
        "505bca004a2d04793f161fa1dac4ddf12b62d713953c304cef08a99e7b17445f",
    "weyl regular F4 --d 2":
        "94a6d06bd4a90e833e4079910bf072393dc6ff0a8fb7d75715f29b0e06acbaca",
    "weyl regular 3D4 --d 12":
        "5bc420c07c7b41c636c7bff939ef782a6e1132b17f3efbf5739bf5d78ed6e7a2",
    "braid verify-regular E6 --d 9":
        "582a7e3623e114a329e55be2725e60e1af87de082491a2f63b84d6ee678c6db6",
    "braid verify-regular D6 --d 2":
        "cce4a0375539dfa9e3b17984e357d1ea042f82d075e405323cbc473db8a437b6",
    "weyl classes 2E6":
        "51ff0997f7309f484b5f3b6ade5810135f04ab8eeacaf97741c78cf92ca0ef33",
    "sylow E6 --q 2 --ell 7":
        "3ff304d39b69cb2520619a78c19eeecfe75cc246d3232d4ef9a39e7cf210f20e",
    "sylow GL6 --q 2 --ell 5":
        "42ca5f353b97eec6c73f5ab7a695e63703faa7978f49b17cd9e053f24a20842c",
    "blocks A6 --q 8":
        "01bf3ba7bae3f8d0518205dcb77d056fe90e13da8e68933ac999ccb34cc162bf",
    "alperin A6 --q 8":
        "cb8ce2a5af5b0f6b8d5886c7c5c0028d2bef9b7f16a8736ce699967bf3e11fab",
    "llt --n 12 --d 2":
        "9e3eaba841c1c4c75ab2d1f0aa8f8f5424b7208f00d8fbb3e689c1097624c2f7",
    "llt --n 11 --d 3 --csv":
        "071e6edf43095d36f0be9fac424f9951870c9f504e77133408ebd1273d9b534f",
    "llt --n 10 --d 4 --at-1":
        "550e74777572fe7baad78ab84f6c56793d55f14ca55b4219d11d4e5209b7941a",
    "llt --n 9 --d 5":
        "3d113cd62093d42889b304e108bfc7a38febe0dd809c9cc7589c39150833dde2",
    "degenerate --ell 2 --factors 1:4":
        "77cfb81d2b8f46cad069fe365e6869288790a170fa30a169123d9bea50ebec95",
    "degenerate --ell 3 --factors 2:1,1:2":
        "35e0a3b5d17b29ae04e9ac55343d3b3db95684cceeea06d55bbd2a435fcf8cf4",
    "kr-sum E6 --q 2":
        "7facb001b5c34c21662b1bbfa4f0cfe33a3fb0e2410ffbf2c4edf936b765f08b",
}


@pytest.mark.parametrize("query", sorted(GOLDEN))
def test_stdout_matches_its_recorded_digest(capsys, query):
    assert cli.main(query.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[query]
