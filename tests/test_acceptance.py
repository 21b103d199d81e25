"""The acceptance gate: one test per criterion, every check exact over Q(t).

Run with `pytest tests/test_acceptance.py -v -s` for one pass/fail line per
criterion, or `qsphere selftest` for the CLI flavor of the same suite.

Each criterion's report entry must also equal, byte for byte as JSON, its
entry in tests/golden/selftest.json, the JSON document that
`qsphere --format json selftest` prints.  Since that document is the list
of these entries, the whole selftest report is checked on every run.
"""

import json
from pathlib import Path

from qsphere import selftest
from qsphere.cli import selftest_certificate

GOLDEN_TEXT = (Path(__file__).resolve().parent / "golden" / "selftest.json").read_text()
GOLDEN = json.loads(GOLDEN_TEXT)


def _dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def _run(fn):
    result = fn()
    line = "%s %s" % (result["criterion"], "PASS" if result["pass"] else "FAIL")
    print(line)
    assert result["pass"], result["details"]
    want = next(c for c in GOLDEN["certificates"] if c["name"] == result["criterion"])
    assert _dump(selftest_certificate(result)) == _dump(want)
    return result


def test_golden_selftest_is_the_emitted_document():
    assert GOLDEN_TEXT == _dump(GOLDEN) + "\n"
    assert [c["name"] for c in GOLDEN["certificates"]] == [
        name for name, _ in selftest.CRITERIA]


def test_ac1_embedded_relations():
    _run(selftest.ac1_embedded_relations)


def test_ac2_functional_tables():
    _run(selftest.ac2_functional_tables)


def test_ac3_operator_algebra():
    _run(selftest.ac3_operator_algebra)


def test_ac4_xc_matrix_both_routes():
    _run(selftest.ac4_xc_matrix)


def test_ac5_spectra():
    _run(selftest.ac5_spectra)


def test_ac6_jc_sets():
    _run(selftest.ac6_jc_sets)


def test_ac7_corollary_counts():
    _run(selftest.ac7_corollary_counts)


def test_ac8_rform_calculi_realizations():
    _run(selftest.ac8_rform_calculi)


def test_ac9_mu_representations():
    _run(selftest.ac9_mu_reps)


def test_ac10_structural_suites():
    _run(selftest.ac10_structural)
