"""The acceptance gate: one test per criterion, every check exact over Q(t).

Run with `pytest tests/test_acceptance.py -v -s` for one pass/fail line per
criterion, or `qsphere selftest` for the CLI flavor of the same suite.
"""

from qsphere import selftest


def _run(fn):
    result = fn()
    line = "%s %s" % (result["criterion"], "PASS" if result["pass"] else "FAIL")
    print(line)
    assert result["pass"], result["details"]
    return result


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
