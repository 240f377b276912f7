"""Acceptance battery: one test per top-level criterion, each printing a
single pass/fail line with the measured numbers (run with -v -s to see them).
"""

import pytest

from qshannon import suites


def _run(check):
    result = check()
    print(result.line())
    assert result.passed, result.line()
    # the battery runs every check of `qshannon suite --name all`, whose
    # lines print plain numbers, not numpy reprs
    assert "np.float64(" not in result.line()
    return result


def test_criterion_01_compression_golden_numbers():
    _run(suites.check_compression_golden)


def test_criterion_02_trine_ensemble():
    _run(suites.check_trine)


def test_criterion_03_peres_wootters_pgm():
    _run(suites.check_peres_wootters)


def test_criterion_04_blahut_arimoto_bsc():
    _run(suites.check_blahut_arimoto)


def test_criterion_05_erasure_quantum_capacity():
    _run(suites.check_erasure_q1)


def test_criterion_06_degradability_closed_forms():
    _run(suites.check_degradability)


def test_criterion_07_depolarizing_sweep():
    _run(suites.check_depolarizing_sweep)


@pytest.mark.parametrize("check", suites.INEQUALITIES,
                         ids=lambda c: c.__name__.replace("check_", ""))
def test_criterion_08_inequality_corpus(check):
    _run(check)


def test_criterion_09_decoupling():
    _run(suites.check_decoupling)


def test_criterion_10_black_hole_mirror():
    _run(suites.check_black_hole)


def test_criterion_11_haar_information_gain():
    _run(suites.check_haar_gain)


def test_criterion_12_thermodynamics():
    _run(suites.check_thermodynamics)


def test_criterion_13_concentration():
    _run(suites.check_concentration)


def test_criterion_14_asymptotic_trends():
    _run(suites.check_asymptotic_trends)
