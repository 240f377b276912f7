import math
import time

import numpy as np
import pytest

from conftest import random_state
from qshannon._rng import stream
from qshannon import measure as mea
from qshannon.entropy import _ensemble, holevo_chi
from qshannon.linalg import (dagger, density_from_matrix, haar_random_unitary, maximally_mixed,
                             qubits)


def projective_qubit():
    return mea.POVM((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


class TestPOVM:
    def test_validation(self):
        with pytest.raises(ValueError):
            mea.POVM((np.diag([1.0, 0.0]),))  # does not sum to identity
        with pytest.raises(ValueError):
            mea.POVM((np.diag([2.0, 1.0]), np.diag([-1.0, 0.0])))  # not PSD

    def test_measure_probabilities(self):
        rho = density_from_matrix(np.diag([0.7, 0.3]))
        p = mea.measure(rho, projective_qubit())
        assert p == pytest.approx([0.7, 0.3])

    def test_three_outcome_trine(self):
        vs = [np.array([1.0, 0.0]),
              np.array([-0.5, math.sqrt(3) / 2]),
              np.array([-0.5, -math.sqrt(3) / 2])]
        povm = mea.POVM(tuple((2 / 3) * np.outer(v, v) for v in vs))
        p = mea.measure(maximally_mixed(qubits("A")), povm)
        assert p == pytest.approx([1 / 3] * 3)


class TestPGM:
    def test_orthogonal_states_give_projectors(self):
        pgm = mea.pretty_good_measurement(
            [np.array([1.0, 0.0]) / np.sqrt(2), np.array([0.0, 1.0]) / np.sqrt(2)])
        assert len(pgm) == 2
        assert np.max(np.abs(pgm.elements[0] - np.diag([1.0, 0.0]))) < 1e-10

    def test_proper_span_gets_complement(self):
        pgm = mea.pretty_good_measurement([np.array([1.0, 0.0, 0.0])])
        assert len(pgm) == 2  # signal element plus complement projector

    def test_symmetric_states_symmetric_probs(self):
        vs = [np.array([1.0, 0.0]) / math.sqrt(3),
              np.array([-0.5, math.sqrt(3) / 2]) / math.sqrt(3),
              np.array([-0.5, -math.sqrt(3) / 2]) / math.sqrt(3)]
        pgm = mea.pretty_good_measurement(vs)
        rho = density_from_matrix(np.outer(vs[0], vs[0]) * 3)
        p = mea.measure(rho, pgm)
        assert p[1] == pytest.approx(p[2], abs=1e-10)


class TestAccessibleInfo:
    def orthogonal_ensemble(self):
        return [(0.5, density_from_matrix(np.diag([1.0, 0.0]))),
                (0.5, density_from_matrix(np.diag([0.0, 1.0])))]

    def test_orthogonal_states_one_bit(self):
        e = self.orthogonal_ensemble()
        assert mea.accessible_info(e, projective_qubit()) == pytest.approx(1.0)

    def test_never_exceeds_holevo(self):
        for i in range(10):
            rng = stream(211, i)
            e = [(0.5, random_state((2,), "A", 223, index=i)),
                 (0.5, random_state((2,), "A", 227, index=i))]
            u = haar_random_unitary(2, rng)
            povm = mea.POVM(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(2)))
            assert mea.accessible_info(e, povm) <= holevo_chi(e) + 1e-9

    def test_optimizer_recovers_orthogonal_bit(self):
        e = self.orthogonal_ensemble()
        res = mea.optimize_accessible_info(e, outcomes=2, restarts=2)
        assert res.value == pytest.approx(1.0, abs=1e-4)
        assert res.chi_gap == pytest.approx(0.0, abs=1e-4)


class TestUncertainty:
    def test_mutually_unbiased_qubit(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        rho = density_from_matrix(np.diag([1.0, 0.0]))
        rep = mea.entropic_uncertainty(rho, np.eye(2), h)
        assert rep.overlap_c == pytest.approx(0.5)
        assert rep.lhs == pytest.approx(1.0)       # H(X)=0, H(Z)=1
        assert rep.rhs == pytest.approx(1.0)       # log2(2) + 0

    def test_inequality_holds_on_random_instances(self):
        for i in range(20):
            rng = stream(229, i)
            rho = random_state((3,), "A", 233, index=i)
            bx = haar_random_unitary(3, rng)
            bz = haar_random_unitary(3, rng)
            rep = mea.entropic_uncertainty(rho, bx, bz)
            assert rep.lhs >= rep.rhs - 1e-9

    def test_non_orthonormal_basis_rejected(self):
        rho = density_from_matrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            mea.entropic_uncertainty(rho, np.ones((2, 2)), np.eye(2))


class TestHaarGain:
    def test_exact_formula(self):
        r = mea.haar_information_gain(4, trials=10, seed=1)
        assert r.exact_nats == pytest.approx(
            math.log(4) - (1 / 2 + 1 / 3 + 1 / 4), abs=1e-12)
        assert r.exact_bits == pytest.approx(r.exact_nats / math.log(2))

    def test_monte_carlo_agrees(self):
        r = mea.haar_information_gain(2, trials=4000, seed=3)
        assert abs(r.estimate_nats - r.exact_nats) < 4 * r.mc_stderr_nats

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            mea.haar_information_gain(1, trials=10, seed=1)

    def test_dimension_guard_refuses_before_any_work(self):
        # the exact term alone is a d-step loop; the guard must come first
        start = time.perf_counter()
        with pytest.raises(ValueError, match="dimension guard"):
            mea.haar_information_gain(10 ** 9, trials=10, seed=1)
        assert time.perf_counter() - start < 1.0


TRINE = [np.array([1.0, 0.0]),
         np.array([-0.5, math.sqrt(3) / 2]),
         np.array([-0.5, -math.sqrt(3) / 2])]


def trine_ensemble():
    return [(1 / 3, density_from_matrix(np.outer(v, v))) for v in TRINE]


def random_ensemble(d, members, seed):
    probs = stream(seed, 0).dirichlet(np.ones(members))
    return [(float(p), random_state((d,), "A", seed, index=i + 1)) for i, p in enumerate(probs)]


def oracle_accessible_info(ensemble, outcomes, x):
    """The objective as it was: build and validate a POVM, then I(X;Y)."""
    d = ensemble[0][1].dim
    npar = 2 * outcomes * d * d
    mats = (x[: npar // 2] + 1j * x[npar // 2:]).reshape(outcomes, d, d)
    raw = [dagger(a) @ a + 1e-12 * np.eye(d) for a in mats]
    vals, vecs = np.linalg.eigh(sum(raw))
    inv_sqrt = (vecs * (1.0 / np.sqrt(np.clip(vals, 1e-14, None)))) @ dagger(vecs)
    els = [inv_sqrt @ r @ inv_sqrt for r in raw]
    els[0] = els[0] + (np.eye(d) - sum(els))
    return mea.accessible_info(ensemble, mea.POVM(tuple((e + dagger(e)) / 2 for e in els)))


ENSEMBLE_CASES = [(d, outcomes, members, 500 + 10 * d + outcomes + members)
                  for d in (2, 3) for outcomes in (2, 3) for members in (2, 3)]


class TestAccessibleInfoObjective:
    @pytest.mark.parametrize("d,outcomes,members,seed", ENSEMBLE_CASES)
    def test_gradient_matches_central_differences(self, d, outcomes, members, seed):
        ensemble = random_ensemble(d, members, seed)
        neg = mea._accessible_info_objective(*_ensemble(ensemble), outcomes)
        x = stream(seed, 99).standard_normal(2 * outcomes * d * d)
        _, grad = neg(x)
        h = 1e-6
        fd = np.array([(neg(x + h * e)[0] - neg(x - h * e)[0]) / (2 * h)
                       for e in np.eye(x.size)])
        assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(grad))

    @pytest.mark.parametrize("d,outcomes,members,seed", ENSEMBLE_CASES)
    def test_value_matches_povm_oracle(self, d, outcomes, members, seed):
        ensemble = random_ensemble(d, members, seed)
        neg = mea._accessible_info_objective(*_ensemble(ensemble), outcomes)
        for r in range(3):
            x = stream(seed, 100 + r).standard_normal(2 * outcomes * d * d)
            assert -neg(x)[0] == pytest.approx(oracle_accessible_info(ensemble, outcomes, x),
                                               abs=1e-12)

    def test_trine_reaches_log2_three_halves(self):
        # from the default seed one restart stops at a local optimum (0.4591
        # bits); the second reaches the optimum
        res = mea.optimize_accessible_info(trine_ensemble(), 3, restarts=2)
        assert res.value == pytest.approx(math.log2(1.5), abs=1e-6)
        assert mea.accessible_info(trine_ensemble(), res.povm) == pytest.approx(res.value,
                                                                                 abs=1e-9)

    def test_builds_one_povm_per_call(self, monkeypatch):
        built = []
        validate = mea.POVM.__post_init__

        def counting(self):
            built.append(1)
            validate(self)

        monkeypatch.setattr(mea.POVM, "__post_init__", counting)
        mea.optimize_accessible_info(trine_ensemble(), 3, restarts=2)
        assert len(built) == 1
