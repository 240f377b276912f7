import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pure, random_state
from qshannon._rng import stream
from qshannon import channels as ch
from qshannon.entropy import (
    ZERO_EIGENVALUE,
    bipartite_entropies,
    coherent_information,
    conditional_mutual_classical,
    conditional_mutual_quantum,
    fano_bound,
    first_law_check,
    gibbs_free_energy,
    holevo_chi,
    landauer_work,
    majorizes,
    protocol_rates,
    relative_entropy_classical,
    relative_entropy_quantum,
    shannon_entropy,
    squashed_bound,
    von_neumann_entropy,
)
from qshannon.linalg import (
    PureState,
    clean_spectrum,
    density_from_matrix,
    haar_random_unitary,
    maximally_mixed,
    partial_trace,
    qubits,
    tensor,
)


class TestShannon:
    def test_uniform_and_deterministic(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0)
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_base_change(self):
        assert shannon_entropy([0.5, 0.5], base=math.e) == pytest.approx(math.log(2))

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.6])

    def test_classical_conditional_and_mutual(self):
        # perfectly correlated pair
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        h_xgy, i_xy = conditional_mutual_classical(joint)
        assert h_xgy == pytest.approx(0.0, abs=1e-12)
        assert i_xy == pytest.approx(1.0)

    def test_relative_entropy_support(self):
        assert relative_entropy_classical([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert relative_entropy_classical([0.5, 0.5], [1.0, 0.0]) == math.inf
        # direction matters: q inside p's support is fine
        assert relative_entropy_classical([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)


class TestMajorization:
    def test_basic(self):
        assert majorizes([1, 0], [0.5, 0.5])
        assert not majorizes([0.5, 0.5], [1, 0])
        assert majorizes([0.5, 0.5], [0.5, 0.5])

    def test_unsorted_input(self):
        assert majorizes([0.1, 0.9], [0.4, 0.6])


class TestVonNeumann:
    def test_pure_state_zero(self):
        psi = random_pure((4,), "A", 3)
        assert von_neumann_entropy(psi.density()) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(maximally_mixed(qubits("AB"))) == pytest.approx(2.0)

    def test_unitary_invariance(self):
        rho = random_state((4,), "A", 5)
        u = haar_random_unitary(4, stream(7, 0))
        rotated = density_from_matrix(u @ rho.matrix @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho))

    def test_additivity_on_products(self):
        a = random_state((2,), "A", 11)
        b = random_state((3,), "B", 13)
        assert von_neumann_entropy(tensor(a, b)) == pytest.approx(
            von_neumann_entropy(a) + von_neumann_entropy(b))

    @pytest.mark.parametrize("base", [2, math.e, 10])
    def test_matches_the_separate_spectral_path(self, base):
        """Bit for bit the body von_neumann_entropy had before it summed
        through row_entropies, at every rank and with exact zeros."""
        def oracle(m):
            vals = clean_spectrum(np.linalg.eigvalsh(m))
            nz = vals[vals > ZERO_EIGENVALUE]
            return float(-np.sum(nz * (np.log(nz) / np.log(base))))

        rng = stream(2024, 0)
        for d in range(1, 25):
            for rank in sorted({1, 2, (d + 1) // 2, d - 1, d} & set(range(1, d + 1))):
                g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
                m = g @ g.conj().T
                m /= np.trace(m).real
                diag = np.diag(np.concatenate([rng.dirichlet(np.ones(rank)),
                                               np.zeros(d - rank)]))
                for rho in (m, diag):
                    assert von_neumann_entropy(rho, base) == oracle(rho)


class TestBipartite:
    def test_pure_state_marginals_match(self):
        psi = random_pure((2, 3), "AB", 17)
        b = bipartite_entropies(psi.density(), ["A"])
        assert b.h_a == pytest.approx(b.h_b, abs=1e-9)
        assert b.h_ab == pytest.approx(0.0, abs=1e-9)
        assert b.h_a_given_b == pytest.approx(-b.h_a, abs=1e-9)

    def test_negative_conditional_entropy_flags_entanglement(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), qubits("AB"))
        b = bipartite_entropies(bell.density(), ["A"])
        assert b.h_a_given_b == pytest.approx(-1.0, abs=1e-9)
        assert b.mutual_info == pytest.approx(2.0, abs=1e-9)


class TestQuantumRelativeEntropy:
    def test_self_distance_zero(self):
        rho = random_state((3,), "A", 19)
        assert relative_entropy_quantum(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_support_violation_infinite(self):
        pure = density_from_matrix(np.diag([1.0, 0.0]))
        mixed = density_from_matrix(np.diag([0.5, 0.5]))
        assert relative_entropy_quantum(mixed, pure) == math.inf
        assert relative_entropy_quantum(pure, mixed) == pytest.approx(1.0)

    def test_klein_inequality(self):
        a = random_state((3,), "A", 23)
        b = random_state((3,), "A", 29)
        assert relative_entropy_quantum(a, b) >= 0

    def test_distance_to_maximally_mixed(self):
        rho = random_state((4,), "A", 31)
        d = relative_entropy_quantum(rho, maximally_mixed(rho.layout))
        assert d == pytest.approx(2.0 - von_neumann_entropy(rho), abs=1e-9)


class TestConditionalMutual:
    def test_markov_product_state_zero(self):
        a = random_state((2,), "A", 37)
        b = random_state((2,), "B", 41)
        c = random_state((2,), "C", 43)
        abc = tensor(a, b, c)
        assert conditional_mutual_quantum(abc) == pytest.approx(0.0, abs=1e-9)

    def test_ghz_has_unit_cmi(self):
        v = np.zeros(8)
        v[0] = v[7] = 1 / math.sqrt(2)
        ghz = PureState(v, qubits("ABC")).density()
        assert conditional_mutual_quantum(ghz, "A", "B", "C") == pytest.approx(1.0)

    def test_squashed_bound_product_zero(self):
        a = random_state((2,), "A", 47)
        b = random_state((2,), "B", 53)
        c = random_state((2,), "C", 59)
        assert squashed_bound(tensor(a, b, c)) == pytest.approx(0.0, abs=1e-9)


class TestCoherentInformation:
    def test_identity_channel(self):
        rho = random_state((2,), "A", 61)
        ic = coherent_information(rho, ch.identity_channel(2))
        assert ic == pytest.approx(von_neumann_entropy(rho), abs=1e-9)

    def test_erasure_maximally_mixed(self):
        for p in (0.0, 0.25, 0.5):
            ic = coherent_information(maximally_mixed(qubits("A")), ch.erasure(p, 2))
            assert ic == pytest.approx(1 - 2 * p, abs=1e-9)

    def test_completely_dephasing_nonpositive(self):
        rho = random_state((2,), "A", 67)
        assert coherent_information(rho, ch.completely_dephasing(2)) <= 1e-9


class TestHolevo:
    def test_orthogonal_pure_states(self):
        e = [(0.5, density_from_matrix(np.diag([1.0, 0.0]))),
             (0.5, density_from_matrix(np.diag([0.0, 1.0])))]
        assert holevo_chi(e) == pytest.approx(1.0)

    def test_identical_members_zero(self):
        rho = random_state((2,), "A", 71)
        assert holevo_chi([(0.3, rho), (0.7, rho)]) == pytest.approx(0.0, abs=1e-9)

    def test_bounded_by_log_ensemble_size(self):
        e = [(1 / 3, random_state((4,), "A", 73, index=i)) for i in range(3)]
        assert holevo_chi(e) <= math.log2(3) + 1e-9


class TestThermo:
    def test_landauer_values(self):
        for beta in (0.5, 1.0, 3.0):
            assert landauer_work(beta) == pytest.approx(math.log(2) / beta, abs=1e-10)

    def test_gibbs_identity_and_minimum(self):
        h = np.array([[0.0, 0.3], [0.3, 1.0]], dtype=complex)
        rho = density_from_matrix(np.diag([0.6, 0.4]))
        rep = gibbs_free_energy(h, 1.7, rho)
        assert rep.identity_residual < 1e-10
        assert rep.free_energy_rho >= rep.free_energy_gibbs - 1e-12

    def test_first_law_quadratic_convergence(self):
        rho = density_from_matrix(np.diag([0.7, 0.3]))
        delta = np.array([[0.2, 0.1j], [-0.1j, -0.2]])
        r_big = first_law_check(rho, delta, 1e-3)
        r_small = first_law_check(rho, delta, 5e-4)
        assert r_small.residual < r_big.residual
        assert r_big.residual / r_small.residual == pytest.approx(4.0, rel=0.1)

    def test_first_law_rejects_traceful_perturbation(self):
        rho = density_from_matrix(np.diag([0.7, 0.3]))
        with pytest.raises(ValueError):
            first_law_check(rho, np.eye(2), 1e-3)


class TestFano:
    def test_zero_error(self):
        assert fano_bound(0.0, 5) == 0.0

    def test_monotone_in_alphabet(self):
        assert fano_bound(0.1, 2) <= fano_bound(0.1, 8)

    def test_invalid(self):
        with pytest.raises(ValueError):
            fano_bound(1.5, 2)


class TestProtocolRates:
    def test_bell_times_pure_env(self):
        v = np.zeros(8)
        v[0] = v[6] = 1 / math.sqrt(2)   # (|00>+|11>)_AB |0>_E
        phi = PureState(v, qubits("ABE"))
        r = protocol_rates(phi, "A", "B", "E")
        assert r.mother_ebits == pytest.approx(1.0)    # I(A;B)/2
        assert r.mother_qubits == pytest.approx(0.0, abs=1e-9)
        assert r.hashing == pytest.approx(1.0)         # H(B) - H(E)
        assert r.merging == pytest.approx(-1.0)        # H(A|B)
        assert r.noisy_sd == pytest.approx(2.0)        # I(A;B) cbits produced
        assert r.noisy_tp == pytest.approx(1.0)        # I(A>B) qubits produced

    def test_product_pure_state_has_no_rates(self):
        v = np.zeros(8)
        v[0] = 1.0                                     # |000>_ABE
        r = protocol_rates(PureState(v, qubits("ABE")), "A", "B", "E")
        for name, value in vars(r).items():
            assert value == pytest.approx(0.0, abs=1e-9), name

    def test_requires_pure_state(self):
        rho = tensor(random_state((2,), "A", 79), random_state((2,), "B", 83),
                     random_state((2,), "E", 89))
        with pytest.raises(ValueError):
            protocol_rates(rho, "A", "B", "E")

    def test_hashing_consistent_with_coherent_information(self):
        # send half of a purification through a dilated channel: the hashing
        # rate of the resulting tripartite state equals I_c of the input
        from qshannon.channels import amplitude_damping, dilate
        from qshannon.linalg import SubsystemLayout, purify

        rho = density_from_matrix(np.diag([0.6, 0.4]))
        channel = amplitude_damping(0.2)
        psi = purify(rho, "R")                       # layout (A, R)
        d_r = psi.layout.dims[1]
        v = dilate(channel)                          # (B x E) <- A
        amps_ar = psi.amplitudes.reshape(2, d_r)
        out = amps_ar.T @ v.T                        # (r, be)
        phi = PureState(out.reshape(-1),
                        SubsystemLayout((d_r, 2, 2), ("R", "B", "E")))
        r = protocol_rates(phi, "R", "B", "E")
        assert r.hashing == pytest.approx(
            coherent_information(rho, channel), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_subadditivity_property(idx):
    rho = random_state((2, 3), "AB", 97, index=idx)
    b = bipartite_entropies(rho, ["A"])
    assert b.h_ab <= b.h_a + b.h_b + 1e-9
    assert b.h_ab >= abs(b.h_a - b.h_b) - 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_strong_subadditivity_property(idx):
    rho = random_state((2, 2, 2), "ABC", 101, index=idx, env_dim=4)
    assert conditional_mutual_quantum(rho, "A", "B", "C") >= -1e-9
