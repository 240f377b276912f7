import math

import numpy as np
import pytest

from qshannon._rng import stream
from qshannon import decoupling as dec
from qshannon.channels import amplitude_damping, dilate, erasure, identity_channel
from qshannon.measure import haar_information_gain
from qshannon.linalg import (
    DensityOperator,
    PureState,
    SubsystemLayout,
    haar_random_pure,
    partial_trace,
    qubits,
    random_mixed_state,
)


def basis_pure(d, label="A"):
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = 1.0
    return DensityOperator(m, SubsystemLayout((d,), (label,)))



def loop_keep_swap(dims, first):
    """The per-element loop that built swap_trick_purity's operator: SWAP on
    the two copies of the kept factor (the first or second), identity on the
    other."""
    d = dims[0] * dims[1]
    op = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            if first:
                k1, o1 = divmod(i, dims[1])
                k2, o2 = divmod(j, dims[1])
                row = (k2 * dims[1] + o1) * d + (k1 * dims[1] + o2)
            else:
                o1, k1 = divmod(i, dims[1])
                o2, k2 = divmod(j, dims[1])
                row = (o1 * dims[1] + k2) * d + (o2 * dims[1] + k1)
            op[row, i * d + j] = 1.0
    return op

class TestBoundAndExperiment:
    def test_bound_formula(self):
        sigma = basis_pure(8)
        assert dec.decoupling_bound(sigma, (4, 2)) == pytest.approx(math.sqrt(2 / 4))

    def test_bound_is_the_bare_purity_formula_bit_for_bit(self):
        sigma = dec.random_sigma_ae(8, 2, stream(7, 0))
        m = sigma.matrix
        expected = math.sqrt(2 * 2 / 4 * float(np.trace(m @ m).real))
        assert dec.decoupling_bound(sigma, (4, 2)) == expected

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            dec.decoupling_bound(basis_pure(8), (3, 2))

    @pytest.mark.parametrize("split", [(0, 2), (-1, -2)])
    def test_trial_set_rejects_split_below_one(self, split):
        with pytest.raises(ValueError):
            dec.DecouplingTrialSet(basis_pure(2), split, 10, 1)

    def test_pure_state_experiment_within_bound(self):
        rep = dec.decoupling_experiment(
            dec.DecouplingTrialSet(basis_pure(16), (8, 2), 40, 3))
        assert rep.satisfied()
        assert rep.per_trial.size == 40

    def test_discarding_more_decouples_better(self):
        sigma = basis_pure(16)
        small = dec.decoupling_experiment(dec.DecouplingTrialSet(sigma, (2, 8), 40, 5))
        large = dec.decoupling_experiment(dec.DecouplingTrialSet(sigma, (8, 2), 40, 5))
        assert large.mean_l1 < small.mean_l1

    def test_with_environment(self):
        sigma = dec.random_sigma_ae(8, 2, stream(7, 0))
        rep = dec.decoupling_experiment(dec.DecouplingTrialSet(sigma, (4, 2), 40, 9))
        assert rep.satisfied()

    def test_deterministic(self):
        t = dec.DecouplingTrialSet(basis_pure(8), (4, 2), 10, 11)
        assert dec.decoupling_experiment(t).mean_l1 == dec.decoupling_experiment(t).mean_l1


class TestMoments:
    def test_closed_form_constants(self):
        c_i, c_s, c_sym, c_anti = dec.moment_constants(2, 2)
        assert c_i == pytest.approx(0.4)
        assert c_s == pytest.approx(0.4)
        assert c_sym == pytest.approx(4 / 5)
        assert c_anti == 0.0

    def test_empirical_mean_converges(self):
        rep = dec.expected_M_check(2, 2, trials=400, seed=13)
        assert rep.frobenius_residual < 0.5
        # within three times the residual's exact root mean square
        assert rep.frobenius_residual ** 2 <= 3 * rep.residual_mean_square

    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 4), (3, 3)])
    def test_residual_mean_square_is_exact(self, d1, d2):
        reps = [dec.expected_M_check(d1, d2, 40, seed) for seed in range(60)]
        ratios = np.array([r.frobenius_residual ** 2 / r.residual_mean_square for r in reps])
        spread = 3 * ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert abs(ratios.mean() - 1) <= spread

    def test_moment_check_fails_a_sampler_without_phase_fix(self, monkeypatch):
        from qshannon import linalg, suites
        assert suites.check_decoupling(instances=0).passed
        monkeypatch.setattr(linalg, "_phase_fixed_qr", lambda z: np.linalg.qr(z)[0])
        assert not suites.check_decoupling(instances=0).passed

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_refused(self, trials):
        with pytest.raises(ValueError, match="at least 1 trial"):
            dec.expected_M_check(2, 2, trials, 13)

    def test_one_trial_runs(self):
        # the mean of one draw: no standard error is reported, so none is needed
        rep = dec.expected_M_check(2, 2, 1, 13)
        assert np.all(np.isfinite(rep.empirical_mean)) and rep.frobenius_residual > 0
        # tr(X M) is the same for every trial's X, so one trial's squared
        # residual is its mean square exactly
        assert rep.frobenius_residual ** 2 == pytest.approx(rep.residual_mean_square)

    def test_swap_trick_matches_direct_purity(self):
        rho = random_mixed_state(SubsystemLayout((2, 3), ("A", "B")), stream(17, 0))
        for keep in ("A", "B"):
            direct = partial_trace(rho, [keep]).purity()
            assert dec.swap_trick_purity(rho, keep) == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_swap_trick_operator_matches_loop(self, dims):
        rho = random_mixed_state(SubsystemLayout(dims, ("A", "B")), stream(17, 1))
        for factor, keep in enumerate(("A", "B")):
            op = loop_keep_swap(dims, factor == 0)
            d = dims[0] * dims[1]
            assert np.array_equal(np.eye(d * d)[dec._partial_swap(*dims, factor)], op)
            assert dec.swap_trick_purity(rho, keep) == float(
                np.trace(op @ np.kron(rho.matrix, rho.matrix)).real)


class TestProjectedDecoupling:
    def test_identity_channel_case(self):
        lay = SubsystemLayout((4, 4), ("R", "A"))
        psi = PureState(np.eye(4).reshape(-1) / 2.0, lay)  # maximally entangled
        rep = dec.projected_decoupling_experiment(psi, identity_channel(4), 2,
                                                  trials=30, seed=19)
        assert rep.satisfied()

    def test_erasure_channel_case(self):
        lay = SubsystemLayout((4, 4), ("R", "A"))
        psi = haar_random_pure(lay, stream(23, 0))
        rep = dec.projected_decoupling_experiment(psi, erasure(0.25, 4), 2,
                                                  trials=30, seed=29)
        assert rep.satisfied()

    @pytest.mark.parametrize("gamma", [0.05, 0.2, 0.45])
    @pytest.mark.parametrize("seed", [3, 41])
    def test_bound_is_the_bare_purity_formula_bit_for_bit(self, gamma, seed):
        # the benchmark's projected-decoupling instance: |R| = 8, |A| = 2,
        # |R2| = 2 through amplitude damping
        psi = haar_random_pure(SubsystemLayout((8, 2), ("R", "A")), stream(seed, 100))
        channel = amplitude_damping(gamma)
        d_e = channel.env_dim
        phi = (psi.amplitudes.reshape(8, 2) @ dilate(channel).T).reshape(8, 2, d_e)
        sigma_re = np.einsum("rbe,sbf->resf", phi, phi.conj()).reshape(8 * d_e, 8 * d_e)
        bound = math.sqrt(2 * d_e * float(np.trace(sigma_re @ sigma_re).real))
        rep = dec.projected_decoupling_experiment(psi, channel, 2, trials=2, seed=seed)
        assert rep.bound == bound

    def test_invalid_split(self):
        lay = SubsystemLayout((4, 2), ("R", "A"))
        psi = haar_random_pure(lay, stream(31, 0))
        with pytest.raises(ValueError):
            dec.projected_decoupling_experiment(psi, identity_channel(2), 3,
                                                trials=5, seed=1)


class TestBlackHole:
    def test_old_small_case(self):
        rep = dec.black_hole_mirror(6, 2, 2, "old", trials=40, seed=37)
        assert rep.emitted_qubits == 4
        assert rep.target == pytest.approx(0.75)
        assert rep.meets_target()

    def test_young_small_case(self):
        rep = dec.black_hole_mirror(6, 2, 1, "young", trials=40, seed=41)
        assert rep.emitted_qubits == 5
        assert rep.meets_target()

    def test_young_parity_requirement(self):
        with pytest.raises(ValueError):
            dec.black_hole_mirror(7, 2, 1, "young", trials=5, seed=1)

    @pytest.mark.parametrize("n,k,cs", [(0, 2, [1]), (6, -1, [1]), (6, 2, [1, -1])])
    def test_negative_sizes_refused(self, n, k, cs):
        with pytest.raises(ValueError, match=">= "):
            dec.black_hole_mirror_batch(n, k, cs, "old", 5, 1)

    def test_batch_matches_single(self):
        batch = dec.black_hole_mirror_batch(6, 2, [1, 2], "old", 10, seed=43)
        single = dec.black_hole_mirror(6, 2, 1, "old", 10, seed=43)
        assert batch[0].mean_l1 == pytest.approx(single.mean_l1, abs=1e-12)

    def test_more_emission_more_fidelity(self):
        reps = dec.black_hole_mirror_batch(8, 2, [1, 2, 3], "old", 25, seed=47)
        fids = [r.fidelity_estimate for r in reps]
        assert fids[0] <= fids[1] <= fids[2]


class TestTrialCount:
    @pytest.mark.parametrize("run", [
        lambda t: dec.decoupling_experiment(dec.DecouplingTrialSet(basis_pure(4), (2, 2), t, 1)),
        lambda t: dec.projected_decoupling_experiment(
            haar_random_pure(SubsystemLayout((2, 2), ("R", "A")), stream(1, 0)),
            identity_channel(2), 2, t, 1),
        lambda t: dec.random_subsystem_entropy(4, 2, t, 1),
        lambda t: dec.black_hole_mirror_batch(4, 2, [1], "old", t, 1),
        lambda t: haar_information_gain(2, t, 1),
    ], ids=["decoupling", "projected", "subsystem_entropy", "mirror", "info_gain"])
    @pytest.mark.parametrize("trials", [0, 1])
    def test_fewer_than_two_trials_refused(self, run, trials):
        with pytest.raises(ValueError, match="at least 2 trials"):
            run(trials)


class TestSubsystemEntropy:
    def test_small_share_nearly_maximal(self):
        rep = dec.random_subsystem_entropy(64, 4, trials=25, seed=53)
        assert rep.mean_entropy >= rep.bound
        assert rep.mean_entropy <= 2.0 + 1e-9

    def test_trivial_share(self):
        rep = dec.random_subsystem_entropy(16, 1, trials=5, seed=59)
        assert rep.mean_entropy == pytest.approx(0.0, abs=1e-9)

    def test_page_mean_closed_forms(self):
        # two qubits: 1/3 + 1/4 - 1/4 nats
        assert dec.page_mean(2, 2) == pytest.approx(1 / (3 * math.log(2)), abs=1e-15)
        assert dec.page_mean(16, 1) == dec.page_mean(1, 4) == 0.0
        assert dec.page_mean(8, 2) == dec.page_mean(2, 8)

    @pytest.mark.parametrize("d1,d2", [(2, 2), (8, 2), (4, 4), (2, 8), (64, 4), (3, 5),
                                       (16, 1), (1, 4)])
    def test_page_mean_at_least_bound(self, d1, d2):
        rep = dec.random_subsystem_entropy(d1, d2, trials=2, seed=61)
        assert rep.page_mean == dec.page_mean(d1, d2)
        assert rep.page_mean >= rep.bound

    @pytest.mark.parametrize("d1,d2", [(8, 2), (4, 4)])
    def test_mean_within_four_sigma_of_page(self, d1, d2):
        rep = dec.random_subsystem_entropy(d1, d2, trials=40_000, seed=67)
        assert abs(rep.mean_entropy - rep.page_mean) <= 4 * rep.mc_stderr
