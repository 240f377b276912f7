import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qshannon import coding
from qshannon.coding import (
    CompressionReport,
    EnumerationCapError,
    TypicalitySpec,
    bsc_random_code_sim,
    concentration_sim,
    is_typical,
    schumacher_projector,
    schumacher_sim,
    sequence_log_prob,
    slepian_wolf_sim,
    typical_set_census,
)
from qshannon.entropy import shannon_entropy
from qshannon.linalg import density_from_matrix, eig_hermitian


class TestTypicality:
    def test_sequence_log_prob(self):
        p = [0.5, 0.5]
        assert sequence_log_prob([0, 1, 0], p) == pytest.approx(-3.0)
        assert sequence_log_prob([0, 1], [1.0, 0.0]) == -math.inf

    def test_is_typical_uniform_always(self):
        spec = TypicalitySpec(4, 0.1)
        assert is_typical([0, 1, 0, 1], [0.5, 0.5], spec)

    def test_census_matches_brute_force(self):
        p = np.array([0.7, 0.2, 0.1])
        spec = TypicalitySpec(5, 0.3)
        rep = typical_set_census(p, spec)
        count = 0
        prob = 0.0
        for seq in itertools.product(range(3), repeat=5):
            if is_typical(seq, p, spec):
                count += 1
                prob += 2.0 ** sequence_log_prob(seq, p)
        assert rep.count == count
        assert rep.total_prob == pytest.approx(prob, abs=1e-12)

    def test_census_size_bound(self):
        p = np.array([0.75, 0.25])
        spec = TypicalitySpec(20, 0.15)
        rep = typical_set_census(p, spec)
        assert rep.count <= 2.0 ** (spec.n * (rep.entropy + spec.delta))

    def test_census_cap(self):
        with pytest.raises(EnumerationCapError):
            typical_set_census(np.full(4, 0.25), TypicalitySpec(20, 0.1))


class TestSlepianWolf:
    PXY = np.array([[0.40, 0.05], [0.05, 0.50]])

    def test_high_rate_succeeds(self):
        rep = slepian_wolf_sim(self.PXY, n=24, rate=0.9, trials=300, seed=5)
        assert rep.success_prob > 0.85

    def test_insufficient_rate_fails_often(self):
        rep = slepian_wolf_sim(self.PXY, n=24, rate=0.1, trials=300, seed=5)
        assert rep.success_prob < 0.5

    def test_rate_monotonicity(self):
        lo = slepian_wolf_sim(self.PXY, n=20, rate=0.3, trials=200, seed=7)
        hi = slepian_wolf_sim(self.PXY, n=20, rate=0.8, trials=200, seed=7)
        assert hi.success_prob >= lo.success_prob - 0.05

    def test_deterministic(self):
        a = slepian_wolf_sim(self.PXY, n=16, rate=0.6, trials=100, seed=11)
        b = slepian_wolf_sim(self.PXY, n=16, rate=0.6, trials=100, seed=11)
        assert a.success_prob == b.success_prob

    @pytest.mark.parametrize("pxy, n, rate, trials, seed, success", [
        (PXY, 16, 0.6, 100, 11, 0.79),
        (PXY, 20, 0.3, 60, 7, 0.3833333333333333),
        ([[0.30, 0.0, 0.10], [0.05, 0.35, 0.20]], 10, 0.7, 60, 3, 0.9333333333333333),
        ([[0.25, 0.25], [0.25, 0.25]], 12, 0.8, 40, 9, 0.25),
    ])
    def test_fixed_seed_results_unchanged(self, pxy, n, rate, trials, seed, success):
        # values of the per-trial competitor enumeration; the per-composition
        # cache must keep every binomial draw in the same order
        rep = slepian_wolf_sim(np.array(pxy), n, rate, trials, seed)
        assert rep.success_prob == success

    def test_class_size_beyond_binomial_sampler_is_refused(self):
        # C(35, 17)^2 > 2^63 competitors in one joint type class
        with pytest.raises(EnumerationCapError):
            slepian_wolf_sim(np.full((2, 2), 0.25), n=70, rate=0.5, trials=2, seed=1)


class TestBscCode:
    def test_above_capacity_rate_fails(self):
        rep = bsc_random_code_sim(0.2, n=14, rate=0.95, trials=200, seed=13)
        assert rep.success_prob < 0.7

    def test_below_capacity_rate_succeeds(self):
        rep = bsc_random_code_sim(0.05, n=14, rate=0.3, trials=200, seed=13)
        assert rep.success_prob > 0.9

    def test_codeword_cap(self):
        with pytest.raises(EnumerationCapError):
            bsc_random_code_sim(0.05, n=31, rate=0.95, trials=10, seed=1)

    def test_noiseless_nearly_perfect(self):
        # only codebook collisions (random tie-breaks) can cause errors
        rep = bsc_random_code_sim(0.0, n=14, rate=0.3, trials=100, seed=17)
        assert rep.success_prob > 0.95


class TestTrialCount:
    @pytest.mark.parametrize("run", [
        lambda t: bsc_random_code_sim(0.05, 10, 0.3, t, 5),
        lambda t: slepian_wolf_sim(np.full((2, 2), 0.25), 8, 0.5, t, 5),
    ], ids=["bsc", "slepian_wolf"])
    @pytest.mark.parametrize("trials", [0, 1])
    def test_fewer_than_two_trials_refused(self, run, trials):
        with pytest.raises(ValueError, match="at least 2 trials"):
            run(trials)


class TestSchumacherProjector:
    RHO = density_from_matrix(np.array([[0.75, 0.25], [0.25, 0.25]]))

    def test_projector_properties(self):
        sub = schumacher_projector(self.RHO, TypicalitySpec(3, 0.5))
        p = sub.projector
        assert p is not None
        assert np.max(np.abs(p @ p - p)) < 1e-10                 # idempotent
        assert np.trace(p).real == pytest.approx(sub.dim)

    def test_weight_matches_projected_trace(self):
        sub = schumacher_projector(self.RHO, TypicalitySpec(3, 0.5))
        rho3 = self.RHO.matrix
        big = np.kron(np.kron(rho3, rho3), rho3)
        assert np.trace(sub.projector @ big).real == pytest.approx(sub.weight)

    def test_weight_grows_with_delta(self):
        w = [schumacher_projector(self.RHO, TypicalitySpec(3, d)).weight
             for d in (0.3, 0.5, 3.0)]
        assert w[0] <= w[1] <= w[2]
        assert w[2] == pytest.approx(1.0)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            schumacher_projector(self.RHO, TypicalitySpec(20, 0.5))

    @pytest.mark.parametrize("spectrum, lengths", [
        ((0.8, 0.2), range(1, 9)),
        ((0.6, 0.3, 0.1), range(1, 6)),
    ])
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.6])
    def test_typical_mask_matches_sequence_loop(self, spectrum, lengths, delta):
        d = len(spectrum)
        rho = density_from_matrix(np.diag(spectrum).astype(complex))
        for n in lengths:
            sub = schumacher_projector(rho, TypicalitySpec(n, delta))
            typical_types = {t for t, _ in sub.typical_types}
            loop = np.array([tuple(seq.count(a) for a in range(d)) in typical_types
                             for seq in itertools.product(range(d), repeat=n)])
            mask = coding._typical_mask(sub, d)
            assert mask.dtype == bool and np.array_equal(mask, loop)


class TestSchumacherSim:
    ENSEMBLE = [(0.5, np.array([1.0, 0.0])),
                (0.5, np.array([1.0, 1.0]) / math.sqrt(2))]

    def test_fidelity_bounds(self):
        rep = schumacher_sim(self.ENSEMBLE, 3, spec=TypicalitySpec(3, 0.5))
        assert rep.lower_bound <= rep.fidelity <= 1.0
        assert rep.fidelity <= rep.weight + 1e-12

    def test_full_space_perfect(self):
        rep = schumacher_sim(self.ENSEMBLE, 2, spec=TypicalitySpec(2, 5.0))
        assert rep.fidelity == pytest.approx(1.0)

    def test_rate_mode_ky_fan(self):
        rep = schumacher_sim(self.ENSEMBLE, 3, rate=2 / 3)
        assert rep.ky_fan_bound is not None
        assert rep.fidelity <= rep.ky_fan_bound + 1e-12
        assert rep.dim <= 2 ** 2

    def test_rate_monotone_in_dimension(self):
        lo = schumacher_sim(self.ENSEMBLE, 3, rate=1 / 3)
        hi = schumacher_sim(self.ENSEMBLE, 3, rate=1.0)
        assert hi.fidelity >= lo.fidelity

    @pytest.mark.parametrize("n", [0, -1])
    def test_block_length_below_one_refused(self, n):
        with pytest.raises(ValueError, match="block length"):
            schumacher_sim(self.ENSEMBLE, n, rate=0.5)


def _schumacher_by_enumeration(ensemble, n, spec=None, rate=None):
    """Reference for schumacher_sim: the fidelity summed over all m^n message
    sequences and the Ky Fan bound from all d^n sorted eigenvalue products."""
    probs = np.array([p for p, _ in ensemble], dtype=float)
    states = [np.asarray(v, dtype=complex).reshape(-1) for _, v in ensemble]
    d, m = states[0].size, len(states)
    rho = density_from_matrix(sum(p * np.outer(v, v.conj()) for p, v in zip(probs, states)))
    vals, vecs = eig_hermitian(rho.matrix)
    vals = np.clip(vals, 0.0, None)
    ky_fan = None
    if spec is not None:
        sub = schumacher_projector(rho, spec, materialize_cap=0)
        types, dim, weight = dict(sub.typical_types), sub.dim, sub.weight
    else:
        max_dim = max(int(math.floor(2.0 ** (n * rate))), 1)
        logp = np.array([math.log2(v) if v > 1e-300 else -math.inf for v in vals])
        classes = []
        for counts in coding._compositions(n, d):
            r = coding._type_rate(counts, logp)
            if not math.isinf(r):
                classes.append((counts, -r * n, coding._multinomial(counts)))
        classes.sort(key=lambda c: -c[1])
        types, dim, weight = {}, 0, 0.0
        for counts, lg, mult in classes:
            if dim + mult > max_dim:
                break
            types[counts] = lg
            dim += mult
            weight += mult * 2.0 ** lg
        prod = np.array([1.0])
        for _ in range(n):
            prod = np.sort(np.outer(prod, vals).reshape(-1))[::-1]
        ky_fan = float(prod[:max_dim].sum())
    ref = {"dim": dim, "weight": weight, "ky_fan_bound": ky_fan, "fidelity": 0.0}
    if not types:
        return ref

    overlap = np.abs(np.einsum("dk,xd->xk", vecs.conj(), np.array(states))) ** 2
    top = max(types, key=types.get)
    junk = sorted((k for k in range(d) for _ in range(top[k])), key=lambda k: -vals[k])

    def w_of_type(x_counts):
        table = {(0,) * d: 1.0}
        for x in (x for x in range(m) for _ in range(x_counts[x])):
            new = {}
            for key, amp in table.items():
                for k in range(d):
                    nk = key[:k] + (key[k] + 1,) + key[k + 1:]
                    new[nk] = new.get(nk, 0.0) + amp * overlap[x, k]
            table = new
        return sum(v for key, v in table.items() if key in types)

    fbar = 0.0
    for seq in itertools.product(range(m), repeat=n):
        p_seq = float(np.prod([probs[x] for x in seq]))
        if p_seq == 0.0:
            continue
        w = w_of_type(tuple(seq.count(x) for x in range(m)))
        junk_overlap = float(np.prod([overlap[x, k] for x, k in zip(seq, junk)]))
        fbar += p_seq * (w * w + (1 - w) * junk_overlap)
    ref["fidelity"] = fbar
    return ref


def _qubit(theta, phi):
    return np.array([math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi))])


def _assert_matches_enumeration(ensemble, n, mode, knob):
    kw = {"spec": TypicalitySpec(n, knob)} if mode == "spec" else {"rate": knob}
    rep = schumacher_sim(ensemble, n, **kw)
    ref = _schumacher_by_enumeration(ensemble, n, **kw)
    assert rep.dim == ref["dim"]
    assert rep.weight == ref["weight"]
    assert rep.fidelity == pytest.approx(ref["fidelity"], abs=1e-12)
    if mode == "rate":
        assert rep.ky_fan_bound == pytest.approx(ref["ky_fan_bound"], abs=1e-12)
    else:
        assert rep.ky_fan_bound is None


class TestSchumacherTypeSums:
    """The type-class fidelity and Ky Fan bound against full enumeration."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([2, 3]),
           n=st.integers(1, 8), mode=st.sampled_from(["spec", "rate"]))
    def test_random_sources(self, seed, m, n, mode):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.full(m, 2.0)).tolist()
        states = [_qubit(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
                  for _ in range(m)]
        knob = rng.uniform(0.05, 0.6) if mode == "spec" else rng.uniform(0.1, 1.0)
        _assert_matches_enumeration(list(zip(probs, states)), n, mode, knob)

    @pytest.mark.parametrize("mode, knob", [("spec", 0.3), ("spec", 1.5), ("rate", 0.5),
                                            ("rate", 0.9)])
    @pytest.mark.parametrize("ensemble", [
        # a zero-probability letter
        [(0.7, _qubit(0.3, 0.0)), (0.3, _qubit(1.2, 2.0)), (0.0, _qubit(0.8, 1.0))],
        # identical states: rho has a zero eigenvalue
        [(0.6, np.array([1.0, 0.0])), (0.4, np.array([1.0, 0.0]))],
        [(0.5, np.array([1.0, 0.0])), (0.3, np.array([-1.0, 0.0])),
         (0.2, np.array([1j, 0.0]))],
    ], ids=["zero_letter", "rank1_binary", "rank1_ternary"])
    def test_degenerate_sources(self, ensemble, mode, knob):
        _assert_matches_enumeration(ensemble, 6, mode, knob)


class TestConcentration:
    def test_exact_identity(self):
        # mean concentrated ebits plus outcome entropy equals n H(p) exactly
        n, p = 30, 0.3
        rep = concentration_sim(p, n, trials=100, seed=19)
        pmf = [math.comb(n, m) * p ** m * (1 - p) ** (n - m) for m in range(n + 1)]
        h_m = -sum(q * math.log2(q) for q in pmf if q > 0)
        assert rep.exact_mean_log2_d + h_m == pytest.approx(
            n * shannon_entropy([p, 1 - p]), abs=1e-9)

    def test_histogram_counts_sum(self):
        rep = concentration_sim(0.2, 20, trials=500, seed=23)
        assert sum(rep.histogram.values()) == 500

    def test_deterministic(self):
        a = concentration_sim(0.2, 20, trials=200, seed=29)
        b = concentration_sim(0.2, 20, trials=200, seed=29)
        assert a.mean_log2_d == b.mean_log2_d

    def test_degenerate_p(self):
        rep = concentration_sim(0.0, 10, trials=50, seed=31)
        assert rep.mean_log2_d == 0.0

    def test_no_copies_refused(self):
        # n = 0 used to report a NaN rate
        with pytest.raises(ValueError, match="n >= 1"):
            concentration_sim(0.2, 0, trials=50, seed=31)

    @pytest.mark.parametrize("trials", [1, 2, 20])
    def test_too_few_trials_for_chi_squared_refused(self, trials):
        # at n = 40, p = 0.2 no outcome has expectation 5 below about 33 trials
        with pytest.raises(ValueError, match="too few for the chi-squared test"):
            concentration_sim(0.2, 40, trials=trials, seed=41)
