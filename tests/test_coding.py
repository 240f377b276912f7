import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qshannon import _rng, coding
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


# ---------------------------------------------------------------------------
# scalar oracles: the per-type and per-trial loops the array code replaces,
# kept to check that it gives the same numbers bit for bit
# ---------------------------------------------------------------------------

def _compositions(n, d):
    """All count vectors of length d summing to n."""
    if d == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, d - 1):
            yield (first,) + rest


def _multinomial(counts):
    total = sum(counts)
    out = 1
    rem = total
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def _type_rate(counts, logp):
    """-(1/n) log2 of any sequence with these letter counts; inf if impossible."""
    n = sum(counts)
    total = 0.0
    for c, lp in zip(counts, logp):
        if c == 0:
            continue
        if lp == -math.inf:
            return math.inf
        total += c * lp
    return -total / n


def _count_dp(steps, width):
    """Sum over all index sequences (k_1..k_L), k_i in range(width), of
    prod_i steps[i][k_i], grouped by the count vector of the indices, as a
    dict of partial count vectors."""
    table = {(0,) * width: 1.0}
    for weights in steps:
        new = {}
        for key, amp in table.items():
            for k, wk in enumerate(weights):
                nk = key[:k] + (key[k] + 1,) + key[k + 1:]
                new[nk] = new.get(nk, 0.0) + amp * wk
        table = new
    return table


def _census_loop(p, spec):
    p = np.asarray(p, dtype=float)
    h = shannon_entropy(p)
    logp = np.array([math.log2(x) if x > 0 else -math.inf for x in p])
    count, prob = 0, 0.0
    for counts in _compositions(spec.n, p.size):
        rate = _type_rate(counts, logp)
        if h - spec.delta <= rate <= h + spec.delta:
            m = _multinomial(counts)
            count += m
            prob += m * 2.0 ** (-rate * spec.n)
    return count, min(prob, 1.0)


def _eig_logp(rho):
    vals = np.clip(eig_hermitian(rho.matrix)[0], 0.0, None)
    return vals, np.array([math.log2(v) if v > 1e-300 else -math.inf for v in vals])


def _projector_loop(rho, spec):
    vals, logp = _eig_logp(rho)
    h = shannon_entropy(vals)
    typical, dim, weight = [], 0, 0.0
    for counts in _compositions(spec.n, rho.dim):
        rate = _type_rate(counts, logp)
        if h - spec.delta <= rate <= h + spec.delta:
            m = _multinomial(counts)
            typical.append((counts, -rate * spec.n))
            dim += m
            weight += m * 2.0 ** (-rate * spec.n)
    return typical, dim, min(weight, 1.0)


def _rank_limited_loop(rho, n, max_dim):
    _, logp = _eig_logp(rho)
    classes = []
    for counts in _compositions(n, rho.dim):
        rate = _type_rate(counts, logp)
        if not math.isinf(rate):
            classes.append((counts, -rate * n, _multinomial(counts)))
    classes.sort(key=lambda c: -c[1])
    chosen, dim, weight = [], 0, 0.0
    for counts, lg, m in classes:
        if dim + m > max_dim:
            return chosen, dim, weight, weight + (max_dim - dim) * 2.0 ** lg
        chosen.append((counts, lg))
        dim += m
        weight += m * 2.0 ** lg
    return chosen, dim, weight, weight


def _schumacher_fidelity_loop(ensemble, n, sub):
    """schumacher_sim's type sum with one dict DP per letter type."""
    probs = np.array([p for p, _ in ensemble], dtype=float)
    states = [np.asarray(v, dtype=complex).reshape(-1) for _, v in ensemble]
    d, m_letters = states[0].size, len(states)
    vals, vecs = sub.eigenvalues, sub.eigenvectors
    overlap = np.abs(np.einsum("dk,xd->xk", vecs.conj(), np.array(states))) ** 2
    typical_types = {t: lg for t, lg in sub.typical_types}
    top_type = max(typical_types, key=lambda t: typical_types[t])
    junk_seq = []
    for k in range(d):
        junk_seq.extend([k] * top_type[k])
    junk_seq.sort(key=lambda k: -vals[k])

    def w_of_type(x_counts):
        letters = []
        for x in range(m_letters):
            letters.extend([x] * x_counts[x])
        table = _count_dp([overlap[x].tolist() for x in letters], d)
        return sum(v for key, v in table.items() if key in typical_types)

    probs_l = probs.tolist()
    junk_mass = _count_dp([[p * o for p, o in zip(probs_l, overlap[:, k].tolist())]
                           for k in junk_seq], m_letters)
    fbar = 0.0
    for counts, g in junk_mass.items():
        mass = _multinomial(counts) * math.prod(p ** c for p, c in zip(probs_l, counts))
        if mass == 0.0:
            continue
        w = w_of_type(counts)
        fbar += mass * w * w + (1 - w) * g
    return fbar


def _slepian_wolf_loop(pxy, n, rate, trials, seed, delta=0.5):
    """Success probability of slepian_wolf_sim from one stream(seed, t) per
    trial and one scalar binomial draw per competing joint type."""
    pxy = np.asarray(pxy, dtype=float)
    dx, dy = pxy.shape
    px, py = pxy.sum(axis=1), pxy.sum(axis=0)
    hx, hy = shannon_entropy(px), shannon_entropy(py)
    hxy = shannon_entropy(pxy.reshape(-1))
    nbins = max(int(round(2.0 ** (n * rate))), 1)
    flat = pxy.reshape(-1)
    log_pxy = np.where(flat > 0, np.log2(np.where(flat > 0, flat, 1.0)), -np.inf)
    log_px = np.where(px > 0, np.log2(np.where(px > 0, px, 1.0)), -np.inf)
    log_py = np.where(py > 0, np.log2(np.where(py > 0, py, 1.0)), -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_cond = log_pxy.reshape(dx, dy) - log_py[None, :]
    finite_cond = np.where(np.isfinite(log_cond), log_cond, 0.0)

    def jointly_typical(joint_counts):
        cx = joint_counts.sum(axis=1)
        cy = joint_counts.sum(axis=0)
        for counts, logp, h in ((cx, log_px, hx), (cy, log_py, hy),
                                (joint_counts.reshape(-1), log_pxy, hxy)):
            r = _type_rate(counts, logp)
            if not (h - delta <= r <= h + delta):
                return False
        return True

    competitors = {}

    def competitor_types(cy):
        key = tuple(int(c) for c in cy)
        if key not in competitors:
            found = []
            for combo in itertools.product(*[list(_compositions(c, dx)) for c in key]):
                comp_counts = np.array(combo, dtype=int).T
                if not jointly_typical(comp_counts):
                    continue
                if np.any(comp_counts[~np.isfinite(log_cond)] > 0):
                    continue
                size = math.prod(_multinomial(c) for c in combo)
                found.append((comp_counts, size, float(np.sum(comp_counts * finite_cond))))
            competitors[key] = found
        return competitors[key]

    errors = 0
    for t in range(trials):
        rng = _rng.stream(seed, t)
        joint = rng.multinomial(n, flat).reshape(dx, dy)
        own_typical = jointly_typical(joint)
        own_ll = float(np.sum(joint * finite_cond))
        if np.any(joint[~np.isfinite(log_cond)] > 0):
            own_ll = -math.inf
        better = equal = 0
        for comp_counts, size, ll in competitor_types(joint.sum(axis=0)):
            if np.array_equal(comp_counts, joint):
                size -= 1
            if size <= 0:
                continue
            if size >= coding.BINOMIAL_CAP:
                raise EnumerationCapError("binomial cap")
            k = rng.binomial(size, 1.0 / nbins)
            if k == 0 or not own_typical:
                continue
            if ll > own_ll + 1e-12:
                better += k
            elif abs(ll - own_ll) <= 1e-12:
                equal += k
        if not own_typical or better > 0:
            errors += 1
        elif equal > 0 and rng.random() >= 1.0 / (equal + 1):
            errors += 1
    return 1 - errors / trials


def _bsc_loop(p, n, rate, trials, seed):
    """Success probability of bsc_random_code_sim decoded one trial at a time
    from stream(seed, t)."""
    n_codewords = max(int(round(2.0 ** (n * rate))), 2)
    errors = 0
    for t in range(trials):
        rng = _rng.stream(seed, t)
        book = rng.integers(0, 2, size=(n_codewords, n), dtype=np.uint8)
        msg = int(rng.integers(n_codewords))
        noise = (rng.random(n) < p).astype(np.uint8)
        dist = np.count_nonzero(book ^ (book[msg] ^ noise)[None, :], axis=1)
        winners = np.flatnonzero(dist == dist.min())
        if winners[int(rng.integers(winners.size))] != msg:
            errors += 1
    return 1 - errors / trials


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


def _sw_inputs():
    """60 seeded Slepian-Wolf inputs (2x2, 2x3 and 3x2 laws, some with a zero
    cell, some at one bin), then 20 on a fixed 2x3 law with a zero cell."""
    out = []
    for i in range(60):
        rng = np.random.default_rng(1800 + i)
        shape = [(2, 2), (2, 3), (3, 2)][i % 3]
        pxy = rng.dirichlet(np.full(shape[0] * shape[1], 2.0))
        if i % 4 == 1:
            pxy[rng.integers(pxy.size)] = 0.0
            pxy /= pxy.sum()
        n = int(rng.integers(1, 9 if shape == (2, 2) else 7))
        rate = 0.0 if i % 10 == 7 else float(rng.uniform(0.1, 1.2))
        out.append((pxy.reshape(shape), n, rate, int(rng.integers(2, 40)),
                    int(rng.integers(2 ** 40)), float(rng.choice([0.2, 0.5, 1.0]))))
    zero_cell = np.array([[0.30, 0.0, 0.10], [0.05, 0.35, 0.20]])
    for i in range(20):
        rng = np.random.default_rng(1900 + i)
        out.append((zero_cell, int(rng.integers(3, 8)), float(rng.uniform(0.0, 1.0)), 30,
                    int(rng.integers(2 ** 40)), 0.5))
    return out


def _bsc_inputs():
    """60 seeded BSC inputs, with noiseless and always-flipping channels and
    short blocks at high rate, where decoding ties are common."""
    out = [(0.1, 6, 0.9, 60, 5), (0.0, 6, 0.9, 40, 6), (1.0, 5, 0.8, 30, 7),
           (0.3, 4, 1.0, 50, 8)]
    for i in range(56):
        rng = np.random.default_rng(2800 + i)
        out.append((float(rng.choice([0.0, rng.uniform(0, 0.3)])), int(rng.integers(3, 15)),
                    float(rng.uniform(0.1, 1.0)), int(rng.integers(2, 80)),
                    int(rng.integers(2 ** 40))))
    return out


class TestSimulatorsMatchLoops:
    """The array simulators against the per-trial loops, bit for bit."""

    @pytest.mark.parametrize("pxy, n, rate, trials, seed, delta", _sw_inputs())
    def test_slepian_wolf(self, pxy, n, rate, trials, seed, delta):
        rep = slepian_wolf_sim(pxy, n, rate, trials, seed, delta)
        assert rep.success_prob == _slepian_wolf_loop(pxy, n, rate, trials, seed, delta)

    @pytest.mark.parametrize("chunk", [1, _rng.CHUNK_ENTRIES, 2 ** 40],
                             ids=["one", "default", "all"])
    @pytest.mark.parametrize("p, n, rate, trials, seed", _bsc_inputs())
    def test_bsc(self, p, n, rate, trials, seed, chunk, monkeypatch):
        monkeypatch.setattr(_rng, "CHUNK_ENTRIES", chunk)
        rep = bsc_random_code_sim(p, n, rate, trials, seed)
        assert rep.success_prob == _bsc_loop(p, n, rate, trials, seed)

    def test_bsc_inputs_have_ties(self):
        # n = 6 at rate 0.9 (42 codewords): about half the trials go to the tie-break
        ties = 0
        for t in range(60):
            rng = _rng.stream(5, t)
            book = rng.integers(0, 2, size=(42, 6), dtype=np.uint8)
            received = book[int(rng.integers(42))] ^ (rng.random(6) < 0.1).astype(np.uint8)
            dist = np.count_nonzero(book ^ received, axis=1)
            ties += np.count_nonzero(dist == dist.min()) > 1
        assert ties > 20

    @pytest.mark.parametrize("run", [
        lambda: slepian_wolf_sim(np.array([[0.4, 0.1], [0.1, 0.4]]), 8, 0.6, 30, 3),
        lambda: bsc_random_code_sim(0.05, 10, 0.4, 200, 3),
    ], ids=["slepian_wolf", "bsc"])
    def test_no_stream_per_trial(self, run, monkeypatch):
        calls, stream = [], _rng.stream

        def counting(*args, **kw):
            calls.append(args)
            return stream(*args, **kw)

        monkeypatch.setattr(_rng, "stream", counting)
        monkeypatch.setattr(coding, "stream", counting)
        run()
        assert calls == []


def _random_law(rng, d, zero=False):
    p = rng.dirichlet(np.full(d, 2.0))
    if zero:
        p[rng.integers(d)] = 0.0
        p /= p.sum()
    return p


class TestTypeTablesMatchLoops:
    """The array type table against the per-type loops, bit for bit."""

    @pytest.mark.parametrize("i", range(50))
    def test_census(self, i):
        rng = np.random.default_rng(3800 + i)
        d = int(rng.integers(1, 5))
        p = _random_law(rng, d, zero=i % 5 == 3 and d > 1)
        spec = TypicalitySpec(int(rng.integers(1, 11 if d < 4 else 8)), float(rng.uniform(0.05, 1)))
        rep = typical_set_census(p, spec)
        assert (rep.count, rep.total_prob) == _census_loop(p, spec)
        assert type(rep.count) is int

    @pytest.mark.parametrize("i", range(50))
    def test_projector_and_rank_limited(self, i):
        rng = np.random.default_rng(4800 + i)
        d = int(rng.integers(2, 5))
        vals = _random_law(rng, d, zero=i % 5 == 2)
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        rho = density_from_matrix((u * vals) @ u.conj().T)
        n = int(rng.integers(1, 7))
        spec = TypicalitySpec(n, float(rng.uniform(0.05, 1)))
        sub = schumacher_projector(rho, spec)
        assert (sub.typical_types, sub.dim, sub.weight) == _projector_loop(rho, spec)
        max_dim = int(rng.integers(1, d ** n + 2))
        sub, ky_fan = coding._rank_limited_subspace(rho, n, max_dim)
        assert (sub.typical_types, sub.dim, sub.weight, ky_fan) == _rank_limited_loop(
            rho, n, max_dim)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_count_sums_equal_dict_dp(self, width):
        # 100 random tables per width, in stacks of 1 to 3
        rng = np.random.default_rng(5800 + width)
        for _ in range(100):
            stacks, steps = int(rng.integers(1, 4)), int(rng.integers(0, 10))
            weights = rng.uniform(0, 1, size=(stacks, steps, width))
            weights[rng.uniform(size=weights.shape) < 0.15] = 0.0
            cells, sums = coding._count_sums(weights)
            for s in range(stacks):
                table = _count_dp(weights[s].tolist(), width)
                assert [tuple(c) for c in cells.tolist()] == list(table)
                assert sums[s].tolist() == list(table.values())

    @pytest.mark.parametrize("i", range(50))
    def test_schumacher_fidelity(self, i):
        rng = np.random.default_rng(6800 + i)
        m, d = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        probs = _random_law(rng, m, zero=i % 7 == 4)
        states = [v / np.linalg.norm(v)
                  for v in rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))]
        ensemble = list(zip(probs.tolist(), states))
        n = int(rng.integers(1, 7 if d == 2 else 6))
        rho = density_from_matrix(sum(p * np.outer(v, v.conj()) for p, v in ensemble))
        if i % 2:
            kw = {"spec": TypicalitySpec(n, float(rng.uniform(0.05, 0.8)))}
            sub = schumacher_projector(rho, kw["spec"])
        else:
            kw = {"rate": float(rng.uniform(0.1, 1.0))}
            sub = coding._rank_limited_subspace(
                rho, n, max(int(math.floor(2.0 ** (n * kw["rate"]))), 1))[0]
        rep = schumacher_sim(ensemble, n, **kw)
        want = _schumacher_fidelity_loop(ensemble, n, sub) if sub.typical_types else 0.0
        assert rep.fidelity == want

    @pytest.mark.parametrize("p, n, trials, seed", [(0.3, 30, 100, 19), (0.2, 40, 2000, 5),
                                                    (0.0, 10, 50, 31), (0.5, 64, 300, 2)])
    def test_concentration(self, p, n, trials, seed):
        rep = concentration_sim(p, n, trials, seed)
        outcomes = _rng.stream(seed, 0).binomial(n, p, size=trials)
        log_d = np.array([math.log2(math.comb(n, int(m))) for m in outcomes])
        pmf = np.array([math.comb(n, m) * (p ** m) * ((1 - p) ** (n - m)) for m in range(n + 1)])
        assert rep.mean_log2_d == float(log_d.mean())
        assert rep.exact_mean_log2_d == float(
            sum(pmf[m] * math.log2(math.comb(n, m)) for m in range(n + 1)))


class TestTrialCount:
    @pytest.mark.parametrize("run", [
        lambda t: bsc_random_code_sim(0.05, 10, 0.3, t, 5),
        lambda t: slepian_wolf_sim(np.full((2, 2), 0.25), 8, 0.5, t, 5),
    ], ids=["bsc", "slepian_wolf"])
    @pytest.mark.parametrize("trials", [0, 1])
    def test_fewer_than_two_trials_refused(self, run, trials):
        with pytest.raises(ValueError, match="at least 2 trials"):
            run(trials)


def _dense_projector(sub):
    """The subspace's d^n x d^n projector, built from every eigen-index
    sequence: the sum of |v><v| over the product eigenvectors v whose index
    sequence has a kept type."""
    d = sub.eigenvectors.shape[0]
    kept = {t for t, _ in sub.typical_types}
    cols = [functools.reduce(np.kron, sub.eigenvectors[:, list(seq)].T)
            for seq in itertools.product(range(d), repeat=sub.n)
            if tuple(seq.count(a) for a in range(d)) in kept]
    cols = np.array(cols, dtype=complex).reshape(-1, d ** sub.n).T
    return cols @ cols.conj().T


class TestSchumacherProjector:
    RHO = density_from_matrix(np.array([[0.75, 0.25], [0.25, 0.25]]))

    def test_projector_properties(self):
        sub = schumacher_projector(self.RHO, TypicalitySpec(3, 0.5))
        p = _dense_projector(sub)
        assert np.max(np.abs(p @ p - p)) < 1e-10                 # idempotent
        assert np.trace(p).real == pytest.approx(sub.dim)

    def test_weight_matches_projected_trace(self):
        sub = schumacher_projector(self.RHO, TypicalitySpec(3, 0.5))
        big = functools.reduce(np.kron, [self.RHO.matrix] * 3)
        assert np.trace(_dense_projector(sub) @ big).real == pytest.approx(sub.weight)

    def test_weight_grows_with_delta(self):
        w = [schumacher_projector(self.RHO, TypicalitySpec(3, d)).weight
             for d in (0.3, 0.5, 3.0)]
        assert w[0] <= w[1] <= w[2]
        assert w[2] == pytest.approx(1.0)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            schumacher_projector(self.RHO, TypicalitySpec(20, 0.5))

    def test_nothing_of_size_d_to_the_n_is_built(self):
        # one 2^12 x 2^12 complex matrix would take 256 MiB
        tracemalloc.start()
        try:
            sub = schumacher_projector(self.RHO, TypicalitySpec(12, 0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sub.dim > 0 and peak < 2 ** 20

    @pytest.mark.parametrize("spectrum, lengths", [
        ((0.8, 0.2), range(1, 9)),
        ((0.6, 0.3, 0.1), range(1, 6)),
    ])
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.6])
    def test_sequence_loop_projector_has_dim_and_weight(self, spectrum, lengths, delta):
        rho = density_from_matrix(np.diag(spectrum).astype(complex))
        for n in lengths:
            sub = schumacher_projector(rho, TypicalitySpec(n, delta))
            p = _dense_projector(sub)
            assert np.trace(p).real == pytest.approx(sub.dim, abs=1e-9)
            big = functools.reduce(np.kron, [rho.matrix] * n)
            assert np.trace(p @ big).real == pytest.approx(sub.weight, abs=1e-12)


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

    def test_type_sums_are_python_floats(self):
        census = typical_set_census(np.array([0.75, 0.25]), TypicalitySpec(8, 0.2))
        typical = schumacher_sim(self.ENSEMBLE, 3, spec=TypicalitySpec(3, 0.5))
        limited = schumacher_sim(self.ENSEMBLE, 3, rate=2 / 3)
        values = [census.total_prob, typical.weight, typical.lower_bound,
                  limited.weight, limited.lower_bound, limited.ky_fan_bound]
        assert all(type(v) is float for v in values)

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
        sub = schumacher_projector(rho, spec)
        types, dim, weight = dict(sub.typical_types), sub.dim, sub.weight
    else:
        max_dim = max(int(math.floor(2.0 ** (n * rate))), 1)
        logp = np.array([math.log2(v) if v > 1e-300 else -math.inf for v in vals])
        classes = []
        for counts in _compositions(n, d):
            r = _type_rate(counts, logp)
            if not math.isinf(r):
                classes.append((counts, -r * n, _multinomial(counts)))
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
