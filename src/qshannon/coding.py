"""Typicality machinery and end-to-end coding simulators: typical-set census,
Slepian-Wolf binning, random coding over the binary symmetric channel,
block compression of quantum sources, and entanglement concentration.

Exhaustive quantities are computed exactly by enumerating sequence type
classes (compositions) with multinomial weights, which keeps the census and
the quantum-compression numbers exact far beyond naive enumeration.  The
Schumacher fidelity and Ky Fan bound never enumerate sequences: they sum
over type classes, with dynamic programs over partial count vectors, so
their cost is polynomial in the block length n.  Hard enumeration caps
trigger clear errors instead of silent sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._rng import stream
from .entropy import shannon_entropy, validate_prob_dist
from .linalg import DensityOperator, eig_hermitian

CENSUS_CAP = 2 ** 24
QUANTUM_CAP = 2 ** 14
CODEWORD_CAP = 2 ** 14
BINOMIAL_CAP = 2 ** 63      # numpy's binomial sampler takes an int64 count


class EnumerationCapError(ValueError):
    """Raised when an exhaustive computation would exceed its size cap."""


@dataclass(frozen=True)
class TypicalitySpec:
    n: int
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("block length must be >= 1")
        if self.delta <= 0:
            raise ValueError("delta must be positive")


@dataclass
class SimReport:
    success_prob: float
    rate: float
    fidelity: float
    trials: int
    mc_stderr: float
    op: str = ""
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None


def _bernoulli_stderr(p_hat: float, trials: int) -> float:
    return math.sqrt(max(p_hat * (1 - p_hat), 0.0) / trials) if trials else 0.0


# ---------------------------------------------------------------------------
# classical typicality
# ---------------------------------------------------------------------------

def sequence_log_prob(x: Sequence[int], p) -> float:
    """log2 probability of an i.i.d. sequence; -inf on a zero-probability letter."""
    p = validate_prob_dist(p)
    total = 0.0
    for letter in x:
        if p[letter] <= 0:
            return -math.inf
        total += math.log2(p[letter])
    return total


def is_typical(x: Sequence[int], p, spec: TypicalitySpec) -> bool:
    """Two-sided check on the empirical per-letter information rate:
    H - delta <= -(1/n) log2 p(x) <= H + delta."""
    n = len(x)
    h = shannon_entropy(p)
    lp = sequence_log_prob(x, p)
    if lp == -math.inf:
        return False
    rate = -lp / n
    return h - spec.delta <= rate <= h + spec.delta


def _compositions(n: int, d: int):
    """All count vectors of length d summing to n."""
    if d == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, d - 1):
            yield (first,) + rest


def _multinomial(counts: Sequence[int]) -> int:
    total = sum(counts)
    out = 1
    rem = total
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def _type_rate(counts: Sequence[int], logp: np.ndarray) -> float:
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


@dataclass(frozen=True)
class CensusReport:
    count: int
    total_prob: float
    n: int
    delta: float
    entropy: float


def typical_set_census(p, spec: TypicalitySpec) -> CensusReport:
    """Exact size and probability of the typical set, via type classes."""
    p = validate_prob_dist(p)
    d = p.size
    if d ** spec.n > CENSUS_CAP:
        raise EnumerationCapError(
            f"{d}^{spec.n} sequences exceeds the census cap {CENSUS_CAP}")
    h = shannon_entropy(p)
    logp = np.array([math.log2(x) if x > 0 else -math.inf for x in p])
    count = 0
    prob = 0.0
    for counts in _compositions(spec.n, d):
        rate = _type_rate(counts, logp)
        if h - spec.delta <= rate <= h + spec.delta:
            m = _multinomial(counts)
            count += m
            prob += m * 2.0 ** (-rate * spec.n)
    return CensusReport(count, min(prob, 1.0), spec.n, spec.delta, h)


# ---------------------------------------------------------------------------
# Slepian-Wolf binning
# ---------------------------------------------------------------------------

def slepian_wolf_sim(pxy, n: int, rate: float, trials: int, seed: int,
                     delta: float = 0.5) -> SimReport:
    """Source coding with side information: x is hashed into 2^{nR} bins and
    the decoder scans the received bin for sequences jointly typical with y,
    ranking survivors by conditional likelihood p(x|y) (random tie-break).

    The bin scan is simulated exactly: under uniform independent binning,
    the number of competitors of each joint type present in the bin is
    Binomial(type size, 1/#bins), so no sequences are ever materialized."""
    pxy = np.asarray(pxy, dtype=float)
    dx, dy = pxy.shape
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    hx, hy = shannon_entropy(px), shannon_entropy(py)
    hxy = shannon_entropy(pxy.reshape(-1))
    nbins = max(int(round(2.0 ** (n * rate))), 1)

    flat = pxy.reshape(-1)
    log_pxy = np.where(flat > 0, np.log2(np.where(flat > 0, flat, 1.0)), -np.inf)
    log_px = np.where(px > 0, np.log2(np.where(px > 0, px, 1.0)), -np.inf)
    log_py = np.where(py > 0, np.log2(np.where(py > 0, py, 1.0)), -np.inf)
    # conditional log-likelihood log2 p(x|y) per joint cell
    with np.errstate(divide="ignore", invalid="ignore"):
        log_cond = log_pxy.reshape(dx, dy) - log_py[None, :]
    finite_cond = np.where(np.isfinite(log_cond), log_cond, 0.0)

    def jointly_typical(joint_counts: np.ndarray) -> bool:
        # three two-sided conditions: on p(x), p(y), and p(x, y)
        cx = joint_counts.sum(axis=1)
        cy = joint_counts.sum(axis=0)
        for counts, logp, h in ((cx, log_px, hx), (cy, log_py, hy),
                                (joint_counts.reshape(-1), log_pxy, hxy)):
            rate_ = _type_rate(counts, logp)
            if not (h - delta <= rate_ <= h + delta):
                return False
        return True

    competitors: dict[tuple[int, ...], list[tuple[np.ndarray, int, float]]] = {}

    def competitor_types(cy: np.ndarray) -> list[tuple[np.ndarray, int, float]]:
        """(joint counts, class size, log-likelihood) of every jointly typical
        joint type with y-composition cy that the decoder can choose, in
        enumeration order; computed once per y-composition."""
        key = tuple(int(c) for c in cy)
        if key not in competitors:
            found = []
            per_y_comps = [list(_compositions(c, dx)) for c in key]
            for combo in itertools.product(*per_y_comps):
                comp_counts = np.array(combo, dtype=int).T  # (dx, dy)
                if not jointly_typical(comp_counts):
                    continue
                if np.any(comp_counts[~np.isfinite(log_cond)] > 0):
                    continue  # zero conditional probability: never chosen
                size = math.prod(_multinomial(c) for c in combo)
                found.append((comp_counts, size, float(np.sum(comp_counts * finite_cond))))
            competitors[key] = found
        return competitors[key]

    errors = 0
    for t in range(trials):
        rng = stream(seed, t)
        joint = rng.multinomial(n, flat).reshape(dx, dy)
        own_typical = jointly_typical(joint)
        own_ll = float(np.sum(joint * finite_cond))
        if np.any(joint[~np.isfinite(log_cond)] > 0):
            own_ll = -math.inf

        better = 0      # typical competitors with strictly higher likelihood
        equal = 0       # typical competitors tying the true sequence
        for comp_counts, size, ll in competitor_types(joint.sum(axis=0)):
            if np.array_equal(comp_counts, joint):
                size -= 1  # exclude the true sequence itself
            if size <= 0:
                continue
            if size >= BINOMIAL_CAP:
                raise EnumerationCapError(
                    f"a joint type class of {size} sequences exceeds the binomial "
                    f"sampler's cap 2^63 (n = {n})")
            k = rng.binomial(size, 1.0 / nbins)
            if k == 0 or not own_typical:
                continue
            if ll > own_ll + 1e-12:
                better += k
            elif abs(ll - own_ll) <= 1e-12:
                equal += k

        if not own_typical:
            errors += 1
        elif better > 0:
            errors += 1
        elif equal > 0 and rng.random() >= 1.0 / (equal + 1):
            errors += 1

    err = errors / trials
    return SimReport(1 - err, rate, math.nan, trials, _bernoulli_stderr(err, trials),
                     op="slepian_wolf", seed=seed,
                     params={"n": n, "rate": rate, "delta": delta})


# ---------------------------------------------------------------------------
# BSC random coding
# ---------------------------------------------------------------------------

def bsc_random_code_sim(p: float, n: int, rate: float, trials: int, seed: int) -> SimReport:
    """Random codebook over the binary symmetric channel with minimum-Hamming-
    distance decoding; reports the empirical block error rate."""
    if not 0 <= p <= 1:
        raise ValueError("flip probability outside [0,1]")
    n_codewords = max(int(round(2.0 ** (n * rate))), 2)
    if n_codewords > CODEWORD_CAP:
        raise EnumerationCapError(
            f"2^(nR) = {n_codewords} codewords exceeds the cap {CODEWORD_CAP}")
    errors = 0
    for t in range(trials):
        rng = stream(seed, t)
        book = rng.integers(0, 2, size=(n_codewords, n), dtype=np.uint8)
        msg = int(rng.integers(n_codewords))
        noise = (rng.random(n) < p).astype(np.uint8)
        received = book[msg] ^ noise
        dist = np.count_nonzero(book ^ received[None, :], axis=1)
        best = dist.min()
        winners = np.flatnonzero(dist == best)
        choice = winners[int(rng.integers(winners.size))]
        if choice != msg:
            errors += 1
    err = errors / trials
    return SimReport(1 - err, rate, math.nan, trials, _bernoulli_stderr(err, trials),
                     op="bsc_random_code", seed=seed,
                     params={"p": p, "n": n, "rate": rate})


# ---------------------------------------------------------------------------
# quantum source compression
# ---------------------------------------------------------------------------

@dataclass
class TypicalSubspace:
    dim: int
    weight: float
    typical_types: list[tuple[tuple[int, ...], float]]  # (eigen-index counts, log2 prob/letter-seq)
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    n: int
    projector: Optional[np.ndarray] = None


def schumacher_projector(rho: DensityOperator, spec: TypicalitySpec,
                         materialize_cap: int = 2 ** 12) -> TypicalSubspace:
    """Projector data for the delta-typical subspace of rho^(tensor n).

    The subspace is spanned by product eigenvectors whose eigenvalue product
    lies in [2^{-n(H+delta)}, 2^{-n(H-delta)}]; membership depends only on
    the type of the eigen-index sequence."""
    d = rho.dim
    if d ** spec.n > QUANTUM_CAP:
        raise EnumerationCapError(
            f"{d}^{spec.n} exceeds the quantum enumeration cap {QUANTUM_CAP}")
    vals, vecs = eig_hermitian(rho.matrix)
    vals = np.clip(vals, 0.0, None)
    h = shannon_entropy(vals)
    logp = np.array([math.log2(v) if v > 1e-300 else -math.inf for v in vals])
    typical = []
    dim = 0
    weight = 0.0
    for counts in _compositions(spec.n, d):
        rate = _type_rate(counts, logp)
        if h - spec.delta <= rate <= h + spec.delta:
            m = _multinomial(counts)
            typical.append((counts, -rate * spec.n))
            dim += m
            weight += m * 2.0 ** (-rate * spec.n)
    sub = TypicalSubspace(dim, min(weight, 1.0), typical, vals, vecs, spec.n)
    if d ** spec.n <= materialize_cap:
        sub.projector = _materialize_projector(sub, d)
    return sub


def _typical_mask(sub: TypicalSubspace, d: int) -> np.ndarray:
    """Boolean mask over all d^n eigen-index sequences, True when typical."""
    digits = (np.arange(d ** sub.n)[:, None] // d ** np.arange(sub.n)) % d
    counts = (digits[:, :, None] == np.arange(d)).sum(axis=1)  # letter counts per sequence
    types, inverse = np.unique(counts, axis=0, return_inverse=True)
    typical_types = {t for t, _ in sub.typical_types}
    is_typical_type = np.array([tuple(t) in typical_types for t in types.tolist()])
    return is_typical_type[inverse.reshape(-1)]


def _materialize_projector(sub: TypicalSubspace, d: int) -> np.ndarray:
    mask = _typical_mask(sub, d)
    u = sub.eigenvectors
    big_u = u
    for _ in range(sub.n - 1):
        big_u = np.kron(big_u, u)
    cols = big_u[:, mask]
    return cols @ cols.conj().T


def _rank_limited_subspace(rho: DensityOperator, n: int,
                           max_dim: int) -> tuple[TypicalSubspace, float]:
    """Subspace of the largest product eigenvalues, grown whole type classes
    at a time while staying within max_dim basis vectors, together with the
    Ky Fan sum of the max_dim largest eigenvalues of rho^(tensor n): the
    retained weight plus the part of the next class that fills max_dim."""
    d = rho.dim
    vals, vecs = eig_hermitian(rho.matrix)
    vals = np.clip(vals, 0.0, None)
    logp = np.array([math.log2(v) if v > 1e-300 else -math.inf for v in vals])
    classes = []
    for counts in _compositions(n, d):
        rate = _type_rate(counts, logp)
        if math.isinf(rate):
            continue
        classes.append((counts, -rate * n, _multinomial(counts)))
    classes.sort(key=lambda c: -c[1])  # largest eigenvalue product first
    chosen = []
    dim = 0
    weight = 0.0
    for counts, lg, m in classes:
        if dim + m > max_dim:
            ky_fan = weight + (max_dim - dim) * 2.0 ** lg
            break
        chosen.append((counts, lg))
        dim += m
        weight += m * 2.0 ** lg
    else:
        ky_fan = weight
    return TypicalSubspace(dim, weight, chosen, vals, vecs, n), ky_fan


def _count_dp(steps: Sequence[Sequence[float]], width: int) -> dict[tuple[int, ...], float]:
    """Sum over all index sequences (k_1..k_L), k_i in range(width), of
    prod_i steps[i][k_i], grouped by the count vector of the indices.

    The states are partial count vectors, so the cost is
    O(L * width * C(L + width - 1, width - 1)) rather than width^L."""
    table = {(0,) * width: 1.0}
    for weights in steps:
        new = {}
        for key, amp in table.items():
            for k, wk in enumerate(weights):
                nk = key[:k] + (key[k] + 1,) + key[k + 1:]
                new[nk] = new.get(nk, 0.0) + amp * wk
        table = new
    return table


@dataclass
class CompressionReport:
    fidelity: float
    weight: float
    dim: int
    rate: float
    lower_bound: float       # 2 * weight - 1
    ky_fan_bound: Optional[float] = None


def schumacher_sim(ensemble, n: int, spec: Optional[TypicalitySpec] = None,
                   rate: Optional[float] = None) -> CompressionReport:
    """Exact average fidelity of block compression of a pure-state source.

    Each block is projected onto the retained subspace; on failure the most
    likely retained product eigenstate is substituted.  Pass `spec` for the
    delta-typical subspace or `rate` (qubits per letter) for a rank-limited
    subspace of at most 2^{n rate} dimensions.

    With m letters in a d-dimensional space the fidelity is summed over the
    C(n+m-1, m-1) letter types, never over the m^n messages:

        F = sum_c multinom(c) prod_x p_x^{c_x} w(c)^2 + sum_c (1 - w(c)) G(c),

    where w(c) is the probability that a product state of type c projects
    into the subspace and G(c) sums p(x^n) |<junk|x^n>|^2 over the messages
    of type c.  Both come from dynamic programs over count vectors, so the
    cost is O(n d C(n+d-1, d-1) C(n+m-1, m-1)), polynomial in n."""
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    probs = validate_prob_dist([p for p, _ in ensemble])
    states = [np.asarray(v, dtype=complex).reshape(-1) for _, v in ensemble]
    d = states[0].size
    m_letters = len(states)
    if m_letters ** n > QUANTUM_CAP:
        raise EnumerationCapError(
            f"{m_letters}^{n} message sequences exceeds the cap {QUANTUM_CAP}")
    rho_m = sum(p * np.outer(v, v.conj()) for p, v in zip(probs, states))
    from .linalg import density_from_matrix
    rho = density_from_matrix(rho_m)

    ky_fan = None
    if spec is not None:
        sub = schumacher_projector(rho, spec, materialize_cap=0)
    elif rate is not None:
        max_dim = max(int(math.floor(2.0 ** (n * rate))), 1)
        sub, ky_fan = _rank_limited_subspace(rho, n, max_dim)
    else:
        raise ValueError("provide either spec or rate")

    vals, vecs = sub.eigenvalues, sub.eigenvectors
    # per-letter overlap table O[x, k] = |<eigvec_k | state_x>|^2
    overlap = np.abs(np.einsum("dk,xd->xk", vecs.conj(), np.array(states))) ** 2

    typical_types = {t: lg for t, lg in sub.typical_types}
    if not typical_types:
        return CompressionReport(0.0, 0.0, 0, rate or math.nan, -1.0, ky_fan)

    # most likely retained eigenstate: constant sequence of the heaviest
    # admissible arrangement (largest per-letter eigenvalue within the top type)
    top_type = max(typical_types, key=lambda t: typical_types[t])
    junk_seq = []
    for k in range(d):
        junk_seq.extend([k] * top_type[k])
    junk_seq.sort(key=lambda k: -vals[k])

    def w_of_type(x_counts: tuple[int, ...]) -> float:
        # probability that a product state with these letter counts projects
        # into the subspace, summed over its eigen-index compositions
        letters = []
        for x in range(m_letters):
            letters.extend([x] * x_counts[x])
        table = _count_dp([overlap[x].tolist() for x in letters], d)
        return sum(v for key, v in table.items() if key in typical_types)

    probs_l = probs.tolist()
    # G(c) by a dynamic program over positions: position i of a message
    # contributes p_x O[x, junk_i] when it carries letter x
    junk_mass = _count_dp([[p * o for p, o in zip(probs_l, overlap[:, k].tolist())]
                           for k in junk_seq], m_letters)
    fbar = 0.0
    for counts, g in junk_mass.items():
        mass = _multinomial(counts) * math.prod(p ** c for p, c in zip(probs_l, counts))
        if mass == 0.0:
            continue
        w = w_of_type(counts)
        fbar += mass * w * w + (1 - w) * g

    eff_rate = rate if rate is not None else math.log2(max(sub.dim, 1)) / n
    return CompressionReport(fbar, sub.weight, sub.dim, eff_rate,
                             2 * sub.weight - 1, ky_fan)


# ---------------------------------------------------------------------------
# entanglement concentration
# ---------------------------------------------------------------------------

@dataclass
class ConcentrationReport:
    histogram: dict[int, int]
    expected_counts: dict[int, float]
    mean_log2_d: float
    rate: float
    exact_mean_log2_d: float
    chi2_pvalue: float


def concentration_sim(p: float, n: int, trials: int, seed: int) -> ConcentrationReport:
    """Repeated local total-occupation measurement on n copies of a two-party
    state with Schmidt weights (1-p, p): outcome m arrives with the binomial
    law and leaves a maximally entangled state of rank C(n, m)."""
    if not 0 <= p <= 1:
        raise ValueError("Schmidt parameter outside [0,1]")
    if n < 1:
        raise ValueError(f"need n >= 1 copies, got {n}")
    if n > 64:
        raise EnumerationCapError("binary concentration capped at n = 64")
    rng = stream(seed, 0)
    outcomes = rng.binomial(n, p, size=trials)
    hist = {int(m): int(c) for m, c in zip(*np.unique(outcomes, return_counts=True))}
    log_d = np.array([math.log2(math.comb(n, int(m))) for m in outcomes])
    pmf = np.array([math.comb(n, m) * (p ** m) * ((1 - p) ** (n - m)) for m in range(n + 1)])
    exact_mean = float(sum(pmf[m] * math.log2(math.comb(n, m)) for m in range(n + 1)))
    expected = {m: trials * pmf[m] for m in range(n + 1)}

    # chi-squared against the exact binomial, pooling cells with tiny expectation
    obs, exp = [], []
    spill_o = spill_e = 0.0
    for m in range(n + 1):
        e = expected[m]
        o = hist.get(m, 0)
        if e < 5:
            spill_o += o
            spill_e += e
        else:
            obs.append(o)
            exp.append(e)
    if spill_e > 0:
        obs.append(spill_o)
        exp.append(spill_e)
    if np.count_nonzero(pmf) == 1:
        # a one-outcome law: the histogram equals it exactly
        pvalue = 1.0
    elif len(obs) < 2:
        raise ValueError(f"{trials} trials are too few for the chi-squared test: pooling "
                         f"the cells with expectation below 5 leaves {len(obs)} cell")
    else:
        from scipy.stats import chisquare
        exp = np.array(exp) * (sum(obs) / sum(exp))
        _, pvalue = chisquare(obs, exp)

    return ConcentrationReport(hist, expected, float(log_d.mean()),
                               float(log_d.mean() / n), exact_mean, float(pvalue))
