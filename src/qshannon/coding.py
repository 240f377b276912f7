"""Typicality machinery and end-to-end coding simulators: typical-set census,
Slepian-Wolf binning, random coding over the binary symmetric channel,
block compression of quantum sources, and entanglement concentration.

Exhaustive quantities are computed exactly over sequence type classes
(compositions) with multinomial weights, which keeps the census and the
quantum-compression numbers exact far beyond naive enumeration.  Every type
of a block is one row of an int array (`_type_table`), whose per-letter
rates are computed for all rows at once, adding the terms letter by letter
as a scalar loop would; class sizes stay exact Python ints.  The census and
the Schumacher subspace share one routine, `_typical_set`: the subspace is
the typical set of rho's spectrum, kept as types and eigenvectors, and
nothing of size d^n is built.  The Schumacher fidelity and Ky Fan bound
never enumerate sequences: they sum over type classes, with one array
dynamic program over partial count vectors (`_count_sums`) for all letter
types at once, so their cost is polynomial in the block length n.  Hard
enumeration caps trigger clear errors instead of silent sampling.

The Monte Carlo simulators draw trial t from `keyed_stream(seed, t)`, the
numbers `stream(seed, t)` gives, and do the per-trial decoding as array
work.  A chunk of BSC trials, run by `_rng.run_trials`, is decoded as one
stack.  `slepian_wolf_sim` keeps its own trial loop, since it stacks nothing:
a trial makes one binomial draw per bin scan from a table built once per
y-composition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._rng import check_trials, keyed_stream, run_trials, stream
from .entropy import shannon_entropy, validate_prob_dist
from .linalg import DensityOperator, density_from_matrix, eig_hermitian

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
    trials: int
    mc_stderr: float


def _bernoulli_stderr(p_hat: float, trials: int) -> float:
    return math.sqrt(max(p_hat * (1 - p_hat), 0.0) / trials)


# ---------------------------------------------------------------------------
# classical typicality
# ---------------------------------------------------------------------------

def _log2s(p, floor: float) -> np.ndarray:
    """math.log2 of each entry above floor, else -inf (np.log2 rounds some doubles apart)."""
    return np.array([math.log2(x) if x > floor else -math.inf for x in p])


def sequence_log_prob(x: Sequence[int], p) -> float:
    """log2 probability of an i.i.d. sequence; -inf on a zero-probability letter."""
    logp = _log2s(validate_prob_dist(p), 0.0)
    return float(sum(logp[letter] for letter in x))


def _within(rates, h: float, delta: float):
    """The typicality window on per-letter rates: h - delta <= rate <= h + delta."""
    return (h - delta <= rates) & (rates <= h + delta)


def is_typical(x: Sequence[int], p, spec: TypicalitySpec) -> bool:
    """Two-sided check on the empirical per-letter information rate:
    H - delta <= -(1/n) log2 p(x) <= H + delta."""
    rate = -sequence_log_prob(x, p) / len(x)     # inf on a zero-probability letter
    return _within(rate, shannon_entropy(p), spec.delta)


def _type_table(n: int, d: int) -> np.ndarray:
    """Every count vector of length d summing to n (the letter types of
    length-n sequences over d letters) as the rows of an int array, in
    lexicographically ascending order."""
    # stars and bars: the bar positions in lexicographic order give the
    # counts in lexicographic order
    combos = list(itertools.combinations(range(n + d - 1), d - 1))
    bars = np.array(combos, dtype=np.int64).reshape(len(combos), d - 1)
    ends = np.full((len(bars), 1), n + d - 1)
    return np.diff(np.hstack([np.full((len(bars), 1), -1), bars, ends]), axis=1) - 1


def _multinomials(types: np.ndarray) -> list[int]:
    """Exact multinomial coefficient of each row of counts, as Python ints."""
    if not len(types):
        return []
    fact = np.array([math.factorial(i) for i in range(int(types.max()) + 1)], dtype=object)
    n = int(types[0].sum())
    return (math.factorial(n) // np.prod(fact[types], axis=1)).tolist()


def _type_rates(types: np.ndarray, logp: np.ndarray, n: int) -> np.ndarray:
    """-(1/n) log2 of any sequence with each row's letter counts; inf if
    impossible.  The terms c * logp are added letter by letter from 0.0, as
    a loop over one type adds them; a zero count adds nothing and a positive
    count on a zero-probability letter gives inf."""
    total = np.zeros(len(types))
    impossible = np.zeros(len(types), dtype=bool)
    for counts, lp in zip(types.T, logp.tolist()):
        if lp == -math.inf:
            impossible |= counts > 0
        else:
            total += counts * lp      # a zero count adds +-0.0: no change
    rates = -total / n
    rates[impossible] = math.inf
    return rates


def _typical_set(p: np.ndarray, spec: TypicalitySpec, floor: float):
    """The delta-typical length-n sequences of the law p, by type: H(p), the
    typical types in lexicographic order as (counts, log2 probability of one
    sequence of the type) pairs, the exact number of typical sequences and
    their total probability, clipped at 1.  A letter of probability at most
    floor is impossible."""
    h = shannon_entropy(p)
    types = _type_table(spec.n, p.size)
    rates = _type_rates(types, _log2s(p, floor), spec.n)
    keep = _within(rates, h, spec.delta)
    kept, lgs = types[keep], -rates[keep] * spec.n
    count, prob = 0, 0.0
    for m, lg in zip(_multinomials(kept), lgs):
        count += m
        prob += m * 2.0 ** lg
    return h, list(zip(map(tuple, kept.tolist()), lgs)), count, min(float(prob), 1.0)


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
    if p.size ** spec.n > CENSUS_CAP:
        raise EnumerationCapError(
            f"{p.size}^{spec.n} sequences exceeds the census cap {CENSUS_CAP}")
    h, _, count, prob = _typical_set(p, spec, 0.0)
    return CensusReport(count, prob, spec.n, spec.delta, h)


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
    Binomial(type size, 1/#bins), so no sequences are ever materialized.
    Trial t draws its joint type, then one binomial per competing type in
    a fixed order (one array draw), then the tie-break, from stream(seed, t).
    Its own loop runs the trials (per-trial lookups; nothing is stacked)."""
    check_trials(trials)
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    pxy = np.asarray(pxy, dtype=float)
    dx, dy = pxy.shape
    flat = pxy.reshape(-1)
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    hx, hy, hxy = shannon_entropy(px), shannon_entropy(py), shannon_entropy(flat)
    nbins = max(int(round(2.0 ** (n * rate))), 1)

    def log2(q: np.ndarray) -> np.ndarray:
        return np.where(q > 0, np.log2(np.where(q > 0, q, 1.0)), -np.inf)

    log_pxy, log_px, log_py = log2(flat), log2(px), log2(py)
    # conditional log-likelihood log2 p(x|y) per joint cell
    with np.errstate(divide="ignore", invalid="ignore"):
        log_cond = log_pxy.reshape(dx, dy) - log_py[None, :]
    finite_cond = np.where(np.isfinite(log_cond), log_cond, 0.0)
    never = ~np.isfinite(log_cond).reshape(-1)   # cells the decoder never chooses

    def typical(counts: np.ndarray, logp: np.ndarray, h: float) -> np.ndarray:
        return _within(_type_rates(counts, logp, n), h, delta)

    columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def column(c: int) -> tuple[np.ndarray, np.ndarray]:
        """The x-compositions of a column of c letters and their class sizes."""
        if c not in columns:
            types = _type_table(c, dx)
            columns[c] = types, np.array(_multinomials(types), dtype=object)
        return columns[c]

    def scan_table(cy: tuple[int, ...]) -> dict:
        """Every joint type with y-composition cy, in the order of the
        product of per-column compositions (the last column varying
        fastest): its joint typicality and log-likelihood, and the
        competitors -- the jointly typical types the decoder can choose --
        with their class sizes and log-likelihoods.  A competitor class the
        binomial sampler cannot take is refused here."""
        cols, mults = zip(*(column(c) for c in cy))
        pick = np.indices([len(c) for c in cols]).reshape(dy, -1)
        counts = np.stack([col[i] for col, i in zip(cols, pick)], axis=2)   # (K, dx, dy)
        joint = counts.reshape(len(counts), -1)
        ok = (typical(np.array([cy]), log_py, hy) & typical(counts.sum(axis=2), log_px, hx)
              & typical(joint, log_pxy, hxy))
        possible = ~np.any(joint[:, never] > 0, axis=1)
        ll = (counts * finite_cond).reshape(len(counts), -1).sum(axis=1)
        comp = np.flatnonzero(ok & possible)
        sizes = np.prod([m[i[comp]] for m, i in zip(mults, pick)], axis=0).tolist()
        if max(sizes, default=0) >= BINOMIAL_CAP:
            raise EnumerationCapError(
                f"a joint type class of {max(sizes)} sequences exceeds the binomial "
                f"sampler's cap 2^63 (n = {n})")
        rank = np.full(len(counts), -1)
        rank[comp] = np.arange(comp.size)
        return {"index": {row.tobytes(): k for k, row in enumerate(joint)},
                "typical": ok, "own_ll": np.where(possible, ll, -np.inf), "rank": rank,
                "sizes": np.array(sizes, dtype=np.int64), "ll": ll[comp]}

    tables: dict[tuple[int, ...], dict] = {}
    lookup: dict[bytes, tuple[dict, int]] = {}   # joint type -> (its table, its row)
    errors = 0
    for t in range(trials):
        rng = keyed_stream(seed, t)
        joint = rng.multinomial(n, flat)
        key = joint.tobytes()
        if key not in lookup:
            cy = tuple(joint.reshape(dx, dy).sum(axis=0).tolist())
            if cy not in tables:
                tables[cy] = scan_table(cy)
            lookup[key] = tables[cy], tables[cy]["index"][key]
        tab, row = lookup[key]
        own = int(tab["rank"][row])     # the true sequence's own class, or -1
        sizes = tab["sizes"]
        if own >= 0:
            sizes = sizes.copy()
            sizes[own] -= 1     # exclude the true sequence itself
        if not tab["typical"][row]:
            errors += 1
            continue
        # a class of size 0 draws nothing, as a skipped one does
        k = rng.binomial(sizes, 1.0 / nbins)
        own_ll = tab["own_ll"][row]
        better = int(k[tab["ll"] > own_ll + 1e-12].sum())
        equal = int(k[np.abs(tab["ll"] - own_ll) <= 1e-12].sum())
        if better > 0:
            errors += 1
        elif equal > 0 and rng.random() >= 1.0 / (equal + 1):
            errors += 1

    err = errors / trials
    return SimReport(1 - err, rate, trials, _bernoulli_stderr(err, trials))


# ---------------------------------------------------------------------------
# BSC random coding
# ---------------------------------------------------------------------------

def _bsc_trials(p: float, n: int, n_codewords: int, seed: int, a: int, b: int) -> np.ndarray:
    """The run_trials kernel of bsc_random_code_sim: wrong-decode flags."""
    def draw(t):
        rng = keyed_stream(seed, t)
        book = rng.integers(0, 2, size=(n_codewords, n), dtype=np.uint8)
        msg = int(rng.integers(n_codewords))
        noise = (rng.random(n) < p).astype(np.uint8)
        return rng, book, msg, noise

    books = np.empty((b - a, n_codewords, n), dtype=np.uint8)
    msgs = np.empty(b - a, dtype=np.intp)
    noise = np.empty((b - a, n), dtype=np.uint8)
    for row, t in enumerate(range(a, b)):
        _, books[row], msgs[row], noise[row] = draw(t)
    rows = np.arange(b - a)
    books ^= (books[rows, msgs] ^ noise)[:, None, :]    # bits where each word differs
    dist = books.sum(axis=2, dtype=np.intp)             # Hamming distances
    winners = dist == dist.min(axis=1)[:, None]
    wrong = ~winners[rows, msgs]
    for row in np.flatnonzero(np.count_nonzero(winners, axis=1) > 1):
        rng = draw(a + int(row))[0]
        tied = np.flatnonzero(winners[row])
        wrong[row] = tied[int(rng.integers(tied.size))] != msgs[row]
    return wrong


def bsc_random_code_sim(p: float, n: int, rate: float, trials: int, seed: int) -> SimReport:
    """Random codebook over the binary symmetric channel with minimum-Hamming-
    distance decoding; reports the empirical block error rate.

    Trial t draws its codebook, message and noise from stream(seed, t), then
    a random tie-break among the nearest codewords.  A chunk of trials is
    decoded as one stack; a trial with a tie is drawn again up to its
    tie-break."""
    if not 0 <= p <= 1:
        raise ValueError("flip probability outside [0,1]")
    n_codewords = max(int(round(2.0 ** (n * rate))), 2)
    if n_codewords > CODEWORD_CAP:
        raise EnumerationCapError(
            f"2^(nR) = {n_codewords} codewords exceeds the cap {CODEWORD_CAP}")
    # a uint8 codebook counts as 1/16 of a complex entry per bit
    wrong = run_trials(_bsc_trials, trials, -(-n_codewords * n // 16), p, n, n_codewords, seed)
    err = int(np.count_nonzero(wrong)) / trials
    return SimReport(1 - err, rate, trials, _bernoulli_stderr(err, trials))


# ---------------------------------------------------------------------------
# quantum source compression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypicalSubspace:
    """Whole type classes of product eigenvectors of rho^(tensor n): the kept
    eigen-index types with the log2 eigenvalue product of one member, the
    dimension and the weight tr(P rho^(tensor n))."""
    dim: int
    weight: float
    typical_types: list[tuple[tuple[int, ...], float]]  # (eigen-index counts, log2 prob/letter-seq)
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    n: int


def schumacher_projector(rho: DensityOperator, spec: TypicalitySpec) -> TypicalSubspace:
    """The delta-typical subspace of rho^(tensor n): the typical set of rho's
    spectrum.  It is spanned by the product eigenvectors whose eigenvalue
    product lies in [2^{-n(H+delta)}, 2^{-n(H-delta)}]; membership depends
    only on the type of the eigen-index sequence, so the subspace is kept as
    its typical types and rho's eigenvectors, and no d^n x d^n projector is
    built."""
    d = rho.dim
    if d ** spec.n > QUANTUM_CAP:
        raise EnumerationCapError(
            f"{d}^{spec.n} exceeds the quantum enumeration cap {QUANTUM_CAP}")
    vals, vecs = eig_hermitian(rho.matrix)
    vals = np.clip(vals, 0.0, None)
    _, typical, dim, weight = _typical_set(vals, spec, 1e-300)
    return TypicalSubspace(dim, weight, typical, vals, vecs, spec.n)


def _rank_limited_subspace(rho: DensityOperator, n: int,
                           max_dim: int) -> tuple[TypicalSubspace, float]:
    """Subspace of the largest product eigenvalues, grown whole type classes
    at a time while staying within max_dim basis vectors, together with the
    Ky Fan sum of the max_dim largest eigenvalues of rho^(tensor n): the
    retained weight plus the part of the next class that fills max_dim."""
    d = rho.dim
    vals, vecs = eig_hermitian(rho.matrix)
    vals = np.clip(vals, 0.0, None)
    logp = _log2s(vals, 1e-300)
    types = _type_table(n, d)
    rates = _type_rates(types, logp, n)
    types, lgs = types[np.isfinite(rates)], -rates[np.isfinite(rates)] * n
    order = np.argsort(-lgs, kind="stable")  # largest eigenvalue product first
    chosen = []
    dim = 0
    weight = 0.0
    for counts, lg, m in zip(map(tuple, types[order].tolist()), lgs[order],
                             _multinomials(types[order])):
        if dim + m > max_dim:
            ky_fan = weight + (max_dim - dim) * 2.0 ** lg
            break
        chosen.append((counts, lg))
        dim += m
        weight += m * 2.0 ** lg
    else:
        ky_fan = weight
    return TypicalSubspace(dim, float(weight), chosen, vals, vecs, n), float(ky_fan)


def _count_sums(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of the S stacked tables weights[s] (L steps by `width`
    choices): the sum over all index sequences (k_1..k_L), k_i in
    range(width), of prod_i weights[s, i, k_i], grouped by the count vector
    of the indices.

    Returns the count vectors, rows of a (C, width) int array in
    lexicographically descending order, and the (S, C) sums.  The state
    after step i is indexed by the first width - 1 counts, the last being
    i minus their sum.  A step adds the terms of each new count vector from
    its predecessors in descending order (choice width - 1 first, down to
    0), the order a dict of partial count vectors kept in insertion order
    adds them, so each sum is the same float.  The cost is
    O(L * width * S * C), C = C(L + width - 1, width - 1), not width^L."""
    stacks, steps, width = weights.shape
    cells = _type_table(steps, width)[::-1]
    heads = [tuple(c) for c in cells[:, :-1].tolist()]
    index = {h: j for j, h in enumerate(heads)}
    moves = []      # choice k < width - 1: cells j -> cell j + e_k
    for k in range(width - 1):
        pairs = [(j, index[h[:k] + (h[k] + 1,) + h[k + 1:]])
                 for j, h in enumerate(heads) if sum(h) < steps]
        src, dst = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        moves.append((src, dst))
    table = np.zeros((stacks, len(cells)))
    table[:, index[(0,) * (width - 1)]] = 1.0
    for i in range(steps):
        # choice width - 1 keeps the head; cells whose head sums above i are 0
        new = table * weights[:, i, width - 1:]
        for k in range(width - 2, -1, -1):
            src, dst = moves[k]
            new[:, dst] += table[:, src] * weights[:, i, k:k + 1]
        table = new
    return cells, table


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
    of type c.  Both come from array dynamic programs over count vectors
    (`_count_sums`): one stacked over every letter type for w, one of width
    m for G.  They add the same terms in the same order as a dict of count
    vectors, so the sums are the same floats, and the cost is
    O(n d C(n+d-1, d-1) C(n+m-1, m-1)), polynomial in n."""
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
    rho = density_from_matrix(rho_m)

    ky_fan = None
    if spec is not None:
        sub = schumacher_projector(rho, spec)
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

    # G(c) by a dynamic program over positions: position i of a message
    # contributes p_x O[x, junk_i] when it carries letter x
    x_types, junk_mass = _count_sums((probs[:, None] * overlap[:, junk_seq]).T[None])
    # w(c): the probability that a product state with letter counts c (the
    # letters in ascending order) projects into the subspace, summed over
    # its eigen-index compositions; the typical ones added in the DP's order
    letters = np.repeat(np.tile(np.arange(m_letters), (len(x_types), 1)), x_types.ravel(),
                        ).reshape(len(x_types), n)
    k_types, in_type = _count_sums(overlap[letters])
    w_all = np.zeros(len(x_types))
    for j, key in enumerate(map(tuple, k_types.tolist())):
        if key in typical_types:
            w_all += in_type[:, j]

    probs_l = probs.tolist()
    fbar = 0.0
    for counts, m, g, w in zip(map(tuple, x_types.tolist()), _multinomials(x_types),
                               junk_mass[0].tolist(), w_all.tolist()):
        mass = m * math.prod(p ** c for p, c in zip(probs_l, counts))
        if mass == 0.0:
            continue
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
    log_comb = [math.log2(math.comb(n, m)) for m in range(n + 1)]
    log_d = np.array(log_comb)[outcomes]
    pmf = np.array([math.comb(n, m) * (p ** m) * ((1 - p) ** (n - m)) for m in range(n + 1)])
    exact_mean = float(sum(pmf[m] * log_comb[m] for m in range(n + 1)))
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
