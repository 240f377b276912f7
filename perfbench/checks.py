"""Reference computations and correctness checks for the benchmark rounds.

Everything here is computed apart from qshannon: closed forms, the
benchmark's own partial traces and spectra, its own sums over type classes,
and its own vectorized Monte Carlo references for per-trial spreads.  No
function in this file imports qshannon.

A check returns None when it passes and a one-line message when it fails.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from math import comb, log, log2, sqrt

import numpy as np

SIGMAS = 4.0


def fail(cond: bool, msg: str):
    return None if cond else msg


# ---------------------------------------------------------------------------
# small information-theory helpers
# ---------------------------------------------------------------------------

def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * log2(p) - (1 - p) * log2(1 - p)


def shannon_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def spectrum_entropy_bits(m: np.ndarray) -> float:
    vals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return shannon_bits(vals[vals > 1e-14])


def ptrace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by one einsum: keep the factors whose indices are in `keep`."""
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n])
    col = [letters[n + i] if i in keep else row[i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    t = np.einsum("".join(row) + "".join(col) + "->" + out,
                  m.reshape(tuple(dims) * 2))
    d = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d, d)


def cmi_bits(rho: np.ndarray, dims) -> float:
    """I(A;C|B) for a three-factor state ordered (A, B, C)."""
    return (spectrum_entropy_bits(ptrace(rho, dims, [0, 1]))
            + spectrum_entropy_bits(ptrace(rho, dims, [1, 2]))
            - spectrum_entropy_bits(ptrace(rho, dims, [1]))
            - spectrum_entropy_bits(rho))


def kraus_apply(ops, m: np.ndarray) -> np.ndarray:
    k = np.asarray(ops)
    return np.einsum("kba,ac,kdc->bd", k, m, k.conj())


def log2m(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.log2(np.clip(vals, 1e-300, None))) @ vecs.conj().T


def relative_entropy_bits(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho||sigma) for full-rank sigma."""
    return float(np.trace(rho @ (log2m(rho) - log2m(sigma))).real)


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """The benchmark's own Haar isometry (QR of a Ginibre draw, phase-fixed)."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_kraus(d_in: int, d_out: int, n_kraus: int, rng: np.random.Generator):
    """Kraus operators of a random channel from a Haar isometry."""
    v = haar_isometry(d_out * n_kraus, d_in, rng)
    return [np.ascontiguousarray(op) for op in v.reshape(d_out, n_kraus, d_in).transpose(1, 0, 2)]


# ---------------------------------------------------------------------------
# haar_small references
# ---------------------------------------------------------------------------

def info_gain_exact_nats(d: int) -> float:
    return log(d) - sum(1.0 / k for k in range(2, d + 1))


def page_mean_bits(d1: int, d2: int) -> float:
    """Page's exact mean entropy of the d2-dimensional share (d2 <= d1)."""
    if d2 > d1:
        raise ValueError("Page's formula needs d2 <= d1")
    nats = sum(1.0 / k for k in range(d1 + 1, d1 * d2 + 1)) - (d2 - 1) / (2 * d1)
    return nats / log(2)


_REF_SAMPLES = 20_000
_ref_cache: dict = {}


def info_gain_trial_std(d: int) -> float:
    """Per-trial std of -sum p ln p for p uniform on the simplex (Haar |<y|psi>|^2)."""
    key = ("gain", d)
    if key not in _ref_cache:
        rng = np.random.default_rng(1_000 + d)
        e = rng.exponential(size=(_REF_SAMPLES, d))
        p = e / e.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -np.sum(np.where(p > 0, p * np.log(p), 0.0), axis=1)
        _ref_cache[key] = float(h.std(ddof=1))
    return _ref_cache[key]


def page_trial_std_bits(d1: int, d2: int) -> float:
    """Per-trial std of the d2-share entropy of a Haar pure state on d1 x d2."""
    key = ("page", d1, d2)
    if key not in _ref_cache:
        rng = np.random.default_rng(2_000 + 31 * d1 + d2)
        g = (rng.standard_normal((_REF_SAMPLES, d2, d1))
             + 1j * rng.standard_normal((_REF_SAMPLES, d2, d1)))
        g /= np.linalg.norm(g.reshape(_REF_SAMPLES, -1), axis=1)[:, None, None]
        vals = np.clip(np.linalg.eigvalsh(g @ g.conj().transpose(0, 2, 1)), 1e-300, None)
        h = -np.sum(vals * np.log2(vals), axis=1)
        _ref_cache[key] = float(h.std(ddof=1))
    return _ref_cache[key]


def check_info_gain(d: int, trials: int, estimate_nats: float, exact_nats: float,
                    stderr_nats: float):
    ref = info_gain_exact_nats(d)
    sigma = info_gain_trial_std(d) / sqrt(trials)
    return (fail(abs(exact_nats - ref) <= 1e-12, f"info gain d={d}: exact {exact_nats} != {ref}")
            or fail(abs(estimate_nats - ref) <= SIGMAS * sigma,
                    f"info gain d={d}: estimate {estimate_nats} vs {ref} beyond 4 sigma {sigma}")
            or fail(0.5 * sigma <= stderr_nats <= 2.0 * sigma,
                    f"info gain d={d}: reported stderr {stderr_nats} vs reference {sigma}"))


def check_page(d1: int, d2: int, trials: int, mean_bits: float, stderr_bits: float):
    ref = page_mean_bits(d1, d2)
    sigma = page_trial_std_bits(d1, d2) / sqrt(trials)
    return (fail(abs(mean_bits - ref) <= SIGMAS * sigma,
                 f"subsystem entropy {d1}x{d2}: {mean_bits} vs Page {ref} beyond 4 sigma {sigma}")
            or fail(0.5 * sigma <= stderr_bits <= 2.0 * sigma,
                    f"subsystem entropy {d1}x{d2}: reported stderr {stderr_bits} vs {sigma}"))


def check_decoupling(sigma: np.ndarray, d1: int, d2: int, de: int,
                     per_trial: np.ndarray, mean_l1: float):
    """Mean L1 distance at most the decoupling bound plus 4 sigma."""
    purity = float(np.vdot(sigma, sigma).real)
    bound = sqrt(d2 * de / d1 * purity)
    t = per_trial.size
    sigma_mc = float(per_trial.std(ddof=1)) / sqrt(t) if t > 1 else math.inf
    return (fail(abs(mean_l1 - float(per_trial.mean())) <= 1e-12,
                 "decoupling: mean_l1 is not the mean of per_trial")
            or fail(bool(np.all((per_trial >= -1e-12) & (per_trial <= 2 + 1e-12))),
                    "decoupling: a per-trial L1 distance lies outside [0, 2]")
            or fail(mean_l1 <= bound + SIGMAS * sigma_mc,
                    f"decoupling {d1}x{d2}, |E|={de}: mean {mean_l1} > bound {bound} + 4 sigma"))


def swap_operator(d: int) -> np.ndarray:
    return np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)


def check_moments(d1: int, d2: int, trials: int, mean: np.ndarray):
    """Least-squares weights of the empirical Haar mean on span{I, SWAP}."""
    d = d1 * d2
    c_i = (1 / d2) * (1 - 1 / d1 ** 2) / (1 - 1 / d ** 2)
    c_s = (1 / d1) * (1 - 1 / d2 ** 2) / (1 - 1 / d ** 2)
    s = swap_operator(d)
    basis = [np.eye(d * d), s]
    gram = np.array([[np.vdot(a, b).real for b in basis] for a in basis])
    rhs = np.array([np.vdot(a, mean).real for a in basis])
    fit_i, fit_s = np.linalg.solve(gram, rhs)
    tol = 5 / sqrt(trials)
    return fail(abs(fit_i - c_i) <= tol and abs(fit_s - c_s) <= tol,
                f"moments: fitted ({fit_i}, {fit_s}) vs ({c_i}, {c_s}) beyond {tol}")


def check_projected(psi_ra: np.ndarray, d_r: int, kraus, d_r2: int,
                    per_trial: np.ndarray, mean_l1: float, bound: float):
    """Projected decoupling: tr sigma_RE^2 = tr N(rho_A)^2 for the pure R B E state."""
    amps = psi_ra.reshape(d_r, -1)
    rho_a = amps.T @ amps.conj()
    out = kraus_apply(kraus, rho_a)
    d_e = len(kraus)
    ref_bound = sqrt(d_r2 * d_e * float(np.vdot(out, out).real))
    t = per_trial.size
    sigma_mc = float(per_trial.std(ddof=1)) / sqrt(t) if t > 1 else math.inf
    return (fail(abs(bound - ref_bound) <= 1e-9, f"projected: bound {bound} != {ref_bound}")
            or fail(abs(mean_l1 - float(per_trial.mean())) <= 1e-12,
                    "projected: mean_l1 is not the mean of per_trial")
            or fail(bool(np.all((per_trial >= -1e-12) & (per_trial <= 2 + 1e-12))),
                    "projected: a per-trial L1 distance lies outside [0, 2]")
            or fail(mean_l1 <= ref_bound + SIGMAS * sigma_mc,
                    f"projected: mean {mean_l1} > bound {ref_bound} + 4 sigma"))


def check_ssa(rho: np.ndarray, dims, program_cmi: float):
    own = cmi_bits(rho, dims)
    return (fail(own >= -1e-9, f"strong subadditivity: I(A;C|B) = {own} < 0")
            or fail(abs(own - program_cmi) <= 1e-9,
                    f"strong subadditivity: program {program_cmi} vs own {own}"))


def check_monotonicity(rho, sigma, kraus, out_rho, out_sigma, d_before: float,
                       d_after: float):
    own_out_rho = kraus_apply(kraus, rho)
    own_out_sigma = kraus_apply(kraus, sigma)
    own_before = relative_entropy_bits(rho, sigma)
    own_after = relative_entropy_bits(own_out_rho, own_out_sigma)
    return (fail(np.max(np.abs(own_out_rho - out_rho)) <= 1e-12
                 and np.max(np.abs(own_out_sigma - out_sigma)) <= 1e-12,
                 "monotonicity: channel output differs from the Kraus sum")
            or fail(abs(own_before - d_before) <= 1e-8 and abs(own_after - d_after) <= 1e-8,
                    f"monotonicity: program D ({d_before}, {d_after}) vs own "
                    f"({own_before}, {own_after})")
            or fail(own_after <= own_before + 1e-8,
                    f"monotonicity: D(N(rho)||N(sigma)) = {own_after} > D(rho||sigma) = {own_before}"))


# ---------------------------------------------------------------------------
# mirror references
# ---------------------------------------------------------------------------

def pooled_mean_and_stderr(values) -> tuple[float, float]:
    """Mean of per-round means and its standard error from their spread."""
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        return float(x.mean()), math.inf
    return float(x.mean()), float(x.std(ddof=1) / sqrt(x.size))


def emitted_qubits(n: int, k: int, c: int, age: str) -> int:
    return k + c if age == "old" else (n + k) // 2 + c


def mirror_l1_reference(age: str, n: int, k: int, c: int, trials: int) -> tuple[float, float]:
    """Mean and standard error of the mirror's L1 distance, from the
    benchmark's own Haar draws.

    The k infalling qubits are maximally entangled with a reference.  An old
    hole's other n - k qubits are maximally entangled with earlier radiation;
    a young hole's start in a fixed state.  After a Haar unitary on the n
    qubits, emitted_qubits(...) of them leave.  The distance is between the
    state of (remaining qubits, reference) and the maximally mixed state."""
    key = ("mirror", age, n, k, c, trials)
    if key not in _ref_cache:
        rng = np.random.default_rng(3_000 + 97 * n + 7 * k + c)
        d_em, d_a = 2 ** emitted_qubits(n, k, c, age), 2 ** k
        d_rem = 2 ** n // d_em
        d = d_rem * d_a
        vals = np.empty(trials)
        for t in range(trials):
            if age == "old":
                u = haar_isometry(2 ** n, 2 ** n, rng)
                psi = u.reshape(d_em, d_rem, d_a, 2 ** n // d_a) / sqrt(2 ** n)
                sigma = np.einsum("erab,esfb->rasf", psi, psi.conj())
            else:
                v = haar_isometry(2 ** n, d_a, rng)
                psi = v.reshape(d_em, d_rem, d_a) / sqrt(d_a)
                sigma = np.einsum("era,esf->rasf", psi, psi.conj())
            vals[t] = np.abs(np.linalg.eigvalsh(sigma.reshape(d, d)) - 1 / d).sum()
        _ref_cache[key] = (float(vals.mean()), float(vals.std(ddof=1) / sqrt(trials)))
    return _ref_cache[key]


def check_mirror_reference(label: str, age: str, n: int, k: int, c: int, round_l1,
                           trials: int):
    """The pooled mean L1 of a run against the benchmark's own estimate."""
    own, own_se = mirror_l1_reference(age, n, k, c, trials)
    mean, se = pooled_mean_and_stderr(round_l1)
    return fail(abs(mean - own) <= SIGMAS * sqrt(se ** 2 + own_se ** 2),
                f"mirror {label}: pooled mean L1 {mean} vs own estimate {own} "
                f"beyond 4 sigma")


def check_mirror_round(report: dict, n: int, k: int, c: int, age: str):
    emitted = emitted_qubits(n, k, c, age)
    return (fail(report["emitted_qubits"] == emitted,
                 f"mirror {age} c={c}: emitted {report['emitted_qubits']} != {emitted}")
            or fail(report["target"] == 1.0 - 2.0 ** (-c), f"mirror {age} c={c}: wrong target")
            or fail(abs(report["fidelity_estimate"] - (1.0 - report["mean_l1"])) <= 1e-15,
                    f"mirror {age} c={c}: fidelity is not 1 - mean L1")
            or fail(0.0 <= report["mean_l1"] <= 2.0,
                    f"mirror {age} c={c}: mean L1 {report['mean_l1']} outside [0, 2]"))


def check_mirror_pooled(fidelities: dict):
    """fidelities maps (age, c) to the per-round fidelity estimates of a run."""
    for (age, c), vals in sorted(fidelities.items()):
        mean, se = pooled_mean_and_stderr(vals)
        target = 1.0 - 2.0 ** (-c)
        msg = fail(mean >= target - SIGMAS * se,
                   f"mirror {age} c={c}: pooled fidelity {mean} < {target} - 4 sigma ({se})")
        if msg:
            return msg
    f2, f3 = fidelities.get(("old", 2)), fidelities.get(("old", 3))
    if f2 is not None and f3 is not None:
        diff = np.asarray(f3) - np.asarray(f2)
        mean, se = pooled_mean_and_stderr(diff)
        return fail(mean >= -SIGMAS * se,
                    f"mirror: margin c=3 worse than c=2 by {-mean} (4 sigma = {SIGMAS * se})")
    return None


# ---------------------------------------------------------------------------
# optimize references
# ---------------------------------------------------------------------------

def maximize_1d(f, lo: float = 0.0, hi: float = 1.0, grid: int = 2001) -> float:
    """Global maximum of a smooth function on [lo, hi]: grid, then golden section."""
    xs = np.linspace(lo, hi, grid)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmax(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, grid - 1)]
    g = (sqrt(5) - 1) / 2
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a < 1e-15:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return max(float(vals[i]), fc, fd)


def depolarizing_closed(p: float) -> dict:
    h4 = shannon_bits([1 - p, p / 3, p / 3, p / 3])
    return {"C1": 1 - h2(2 * p / 3), "CE": 2 - h4, "Q1": max(0.0, 1 - h4)}


def erasure_closed(p: float, d: int = 2) -> dict:
    return {"Q1": max(0.0, (1 - 2 * p) * log2(d)), "CE": 2 * (1 - p) * log2(d),
            "C1": (1 - p) * log2(d)}


def amplitude_damping_closed(g: float) -> dict:
    eta = 1 - g

    def chi(p):
        root = sqrt((1 - 2 * eta * p) ** 2 + 4 * eta * p * (1 - p))
        return h2(eta * p) - h2((1 + root) / 2)

    return {"Q1": max(0.0, maximize_1d(lambda p: h2(eta * p) - h2(g * p))),
            "CE": maximize_1d(lambda p: h2(p) + h2(eta * p) - h2(g * p)),
            "C1": maximize_1d(chi)}


def check_closed_forms(label: str, values: dict, closed: dict, tol: float = 1e-6):
    for q, v in values.items():
        if abs(v - closed[q]) > tol:
            return f"{label}: {q} = {v}, closed form {closed[q]}"
    return None


def coherent_info_mm(kraus) -> float:
    """I_c at the maximally mixed input: H(N(I/d)) - H(N_c(I/d))."""
    k = np.asarray(kraus)
    d = k.shape[2]
    rho = np.eye(d) / d
    out_b = kraus_apply(k, rho)
    out_e = np.einsum("kba,ac,lbc->kl", k, rho, k.conj())
    return spectrum_entropy_bits(out_b) - spectrum_entropy_bits(out_e)


def basis_chi(kraus) -> float:
    """chi of the uniform computational-basis ensemble through the channel."""
    k = np.asarray(kraus)
    d = k.shape[2]
    outs = [kraus_apply(k, np.outer(np.eye(d)[a], np.eye(d)[a])) for a in range(d)]
    avg = sum(outs) / d
    return spectrum_entropy_bits(avg) - sum(spectrum_entropy_bits(o) for o in outs) / d


def check_random_channel(label: str, kraus, q1: float, c1: float, ce: float):
    ic = coherent_info_mm(kraus)
    chi = basis_chi(kraus)
    return (fail(q1 <= c1 + 1e-6 and c1 <= ce + 1e-6,
                 f"{label}: ordering Q1 {q1} <= C1 {c1} <= CE {ce} violated")
            or fail(q1 >= ic - 1e-9, f"{label}: Q1 {q1} below I_c(mm) {ic}")
            or fail(c1 >= chi - 1e-6, f"{label}: C1 {c1} below basis chi {chi}"))


def ba_upper(w: np.ndarray, r: np.ndarray) -> float:
    """max_x D(W(.|x) || W r) in bits."""
    q = w @ r
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, w * (np.log2(w) - np.log2(q)[:, None]), 0.0)
    return float(terms.sum(axis=0).max())


def check_blahut_arimoto(w: np.ndarray, value: float, r: np.ndarray, tol: float):
    upper = ba_upper(w, np.asarray(r, dtype=float))
    return fail(-1e-12 <= upper - value <= tol + 1e-12,
                f"Blahut-Arimoto: value {value} vs max_x D(W_x||Wr) {upper} (tol {tol})")


TRINE_ACCESSIBLE = log2(1.5)


def check_trine(value: float, tol: float = 1e-6):
    return fail(abs(value - TRINE_ACCESSIBLE) <= tol,
                f"trine accessible information {value} != log2(3/2)")


# ---------------------------------------------------------------------------
# coding references
# ---------------------------------------------------------------------------

def compositions(n: int, d: int):
    """Letter-count vectors of length d summing to n, via multisets."""
    for ms in combinations_with_replacement(range(d), n):
        yield tuple(ms.count(a) for a in range(d))


def multinomial(counts) -> int:
    return math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)


def typical_census(p, n: int, delta: float) -> tuple[int, float]:
    """(count, probability) of the delta-typical set, summed over type classes."""
    p = np.asarray(p, dtype=float)
    h = shannon_bits(p)
    count, prob = 0, 0.0
    for counts in compositions(n, p.size):
        if any(c and p[a] <= 0 for a, c in enumerate(counts)):
            continue
        lp = sum(c * log2(p[a]) for a, c in enumerate(counts) if c)
        if h - delta <= -lp / n <= h + delta:
            m = multinomial(counts)
            count += m
            prob += m * 2.0 ** lp
    return count, prob


def check_census(p, n: int, delta: float, count: int, prob: float):
    own_count, own_prob = typical_census(p, n, delta)
    return fail(count == own_count and abs(prob - min(own_prob, 1.0)) <= 1e-12,
                f"census n={n}: ({count}, {prob}) vs own ({own_count}, {own_prob})")


def source_spectrum(probs, states) -> np.ndarray:
    rho = sum(p * np.outer(v, np.conj(v)) for p, v in zip(probs, states))
    return np.clip(np.linalg.eigvalsh(rho), 0.0, None)


def ky_fan(vals: np.ndarray, n: int, k: int) -> float:
    """Sum of the k largest eigenvalues of rho^{tensor n}."""
    prod = np.array([1.0])
    for _ in range(n):
        prod = np.outer(prod, vals).reshape(-1)
    return float(np.sort(prod)[::-1][:k].sum())


def check_compression(rep: dict, probs, states, n: int, delta=None, rate=None):
    w, f, dim = rep["weight"], rep["fidelity"], rep["dim"]
    msg = fail(2 * w - 1 - 1e-12 <= f <= 1 + 1e-12,
               f"compression n={n}: fidelity {f} outside [2w - 1, 1] with w = {w}")
    if msg:
        return msg
    vals = source_spectrum(probs, states)
    if delta is not None:
        own_dim, own_w = typical_census(vals[vals > 1e-300], n, delta)
        return fail(dim == own_dim and abs(w - min(own_w, 1.0)) <= 1e-12,
                    f"compression n={n}: subspace ({dim}, {w}) vs own ({own_dim}, {own_w})")
    cap = max(int(math.floor(2.0 ** (n * rate))), 1)
    kf = ky_fan(vals, n, cap)
    return (fail(dim <= cap, f"compression n={n}: dim {dim} > 2^(nR) = {cap}")
            or fail(w <= kf + 1e-12, f"compression n={n}: weight {w} > Ky Fan {kf}")
            or fail(abs(rep["ky_fan_bound"] - kf) <= 1e-12,
                    f"compression n={n}: reported Ky Fan {rep['ky_fan_bound']} vs own {kf}"))


SCHUMACHER3_WEIGHT = 0.9419
SCHUMACHER3_FIDELITY = 0.9234


def check_schumacher3(weight: float, fidelity: float):
    return fail(abs(weight - SCHUMACHER3_WEIGHT) <= 1e-4
                and abs(fidelity - SCHUMACHER3_FIDELITY) <= 1e-4,
                f"three-letter example: weight {weight}, fidelity {fidelity}")


def check_concentration(p: float, n: int, trials: int, histogram: dict, mean: float):
    ms = np.array([int(m) for m in histogram], dtype=int)
    cs = np.array([int(c) for c in histogram.values()], dtype=float)
    logs = np.array([log2(comb(n, int(m))) for m in ms])
    own_mean = float(np.sum(cs * logs) / cs.sum())
    var = float(np.sum(cs * (logs - own_mean) ** 2) / (cs.sum() - 1))
    sigma = sqrt(var / trials)
    exact = sum(comb(n, m) * p ** m * (1 - p) ** (n - m) * log2(comb(n, m))
                for m in range(n + 1))
    return (fail(int(cs.sum()) == trials, "concentration: histogram does not sum to trials")
            or fail(abs(own_mean - mean) <= 1e-9,
                    f"concentration: mean {mean} vs histogram mean {own_mean}")
            or fail(abs(mean - exact) <= SIGMAS * sigma,
                    f"concentration: mean {mean} vs exact {exact} beyond 4 sigma {sigma}"))


def bsc_union_bound(p: float, n: int, codewords: int) -> float:
    half = [comb(n, j) / 2.0 ** n for j in range(n + 1)]
    cdf = np.cumsum(half)
    return float(sum(comb(n, w) * p ** w * (1 - p) ** (n - w)
                     * min(1.0, (codewords - 1) * cdf[w]) for w in range(n + 1)))


def check_bsc(p: float, n: int, rate: float, trials: int, success: float):
    codewords = max(int(round(2.0 ** (n * rate))), 2)
    ub = min(bsc_union_bound(p, n, codewords), 1.0)
    sigma = sqrt(ub * (1 - ub) / trials)
    err = 1.0 - success
    return fail(err <= ub + SIGMAS * sigma,
                f"BSC n={n}: block error {err} > union bound {ub} + 4 sigma")


def check_slepian_wolf(trials: int, success_lo: float, success_hi: float):
    var = (success_lo * (1 - success_lo) + success_hi * (1 - success_hi)) / trials
    return fail(success_hi >= success_lo - SIGMAS * sqrt(var),
                f"Slepian-Wolf: success {success_hi} at the higher rate < {success_lo}")
