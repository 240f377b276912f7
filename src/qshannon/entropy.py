"""Classical and quantum entropy functionals, thermodynamic identities, and
protocol-rate bookkeeping.

All entropies are in bits by default; the thermodynamic routines
(`gibbs_free_energy`, `landauer_work`, `first_law_check`) use natural logs.
Relative entropies return `math.inf` when the first argument's support is not
contained in the second's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityOperator,
    PureState,
    clean_spectrum,
    eig_hermitian,
    partial_trace,
)

ZERO_EIGENVALUE = 1e-14


def _log(x: np.ndarray, base: float) -> np.ndarray:
    return np.log(x) / np.log(base)


def validate_prob_dist(p) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.min(initial=0.0) < -1e-12:
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    return np.clip(p, 0.0, None)


def shannon_entropy(p, base: float = 2) -> float:
    """H(p) = -sum p log p, with 0 log 0 = 0."""
    p = validate_prob_dist(p)
    nz = p[p > ZERO_EIGENVALUE]
    return float(-np.sum(nz * _log(nz, base)))


def row_entropies(p: np.ndarray, floor: float, log) -> np.ndarray:
    """-sum p log p over the entries above `floor` of each row of p, each row
    summed exactly as the 1-D array of its kept entries would be."""
    keep = p > floor
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.sum(p * log(p), axis=-1)
    # a dropped entry would shift the others within the pairwise sum
    for i in np.flatnonzero(~keep.all(axis=-1)):
        nz = p[i][keep[i]]
        out[i] = -np.sum(nz * log(nz))
    return out


def conditional_mutual_classical(pxy, base: float = 2) -> tuple[float, float]:
    """(H(X|Y), I(X;Y)) of a joint distribution with x as the first axis."""
    pxy = np.asarray(pxy, dtype=float)
    if abs(pxy.sum() - 1.0) > 1e-8 or pxy.min() < -1e-12:
        raise ValueError("joint distribution must be nonnegative and sum to 1")
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    h_xy = shannon_entropy(pxy.reshape(-1), base)
    h_x = shannon_entropy(px, base)
    h_y = shannon_entropy(py, base)
    return h_xy - h_y, h_x + h_y - h_xy


def relative_entropy_classical(p, q, base: float = 2) -> float:
    """D(p || q); +inf when p has weight outside the support of q."""
    p = validate_prob_dist(p)
    q = validate_prob_dist(q)
    if p.shape != q.shape:
        raise ValueError("distributions must share an alphabet")
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= ZERO_EIGENVALUE:
            continue
        if qi <= ZERO_EIGENVALUE:
            return math.inf
        total += pi * (math.log(pi) - math.log(qi))
    return total / math.log(base)


def majorizes(p, q, tol: float = 1e-9) -> bool:
    """True when p majorizes q: every partial sum of the sorted-descending
    entries of p dominates the corresponding partial sum for q."""
    p = np.sort(np.asarray(p, dtype=float))[::-1]
    q = np.sort(np.asarray(q, dtype=float))[::-1]
    n = max(p.size, q.size)
    p = np.pad(p, (0, n - p.size))
    q = np.pad(q, (0, n - q.size))
    return bool(np.all(np.cumsum(p) >= np.cumsum(q) - tol))


def von_neumann_entropy(rho: DensityOperator | np.ndarray, base: float = 2) -> float:
    """H(rho) = -tr(rho log rho) = Shannon entropy of the spectrum."""
    m = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    vals = clean_spectrum(np.linalg.eigvalsh(m))
    return float(row_entropies(vals[None], ZERO_EIGENVALUE, lambda x: _log(x, base))[0])


@dataclass(frozen=True)
class BipartiteEntropies:
    h_a: float
    h_b: float
    h_ab: float
    h_a_given_b: float
    mutual_info: float


def bipartite_entropies(rho: DensityOperator, part_a: list[str], base: float = 2) -> BipartiteEntropies:
    """Entropies of the bipartition (part_a labels, remaining labels)."""
    part_a = list(part_a)
    part_b = [lb for lb in rho.layout.labels if lb not in set(part_a)]
    if not part_a or not part_b:
        raise ValueError("cut must leave both sides non-empty")
    h_a = von_neumann_entropy(partial_trace(rho, part_a), base)
    h_b = von_neumann_entropy(partial_trace(rho, part_b), base)
    h_ab = von_neumann_entropy(rho, base)
    return BipartiteEntropies(h_a, h_b, h_ab, h_ab - h_b, h_a + h_b - h_ab)


def conditional_mutual_quantum(rho: DensityOperator, a: str = None, b: str = None, c: str = None) -> float:
    """I(A;C|B) = H(AB) + H(BC) - H(B) - H(ABC), nonnegative by strong
    subadditivity.  Defaults to the first three layout labels in order."""
    labels = rho.layout.labels
    if len(labels) < 3 and (a is None or b is None or c is None):
        raise ValueError("need a three-factor layout or explicit label groups")
    if a is None:
        a, b, c = labels[0], labels[1], labels[2]
    grp = lambda x: list(x) if isinstance(x, (list, tuple)) else [x]
    ga, gb, gc = grp(a), grp(b), grp(c)
    h_ab = von_neumann_entropy(partial_trace(rho, ga + gb))
    h_bc = von_neumann_entropy(partial_trace(rho, gb + gc))
    h_b = von_neumann_entropy(partial_trace(rho, gb))
    h_abc = von_neumann_entropy(partial_trace(rho, ga + gb + gc))
    return h_ab + h_bc - h_b - h_abc


def _log_on_support(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Natural log of a PSD matrix on its support; returns (log_m, support projector)."""
    vals, vecs = eig_hermitian(m)
    vals = np.clip(vals, 0.0, None)
    supp = vals > ZERO_EIGENVALUE
    logvals = np.where(supp, np.log(np.where(supp, vals, 1.0)), 0.0)
    log_m = (vecs * logvals) @ vecs.conj().T
    proj = (vecs * supp.astype(float)) @ vecs.conj().T
    return log_m, proj


def relative_entropy_quantum(rho, sigma, base: float = 2) -> float:
    """D(rho || sigma) = tr rho (log rho - log sigma); +inf on support violation."""
    mr = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    ms = sigma.matrix if isinstance(sigma, DensityOperator) else np.asarray(sigma, dtype=complex)
    if mr.shape != ms.shape:
        raise ValueError("dimension mismatch")
    log_s, proj_s = _log_on_support(ms)
    # support(rho) ⊆ support(sigma) iff rho has no weight on sigma's kernel
    leak = np.trace(mr @ (np.eye(mr.shape[0]) - proj_s)).real
    if leak > 1e-10:
        return math.inf
    log_r, _ = _log_on_support(mr)
    val = np.trace(mr @ (log_r - log_s)).real
    return float(max(val, 0.0)) / math.log(base)


def coherent_information(rho_a: DensityOperator, channel, base: float = 2) -> float:
    """I_c(A>B) = H(B) - H(E) for the channel's dilated output on input rho_a."""
    from .channels import dilate_state  # local import to avoid a cycle

    rho_be = dilate_state(channel, rho_a)
    h_b = von_neumann_entropy(partial_trace(rho_be, ["B"]), base)
    h_e = von_neumann_entropy(partial_trace(rho_be, ["E"]), base)
    return h_b - h_e


def holevo_chi(ensemble, base: float = 2) -> float:
    """chi = H(avg state) - avg of member entropies for [(p, rho), ...]."""
    probs = validate_prob_dist([p for p, _ in ensemble])
    mats = [r.matrix if isinstance(r, DensityOperator) else np.asarray(r, dtype=complex)
            for _, r in ensemble]
    avg = sum(p * m for p, m in zip(probs, mats))
    return von_neumann_entropy(avg, base) - float(
        sum(p * von_neumann_entropy(m, base) for p, m in zip(probs, mats)))


def squashed_bound(rho_abc: DensityOperator, a="A", b="B", c="C") -> float:
    """(1/2) I(A;B|C) of the supplied extension: an upper bound on the squashed
    entanglement of its AB marginal."""
    return 0.5 * conditional_mutual_quantum(rho_abc, a, c, b)


@dataclass(frozen=True)
class GibbsReport:
    gibbs_state: DensityOperator
    free_energy_rho: float
    free_energy_gibbs: float
    relative_entropy: float   # nats
    identity_residual: float


def gibbs_free_energy(hamiltonian: np.ndarray, beta: float, rho: DensityOperator) -> GibbsReport:
    """Gibbs state at inverse temperature beta plus the free-energy identity
    D(rho || rho_beta) = beta (F(rho) - F(rho_beta)), all in natural logs."""
    h = np.asarray(hamiltonian, dtype=complex)
    if beta <= 0:
        raise ValueError("beta must be positive")
    from scipy.linalg import expm

    w = expm(-beta * h)
    z = np.trace(w).real
    gibbs = DensityOperator(w / z, rho.layout)

    def free_energy(state: DensityOperator) -> float:
        energy = np.trace(state.matrix @ h).real
        return float(energy - von_neumann_entropy(state, math.e) / beta)

    f_rho = free_energy(rho)
    f_gibbs = free_energy(gibbs)
    d = relative_entropy_quantum(rho, gibbs, math.e)
    return GibbsReport(gibbs, f_rho, f_gibbs, d, abs(d - beta * (f_rho - f_gibbs)))


def landauer_work(beta: float) -> float:
    """Work to reset a two-level system by sweeping the excited level upward:
    the integral over the level splitting of the excited-state occupation
    e^{-beta l} / (1 + e^{-beta l}), which is ln 2 / beta."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return math.log(2) / beta


@dataclass(frozen=True)
class FirstLawReport:
    delta_entropy: float
    delta_modular_energy: float
    residual: float


def first_law_check(rho: DensityOperator, delta: np.ndarray, scale: float) -> FirstLawReport:
    """Compare dS against d<K> with K = -ln rho, for rho -> rho + scale*delta.

    delta must be traceless Hermitian; both quantities are in nats and agree
    to second order in scale."""
    delta = np.asarray(delta, dtype=complex)
    if abs(np.trace(delta)) > 1e-10:
        raise ValueError("perturbation must be traceless")
    vals = np.linalg.eigvalsh(rho.matrix)
    if vals.min() < 1e-10:
        raise ValueError("rho must be full rank")
    perturbed = DensityOperator(rho.matrix + scale * delta, rho.layout)
    ds = von_neumann_entropy(perturbed, math.e) - von_neumann_entropy(rho, math.e)
    from scipy.linalg import logm

    k = -logm(rho.matrix)
    dk = np.trace((perturbed.matrix - rho.matrix) @ k).real
    return FirstLawReport(ds, float(dk), abs(ds - dk))


def fano_bound(pe: float, d: int, base: float = 2) -> float:
    """H2(pe) + pe log(d-1): the Fano upper bound on H(X|Y)."""
    if not 0 <= pe <= 1:
        raise ValueError("error probability must lie in [0,1]")
    if d < 2:
        raise ValueError("alphabet size must be >= 2")
    h2 = shannon_entropy([pe, 1 - pe], base)
    return h2 + pe * math.log(d - 1) / math.log(base)


@dataclass(frozen=True)
class ProtocolRates:
    father_qubits: float     # (1/2) I(R;B)
    father_ebits: float      # (1/2) I(R;E)
    mother_qubits: float     # (1/2) I(A;E)
    mother_ebits: float      # (1/2) I(A;B)
    hashing: float           # I_c(A>B) = H(B) - H(E)
    merging: float           # H(A|B)
    noisy_sd: float          # superdense coding: consumes H(A) qubits,
                             # produces I(A;B) cbits
    noisy_tp: float          # teleportation: consumes I(A;B) cbits, produces
                             # I(A>B) = H(B) - H(E) qubits


def protocol_rates(phi: PureState | DensityOperator, a: str, b: str, e: str) -> ProtocolRates:
    """Resource-inequality rates from a tripartite pure state.

    `a` doubles as the reference label R in the father quantities."""
    rho = phi.density() if isinstance(phi, PureState) else phi
    m2 = rho.matrix @ rho.matrix
    if np.max(np.abs(m2 - rho.matrix)) > 1e-8:
        raise ValueError("state must be pure")

    def h(labels) -> float:
        return von_neumann_entropy(partial_trace(rho, list(labels)))

    h_a, h_b, h_e = h([a]), h([b]), h([e])
    h_ab, h_ae = h([a, b]), h([a, e])
    i_ab = h_a + h_b - h_ab
    i_ae = h_a + h_e - h_ae
    hashing = h_b - h_e
    merging = h_ab - h_b
    return ProtocolRates(
        father_qubits=0.5 * i_ab,
        father_ebits=0.5 * i_ae,
        mother_qubits=0.5 * i_ae,
        mother_ebits=0.5 * i_ab,
        hashing=hashing,
        merging=merging,
        noisy_sd=i_ab,
        noisy_tp=hashing,
    )
