"""Monte Carlo engine for decoupling experiments: random-subsystem
discarding, the decoupling inequality, the Haar second-moment constants,
projected decoupling for channel codes, and the black-hole-mirror model.

Trial t of every experiment draws from the (seed, t) random stream, so runs
are reproducible independent of any sharding.  L1 distances are computed
exactly from eigenvalues of the Hermitian difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._rng import check_trials, stream
from .channels import KrausChannel, dilate
from .linalg import (
    DensityOperator,
    SubsystemLayout,
    dagger,
    haar_random_pure,
    haar_random_unitary,
    partial_trace,
    partial_trace_pure,
)

DIM_GUARD = 2 ** 10


@dataclass(frozen=True)
class DecouplingTrialSet:
    sigma_ae: DensityOperator       # layout ("A",) or ("A", "E")
    split: tuple[int, int]          # (|A1| discarded, |A2| retained)
    trials: int
    seed: int

    def __post_init__(self):
        da = self.sigma_ae.layout.dims[0]
        if min(self.split) < 1:
            raise ValueError(f"split {self.split} has a factor below 1")
        if self.split[0] * self.split[1] != da:
            raise ValueError(f"split {self.split} does not factor |A| = {da}")
        check_trials(self.trials)


@dataclass
class DecouplingReport:
    mean_l1: float
    bound: float
    per_trial: np.ndarray
    mc_stderr: float
    extra: dict = field(default_factory=dict)

    def satisfied(self, slack_sigmas: float = 4.0) -> bool:
        return self.mean_l1 <= self.bound + slack_sigmas * self.mc_stderr


def _l1(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def _stderr(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / math.sqrt(x.size))


def purity(m: np.ndarray) -> float:
    return float(np.trace(m @ m).real)


def decoupling_bound(sigma_ae: DensityOperator, split: tuple[int, int]) -> float:
    """sqrt(|A2| |E| / |A1| * tr(sigma_AE^2)); |E| = 1 when there is no E."""
    da = sigma_ae.layout.dims[0]
    d1, d2 = split
    if d1 * d2 != da:
        raise ValueError(f"split {split} does not factor |A| = {da}")
    de = sigma_ae.layout.dims[1] if len(sigma_ae.layout.dims) > 1 else 1
    return math.sqrt(d2 * de / d1 * purity(sigma_ae.matrix))


def decoupling_experiment(t: DecouplingTrialSet) -> DecouplingReport:
    """Estimate E_U || sigma_{A2 E}(U) - I/|A2| x sigma_E ||_1 for Haar U on A."""
    sigma = t.sigma_ae
    da = sigma.layout.dims[0]
    de = sigma.layout.dims[1] if len(sigma.layout.dims) > 1 else 1
    if da * de > DIM_GUARD:
        raise ValueError(f"total dimension {da * de} exceeds guard {DIM_GUARD}")
    d1, d2 = t.split
    has_e = len(sigma.layout.dims) > 1
    if has_e:
        sigma_e = partial_trace(sigma, ["E"]).matrix
    else:
        sigma_e = np.array([[1.0]], dtype=complex)
    target = np.kron(np.eye(d2) / d2, sigma_e)
    m = sigma.matrix
    vals = np.empty(t.trials)
    for i in range(t.trials):
        u = haar_random_unitary(da, stream(t.seed, i))
        big_u = np.kron(u, np.eye(de)) if has_e else u
        rotated = big_u @ m @ dagger(big_u)
        # trace out A1 (the leading tensor factor of A)
        r = rotated.reshape(d1, d2 * de, d1, d2 * de)
        kept = np.einsum("iaib->ab", r)
        vals[i] = _l1(kept, target)
    bound = decoupling_bound(sigma, t.split)
    return DecouplingReport(float(vals.mean()), bound, vals, _stderr(vals))


# ---------------------------------------------------------------------------
# Haar second-moment constants
# ---------------------------------------------------------------------------

def _swap_operator(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def _partial_swap(d1: int, d2: int) -> np.ndarray:
    """I on the A1 copies tensor swap on the A2 copies, over (A, A')."""
    d = d1 * d2
    op = np.zeros((d * d, d * d))
    for a1 in range(d1):
        for a2 in range(d2):
            for b1 in range(d1):
                for b2 in range(d2):
                    row = (a1 * d2 + b2) * d + (b1 * d2 + a2)
                    col = (a1 * d2 + a2) * d + (b1 * d2 + b2)
                    op[row, col] = 1.0
    return op


@dataclass
class MomentReport:
    empirical_mean: np.ndarray
    c_i: float
    c_s: float
    c_sym_fit: float
    c_anti_fit: float
    frobenius_residual: float


def expected_M_check(d1: int, d2: int, trials: int, seed: int) -> MomentReport:
    """Empirical Haar mean of (U x U)† (I_{A1} x SWAP_{A2}) (U x U) against the
    closed-form c_I I + c_S S decomposition, plus the fitted weights on the
    symmetric/antisymmetric subspaces of the doubled system."""
    d = d1 * d2
    if d > 16:
        raise ValueError("dimension guard: |A| <= 16")
    op = _partial_swap(d1, d2)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for i in range(trials):
        u = haar_random_unitary(d, stream(seed, i))
        uu = np.kron(u, u)
        acc += dagger(uu) @ op @ uu
    mean = acc / trials

    c_i = (1 / d2) * (1 - 1 / d1 ** 2) / (1 - 1 / d ** 2)
    c_s = (1 / d1) * (1 - 1 / d2 ** 2) / (1 - 1 / d ** 2)
    s = _swap_operator(d)
    model = c_i * np.eye(d * d) + c_s * s

    p_sym = (np.eye(d * d) + s) / 2
    p_anti = (np.eye(d * d) - s) / 2
    c_sym_fit = float(np.trace(mean @ p_sym).real / np.trace(p_sym).real)
    c_anti_fit = float(np.trace(mean @ p_anti).real / np.trace(p_anti).real)
    residual = float(np.linalg.norm(mean - model))
    return MomentReport(mean, c_i, c_s, c_sym_fit, c_anti_fit, residual)


def moment_constants(d1: int, d2: int) -> tuple[float, float, float, float]:
    """(c_I, c_S, c_sym, c_anti) closed forms for the Haar mean."""
    d = d1 * d2
    c_i = (1 / d2) * (1 - 1 / d1 ** 2) / (1 - 1 / d ** 2)
    c_s = (1 / d1) * (1 - 1 / d2 ** 2) / (1 - 1 / d ** 2)
    c_sym = (d1 + d2) / (d + 1)
    c_anti = (d1 - d2) / (d - 1)
    return c_i, c_s, c_sym, c_anti


def swap_trick_purity(rho: DensityOperator, keep: str) -> float:
    """tr(sigma_keep^2) via the doubled-system swap identity
    tr[(rho x rho)(I x SWAP_keep)]."""
    labels = rho.layout.labels
    if len(labels) != 2:
        raise ValueError("need a two-factor layout")
    other = [lb for lb in labels if lb != keep][0]
    d_keep = rho.layout.dims[rho.layout.index(keep)]
    d_other = rho.layout.dims[rho.layout.index(other)]
    first = labels.index(keep) == 0
    dims = rho.layout.dims
    doubled = np.kron(rho.matrix, rho.matrix)
    d = rho.dim
    # operator acting as swap on the two `keep` copies, identity elsewhere
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
    return float(np.trace(op @ doubled).real)


# ---------------------------------------------------------------------------
# projected decoupling (random channel codes)
# ---------------------------------------------------------------------------

def projected_decoupling_experiment(psi_ra, channel: KrausChannel, d_r2: int,
                                    trials: int, seed: int) -> DecouplingReport:
    """Random-code decoupling: rotate the reference R by Haar V, project R1
    onto |0>, renormalize, and measure how far R2 is from decoupled from E.

    psi_ra is a pure state with layout labels ("R", "A")."""
    check_trials(trials)
    lay = psi_ra.layout
    d_r = lay.dims[lay.index("R")]
    if d_r % d_r2 != 0:
        raise ValueError("d_r2 must divide |R|")
    d_r1 = d_r // d_r2
    v_dil = dilate(channel).isometry
    d_b, d_e = channel.dim_out, channel.env_dim
    if d_r * d_b * d_e > 2 ** 12:
        raise ValueError("dimension guard exceeded")
    # |phi>_{R B E} = (I_R x V) |psi>_{R A}
    amps = psi_ra.amplitudes.reshape(d_r, channel.dim_in)
    phi = (amps @ v_dil.T).reshape(d_r, d_b, d_e)   # indices (r, b, e)
    sigma_re = np.einsum("rbe,sbf->resf", phi, phi.conj()).reshape(d_r * d_e, d_r * d_e)
    sigma_e = np.einsum("rbe,rbf->ef", phi, phi.conj())
    bound = math.sqrt(d_r2 * d_e * purity(sigma_re))
    target = np.kron(np.eye(d_r2) / d_r2, sigma_e)

    vals = np.empty(trials)
    for i in range(trials):
        v = haar_random_unitary(d_r, stream(seed, i))
        rot = np.einsum("sr,rbe->sbe", v, phi)
        proj = rot.reshape(d_r1, d_r2, d_b, d_e)[0]      # R1 -> <0|
        norm2 = np.vdot(proj, proj).real
        if norm2 < 1e-30:
            vals[i] = 0.0
            continue
        proj = proj / math.sqrt(norm2)
        s_r2e = np.einsum("qbe,pbf->qepf", proj, proj.conj()).reshape(
            d_r2 * d_e, d_r2 * d_e)
        vals[i] = _l1(s_r2e, target)
    return DecouplingReport(float(vals.mean()), bound, vals, _stderr(vals))


# ---------------------------------------------------------------------------
# black holes as mirrors
# ---------------------------------------------------------------------------

@dataclass
class MirrorReport:
    fidelity_estimate: float
    target: float
    mean_l1: float
    mc_stderr: float
    emitted_qubits: int

    def meets_target(self, slack_sigmas: float = 4.0) -> bool:
        return self.fidelity_estimate >= self.target - slack_sigmas * self.mc_stderr


def _emitted_count(n: int, k: int, c: int, age: str) -> int:
    if age == "old":
        return k + c
    if age == "young":
        if (n + k) % 2:
            raise ValueError("n + k must be even for the young-age split")
        return (n + k) // 2 + c
    raise ValueError(f"age must be 'old' or 'young', got {age!r}")


def _mirror_l1_old(u: np.ndarray, n: int, k: int, kp: int) -> float:
    """One-trial distance for the old (radiation-entangled) black hole.

    The interior starts maximally entangled with collected radiation and the
    infalling qubits maximally entangled with a reference, so the global pure
    state, viewed as a map from the references to the interior, is just
    U / sqrt(2^n); the retained-system marginal is a Gram matrix of a
    rearrangement of U."""
    d_a, d_rem, d_em = 2 ** k, 2 ** (n - kp), 2 ** kp
    t = u.reshape(d_em, d_rem, d_a, 2 ** (n - k))       # (emitted, kept, a, b)
    w = np.transpose(t, (1, 2, 0, 3)).reshape(d_rem * d_a, d_em * 2 ** (n - k))
    sigma = (w @ w.conj().T) / (2 ** n)
    d = d_rem * d_a
    evals = np.linalg.eigvalsh(sigma)
    return float(np.abs(evals - 1.0 / d).sum())


def _mirror_l1_young(iso: np.ndarray, n: int, k: int, kp: int) -> float:
    """One-trial distance for the young (initially pure) black hole; only the
    action of U on the 2^k-dimensional infalling subspace matters."""
    d_a, d_rem, d_em = 2 ** k, 2 ** (n - kp), 2 ** kp
    t = iso.reshape(d_em, d_rem, d_a) / math.sqrt(d_a)  # (emitted, kept, a)
    m = np.transpose(t, (1, 2, 0)).reshape(d_rem * d_a, d_em)
    sigma = m @ m.conj().T
    d = d_rem * d_a
    evals = np.linalg.eigvalsh(sigma)
    return float(np.abs(evals - 1.0 / d).sum())


def _haar_isometry(d: int, cols: int, rng) -> np.ndarray:
    z = (rng.standard_normal((d, cols)) + 1j * rng.standard_normal((d, cols))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def black_hole_mirror_batch(n: int, k: int, cs: Sequence[int], age: str,
                            trials: int, seed: int) -> list[MirrorReport]:
    """Mirror experiments for several emission margins c, sharing the Haar
    sample of each trial across margins (identical per-c results to separate
    runs with the same seed, at a fraction of the cost)."""
    check_trials(trials)
    if n + k > 15:
        raise ValueError("state-vector guard: n + k <= 15 qubits")
    kps = [_emitted_count(n, k, c, age) for c in cs]
    for kp in kps:
        if kp > n:
            raise ValueError(f"cannot emit {kp} of {n} qubits")
    d = 2 ** n
    per_c = np.empty((len(cs), trials))
    for t in range(trials):
        rng = stream(seed, t)
        if age == "old":
            u = _haar_isometry(d, d, rng)
            for j, kp in enumerate(kps):
                per_c[j, t] = _mirror_l1_old(u, n, k, kp)
        else:
            iso = _haar_isometry(d, 2 ** k, rng)
            for j, kp in enumerate(kps):
                per_c[j, t] = _mirror_l1_young(iso, n, k, kp)
    reports = []
    for j, (c, kp) in enumerate(zip(cs, kps)):
        vals = per_c[j]
        mean = float(vals.mean())
        stderr = _stderr(vals)
        reports.append(MirrorReport(1.0 - mean, 1.0 - 2.0 ** (-c), mean, stderr, kp))
    return reports


def black_hole_mirror(n: int, k: int, c: int, age: str, trials: int,
                      seed: int) -> MirrorReport:
    """Fidelity with which k infalling qubits can be recovered from k' emitted
    qubits of an n-qubit black hole with Haar-random internal dynamics."""
    return black_hole_mirror_batch(n, k, [c], age, trials, seed)[0]


# ---------------------------------------------------------------------------
# random-subsystem entropy
# ---------------------------------------------------------------------------

@dataclass
class SubsystemEntropyReport:
    mean_entropy: float
    bound: float
    mc_stderr: float


def random_subsystem_entropy(d1: int, d2: int, trials: int, seed: int) -> SubsystemEntropyReport:
    """Mean entropy of the smaller share of a Haar-random pure state, against
    the near-maximal lower bound log2 d2 - d2 / (2 d1 ln 2)."""
    check_trials(trials)
    if d1 * d2 > 2 ** 14:
        raise ValueError("dimension guard: |A| <= 2^14")
    lay = SubsystemLayout((d1, d2), ("A1", "A2"))
    vals = np.empty(trials)
    for i in range(trials):
        psi = haar_random_pure(lay, stream(seed, i))
        rho2 = partial_trace_pure(psi, ["A2"]).matrix
        ev = np.clip(np.linalg.eigvalsh(rho2), 0.0, None)
        nz = ev[ev > 1e-14]
        vals[i] = float(-np.sum(nz * np.log2(nz)))
    bound = math.log2(d2) - d2 / (2 * d1 * math.log(2)) if d2 > 1 else 0.0
    return SubsystemEntropyReport(float(vals.mean()), bound, _stderr(vals))


# ---------------------------------------------------------------------------
# corpus generator for randomized inequality checks
# ---------------------------------------------------------------------------

def random_sigma_ae(d_a: int, d_e: int, seed_or_rng, purifier_dims=(1, 2, 4)) -> DensityOperator:
    """sigma_AE drawn by tracing a Haar pure state on A x E x F with a random
    purifier dimension |F|, covering both pure and mixed regimes."""
    from ._rng import as_generator
    rng = as_generator(seed_or_rng)
    d_f = int(rng.choice(purifier_dims))
    lay = SubsystemLayout((d_a, d_e, d_f), ("A", "E", "F"))
    psi = haar_random_pure(lay, rng)
    reduced = partial_trace_pure(psi, ["A", "E"])
    return DensityOperator(reduced.matrix, SubsystemLayout((d_a, d_e), ("A", "E")))
