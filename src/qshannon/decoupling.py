"""Monte Carlo engine for decoupling experiments: random-subsystem
discarding, the decoupling inequality, the Haar second-moment constants,
projected decoupling for channel codes, and the black-hole-mirror model.

Trial t of every experiment draws from the (seed, t) random stream.  Each
experiment but `expected_M_check` (a running sum over the trials in order)
is a one-chunk kernel run by `_rng.run_trials`, which shards large trials
(the old hole from n = 9 up, |A||E| >= 512) and refuses, before any draw,
those over `_rng.MAX_ENTRIES` complex entries (the old hole from n = 13 up,
|A||E| > 4096); `_rng.check_entries` refuses |A| > 64 in `expected_M_check`
and |R||E| > 4096 before projected decoupling's setup.  A chunk's Haar
isometries or states come from one stacked draw and one stacked QR
(`linalg.haar_isometries`, `linalg.haar_states`), and the contractions,
`eigvalsh` and entropies are stacked over the chunk.  Each trial's value is
bit-identical to drawing it alone from stream(seed, t), whatever the chunk
size, sharded or not.  `decoupling_experiment` applies U to A's indices of
sigma_AE directly instead of multiplying by U x I_E.  The two sum the same
nonzero terms; with OpenBLAS 0.3.31 (Haswell kernels) they agree bit for bit
when there is no E, or when |A| is a multiple of 4 and |A||E| <= 128.
Elsewhere they differ by roundoff, below 1e-14 per trial, because the BLAS
groups the terms of the Kronecker form's longer, zero-padded sums
differently.  L1 distances are computed exactly from eigenvalues of the
Hermitian difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import as_generator, check_entries, check_trials, run_trials, stderr, trial_chunks
from .channels import KrausChannel, dilate
from .entropy import row_entropies
from .linalg import (
    DensityOperator,
    SubsystemLayout,
    dagger,
    haar_isometries,
    haar_states,
    partial_trace,
    random_mixed_state,
)


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

    def satisfied(self, slack_sigmas: float = 4.0) -> bool:
        return self.mean_l1 <= self.bound + slack_sigmas * self.mc_stderr


def _l1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a - b||_1 of each Hermitian matrix a in a stack against b."""
    return np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)


def decoupling_bound(sigma_ae: DensityOperator, split: tuple[int, int]) -> float:
    """sqrt(|A2| |E| / |A1| * tr(sigma_AE^2)); |E| = 1 when there is no E."""
    da = sigma_ae.layout.dims[0]
    d1, d2 = split
    if d1 * d2 != da:
        raise ValueError(f"split {split} does not factor |A| = {da}")
    de = sigma_ae.layout.dims[1] if len(sigma_ae.layout.dims) > 1 else 1
    return math.sqrt(d2 * de / d1 * sigma_ae.purity())


def _decoupling_trials(m: np.ndarray, target: np.ndarray, split: tuple[int, int], de: int,
                       seed: int, a: int, b: int) -> np.ndarray:
    """The run_trials kernel of decoupling_experiment."""
    d1, d2 = split
    da = d1 * d2
    d = da * de
    n = b - a
    u = haar_isometries(seed, a, b, da, da)
    # (U x I_E) m (U x I_E)^dagger without the Kronecker product: U acts on
    # the row index a of m[(a e), (a' f)], then dagger(U) on the column index
    # a'.  Each entry sums the nonzero terms of the Kronecker product in the
    # same order, over da terms rather than da * de; the chunk keeps the
    # (da * de)^2 entries rule, so CHUNK_ENTRIES still bounds the stacked
    # arrays.
    left = (u @ m.reshape(da, de * d)).reshape(n, d, da, de)
    right = left.transpose(0, 1, 3, 2).reshape(n, d * de, da) @ dagger(u)
    rotated = right.reshape(n, d, de, da).transpose(0, 1, 3, 2).reshape(n, d, d)
    # trace out A1 (the leading tensor factor of A)
    kept = np.einsum("niaib->nab", rotated.reshape(n, d1, d2 * de, d1, d2 * de))
    return _l1(kept, target)


def decoupling_experiment(t: DecouplingTrialSet) -> DecouplingReport:
    """Estimate E_U || sigma_{A2 E}(U) - I/|A2| x sigma_E ||_1 for Haar U on A.
    Trials of |A||E| >= 512 are sharded, and of |A||E| > 4096 refused (`_rng.run_trials`)."""
    sigma = t.sigma_ae
    da = sigma.layout.dims[0]
    has_e = len(sigma.layout.dims) > 1
    de = sigma.layout.dims[1] if has_e else 1
    sigma_e = partial_trace(sigma, ["E"]).matrix if has_e else np.ones((1, 1), complex)
    d2 = t.split[1]
    target = np.kron(np.eye(d2) / d2, sigma_e)
    vals = run_trials(_decoupling_trials, t.trials, (da * de) ** 2,
                      sigma.matrix, target, t.split, de, t.seed)
    bound = decoupling_bound(sigma, t.split)
    return DecouplingReport(float(vals.mean()), bound, vals, stderr(vals))


# ---------------------------------------------------------------------------
# Haar second-moment constants
# ---------------------------------------------------------------------------

def _partial_swap(d1: int, d2: int, factor: int = 1) -> np.ndarray:
    """Swap of one tensor factor of A = A1 A2 between the copies (A, A'),
    identity on the other, as the index permutation p of S x = x[p] (S is
    np.eye(d * d)[p]): for factor 1 (A2), |a1 a2, b1 b2> -> |a1 b2, b1 a2>;
    for factor 0 (A1), |a1 a2, b1 b2> -> |b1 a2, a1 b2>.  The full SWAP on two
    copies of a d-dimensional space is _partial_swap(1, d)."""
    d = d1 * d2
    axes = [0, 1, 2, 3]
    axes[factor], axes[factor + 2] = factor + 2, factor
    return np.arange(d * d).reshape(d1, d2, d1, d2).transpose(axes).reshape(d * d)


@dataclass
class MomentReport:
    empirical_mean: np.ndarray
    c_i: float
    c_s: float
    frobenius_residual: float
    residual_mean_square: float     # its exact mean, (|A|^2 - ||M||_F^2) / trials


def expected_M_check(d1: int, d2: int, trials: int, seed: int) -> MomentReport:
    """Empirical Haar mean of (U x U)† (I_{A1} x SWAP_{A2}) (U x U) against the
    closed form M = c_I I + c_S S, at Frobenius distance frobenius_residual.
    Each trial's operator, a unitary conjugate of a permutation, has squared
    Frobenius norm |A|^2, so the residual's exact mean square is
    (|A|^2 - ||M||_F^2) / trials.  One trial is enough (no standard error).
    The loop is not `_rng.run_trials`: the mean is a running sum over the
    trials in order, and that order fixes its bits."""
    d = d1 * d2
    if min(d1, d2) < 1 or d < 2:
        raise ValueError(f"need factors >= 1 and |A| >= 2, got ({d1}, {d2})")
    if trials < 1:
        raise ValueError(f"the Haar mean needs at least 1 trial, got {trials}")
    check_entries(d ** 4)
    p = _partial_swap(d1, d2)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for a, b in trial_chunks(trials, d ** 4):
        u = haar_isometries(seed, a, b, d, d)
        # np.kron(u, u) of each trial, as one stacked product
        uu = (u[:, :, None, :, None] * u[:, None, :, None, :]).reshape(b - a, d * d, d * d)
        # X S is X[:, p], as S is its own inverse; a reduction over the outer
        # axis adds trial by trial, in the order of the one-trial loop
        acc = np.add.reduce(np.concatenate([acc[None], dagger(uu)[:, :, p] @ uu]))
    mean = acc / trials

    c_i, c_s, _, _ = moment_constants(d1, d2)
    model = c_i * np.eye(d * d) + c_s * np.eye(d * d)[_partial_swap(1, d)]
    return MomentReport(mean, c_i, c_s, float(np.linalg.norm(mean - model)),
                        float(d * d - np.linalg.norm(model) ** 2) / trials)


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
    if len(rho.layout.labels) != 2:
        raise ValueError("need a two-factor layout")
    p = _partial_swap(*rho.layout.dims, rho.layout.index(keep))
    return float(np.trace(np.kron(rho.matrix, rho.matrix)[p]).real)


# ---------------------------------------------------------------------------
# projected decoupling (random channel codes)
# ---------------------------------------------------------------------------

def _projected_trials(phi: np.ndarray, target: np.ndarray, d_r2: int, seed: int,
                      a: int, b: int) -> np.ndarray:
    """The run_trials kernel of projected_decoupling_experiment."""
    d_r, d_b, d_e = phi.shape
    v = haar_isometries(seed, a, b, d_r, d_r)
    rot = np.einsum("nsr,rbe->nsbe", v, phi)
    proj = rot.reshape(b - a, d_r // d_r2, d_r2, d_b, d_e)[:, 0]      # R1 -> <0|
    norm2 = np.array([np.vdot(p, p).real for p in proj])
    live = norm2 >= 1e-30
    proj = proj / np.sqrt(np.where(live, norm2, 1.0))[:, None, None, None]
    s_r2e = np.einsum("nqbe,npbf->nqepf", proj, proj.conj()).reshape(b - a, d_r2 * d_e, -1)
    return np.where(live, _l1(s_r2e, target), 0.0)


def projected_decoupling_experiment(psi_ra, channel: KrausChannel, d_r2: int,
                                    trials: int, seed: int) -> DecouplingReport:
    """Random-code decoupling: rotate the reference R by Haar V, project R1
    onto |0>, renormalize, and measure how far R2 is from decoupled from E.

    psi_ra is a pure state with layout labels ("R", "A")."""
    lay = psi_ra.layout
    d_r = lay.dims[lay.index("R")]
    if d_r % d_r2 != 0:
        raise ValueError("d_r2 must divide |R|")
    v_dil = dilate(channel)
    d_b, d_e = channel.dim_out, channel.env_dim
    check_entries(max(d_r * d_b * d_e, (d_r * d_e) ** 2))     # phi and sigma_RE
    # |phi>_{R B E} = (I_R x V) |psi>_{R A}
    amps = psi_ra.amplitudes.reshape(d_r, channel.dim_in)
    phi = (amps @ v_dil.T).reshape(d_r, d_b, d_e)   # indices (r, b, e)
    sigma_re = np.einsum("rbe,sbf->resf", phi, phi.conj()).reshape(d_r * d_e, d_r * d_e)
    sigma_e = np.einsum("rbe,rbf->ef", phi, phi.conj())
    bound = math.sqrt(d_r2 * d_e * np.trace(sigma_re @ sigma_re).real)
    target = np.kron(np.eye(d_r2) / d_r2, sigma_e)

    entries = max(d_r * d_r, d_r * d_b * d_e, (d_r2 * d_e) ** 2)
    vals = run_trials(_projected_trials, trials, entries, phi, target, d_r2, seed)
    return DecouplingReport(float(vals.mean()), bound, vals, stderr(vals))


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
    per_trial: np.ndarray

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


def _mirror_l1(iso: np.ndarray, k: int, kp: int) -> np.ndarray:
    """Per-trial distances over a stack of Haar isometries from the 2^n hole
    qubits: of each old hole's unitary, or of each young hole's action on the
    2^k-dimensional infalling subspace.

    The old interior starts maximally entangled with collected radiation and
    the young one pure; the infalling qubits are maximally entangled with a
    reference.  So the global pure state, as a map from the references into
    the hole, is the isometry over sqrt(cols), and the retained-system
    marginal is the Gram matrix of a rearrangement of it, over cols."""
    rows, cols = iso.shape[1:]
    d_a, d_em = 2 ** k, 2 ** kp
    d_rem, d_b = rows // d_em, cols // d_a
    t = iso.reshape(-1, d_em, d_rem, d_a, d_b)       # (trial, emitted, kept, a, b)
    w = np.transpose(t, (0, 2, 3, 1, 4)).reshape(-1, d_rem * d_a, d_em * d_b)
    evals = np.linalg.eigvalsh((w @ dagger(w)) / cols)
    return np.abs(evals - 1.0 / (d_rem * d_a)).sum(axis=-1)


def _mirror_trials(n: int, k: int, kps: list[int], cols: int, seed: int,
                   a: int, b: int) -> np.ndarray:
    """The run_trials kernel of black_hole_mirror_batch, over isometries of
    2^n rows and 2^cols columns: one row per margin."""
    iso = haar_isometries(seed, a, b, 2 ** n, 2 ** cols)
    return np.array([_mirror_l1(iso, k, kp) for kp in kps]).reshape(len(kps), b - a)


def black_hole_mirror_batch(n: int, k: int, cs: Sequence[int], age: str,
                            trials: int, seed: int) -> list[MirrorReport]:
    """Mirror experiments for several emission margins c, sharing the Haar
    sample of each trial across margins (identical per-c results to separate
    runs with the same seed, at a fraction of the cost).  Old-hole trials are
    sharded from n = 9 up and refused from n = 13 up (`_rng.run_trials`)."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 hole qubits and k >= 0 infalling qubits, got n={n}, k={k}")
    if any(c < 0 for c in cs):
        raise ValueError(f"emission margins c must be >= 0, got {list(cs)}")
    kps = [_emitted_count(n, k, c, age) for c in cs]
    for kp in kps:
        if kp > n:
            raise ValueError(f"cannot emit {kp} of {n} qubits")
    # log2 of a trial's isometry columns and largest array (the draw, or a marginal)
    cols = n if age == "old" else k
    bits = max([n + cols] + [2 * (n - kp + k) for kp in kps])
    check_entries(2 ** min(bits, 64))   # so that an absurd n never forms 2^n
    per_c = run_trials(_mirror_trials, trials, 2 ** bits, n, k, kps, cols, seed)
    reports = []
    for c, kp, vals in zip(cs, kps, per_c):
        mean = float(vals.mean())
        reports.append(MirrorReport(1.0 - mean, 1.0 - 2.0 ** (-c), mean, stderr(vals), kp, vals))
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
    page_mean: float


def page_mean(d1: int, d2: int) -> float:
    """Page's exact mean entanglement entropy, in bits, of a Haar-random pure
    state on d1 x d2 (Page, PRL 71, 1291, 1993): with m = min(d1, d2) and
    n = max(d1, d2), sum_{k=n+1}^{mn} 1/k - (m - 1) / (2n) nats."""
    m, n = min(d1, d2), max(d1, d2)
    if m == 1:
        return 0.0
    nats = sum(1.0 / k for k in range(n + 1, m * n + 1)) - (m - 1) / (2 * n)
    return nats / math.log(2)


def _subsystem_entropies(d1: int, d2: int, seed: int, a: int, b: int) -> np.ndarray:
    """The run_trials kernel of random_subsystem_entropy."""
    amps = haar_states(seed, a, b, d1 * d2)
    # the A2 marginal, formed as partial_trace_pure forms it
    m = amps.reshape(b - a, d1, d2).transpose(0, 2, 1).reshape(b - a, d2, d1)
    ev = np.clip(np.linalg.eigvalsh(m @ dagger(m)), 0.0, None)
    return row_entropies(ev, 1e-14, np.log2)


def random_subsystem_entropy(d1: int, d2: int, trials: int, seed: int) -> SubsystemEntropyReport:
    """Mean entropy of the A2 share of a Haar-random pure state on A1 A2,
    against the near-maximal lower bound log2 d2 - d2 / (2 d1 ln 2) and
    Page's exact mean."""
    vals = run_trials(_subsystem_entropies, trials, d2 * max(d1, d2), d1, d2, seed)
    bound = math.log2(d2) - d2 / (2 * d1 * math.log(2)) if d2 > 1 else 0.0
    return SubsystemEntropyReport(float(vals.mean()), bound, stderr(vals), page_mean(d1, d2))


# ---------------------------------------------------------------------------
# corpus generator for randomized inequality checks
# ---------------------------------------------------------------------------

def random_sigma_ae(d_a: int, d_e: int, seed_or_rng) -> DensityOperator:
    """sigma_AE drawn by tracing a Haar pure state on A x E x F with a random
    purifier dimension |F| in (1, 2, 4), covering both pure and mixed regimes."""
    rng = as_generator(seed_or_rng)
    return random_mixed_state(SubsystemLayout((d_a, d_e), ("A", "E")), rng,
                              env_dim=int(rng.choice((1, 2, 4))))
