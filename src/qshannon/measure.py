"""Generalized measurements: POVMs, the pretty good measurement, accessible
information and its optimization, entropic uncertainty, and the information
gain of a measurement on a Haar-random state.

The accessible-information ascent runs L-BFGS-B through `capacity._ascend`,
the seeded restart loop the capacity ascents share, on the exact gradient of
I(X;Y) in the POVM parameters, chained through the symmetric normalization by
the Daleckii-Krein derivative of S^{-1/2}.  The ensemble is checked once
(`entropy._ensemble`), the inner loop works on its stacked (outcomes, d, d)
arrays, and only the resulting `POVM` is validated.
The information gain is a one-chunk kernel run by `_rng.run_trials`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import run_trials, stderr
from .capacity import _ascend, _complex, _real
from .entropy import (_ensemble, _holevo_chi, conditional_mutual_classical, row_entropies,
                      shannon_entropy, von_neumann_entropy)
from .linalg import DensityOperator, _state_matrix, dagger, haar_states

POVM_TOL = 1e-10


@dataclass(frozen=True)
class POVM:
    """Positive operators summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        els = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        object.__setattr__(self, "elements", els)
        if not els:
            raise ValueError("POVM needs at least one element")
        d = els[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in els:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one dimension")
            if np.min(np.linalg.eigvalsh((e + dagger(e)) / 2)) < -1e-10:
                raise ValueError("POVM element is not positive semidefinite")
            total += e
        if np.max(np.abs(total - np.eye(d))) > POVM_TOL:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


def measure(rho: DensityOperator | np.ndarray, m: POVM) -> np.ndarray:
    """Outcome distribution Prob(a) = tr(E_a rho)."""
    mat = _state_matrix(rho)
    if mat.shape[0] != m.dim:
        raise ValueError("dimension mismatch")
    p = np.array([np.trace(e @ mat).real for e in m.elements])
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def pretty_good_measurement(vectors: Sequence[np.ndarray]) -> POVM:
    """PGM of subnormalized signal vectors: E_a = G^{-1/2}|v_a><v_a|G^{-1/2}
    with G the Gram sum, inverted on its support; a projector onto the
    orthogonal complement of the span is appended when the span is proper."""
    vs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    d = vs[0].size
    g = sum(np.outer(v, v.conj()) for v in vs)
    vals, vecs = np.linalg.eigh(g)
    cutoff = 1e-12 * max(vals.max(), 1e-300)
    inv_sqrt_vals = np.where(vals > cutoff, 1.0 / np.sqrt(np.where(vals > cutoff, vals, 1.0)), 0.0)
    if not np.any(vals > cutoff):
        raise ValueError("all signal vectors are zero")
    g_inv_sqrt = (vecs * inv_sqrt_vals) @ dagger(vecs)
    els = [g_inv_sqrt @ np.outer(v, v.conj()) @ g_inv_sqrt for v in vs]
    span_proj = (vecs * (vals > cutoff).astype(float)) @ dagger(vecs)
    complement = np.eye(d) - span_proj
    if np.max(np.abs(complement)) > 1e-12:
        els.append(complement)
    return POVM(tuple(els))


def outcome_joint(ensemble, m: POVM) -> np.ndarray:
    """Joint distribution p(x, y) = p(x) tr(E_y rho_x)."""
    probs, mats = _ensemble(ensemble)
    joint = np.zeros((len(probs), len(m)))
    for x, (p, mat) in enumerate(zip(probs, mats)):
        for y, e in enumerate(m.elements):
            joint[x, y] = p * max(np.trace(e @ mat).real, 0.0)
    return joint / joint.sum()


def accessible_info(ensemble, m: POVM) -> float:
    """I(X;Y) between the preparation label and the measurement outcome."""
    _, i_xy = conditional_mutual_classical(outcome_joint(ensemble, m))
    return i_xy


@dataclass
class AccessibleInfoResult:
    value: float
    povm: POVM
    chi_gap: float
    restarts: int


def _povm_elements(x: np.ndarray, outcomes: int, d: int):
    """E_y = M R_y M with R_y = A_y†A_y + eps I and M = S^{-1/2}, S = sum_y R_y,
    for the complex d x d matrices A_y packed in x as `capacity._complex` reads them.
    Returns the stacked elements and the pieces the gradient reuses."""
    a = _complex(x, (outcomes, d, d))
    raw = dagger(a) @ a + 1e-12 * np.eye(d)
    vals, vecs = np.linalg.eigh(raw.sum(axis=0))
    vals = np.clip(vals, 1e-14, None)
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ dagger(vecs)
    return inv_sqrt @ raw @ inv_sqrt, (a, raw, vals, vecs, inv_sqrt)


def _accessible_info_objective(probs: np.ndarray, rhos: np.ndarray, outcomes: int):
    """neg(x) -> (-I(X;Y), -gradient) for the POVM that `_povm_elements`
    builds from x, with the exact gradient.

    With G_y = sum_x p_x rho_x log2(J_xy / (P_x Q_y)), the derivative of
    I(X;Y) in E_y, the chain through E_y = M R_y M gives
    W_y = M G_y M + D[sum_y (R_y M G_y + G_y M R_y)], where D is the
    derivative of S^{-1/2}: in the eigenbasis of S it multiplies entry ij by
    (l_i^{-1/2} - l_j^{-1/2}) / (l_i - l_j), which is -l_i^{-3/2}/2 on the
    diagonal (Daleckii-Krein).  The gradient in A_y is 2 A_y W_y."""
    weighted = probs[:, None, None] * rhos
    weighted /= np.trace(weighted, axis1=1, axis2=2).real.sum()
    d = rhos.shape[-1]

    def neg(x: np.ndarray):
        els, (a, raw, vals, vecs, inv_sqrt) = _povm_elements(x, outcomes, d)
        joint = np.clip(np.einsum("xab,yba->xy", weighted, els).real, 0.0, None)
        joint /= joint.sum()
        px = joint.sum(axis=1, keepdims=True)
        qy = joint.sum(axis=0, keepdims=True)
        live = joint > 0
        ratio = np.where(live, np.log2(np.where(live, joint, 1.0) / (px * qy)), 0.0)
        value = float(np.sum(joint * ratio))

        g = np.einsum("xab,xy->yab", weighted, ratio)
        mg = inv_sqrt @ g
        b = (raw @ mg).sum(axis=0)
        b = b + dagger(b)
        # (l_i^{-1/2} - l_j^{-1/2}) / (l_i - l_j) without the cancellation
        root = np.sqrt(vals)
        kernel = -1.0 / (root[:, None] * root[None, :] * (root[:, None] + root[None, :]))
        db = vecs @ (kernel * (dagger(vecs) @ b @ vecs)) @ dagger(vecs)
        w = mg @ inv_sqrt + db
        return -value, -_real(2.0 * (a @ w))

    return neg


def optimize_accessible_info(ensemble, outcomes: int, restarts: int = 20,
                             seed: int = 23) -> AccessibleInfoResult:
    """Best POVM found by unconstrained ascent; a certified lower bound.

    Each outcome is parameterized as A†A and the set is completed to a POVM
    by symmetric normalization M = (sum A†A)^{-1/2}, which keeps every
    iterate feasible.  L-BFGS-B gets the exact gradient of I(X;Y) in the
    A's (see `_accessible_info_objective`); only the winning POVM is built
    and validated."""
    if outcomes < 2:
        raise ValueError("need at least two outcomes")
    probs, rhos = _ensemble(ensemble)
    d = rhos.shape[-1]
    npar = 2 * outcomes * d * d
    best_val, best_x, _, _ = _ascend(_accessible_info_objective(probs, rhos, outcomes),
                                     lambda rng: rng.standard_normal(npar), restarts, seed,
                                     {"maxiter": 2000, "ftol": 1e-13})
    els = list(_povm_elements(best_x, outcomes, d)[0])
    # symmetrize away roundoff so the POVM validator is happy
    els[0] = els[0] + (np.eye(d) - sum(els))
    povm = POVM(tuple((e + dagger(e)) / 2 for e in els))
    chi = _holevo_chi(probs, rhos)
    return AccessibleInfoResult(best_val, povm, chi - best_val, restarts)


@dataclass
class UncertaintyReport:
    h_x: float
    h_z: float
    lhs: float
    rhs: float
    overlap_c: float


def entropic_uncertainty(rho: DensityOperator, basis_x: np.ndarray,
                         basis_z: np.ndarray) -> UncertaintyReport:
    """H(X) + H(Z) against log2(1/c) + H(rho), c = max |<x|z>|^2."""
    bx = np.asarray(basis_x, dtype=complex)
    bz = np.asarray(basis_z, dtype=complex)
    d = rho.dim
    for b in (bx, bz):
        if np.max(np.abs(dagger(b) @ b - np.eye(d))) > 1e-10:
            raise ValueError("basis columns must be orthonormal")
    px = np.clip(np.einsum("di,dc,ci->i", bx.conj(), rho.matrix, bx).real, 0, None)
    pz = np.clip(np.einsum("di,dc,ci->i", bz.conj(), rho.matrix, bz).real, 0, None)
    h_x = shannon_entropy(px / px.sum())
    h_z = shannon_entropy(pz / pz.sum())
    c = float(np.max(np.abs(dagger(bx) @ bz) ** 2))
    rhs = math.log2(1.0 / c) + von_neumann_entropy(rho)
    return UncertaintyReport(h_x, h_z, h_x + h_z, rhs, c)


@dataclass
class InfoGainReport:
    exact_nats: float
    exact_bits: float
    estimate_nats: float
    estimate_bits: float
    mc_stderr_nats: float
    trials: int


def _outcome_entropies(d: int, seed: int, a: int, b: int) -> np.ndarray:
    """The run_trials kernel of haar_information_gain, in nats."""
    return row_entropies(np.abs(haar_states(seed, a, b, d)) ** 2, 1e-300, np.log)


def haar_information_gain(d: int, trials: int, seed: int) -> InfoGainReport:
    """Information gained by a fixed basis measurement on a Haar-random pure
    state: exactly ln d - (1/2 + 1/3 + ... + 1/d) nats.

    The estimator uses H(Y) = ln d exactly (unitary symmetry) and Monte
    Carlo only for the conditional term E[-sum_y p_y ln p_y]."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    # run_trials refuses an over-cap d before the exact term's d-step loop
    cond = run_trials(_outcome_entropies, trials, d, d, seed)
    exact = math.log(d) - sum(1.0 / k for k in range(2, d + 1))
    est = math.log(d) - float(cond.mean())
    ln2 = math.log(2)
    return InfoGainReport(exact, exact / ln2, est, est / ln2, stderr(cond), trials)
