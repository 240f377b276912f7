"""Generalized measurements: POVMs, the pretty good measurement, accessible
information and its optimization, entropic uncertainty, and the information
gain of a measurement on a Haar-random state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from ._rng import check_trials, stream, trial_chunks
from .entropy import (conditional_mutual_classical, holevo_chi, row_entropies, shannon_entropy,
                      von_neumann_entropy)
from .linalg import DensityOperator, dagger, haar_states

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
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
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
    joint = np.zeros((len(ensemble), len(m)))
    for x, (p, rho) in enumerate(ensemble):
        mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
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


def optimize_accessible_info(ensemble, outcomes: int, restarts: int = 20,
                             seed: int = 23) -> AccessibleInfoResult:
    """Best POVM found by unconstrained ascent; a certified lower bound.

    Each outcome is parameterized as A†A and the set is completed to a POVM
    by symmetric normalization M = (sum A†A)^{-1/2}, which keeps every
    iterate feasible."""
    if outcomes < 2:
        raise ValueError("need at least two outcomes")
    d = (ensemble[0][1].matrix if isinstance(ensemble[0][1], DensityOperator)
         else np.asarray(ensemble[0][1])).shape[0]
    npar = 2 * outcomes * d * d

    def povm_from(x: np.ndarray) -> POVM:
        mats = (x[: npar // 2] + 1j * x[npar // 2:]).reshape(outcomes, d, d)
        raw = [dagger(a) @ a + 1e-12 * np.eye(d) for a in mats]
        total = sum(raw)
        vals, vecs = np.linalg.eigh(total)
        inv_sqrt = (vecs * (1.0 / np.sqrt(np.clip(vals, 1e-14, None)))) @ dagger(vecs)
        els = [inv_sqrt @ r @ inv_sqrt for r in raw]
        # symmetrize away roundoff so the POVM validator is happy
        correction = np.eye(d) - sum(els)
        els[0] = els[0] + correction
        return POVM(tuple((e + dagger(e)) / 2 for e in els))

    def neg(x: np.ndarray) -> float:
        return -accessible_info(ensemble, povm_from(x))

    best_val, best_x = -np.inf, None
    for r in range(restarts):
        rng = stream(seed, r)
        x0 = rng.standard_normal(npar)
        res = minimize(neg, x0, method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-13})
        if -res.fun > best_val:
            best_val, best_x = -res.fun, res.x
    chi = holevo_chi(ensemble)
    return AccessibleInfoResult(best_val, povm_from(best_x), chi - best_val, restarts)


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


def haar_information_gain(d: int, trials: int, seed: int) -> InfoGainReport:
    """Information gained by a fixed basis measurement on a Haar-random pure
    state: exactly ln d - (1/2 + 1/3 + ... + 1/d) nats.

    The estimator uses H(Y) = ln d exactly (unitary symmetry) and Monte
    Carlo only for the conditional term E[-sum_y p_y ln p_y]."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    check_trials(trials)
    exact = math.log(d) - sum(1.0 / k for k in range(2, d + 1))
    cond = np.empty(trials)
    for a, b in trial_chunks(trials, d):
        p = np.abs(haar_states(seed, a, b, d)) ** 2
        cond[a:b] = row_entropies(p, 1e-300, np.log)
    est = math.log(d) - float(cond.mean())
    stderr = float(cond.std(ddof=1) / math.sqrt(trials))
    ln2 = math.log(2)
    return InfoGainReport(exact, exact / ln2, est, est / ln2, stderr, trials)
