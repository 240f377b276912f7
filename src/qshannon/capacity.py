"""Single-letter capacity optimizers: Blahut-Arimoto for classical channels,
Holevo chi, one-shot quantum capacity, and entanglement-assisted capacity.

All values are in bits per channel use.  The ensemble/state optimizers certify
lower bounds (best value over seeded restarts); Blahut-Arimoto and the
entanglement-assisted ascent also report a duality gap.

The quantum optimizers run L-BFGS-B on exact gradients.  Their objectives hold
the Kraus operators as one stacked tensor K[k, b, a]: the Q1 and C_E
objectives form V rho V† once and trace it both ways for N(rho) and N_c(rho),
the chi objective sends every ensemble member through the channel in one
einsum, and one eigh per matrix (or per stack) gives both the entropy and the
matrix log2 that the gradient needs.  `converged` on Q1 and chi is the L-BFGS
termination status of the restart whose value is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._rng import stream
from .channels import KrausChannel, depolarizing, erasure
from .entropy import ZERO_EIGENVALUE, shannon_entropy
from .linalg import dagger

LN2 = math.log(2)


def __getattr__(name: str):
    """`minimize` is scipy.optimize.minimize, imported on first access and
    then bound as a module global.  It stays a rebindable module attribute:
    the L-BFGS call sites read it through `_minimize` at call time, so a
    rebound `capacity.minimize` sees every restart."""
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _minimize():
    """The current `capacity.minimize`, importing SciPy's on first use."""
    return globals().get("minimize") or __getattr__("minimize")


@dataclass
class CapacityResult:
    value: float
    argmax: object
    iterations: int
    converged: bool
    gap_estimate: float = 0.0
    raw_value: Optional[float] = None


# ---------------------------------------------------------------------------
# classical capacity
# ---------------------------------------------------------------------------

def blahut_arimoto(w: np.ndarray, tol: float = 1e-9, max_iter: int = 100_000) -> CapacityResult:
    """max_X I(X;Y) for a column-stochastic transition matrix p(y|x).

    Stops when the standard duality gap (max over inputs of the per-letter
    divergence minus the current mutual information) drops below tol."""
    w = np.asarray(w, dtype=float)
    if w.min() < 0 or np.max(np.abs(w.sum(axis=0) - 1)) > 1e-10:
        raise ValueError("transition matrix must be column-stochastic")
    dy, dx = w.shape
    r = np.full(dx, 1.0 / dx)
    logw = np.where(w > 0, np.log2(np.where(w > 0, w, 1.0)), 0.0)
    lower = -np.inf
    for it in range(1, max_iter + 1):
        q = w @ r
        with np.errstate(divide="ignore"):
            logq = np.where(q > 0, np.log2(np.where(q > 0, q, 1.0)), 0.0)
        # d[x] = D(W(.|x) || q) in bits
        d = np.einsum("yx,yx->x", w, logw - logq[:, None])
        lower = float(np.log2(np.sum(r * np.exp2(d))))
        upper = float(d.max())
        if upper - lower < tol:
            r = r * np.exp2(d - d.max())
            r /= r.sum()
            return CapacityResult(lower, r, it, True, upper - lower)
        r = r * np.exp2(d - d.max())
        r /= r.sum()
    return CapacityResult(lower, r, max_iter, False, upper - lower)


# ---------------------------------------------------------------------------
# shared pieces for the quantum optimizers
# ---------------------------------------------------------------------------

LBFGS_OPTIONS = {"maxiter": 10_000, "ftol": 1e-13, "gtol": 1e-9}


def _spectral(m: np.ndarray):
    """Entropy in bits and matrix log2 (eigenvalues clamped at 1e-18) of a
    Hermitian matrix, or of each matrix in a stack, both from one eigh."""
    vals, vecs = np.linalg.eigh(m)
    logv = np.log2(np.clip(vals, 1e-18, None))
    h = -np.sum(np.where(vals > ZERO_EIGENVALUE, vals * logv, 0.0), axis=-1)
    return h, (vecs * logv[..., None, :]) @ dagger(vecs)


def _rho_objective_factory(channel: KrausChannel, assisted: bool):
    """Objective f(rho) and its Hermitian gradient for the coherent-information
    (assisted=False) or I(R;B) (assisted=True) functional.

    With the Kraus operators stacked as K[k, b, a], the joint output
    V rho V† (V = sum_k |k> ⊗ K_k) is formed once; tracing it over k gives
    N(rho) and over b gives N_c(rho).  The exact gradient of
    H(N(rho)) - H(N_c(rho)) is V†(log2 N_c(rho) ⊗ I - I ⊗ log2 N(rho))V."""
    k = channel.kraus_ops
    ne, nb, _ = k.shape
    v = k.reshape(ne * nb, -1)
    vh = dagger(v)
    eye_b, eye_e = np.eye(nb), np.eye(ne)

    def f_and_grad(rho: np.ndarray) -> tuple[float, np.ndarray]:
        joint = (v @ rho @ vh).reshape(ne, nb, ne, nb)
        h_b, log_b = _spectral(np.einsum("kbkc->bc", joint))
        h_e, log_e = _spectral(np.einsum("kblb->kl", joint))
        val = h_b - h_e
        z = (log_e[:, None, :, None] * eye_b[None, :, None, :]
             - eye_e[:, None, :, None] * log_b[None, :, None, :])
        grad = vh @ z.reshape(ne * nb, ne * nb) @ v
        if assisted:
            h_a, log_a = _spectral(rho)
            val += h_a
            grad += -log_a - np.eye(rho.shape[0]) / LN2
        return float(val), grad

    return f_and_grad


def _unpack_square(x: np.ndarray, d: int) -> np.ndarray:
    return (x[: d * d] + 1j * x[d * d:]).reshape(d, d)


def _state_objective(f_and_grad, d: int):
    """neg(x) -> (-f, -gradient) over rho = L L† / tr(L L†), with the d x d
    complex L packed in x (real parts, then imaginary)."""

    def neg(x: np.ndarray):
        ell = _unpack_square(x, d)
        rho = ell @ dagger(ell)
        t = np.trace(rho).real
        rho = rho / t
        val, g = f_and_grad(rho)
        m = g - np.trace(g @ rho).real * np.eye(d)
        gl = (2.0 / t) * (m @ ell)
        return -val, -np.concatenate([gl.real.reshape(-1), gl.imag.reshape(-1)])

    return neg


def _maximize_over_states(channel: KrausChannel, f_and_grad, restarts: int,
                          seed: int) -> tuple[float, np.ndarray, int, bool]:
    """Maximize a state functional over rho = L L† / tr(L L†), multi-start.

    Returns the best value, its state, the L-BFGS iterations over all
    restarts, and whether the returned value is converged: the L-BFGS status
    of the winning restart, or True for the closed-form candidate."""
    d = channel.dim_in
    neg = _state_objective(f_and_grad, d)
    minimize = _minimize()
    best_val, best_rho, evals, converged = -np.inf, None, 0, False
    for r in range(restarts):
        rng = stream(seed, r)
        x0 = rng.standard_normal(2 * d * d)
        res = minimize(neg, x0, jac=True, method="L-BFGS-B", options=LBFGS_OPTIONS)
        evals += res.nit
        if -res.fun > best_val:
            best_val, converged = -res.fun, bool(res.success)
            ell = _unpack_square(res.x, d)
            best_rho = (ell @ dagger(ell)) / np.trace(ell @ dagger(ell)).real
    # the maximally mixed input is exactly optimal for the covariant catalog
    # families; always include it as a candidate
    mm = np.eye(d) / d
    mm_val, _ = f_and_grad(mm)
    if mm_val > best_val:
        best_val, best_rho, converged = mm_val, mm, True
    return best_val, best_rho, evals, converged


def one_shot_quantum_capacity(channel: KrausChannel, restarts: int = 10,
                              seed: int = 11) -> CapacityResult:
    """Q1 = max over inputs of the coherent information, clamped at 0 in
    `value` with the raw optimum kept in `raw_value`.  `converged` is the
    L-BFGS status of the restart whose value is returned."""
    f = _rho_objective_factory(channel, assisted=False)
    val, rho, iters, converged = _maximize_over_states(channel, f, restarts, seed)
    return CapacityResult(max(val, 0.0), rho, iters, converged, raw_value=val)


def entanglement_assisted_capacity(channel: KrausChannel, restarts: int = 5,
                                   seed: int = 13) -> CapacityResult:
    """C_E = max over inputs of I(R;B) = H(rho) + H(N(rho)) - H(N_c(rho)).

    The objective is concave, so the multi-start ascent converges to the
    global optimum; the gap estimate is the spread across restart optima."""
    f = _rho_objective_factory(channel, assisted=True)
    vals = []
    best_val, best_rho = -np.inf, None
    iters = 0
    for r in range(restarts):
        v, rho, it, _ = _maximize_over_states(channel, f, 1, seed + r)
        vals.append(v)
        iters += it
        if v > best_val:
            best_val, best_rho = v, rho
    gap = float(max(vals) - min(vals)) if vals else 0.0
    return CapacityResult(best_val, best_rho, iters, gap < 1e-6, gap)


def _unpack_ensemble(x: np.ndarray, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """m unnormalized complex vectors (real parts, then imaginary) and the
    probabilities from the m logits that follow them."""
    vecs = (x[: m * d] + 1j * x[m * d: 2 * m * d]).reshape(m, d)
    a = x[2 * m * d:] - x[2 * m * d:].max()
    p = np.exp(a)
    p /= p.sum()
    return vecs, p


def _chi_objective(channel: KrausChannel, m: int):
    """neg(x) -> (-chi, -gradient) for an ensemble of m pure inputs: x packs
    m unnormalized complex vectors (real parts, then imaginary) and m
    probability logits.  All members go through the channel in one einsum,
    and one stacked eigh gives the entropies and log2 of their outputs and of
    the average output."""
    k = channel.kraus_ops
    kc = k.conj()
    d = channel.dim_in

    def neg(x: np.ndarray):
        vecs, p = _unpack_ensemble(x, m, d)
        ts = np.einsum("id,id->i", vecs.conj(), vecs).real
        kv = np.einsum("kba,ia->ikb", k, vecs)              # K_k v_i
        sigmas = np.einsum("ikb,ikc->ibc", kv, kv.conj()) / ts[:, None, None]
        sbar = np.einsum("i,ibc->bc", p, sigmas)
        h, logs = _spectral(np.concatenate([sigmas, sbar[None]]))
        h_members, log_members, log_sbar = h[:m], logs[:m], logs[m]
        chi = h[m] - float(p @ h_members)

        # N†(log2 sigma_i - log2 sbar) v_i, one member at a time in one einsum
        u = np.einsum("kba,ibc,ikc->ia", kc, log_members - log_sbar, kv)
        proj = np.einsum("ia,ia->i", vecs.conj(), u).real / ts
        gv = (2.0 * p / ts)[:, None] * (u - proj[:, None] * vecs)
        gp = -np.einsum("ibc,cb->i", sigmas, log_sbar).real - h_members
        grad = np.concatenate([gv.real.reshape(-1), gv.imag.reshape(-1),
                               p * (gp - float(p @ gp))])
        return -chi, -grad

    return neg


def holevo_chi_channel(channel: KrausChannel, ensemble_size: Optional[int] = None,
                       restarts: int = 10, seed: int = 17) -> CapacityResult:
    """Lower bound on the product-state capacity chi(N): best ensemble of
    pure inputs found by gradient ascent over states and probabilities, with
    the exact gradient (see `_chi_objective`).  `converged` is the L-BFGS
    status of the restart whose value is returned."""
    d = channel.dim_in
    m = ensemble_size if ensemble_size is not None else d * d
    nv = 2 * m * d  # real parameters for m unnormalized complex vectors
    neg = _chi_objective(channel, m)
    minimize = _minimize()

    best_val, best_x, iters, converged = -np.inf, None, 0, False
    for r in range(restarts):
        rng = stream(seed, r)
        x0 = np.concatenate([rng.standard_normal(nv), rng.standard_normal(m) * 0.1])
        res = minimize(neg, x0, jac=True, method="L-BFGS-B", options=LBFGS_OPTIONS)
        iters += res.nit
        if -res.fun > best_val:
            best_val, best_x, converged = -res.fun, res.x, bool(res.success)

    vecs, p = _unpack_ensemble(best_x, m, d)
    ensemble = [(float(pi), np.outer(v, v.conj()) / (v.conj() @ v).real)
                for pi, v in zip(p, vecs)]
    return CapacityResult(best_val, ensemble, iters, converged)


# ---------------------------------------------------------------------------
# closed forms for the catalog families
# ---------------------------------------------------------------------------

def binary_entropy(p: float) -> float:
    return shannon_entropy([p, 1 - p])


def depolarizing_c1(p: float) -> float:
    """Product-state capacity: orthogonal inputs are optimal by symmetry."""
    return 1.0 - binary_entropy(2 * p / 3)


def depolarizing_ce(p: float) -> float:
    """Entanglement-assisted capacity at the (optimal) maximally mixed input."""
    return 2.0 - shannon_entropy([1 - p, p / 3, p / 3, p / 3])


def depolarizing_q1_mm(p: float) -> float:
    """Coherent information of the maximally mixed input (exact by covariance)."""
    return 1.0 - shannon_entropy([1 - p, p / 3, p / 3, p / 3])


def depolarizing_q1_zero(bracket: tuple[float, float] = (0.05, 0.3)) -> float:
    """Smallest p where the maximally-mixed-input coherent information hits 0."""
    from scipy.optimize import brentq

    return float(brentq(depolarizing_q1_mm, *bracket, xtol=1e-12))


def erasure_q1(p: float, d: int = 2) -> float:
    return max((1 - 2 * p) * math.log2(d), 0.0)


_FAMILIES = {
    "depolarizing": lambda p: depolarizing(p),
    "erasure": lambda p: erasure(p, 2),
}


SWEEP_QUANTITIES = ("C1", "CE", "Q1")


@dataclass
class SweepRow:
    family: str
    p: float
    quantity: str
    value: float
    err: float
    converged: bool


def capacity_sweep(family: str, grid: Sequence[float],
                   which: Sequence[str] = SWEEP_QUANTITIES,
                   restarts: int = 6, seed: int = 19) -> list[SweepRow]:
    """Capacity quantities over a parameter grid for a catalog family."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; have {sorted(_FAMILIES)}")
    unknown = [q for q in which if q not in SWEEP_QUANTITIES]
    if unknown:
        raise ValueError(f"unknown quantities {unknown}; have {list(SWEEP_QUANTITIES)}")
    make = _FAMILIES[family]
    rows = []
    for p in grid:
        ch = make(p)
        values = {}
        if "C1" in which:
            res = holevo_chi_channel(ch, restarts=restarts, seed=seed)
            values["C1"] = (res.value, res.converged)
        if "CE" in which:
            res = entanglement_assisted_capacity(ch, restarts=max(restarts // 2, 2), seed=seed)
            values["CE"] = (res.value, res.converged)
        if "Q1" in which:
            res = one_shot_quantum_capacity(ch, restarts=restarts, seed=seed)
            values["Q1"] = (res.value, res.converged)
        for q in which:
            v, conv = values[q]
            rows.append(SweepRow(family, float(p), q, float(v), 0.0, conv))
    return rows


def sweep_to_csv_rows(rows: list[SweepRow]) -> list[str]:
    out = ["family,p,quantity,value,err,converged"]
    for r in rows:
        out.append(f"{r.family},{r.p:.12g},{r.quantity},{r.value:.12g},"
                   f"{r.err:.12g},{str(r.converged).lower()}")
    return out
