"""Single-letter capacity optimizers: the classical capacity of a classical
channel, Holevo chi, one-shot quantum capacity, and entanglement-assisted
capacity.

All values are in bits per channel use.  The classical capacity and the
entanglement-assisted capacity are concave maximizations solved by
deterministic iterations that stop on a certified duality gap, reported in
`gap_estimate`, with `value` the objective at the returned `argmax`: a damped
log-barrier Newton method for the classical capacity (`blahut_arimoto`) and
the quantum Blahut-Arimoto iteration for C_E.  Q1 and chi are not concave in
general: their values are lower bounds (best value over seeded restarts) and
carry no gap.

Q1 and chi run L-BFGS-B on exact gradients through `_ascend`, the one seeded
restart loop, which the accessible-information ascent shares.  Their
objectives hold the Kraus operators as one stacked tensor K[k, b, a]: the Q1
and C_E objectives form V rho V† once and trace it both ways for N(rho) and
N_c(rho), the chi objective sends every ensemble member through the channel
in one einsum, and one eigh per matrix (or per stack) gives both the entropy
and the matrix log2 that the gradient needs.  `converged` on Q1 and chi is
the L-BFGS termination status of the restart whose value is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._rng import stream
from .channels import KrausChannel, depolarizing, erasure
from .entropy import ZERO_EIGENVALUE, row_entropies, shannon_entropy
from .linalg import dagger

LN2 = math.log(2)


def __getattr__(name: str):
    """`minimize` is scipy.optimize.minimize, imported on first access and
    then bound as a module global.  It stays a rebindable module attribute:
    `_ascend` reads it at call time, so a rebound `capacity.minimize` sees
    every restart."""
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class CapacityResult:
    value: float
    argmax: object
    iterations: int
    converged: bool
    gap_estimate: Optional[float] = None
    raw_value: Optional[float] = None


# ---------------------------------------------------------------------------
# classical capacity
# ---------------------------------------------------------------------------

# the classical-capacity barrier multiplies s by CC_CENTRING_FACTOR after each
# centring, which stops at half the squared Newton decrement below CC_NEWTON_TOL
CC_CENTRING_FACTOR = 100.0
CC_NEWTON_TOL = 1e-9


def blahut_arimoto(w: np.ndarray, tol: float = 1e-9, max_iter: int = 1_000) -> CapacityResult:
    """C = max_X I(X;Y) for a column-stochastic transition matrix p(y|x), by a
    damped log-barrier Newton method on the simplex from r = uniform.

    I is concave, and with q = W r and d_x = D(W(.|x) || q) = I's gradient
    plus 1/ln 2, I(r) = r.d <= C <= max_x d_x.  The loop stops once this gap
    is at most tol, or after max_iter Newton steps with `converged` False;
    `value` is I(argmax) and `gap_estimate` the gap.

    Each step minimises -s I(r) - sum_x log r_x subject to sum_x r_x = 1:
    the equality-constrained Newton step from one solve with the Hessian
    H = s W^T diag(1/(q ln 2)) W + diag(1/r^2), damped to 1/(1 + lambda)
    (lambda^2 = step^T H step) and capped at 0.99 of the way to the simplex
    boundary.  A centring ends at lambda^2/2 < CC_NEWTON_TOL, and then s grows
    by CC_CENTRING_FACTOR.  The function keeps the name of the Blahut-Arimoto
    fixed-point iteration it replaced, which the package exports."""
    w = np.asarray(w, dtype=float)
    if w.min() < 0 or np.max(np.abs(w.sum(axis=0) - 1)) > 1e-10:
        raise ValueError("transition matrix must be column-stochastic")
    # outputs no input produces would put log2(0) in d
    w = w[w.any(axis=1)]
    dx = w.shape[1]
    c = np.einsum("yx,yx->x", w, np.log2(w, out=np.zeros_like(w), where=w > 0))
    ones = np.ones(dx)
    r, s = ones / dx, 1.0
    steps = 0
    while True:
        q = w @ r
        d = c - np.log2(q) @ w
        value = float(r @ d)
        gap = float(d.max()) - value
        if gap <= tol or steps == max_iter:
            break
        curv = (w.T / (q * LN2)) @ w                # -Hessian of I
        while True:
            # the gradient's constant 1/ln 2 lies along the constraint
            # normal, so it is left out of the right-hand side
            hess = s * curv + np.diag(r ** -2.0)
            u, v = np.linalg.solve(hess, np.column_stack([s * d + 1 / r, ones])).T
            step = u - v * (u.sum() / v.sum())
            decrement = float(step @ hess @ step)
            if not decrement / 2 < CC_NEWTON_TOL:    # a NaN ends the loop too
                break
            s *= CC_CENTRING_FACTOR
        shrink = step < 0
        boundary = float(np.min(-r[shrink] / step[shrink], initial=np.inf))
        t = min(1 / (1 + math.sqrt(decrement)), 0.99 * boundary)
        r = r + t * step
        steps += 1
    return CapacityResult(value, r, steps, gap <= tol, gap)


# ---------------------------------------------------------------------------
# shared pieces for the quantum optimizers
# ---------------------------------------------------------------------------

LBFGS_OPTIONS = {"maxiter": 10_000, "ftol": 1e-13, "gtol": 1e-9}


def _complex(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of `shape` packed at the front of x as its real
    parts, then its imaginary parts."""
    n = math.prod(shape)
    return (x[:n] + 1j * x[n: 2 * n]).reshape(shape)


def _real(z: np.ndarray) -> np.ndarray:
    """z packed as `_complex` reads it: real parts, then imaginary parts."""
    return np.concatenate([z.real.reshape(-1), z.imag.reshape(-1)])


def _ascend(neg, start, restarts: int, seed: int, options=LBFGS_OPTIONS):
    """Best-of-restarts ascent: L-BFGS-B minimizes neg(x) -> (-objective,
    -gradient) from x = start(stream(seed, r)) for r = 0..restarts-1.
    Returns the best objective value, its x, the iterations of all restarts
    and the L-BFGS termination status of the best restart; a tie goes to the
    earlier restart.  `capacity.minimize` is read here, at call time."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    minimize = globals().get("minimize") or __getattr__("minimize")
    best_val, best_x, iters, converged = -np.inf, None, 0, False
    for r in range(restarts):
        res = minimize(neg, start(stream(seed, r)), jac=True, method="L-BFGS-B",
                       options=options)
        iters += res.nit
        if -res.fun > best_val:
            best_val, best_x, converged = -res.fun, res.x, bool(res.success)
    return best_val, best_x, iters, converged


def _spectral(m: np.ndarray):
    """Entropy in bits and matrix log2 (eigenvalues clamped at 1e-18) of a
    Hermitian matrix, or of each matrix in a stack, both from one eigh."""
    vals, vecs = np.linalg.eigh(m)
    logv = np.log2(np.maximum(vals, 1e-18))      # np.clip's values, at a third of its cost
    return row_entropies(vals, ZERO_EIGENVALUE, np.log2), (vecs * logv[..., None, :]) @ dagger(vecs)


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


def _state_objective(f_and_grad, d: int):
    """neg(x) -> (-f, -gradient) over rho = L L† / tr(L L†), with the d x d
    complex L packed in x (real parts, then imaginary)."""

    def neg(x: np.ndarray):
        ell = _complex(x, (d, d))
        rho = ell @ dagger(ell)
        t = np.trace(rho).real
        rho = rho / t
        val, g = f_and_grad(rho)
        m = g - np.trace(g @ rho).real * np.eye(d)
        gl = (2.0 / t) * (m @ ell)
        return -val, -_real(gl)

    return neg


def one_shot_quantum_capacity(channel: KrausChannel, restarts: int = 10,
                              seed: int = 11) -> CapacityResult:
    """Q1 = max over inputs of the coherent information, clamped at 0 in
    `value` with the raw optimum kept in `raw_value`: a multi-start L-BFGS
    ascent over rho = L L† / tr(L L†), plus the maximally mixed input as a
    candidate.  `converged` is the L-BFGS status of the restart whose value
    is returned, or True when the maximally mixed input wins."""
    d = channel.dim_in
    f_and_grad = _rho_objective_factory(channel, assisted=False)
    best_val, best_x, iters, converged = _ascend(
        _state_objective(f_and_grad, d), lambda rng: rng.standard_normal(2 * d * d),
        restarts, seed)
    ell = _complex(best_x, (d, d))
    best_rho = (ell @ dagger(ell)) / np.trace(ell @ dagger(ell)).real
    # the maximally mixed input is exactly optimal for the covariant catalog
    # families; always include it as a candidate
    mm = np.eye(d) / d
    mm_val, _ = f_and_grad(mm)
    if mm_val > best_val:
        best_val, best_rho, converged = mm_val, mm, True
    return CapacityResult(max(best_val, 0.0), best_rho, iters, converged, raw_value=best_val)


CE_TOL = 1e-10
CE_MAX_ITER = 10_000


def entanglement_assisted_capacity(channel: KrausChannel, restarts: Optional[int] = None,
                                   seed: Optional[int] = None) -> CapacityResult:
    """C_E = max over inputs of I(R;B) = H(rho) + H(N(rho)) - H(N_c(rho)), by
    the quantum Blahut-Arimoto iteration (Ramakrishnan et al.,
    arXiv:1905.01286) from rho = I/d: rho <- 2^(G + log2 rho) / tr, with G
    the gradient.

    f is concave, so f(rho) <= C_E <= f(rho) + lambda_max(G) - tr(rho G).  The
    loop stops when this gap is at most CE_TOL, or after CE_MAX_ITER updates
    with `converged` False; `value` is f(rho) and `gap_estimate` the gap.
    `restarts` and `seed` are ignored: the benchmark's `optimize` workload
    still passes them."""
    f_and_grad = _rho_objective_factory(channel, assisted=True)
    d = channel.dim_in
    # log2 rho comes from each update's eigh, not from the objective's
    # clamped log, so it stays exact where an eigenvalue of rho underflows
    rho, log_rho = np.eye(d) / d, -math.log2(d) * np.eye(d)
    for iters in range(CE_MAX_ITER + 1):
        val, grad = f_and_grad(rho)
        gap = float(np.linalg.eigvalsh(grad)[-1] - np.trace(rho @ grad).real)
        if gap <= CE_TOL or iters == CE_MAX_ITER:
            break
        logs, vecs = np.linalg.eigh(grad + log_rho)
        logs -= logs.max()
        logs -= math.log2(np.exp2(logs).sum())
        rho = (vecs * np.exp2(logs)) @ dagger(vecs)
        log_rho = (vecs * logs) @ dagger(vecs)
    return CapacityResult(val, rho, iters, gap <= CE_TOL, gap)


def _unpack_ensemble(x: np.ndarray, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """m unnormalized complex vectors (real parts, then imaginary) and the
    probabilities from the m logits that follow them."""
    vecs = _complex(x, (m, d))
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
        grad = np.concatenate([_real(gv), p * (gp - float(p @ gp))])
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
    best_val, best_x, iters, converged = _ascend(
        _chi_objective(channel, m),
        lambda rng: np.concatenate([rng.standard_normal(nv), rng.standard_normal(m) * 0.1]),
        restarts, seed)
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
    """One capacity value of a sweep.  `err` is C_E's certified gap, and None
    for C1 and Q1, which carry no bound."""
    family: str
    p: float
    quantity: str
    value: float
    err: Optional[float]
    converged: bool


def capacity_sweep(family: str, grid: Sequence[float],
                   which: Sequence[str] = SWEEP_QUANTITIES,
                   restarts: int = 6, seed: int = 19) -> list[SweepRow]:
    """Capacity quantities over a parameter grid for a catalog family.
    `restarts` and `seed` drive the C1 and Q1 ascents."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; have {sorted(_FAMILIES)}")
    unknown = [q for q in which if q not in SWEEP_QUANTITIES]
    if unknown:
        raise ValueError(f"unknown quantities {unknown}; have {list(SWEEP_QUANTITIES)}")
    make = _FAMILIES[family]
    rows = []
    for p in grid:
        ch = make(p)
        results = {}
        if "C1" in which:
            results["C1"] = holevo_chi_channel(ch, restarts=restarts, seed=seed)
        if "CE" in which:
            results["CE"] = entanglement_assisted_capacity(ch)
        if "Q1" in which:
            results["Q1"] = one_shot_quantum_capacity(ch, restarts=restarts, seed=seed)
        for q in which:
            res = results[q]
            rows.append(SweepRow(family, float(p), q, float(res.value), res.gap_estimate,
                                 res.converged))
    return rows


def sweep_to_csv_rows(rows: list[SweepRow]) -> list[str]:
    out = ["family,p,quantity,value,err,converged"]
    for r in rows:
        err = "" if r.err is None else f"{r.err:.12g}"
        out.append(f"{r.family},{r.p:.12g},{r.quantity},{r.value:.12g},"
                   f"{err},{str(r.converged).lower()}")
    return out
