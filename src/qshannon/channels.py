"""Quantum channels: one Kraus tensor K[k, b, a] per channel, from which the
action, Stinespring dilation, complementary channel, composition, Choi matrix
and superoperator are each one reshape or product; a constructor catalog; and
degrading maps.

Channel equality is always decided on Choi matrices (trace-norm distance),
which is basis independent and insensitive to the isometric freedom on the
environment only where it should be.

A degrading map T (T∘N = N_c) has a closed form for erasure.  Every other
channel goes through one linear solve, S_T = S_c S_N⁺ on superoperators:
when it leaves S_T S_N ≠ S_c, no linear T exists and None is a certificate
that N is not degradable.  When S_N is onto, that T is unique and a None from
its Choi positivity check is a certificate too.  For the remaining channels
the trace-preserving solutions form an affine set of Choi matrices, and one
deterministic log-barrier SDP over it returns either a T (Choi λ_min ≥
-1e-9, clipped) or None with a dual witness that every solution's λ_min is
below -1e-9.  So both answers of `degrading_map` are certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    DensityOperator,
    SubsystemLayout,
    _state_matrix,
    _unchecked,
    dagger,
    trace_distance,
)

COMPLETENESS_TOL = 1e-10
CHOI_EQUALITY_TOL = 1e-8
CHOI_PSD_TOL = 1e-12
# trace distance between Choi(T∘N) and Choi(N_c) up to which T degrades N
DEGRADING_TOL = 1e-6
# the degrading-map barrier accepts Choi(T) at λ_min ≥ -SDP_PSD_TOL, and a
# witness when it bounds every λ_min below -SDP_PSD_TOL
SDP_PSD_TOL = 1e-9
# a centring stops at half the squared Newton decrement below this; 1e-10
# stalls on rounding for some channels
SDP_NEWTON_TOL = 1e-7


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators,
    held as one complex, C-contiguous tensor kraus_ops[k, b, a].

    `kraus_ops` may be given as a sequence of (dim_out, dim_in) matrices or as
    a 3-D array; it is validated once, here.  `kind`/`params` are optional
    catalog metadata used by closed-form degradability results and capacity
    sweeps; they never affect the map.
    """

    kraus_ops: np.ndarray
    dim_in: int
    dim_out: int
    kind: Optional[str] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            ops = np.array(self.kraus_ops, dtype=complex, order="C")
        except ValueError as exc:
            raise ValueError("Kraus operators must all have one shape") from exc
        if ops.ndim != 3 or ops.shape[0] == 0:
            raise ValueError("need a non-empty stack of Kraus operators")
        if ops.shape[1:] != (self.dim_out, self.dim_in):
            raise ValueError(f"Kraus shape {ops.shape[1:]} != ({self.dim_out}, {self.dim_in})")
        v = ops.reshape(-1, self.dim_in)
        if np.max(np.abs(dagger(v) @ v - np.eye(self.dim_in))) > COMPLETENESS_TOL:
            raise ValueError("Kraus operators do not satisfy the completeness relation")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def env_dim(self) -> int:
        return len(self.kraus_ops)


def apply(channel: KrausChannel, rho: DensityOperator | np.ndarray) -> DensityOperator:
    """N(rho) = sum_k K rho K†."""
    m = _state_matrix(rho)
    if m.shape[0] != channel.dim_in:
        raise ValueError(f"input dim {m.shape[0]} != channel dim_in {channel.dim_in}")
    k = channel.kraus_ops
    out = (k @ m @ dagger(k)).sum(axis=0)
    lay = _unchecked(SubsystemLayout, (int(channel.dim_out),), ("B",))
    return _unchecked(DensityOperator, out, lay)


def dilate(channel: KrausChannel) -> np.ndarray:
    """Stinespring isometry V: A -> B otimes E, the (|B||E|, |A|) matrix with
    V[b |E| + k, a] = K_k[b, a], so |E| = #Kraus ops."""
    return channel.kraus_ops.transpose(1, 0, 2).reshape(
        channel.dim_out * channel.env_dim, channel.dim_in)


def dilate_state(channel: KrausChannel, rho: DensityOperator | np.ndarray) -> DensityOperator:
    """Joint output-environment state V rho V† with layout (B, E)."""
    m = _state_matrix(rho)
    if m.shape[0] != channel.dim_in:
        raise ValueError(f"input dim {m.shape[0]} != channel dim_in {channel.dim_in}")
    v = dilate(channel)
    lay = _unchecked(SubsystemLayout, (int(channel.dim_out), channel.env_dim), ("B", "E"))
    return _unchecked(DensityOperator, v @ m @ dagger(v), lay)


def complementary(channel: KrausChannel) -> KrausChannel:
    """Map to the environment: trace out B from the dilation.

    The complement's Kraus operator for output-basis index b of B is
    L_b[k, a] = K_k[b, a]: the tensor with axes k and b swapped."""
    kind = f"{channel.kind}_complement" if channel.kind else None
    return _unchecked(KrausChannel, channel.kraus_ops.transpose(1, 0, 2).copy(), channel.dim_in,
                      channel.env_dim, kind, dict(channel.params))


def _compose_ops(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Kraus tensor of outer after inner: every product A_j K_k, j-major."""
    prods = outer[:, None] @ inner[None, :]
    return prods.reshape(-1, *prods.shape[2:])


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """outer after inner."""
    if inner.dim_out != outer.dim_in:
        raise ValueError("dimension mismatch in composition")
    return _unchecked(KrausChannel, _compose_ops(outer.kraus_ops, inner.kraus_ops),
                      inner.dim_in, outer.dim_out, None, {})


def _choi(ops: np.ndarray) -> np.ndarray:
    """sum_k |w_k><w_k| with w_k[(b, a)] = K_k[b, a] / sqrt(|A|)."""
    w = ops.reshape(len(ops), -1) / np.sqrt(ops.shape[2])
    return (w[:, :, None] * w.conj()[:, None, :]).sum(axis=0)


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """(N otimes id) applied to the maximally entangled state, ordered B otimes A."""
    return _choi(channel.kraus_ops)


def _superoperator(ops: np.ndarray) -> np.ndarray:
    """S with vec(N(rho)) = S vec(rho), for row-major vec:
    S[(b, d), (a, c)] = sum_k K_k[b, a] conj(K_k[d, c])."""
    _, db, da = ops.shape
    return np.einsum("kba,kdc->bdac", ops, ops.conj()).reshape(db * db, da * da)


def channels_equal(a: KrausChannel, b: KrausChannel, tol: float = CHOI_EQUALITY_TOL) -> bool:
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        return False
    return trace_distance(choi_matrix(a), choi_matrix(b)) <= tol


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_prob(p: float):
    if not 0 <= p <= 1:
        raise ValueError(f"probability parameter {p} outside [0, 1]")


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel((np.eye(d, dtype=complex),), d, d, kind="identity")


def depolarizing(p: float) -> KrausChannel:
    """Qubit map (1 - 4p/3)|psi><psi| + (4p/3) I/2 on pure inputs."""
    _check_prob(p)
    ops = [np.sqrt(1 - p) * _PAULI["I"]]
    ops += [np.sqrt(p / 3) * _PAULI[s] for s in "XYZ"]
    return KrausChannel(tuple(ops), 2, 2, kind="depolarizing", params={"p": p})


def amplitude_damping(p: float) -> KrausChannel:
    """Qubit decay |1> -> |0> with probability p."""
    _check_prob(p)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
    return KrausChannel((k0, k1), 2, 2, kind="amplitude_damping", params={"p": p})


def erasure(p: float, d: int = 2) -> KrausChannel:
    """With probability p the input is replaced by the flag state |e>, the last
    basis vector of the enlarged (d+1)-dimensional output space."""
    _check_prob(p)
    if d < 2:
        raise ValueError("input dimension must be >= 2")
    ops = np.zeros((d + 1, d + 1, d), dtype=complex)
    ops[0, :d] = np.sqrt(1 - p) * np.eye(d)          # keep the input
    ops[np.arange(1, d + 1), d, np.arange(d)] = np.sqrt(p)   # |e><i|
    return KrausChannel(ops, d, d + 1, kind="erasure", params={"p": p, "d": d})


def generalized_dephasing(env_overlaps: np.ndarray) -> KrausChannel:
    """Dephasing whose environment records the basis label in states with the
    given Gram matrix of overlaps (PSD, unit diagonal)."""
    g = np.asarray(env_overlaps, dtype=complex)
    d = g.shape[0]
    if g.shape != (d, d) or np.max(np.abs(g - dagger(g))) > 1e-10:
        raise ValueError("overlap matrix must be Hermitian square")
    if np.max(np.abs(np.diag(g) - 1)) > 1e-10:
        raise ValueError("overlap matrix must have unit diagonal")
    vals, vecs = np.linalg.eigh(g)
    if vals.min() < -1e-10:
        raise ValueError("overlap matrix must be positive semidefinite")
    # columns of m are the environment record states: m†m = G
    m = (vecs * np.sqrt(np.clip(vals, 0, None))) @ dagger(vecs)
    return KrausChannel(m[:, None, :] * np.eye(d), d, d, kind="generalized_dephasing")


def completely_dephasing(d: int) -> KrausChannel:
    """Kills all off-diagonal matrix elements in the computational basis."""
    ops = np.eye(d)[:, :, None] * np.eye(d)[:, None, :]     # |i><i|
    return KrausChannel(ops, d, d, kind="completely_dephasing")


def cq_channel(basis: np.ndarray, output_states: Sequence[np.ndarray]) -> KrausChannel:
    """Measure in `basis` (orthonormal columns), then prepare the matching
    output state: the measure-and-prepare, entanglement-breaking form."""
    b = np.asarray(basis, dtype=complex)
    d_in = b.shape[0]
    if b.shape[1] != d_in or np.max(np.abs(dagger(b) @ b - np.eye(d_in))) > 1e-10:
        raise ValueError("basis columns must be orthonormal")
    outs = [_state_matrix(s) for s in output_states]
    if len(outs) != d_in:
        raise ValueError("need one output state per basis vector")
    d_out = outs[0].shape[0]
    ops = []
    for i in range(d_in):
        vals, vecs = np.linalg.eigh(outs[i])
        for j in range(d_out):
            if vals[j] > 1e-14:
                ops.append(np.sqrt(vals[j]) * np.outer(vecs[:, j], b[:, i].conj()))
    return KrausChannel(tuple(ops), d_in, d_out, kind="cq")


def from_classical(w: np.ndarray) -> KrausChannel:
    """Quantum lift of a column-stochastic transition matrix p(y|x): dephase,
    then shuffle basis states with the classical probabilities."""
    w = np.asarray(w, dtype=float)
    dy, dx = w.shape
    if w.min() < 0 or np.max(np.abs(w.sum(axis=0) - 1)) > 1e-12:
        raise ValueError("transition matrix must be column-stochastic")
    ys, xs = np.nonzero(w > 0)
    ops = np.zeros((len(ys), dy, dx), dtype=complex)
    ops[np.arange(len(ys)), ys, xs] = np.sqrt(w[ys, xs])     # sqrt(p(y|x)) |y><x|
    return KrausChannel(ops, dx, dy, kind="classical")


def bsc(p: float) -> np.ndarray:
    """Binary symmetric channel transition matrix (column-stochastic)."""
    _check_prob(p)
    return np.array([[1 - p, p], [p, 1 - p]])


# ---------------------------------------------------------------------------
# degradability
# ---------------------------------------------------------------------------

def _erasure_degrading(p: float, d: int) -> KrausChannel:
    """Closed-form degrading map for erasure(p <= 1/2): a q-erasure from B into
    the complement's index convention (flag at index 0, message shifted up)."""
    q = (1 - 2 * p) / (1 - p)
    ops = np.zeros((d + 2, d + 1, d + 1), dtype=complex)
    ops[0, 1:, :d] = np.sqrt(1 - q) * np.eye(d)               # shift the message up
    ops[np.arange(1, d + 1), 0, np.arange(d)] = np.sqrt(q)    # erase it to |0>
    ops[d + 1, 0, d] = 1                                      # flag -> |0>
    return KrausChannel(ops, d + 1, d + 1, kind="erasure_degrading",
                        params={"q": q, "d": d})


def _hermitian_complement(span: np.ndarray, rank: int, d: int) -> np.ndarray:
    """Hilbert-Schmidt orthonormal basis of the Hermitian d x d matrices
    orthogonal to the column span of `span` (row-major vecs; rank `rank`).

    That complement is closed under †, so the Hermitian and anti-Hermitian
    parts of its complex basis span its Hermitian elements, and the real
    dimension of those equals the complex dimension of the complement.  X ↦ X†
    is not complex-linear, so the basis is taken over the real embedding
    (Re X, Im X), on which Hermitian matrices keep the Hilbert-Schmidt inner
    product."""
    u = np.linalg.svd(span)[0][:, rank:].T.reshape(-1, d, d)
    herm = np.concatenate([u + dagger(u), 1j * (u - dagger(u))])
    flat = np.concatenate([herm.real, herm.imag], axis=1).reshape(len(herm), 2 * d * d)
    v = np.linalg.svd(flat, full_matrices=False)[2][: len(u)]
    return (v[:, : d * d] + 1j * v[:, d * d:]).reshape(-1, d, d)


def _choi_affine_set(s_n: np.ndarray, choi: np.ndarray, rank: int, de: int,
                     db: int) -> tuple[np.ndarray, np.ndarray]:
    """(X0, B): the trace-one Choi matrices of the Hermiticity-preserving,
    trace-preserving T: B -> E with S_T S_N = S_c are X0 + sum_i x_i B_i.

    `choi` is Choi(S_c S_N⁺), which vanishes off the range of S_N (of rank
    `rank`).  T is free on the Hermitian U_j orthogonal to that range up to
    trace preservation, so B_i = G_v ⊗ conj(U_j) over the traceless Hermitian
    G_v on E: orthonormal and traceless.  X0 adds to `choi` the map
    U_j ↦ tr(U_j) I/|E|, which makes it trace preserving; X0 is the
    least-squares point of the constraints, orthogonal to every B_i."""
    u = _hermitian_complement(s_n, rank, db)
    g = _hermitian_complement(np.eye(de).reshape(-1, 1), 1, de)
    basis = np.einsum("vef,jbc->vjebfc", g, u.conj()).reshape(-1, de * db, de * db)
    fill = np.einsum("j,jbc->bc", np.trace(u, axis1=1, axis2=2), u)
    x0 = choi + np.kron(np.eye(de) / de, fill.conj()) / db
    return (x0 + dagger(x0)) / 2, basis


def _barrier(x0: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, bool]:
    """Decide whether some X = X0 + sum_i x_i B_i is PSD (B_i orthonormal and
    traceless, X0 orthogonal to them): maximise t subject to X - tI ⪰ 0.

    Newton's method minimises s*(-t) - log det Z, Z = X - tI, over (x, t):
    damped steps y -= H⁻¹g / (1 + λ) keep Z ≻ 0, and a centring stops at
    λ²/2 < SDP_NEWTON_TOL.  After each centring s grows tenfold, and
    - (X, True) is returned once λ_min(X) ≥ -SDP_PSD_TOL;
    - (W, False) is returned for W = Z⁻¹/tr Z⁻¹ projected onto
      {tr(W B_i) = 0}, once W ⪰ 0 and tr(W X0) < -SDP_PSD_TOL.  Then for
      every x, λ_min(X) ≤ tr(W X) = tr(W X0): no X is PSD.
    Raises RuntimeError when the path ends without either."""
    n, m = len(x0), len(basis)
    directions = np.concatenate([basis, -np.eye(n)[None]])      # d/dx_i, d/dt
    y = np.zeros(m + 1)
    y[m] = np.linalg.eigvalsh(x0)[0] - 1
    s = 1.0
    # s runs from 1 to 1e15; a centring cut at 50 steps still gets both
    # checks, which hold at any point of the path
    for _ in range(16):
        for _ in range(50):
            t = y[m]
            z = x0 + np.tensordot(y, directions, 1)
            lam, q = np.linalg.eigh(z)
            r = q / np.sqrt(lam)
            # tr(Z⁻¹ D_i Z⁻¹ D_j) = tr(M_i M_j) with M_i = Z^{-1/2} D_i Z^{-1/2}
            mi = dagger(r) @ directions @ r
            grad = -np.trace(mi, axis1=1, axis2=2).real
            grad[m] -= s
            flat = mi.view(float).reshape(m + 1, -1)
            step = np.linalg.solve(flat @ flat.T, -grad)
            decrement = -grad @ step
            if decrement / 2 < SDP_NEWTON_TOL:
                break
            y += step / (1 + np.sqrt(decrement))
        if lam[0] + t >= -SDP_PSD_TOL:
            return z + t * np.eye(n), True
        w = (q / lam) @ dagger(q)
        w /= np.trace(w).real
        w -= np.tensordot(np.einsum("kl,ikl->i", w, basis.conj()).real, basis, 1)
        if np.linalg.eigvalsh(w)[0] >= 0 and np.trace(w @ x0).real < -SDP_PSD_TOL:
            return w, False
        s *= 10
    raise RuntimeError("degrading-map barrier ended with neither a map nor a witness")


def _kraus_from_choi(vals: np.ndarray, vecs: np.ndarray, de: int, db: int) -> np.ndarray:
    """Kraus tensor of T: B -> E from the eigenpairs of its trace-one Choi
    matrix, dropping eigenvalues at or below CHOI_PSD_TOL."""
    keep = vals > CHOI_PSD_TOL
    return (vecs[:, keep] * np.sqrt(db * vals[keep])).T.reshape(-1, de, db)


def degrading_map(channel: KrausChannel) -> Optional[KrausChannel]:
    """T with T∘N = N_c, or None; either answer is a certificate.

    Erasure has a closed form (None for p > 1/2).  Every other channel first
    solves S_T = S_c S_N⁺ (Cubitt-Ruskai-Smith, arXiv:0802.1360): if
    S_T S_N ≠ S_c, no linear T exists and None certifies non-degradability.
    If S_N is onto, S_T is the unique solution, and None certifies that its
    Choi matrix has an eigenvalue below -CHOI_PSD_TOL.  Otherwise the Choi
    matrices of the trace-preserving solutions form an affine set, and a
    deterministic log-barrier SDP (`_barrier`) finds one with λ_min ≥
    -SDP_PSD_TOL, or a dual witness that every one has λ_min < -SDP_PSD_TOL,
    for None.  The found Choi matrix is clipped to PSD, and K_j ← K_j M^{-1/2}
    with M = Σ K_j†K_j restores trace preservation."""
    if channel.kind == "erasure":
        p, d = channel.params["p"], channel.params["d"]
        if p <= 0.5:
            return _erasure_degrading(p, d)
        return None
    db, de = channel.dim_out, channel.env_dim
    s_n = _superoperator(channel.kraus_ops)
    s_c = _superoperator(channel.kraus_ops.transpose(1, 0, 2))
    s_t = s_c @ np.linalg.pinv(s_n)
    if np.max(np.abs(s_t @ s_n - s_c)) > COMPLETENESS_TOL:
        return None
    # reshuffle S_T[(e, f), (b, c)] into the trace-one Choi[(e, b), (f, c)]
    choi = s_t.reshape(de, de, db, db).transpose(0, 2, 1, 3).reshape(de * db, de * db) / db
    rank = np.linalg.matrix_rank(s_n)
    if rank < db * db:
        x, degradable = _barrier(*_choi_affine_set(s_n, choi, rank, de, db))
        if not degradable:
            return None
        ops = _kraus_from_choi(*np.linalg.eigh(x), de, db)
        v = ops.reshape(-1, db)
        m_vals, m_vecs = np.linalg.eigh(dagger(v) @ v)
        return KrausChannel(ops @ ((m_vecs / np.sqrt(m_vals)) @ dagger(m_vecs)), db, de)
    vals, vecs = np.linalg.eigh((choi + dagger(choi)) / 2)
    if vals[0] < -CHOI_PSD_TOL:
        return None
    return KrausChannel(_kraus_from_choi(vals, vecs, de, db), db, de)


def is_degradable(channel: KrausChannel) -> bool:
    t = degrading_map(channel)
    if t is None:
        return False
    return trace_distance(choi_matrix(compose(t, channel)),
                          choi_matrix(complementary(channel))) <= DEGRADING_TOL
