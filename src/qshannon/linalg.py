"""Dense complex linear algebra and multipartite state plumbing.

States carry a :class:`SubsystemLayout` naming their tensor factors, so
partial traces, Schmidt cuts and purifications can be requested by label
instead of by index bookkeeping at every call site.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import prod
from typing import Iterable, Sequence

import numpy as np

from ._rng import as_generator, normal_pairs

EIGENVALUE_FLOOR = -1e-10


class LayoutError(ValueError):
    """Unknown label, bad bipartition, or inconsistent dimensions."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def _unchecked(cls, *values):
    """An instance of the frozen dataclass `cls` with its fields set to `values`,
    without `__post_init__`.  Only for results derived from validated states
    and channels, passed in the form `__post_init__` would store."""
    obj = object.__new__(cls)
    for f, v in zip(fields(cls), values, strict=True):
        object.__setattr__(obj, f.name, v)
    return obj


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered tensor factors with unique labels."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.dims) != len(self.labels):
            raise LayoutError("dims and labels must have equal length")
        if any(d < 1 for d in self.dims):
            raise LayoutError("local dimensions must be positive")
        if len(set(self.labels)) != len(self.labels):
            raise LayoutError(f"duplicate labels in {self.labels}")

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LayoutError(f"unknown label {label!r}; have {self.labels}") from None

    def indices(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.index(lb) for lb in labels)

    def restrict(self, labels: Iterable[str]) -> "SubsystemLayout":
        """Sub-layout of `labels`, kept in this layout's order."""
        keep = set(labels)
        unknown = keep - set(self.labels)
        if unknown:
            raise LayoutError(f"unknown labels {sorted(unknown)}")
        pairs = [(d, lb) for d, lb in zip(self.dims, self.labels) if lb in keep]
        return _unchecked(SubsystemLayout, tuple(d for d, _ in pairs), tuple(lb for _, lb in pairs))


def layout(spec: dict[str, int] | Sequence[tuple[str, int]]) -> SubsystemLayout:
    """Build a layout from label -> dimension pairs, e.g. layout({"A": 2, "B": 2})."""
    items = list(spec.items()) if isinstance(spec, dict) else list(spec)
    return SubsystemLayout(tuple(d for _, d in items), tuple(lb for lb, _ in items))


def qubits(labels: str | Sequence[str]) -> SubsystemLayout:
    """Layout of one qubit per label; a plain string is split into characters."""
    lbs = tuple(labels)
    return SubsystemLayout((2,) * len(lbs), lbs)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over a declared layout."""

    amplitudes: np.ndarray
    layout: SubsystemLayout

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.size != self.layout.total_dim:
            raise LayoutError("amplitude count does not match layout dimension")
        # the trace density() gives, tested against the same 1e-8
        norm2 = (amps * amps.conj()).sum().real
        if abs(norm2 - 1.0) > 1e-8:
            raise ValueError(f"state vector is not normalized (squared norm {norm2})")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityOperator":
        amps = self.amplitudes
        return _unchecked(DensityOperator, np.outer(amps, amps.conj()), self.layout)


@dataclass(frozen=True)
class DensityOperator:
    """Positive semidefinite unit-trace matrix over a declared layout."""

    matrix: np.ndarray
    layout: SubsystemLayout

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        d = self.layout.total_dim
        if m.shape != (d, d):
            raise LayoutError(f"matrix shape {m.shape} does not match layout dim {d}")
        if np.max(np.abs(m - dagger(m))) > 1e-9:
            raise ValueError("density operator is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"density operator trace {tr} != 1")

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def eigenvalues(self) -> np.ndarray:
        return eig_hermitian(self.matrix)[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def density_from_matrix(m: np.ndarray, label: str = "A") -> DensityOperator:
    """Wrap a bare matrix as a single-factor density operator."""
    m = np.asarray(m, dtype=complex)
    return DensityOperator(m, SubsystemLayout((m.shape[0],), (label,)))


def _state_matrix(rho: DensityOperator | np.ndarray) -> np.ndarray:
    """The matrix of a density operator, or of a bare array checked as one."""
    return rho.matrix if isinstance(rho, DensityOperator) else density_from_matrix(rho).matrix


def maximally_mixed(lay: SubsystemLayout) -> DensityOperator:
    d = lay.total_dim
    return _unchecked(DensityOperator, (np.eye(d) / d).astype(complex), lay)


def tensor(*parts: PureState | DensityOperator):
    """Tensor states or density operators, concatenating layouts."""
    if not parts:
        raise ValueError("need at least one factor")
    dims: list[int] = []
    labels: list[str] = []
    for p in parts:
        dims.extend(p.layout.dims)
        labels.extend(p.layout.labels)
    lay = SubsystemLayout(tuple(dims), tuple(labels))
    if all(isinstance(p, PureState) for p in parts):
        amps = parts[0].amplitudes
        for p in parts[1:]:
            amps = np.kron(amps, p.amplitudes)
        return _unchecked(PureState, amps, lay)
    mats = [p.density().matrix if isinstance(p, PureState) else p.matrix for p in parts]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return _unchecked(DensityOperator, out, lay)


def _partial_trace(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every factor not in `keep` (indices into dims)."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    t = mat.reshape(tuple(dims) + tuple(dims))
    for idx in sorted(traced, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + t.ndim // 2)
    d_keep = prod(dims[i] for i in keep) if keep else 1
    return t.reshape(d_keep, d_keep)


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Reduced state on the factors in `keep` (original order preserved)."""
    keep = list(keep)
    if not keep:
        raise LayoutError("keep must be non-empty")
    idx = rho.layout.indices(keep)
    reduced = _partial_trace(rho.matrix, rho.layout.dims, idx)
    return _unchecked(DensityOperator, reduced, rho.layout.restrict(keep))


def partial_trace_pure(psi: PureState, keep: Iterable[str]) -> DensityOperator:
    """Reduced density operator of a pure state, via the cheaper outer-product route."""
    keep = list(keep)
    idx = sorted(psi.layout.indices(keep))
    dims = psi.layout.dims
    n = len(dims)
    other = [i for i in range(n) if i not in idx]
    t = psi.amplitudes.reshape(dims)
    t = np.transpose(t, idx + other)
    d_keep = prod(dims[i] for i in idx)
    m = t.reshape(d_keep, -1)
    return _unchecked(DensityOperator, m @ dagger(m), psi.layout.restrict(keep))


def eig_hermitian(m: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian")
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    return vals[order].real, vecs[:, order]


def clean_spectrum(vals: np.ndarray, floor: float = EIGENVALUE_FLOOR) -> np.ndarray:
    """Clip numerical-noise negatives to zero and renormalize to unit sum."""
    vals = np.asarray(vals, dtype=float)
    if vals.min(initial=0.0) < floor:
        raise ValueError(f"significantly negative eigenvalue {vals.min()}")
    clipped = np.clip(vals, 0.0, None)
    s = clipped.sum()
    return clipped / s if s > 0 else clipped


@dataclass(frozen=True)
class SchmidtDecomposition:
    coefficients: np.ndarray          # descending, squares sum to 1
    left_basis: np.ndarray            # columns, in the cut's left space
    right_basis: np.ndarray           # columns, in the cut's right space
    cut: tuple[tuple[str, ...], tuple[str, ...]]

    @property
    def rank(self) -> int:
        return int(np.sum(self.coefficients > 1e-12))


def schmidt_decomposition(psi: PureState, left: Iterable[str]) -> SchmidtDecomposition:
    """Schmidt form across the bipartition (left labels, remaining labels)."""
    left = list(left)
    lay = psi.layout
    left_idx = lay.indices(left)
    right_lbs = [lb for lb in lay.labels if lb not in set(left)]
    if not left or not right_lbs:
        raise LayoutError("bipartition must split the factors into two non-empty parts")
    right_idx = lay.indices(right_lbs)
    t = psi.amplitudes.reshape(lay.dims)
    t = np.transpose(t, tuple(left_idx) + tuple(right_idx))
    dl = prod(lay.dims[i] for i in left_idx)
    m = t.reshape(dl, -1)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    # right kets are the rows of vh (not conjugated): psi = sum_i s_i u_i x v_i
    return SchmidtDecomposition(s, u, vh.T, (tuple(left), tuple(right_lbs)))


_REF_LABEL = "ref"


def purify(rho: DensityOperator, ref_label: str = _REF_LABEL) -> PureState:
    """A purification whose reference factor has dimension rank(rho)."""
    vals, vecs = eig_hermitian(rho.matrix)
    vals = clean_spectrum(vals)
    support = vals > 1e-12
    rank = max(int(support.sum()), 1)
    lam = vals[:rank]
    v = vecs[:, :rank]
    # |psi> = sum_i sqrt(lam_i) |v_i>|i>_ref
    amps = (v * np.sqrt(lam)).reshape(-1)  # index (a, i) row-major
    lbl = ref_label
    while lbl in rho.layout.labels:
        lbl += "'"
    lay = _unchecked(SubsystemLayout, rho.layout.dims + (rank,), rho.layout.labels + (lbl,))
    return _unchecked(PureState, amps / np.linalg.norm(amps), lay)


def _phase_fixed_qr(z: np.ndarray) -> np.ndarray:
    """Q of z = QR, column phases fixed so that R has a positive diagonal, for
    one matrix or a stack.  For Ginibre z this Q is Haar-distributed; naive
    QR is not (Mezzadri, math-ph/0609050)."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry (rows x cols, cols <= rows) from a Ginibre draw."""
    z = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)
    return _phase_fixed_qr(z)


def haar_isometries(seed: int, start: int, stop: int, rows: int, cols: int) -> np.ndarray:
    """Stack of the isometries haar_isometry(rows, cols, stream(seed, t)) draws
    for t in [start, stop), bit for bit."""
    re, im = normal_pairs(seed, start, stop, (rows, cols))
    # the same operations as haar_isometry, in place, with the real draws
    # released before the QR so a large trial needs no more memory than one
    z = 1j * im
    del im
    z += re
    del re
    z /= np.sqrt(2)
    return _phase_fixed_qr(z)


def haar_random_unitary(d: int, seed_or_rng) -> np.ndarray:
    """Haar-distributed d x d unitary."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return haar_isometry(d, d, as_generator(seed_or_rng))


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of a stack of complex vectors divided by its 2-norm.

    The norm is the sum np.linalg.norm takes, sqrt(re.re + im.im), and a
    stack of vector-vector matmuls makes the same strided BLAS dot calls, so
    every row equals v / np.linalg.norm(v) bit for bit.  A sum over the last
    axis (np.linalg.norm(v, axis=-1)) adds in another order."""
    vr, vi = v.real, v.imag
    sq = vr[:, None, :] @ vr[:, :, None] + vi[:, None, :] @ vi[:, :, None]
    return v / np.sqrt(sq[:, 0])


def haar_random_pure(lay: SubsystemLayout, seed_or_rng) -> PureState:
    """Haar-random state vector (normalized complex Gaussian)."""
    rng = as_generator(seed_or_rng)
    d = lay.total_dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return _unchecked(PureState, _unit_rows(v[None])[0], lay)


def haar_states(seed: int, start: int, stop: int, d: int) -> np.ndarray:
    """Rows of the amplitudes haar_random_pure draws from stream(seed, t) for
    t in [start, stop), bit for bit: the same draws, normalised by the same
    row-norm helper."""
    re, im = normal_pairs(seed, start, stop, (d,))
    return _unit_rows(re + 1j * im)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    m = np.asarray(m, dtype=complex)
    if is_hermitian(m, 1e-10):
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def trace_distance(a, b) -> float:
    """L1 distance ||a - b||_1 between states or bare matrices."""
    ma = a.matrix if isinstance(a, DensityOperator) else np.asarray(a, dtype=complex)
    mb = b.matrix if isinstance(b, DensityOperator) else np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch {ma.shape} vs {mb.shape}")
    return trace_norm(ma - mb)


def fidelity_pure(psi: PureState | np.ndarray, rho: DensityOperator | np.ndarray) -> float:
    """<psi| rho |psi>, clipped into [0, 1]."""
    v = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, dtype=complex).reshape(-1)
    m = _state_matrix(rho)
    if m.shape[0] != v.size:
        raise ValueError(f"dimension mismatch {v.size} vs {m.shape}")
    return float(np.clip((v.conj() @ m @ v).real, 0.0, 1.0))


def random_mixed_state(lay: SubsystemLayout, seed_or_rng, env_dim: int | None = None) -> DensityOperator:
    """Mixed state obtained by partial-tracing a Haar pure state on a doubled space."""
    rng = as_generator(seed_or_rng)
    d = lay.total_dim
    de = env_dim if env_dim is not None else d
    # the arithmetic of partial_trace_pure(psi, ["sys"])
    m = haar_random_pure(SubsystemLayout((d, de), ("sys", "env")), rng).amplitudes.reshape(d, de)
    return _unchecked(DensityOperator, m @ dagger(m), lay)
