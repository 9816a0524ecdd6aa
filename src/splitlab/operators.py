"""Dense linear algebra primitives for small multi-site systems.

Everything works on explicit numpy arrays. A multi-site object carries a
tuple ``dims`` of local dimensions; the total dimension is meant to stay at
desk scale (a few thousand), so routines are direct dense computations with
no sparsity tricks. Spectral routines symmetrize their input after a
hermiticity pre-check and fix eigenvector phases so results are reproducible
across BLAS builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Construction-time tolerances for the typed containers.
KET_NORM_ATOL = 1e-12
HERM_ATOL = 1e-12
DENSITY_EIG_FLOOR = -1e-10
DENSITY_TRACE_ATOL = 1e-10
PROJECTOR_IDEM_ATOL = 1e-10
PROJECTOR_RANK_ATOL = 1e-8

# Relative hermiticity defect allowed before spectral routines refuse input.
HERM_CHECK_REL = 1e-10

# Eigenvalues of rho0 - rho1 above -HELSTROM_ZERO_CUT (times scale) count as
# nonnegative, so the zero eigenspace lands inside the Helstrom projector.
HELSTROM_ZERO_CUT = 1e-12


def _dims_tuple(dims) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise ValueError(f"bad dims {dims!r}")
    return out


def total_dim(dims) -> int:
    return int(np.prod([int(d) for d in dims], dtype=np.int64))


def mat_of(op) -> np.ndarray:
    """Return the underlying matrix of an operator wrapper or pass arrays through."""
    m = getattr(op, "matrix", op)
    return np.asarray(m, dtype=complex)


def herm_defect(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(eq=False)
class Ket:
    """Unit vector on a tensor product of sites."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self.dims = _dims_tuple(self.dims)
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size != total_dim(self.dims):
            raise ValueError(f"length {v.size} does not match dims {self.dims}")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > KET_NORM_ATOL:
            raise ValueError(f"ket norm {nrm} is not 1 within {KET_NORM_ATOL}")
        self.amplitudes = v

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def _check_square(m: np.ndarray, dims: tuple[int, ...]):
    d = total_dim(dims)
    if m.shape != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")


@dataclass(eq=False)
class HermOp:
    """Hermitian operator with explicit site structure."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self.dims = _dims_tuple(self.dims)
        m = np.asarray(self.matrix, dtype=complex)
        _check_square(m, self.dims)
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
        if herm_defect(m) > HERM_ATOL * scale:
            raise ValueError("matrix is not hermitian within tolerance")
        self.matrix = 0.5 * (m + m.conj().T)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(eq=False)
class DensityOp:
    """Hermitian, unit-trace, positive-semidefinite (within tolerance) state."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self.dims = _dims_tuple(self.dims)
        m = np.asarray(self.matrix, dtype=complex)
        _check_square(m, self.dims)
        if herm_defect(m) > HERM_ATOL * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError("density matrix is not hermitian within tolerance")
        m = 0.5 * (m + m.conj().T)
        tr = np.trace(m).real
        if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
            raise ValueError(f"trace {tr} is not 1 within {DENSITY_TRACE_ATOL}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < DENSITY_EIG_FLOOR:
            raise ValueError(f"negative eigenvalue {lo} below floor {DENSITY_EIG_FLOOR}")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(eq=False)
class Projector:
    """Orthogonal projector; rank is inferred from the trace when omitted."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    rank: int = field(default=-1)

    def __post_init__(self):
        self.dims = _dims_tuple(self.dims)
        m = np.asarray(self.matrix, dtype=complex)
        _check_square(m, self.dims)
        if herm_defect(m) > HERM_ATOL * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError("projector is not hermitian within tolerance")
        m = 0.5 * (m + m.conj().T)
        if np.max(np.abs(m @ m - m)) > PROJECTOR_IDEM_ATOL:
            raise ValueError("matrix is not idempotent within tolerance")
        tr = np.trace(m).real
        r = int(round(tr)) if self.rank < 0 else int(self.rank)
        if abs(tr - r) > PROJECTOR_RANK_ATOL:
            raise ValueError(f"trace {tr} is not the integer rank {r}")
        self.matrix = m
        self.rank = r

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def tensor(factors):
    """Kronecker product of a list of Ket or a list of HermOp, dims concatenated."""
    factors = list(factors)
    if not factors:
        raise ValueError("tensor of an empty list")
    if all(isinstance(f, Ket) for f in factors):
        v = factors[0].amplitudes
        for f in factors[1:]:
            v = np.kron(v, f.amplitudes)
        dims = sum((f.dims for f in factors), ())
        return Ket(v, dims)
    if all(isinstance(f, HermOp) for f in factors):
        m = factors[0].matrix
        for f in factors[1:]:
            m = np.kron(m, f.matrix)
        dims = sum((f.dims for f in factors), ())
        return HermOp(m, dims)
    raise TypeError("tensor needs all Ket or all HermOp factors")


def kron_all(mats) -> np.ndarray:
    """Plain kron fold for raw arrays."""
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def partial_trace(matrix, dims, keep) -> np.ndarray:
    """Trace out every site not in ``keep``.

    ``matrix`` is any square matrix on the product of ``dims`` (not
    necessarily hermitian; off-diagonal blocks like |a><b| are fine). The
    kept sites retain their original order. ``keep=[]`` returns the full
    trace as a 1x1 matrix.
    """
    m = mat_of(matrix)
    dims = _dims_tuple(dims)
    _check_square(m, dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError(f"keep {keep} out of range for {n} sites")
    t = m.reshape(dims + dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out_idx = [i for i in keep] + [n + i for i in keep]
    t = np.einsum(t, row + col, out_idx)
    d_keep = total_dim([dims[i] for i in keep]) if keep else 1
    return t.reshape(d_keep, d_keep)


def embed(matrix, support, dims) -> np.ndarray:
    """Extend an operator on the listed ``support`` sites by identity elsewhere.

    ``matrix`` acts on the tensor product of ``dims[s]`` for s in ``support``,
    in the order listed (which need not be sorted).
    """
    m = mat_of(matrix)
    dims = _dims_tuple(dims)
    support = [int(s) for s in support]
    n = len(dims)
    if len(set(support)) != len(support):
        raise ValueError(f"repeated site in support {support}")
    if support and (min(support) < 0 or max(support) >= n):
        raise ValueError(f"support {support} out of range for {n} sites")
    d_sup = total_dim([dims[s] for s in support]) if support else 1
    if m.shape != (d_sup, d_sup):
        raise ValueError(f"matrix shape {m.shape} does not match support dims")
    rest = [i for i in range(n) if i not in support]
    big = np.kron(m, np.eye(total_dim([dims[i] for i in rest]) if rest else 1))
    order = support + rest
    axis_dims = tuple(dims[i] for i in order)
    t = big.reshape(axis_dims + axis_dims)
    perm = [order.index(i) for i in range(n)]
    t = t.transpose(perm + [n + p for p in perm])
    d = total_dim(dims)
    return np.ascontiguousarray(t.reshape(d, d))


def operator_norm(matrix) -> float:
    """Largest singular value."""
    m = mat_of(matrix)
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def trace_norm(matrix) -> float:
    """Sum of singular values.

    Dual characterization: ||Y||_1 equals the maximum of |Tr(Y U)| over
    unitaries U, attained at the transpose of the polar unitary of Y. The
    test suite checks this on small instances against an optimization oracle.
    """
    m = mat_of(matrix)
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, "nuc"))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Zero columns are left as they are. The first largest entry wins a tie.
    """
    if vecs.size == 0:
        return vecs.copy()
    z = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    a = np.hypot(z.real, z.imag)  # rounds exactly like abs() of a complex
    zero = a == 0
    return vecs * np.where(zero, 1.0, z.conj() / np.where(zero, 1.0, a))


def herm_eig(matrix):
    """Eigendecomposition of a hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns). The input is
    symmetrized as (M + M^dag)/2 after checking the defect stays below
    HERM_CHECK_REL times the Frobenius norm; column phases follow the
    largest-entry-real-positive convention.
    """
    m = mat_of(matrix)
    scale = float(np.linalg.norm(m)) or 1.0
    if herm_defect(m) > HERM_CHECK_REL * scale:
        raise ValueError("input is too far from hermitian")
    m = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(m)
    return w, _fix_phases(v)


def herm_propagator(matrix, t: float) -> np.ndarray:
    """exp(-i t H) through the eigendecomposition of H."""
    w, v = herm_eig(matrix)
    phases = np.exp(-1j * float(t) * w)
    return (v * phases) @ v.conj().T


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Computed as the trace norm of sqrt(rho) sqrt(sigma), which is the same
    quantity and keeps the evaluation manifestly symmetric.
    """
    a = _psd_sqrt(mat_of(rho))
    b = _psd_sqrt(mat_of(sigma))
    return float(np.linalg.norm(a @ b, "nuc"))


def helstrom(rho0, rho1, dims=None):
    """Best one-shot distinguishability of two states.

    Returns (D, X_opt) with D = ||rho0 - rho1||_1 / 2 and X_opt the projector
    onto the nonnegative eigenspace of rho0 - rho1 (zero eigenvalues are kept
    inside X_opt, so equal states give the full-space projector).
    """
    m0, m1 = mat_of(rho0), mat_of(rho1)
    if m0.shape != m1.shape:
        raise ValueError("state shapes differ")
    if dims is None:
        dims = getattr(rho0, "dims", None) or getattr(rho1, "dims", None) or (m0.shape[0],)
    delta = m0 - m1
    w, v = herm_eig(delta)
    dist = 0.5 * float(np.sum(np.abs(w)))
    cut = HELSTROM_ZERO_CUT * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    cols = v[:, w >= -cut]
    x = cols @ cols.conj().T
    return dist, Projector(x, dims)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_herm(dim: int, rng: np.random.Generator, norm: float | None = 1.0) -> np.ndarray:
    """Gaussian hermitian matrix, rescaled to the given operator norm."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (z + z.conj().T)
    if norm is not None:
        s = operator_norm(h)
        if s > 0:
            h *= norm / s
    return h


def random_projector(dim: int, rank: int, rng: np.random.Generator, dims=None) -> Projector:
    """Projector onto the span of the first ``rank`` columns of a Haar unitary."""
    if not 0 < rank <= dim:
        raise ValueError(f"rank {rank} out of range for dim {dim}")
    u = haar_unitary(dim, rng)
    cols = u[:, :rank]
    return Projector(cols @ cols.conj().T, dims if dims is not None else (dim,), rank)
