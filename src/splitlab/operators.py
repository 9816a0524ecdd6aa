"""Dense linear algebra primitives for small multi-site systems.

Everything works on explicit numpy arrays. A multi-site object carries a
tuple ``dims`` of local dimensions; the total dimension is meant to stay at
desk scale (a few thousand), so routines are direct dense computations.
Every hermiticity check of the package goes through one gate, _hermitian:
it refuses past the caller's tolerance, else returns (M + M^dag)/2, and it
reads every matrix or stack tile by tile, forming no D x D array besides
its result. Every scale max|M| is read in row chunks by _max_abs.
HermOp, DensityOp and Projector are checked once, when they are built,
and are frozen after; the one exception is a model's hamiltonian, which is
hermitian entry by entry by construction and is checked at its terms
(_exact_herm). Every other container rule has one body, for one item or
a stack, that refuses a NaN: _check_unit, _density_rules and
_require_finite, which every checked container passes. Spectral routines
factor such a container as it is and gate a raw array at each call
(_raw_gate, which refuses a NaN too); they factor real-valued input
in real arithmetic, factor a matrix whose nonzero pattern splits into
blocks one block at a time, and fix eigenvector phases so results are
reproducible across BLAS builds.
A local operator is placed into a D x D matrix by one routine, _add_local,
which adds it through a strided view of that matrix and forms no kron
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# Smallest dimension whose nonzero pattern the spectral wrappers scan for
# blocks. The scan and the batched block calls cost 0.2-0.4 ms at any n up
# to 256. On a pattern of 2x2 blocks with one BLAS thread that loses to a
# dense eigh at n = 32 (0.09 ms), is about even with eigvalsh at n = 64,
# and wins from n = 128 on (0.3 ms against 1.05 ms). The verify battery's
# matrices are all of size 64 or less, most of them one component, so
# they go straight to LAPACK.
BLOCK_SCAN_MIN_DIM = 128

# Side of the square tiles in which _hermitian reads a matrix or a stack:
# each tile's transposed partner is read into one buffer (1 MiB per complex
# matrix) that stays in cache, and the gate's only D x D array is its result.
HERM_TILE = 256

# Entries of m that _max_abs reads at once, in whole rows: its |m| temporary
# stays at 512 KiB where np.abs(m) of a D = 4096 matrix is 128 MiB.
MAX_ABS_CHUNK = 1 << 16

# Eigenvalues of rho0 - rho1 above -HELSTROM_ZERO_CUT (times scale) count as
# nonnegative, so the zero eigenspace lands inside the Helstrom projector.
HELSTROM_ZERO_CUT = 1e-12


def _dims_tuple(dims) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise ValueError(f"bad dims {dims!r}")
    return out


def total_dim(dims) -> int:
    return math.prod(int(d) for d in dims)


def mat_of(op) -> np.ndarray:
    """Return the underlying matrix of an operator wrapper or pass arrays through."""
    m = getattr(op, "matrix", op)
    return np.asarray(m, dtype=complex)


def _max_abs(m: np.ndarray) -> float:
    """float(np.max(np.abs(m))), read in chunks of whole rows.

    Each chunk holds about MAX_ABS_CHUNK entries, so no |m| temporary of
    the size of ``m`` is formed. The maximum does not depend on the order
    in which entries are read, and np.max carries a NaN through the chunk
    maxima, so the float is the same, NaN and inf included; an empty ``m``
    raises as np.max does.
    """
    if m.size <= MAX_ABS_CHUNK:
        return float(np.max(np.abs(m)))
    rows = max(1, MAX_ABS_CHUNK // math.prod(m.shape[1:]))
    return float(np.max([np.max(np.abs(m[i:i + rows]))
                         for i in range(0, m.shape[0], rows)]))


def _hermitian(m: np.ndarray, atol, message: str) -> np.ndarray:
    """(M + M^dag)/2 of a square ``m``; ValueError(message) if max|M - M^dag| > atol.

    ``m`` may also be a stack of square matrices along its leading axes;
    then M^dag is taken of each and each defect is held to ``atol``, which
    is one float for the whole stack or an array that broadcasts to the
    stack's shape, one tolerance per matrix. A NaN anywhere in a matrix's
    defect passes it, and an all-zero defect passes whatever ``atol`` is.
    The result is a new C-ordered array of ``m``'s dtype; ``m`` is never
    written.

    ``m`` is read in HERM_TILE x HERM_TILE tiles of its last two axes, one
    tile up to HERM_TILE rows. Each tile's partner conj(m[J, I])^T is read
    once into one reused buffer; the result tile is (m[I, J] + partner) *
    0.5, and the defect is then formed in the buffer. The tiles' maxima
    merge by np.maximum, which carries a NaN.
    """
    n = m.shape[-1]
    tiles = [(slice(i, i + HERM_TILE), slice(0, min(HERM_TILE, n - i)))
             for i in range(0, n, HERM_TILE)]
    out = np.empty(m.shape, m.dtype)
    buf = np.empty(m.shape[:-2] + (min(n, HERM_TILE),) * 2, m.dtype)
    worst = None
    for rows, br in tiles:
        for cols, bc in tiles:
            a, o = m[..., rows, cols], out[..., rows, cols]
            t = np.conjugate(m[..., cols, rows].mT, out=buf[..., br, bc])
            np.add(a, t, out=o)
            o *= 0.5
            np.subtract(a, t, out=t)
            if t.any():
                w = np.max(np.abs(t), axis=(-2, -1))
                worst = w if worst is None else np.maximum(worst, w)
    if worst is not None and (worst > atol).any():
        raise ValueError(message)
    return out


def _require_finite(m: np.ndarray):
    """Refuse ``m``, any shape, unless every entry is finite."""
    if not np.isfinite(m).all():
        raise ValueError("non-finite entries")


def _check_unit(kets: np.ndarray):
    """Refuse unless each ket along the last axis, one or a stack, has unit norm."""
    nrm = np.linalg.norm(kets, axis=-1)
    off = ~(np.abs(nrm - 1.0) <= KET_NORM_ATOL)
    if off.any():
        raise ValueError(f"ket norm {nrm[off][0]} is not 1 within {KET_NORM_ATOL}")


@dataclass(eq=False)
class Ket:
    """Unit vector on a tensor product of sites, held to unit norm by _check_unit."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self.dims = _dims_tuple(self.dims)
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size != total_dim(self.dims):
            raise ValueError(f"length {v.size} does not match dims {self.dims}")
        _check_unit(v)
        self.amplitudes = v

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def _unit_ket(v: np.ndarray, dims: tuple[int, ...]) -> Ket:
    """Ket of a 1-D complex array whose unit norm the caller has checked.

    For no_hiding.no_hiding_witness_batch alone, which holds a whole stack
    of candidates to Ket's norm in one _check_unit call: ``dims`` is a
    checked tuple whose product is len(v), and ``v`` is stored as it is.
    """
    ket = object.__new__(Ket)
    ket.amplitudes = v
    ket.dims = dims
    return ket


def _check_square(m: np.ndarray, dims: tuple[int, ...]):
    d = total_dim(dims)
    if m.shape != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")


@dataclass(frozen=True, eq=False)
class _Checked:
    """A square matrix on the sites ``dims``, checked once, when it is built.

    The matrix must have finite entries (_require_finite) and pass
    _hermitian within HERM_ATOL max(1, max|m|), then the subclass's _check;
    the gate's new array is stored read-only, and the caller's array is
    neither kept nor written. The one exception is _exact_herm, for a
    model's hamiltonian, which is checked at its terms.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    _message = "matrix is not hermitian within tolerance"

    def __post_init__(self):
        dims = _dims_tuple(self.dims)
        m = np.asarray(self.matrix, dtype=complex)
        _check_square(m, dims)
        _require_finite(m)
        m = _hermitian(m, HERM_ATOL * max(1.0, _max_abs(m)), self._message)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)
        self._check(m)
        m.flags.writeable = False

    def _check(self, m: np.ndarray):
        """The subclass's own checks of the gated array ``m``."""

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class HermOp(_Checked):
    """Hermitian operator with explicit site structure."""


def _exact_herm(m: np.ndarray, dims) -> HermOp:
    """HermOp of a complex array that is hermitian entry by entry by construction.

    For models._shifted alone: a sum of terms that each passed _hermitian
    with no tolerance is exactly hermitian, and the gate would return its
    bits, so only dims and shape are checked. ``m`` itself is stored and
    frozen, with no D x D copy.
    """
    dims = _dims_tuple(dims)
    _check_square(m, dims)
    op = object.__new__(HermOp)
    object.__setattr__(op, "matrix", m)
    object.__setattr__(op, "dims", dims)
    m.flags.writeable = False
    return op


def _unit_trace_fault(tr: np.ndarray):
    """DensityOp's trace message for the first trace off 1, or None."""
    off = ~(np.abs(tr - 1.0) <= DENSITY_TRACE_ATOL)
    return f"trace {tr[off][0]} is not 1 within {DENSITY_TRACE_ATOL}" if off.any() else None


def _density_rules(m: np.ndarray, trace_fault):
    """DensityOp's rules on a gated matrix or a stack: finite entries, then the traces.

    ``trace_fault`` maps the traces to the message of the first one out of
    its window, or None; then each lowest eigenvalue must reach
    DENSITY_EIG_FLOOR. A single matrix keeps _herm_eigvalsh's block
    dispatch, a stack is one batched call.
    """
    _require_finite(m)
    fault = trace_fault(np.trace(m, axis1=-2, axis2=-1).real)
    if fault is not None:
        raise ValueError(fault)
    lo = _herm_eigvalsh(m)[..., 0]
    low = ~(lo >= DENSITY_EIG_FLOOR)
    if low.any():
        raise ValueError(f"negative eigenvalue {float(lo[low][0])} below floor {DENSITY_EIG_FLOOR}")


@dataclass(frozen=True, eq=False)
class DensityOp(_Checked):
    """Hermitian, unit-trace, positive-semidefinite (within tolerance) state.

    The rules after the gate are _density_rules, which the dynamics also
    applies to stacks; a NaN state is refused.
    """

    _message = "density matrix is not hermitian within tolerance"

    def _check(self, m):
        _density_rules(m, _unit_trace_fault)


@dataclass(frozen=True, eq=False)
class Projector(_Checked):
    """Orthogonal projector; rank is inferred from the trace when omitted.

    Each test refuses unless within its tolerance, so it would refuse a NaN
    projector as not idempotent; _Checked refuses one first.
    """

    rank: int = -1
    _message = "projector is not hermitian within tolerance"

    def _check(self, m):
        if not _max_abs(m @ m - m) <= PROJECTOR_IDEM_ATOL:
            raise ValueError("matrix is not idempotent within tolerance")
        tr = np.trace(m).real
        r = int(round(tr)) if self.rank < 0 else int(self.rank)
        if not abs(tr - r) <= PROJECTOR_RANK_ATOL:
            raise ValueError(f"trace {tr} is not the integer rank {r}")
        object.__setattr__(self, "rank", r)


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


def _support(support, dims, m) -> list[int]:
    """Validated site list of a local operator ``m`` on ``dims``."""
    support = [int(s) for s in support]
    n = len(dims)
    if len(set(support)) != len(support):
        raise ValueError(f"repeated site in support {support}")
    if support and (min(support) < 0 or max(support) >= n):
        raise ValueError(f"support {support} out of range for {n} sites")
    d_sup = total_dim([dims[s] for s in support]) if support else 1
    if m.shape != (d_sup, d_sup):
        raise ValueError(f"matrix shape {m.shape} does not match support dims")
    return support


def _add_local(h: np.ndarray, m: np.ndarray, support, dims) -> None:
    """h += (m on the ``support`` sites, identity elsewhere), in place.

    ``h`` is a D x D array on the tuple ``dims`` that the caller owns (a
    fresh array or a reused buffer); ``m`` acts on the ``support`` sites in
    the order listed. ``h`` is read as a ``dims + dims`` tensor through one
    strided view: each support site keeps its row and its column axis, and
    each other site's row and column axes become one diagonal axis, whose
    stride is the sum of the two, since the identity there is nonzero only
    where the row and column labels agree. ``m`` is added into that view,
    broadcast over the diagonal axes, so only the D d_sup entries the term
    reaches are written: no kron, no transposed copy, no D x D temporary.
    """
    _check_square(h, dims)
    support = _support(support, dims, m)
    n = len(dims)
    inner = [math.prod(dims[i + 1:]) for i in range(n)]
    row = [h.strides[0] * k for k in inner]
    col = [h.strides[1] * k for k in inner]
    rest = [i for i in range(n) if i not in support]
    sup = tuple(dims[s] for s in support)
    view = np.lib.stride_tricks.as_strided(
        h, shape=sup + sup + tuple(dims[i] for i in rest),
        strides=[row[s] for s in support] + [col[s] for s in support]
        + [row[i] + col[i] for i in rest])
    view += m.reshape(sup + sup + (1,) * len(rest))


def embed(matrix, support, dims) -> np.ndarray:
    """Extend an operator on the listed ``support`` sites by identity elsewhere.

    ``matrix`` acts on the tensor product of ``dims[s]`` for s in ``support``,
    in the order listed (which need not be sorted). The result is the full
    D x D matrix, a zeroed array with the operator placed by _add_local;
    entries the operator does not reach are +0.0. To act on vectors use
    apply_local, which never forms it.
    """
    dims = _dims_tuple(dims)
    d = total_dim(dims)
    out = np.zeros((d, d), dtype=complex)
    _add_local(out, mat_of(matrix), support, dims)
    return out


def apply_local(op, sites, dims, x) -> np.ndarray:
    """(op on ``sites``, identity elsewhere) applied to x of shape (D,) or (D, m).

    Equals embed(op, sites, dims) @ x without forming the D x D matrix: x is
    read as a tensor with one axis per site (and one per column), op
    contracts the support axes in one tensordot, at cost O(D m d_sup).
    """
    m = mat_of(op)
    dims = _dims_tuple(dims)
    sites = _support(sites, dims, m)
    x = np.asarray(x)
    d = total_dim(dims)
    if x.ndim not in (1, 2) or x.shape[0] != d:
        raise ValueError(f"shape {x.shape} is not ({d},) or ({d}, m) for dims {dims}")
    k = len(sites)
    sup = tuple(dims[s] for s in sites)
    t = np.tensordot(m.reshape(sup + sup), x.reshape(dims + x.shape[1:]),
                     axes=(list(range(k, 2 * k)), sites))
    return np.moveaxis(t, list(range(k)), sites).reshape(x.shape)


def reduced_states(vecs, dims, keep) -> np.ndarray:
    """Reduced state on the ``keep`` sites of each vector along the last axis.

    Each vector is read as a d_keep x d_rest matrix M with the kept sites
    first (in ascending order), so its reduced state is M M^dagger; no
    D x D matrix is formed. Leading axes are batch axes. Equals
    partial_trace(outer(v, conj(v)), dims, keep) for each vector v.
    """
    m = _kept_rows(vecs, dims, keep)
    return np.einsum("...ab,...cb->...ac", m, m.conj())


def _kept_rows(vecs, dims, keep) -> np.ndarray:
    """Each vector along the last axis of ``vecs`` as reduced_states reads it.

    That is a d_keep x d_rest matrix M with the kept sites first, in
    ascending order, so that M M^dag is the reduced state on them; leading
    axes are batch axes. ``keep`` must be a set of sites of ``dims``.
    """
    vecs = np.asarray(vecs)
    dims = _dims_tuple(dims)
    keep = sorted(int(k) for k in keep)
    n = len(dims)
    if len(set(keep)) != len(keep) or (keep and (keep[0] < 0 or keep[-1] >= n)):
        raise ValueError(f"keep {keep} is not a set of sites out of {n}")
    batch = vecs.shape[:-1]
    nb = len(batch)
    t = vecs.reshape(batch + dims)
    t = np.moveaxis(t, [nb + i for i in keep], range(nb, nb + len(keep)))
    d_keep = total_dim([dims[i] for i in keep]) if keep else 1
    return t.reshape(batch + (d_keep, total_dim(dims) // d_keep))


def _schatten(matrix, kind):
    """operator_norm (``kind`` 2) or trace_norm ("nuc"), the one body of both."""
    m = mat_of(matrix)
    _require_finite(m)
    out = np.linalg.norm(m, kind, axis=(-2, -1)) if m.size else np.zeros(m.shape[:-2])
    return float(out) if out.ndim == 0 else out


def operator_norm(matrix):
    """Largest singular value of a matrix (a float) or of each matrix of a stack.

    A stack gives an array of its shape, each entry the bits of the call on
    that matrix, zeros when it is empty. Non-finite entries are refused.
    """
    return _schatten(matrix, 2)


def trace_norm(matrix):
    """Sum of singular values of a matrix (a float) or of each matrix of a stack.

    A stack gives an array of its shape, as operator_norm does. Non-finite
    entries are refused. Dual characterization: ||Y||_1 equals the maximum of |Tr(Y U)| over
    unitaries U, attained at the transpose of the polar unitary of Y. The
    test suite checks this on small instances against an optimization oracle.
    """
    return _schatten(matrix, "nuc")


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column in place so its largest-magnitude entry is real positive.

    Works on real or complex columns and returns ``vecs``; on real columns
    the rotation is a sign flip. Zero columns are left as they are. The
    first largest entry wins a tie.
    """
    if vecs.size == 0:
        return vecs
    z = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    a = np.hypot(z.real, z.imag)  # rounds exactly like abs() of a complex
    zero = a == 0
    vecs *= np.where(zero, 1.0, z.conj() / np.where(zero, 1.0, a))
    return vecs


def _lapack_operand(m: np.ndarray) -> np.ndarray:
    """The real part of a complex ``m`` whose imaginary part is exactly zero, else ``m``.

    The one dtype dispatch of the spectral wrappers: a real symmetric matrix
    goes to LAPACK's real driver, which does real arithmetic in half the
    memory. It fires only when the imaginary part is exactly zero, so the
    matrix factored is the input itself.
    """
    return m.real if not m.imag.any() else m


def _raw_gate(m: np.ndarray, scale) -> np.ndarray:
    """The spectral wrappers' gate of a raw ``m``: finite entries, then _hermitian
    of its LAPACK operand within HERM_CHECK_REL times ``scale``, a Frobenius
    norm (1 where it is zero) of ``m`` or of a matrix that holds it, or an
    array of them, one per matrix of a stack."""
    _require_finite(m)
    return _hermitian(_lapack_operand(m), HERM_CHECK_REL * np.where(scale > 0, scale, 1.0),
                      "input is too far from hermitian")


def _pattern_blocks(a: np.ndarray):
    """Connected components of the nonzero pattern of ``a``'s lower triangle.

    The one structural dispatch of the spectral wrappers: returns, for each
    index, the smallest index of its component, or None when the pattern is
    one component or ``a`` is smaller than BLOCK_SCAN_MIN_DIM. The lower
    triangle is the part the LAPACK drivers read; for a hermitian matrix its
    components are those of the full pattern. A boolean ``a`` is read as
    the pattern itself, with no copy. A matrix with more nonzero
    entries than any split pattern holds, (n-1)^2 + 1, leaves after that
    one count. Otherwise the edges are read once, in row chunks of at most
    n^2/64 + n entries, so that no temporary outgrows the n x n boolean
    pattern, and merged chunk by chunk into a union-find forest whose roots
    are the smallest index of their set: the larger root of each edge that
    joins two sets is hooked to the smaller, and pointers jump until each
    index points at its root, until no edge of the chunk joins two sets.
    """
    n = a.shape[0]
    if n < BLOCK_SCAN_MIN_DIM:
        return None
    nz = a if a.dtype == bool else a != 0
    nnz = np.count_nonzero(nz)
    if nnz > (n - 1) ** 2 + 1:
        return None
    bounds = [0, n]
    if 64 * nnz > n * n:
        cum = np.cumsum(np.count_nonzero(nz, axis=1))
        cuts = np.searchsorted(cum, np.arange(1, 64) * (n * n // 64), side="right")
        bounds = sorted({0, n, *cuts.tolist()})   # np.unique would import numpy.ma
    root = np.arange(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        r, c = np.divmod(np.flatnonzero(nz[lo:hi]), n)
        r += lo
        low = c < r
        r, c = r[low], c[low]
        while True:
            rr, rc = root[r], root[c]
            apart = rr != rc
            if not apart.any():
                break
            rr, rc = rr[apart], rc[apart]
            np.minimum.at(root, np.maximum(rr, rc), np.minimum(rr, rc))
            while not np.array_equal(root[root], root):
                root = root[root]
    return root if root.any() else None


def _block_index(lab: np.ndarray) -> list:
    """The blocks of a labelling ``lab`` from _pattern_blocks, one entry per block size.

    Sizes ascend. Each entry is (pos, idx), two (blocks, size) integer
    arrays with one block a row: ``idx`` holds the block's indices,
    ascending, and ``pos`` their slots in the stable order of ``lab``, so
    blocks come in the order of their smallest index.
    """
    order = np.argsort(lab, kind="stable")
    starts = np.flatnonzero(np.diff(lab[order], prepend=-1))
    sizes = np.diff(starts, append=lab.shape[0])
    out = []
    for s in sorted(set(sizes.tolist())):           # np.unique would import numpy.ma
        pos = starts[sizes == s][:, None] + np.arange(s)
        out.append((pos, order[pos]))
    return out


def _block_eigh(a: np.ndarray, lab: np.ndarray, vectors: bool):
    """Spectrum of ``a`` from its principal blocks, ``lab`` from _pattern_blocks.

    A permutation to block-diagonal form is a similarity, so this is exact.
    Blocks of one size are factored in one batched LAPACK call, with indices
    ascending inside each block. Eigenvalues are sorted stably, blocks in
    the order of their smallest index, so ties across blocks follow block
    order. With ``vectors`` it returns (w, columns) as _eigh_columns does:
    columns(k) scatters only the phase-fixed block columns that land among
    the first k into a zeroed complex128 D x k array. Rows ascend inside a
    block, so a block column's first largest entry is also the full
    column's.
    """
    w_all = np.empty(a.shape[0])
    parts = []
    for pos, idx in _block_index(lab):
        s = idx.shape[1]
        sub = a[idx[:, :, None], idx[:, None, :]]
        if vectors:
            w, v = np.linalg.eigh(sub)
            # column k of block b is column b s + k of one s x (m s) matrix
            parts.append((pos, idx, _fix_phases(v.transpose(1, 0, 2).reshape(s, -1))))
        else:
            w = np.linalg.eigvalsh(sub)
        w_all[pos] = w
    if not vectors:
        return w_all[np.argsort(w_all, kind="stable")]
    return _ranked_columns(w_all, parts)


def _ranked_columns(w_all: np.ndarray, parts: list):
    """(w, columns) of eigenpairs given block by block, as _block_eigh returns them.

    ``w_all`` holds each block's eigenvalues at their slots ``pos`` and each
    part is (pos, idx, v) with v the block columns; see _block_eigh. The
    eigenvalues are sorted stably.
    """
    n = w_all.shape[0]
    rank = np.argsort(w_all, kind="stable")
    col = np.empty(n, dtype=np.intp)
    col[rank] = np.arange(n)

    def columns(k: int) -> np.ndarray:
        out = np.zeros((n, k), dtype=complex)
        for pos, idx, v in parts:
            c = col[pos].reshape(-1)                # final column of each block column
            keep = np.flatnonzero(c < k)
            out[idx[keep // idx.shape[1]].T, c[keep]] = v[:, keep]
        return out

    return w_all[rank], columns


def _diag_eigh(diag: np.ndarray):
    """(w, columns) of the real diagonal matrix with diagonal ``diag``.

    Each entry is a 1 x 1 block, factored exactly (eigenvalue the entry,
    column 1), so this is _block_eigh's output with nothing factored and
    no D x D array read: eigenvalues sorted stably, unit columns.
    """
    idx = np.arange(diag.shape[0])[:, None]
    return _ranked_columns(diag, [(idx, idx, np.ones((1, diag.shape[0])))])


def _eigh_columns(matrix):
    """(eigenvalues ascending, columns) of a hermitian matrix, as herm_eig factors it.

    columns(k) is the complex128 D x k array of the first k eigenvectors,
    each exactly column j < k of herm_eig's array. On a split pattern only
    those k columns are scattered from the blocks (see _block_eigh), so a
    caller that keeps a few columns, as ground_subspace does, forms no
    D x D eigenvector array. On the dense route fewer than D columns are a
    copy, which lets the LAPACK array go. A container's array, checked when
    it was built, is factored as it is; a raw array goes through _raw_gate
    within HERM_CHECK_REL times its Frobenius norm.
    """
    if isinstance(matrix, _Checked):
        a = _lapack_operand(matrix.matrix)
    else:
        m = mat_of(matrix)
        a = _raw_gate(m, float(np.linalg.norm(m)))
    lab = _pattern_blocks(a)
    if lab is not None:
        return _block_eigh(a, lab, vectors=True)
    w, v = np.linalg.eigh(a)
    v = _fix_phases(v)
    return w, lambda k: v[:, :k].astype(complex, copy=k < v.shape[1])


def herm_eig(matrix):
    """Eigendecomposition of a hermitian matrix.

    Returns (eigenvalues ascending, complex128 eigenvectors as columns),
    all columns of _eigh_columns. A HermOp, DensityOp or Projector is
    factored with no further check; a raw array goes through _raw_gate,
    with a defect allowed up to HERM_CHECK_REL times the Frobenius norm.
    Column phases follow the largest-entry-real-positive
    convention. Two exact tests of the input pick the LAPACK work. An input
    whose imaginary part is exactly zero is factored as its real part (real
    arithmetic, half the memory). A matrix of at least BLOCK_SCAN_MIN_DIM
    rows whose nonzero pattern splits into several connected components is
    factored block by block (see _block_eigh); on the repetition and
    [[4,2,2]] models that is blocks of size 1 or 2. Both are the same
    matrix, so only rounding and the basis picked inside a degenerate
    eigenspace can differ.
    """
    w, columns = _eigh_columns(matrix)
    return w, columns(len(w))


def _stacked_herm_eig(stacks: list, live: list) -> list:
    """(e, Q) of the ``live`` blocks of several matrices, one stack per block size.

    A stack is (matrices, blocks, b, b), the principal blocks of one size of
    each matrix (as from _block_index), which is zero off its blocks. Every
    block passes _raw_gate within HERM_CHECK_REL times its matrix's
    Frobenius norm, the test herm_eig makes of the full matrix. Only the
    blocks the boolean mask ``live`` marks reach LAPACK, one batched call
    per arithmetic: a matrix whose blocks of that size are exactly real is
    factored in real arithmetic. Returns per stack e (matrices, live, b) and complex Q
    (matrices, live, b, b), each block's the bits of a call on it alone;
    the columns keep LAPACK's phases, which a propagator does not see.
    """
    n = len(stacks[0])
    flat = [s.reshape(n, -1) for s in stacks]
    scale = np.sqrt(sum(np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag) for f in flat))
    out = []
    for s, lv in zip(stacks, live):
        cplx = s.imag.any(axis=(1, 2, 3))
        got = []
        for on in (~cplx, cplx):
            if on.any():
                b = _raw_gate(s if on.all() else s[on], scale[on, None])
                b = b if lv.all() else b[:, lv]
                if b.size:
                    got.append((on, *np.linalg.eigh(b.reshape((-1,) + b.shape[-2:]))))
                del b       # freed before q is allocated
        shape = (n, np.count_nonzero(lv)) + s.shape[-2:]
        e, q = np.empty(shape[:-1]), np.empty(shape, dtype=complex)
        for on, w, v in got:
            e[on], q[on] = w.reshape((-1,) + shape[1:-1]), v.reshape((-1,) + shape[1:])
        out.append((e, q))
    return out


def _herm_eigvalsh(matrix) -> np.ndarray:
    """Eigenvalues ascending of a hermitian matrix, with herm_eig's dispatch.

    Like np.linalg.eigvalsh it reads the lower triangle and does not check
    hermiticity. An input whose imaginary part is exactly zero is factored
    as its real part, and one whose lower triangle's pattern splits into
    blocks is factored block by block; both are exact, since the matrix is
    the same. A stack of matrices along leading axes is factored in one
    batched call, with no pattern scan. Private, so that a traced run
    counts the factorization on the layer that asks for it.
    """
    a = _lapack_operand(mat_of(matrix))
    lab = _pattern_blocks(a) if a.ndim == 2 else None
    if lab is not None:
        return _block_eigh(a, lab, vectors=False)
    return np.linalg.eigvalsh(a)


def herm_propagator(matrix, t: float) -> np.ndarray:
    """exp(-i t H) through the eigendecomposition of H."""
    w, v = herm_eig(matrix)
    phases = np.exp(-1j * float(t) * w)
    return (v * phases) @ v.conj().T


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of the PSD part of each hermitian matrix of a stack."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().mT))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().mT


def fidelity(rho, sigma):
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Computed as the trace norm of sqrt(rho) sqrt(sigma), which is the same
    quantity and keeps the evaluation manifestly symmetric. Two matrices
    give a float; two stacks give an array of the stack shape, each entry
    the bits of the call on that pair.
    """
    a = _psd_sqrt(mat_of(rho))
    b = _psd_sqrt(mat_of(sigma))
    f = np.linalg.norm(a @ b, "nuc", axis=(-2, -1))
    return float(f) if f.ndim == 0 else f


def helstrom(rho0, rho1, dims):
    """Best one-shot distinguishability of two states on the sites ``dims``.

    Returns (D, X_opt) with D = ||rho0 - rho1||_1 / 2 and X_opt the projector
    onto the nonnegative eigenspace of rho0 - rho1 (zero eigenvalues are kept
    inside X_opt, so equal states give the full-space projector).
    """
    m0, m1 = mat_of(rho0), mat_of(rho1)
    if m0.shape != m1.shape:
        raise ValueError("state shapes differ")
    delta = m0 - m1
    w, v = herm_eig(delta)
    dist = 0.5 * float(np.sum(np.abs(w)))
    cut = HELSTROM_ZERO_CUT * max(1.0, _max_abs(w) if w.size else 0.0)
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
