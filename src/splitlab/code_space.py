"""Ground subspaces of gapped hamiltonians, treated as codes.

A CodeSubspace is an orthonormal D x k ground basis B with the spectral gap
above it and the ground energy; everything else about the code (its
degeneracy k, its projector B B^dag) is derived from B on demand.
Extraction refuses to guess when the low end of the spectrum has no clean
degenerate-plus-gap structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    HermOp,
    Projector,
    _diag_eigh,
    _eigh_columns,
    _hermitian,
    _max_abs,
    _require_finite,
    apply_local,
    mat_of,
    total_dim,
)

# Eigenvalues within DEGENERACY_TOL times the spectral spread of the minimum
# count as ground; the next level must clear the cluster by SEPARATION_FACTOR
# times that resolution or extraction refuses.
DEGENERACY_TOL = 1e-8
SEPARATION_FACTOR = 10.0


@dataclass(eq=False)
class CodeSubspace:
    """Orthonormal D x k basis of a ground (or declared) subspace with its gap."""

    basis: np.ndarray
    gap: float
    ground_energy: float
    dims: tuple[int, ...]

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        d = total_dim(self.dims)
        if b.ndim != 2 or b.shape[0] != d or b.shape[1] == 0:
            raise ValueError(f"basis shape {b.shape} is not ({d}, k) with k >= 1")
        gram = b.conj().T @ b
        if _max_abs(gram - np.eye(b.shape[1])) > 1e-10:
            raise ValueError("basis columns are not orthonormal")
        if not self.gap > 0:
            raise ValueError(f"gap must be positive, got {self.gap}")
        self.basis = b

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def degeneracy(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> Projector:
        """B B^dag as a Projector, built (a D^3 check included) on each access."""
        return Projector(self.basis @ self.basis.conj().T, self.dims, self.degeneracy)


def ground_subspace(h) -> CodeSubspace:
    """Extract the degenerate ground subspace of a gapped hamiltonian.

    ``h`` is a HermOp, a model with a ``hamiltonian()`` method, or a plain
    matrix (single-site dims assumed). Eigenvalues within
    ``DEGENERACY_TOL * spread`` of the minimum form the ground cluster; the
    next eigenvalue must clear the minimum by SEPARATION_FACTOR times that
    resolution, otherwise the spectrum is flagged as ill-separated instead
    of silently picking a cutoff. Only the k ground columns of the
    eigenbasis are formed, each the same as herm_eig's: on a split pattern
    they are the only ones scattered from the blocks (operators._block_eigh).
    A HermOp, a model's included, was checked when built and is factored
    as it is; a plain matrix goes through herm_eig's gate. A model
    assembles its hamiltonian for this call alone, so a caller that needs
    H again passes the HermOp it holds instead of the model. A model with
    a ``diagonal`` gives its code with no factorization and no D x D array
    (operators._diag_eigh).
    """
    if hasattr(h, "hamiltonian"):
        dims = h.system.dims
        w, columns = (_eigh_columns(h.hamiltonian()) if h.diagonal is None
                      else _diag_eigh(h.diagonal))
    else:
        dims = getattr(h, "dims", None)
        w, columns = _eigh_columns(h)
    spread = float(w[-1] - w[0])
    if spread <= 0:
        raise ValueError(
            "hamiltonian is proportional to the identity, so it has no gap; "
            "use full_space_code for the unprotected case"
        )
    resolution = DEGENERACY_TOL * spread
    d = int(np.sum(w - w[0] <= resolution))
    if d == len(w):
        raise ValueError("no gap above the ground cluster")
    gap = float(w[d] - w[0])
    if gap < SEPARATION_FACTOR * resolution:
        raise ValueError(
            f"ill-separated spectrum: next level at {gap:.3e} above the ground "
            f"cluster, resolution {resolution:.3e}"
        )
    return CodeSubspace(basis=columns(d), gap=gap, ground_energy=float(w[0]),
                        dims=tuple(dims or (len(w),)))


def full_space_code(dims) -> CodeSubspace:
    """The whole Hilbert space as a code (the unprotected case).

    ground_subspace refuses H = 0; this constructor is the explicit opt-in.
    """
    dims = tuple(int(d) for d in getattr(dims, "dims", dims))
    return CodeSubspace(basis=np.eye(total_dim(dims), dtype=complex), gap=np.inf,
                        ground_energy=0.0, dims=dims)


def project_onto_code(code: CodeSubspace, v, sites=None) -> HermOp:
    """Compress an operator to the code: the matrix <b_m| V |b_n>.

    ``v`` is a D x D operator, or with ``sites`` an operator on those sites
    alone (listed as for embed), which acts on the basis through apply_local
    so no D x D matrix is formed.
    """
    m = mat_of(v)
    b = code.basis
    if sites is not None:
        comp = b.conj().T @ apply_local(m, sites, code.dims, b)
    elif m.shape != (code.dim, code.dim):
        raise ValueError(f"operator shape {m.shape} does not match code dimension {code.dim}")
    else:
        comp = b.conj().T @ m @ b
    comp = _hermitian(comp, 1e-10 * max(1.0, _max_abs(m)),
                      "compressed operator is not hermitian; input was not")
    # past the float range the sum overflows and the gate's NaN defect passes
    _require_finite(comp)
    return HermOp(comp, (code.degeneracy,))
