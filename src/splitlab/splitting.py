"""Induced splitting of a code's degeneracy under a perturbation.

The splitting of V over a code C is the spread of expectation values
max |<psi|V|psi> - <phi|V|phi>| over normalized code states, which equals
the eigenvalue spread of the compressed operator P V P restricted to C.
Half of it is the distance from the compression to the nearest multiple of
the projector, so a zero splitting is exactly the textbook error-detection
condition for V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code_space import CodeSubspace, project_onto_code
from .no_hiding import AttackReport
from .operators import (
    HermOp,
    Ket,
    helstrom,
    herm_eig,
    mat_of,
    operator_norm,
    random_herm,
    reduced_states,
)

# kl_check calls a compression scalar within this many operator norms of v.
KL_REL_TOL = 1e-8

# Ascent stops once an iteration improves the splitting by less than this.
ASCENT_IMPROVE_TOL = 1e-12


@dataclass(eq=False)
class IdsReport:
    """Eigensystem of a perturbation compressed onto a code, with witnesses.

    ``eigenvalues`` (ascending) and ``frame`` (k x k, eigenvectors as
    columns) diagonalize B^dag V B = Q diag(e) Q^dag for the code basis B,
    so ``code.basis @ frame`` is the eigenbasis in the full space. Every
    consumer of that spectrum (the splitting, the worst state, the
    dephasing prediction and both dynamics bounds) reads it from here.
    """

    delta_e: float
    lambda_min: float
    lambda_max: float
    alpha_opt: float      # midpoint: the best scalar approximation to P V P
    kl_deviation: float   # distance of P V P from alpha_opt * P, = delta_e / 2
    witness_psi: Ket      # code state with the largest expectation
    witness_phi: Ket      # code state with the smallest expectation
    code: CodeSubspace
    eigenvalues: np.ndarray
    frame: np.ndarray


def ids(code: CodeSubspace, v, sites=None) -> IdsReport:
    """Splitting of the code degeneracy induced by a hermitian perturbation.

    Computed spectrally from the compressed operator, never by searching
    state pairs; the extremal eigenvectors are lifted back to the full
    space as witnesses. With ``sites``, ``v`` is an operator on those sites
    only (see project_onto_code). This is the one place a perturbation is
    compressed onto a code and diagonalized; the report carries the whole
    k x k eigensystem for the dynamics to reuse.
    """
    comp = project_onto_code(code, v, sites)
    w, u = herm_eig(comp)
    lam_min, lam_max = float(w[0]), float(w[-1])
    delta = lam_max - lam_min
    return IdsReport(
        delta_e=delta,
        lambda_min=lam_min,
        lambda_max=lam_max,
        alpha_opt=0.5 * (lam_max + lam_min),
        kl_deviation=0.5 * delta,
        witness_psi=Ket(code.basis @ u[:, -1], code.dims),
        witness_phi=Ket(code.basis @ u[:, 0], code.dims),
        code=code,
        eigenvalues=w,
        frame=u,
    )


def kl_check(code: CodeSubspace, v) -> tuple[bool, float]:
    """Does the code detect v? True when P V P is a scalar on the code.

    Returns (verdict, best scalar alpha). The verdict compares the
    deviation against KL_REL_TOL times the operator norm of v.
    """
    report = ids(code, v)
    scale = operator_norm(v)
    return report.kl_deviation <= KL_REL_TOL * scale, report.alpha_opt


def worst_single_site_ascent(
    code: CodeSubspace,
    site: int,
    iters: int = 50,
    seed: int = 0,
    initial_ops=(),
) -> AttackReport:
    """Alternating ascent over unit-norm hermitian operators on one site.

    Each round compresses the current X (acting on the site alone) to the
    code, takes the extremal witness pair of its splitting, reduces the pair
    to the site, and replaces X with the sign observable 2 P_+ - I of the
    reduced difference (the unit-norm operator with the largest expectation
    gap for that pair). The splitting sequence
    is nondecreasing: the new gap Tr(S delta) = ||delta||_1 dominates
    Tr(X delta), which was the old splitting.

    ``initial_ops`` adds deterministic starting points (the commuting-model
    pipeline passes its constructive attack here); one Gaussian start drawn
    from ``seed`` is appended.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    site = int(site)
    dims = code.dims
    if not 0 <= site < len(dims):
        raise ValueError(f"site {site} out of range")
    d_site = dims[site]
    starts = [mat_of(x) for x in initial_ops] + [random_herm(d_site, np.random.default_rng(seed))]

    best = None
    trajectories = []
    eye = np.eye(d_site)
    for x0 in starts:
        nrm = operator_norm(x0)
        x = x0 / nrm if nrm > 0 else eye.astype(complex)
        prev = -np.inf
        traj = []
        for _ in range(iters):
            report = ids(code, x, [site])
            traj.append(report.delta_e)
            if best is None or report.delta_e > best[0]:
                best = (report.delta_e, x, report)
            if report.delta_e <= prev + ASCENT_IMPROVE_TOL:
                break
            prev = report.delta_e
            rho_psi, rho_phi = reduced_states(
                [report.witness_psi.amplitudes, report.witness_phi.amplitudes], dims, [site])
            _, proj = helstrom(rho_psi, rho_phi, dims=(d_site,))
            x = 2.0 * proj.matrix - eye
        trajectories.append(tuple(traj))

    value, x, report = best
    return AttackReport(
        site=site,
        x=HermOp(x, (d_site,)),
        certified_delta_e=float(value),
        witness_psi=report.witness_psi,
        witness_phi=report.witness_phi,
        guarantee="numeric",
        branch="ascent",
        trajectories=tuple(trajectories),
    )
