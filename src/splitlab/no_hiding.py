"""Distinguishable reduced states inside any two-dimensional subspace.

Any 2D subspace of a two-site space contains an orthonormal pair whose
reduced states, summed over the two sides, are at least 2/3 apart in trace
norm; side A is site 0 and side B site 1, and any other site count is
refused. Only three candidate pairs ever need checking: the input basis and
its two balanced superpositions (real and imaginary relative phase). That
bound is what makes the two-site attack constructive: the more
distinguishable side yields a projector whose expectation separates the
pair by at least 1/3.

The witness is computed for a batch of pairs at once: no_hiding_witness_batch
takes the pairs' amplitudes with a leading batch axis, scores all three
candidates of every pair in one pair_side_norms call (one eigvalsh per side,
each at that side's own size) and checks every pair's floor in a few stacked
factorizations; no_hiding_witness is its one-pair call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    HermOp,
    Ket,
    Projector,
    _check_unit,
    _dims_tuple,
    _kept_rows,
    _require_finite,
    _unit_ket,
    fidelity,
    helstrom,
    reduced_states,
    total_dim,
)

# The worst-case guarantee for the best candidate pair, and the slack the
# builders allow before declaring a (mathematically impossible) violation.
SCORE_FLOOR = 2.0 / 3.0
SCORE_ATOL = 1e-9

ORTHO_ATOL = 1e-10

# The grid oracle's theta and phi resolution. It is even, so the phi ring
# is closed under phi + pi and half the sphere covers every pair.
GRID_N = 24


@dataclass(eq=False)
class NoHidingWitness:
    """Orthonormal pair with reduced states far apart on at least one side."""

    psi: Ket
    phi: Ket
    score: float            # trace-norm difference summed over both sides
    side: str               # 'A' or 'B': the more distinguishable side
    candidate_id: int       # 0 input pair, 1 real superpositions, 2 imaginary
    fidelity_f: float       # A-side fidelity of the input basis pair
    distance_d: float       # A-side trace distance of the input basis pair
    side_norms: tuple[float, float]


@dataclass(eq=False)
class AttackReport:
    """A single-site perturbation together with what it certifies."""

    site: int
    x: HermOp
    certified_delta_e: float
    witness_psi: Ket
    witness_phi: Ket
    guarantee: str                 # 'analytic' or 'numeric'
    branch: str
    trajectories: tuple = ()
    details: dict = field(default_factory=dict)


def _two_sites(dims) -> tuple[int, int]:
    """``dims`` as a tuple, refused unless it has two sites: A and B."""
    dims = _dims_tuple(dims)
    if len(dims) != 2:
        raise ValueError(f"the two sides need a two-site dims, not {dims}")
    return dims


def _trace_norms(delta: np.ndarray) -> np.ndarray:
    """Trace norm of each matrix of a stack of exactly hermitian differences.

    The one route of pair_side_norms, the scan and the witness's trace
    distance: non-finite input is refused (operators._require_finite), then
    the norms are the summed |eigenvalues| of one batched eigvalsh, which
    reads one triangle of each matrix. A single matrix gives a 0-d array.
    """
    _require_finite(delta)
    return np.sum(np.abs(np.linalg.eigvalsh(delta)), axis=-1)


def pair_side_norms(psi: np.ndarray, phi: np.ndarray, dims):
    """Trace norms of the reduced difference on side A and side B.

    Side A is site 0 and side B site 1 of the two-site ``dims``. ``psi``
    and ``phi`` may carry the same leading batch axes. A single pair
    gives two floats; a batch gives two arrays of the batch shape. Each
    side's differences come out of reduced_states exactly hermitian (entry
    (c, a) is the bitwise conjugate of entry (a, c)), so their trace norms
    are the summed |eigenvalues| of one batched eigvalsh at that side's own
    size (_trace_norms).
    """
    dims = _two_sites(dims)
    psi, phi = np.asarray(psi), np.asarray(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"pair shapes differ: {psi.shape} and {phi.shape}")
    pair = np.stack([psi, phi])
    na, nb = (_trace_norms(np.subtract(*reduced_states(pair, dims, [site])))
              for site in (0, 1))
    if na.ndim == 0:
        return float(na), float(nb)
    return na, nb


def _candidates(b0: np.ndarray, b1: np.ndarray):
    """The three candidate pairs, stacked on the second-to-last axis: the
    input basis, then the balanced superpositions with real and with
    imaginary relative phase. Leading axes of ``b0`` and ``b1`` are kept."""
    s2 = np.sqrt(0.5)
    v0 = np.stack([b0, s2 * (b0 + b1), s2 * (b0 + 1j * b1)], axis=-2)
    v1 = np.stack([b1, s2 * (b0 - b1), s2 * (b0 - 1j * b1)], axis=-2)
    return v0, v1


def _check_orthogonal(b0s: np.ndarray, b1s: np.ndarray):
    """Refuse unless each pair of kets, along the last axis, is orthogonal."""
    if not np.all(np.abs(np.einsum("...i,...i->...", b0s.conj(), b1s)) <= ORTHO_ATOL):
        raise ValueError("basis kets are not orthogonal")


def _check_pair(b0: Ket, b1: Ket):
    if b0.dims != b1.dims:
        raise ValueError("basis kets live on different site structures")
    _check_orthogonal(b0.amplitudes, b1.amplitudes)


def no_hiding_witness_batch(b0s, b1s, dims) -> list[NoHidingWitness]:
    """no_hiding_witness of every pair (b0s[i], b1s[i]) of a batch.

    ``b0s`` and ``b1s`` hold the pairs' amplitudes as rows of an (n, D)
    array on the two sites ``dims``. Each row is held to Ket's unit norm by
    Ket's own rule (operators._check_unit, on the whole stack, so a NaN row
    is refused with Ket's message) and each pair to orthogonality. The three
    candidates of all n pairs are scored in one pair_side_norms call over
    (n, 3); each pair keeps its first candidate unless a later one beats it
    by more than 1e-15. The chosen candidates are held to Ket's unit norm
    in one more _check_unit call and wrapped as Kets with no norm of their
    own (_unit_ket). Every pair's floor max(2D, F, 2/3) comes from the
    A-side reduced states of the n input pairs: D is half the trace norm
    of each difference, which reduced_states gives bitwise hermitian
    (_trace_norms), and F one stacked fidelity call.
    """
    dims = _two_sites(dims)
    b0s, b1s = np.asarray(b0s, dtype=complex), np.asarray(b1s, dtype=complex)
    if b0s.shape != b1s.shape:
        raise ValueError(f"pair shapes differ: {b0s.shape} and {b1s.shape}")
    if b0s.ndim != 2 or b0s.shape[1] != total_dim(dims):
        raise ValueError(f"batch shape {b0s.shape} does not match dims {dims}")
    _check_unit(np.stack([b0s, b1s]))
    _check_orthogonal(b0s, b1s)

    v0s, v1s = _candidates(b0s, b1s)
    nas, nbs = pair_side_norms(v0s, v1s, dims)
    totals = nas + nbs
    rows = np.arange(len(b0s))
    cid = np.zeros(len(b0s), dtype=int)
    for k in (1, 2):
        cid[totals[:, k] > totals[rows, cid] + 1e-15] = k
    scores, na, nb = totals[rows, cid], nas[rows, cid], nbs[rows, cid]
    chosen = np.stack([v0s[rows, cid], v1s[rows, cid]])
    _check_unit(chosen)

    rho0, rho1 = reduced_states(np.stack([b0s, b1s]), dims, [0])
    dist, fid = 0.5 * _trace_norms(rho0 - rho1), fidelity(rho0, rho1)
    floors = np.maximum(np.maximum(2.0 * dist, fid), SCORE_FLOOR)
    low = scores < floors - SCORE_ATOL
    if low.any():
        i = int(np.argmax(low))
        raise AssertionError(
            f"witness score {float(scores[i])} fell below its floor {float(floors[i])}; "
            "this should be impossible"
        )
    return [
        NoHidingWitness(
            psi=_unit_ket(chosen[0, i], dims),
            phi=_unit_ket(chosen[1, i], dims),
            score=float(scores[i]),
            side="A" if na[i] >= nb[i] else "B",
            candidate_id=int(c),
            fidelity_f=float(fid[i]),
            distance_d=float(dist[i]),
            side_norms=(float(na[i]), float(nb[i])),
        )
        for i, c in enumerate(cid)
    ]


def no_hiding_witness(b0: Ket, b1: Ket) -> NoHidingWitness:
    """Best of the three candidate pairs by summed two-side trace norm.

    The returned score is guaranteed to be at least max(2D, F) for the
    A-side trace distance D and fidelity F of the input pair, hence at
    least 2/3; the builder checks this and refuses to return otherwise.
    This is the one-pair call of no_hiding_witness_batch.
    """
    _check_pair(b0, b1)
    return no_hiding_witness_batch(b0.amplitudes[None], b1.amplitudes[None], b0.dims)[0]


def two_site_attack(p: Projector) -> AttackReport:
    """Worst-case single-site projector for a two-site ground projector.

    Scans the three candidate pairs and both sides for the largest
    single-side reduced trace-norm difference (that maximum is at least
    2/3: the input pair realizes 2D on side A, the superposition pairs
    realize at least F on side B, and max(2D, F) >= 2/3). The attack is
    the Helstrom projector of the winning reduced pair, and its
    expectation gap, Tr(X delta) = ||delta||_1 / 2, is at least 1/3.
    """
    dims = _two_sites(p.dims)
    if p.rank < 2:
        raise ValueError("nothing to split: the projector has rank < 2")

    w, v = np.linalg.eigh(p.matrix)
    cols = v[:, w > 0.5]
    b0, b1 = cols[:, 0], cols[:, 1]

    v0s, v1s = _candidates(b0, b1)
    nas, nbs = pair_side_norms(v0s, v1s, dims)
    best = None
    for cid in range(3):
        for side, norm in (("A", nas[cid]), ("B", nbs[cid])):
            if best is None or norm > best[0] + 1e-15:
                best = (norm, cid, side)
    norm, cid, side = best
    v0, v1 = v0s[cid], v1s[cid]

    site = 0 if side == "A" else 1
    rho_psi, rho_phi = reduced_states([v0, v1], dims, [site])
    _, proj = helstrom(rho_psi, rho_phi, dims=(dims[site],))
    x = proj.matrix
    certified = float(np.trace(x @ (rho_psi - rho_phi)).real)
    if certified < SCORE_FLOOR / 2.0 - SCORE_ATOL:
        raise AssertionError(
            f"certified splitting {certified} fell below 1/3; this should be impossible"
        )
    return AttackReport(
        site=site,
        x=HermOp(x, (dims[site],)),
        certified_delta_e=certified,
        witness_psi=Ket(v0, dims),
        witness_phi=Ket(v1, dims),
        guarantee="analytic",
        branch="two-site",
        details={"candidate_id": cid, "side": side, "side_norm": float(norm)},
    )


def subspace_pair_score_scan(b0: Ket, b1: Ket) -> float:
    """Grid oracle: best summed score over all orthonormal pairs in the span.

    Orthonormal pairs correspond to antipodal points on the Bloch sphere of
    the subspace, so a (theta, phi) grid covers them all; the closed-form
    candidate angles are appended so the oracle provably dominates the
    constructive witness at any grid size.

    The point (pi - theta, phi + pi) is the pair of (theta, phi) with its two
    vectors swapped, whose differences are negated and whose norms are
    equal. The GRID_N grid, GRID_N even, maps onto itself under that swap,
    so only its rows theta <= pi/2 are scored (13 of 25). Each side's difference is linear on the
    sphere, Delta = cos(theta) (R00 - R11) + sin(theta) (e^{-i phi} R01 +
    e^{i phi} R01^dag) with R_ij the reduced |u_i><u_j|, from one einsum per
    side. It is formed as w + w^dag, bitwise hermitian as eigvalsh assumes,
    and the whole half grid is one _trace_norms stack per side.
    """
    dims = _two_sites(b0.dims)
    _check_pair(b0, b1)
    # sorted sets, where np.unique would import numpy.ma
    thetas = np.array([t for t in sorted({*np.linspace(0.0, np.pi, GRID_N).tolist(), np.pi / 2})
                       if t <= np.pi / 2])
    phis = np.array(sorted({*np.linspace(0.0, 2 * np.pi, GRID_N, endpoint=False).tolist(),
                            0.0, np.pi / 2, np.pi, 1.5 * np.pi}))
    half_cos = (0.5 * np.cos(thetas))[:, None, None, None]
    sin_z = (np.sin(thetas)[:, None] * np.exp(-1j * phis)[None, :])[..., None, None]
    pair = np.stack([b0.amplitudes, b1.amplitudes])
    total = 0.0
    for site in (0, 1):
        m = _kept_rows(pair, dims, [site])
        r = np.einsum("iab,jcb->ijac", m, m.conj())
        w = half_cos * (r[0, 0] - r[1, 1]) + sin_z * r[0, 1]
        total = total + _trace_norms(w + w.conj().mT)
    return float(np.max(total))
