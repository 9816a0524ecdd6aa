"""Block structure of commuting two-local families.

When pair terms commute, the operator factors they leave on a shared site
commute elementwise across terms. The center of the site algebra they
generate cuts the site space into sectors every term is block-diagonal
over. Inside the sector carrying the code, each pair's factor algebra is a
full matrix algebra on its own virtual subsystem, so the code projector
becomes a tensor product of per-pair projectors. That structure makes the
worst single-site perturbation constructive. A sector projector the code
straddles splits it by exactly 1. Otherwise a pair factor of rank two or
more yields a splitting of at least 1/3 through its reduced states, and a
leftover multiplicity space of dimension two or more yields 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code_space import CodeSubspace, project_onto_code
from .models import LocalModel
from .no_hiding import AttackReport, two_site_attack
from .operators import HermOp, Projector, apply_local, mat_of, operator_norm, reduced_states
from .splitting import ids, worst_single_site_ascent

SCHMIDT_REL_CUT = 1e-12      # singular values below this (relative) are noise
CLOSURE_GROWTH_TOL = 1e-9    # residual above which a product is a new direction
CENTER_NULL_CUT = 1e-9       # singular-value cut for the stacked commutator map
SECTOR_GAP_FACTOR = 1e-6     # eigenvalue cluster gap, relative to spread
BLOCK_CERT_TOL = 1e-8        # sector/term commutation certificate, relative
SECTOR_SUPPORT_TOL = 1e-8    # code weight below which a sector is unpopulated
FACTOR_RESIDUAL_TOL = 1e-6   # reconstruction failure threshold
UNITS_ATOL = 1e-8            # matrix-units certification tolerance
UNITS_RETRIES = 8
SECTOR_SEED = 7              # seeds the generic center element of each site

SECTOR_GUARANTEE = 1.0
MULT_GUARANTEE = 2.0


class StructureError(RuntimeError):
    """Structure analysis produced something inconsistent with its input."""


@dataclass(eq=False)
class SiteSectorDecomposition:
    """Central sector projectors of one site's term-factor algebra.

    ``block_certificate`` is the worst operator-norm commutator between a
    sector projector and a term touching the site; the builder refuses to
    return when it exceeds BLOCK_CERT_TOL times the largest term norm.
    """

    site: int
    projectors: list
    algebra_dim: int
    block_certificate: float

    def __post_init__(self):
        mats = [p.matrix for p in self.projectors]
        d = mats[0].shape[0]
        total = sum(mats)
        if operator_norm(total - np.eye(d)) > 1e-9:
            raise ValueError("sector projectors do not resolve the identity")
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                if operator_norm(mats[a] @ mats[b]) > 1e-9:
                    raise ValueError("sector projectors overlap")


@dataclass(eq=False)
class SiteVirtualMap:
    """Isometry from one site's virtual slots onto its code sector.

    ``isometry`` has shape (site dim, prod(slot_dims) * mult_dim) and maps
    the tensor order (slots in slot_pairs order, multiplicity last) onto the
    sector subspace. Every term factor at the site acts as a matrix on its
    own slot and as identity on the rest.
    """

    site: int
    sector_index: int
    all_sector_dims: tuple
    slot_pairs: tuple
    slot_dims: tuple
    mult_dim: int
    isometry: np.ndarray


@dataclass(eq=False)
class GroundFactorization:
    """Code projector expressed over virtual pair subsystems.

    ``pair_factors`` lists (pair, projector on that pair's two virtual
    slots). Their tensor product R, with identities on all multiplicity
    slots and carried back through the product U of the site isometries,
    rebuilds the code: ``reconstruction_error`` is ||B - U R U^dag B|| for
    the code basis B, which for matching ranks is the operator-norm
    distance of the two projectors.
    """

    sector_assignment: tuple
    pair_factors: list
    reconstruction_error: float
    site_maps: dict

    def to_json(self) -> dict:
        sites = []
        for i in sorted(self.site_maps):
            mp = self.site_maps[i]
            sites.append({
                "site": i,
                "sector_dims": [int(d) for d in mp.all_sector_dims],
                "code_sector": int(mp.sector_index),
                "slots": [
                    {"pair": [int(a) for a in key], "dim": int(k)}
                    for key, k in zip(mp.slot_pairs, mp.slot_dims)
                ],
                "multiplicity_dim": int(mp.mult_dim),
            })
        return {
            "sites": sites,
            "pair_factors": [
                {"pair": [int(a) for a in key], "rank": int(p.rank)}
                for key, p in self.pair_factors
            ],
            "reconstruction_error": float(self.reconstruction_error),
        }


def require_commuting_pairs(model: LocalModel):
    """Refuse a model the structure analysis cannot take, before any work on it."""
    if not model.commuting:
        raise ValueError("structure analysis needs a certified commuting model")
    if model.max_locality > 2:
        raise ValueError(
            "pair terms only: block wider terms into composite sites first")


def operator_schmidt(op, dims=None):
    """Factor a pair operator as sum_a s_a L_a (x) R_a.

    Factors are orthonormal under the Hilbert-Schmidt inner product and the
    weights s_a come out in nonincreasing order, so the reconstruction is
    exact up to round-off and the left factors span the operator's full
    footprint on the first site.
    """
    if dims is None:
        dims = getattr(op, "dims", None)
    if dims is None or len(dims) != 2:
        raise ValueError("need the two factor dimensions of the pair")
    di, dj = (int(d) for d in dims)
    m = mat_of(op)
    if m.shape != (di * dj, di * dj):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    r = m.reshape(di, dj, di, dj).transpose(0, 2, 1, 3).reshape(di * di, dj * dj)
    u, s, vh = np.linalg.svd(r)
    out = []
    if s.size and s[0] > 0.0:
        for a in np.nonzero(s > SCHMIDT_REL_CUT * s[0])[0]:
            left = u[:, a].reshape(di, di)
            right = vh[a, :].reshape(dj, dj)
            out.append((left, right, float(s[a])))
    return out


def _oriented_pair(sites, matrix, dims):
    """Pair term with its two sites listed in ascending order."""
    i, j = (int(s) for s in sites)
    m = np.asarray(matrix, dtype=complex)
    if i < j:
        return (i, j), m
    di, dj = dims[i], dims[j]
    m = m.reshape(di, dj, di, dj).transpose(1, 0, 3, 2).reshape(di * dj, di * dj)
    return (j, i), m


def _site_generators(model: LocalModel):
    """Per-site operator factors, grouped by the pair that contributed them.

    Grouping matters: factors from distinct groups commute elementwise
    exactly when the model commutes, and each pair group generates one
    virtual-subsystem factor inside a sector. One-site terms are kept
    separate; they refine the sectors but never own a slot.
    """
    dims = model.system.dims
    groups = {i: {} for i in range(model.n_sites)}
    singles = {i: [] for i in range(model.n_sites)}
    for sites, matrix in model.terms:
        if len(sites) == 1:
            singles[int(sites[0])].append(np.asarray(matrix, dtype=complex))
            continue
        key, m = _oriented_pair(sites, matrix, dims)
        i, j = key
        left, right = [], []
        for la, ra, _ in operator_schmidt(m, (dims[i], dims[j])):
            left += [la, la.conj().T]
            right += [ra, ra.conj().T]
        groups[i].setdefault(key, []).extend(left)
        groups[j].setdefault(key, []).extend(right)
    return groups, singles


def _closure(gens, dim):
    """Hilbert-Schmidt orthonormal basis of the unital *-algebra of gens.

    Span growth: walk the basis once, in order, as it grows. Each element
    is multiplied by every generator and by its adjoint a single time, and a
    product joins the basis when its residual after projection exceeds
    CLOSURE_GROWTH_TOL times its norm. Appending generators on the right
    reaches every word, and seeding the adjoints keeps the span *-closed.
    """
    basis = []

    def absorb(mat):
        v = np.asarray(mat, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm <= 1e-14:
            return
        for b in basis:
            v = v - np.vdot(b, v) * b
        if np.linalg.norm(v) <= CLOSURE_GROWTH_TOL * nrm:
            return
        for b in basis:
            v = v - np.vdot(b, v) * b
        basis.append(v / np.linalg.norm(v))

    seed = [np.asarray(g, dtype=complex) for g in gens]
    absorb(np.eye(dim, dtype=complex))
    for g in seed:
        absorb(g)
        absorb(g.conj().T)
    i = 0
    while i < len(basis) and len(basis) < dim * dim:
        b = basis[i].reshape(dim, dim)
        for g in seed:
            absorb(b @ g)
            absorb(b @ g.conj().T)
        i += 1
    return [b.reshape(dim, dim) for b in basis]


def site_algebra(model: LocalModel, site: int) -> np.ndarray:
    """Orthonormal basis of the *-algebra of all term factors at a site.

    Pair terms contribute their side factors, one-site terms their own
    matrix, and the identity is always included. Returned as an array of
    shape (algebra dimension, site dim, site dim).
    """
    require_commuting_pairs(model)
    if not 0 <= site < model.n_sites:
        raise ValueError(f"site {site} out of range for {model.n_sites} sites")
    groups, singles = _site_generators(model)
    gens = [op for ops in groups[site].values() for op in ops]
    gens += singles[site]
    return np.stack(_closure(gens, model.system.dims[site]))


def _center_hermitian_span(basis):
    """Hermitian spanning set of the center of the algebra with this basis."""
    k = len(basis)
    cols = []
    for a in range(k):
        rows = [(basis[a] @ b - b @ basis[a]).reshape(-1) for b in basis]
        cols.append(np.concatenate(rows))
    kmat = np.stack(cols, axis=1)
    _, s, vh = np.linalg.svd(kmat, full_matrices=False)
    # basis elements carry unit Hilbert-Schmidt norm, so commutators of
    # non-central directions have singular values of order one while central
    # ones sit at closure round-off; the cut must not scale down with s[0]
    # or a fully commutative algebra keeps only its cleanest direction
    cut = CENTER_NULL_CUT * max(1.0, s[0]) if s.size else np.inf
    null = [vh[i].conj() for i in range(k) if i >= s.size or s[i] < cut]
    out = []
    for c in null:
        z = sum(ca * ba for ca, ba in zip(c, basis))
        out.append((z + z.conj().T) / 2)
        out.append((z - z.conj().T) / 2j)
    return out


def _sector_order_key(p):
    # anchor the ordering to the standard basis so reports are reproducible
    dg = np.real(np.diag(p))
    idx = int(np.argmax(dg > 1e-9))
    return (idx, -float(dg[idx]), -int(round(float(np.real(np.trace(p))))))


def _cluster_bounds(w) -> list[int]:
    """[0, ..., len(w)]: the bounds of the eigenvalue clusters of the ascending w."""
    cuts = np.nonzero(np.diff(w) > max(SECTOR_GAP_FACTOR * float(w[-1] - w[0]), 1e-12))[0]
    return [0] + [int(c) + 1 for c in cuts] + [len(w)]


def sector_projectors(model: LocalModel, site: int) -> SiteSectorDecomposition:
    """Sector projectors from the center of the site algebra.

    A generic hermitian element of the center has one eigenvalue cluster per
    sector; clustering its spectrum with a gap of SECTOR_GAP_FACTOR times
    the spread recovers the projectors. Every term touching the site must
    commute with every projector, and that certificate is checked here, not
    assumed.
    """
    alg = site_algebra(model, site)
    d = model.system.dims[site]
    herm = _center_hermitian_span(list(alg))
    rng = np.random.default_rng(SECTOR_SEED + 1009 * site)
    z = sum(g * h for g, h in zip(rng.standard_normal(len(herm)), herm))
    z = np.asarray(z, dtype=complex)
    w, u = np.linalg.eigh(z)
    bounds = _cluster_bounds(w)
    mats = [
        u[:, lo:hi] @ u[:, lo:hi].conj().T
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    mats.sort(key=_sector_order_key)

    cert = 0.0
    scale = 0.0
    dims = model.system.dims
    for sites, term in model.terms:
        if site not in sites:
            continue
        tdims = tuple(dims[s] for s in sites)
        pos = sites.index(site)
        scale = max(scale, operator_norm(term))
        for p in mats:
            # (p on the site) term - term (p on the site), the second as a
            # transpose so p acts from the left in both
            left = apply_local(p, [pos], tdims, term)
            right = apply_local(p.T, [pos], tdims, term.T).T
            cert = max(cert, operator_norm(left - right))
    if cert > BLOCK_CERT_TOL * max(scale, 1.0):
        raise StructureError(
            f"sector projectors fail to commute with the terms at site {site}"
            f" (defect {cert:.3e}); the input is not commuting to working precision")
    return SiteSectorDecomposition(
        site=site,
        projectors=[Projector(p, (d,)) for p in mats],
        algebra_dim=int(alg.shape[0]),
        block_certificate=float(cert),
    )


def detect_multi_sector(code: CodeSubspace, decomp: SiteSectorDecomposition) -> list:
    """Indices of sectors carrying code weight. Two or more means splittable."""
    site = decomp.site
    if site >= len(code.dims) or decomp.projectors[0].matrix.shape[0] != code.dims[site]:
        raise ValueError("decomposition does not match the code's site structure")
    populated = []
    for mu, p in enumerate(decomp.projectors):
        comp = project_onto_code(code, p, [site]).matrix
        top = float(np.linalg.eigvalsh(comp)[-1])
        if top > SECTOR_SUPPORT_TOL:
            populated.append(mu)
    return populated


def multi_sector_attack(code: CodeSubspace, site: int, sector) -> AttackReport:
    """Split the code with a sector projector it straddles.

    The projector commutes with every term, hence with the code projector,
    so its compression onto the code has eigenvalues 0 and 1 exactly when
    ground weight sits both inside and outside the sector. The splitting is
    then exactly 1, and the reflection I - 2 sector (the exponential of the
    projector at angle pi) maps a ground state to an orthogonal one while
    commuting with the hamiltonian.
    """
    p = mat_of(sector)
    r = ids(code, p, [site])
    if r.lambda_max < 0.5 or r.lambda_min > 0.5:
        raise ValueError(f"the code sits in a single sector at site {site}")
    if r.delta_e < SECTOR_GUARANTEE - 1e-9:
        raise StructureError(
            f"straddled sector split {r.delta_e} fell below 1; "
            "the sector decomposition is inconsistent")
    return AttackReport(
        site=site,
        x=HermOp(p, (code.dims[site],)),
        certified_delta_e=float(r.delta_e),
        witness_psi=r.witness_psi,
        witness_phi=r.witness_phi,
        guarantee="analytic",
        branch="sector",
        details={
            "compressed_extremes": (float(r.lambda_min), float(r.lambda_max)),
            "sector_rank": int(round(float(np.real(np.trace(p))))),
        },
    )


def _matrix_units(ops, dim, rng):
    """Unitary W with W^dag o W = M_o (x) I_m for every o in alg(ops).

    Works when alg(ops) is a full matrix factor on C^k (x) C^m with
    k m = dim. A generic hermitian algebra element then has k eigenvalue
    clusters of equal multiplicity m; the cluster projectors are the
    diagonal matrix units, and any algebra element bridging clusters 1 and a
    is a scalar multiple of the off-diagonal unit, which pins the slot basis.
    The factor form is certified on every generator before returning.
    """
    basis = _closure(ops, dim)
    if len(basis) == 1:
        return 1, np.eye(dim, dtype=complex)
    for _ in range(UNITS_RETRIES):
        g = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        b = sum(c * m for c, m in zip(g, basis))
        b = (b + b.conj().T) / 2
        w, u = np.linalg.eigh(b)
        bounds = _cluster_bounds(w)
        sizes = [hi - lo for lo, hi in zip(bounds[:-1], bounds[1:])]
        if len(set(sizes)) != 1 or len(sizes) == 1:
            continue
        m = sizes[0]
        k = dim // m
        f = u[:, bounds[0]:bounds[1]]
        e_1 = f @ f.conj().T
        cols = [f]
        usable = True
        for a in range(1, k):
            block = u[:, bounds[a]:bounds[a + 1]]
            e_a = block @ block.conj().T
            best, best_norm = None, 0.0
            for bm in basis:
                wab = e_1 @ bm @ e_a
                nrm = float(np.linalg.norm(wab))
                if nrm > best_norm:
                    best, best_norm = wab, nrm
            if best_norm <= 1e-10:
                usable = False
                break
            v_a = best * (np.sqrt(m) / best_norm)
            cols.append(v_a.conj().T @ f)
        if not usable:
            continue
        wmat = np.concatenate(cols, axis=1)
        if np.linalg.norm(wmat.conj().T @ wmat - np.eye(dim)) > 1e-8 * np.sqrt(dim):
            continue
        certified = True
        for o in ops:
            t = (wmat.conj().T @ np.asarray(o, dtype=complex) @ wmat).reshape(k, m, k, m)
            mo = np.einsum("abcb->ac", t) / m
            resid = float(np.linalg.norm(t - np.einsum("ac,bd->abcd", mo, np.eye(m))))
            if resid > UNITS_ATOL * max(float(np.linalg.norm(o)), 1.0):
                certified = False
                break
        if certified:
            return k, wmat
    raise StructureError("matrix-units extraction failed to certify a factor")


def _site_virtual_map(model, site, sector_index, decomp, groups, rng) -> SiteVirtualMap:
    """Peel one virtual slot per pair off the site's code sector.

    The running isometry maps (extracted slots) (x) (remaining space) onto
    the sector. Each unprocessed factor must act as identity on the
    extracted slots; that invariant is what certifies the grouping, and it
    is checked before every extraction.
    """
    sec = decomp.projectors[sector_index]
    w, u = np.linalg.eigh(sec.matrix)
    iso = u[:, w > 0.5]
    k_done, m_cur = 1, iso.shape[1]
    slot_dims = []
    pair_keys = tuple(sorted(groups[site].keys()))
    for key in pair_keys:
        restricted = []
        for o in groups[site][key]:
            t = (iso.conj().T @ o @ iso).reshape(k_done, m_cur, k_done, m_cur)
            red = np.einsum("abad->bd", t) / k_done
            full = np.einsum("ac,bd->abcd", np.eye(k_done), red)
            if np.linalg.norm(t - full) > UNITS_ATOL * max(float(np.linalg.norm(o)), 1.0):
                raise StructureError(
                    f"a factor of pair {key} leaks into already extracted"
                    f" slots at site {site}")
            restricted.append(red)
        k_new, wstep = _matrix_units(restricted, m_cur, rng)
        iso = iso @ np.kron(np.eye(k_done), wstep)
        k_done *= k_new
        m_cur //= k_new
        slot_dims.append(k_new)
    return SiteVirtualMap(
        site=site,
        sector_index=sector_index,
        all_sector_dims=tuple(p.rank for p in decomp.projectors),
        slot_pairs=pair_keys,
        slot_dims=tuple(slot_dims),
        mult_dim=m_cur,
        isometry=iso,
    )


def _per_site(mats, x: np.ndarray) -> np.ndarray:
    """Apply mats[0] (x) mats[1] (x) ... to the k columns of x.

    One tensordot per site; the factors may be rectangular, and their
    product is never formed.
    """
    k = x.shape[1]
    t = x.reshape(tuple(m.shape[1] for m in mats) + (k,))
    for i, m in enumerate(mats):
        t = np.moveaxis(np.tensordot(m, t, axes=(1, i)), 0, i)
    return t.reshape(-1, k)


def factor_ground_projector(model: LocalModel, code: CodeSubspace) -> GroundFactorization:
    """Express the code projector as a tensor product over virtual pairs.

    Requires the code to populate exactly one sector per site; a straddled
    sector means the sector attack applies and factorization is refused.
    Only the code basis B is read: each pair factor is cut from the reduced
    state of the virtual basis U^dag B (U the product of the site
    isometries), and the product form is verified by the residual
    ||B - U R U^dag B||, 1 when the ranks miss the degeneracy, which is
    stored on the result and must stay below FACTOR_RESIDUAL_TOL.
    """
    require_commuting_pairs(model)
    if tuple(code.dims) != model.system.dims:
        raise ValueError(f"code dims {code.dims} do not match the model")
    sectors = []
    for i in range(model.n_sites):
        dec = sector_projectors(model, i)
        sectors.append((dec, detect_multi_sector(code, dec)))
    return _factor_sectors(model, code, sectors)


def _factor_sectors(model: LocalModel, code: CodeSubspace, sectors) -> GroundFactorization:
    """factor_ground_projector given (decomposition, populated sectors) for every site."""
    decomps = [dec for dec, _ in sectors]
    assignment = []
    for i, (_, populated) in enumerate(sectors):
        if len(populated) != 1:
            raise ValueError(
                f"the code populates {len(populated)} sectors at site {i}; "
                "a sector attack applies instead of factorization")
        assignment.append(populated[0])

    groups, _ = _site_generators(model)
    rng = np.random.default_rng(11)
    maps = {i: _site_virtual_map(model, i, assignment[i], decomps[i], groups, rng)
            for i in range(model.n_sites)}

    # global virtual layout: per site its pair slots, then its multiplicity
    vdims, slots = (), {}
    for i in range(model.n_sites):
        for s, key in enumerate(maps[i].slot_pairs):
            slots.setdefault(key, []).append(len(vdims) + s)
        vdims += maps[i].slot_dims + (maps[i].mult_dim,)

    isos = [maps[i].isometry for i in range(model.n_sites)]
    virtual = _per_site([u.conj().T for u in isos], code.basis)
    factors = []
    for key in sorted(slots):
        # the columns' reduced states summed: the column index read as one more site
        red = reduced_states(virtual.reshape(-1), vdims + (code.degeneracy,), slots[key])
        w, u = np.linalg.eigh(red)
        top = float(w[-1])
        if top <= 1e-12:
            raise StructureError(f"code projector vanishes on virtual pair {key}")
        cols = u[:, w > 0.5 * top]
        pf = cols @ cols.conj().T
        factors.append((key, Projector(pf, tuple(vdims[s] for s in slots[key]))))

    counted = int(round(
        np.prod([p.rank for _, p in factors]) * np.prod([maps[i].mult_dim for i in maps])))
    err = 1.0      # spaces of different dimension sit at a right angle
    if counted == code.degeneracy:
        rec = virtual
        for key, pf in factors:
            rec = apply_local(pf, slots[key], vdims, rec)
        err = float(operator_norm(code.basis - _per_site(isos, rec)))
    if err > FACTOR_RESIDUAL_TOL:
        raise StructureError(
            f"factorization failed: reconstruction residual {err:.3e} "
            "(sectors may be unresolved or the input barely commutes)")
    return GroundFactorization(
        sector_assignment=tuple(assignment),
        pair_factors=factors,
        reconstruction_error=err,
        site_maps=maps,
    )


def _lift_virtual(mp: SiteVirtualMap, slot_index: int, x: np.ndarray) -> np.ndarray:
    """Carry a virtual-slot operator onto the physical site through the map."""
    local_dims = mp.slot_dims + (mp.mult_dim,)
    return mp.isometry @ apply_local(x, [slot_index], local_dims, mp.isometry.conj().T)


def _pair_or_multiplicity_attack(model, code, fz: GroundFactorization) -> AttackReport:
    for key, pf in fz.pair_factors:
        if pf.rank < 2:
            continue
        inner = two_site_attack(pf)
        site = key[inner.site]
        mp = fz.site_maps[site]
        xs = _lift_virtual(mp, mp.slot_pairs.index(key), inner.x.matrix)
        measured = ids(code, xs, [site])
        if measured.delta_e < inner.certified_delta_e - 1e-9:
            raise StructureError(
                f"lifting the pair attack to site {site} lost its certificate")
        return AttackReport(
            site=site,
            x=HermOp(xs, (code.dims[site],)),
            certified_delta_e=float(inner.certified_delta_e),
            witness_psi=measured.witness_psi,
            witness_phi=measured.witness_phi,
            guarantee="analytic",
            branch="pair",
            details={
                "pair": tuple(int(a) for a in key),
                "virtual_side": int(inner.site),
                "virtual_attack": dict(inner.details),
                "measured_delta_e": float(measured.delta_e),
            },
        )
    for i in sorted(fz.site_maps):
        mp = fz.site_maps[i]
        if mp.mult_dim < 2:
            continue
        xm = np.zeros((mp.mult_dim, mp.mult_dim), dtype=complex)
        xm[0, 0], xm[1, 1] = 1.0, -1.0
        xs = _lift_virtual(mp, len(mp.slot_dims), xm)
        measured = ids(code, xs, [i])
        if measured.delta_e < MULT_GUARANTEE - 1e-9:
            raise StructureError(
                f"multiplicity attack at site {i} fell short of 2")
        return AttackReport(
            site=i,
            x=HermOp(xs, (code.dims[i],)),
            certified_delta_e=float(measured.delta_e),
            witness_psi=measured.witness_psi,
            witness_phi=measured.witness_phi,
            guarantee="analytic",
            branch="multiplicity",
            details={
                "multiplicity_dim": int(mp.mult_dim),
                "measured_delta_e": float(measured.delta_e),
            },
        )
    raise StructureError(
        "degenerate code with unit pair ranks and unit multiplicities; "
        "the factorization contradicts the degeneracy")


def commuting_model_attack(model: LocalModel, code: CodeSubspace, refine_iters: int = 40,
                           seed: int = 0) -> AttackReport:
    """Worst-case single-site perturbation for a commuting pair model and its ground code.

    Branches, tried in order: a sector the code straddles (splitting exactly
    1), a virtual pair factor of rank two or more (at least 1/3 through the
    two-site attack), and a multiplicity slot of dimension two or more
    (exactly 2). The analytic operator then seeds a monotone ascent, so the
    reported splitting never falls below the analytic floor; both values
    are kept in the details.
    """
    if refine_iters < 1:
        raise ValueError("refine_iters must be >= 1")
    require_commuting_pairs(model)
    if tuple(code.dims) != model.system.dims:
        raise ValueError(f"code dims {code.dims} do not match the model")
    if code.degeneracy < 2:
        raise ValueError("nothing to split: the ground space is not degenerate")

    base, sectors = None, []
    for i in range(model.n_sites):
        dec = sector_projectors(model, i)
        populated = detect_multi_sector(code, dec)
        if len(populated) >= 2:
            base = multi_sector_attack(code, i, dec.projectors[populated[0]])
            break
        sectors.append((dec, populated))
    if base is None:
        fz = _factor_sectors(model, code, sectors)
        base = _pair_or_multiplicity_attack(model, code, fz)
        base.details["factorization"] = fz.to_json()

    floor = float(base.certified_delta_e)
    refined = worst_single_site_ascent(
        code, base.site, iters=refine_iters, seed=seed,
        initial_ops=[base.x.matrix])
    if refined.certified_delta_e >= floor:
        x, psi, phi = refined.x, refined.witness_psi, refined.witness_phi
        certified = float(refined.certified_delta_e)
    else:
        x, psi, phi = base.x, base.witness_psi, base.witness_phi
        certified = floor
    details = dict(base.details)
    details["analytic_delta_e"] = floor
    details["refined_delta_e"] = float(refined.certified_delta_e)
    return AttackReport(
        site=base.site,
        x=x,
        certified_delta_e=certified,
        witness_psi=psi,
        witness_phi=phi,
        guarantee="analytic",
        branch=base.branch,
        trajectories=refined.trajectories,
        details=details,
    )
