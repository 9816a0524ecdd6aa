"""Independent numerical oracles used to cross-check analytic identities.

These deliberately avoid the code paths they certify: the scalar-distance
oracle minimizes the full-space operator norm over a dense grid with
golden-section refinement instead of using the eigenvalue-spread identity
(and its full-scan form is the reference the battery's three-norm branch
crossing must never exceed), the pair-norm oracles take one pair
at a time through D x D matrices instead of the batched reshape kernel of
``no_hiding``, and the dense ground
factorization works on the D x D code projector where
``structure.factor_ground_projector`` reads only the code basis, and the
kron embedding builds each local operator as a Kronecker product with an
identity and permutes its axes, where ``operators.embed`` and the model
assembly add the operator into a strided view of the D x D result. The
whole-matrix hermiticity gate forms the defect of the whole matrix at once,
where ``operators._hermitian`` reads every matrix tile by tile; the two
must agree bit for bit. The rounds closure re-multiplies the whole basis
by every generator until a round adds nothing, where ``structure._closure``
multiplies each element once; the two must also agree bit for bit.
"""

import numpy as np

from splitlab.operators import embed, operator_norm, partial_trace, total_dim, trace_norm
from splitlab.verify import _herm_norm

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo, hi, tol=1e-12, max_iter=300):
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return f(x)


def min_scalar_distance(p, v, grid_n=101):
    """min over real alpha of ||P V P - alpha P||, computed blind.

    Dense alpha grid over [-||V|| - 1/2, ||V|| + 1/2] followed by
    golden-section refinement of the best bracket; every evaluation is a
    fresh full-space operator norm.
    """
    p = np.asarray(p, dtype=complex)
    v = np.asarray(v, dtype=complex)
    pvp = p @ v @ p

    def f(alpha):
        return float(np.linalg.norm(pvp - alpha * p, 2))

    span = float(np.linalg.norm(v, 2)) + 0.5
    grid = np.linspace(-span, span, grid_n)
    vals = [f(a) for a in grid]
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid_n - 1)]
    return _golden_min(f, lo, hi)


def scalar_distance_min_full_scan(p, v, grid_n=61):
    """A golden-section duality oracle with every grid point scored.

    Scores all ``grid_n`` points of the grid, takes np.argmin's first index
    and refines its bracket by golden-section steps to a 1e-12 bracket, with
    the battery's norm evaluation. ``verify._scalar_distance_min`` reads the
    two linear branches at the far ends of the same range and evaluates
    their crossing, so it lands on the minimum and may only be lower.
    """
    pvp = p @ v @ p

    def f(a):
        return _herm_norm(pvp - a * p)

    r = operator_norm(v) + 1.0
    grid = np.linspace(-r, r, grid_n)
    vals = [f(a) for a in grid]
    i = int(np.argmin(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid_n - 1)]
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if b - a < 1e-12:
            break
    return min(fc, fd)


def pair_side_norms_one(psi, phi, dims, a_sites):
    """Side-A and side-B trace norms of one pair's reduced difference.

    Forms |psi><psi| - |phi><phi| in full and traces it down per side.
    """
    a = sorted(int(s) for s in a_sites)
    b = [i for i in range(len(dims)) if i not in a]
    delta = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
    return (trace_norm(partial_trace(delta, dims, a)),
            trace_norm(partial_trace(delta, dims, b)))


def pair_score_scan_loop(u0, u1, dims, a_sites, grid_n):
    """Best summed side score over the (theta, phi) grid, pair by pair.

    The same grid as ``no_hiding.subspace_pair_score_scan``, walked by a
    double loop with one ``pair_side_norms_one`` call per grid point.
    """
    thetas = np.unique(np.concatenate([np.linspace(0.0, np.pi, grid_n), [np.pi / 2]]))
    phis = np.unique(
        np.concatenate(
            [np.linspace(0.0, 2 * np.pi, grid_n, endpoint=False), [0.0, np.pi / 2, np.pi, 1.5 * np.pi]]
        )
    )
    best = 0.0
    for th in thetas:
        c, s = np.cos(th / 2.0), np.sin(th / 2.0)
        for ph in phis:
            z = np.exp(1j * ph)
            na, nb = pair_side_norms_one(c * u0 + z * s * u1, s * u0 - z * c * u1,
                                         dims, a_sites)
            best = max(best, na + nb)
    return best


def dense_ground_factors(code, site_maps):
    """Pair factors and residual of the ground factorization, through D x D.

    Given the per-site virtual maps, conjugates the code projector P = B B^dag
    by the tensor product U of the site isometries, cuts each pair factor
    from a partial trace of U^dag P U (eigenvalues above half the top one),
    and returns ({pair: factor matrix}, ||U R U^dag - P||) with R the product
    of the embedded pair factors.
    """
    sites = sorted(site_maps)
    vdims, pos = [], {}
    for i in sites:
        mp = site_maps[i]
        for key, k in zip(mp.slot_pairs, mp.slot_dims):
            pos[(i, key)] = len(vdims)
            vdims.append(int(k))
        vdims.append(int(mp.mult_dim))
    u = site_maps[sites[0]].isometry
    for i in sites[1:]:
        u = np.kron(u, site_maps[i].isometry)
    p = code.basis @ code.basis.conj().T
    t = u.conj().T @ p @ u
    factors = {}
    rec = np.eye(u.shape[1], dtype=complex)
    for key in sorted({key for i in sites for key in site_maps[i].slot_pairs}):
        keep = [pos[(key[0], key)], pos[(key[1], key)]]
        w, vecs = np.linalg.eigh(partial_trace(t, vdims, keep))
        cols = vecs[:, w > 0.5 * w[-1]]
        factors[key] = cols @ cols.conj().T
        rec = embed(factors[key], keep, vdims) @ rec
    return factors, operator_norm(u @ rec @ u.conj().T - p)


def kron_embed(m, support, dims):
    """``m`` on the listed ``support`` sites, identity elsewhere, through np.kron.

    Forms m ⊗ I with the support sites first, then moves every site's row
    and column axis back to its place with one transposed copy.
    """
    support = [int(s) for s in support]
    n = len(dims)
    rest = [i for i in range(n) if i not in support]
    big = np.kron(m, np.eye(total_dim([dims[i] for i in rest]) if rest else 1))
    order = support + rest
    axis_dims = tuple(dims[i] for i in order)
    t = big.reshape(axis_dims + axis_dims)
    perm = [order.index(i) for i in range(n)]
    t = t.transpose(perm + [n + p for p in perm])
    d = total_dim(dims)
    return np.ascontiguousarray(t.reshape(d, d))


def kron_sum_terms(terms, dims):
    """Sum of the kron-embedded terms, added in term order into zeros."""
    d = total_dim(dims)
    h = np.zeros((d, d), dtype=complex)
    for sites, m in terms:
        h += kron_embed(m, sites, dims)
    return h


def hermitian_whole_matrix(m, atol, message):
    """(M + M^dag)/2 with max|M - M^dag| <= atol, formed on the whole matrix.

    The defect d is formed at once; a NaN defect passes and an all-zero one
    passes whatever atol is. On an all-zero d the sum is built as
    (M - d) + M in memory order, which keeps the formula's bits.
    """
    d = m - m.conj().mT
    if d.any():
        if np.any(np.max(np.abs(d), axis=(-2, -1)) > atol):
            raise ValueError(message)
        np.add(m, m.conj().mT, out=d)
    else:
        np.subtract(m, d, out=d)
        d += m
    d *= 0.5
    return d


def closure_rounds(gens, dim, growth_tol=1e-9):
    """Orthonormal basis of the unital *-algebra of gens, grown in rounds.

    Each round multiplies a snapshot of the whole basis by every generator
    and its adjoint, absorbing any product whose residual after two
    Gram-Schmidt passes exceeds ``growth_tol`` times its norm, and the
    rounds repeat until one adds nothing or the basis spans all matrices.
    """
    basis = []

    def absorb(mat):
        v = np.asarray(mat, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm <= 1e-14:
            return False
        for b in basis:
            v = v - np.vdot(b, v) * b
        if np.linalg.norm(v) <= growth_tol * nrm:
            return False
        for b in basis:
            v = v - np.vdot(b, v) * b
        basis.append(v / np.linalg.norm(v))
        return True

    seed = [np.asarray(g, dtype=complex) for g in gens]
    absorb(np.eye(dim, dtype=complex))
    for g in seed:
        absorb(g)
        absorb(g.conj().T)
    grew = True
    while grew and len(basis) < dim * dim:
        grew = False
        for b in [b.reshape(dim, dim) for b in basis]:
            for g in seed:
                grew |= absorb(b @ g)
                grew |= absorb(b @ g.conj().T)
    return [b.reshape(dim, dim) for b in basis]
