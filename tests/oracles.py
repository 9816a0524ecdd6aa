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
multiplies each element once; the two must also agree bit for bit. The
per-time dynamics references evolve one time and one magnitude node at a
time through a dense np.linalg.eigh of the full generator, where
``dynamics._BlockPencil`` factors blocks once and evolves chunks of times.
The per-node mixture factors each node's generator alone and every one of
its blocks, where ``_BlockPencil.factor`` factors a chunk of nodes at once
and only the blocks the start reaches; the two must agree bit for bit.
The all-pairs commutation defect measures every overlapping pair of terms,
where ``models._commutation_defect`` scores a pair of diagonal terms 0.0
unmeasured; the two must agree exactly. The dense re-measure embeds an
attack operator as a D x D matrix and compresses it with ``splitting.ids``,
where the command line's ``_remeasure`` reads the code's reduced states on
the attacked site and forms no D x D matrix.
"""

import numpy as np

from splitlab.dynamics import _time_chunks
from splitlab.operators import (
    _raw_gate,
    embed,
    operator_norm,
    partial_trace,
    total_dim,
    trace_norm,
)
from splitlab.splitting import ids
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


def dense_propagator(h, t):
    """exp(-i t H) from one dense np.linalg.eigh of the hermitian H."""
    w, u = np.linalg.eigh(h)
    return (u * np.exp(-1j * t * w)) @ u.conj().T


def mixture_per_time(h, v, lam, weights, rho0, t, g):
    """sum_k w_k U_k rho0 U_k^dag over its trace, U_k = exp(-i t (g h + lam_k v)).

    One dense propagator per magnitude node at the one time ``t``.
    """
    acc = np.zeros(rho0.shape, dtype=complex)
    for lk, wk in zip(lam, weights):
        u = dense_propagator(g * h + lk * v, t)
        acc += wk * (u @ rho0 @ u.conj().T)
    return acc / np.trace(acc).real


def gap_bound_lhs_per_time(h, v, basis, t, g):
    """||exp(-i t (g h + v)) P - exp(-i t P v P) P|| at the one time ``t``, P = B B^dag."""
    proj = basis @ basis.conj().T
    return float(np.linalg.norm(dense_propagator(g * h + v, t) @ proj
                                - dense_propagator(proj @ v @ proj, t) @ proj, 2))


def fidelity_per_time(psi, v, basis, lam, weights, t):
    """Root fidelity of the mixture of exp(-i t lam_k P v P) psi with psi, at one time.

    sum_k w_k |<psi| exp(-i t lam_k P v P) |psi>|^2 with one dense
    propagator per node, P = B B^dag; ``psi`` lies in the code.
    """
    proj = basis @ basis.conj().T
    pvp = proj @ v @ proj
    f2 = sum(wk * abs(np.vdot(psi, dense_propagator(lk * pvp, t) @ psi)) ** 2
             for lk, wk in zip(lam, weights))
    return float(np.sqrt(f2))


def factor_all_blocks(pencil, lam, a):
    """(parts, slot) for the one node ``lam``, as ``pencil.factor`` gives it per node.

    The node's blocks are summed as (g h0) + (lam m) in place, every block
    is gated with the node's one tolerance and factored, one eigh per block
    size, and the blocks on which ``a`` is zero are dropped afterwards.
    """
    gens = [pencil.gap_factor * hb for hb in pencil._h]
    for gen, mb in zip(gens, pencil._m):
        gen += lam * mb
    scale = float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in gens)))
    parts, rows = [], []
    for idx, gen in zip(pencil.blocks, gens):
        e, q = np.linalg.eigh(_raw_gate(gen, scale))
        ai = a[idx]
        live = ai.any(axis=(-2, -1))
        q = q[live].astype(complex, copy=False)
        parts.append((e[live], q, q.conj().mT @ ai[live]))
        rows.append(idx[live].reshape(-1))
    rows = np.concatenate(rows)
    slot = np.full(pencil.dim, rows.size)
    slot[rows] = np.arange(rows.size)
    return parts, slot


def mixture_per_node(pencil, lam, weights, a, s, t_grid, reader=None):
    """(accumulators, traces) of dynamics._mixture, each node factored by factor_all_blocks."""
    times = np.asarray(t_grid, dtype=float)
    rh = None if reader is None else reader.conj().T
    size = pencil.dim if reader is None else reader.shape[1]
    accs = np.zeros((len(times), size, size), dtype=complex)
    traces = np.zeros(len(times))
    chunks = _time_chunks(len(times), pencil.dim, pencil.dim * a.shape[1] + size * size)
    for lk, wk in zip(lam, weights):
        parts = factor_all_blocks(pencil, float(lk), a)
        ws = float(wk) * s
        for sl in chunks:
            x = pencil.evolve(parts, times[sl])
            y = x if rh is None else rh @ x
            accs[sl] += (y * ws) @ y.conj().mT
            traces[sl] += np.vecdot(np.sum(x.real ** 2 + x.imag ** 2, axis=1), ws)
    return accs, traces


def commutation_defect_all_pairs(terms, dims):
    """Worst relative commutator norm over term pairs with overlapping support.

    Every such pair is embedded on the union of its supports and measured
    by three operator norms, pairs of diagonal terms included.
    """
    worst = 0.0
    for a in range(len(terms)):
        sa, ma = terms[a]
        for b in range(a + 1, len(terms)):
            sb, mb = terms[b]
            if not set(sa) & set(sb):
                continue
            union = sorted(set(sa) | set(sb))
            sub = [dims[s] for s in union]
            ea = embed(ma, [union.index(s) for s in sa], sub)
            eb = embed(mb, [union.index(s) for s in sb], sub)
            denom = operator_norm(ea) * operator_norm(eb)
            if denom == 0:
                continue
            worst = max(worst, operator_norm(ea @ eb - eb @ ea) / denom)
    return worst


def dense_remeasure(code, x, site):
    """Splitting of ``x`` on ``site`` over ``code``, through its D x D embedding."""
    return ids(code, embed(x, [site], code.dims)).delta_e
