"""Decoherence of code states under a randomly scaled perturbation.

The perturbation's unknown magnitude turns coherent evolution into a random
unitary channel. In the large-gap limit the channel dephases the code in the
eigenbasis of the compressed perturbation, with matrix-element factors given
by the characteristic function of the magnitude distribution evaluated at
t times the eigenvalue difference. Everything here either computes that
prediction, simulates the finite-gap mixture it approximates, or checks the
closed-form bounds relating the two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .code_space import CodeSubspace
from .operators import (
    DENSITY_TRACE_ATOL,
    HERM_ATOL,
    DensityOp,
    Ket,
    _add_local,
    _block_index,
    _density_rules,
    _herm_eigvalsh,
    _hermitian,
    _max_abs,
    _pattern_blocks,
    _stacked_herm_eig,
    _unit_trace_fault,
    herm_eig,
    herm_propagator,
    mat_of,
    operator_norm,
    partial_trace,
)
from .splitting import IdsReport

LEAK_TOL = 1e-10            # initial-state weight allowed outside the code
PROB_ATOL = 1e-12           # discrete probabilities must sum to 1 this tightly
DEFAULT_NODES = 64          # quadrature order for continuous magnitudes
RHO_FACTOR_CUT = 1e-13      # relative |eigenvalue| a start state's factor keeps
BRACKET_DOUBLINGS = 60      # growth steps before declaring no crossing

# A chunk of the time axis holds about max(D^2, TIME_CHUNK_MIN) entries in
# each of its arrays: at least 1 MiB of complex, so that a run at small D
# still takes hundreds of times a chunk.
TIME_CHUNK_MIN = 1 << 16


@dataclass(frozen=True)
class NoiseDistribution:
    """Distribution of the perturbation magnitude.

    Three closed-form kinds: ``gaussian``, ``uniform`` and ``discrete``; a
    point mass (``delta``) is the one-atom discrete law. Each knows its
    moments, its characteristic function and a quadrature rule that
    integrates it either exactly (discrete) or with spectral accuracy
    (gaussian, uniform). Each kind takes two parameters (a discrete law's
    values and probabilities), every parameter must be finite, and every
    guard refuses unless its condition holds, so a NaN is refused. The
    rules hold however the law is built, by a classmethod or directly.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "discrete"):
            raise ValueError(f"unknown noise distribution kind {self.kind!r}")
        if len(self.params) != 2:
            raise ValueError(f"a {self.kind} law takes 2 parameters, got {len(self.params)}")
        if self.kind == "gaussian":
            if not self.params[1] > 0:
                raise ValueError("gaussian width must be positive")
            if not np.isfinite(self.params).all():
                raise ValueError("gaussian mean and width must be finite")
        elif self.kind == "uniform":
            if not self.params[1] > self.params[0]:
                raise ValueError("uniform needs b > a")
            if not np.isfinite(self.params).all():
                raise ValueError("uniform ends must be finite")
        else:
            values, probs = self.params
            if not values:
                raise ValueError("discrete distribution needs at least one atom")
            if len(probs) != len(values):
                raise ValueError("discrete distribution needs one probability per value")
            if not np.isfinite([*values, *probs]).all():
                raise ValueError("discrete values and probabilities must be finite")
            if not all(p >= 0 for p in probs):
                raise ValueError("negative probability")
            if not abs(sum(probs) - 1.0) <= PROB_ATOL:
                raise ValueError(f"probabilities sum to {sum(probs)}, not 1")

    @classmethod
    def gaussian(cls, mean: float, std: float) -> "NoiseDistribution":
        return cls("gaussian", (float(mean), float(std)))

    @classmethod
    def uniform(cls, a: float, b: float) -> "NoiseDistribution":
        return cls("uniform", (float(a), float(b)))

    @classmethod
    def discrete(cls, pairs) -> "NoiseDistribution":
        return cls("discrete", (tuple(float(v) for v, _ in pairs),
                                tuple(float(p) for _, p in pairs)))

    @classmethod
    def delta(cls, value: float) -> "NoiseDistribution":
        return cls.discrete([(value, 1.0)])

    @property
    def mean(self) -> float:
        if self.kind == "gaussian":
            return self.params[0]
        if self.kind == "uniform":
            a, b = self.params
            return (a + b) / 2
        values, probs = self.params
        return float(np.dot(values, probs))

    @property
    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.params[1] ** 2
        if self.kind == "uniform":
            a, b = self.params
            return (b - a) ** 2 / 12
        values, probs = self.params
        m = self.mean
        return float(np.dot((np.asarray(values) - m) ** 2, probs))

    @property
    def second_moment(self) -> float:
        return self.variance + self.mean ** 2

    def characteristic(self, alpha):
        """E[exp(-i lambda alpha)], vectorized over alpha."""
        alpha = np.asarray(alpha, dtype=float)
        if self.kind == "gaussian":
            mu, sigma = self.params
            return np.exp(-1j * mu * alpha - (sigma * alpha) ** 2 / 2)
        if self.kind == "uniform":
            a, b = self.params
            phase = np.exp(-1j * (a + b) / 2 * alpha)
            return phase * np.sinc((b - a) * alpha / (2 * np.pi))
        values, probs = self.params
        out = sum(p * np.exp(-1j * v * alpha) for v, p in zip(values, probs))
        return np.asarray(out, dtype=complex)

    def quadrature(self, nodes: int = DEFAULT_NODES):
        """Magnitude nodes and probability weights summing to 1."""
        if self.kind == "gaussian":
            mu, sigma = self.params
            x, w = _gauss_rule(np.polynomial.hermite.hermgauss, int(nodes))
            return mu + np.sqrt(2.0) * sigma * x, w / np.sqrt(np.pi)
        if self.kind == "uniform":
            a, b = self.params
            x, w = _gauss_rule(np.polynomial.legendre.leggauss, int(nodes))
            return (b - a) / 2 * x + (a + b) / 2, w / 2
        values, probs = self.params
        return np.asarray(values, dtype=float), np.asarray(probs, dtype=float)


@functools.cache
def _gauss_rule(rule, nodes: int) -> tuple:
    """rule(nodes), computed once per order and read-only: a run that reads
    its quadrature twice (the simulation and the fidelity bound) factors one
    companion matrix."""
    x, w = rule(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def dephasing_factors(r: IdsReport, dist: NoiseDistribution, t) -> np.ndarray:
    """k x k large-gap channel factors in the eigenframe of ``r``, at one time or many.

    The channel multiplies the (m, n) matrix element in the eigenbasis of
    the compressed perturbation by the characteristic function at t times
    the eigenvalue difference e_m - e_n. ``t`` is one time (a k x k array)
    or an array of times (an array of t's shape followed by k x k), each
    k x k slice the bits of the call at that time.
    """
    diffs = r.eigenvalues[:, None] - r.eigenvalues[None, :]
    return dist.characteristic(np.multiply.outer(np.asarray(t, dtype=float), diffs))


def _code_frame_state(code: CodeSubspace, rho0) -> np.ndarray:
    rho = mat_of(rho0)
    if rho.shape != (code.dim, code.dim):
        raise ValueError(
            f"state shape {rho.shape} does not match the space dimension {code.dim}")
    comp = code.basis.conj().T @ rho @ code.basis
    leak = float(np.linalg.norm(rho - code.basis @ comp @ code.basis.conj().T))
    if leak > LEAK_TOL:
        raise ValueError(
            f"initial state leaks outside the code space (weight {leak:.3e})")
    return comp


def predict_dephasing(r: IdsReport, dist: NoiseDistribution, rho0, t: float) -> DensityOp:
    """Large-gap channel output at time t for a code-supported state.

    Pure dephasing in the compressed perturbation's eigenbasis, read from
    ``r = ids(code, v)``: the diagonal is time invariant and each
    off-diagonal element picks up the characteristic function at t times
    its eigenvalue gap. The D x D output is the lift of the k x k
    eigenframe prediction Q^dag (B^dag rho0 B) Q times the factors.
    """
    q = r.frame
    pred = (q.conj().T @ _code_frame_state(r.code, rho0) @ q) * dephasing_factors(r, dist, t)
    bq = r.code.basis @ q
    return DensityOp(bq @ pred @ bq.conj().T, r.code.dims)


def _state_factor(rho0):
    """(A, s) with rho0 = A diag(s) A^dag and as few columns as possible.

    A 1-D array is a pure state and is its own one-column factor. A matrix
    goes through one herm_eig, which refuses a non-hermitian raw array;
    eigenvalues with |s| at most RHO_FACTOR_CUT times the largest are
    dropped, so a pure density matrix keeps one column.
    """
    rho = mat_of(rho0)
    if rho.ndim == 1:
        return rho[:, None], np.ones(1)
    s, a = herm_eig(rho0)
    keep = np.abs(s) > RHO_FACTOR_CUT * (_max_abs(s) if s.size else 0.0)
    return a[:, keep], s[keep]


class _BlockPencil:
    """The generators g h0 + lam (m on ``sites``) of one run, block by block.

    ``factor`` diagonalizes the generators of many lam at once; ``evolve``
    applies one, exp(-i t G), to a start at a chunk of times.

    ``h0`` is D x D, or a diagonal's D reals; ``m`` acts on the
    ``sites`` (all sites when None, as for embed). One partition serves
    every lam: the connected components of the joint nonzero pattern of h0
    and the placed m, read on both triangles so that a non-hermitian entry
    stays inside a block (one _pattern_blocks scan; one block below
    BLOCK_SCAN_MIN_DIM). With a diagonal h0 that is m's pattern made
    symmetric on its sites before it is placed, so the scan reads one
    D x D boolean. Every generator is zero off those
    blocks, so factoring the blocks is exact.
    The blocks of h0 and of m are gathered once per block size, m's read
    from the small matrix through the site digits of each index, and a
    generator's block entries are (g h0) + (lam m), as on the full matrix.
    """

    def __init__(self, h0, m, sites, dims, gap_factor: float):
        h = mat_of(h0)
        m = mat_of(m)
        dims = tuple(int(d) for d in dims)
        on = list(range(len(dims)) if sites is None else sites)
        nz = m != 0
        if h.ndim == 1:     # placing nz.T places the transpose of nz's placement
            pattern = np.diag(h != 0)
            _add_local(pattern, nz | nz.T, on, dims)    # boolean +=: a logical or
        else:
            pattern = h != 0
            _add_local(pattern, nz, on, dims)
            pattern |= pattern.T
        lab = _pattern_blocks(pattern)
        lab = np.zeros(h.shape[0], dtype=np.intp) if lab is None else lab
        self.dim = h.shape[0]
        self.m = m
        self.gap_factor = float(gap_factor)
        self.blocks = [idx for _, idx in _block_index(lab)]
        self._h, self._m = [], []
        rest = [i for i in range(len(dims)) if i not in on]
        for idx in self.blocks:
            r, c = idx[:, :, None], idx[:, None, :]
            self._h.append(h[r, c] if h.ndim == 2 else np.where(r == c, h[r], 0))
            digits = np.unravel_index(idx, dims)
            sub = np.zeros_like(idx)
            for i in on:
                sub = sub * dims[i] + digits[i]
            same = np.ones(idx.shape + idx.shape[-1:], dtype=bool)
            for i in rest:
                same &= digits[i][:, :, None] == digits[i][:, None, :]
            self._m.append(np.where(same, m[sub[:, :, None], sub[:, None, :]], 0))

    def generator(self, lams) -> list:
        """Blocks of (g h0) + (lam m) per size, over ``lams`` first."""
        lams = np.asarray(lams, dtype=float)[..., None, None, None]
        gens = [lams * mb for mb in self._m]
        for gen, hb in zip(gens, self._h):
            gen += self.gap_factor * hb
        return gens

    def factor(self, lams, a: np.ndarray) -> list:
        """(parts, slot) per lam of ``lams``: its generator factored to evolve ``a`` (D x r).

        Every block is gated; a block where ``a`` is exactly zero stays
        zero, so only the others reach LAPACK, one batched eigh a size for
        all ``lams`` (operators._stacked_herm_eig). ``parts`` keeps, per
        size, (e, Q, Q^dag a) of those blocks; ``slot`` maps each index to
        its row among their rows laid end to end, or to a zero row after.
        """
        live = [a[idx].any(axis=(-2, -1)) for idx in self.blocks]
        rows = np.concatenate([idx[lv].reshape(-1) for idx, lv in zip(self.blocks, live)])
        slot = np.full(self.dim, rows.size)
        slot[rows] = np.arange(rows.size)
        parts = [(e, q, q.conj().mT @ a[idx[lv]]) for (e, q), idx, lv
                 in zip(_stacked_herm_eig(self.generator(lams), live), self.blocks, live)]
        return [([(e[k], q[k], c[k]) for e, q, c in parts], slot) for k in range(len(lams))]

    def evolve(self, factored: tuple, times: np.ndarray) -> np.ndarray:
        """exp(-i t G) a for each t of ``times``, (T, D, r), from a ``factor`` entry.

        Per block size the phases exp(-i t e) are one (T, blocks, b) array
        and the chunk is one batched matmul, each (t, block) product the one
        a single time would make. One gather puts the rows in index order,
        the rows of the blocks ``factor`` left out from its zero row.
        """
        parts, slot = factored
        n, r = len(times), parts[0][2].shape[-1]
        ys = [(q @ (np.exp(-1j * times[:, None, None] * e)[..., None] * c)).reshape(n, e.size, r)
              for e, q, c in parts]
        ys.append(np.zeros((n, 1, r), dtype=complex))
        return np.take(np.concatenate(ys, axis=1), slot, axis=1)


def _time_chunks(n: int, dim: int, per_time: int) -> list:
    """Slices of range(n), one chunk of the time axis each.

    A chunk's arrays hold ``per_time`` entries a time, so a chunk of
    max(D^2, TIME_CHUNK_MIN) // per_time times holds about one D x D
    array's worth (``dim`` = D) of each.
    """
    step = max(1, max(dim * dim, TIME_CHUNK_MIN) // per_time)
    return [slice(i, i + step) for i in range(0, n, step)]


def _mixture(pencil: _BlockPencil, lam, weights, a, s, t_grid, reader=None):
    """Per time, the mixture read through ``reader`` R, and its full trace.

    The start is a diag(s) a^dag; each node lam_k with weight w_k evolves
    the columns, x = exp(-i t G_k) a, and each time accumulates
    w_k Y diag(s) Y^dag with Y = R^dag x (Y = x when R is None, the
    identity), and the scalar w_k sum_j s_j |x_j|^2, the trace of the full
    D x D term. Returns (accumulators, traces), a (times, size, size) stack
    and a vector. Nodes and times run in chunks (_time_chunks; per node its
    generator's blocks, per time the D x r evolved columns and one
    accumulator): one factor call a node chunk; a time chunk is one evolve
    call, one stacked matmul for its Y diag(s) Y^dag and one np.vecdot for
    its traces, which rounds as a single time's dot does. Nodes are summed
    in ascending order, so the output is bit-stable.
    """
    times = np.asarray(t_grid, dtype=float)
    rh = None if reader is None else reader.conj().T
    size = pencil.dim if reader is None else reader.shape[1]
    accs = np.zeros((len(times), size, size), dtype=complex)
    traces = np.zeros(len(times))
    chunks = _time_chunks(len(times), pencil.dim, pencil.dim * a.shape[1] + size * size)
    for nl in _time_chunks(len(lam), pencil.dim, sum(hb.size for hb in pencil._h)):
        for parts, wk in zip(pencil.factor(lam[nl], a), weights[nl]):
            ws = float(wk) * s
            for sl in chunks:
                x = pencil.evolve(parts, times[sl])
                y = x if rh is None else rh @ x
                accs[sl] += (y * ws) @ y.conj().mT
                traces[sl] += np.vecdot(np.sum(x.real ** 2 + x.imag ** 2, axis=1), ws)
    return accs, traces


def evolve_mixture_grid(h0, v, dist: NoiseDistribution, rho0, t_grid,
                        gap_factor: float = 1.0, nodes: int = DEFAULT_NODES,
                        sites=None) -> list:
    """Mixture over magnitudes of exp(-i t (g h0 + lambda v)) rho0 exp(+...), per time.

    ``v`` is D x D, or with ``sites`` an operator on those sites only (as
    for embed). Magnitudes come from dist.quadrature (exact for discrete
    and point laws). ``rho0``, a density matrix or a 1-D pure state, is
    written once as A diag(s) A^dag (``_state_factor``). The generators
    are factored on the blocks A reaches (``_BlockPencil``), with no D x D
    generator. Each time adds w X diag(s) X^dag, X = exp(-i t G) A, into
    one D x D accumulator, at O(D^2 r) for a rank-r start, and is
    normalized by the scalar full trace; each output is checked as a
    DensityOp.
    """
    h = mat_of(h0)
    dims = getattr(rho0, "dims", None) or getattr(h0, "dims", None) or (h.shape[0],)
    a, s = _state_factor(rho0)
    if a.shape[0] != h.shape[0]:
        raise ValueError(f"state dimension {a.shape[0]} does not match {h.shape[0]}")
    lam, weights = dist.quadrature(nodes)
    accs, traces = _mixture(_BlockPencil(h, v, sites, dims, gap_factor),
                            lam, weights, a, s, t_grid)
    return [DensityOp(acc / tr, tuple(dims)) for acc, tr in zip(accs, traces)]


def _density_blocks(m: np.ndarray, trace_fault) -> np.ndarray:
    """A stack of k x k density blocks, gated and checked as DensityOp checks one.

    One _hermitian call, each block held to HERM_ATOL max(1, max|block|)
    with DensityOp's message, then DensityOp's own rules on the whole
    stack (operators._density_rules), the trace window set by
    ``trace_fault``.
    """
    m = _hermitian(m, HERM_ATOL * np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1))),
                   DensityOp._message)
    _density_rules(m, trace_fault)
    return m


def _code_trace_fault(tr: np.ndarray):
    """The message for the first code-frame trace outside [0, 1 + DENSITY_TRACE_ATOL], or None.

    A simulated state read in a code frame is short of trace 1 by the
    weight that left the code.
    """
    off = ~((tr >= 0.0) & (tr <= 1.0 + DENSITY_TRACE_ATOL))
    if off.any():
        return f"code-frame trace {tr[off][0]} is outside [0, 1 + {DENSITY_TRACE_ATOL}]"
    return None


@dataclass(frozen=True)
class BoundRow:
    """One time point of an inequality check."""

    t: float
    lhs: float
    rhs: float
    passed: bool


def _bound_pencil(h0, r: IdsReport, v, gap_factor: float, sites) -> _BlockPencil:
    """gap_bound_check's pencil, after its checks of h0 against the code of ``r``."""
    code = r.code
    h = mat_of(h0)
    if code.dim != h.shape[0] or tuple(code.dims) != tuple(getattr(h0, "dims", code.dims)):
        raise ValueError(f"code dims {code.dims} do not fit the hamiltonian")
    pencil = _BlockPencil(h, v, sites, code.dims, gap_factor)
    # |h0|, its largest |eigenvalue|, from h0's blocks, one eigvalsh a size
    h0_norm = max(_max_abs(_herm_eigvalsh(hb)) for hb in pencil._h)
    if abs(code.ground_energy) > 1e-10 * max(1.0, h0_norm):
        raise ValueError("shift the ground energy to 0 before checking the bound")
    return pencil


def _bound_rows(pencil: _BlockPencil, r: IdsReport, t_grid) -> list:
    """gap_bound_check's rows, its generator at lam = 1 factored by ``pencil``.

    The times run in chunks (_time_chunks, one D x k difference per time):
    a chunk's differences are one stack, whose 2-norms are one operator_norm
    call, one stacked SVD.
    """
    code = r.code
    vnorm = operator_norm(pencil.m)
    g = pencil.gap_factor
    parts = pencil.factor([1.0], code.basis)[0]
    e_code, q_code = r.eigenvalues, r.frame
    bq = code.basis @ q_code
    times = np.asarray(t_grid, dtype=float)
    lhs = np.empty(len(times))
    for sl in _time_chunks(len(times), pencil.dim, pencil.dim * code.degeneracy):
        ts = times[sl]
        diff = pencil.evolve(parts, ts) - bq @ (
            np.exp(-1j * ts[:, None, None] * e_code[:, None]) * q_code.conj().T)
        lhs[sl] = operator_norm(diff)
    rows = []
    for t, left in zip(times.tolist(), lhs.tolist()):
        rhs = (4.0 * vnorm / (g * code.gap)) * (vnorm * abs(t) + 1.0)
        rows.append(BoundRow(t=t, lhs=left, rhs=float(rhs), passed=bool(left <= rhs)))
    return rows


def gap_bound_check(h0, r: IdsReport, v, gap_factor: float, t_grid, sites=None) -> list:
    """Distance between true and code-projected evolution against its bound.

    ``r = ids(code, v, sites)`` for the ground code of h0; ``v`` (D x D, or
    with ``sites`` on those sites only) enters the full generator. lhs is
    the operator norm of exp(-i t (g h0 + v)) P minus exp(-i t P v P) P, P
    the code projector; rhs is (4 |v| / (g gap)) (|v| |t| + 1), |v| the norm
    of the operator given (|m (x) I| = |m|). The ground energy of h0 must
    sit at 0 within 1e-10 max(1, |h0|), |h0| its largest |eigenvalue|, or
    the phase-skewed comparison is refused. The norm is taken of the D x k
    difference on the code basis B, with exp(-i t P v P) B = B Q
    exp(-i t e) Q^dag from the report. Full-size work, on the blocks of
    one partition (``_BlockPencil``), per block size: one batched eigvalsh
    of h0 and one batched eigh of the blocks of g h0 + v that B reaches.
    """
    return _bound_rows(_bound_pencil(h0, r, v, gap_factor, sites), r, t_grid)


def worst_code_state(r: IdsReport) -> Ket:
    """Equal superposition of the extremal compressed eigenvectors of ``r``.

    This state carries the largest-gap coherence, so it decoheres fastest
    and makes the fidelity bound tight to leading order.
    """
    amp = (r.witness_psi.amplitudes + r.witness_phi.amplitudes) / np.sqrt(2.0)
    return Ket(amp / np.linalg.norm(amp), r.code.dims)


def _pure_code_vector(code: CodeSubspace, state) -> np.ndarray:
    if isinstance(state, Ket):
        vec = state.amplitudes
    else:
        arr = mat_of(state)
        if arr.ndim == 1:
            vec = arr
        else:
            w, u = herm_eig(arr)
            if w[-1] < 1.0 - 1e-10:
                raise ValueError("mixed initial state; the bound needs a pure one")
            vec = u[:, -1]
    comp = code.basis.conj().T @ vec
    if abs(np.linalg.norm(comp) - 1.0) > 1e-10:
        raise ValueError("initial state leaks outside the code space")
    return comp


def fidelity_bound_check(r: IdsReport, dist: NoiseDistribution, t_grid,
                         state=None, nodes: int = DEFAULT_NODES) -> list:
    """Mixture fidelity in the large-gap surrogate against its lower bound.

    The state evolves under the compressed generator lambda V_code for each
    magnitude node; F(t) is the root fidelity of the mixture with the start,
    and the bound is 1 - t^2 E[lambda^2] spread(V_code)^2 / 8, spread and
    generator both read from ``r = ids(code, v)``. With V_code =
    Q diag(e) Q^dag, exp(-i t lambda V_code) = Q exp(-i t lambda e) Q^dag
    for every node, so F(t)^2 is the weighted sum over nodes of
    |sum_m |c_m|^2 exp(-i t lambda e_m)|^2 with c = Q^dag psi; no node is
    diagonalized. ``state`` defaults to worst_code_state(r).
    The times run in chunks (_time_chunks, nodes x k phases per time): a
    chunk's phases exp(-i t lam_j e_m) are one (T, nodes, k) array, and
    its weighted sums one np.vecdot, which rounds as a single time's dot.
    """
    if state is None:
        state = worst_code_state(r)
    p = np.abs(r.frame.conj().T @ _pure_code_vector(r.code, state)) ** 2
    lam, weights = dist.quadrature(nodes)
    coeff = dist.second_moment * r.delta_e ** 2 / 8.0
    times = np.asarray(t_grid, dtype=float)
    lam_e = np.outer(lam, r.eigenvalues)
    f = np.empty(len(times))
    for sl in _time_chunks(len(times), r.code.dim, lam_e.size):
        amp = np.exp(-1j * times[sl, None, None] * lam_e) @ p
        f[sl] = np.sqrt(np.maximum(np.vecdot(np.abs(amp) ** 2, weights), 0.0))
    rows = []
    for t, fid in zip(times.tolist(), f.tolist()):
        bound = 1.0 - coeff * t ** 2
        rows.append(BoundRow(t=t, lhs=fid, rhs=bound, passed=bool(fid >= bound - 1e-12)))
    return rows


@dataclass(frozen=True)
class CoherenceReport:
    """First time the worst coherence factor drops to 1 - epsilon."""

    epsilon: float
    tau_eps: float
    c_eps: float
    delta_e: float
    small_eps_c: float


def coherence_time(dist: NoiseDistribution, delta_e: float, epsilon: float) -> CoherenceReport:
    """Solve |char(c)| = 1 - epsilon and report tau = c / delta_e.

    The bracket for the first crossing grows geometrically from a step set
    by the small-argument expansion, then bisection pins the crossing. If
    the coherence factor never drops that far (a point mass, or a discrete
    distribution dominated by one atom) c and the time are infinite.
    """
    if not delta_e > 0:
        raise ValueError("delta_e must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must sit strictly between 0 and 1")
    var = dist.variance
    small = float(np.sqrt(2.0 * epsilon / var)) if var > 0 else np.inf
    target = 1.0 - epsilon

    def above(alpha):
        return abs(complex(dist.characteristic(alpha))) > target

    c = np.inf
    if var != 0.0:
        lo, hi = 0.0, 0.1 * small
        for _ in range(BRACKET_DOUBLINGS):
            if not above(hi):
                c = _bisect(above, lo, hi)
                break
            lo, hi = hi, hi * 2.0
    return CoherenceReport(epsilon=float(epsilon), tau_eps=float(c / delta_e),
                           c_eps=float(c), delta_e=float(delta_e),
                           small_eps_c=small)


def _bisect(above, lo: float, hi: float) -> float:
    """The point where ``above`` turns from true at lo to false at hi."""
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if above(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(hi, 1.0):
            break
    return (lo + hi) / 2.0


@dataclass(eq=False)
class BathModel:
    """Discrete dephasing bath: one interaction per bath pointer level.

    The joint hamiltonian is H_S (x) I + I (x) H_B + sum_k V_k (x) |k><k|
    with H_B diagonal in the pointer basis. Because the bath state is
    diagonal too, tracing it out of the joint evolution reproduces the
    random unitary mixture over levels exactly.
    """

    labels: tuple
    energies: np.ndarray
    populations: np.ndarray
    interactions: list

    def __post_init__(self):
        n = len(self.labels)
        if not (len(self.energies) == len(self.populations) == len(self.interactions) == n):
            raise ValueError("bath fields must all have one entry per level")
        p = np.asarray(self.populations, dtype=float)
        if not (np.all(p >= -PROB_ATOL) and abs(p.sum() - 1.0) <= PROB_ATOL):
            raise ValueError("bath populations must form a probability vector")

    @classmethod
    def from_discrete(cls, dist: NoiseDistribution, v, energies=None) -> "BathModel":
        """Random-magnitude family: level k couples through lambda_k v."""
        if dist.kind != "discrete":
            raise ValueError("a pointer bath needs a discrete magnitude distribution")
        values, probs = dist.params
        vm = mat_of(v)
        if energies is None:
            energies = np.zeros(len(values))
        return cls(labels=tuple(values), energies=np.asarray(energies, dtype=float),
                   populations=np.asarray(probs, dtype=float),
                   interactions=[lk * vm for lk in values])


def bath_embedding_check(h0, bath: BathModel, rho0, t: float) -> float:
    """Joint evolution with a pointer bath versus the unitary mixture.

    Builds the joint hamiltonian, evolves rho0 (x) diag(populations), the
    bath state diagonal in the pointer basis, traces out the bath and
    compares with the population-weighted mixture of system evolutions.
    Returns the operator-norm deviation, which is zero in exact arithmetic.
    """
    h = mat_of(h0)
    rho = mat_of(rho0)
    nb = len(bath.labels)
    pops = np.asarray(bath.populations, dtype=float)
    ds = h.shape[0]
    joint = np.kron(h, np.eye(nb)) + np.kron(np.eye(ds), np.diag(bath.energies))
    for k, vk in enumerate(bath.interactions):
        pk = np.zeros((nb, nb))
        pk[k, k] = 1.0
        joint = joint + np.kron(mat_of(vk), pk)
    u = herm_propagator(joint, t)
    joint_rho = np.kron(rho, np.diag(pops).astype(complex))
    reduced = partial_trace(u @ joint_rho @ u.conj().T, (ds, nb), [0])

    mixture = np.zeros_like(rho)
    for k, vk in enumerate(bath.interactions):
        uk = herm_propagator(h + mat_of(vk), t)
        mixture = mixture + pops[k] * (uk @ rho @ uk.conj().T)
    return float(operator_norm(reduced - mixture))


def dephasing_time_series(h0, r: IdsReport, v, dist: NoiseDistribution,
                          state, t_grid, gap_factor: float,
                          nodes: int = DEFAULT_NODES, sites=None) -> list:
    """Row dicts comparing prediction, simulation and both bounds over time.

    ``r = ids(code, v, sites)`` is the run's one compression of ``v`` (D x D,
    or with ``sites`` on those sites only) onto the ground code of h0
    (D x D, or a diagonal h0's D reals). One row per time point and
    eigenvalue pair (m < n) of the compressed perturbation: predicted and
    simulated coherence magnitudes, the projected-evolution bound numbers
    and the fidelity pair, as plain floats. The start state enters the
    eigenframe as c c^dag, c = Q^dag psi.
    The gap bound and the simulation share one block pencil: one pattern
    scan, then per block size one gated batched eigh for g h0 + v and one
    per chunk of nodes (_mixture), of the blocks the code basis or the
    start reaches, whatever len(t_grid), plus one batched eigvalsh of h0's
    blocks per block size for the ground-energy guard. The simulation
    reads only U^dag rho(t) U, U = B Q: per node and time it accumulates
    the k x 1 vector U^dag x of the evolved pure start x, normalized by the
    scalar full trace, so it holds k x k per time and no D x D state,
    generator or perturbation, and runs no full-size SVD or herm_eig.
    Quadrature weights must be nonnegative, which makes the mixture PSD; a
    negative one is refused before any other work.
    Every stage runs the time axis in chunks of about one D x D array's
    worth (_time_chunks); a chunk's predictions are one dephasing_factors
    call, and its k x k predictions and simulated states are each checked
    as DensityOps are in one call (``_density_blocks``), the simulated ones
    with a trace in [0, 1 + DENSITY_TRACE_ATOL], short of 1 by the weight
    that left the code.
    """
    lam, weights = dist.quadrature(nodes)
    if np.any(weights < 0):
        raise ValueError("a mixture needs nonnegative weights and a PSD start")
    code = r.code
    psi = _pure_code_vector(code, state)
    c = r.frame.conj().T @ psi
    frame0 = np.outer(c, c.conj())
    d = code.degeneracy
    pencil = _bound_pencil(h0, r, v, gap_factor, sites)
    gap_rows = _bound_rows(pencil, r, t_grid)
    fid_rows = fidelity_bound_check(r, dist, t_grid, state, nodes)
    accs, traces = _mixture(pencil, lam, weights, (code.basis @ psi)[:, None], np.ones(1),
                            t_grid, reader=code.basis @ r.frame)
    times = np.asarray(t_grid, dtype=float)
    mi, ni = np.triu_indices(d, 1)            # the pairs m < n, in row order
    pairs = [f"{m}-{n}" for m, n in zip(mi, ni)]
    rows = []
    for sl in _time_chunks(len(times), code.dim, code.dim * d):
        ts = times[sl]
        pred = _density_blocks(frame0 * dephasing_factors(r, dist, ts), _unit_trace_fault)
        sim = _density_blocks(accs[sl] / traces[sl, None, None], _code_trace_fault)
        for t, p, s, gap, fid in zip(ts.tolist(), np.abs(pred[:, mi, ni]).tolist(),
                                     np.abs(sim[:, mi, ni]).tolist(),
                                     gap_rows[sl], fid_rows[sl]):
            rows.extend({
                "t": t,
                "pair": pair,
                "predicted_coherence": p[i],
                "simulated_coherence": s[i],
                "gap_bound_lhs": gap.lhs,
                "gap_bound_rhs": gap.rhs,
                "fidelity": fid.lhs,
                "fidelity_bound": fid.rhs,
            } for i, pair in enumerate(pairs))
    return rows
