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

from dataclasses import dataclass

import numpy as np

from .code_space import CodeSubspace
from .operators import (
    DENSITY_EIG_FLOOR,
    DENSITY_TRACE_ATOL,
    HERM_ATOL,
    DensityOp,
    Ket,
    _add_local,
    _block_index,
    _herm_eigvalsh,
    _hermitian,
    _max_abs,
    _pattern_blocks,
    _stacked_herm_eig,
    herm_eig,
    herm_propagator,
    mat_of,
    operator_norm,
    partial_trace,
)
from .splitting import IdsReport

LEAK_TOL = 1e-10            # initial-state weight allowed outside the code
PROB_ATOL = 1e-12           # discrete probabilities must sum to 1 this tightly
BATH_DIAG_ATOL = 1e-12      # off-diagonal bath-state weight allowed
DEFAULT_NODES = 64          # quadrature order for continuous magnitudes
RHO_FACTOR_CUT = 1e-13      # relative |eigenvalue| a start state's factor keeps
BRACKET_DOUBLINGS = 60      # growth steps before declaring no crossing


@dataclass(frozen=True)
class NoiseDistribution:
    """Distribution of the perturbation magnitude.

    Three closed-form kinds: ``gaussian``, ``uniform`` and ``discrete``; a
    point mass (``delta``) is the one-atom discrete law. Each knows its
    moments, its characteristic function and a quadrature rule that
    integrates it either exactly (discrete) or with spectral accuracy
    (gaussian, uniform).
    """

    kind: str
    params: tuple

    @classmethod
    def gaussian(cls, mean: float, std: float) -> "NoiseDistribution":
        if not std > 0:
            raise ValueError("gaussian width must be positive")
        return cls("gaussian", (float(mean), float(std)))

    @classmethod
    def uniform(cls, a: float, b: float) -> "NoiseDistribution":
        if not b > a:
            raise ValueError("uniform needs b > a")
        return cls("uniform", (float(a), float(b)))

    @classmethod
    def discrete(cls, pairs) -> "NoiseDistribution":
        values = tuple(float(v) for v, _ in pairs)
        probs = tuple(float(p) for _, p in pairs)
        if not values:
            raise ValueError("discrete distribution needs at least one atom")
        if any(p < 0 for p in probs):
            raise ValueError("negative probability")
        if abs(sum(probs) - 1.0) > PROB_ATOL:
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
        return cls("discrete", (values, probs))

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
            x, w = np.polynomial.hermite.hermgauss(int(nodes))
            return mu + np.sqrt(2.0) * sigma * x, w / np.sqrt(np.pi)
        if self.kind == "uniform":
            a, b = self.params
            x, w = np.polynomial.legendre.leggauss(int(nodes))
            return (b - a) / 2 * x + (a + b) / 2, w / 2
        values, probs = self.params
        return np.asarray(values, dtype=float), np.asarray(probs, dtype=float)


def dephasing_factors(r: IdsReport, dist: NoiseDistribution, t: float) -> np.ndarray:
    """k x k large-gap channel factors in the eigenframe of ``r``.

    The channel multiplies the (m, n) matrix element in the eigenbasis of
    the compressed perturbation by the characteristic function at t times
    the eigenvalue difference e_m - e_n.
    """
    diffs = r.eigenvalues[:, None] - r.eigenvalues[None, :]
    return dist.characteristic(float(t) * diffs)


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

    ``m`` acts on the ``sites`` (all sites when None, as for embed). One
    partition serves every lam: the connected components of the joint
    nonzero pattern of h0 and the placed m, read on both triangles so that
    a non-hermitian entry stays inside a block (one _pattern_blocks scan;
    one block below BLOCK_SCAN_MIN_DIM). Every generator is zero off those
    blocks, so factoring the blocks is exact.
    The blocks of g h0 and of m are gathered once per block size; m's are
    read from the small matrix through the site digits of each index, so
    no D x D perturbation is formed, and a generator's block entries are
    (g h0) + (lam m), the same sums as on the full matrix.
    """

    def __init__(self, h0, m, sites, dims, gap_factor: float):
        h = mat_of(h0)
        m = mat_of(m)
        dims = tuple(int(d) for d in dims)
        on = list(range(len(dims)) if sites is None else sites)
        pattern = h != 0
        _add_local(pattern, m != 0, on, dims)     # boolean +=: a logical or
        pattern |= pattern.T
        lab = _pattern_blocks(pattern)
        lab = np.zeros(h.shape[0], dtype=np.intp) if lab is None else lab
        self.dim = h.shape[0]
        self.m = m
        self.gap_factor = float(gap_factor)
        self.blocks = [idx for _, idx in _block_index(lab)]
        self._h = [self.gap_factor * h[idx[:, :, None], idx[:, None, :]]
                   for idx in self.blocks]
        self._m = []
        rest = [i for i in range(len(dims)) if i not in on]
        for idx in self.blocks:
            digits = np.unravel_index(idx, dims)
            sub = np.zeros_like(idx)
            for i in on:
                sub = sub * dims[i] + digits[i]
            same = np.ones(idx.shape + idx.shape[-1:], dtype=bool)
            for i in rest:
                same &= digits[i][:, :, None] == digits[i][:, None, :]
            self._m.append(np.where(same, m[sub[:, :, None], sub[:, None, :]], 0))

    def generator(self, lam: float) -> list:
        """Stacked blocks of g h0 + lam m, one array per block size."""
        return [gh + lam * mb for gh, mb in zip(self._h, self._m)]

    def factor(self, lam: float, a: np.ndarray) -> list:
        """Per block size, (e, Q, Q^dag a) of the generator at lam; ``a`` is D x r.

        The blocks go through one gate and one batched eigh per size
        (operators._stacked_herm_eig).
        """
        parts = []
        for idx, (e, q) in zip(self.blocks, _stacked_herm_eig(self.generator(lam))):
            q = q.astype(complex, copy=False)   # once, not at every time
            parts.append((e, q, q.conj().mT @ a[idx]))
        return parts

    def evolve(self, parts: list, t: float) -> np.ndarray:
        """exp(-i t G) a, D x r, from ``parts = factor(lam, a)``, block by block."""
        x = np.empty((self.dim, parts[0][2].shape[-1]), dtype=complex)
        for idx, (e, q, c) in zip(self.blocks, parts):
            x[idx.reshape(-1)] = (q @ (np.exp(-1j * t * e)[..., None] * c)).reshape(-1, x.shape[1])
        return x


def _mixture(pencil: _BlockPencil, lam, weights, a, s, t_grid, reader=None):
    """Per time, the mixture read through ``reader`` R, and its full trace.

    The start is a diag(s) a^dag; each node lam_k with weight w_k evolves
    the columns, x = exp(-i t G_k) a, and each time accumulates
    w_k Y diag(s) Y^dag with Y = R^dag x (Y = x when R is None, the
    identity), and the scalar w_k sum_j s_j |x_j|^2, the trace of the full
    D x D term. Returns (accumulators, traces). Nodes are summed in
    ascending order, so the output is bit-stable.
    """
    times = [float(t) for t in t_grid]
    rh = None if reader is None else reader.conj().T
    size = pencil.dim if reader is None else reader.shape[1]
    accs = [np.zeros((size, size), dtype=complex) for _ in times]
    traces = np.zeros(len(times))
    for lk, wk in zip(lam, weights):
        parts = pencil.factor(float(lk), a)
        ws = float(wk) * s
        for j, t in enumerate(times):
            x = pencil.evolve(parts, t)
            y = x if rh is None else rh @ x
            accs[j] += (y * ws) @ y.conj().T
            traces[j] += ws @ np.sum(x.real ** 2 + x.imag ** 2, axis=0)
    return accs, traces


def evolve_mixture_grid(h0, v, dist: NoiseDistribution, rho0, t_grid,
                        gap_factor: float = 1.0, nodes: int = DEFAULT_NODES,
                        sites=None) -> list:
    """Mixture over magnitudes of exp(-i t (g h0 + lambda v)) rho0 exp(+...), per time.

    ``v`` is D x D, or with ``sites`` an operator on those sites only (as
    for embed). Magnitudes come from dist.quadrature (exact for discrete
    and point laws). ``rho0``, a density matrix or a 1-D pure state, is
    written once as A diag(s) A^dag (``_state_factor``). The generators
    are factored block by block on one partition (``_BlockPencil``): each
    node costs one gated batched eigh per block size and no D x D
    generator. Each time adds w X diag(s) X^dag, X = exp(-i t G) A built
    block by block, into one D x D accumulator, at O(D^2 r) for a rank-r
    start, and is normalized by the scalar full trace; each output is
    checked as a DensityOp.
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


def _simulated_code_block(acc: np.ndarray, trace: float) -> np.ndarray:
    """acc / trace, a simulated state read in a code frame, checked.

    The k x k block of a density matrix: hermitian and above the PSD floor
    as for DensityOp, with a trace in [0, 1 + DENSITY_TRACE_ATOL], short
    of 1 by the weight that left the code.
    """
    m = acc / trace
    m = _hermitian(m, HERM_ATOL * max(1.0, _max_abs(m)),
                   "density matrix is not hermitian within tolerance")
    tr = np.trace(m).real
    if not 0.0 <= tr <= 1.0 + DENSITY_TRACE_ATOL:
        raise ValueError(f"code-frame trace {tr} is outside [0, 1 + {DENSITY_TRACE_ATOL}]")
    lo = float(_herm_eigvalsh(m)[0])
    if lo < DENSITY_EIG_FLOOR:
        raise ValueError(f"negative eigenvalue {lo} below floor {DENSITY_EIG_FLOOR}")
    return m


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
    w = _herm_eigvalsh(h)
    if abs(code.ground_energy) > 1e-10 * max(1.0, abs(w[0]), abs(w[-1])):
        raise ValueError("shift the ground energy to 0 before checking the bound")
    return _BlockPencil(h, v, sites, code.dims, gap_factor)


def _bound_rows(pencil: _BlockPencil, r: IdsReport, t_grid) -> list:
    """gap_bound_check's rows, its generator at lam = 1 factored by ``pencil``."""
    code = r.code
    vnorm = operator_norm(pencil.m)
    g = pencil.gap_factor
    parts = pencil.factor(1.0, code.basis)
    e_code, q_code = r.eigenvalues, r.frame
    bq = code.basis @ q_code
    rows = []
    for t in t_grid:
        t = float(t)
        lhs = operator_norm(pencil.evolve(parts, t)
                            - bq @ (np.exp(-1j * t * e_code)[:, None] * q_code.conj().T))
        rhs = (4.0 * vnorm / (g * code.gap)) * (vnorm * abs(t) + 1.0)
        rows.append(BoundRow(t=t, lhs=float(lhs), rhs=float(rhs), passed=bool(lhs <= rhs)))
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
    exp(-i t e) Q^dag from the report. Full-size work: one eigvalsh of h0;
    the generator g h0 + v is factored block by block (``_BlockPencil``,
    one batched eigh per block size), with no D x D generator.
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
    """
    if state is None:
        state = worst_code_state(r)
    p = np.abs(r.frame.conj().T @ _pure_code_vector(r.code, state)) ** 2
    return _fidelity_rows(r, dist, p, *dist.quadrature(nodes), t_grid)


def _fidelity_rows(r: IdsReport, dist: NoiseDistribution, p, lam, weights, t_grid) -> list:
    """fidelity_bound_check's rows; ``p`` holds |c_m|^2, c = Q^dag psi."""
    coeff = dist.second_moment * r.delta_e ** 2 / 8.0
    rows = []
    for t in t_grid:
        t = float(t)
        amp = np.exp(-1j * t * np.outer(lam, r.eigenvalues)) @ p
        f = float(np.sqrt(max(float(weights @ np.abs(amp) ** 2), 0.0)))
        bound = 1.0 - coeff * t ** 2
        rows.append(BoundRow(t=t, lhs=f, rhs=bound, passed=bool(f >= bound - 1e-12)))
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
    distribution dominated by one atom) the time is infinite.
    """
    if not delta_e > 0:
        raise ValueError("delta_e must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must sit strictly between 0 and 1")
    var = dist.variance
    small = float(np.sqrt(2.0 * epsilon / var)) if var > 0 else np.inf
    if var == 0.0:
        return CoherenceReport(epsilon=float(epsilon), tau_eps=np.inf,
                               c_eps=np.inf, delta_e=float(delta_e),
                               small_eps_c=small)

    target = 1.0 - epsilon

    def above(alpha):
        return abs(complex(dist.characteristic(alpha))) > target

    step = 0.1 * small
    lo, hi = 0.0, step
    found = False
    for _ in range(BRACKET_DOUBLINGS):
        if not above(hi):
            found = True
            break
        lo, hi = hi, hi * 2.0
    if not found:
        return CoherenceReport(epsilon=float(epsilon), tau_eps=np.inf,
                               c_eps=np.inf, delta_e=float(delta_e),
                               small_eps_c=small)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if above(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(hi, 1.0):
            break
    c = (lo + hi) / 2.0
    return CoherenceReport(epsilon=float(epsilon), tau_eps=float(c / delta_e),
                           c_eps=float(c), delta_e=float(delta_e),
                           small_eps_c=small)


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
        if np.any(p < -PROB_ATOL) or abs(p.sum() - 1.0) > PROB_ATOL:
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


def bath_embedding_check(h0, bath: BathModel, rho0, t: float, rho_bath=None) -> float:
    """Joint evolution with a pointer bath versus the unitary mixture.

    Builds the joint hamiltonian, evolves rho0 (x) rho_bath, traces out the
    bath and compares with the level-weighted mixture of system evolutions.
    Returns the operator-norm deviation, which is zero in exact arithmetic.
    """
    h = mat_of(h0)
    rho = mat_of(rho0)
    nb = len(bath.labels)
    if rho_bath is None:
        pops = np.asarray(bath.populations, dtype=float)
    else:
        rb = mat_of(rho_bath)
        if _max_abs(rb - np.diag(np.diag(rb))) > BATH_DIAG_ATOL:
            raise ValueError("bath state must be diagonal in the pointer basis")
        pops = np.real(np.diag(rb))
        if abs(pops.sum() - 1.0) > PROB_ATOL:
            raise ValueError("bath state must have unit trace")
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
    or with ``sites`` on those sites only) onto the ground code of h0. One
    row per time point and eigenvalue pair (m < n) of the compressed
    perturbation: predicted and simulated coherence magnitudes, the
    projected-evolution bound numbers and the fidelity pair, as plain
    floats. The start state enters the eigenframe as c c^dag, c = Q^dag psi.
    The gap bound and the simulation share one block pencil: one pattern
    scan, then nodes + 1 gated batched eigh calls per block size (one per
    magnitude node, one for g h0 + v), whatever len(t_grid), plus one
    eigvalsh of h0. The simulation reads only U^dag rho(t) U, U = B Q: per
    node and time it accumulates the k x 1 vector U^dag x of the evolved
    pure start x, normalized by the scalar full trace, so it holds k x k
    per time and no D x D state, generator or perturbation, and runs no
    full-size SVD or herm_eig. Quadrature weights must be nonnegative,
    which makes the mixture PSD; each k x k state is checked
    (``_simulated_code_block``).
    """
    code = r.code
    psi = _pure_code_vector(code, state)
    c = r.frame.conj().T @ psi
    frame0 = np.outer(c, c.conj())
    d = code.degeneracy
    pencil = _bound_pencil(h0, r, v, gap_factor, sites)
    gap_rows = _bound_rows(pencil, r, t_grid)
    lam, weights = dist.quadrature(nodes)
    fid_rows = _fidelity_rows(r, dist, np.abs(c) ** 2, lam, weights, t_grid)
    if np.any(weights < 0):
        raise ValueError("a mixture needs nonnegative weights and a PSD start")
    accs, traces = _mixture(pencil, lam, weights, (code.basis @ psi)[:, None], np.ones(1),
                            t_grid, reader=code.basis @ r.frame)
    rows = []
    for idx, t in enumerate(t_grid):
        t = float(t)
        pred_f = DensityOp(frame0 * dephasing_factors(r, dist, t), (d,)).matrix
        sim_f = _simulated_code_block(accs[idx], traces[idx])
        for m in range(d):
            for n in range(m + 1, d):
                rows.append({
                    "t": t,
                    "pair": f"{m}-{n}",
                    "predicted_coherence": float(abs(pred_f[m, n])),
                    "simulated_coherence": float(abs(sim_f[m, n])),
                    "gap_bound_lhs": gap_rows[idx].lhs,
                    "gap_bound_rhs": gap_rows[idx].rhs,
                    "fidelity": fid_rows[idx].lhs,
                    "fidelity_bound": fid_rows[idx].rhs,
                })
    return rows
