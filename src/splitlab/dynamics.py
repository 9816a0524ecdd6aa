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

from .code_space import CodeSubspace, ground_subspace, project_onto_code
from .operators import (
    DensityOp,
    Ket,
    herm_eig,
    herm_propagator,
    mat_of,
    operator_norm,
    partial_trace,
)
from .splitting import ids

LEAK_TOL = 1e-10            # initial-state weight allowed outside the code
PROB_ATOL = 1e-12           # discrete probabilities must sum to 1 this tightly
BATH_DIAG_ATOL = 1e-12      # off-diagonal bath-state weight allowed
DEFAULT_NODES = 64          # quadrature order for continuous magnitudes
RHO_FACTOR_CUT = 1e-13      # relative |eigenvalue| a start state's factor keeps
BRACKET_DOUBLINGS = 60      # growth steps before declaring no crossing


@dataclass(frozen=True)
class NoiseDistribution:
    """Distribution of the perturbation magnitude.

    Four closed-form families: ``gaussian``, ``uniform``, ``discrete`` and
    ``delta``. Each knows its moments, its characteristic function and a
    quadrature rule that integrates it either exactly (discrete, delta) or
    with spectral accuracy (gaussian, uniform).
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
        return cls("delta", (float(value),))

    @property
    def mean(self) -> float:
        if self.kind == "gaussian":
            return self.params[0]
        if self.kind == "uniform":
            a, b = self.params
            return (a + b) / 2
        if self.kind == "discrete":
            values, probs = self.params
            return float(np.dot(values, probs))
        return self.params[0]

    @property
    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.params[1] ** 2
        if self.kind == "uniform":
            a, b = self.params
            return (b - a) ** 2 / 12
        if self.kind == "discrete":
            values, probs = self.params
            m = self.mean
            return float(np.dot((np.asarray(values) - m) ** 2, probs))
        return 0.0

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
        if self.kind == "discrete":
            values, probs = self.params
            out = sum(
                p * np.exp(-1j * v * alpha) for v, p in zip(values, probs))
            return np.asarray(out, dtype=complex)
        return np.exp(-1j * self.params[0] * alpha)

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
        if self.kind == "discrete":
            values, probs = self.params
            return np.asarray(values, dtype=float), np.asarray(probs, dtype=float)
        if self.kind == "delta":
            return np.array([self.params[0]]), np.array([1.0])
        raise ValueError(f"no quadrature rule for distribution kind {self.kind!r}")


def characteristic_function(dist: NoiseDistribution, alpha):
    """Characteristic function of the magnitude, |value| <= 1 always."""
    return dist.characteristic(alpha)


@dataclass(eq=False)
class DephasingProfile:
    """Large-gap prediction data for one code and one perturbation.

    ``eigenvalues`` and ``eigenbasis`` diagonalize the compressed
    perturbation; ``eigenbasis`` columns are full-space vectors. The channel
    multiplies the (m, n) matrix element in this basis by the characteristic
    function at t times the eigenvalue difference.
    """

    code: CodeSubspace
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    dist: NoiseDistribution

    def factors(self, t: float) -> np.ndarray:
        diffs = self.eigenvalues[:, None] - self.eigenvalues[None, :]
        return self.dist.characteristic(float(t) * diffs)


def dephasing_profile(code: CodeSubspace, v, dist: NoiseDistribution) -> DephasingProfile:
    comp = project_onto_code(code, mat_of(v))
    w, u = herm_eig(comp.matrix)
    return DephasingProfile(
        code=code, eigenvalues=w, eigenbasis=code.basis @ u, dist=dist)


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


def predict_dephasing(code: CodeSubspace, v, dist: NoiseDistribution, rho0, t: float) -> DensityOp:
    """Large-gap channel output at time t for a code-supported state.

    Pure dephasing in the compressed perturbation's eigenbasis: the diagonal
    is time invariant and each off-diagonal element picks up the
    characteristic function at t times its eigenvalue gap.
    """
    profile = dephasing_profile(code, v, dist)
    comp = _code_frame_state(code, rho0)
    u = code.basis.conj().T @ profile.eigenbasis
    r = u.conj().T @ comp @ u
    r = r * profile.factors(t)
    out = profile.eigenbasis @ r @ profile.eigenbasis.conj().T
    return DensityOp(out, code.dims)


def _magnitude_samples(dist: NoiseDistribution, nodes: int,
                       mc_samples: int | None, seed: int):
    """Magnitudes and weights: the quadrature rule, or Monte Carlo draws."""
    if mc_samples is None:
        return dist.quadrature(nodes)
    rng = np.random.default_rng(seed)
    if dist.kind == "gaussian":
        mu, sigma = dist.params
        lam = rng.normal(mu, sigma, int(mc_samples))
    elif dist.kind == "uniform":
        a, b = dist.params
        lam = rng.uniform(a, b, int(mc_samples))
    elif dist.kind == "discrete":
        values, probs = dist.params
        lam = rng.choice(np.asarray(values), size=int(mc_samples), p=np.asarray(probs))
    else:
        lam = np.full(int(mc_samples), dist.params[0])
    return lam, np.full(lam.size, 1.0 / lam.size)


def _state_factor(rho0):
    """(A, s) with rho0 = A diag(s) A^dag and as few columns as possible.

    A 1-D array is a pure state and is its own one-column factor. A matrix
    goes through one herm_eig, which refuses non-hermitian input;
    eigenvalues with |s| at most RHO_FACTOR_CUT times the largest are
    dropped, so a pure density matrix keeps one column.
    """
    rho = mat_of(rho0)
    if rho.ndim == 1:
        return rho[:, None], np.ones(1)
    s, a = herm_eig(rho)
    keep = np.abs(s) > RHO_FACTOR_CUT * np.max(np.abs(s), initial=0.0)
    return a[:, keep], s[keep]


def evolve_mixture_grid(h0, v, dist: NoiseDistribution, rho0, t_grid,
                        gap_factor: float = 1.0, nodes: int = DEFAULT_NODES,
                        mc_samples: int | None = None, seed: int = 0) -> list:
    """``evolve_mixture`` at every time of ``t_grid``, one DensityOp each.

    ``rho0`` is a density matrix, or a pure state given as a 1-D amplitude
    vector. It is written once as A diag(s) A^dag (see
    ``_state_factor``; a pure state gives one column). Each magnitude node
    then costs one herm_eig of g h0 + lambda v, (e, Q), and the start
    factor is rotated once into that eigenbasis, c = Q^dag A. Each time
    adds w X diag(s) X^dag with X = Q (exp(-i t e) * c): O(D^2 r) per node
    and time for a rank-r start, against one D^3 eigendecomposition per
    node. Nodes are summed in ascending order into one D x D accumulator
    per time, so the output is bit-stable; the accumulators, and then the
    returned states, hold len(t_grid) D^2 complex entries.
    """
    h = mat_of(h0)
    vm = mat_of(v)
    dims = getattr(rho0, "dims", None) or getattr(h0, "dims", None) or (h.shape[0],)
    a, s = _state_factor(rho0)
    lam, weights = _magnitude_samples(dist, nodes, mc_samples, seed)
    times = [float(t) for t in t_grid]
    outs = [np.zeros(h.shape, dtype=complex) for _ in times]
    base = float(gap_factor) * h
    for lk, wk in zip(lam, weights):
        e, q = herm_eig(base + float(lk) * vm)
        c = q.conj().T @ a
        for out, t in zip(outs, times):
            x = q @ (np.exp(-1j * t * e)[:, None] * c)
            out += float(wk) * ((x * s) @ x.conj().T)
    for j, out in enumerate(outs):
        out = (out + out.conj().T) / 2
        outs[j] = DensityOp(out / np.trace(out).real, tuple(dims))
    return outs


def evolve_mixture(h0, v, dist: NoiseDistribution, rho0, t: float,
                   gap_factor: float = 1.0, nodes: int = DEFAULT_NODES,
                   mc_samples: int | None = None, seed: int = 0) -> DensityOp:
    """Average of exp(-i t (g h0 + lambda v)) rho exp(+...) over magnitudes.

    Discrete and point distributions are summed exactly; continuous ones use
    fixed-order quadrature so results are deterministic. A Monte Carlo mode
    (``mc_samples``) exists for stress tests only. This is
    ``evolve_mixture_grid`` on the one-point grid [t]: rho0 is factored by
    one herm_eig (a non-hermitian rho0 is refused), eigenvalues with |s| at
    most RHO_FACTOR_CUT times the largest are dropped, and each node costs
    one D^3 eigendecomposition plus O(D^2 r) for a rank-r start.
    Accumulation runs in ascending node order to keep the output bit-stable.
    """
    return evolve_mixture_grid(h0, v, dist, rho0, [t], gap_factor=gap_factor,
                               nodes=nodes, mc_samples=mc_samples, seed=seed)[0]


@dataclass(frozen=True)
class BoundRow:
    """One time point of an inequality check."""

    t: float
    lhs: float
    rhs: float
    passed: bool


def gap_bound_check(h0, v, gap_factor: float, t_grid) -> list:
    """Distance between true and code-projected evolution against its bound.

    lhs is the operator norm of exp(-i t (g h0 + v)) P minus
    exp(-i t P v P) P with P the ground projector of h0; rhs is
    (4 |v| / (g gap)) (|v| |t| + 1). The ground energy of h0 must already
    sit at 0, otherwise the comparison is phase-skewed and refused.
    Both generators are diagonalized once for the whole grid. With P = B B^dag
    for the orthonormal code basis B, the norm is taken of the D x k
    difference applied to B, which has the same singular values.
    """
    h = mat_of(h0)
    code = ground_subspace(h)
    if abs(code.ground_energy) > 1e-10 * max(1.0, operator_norm(h)):
        raise ValueError("shift the ground energy to 0 before checking the bound")
    p = code.projector.matrix
    vm = mat_of(v)
    vnorm = operator_norm(vm)
    g = float(gap_factor)
    e_full, q_full = herm_eig(g * h + vm)
    e_code, q_code = herm_eig(p @ vm @ p)
    c_full = q_full.conj().T @ code.basis
    c_code = q_code.conj().T @ code.basis
    rows = []
    for t in t_grid:
        t = float(t)
        lhs = operator_norm(q_full @ (np.exp(-1j * t * e_full)[:, None] * c_full)
                            - q_code @ (np.exp(-1j * t * e_code)[:, None] * c_code))
        rhs = (4.0 * vnorm / (g * code.gap)) * (vnorm * abs(t) + 1.0)
        rows.append(BoundRow(t=t, lhs=float(lhs), rhs=float(rhs), passed=bool(lhs <= rhs)))
    return rows


def worst_code_state(code: CodeSubspace, v) -> Ket:
    """Equal superposition of the extremal compressed eigenvectors.

    This state carries the largest-gap coherence, so it decoheres fastest
    and makes the fidelity bound tight to leading order.
    """
    r = ids(code, v)
    amp = (r.witness_psi.amplitudes + r.witness_phi.amplitudes) / np.sqrt(2.0)
    return Ket(amp / np.linalg.norm(amp), code.dims)


def _pure_code_vector(code: CodeSubspace, state) -> np.ndarray:
    if isinstance(state, Ket):
        vec = state.amplitudes
    else:
        arr = np.asarray(mat_of(state) if hasattr(state, "matrix") else state, dtype=complex)
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


def fidelity_bound_check(code: CodeSubspace, v, dist: NoiseDistribution,
                         t_grid, state=None, nodes: int = DEFAULT_NODES) -> list:
    """Mixture fidelity in the large-gap surrogate against its lower bound.

    The state evolves under the compressed generator lambda V_code for each
    magnitude node; F(t) is the root fidelity of the mixture with the start,
    and the bound is 1 - t^2 E[lambda^2] spread(V_code)^2 / 8. Each node's
    generator is diagonalized once for the whole grid; F(t)^2 is the
    weighted sum of |<psi| exp(-i t lambda V_code) |psi>|^2.
    """
    comp_v = project_onto_code(code, mat_of(v)).matrix
    spread = ids(code, v).delta_e
    if state is None:
        state = worst_code_state(code, v)
    psi = _pure_code_vector(code, state)
    lam, weights = dist.quadrature(nodes)
    coeff = dist.second_moment * spread ** 2 / 8.0
    times = [float(t) for t in t_grid]
    overlap2 = np.zeros(len(times))
    for lk, wk in zip(lam, weights):
        e, q = herm_eig(float(lk) * comp_v)
        c = q.conj().T @ psi
        for j, t in enumerate(times):
            evolved = q @ (np.exp(-1j * t * e) * c)
            overlap2[j] += float(wk) * abs(np.vdot(psi, evolved)) ** 2
    rows = []
    for t, f2 in zip(times, overlap2):
        f = float(np.sqrt(max(f2, 0.0)))
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

    @classmethod
    def thermal(cls, labels, energies, interactions, beta: float) -> "BathModel":
        """Populations proportional to exp(-beta energy)."""
        e = np.asarray(energies, dtype=float)
        w = np.exp(-float(beta) * (e - e.min()))
        return cls(labels=tuple(labels), energies=e, populations=w / w.sum(),
                   interactions=[np.asarray(mat_of(v), dtype=complex) for v in interactions])


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
        if float(np.max(np.abs(rb - np.diag(np.diag(rb))))) > BATH_DIAG_ATOL:
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


def dephasing_time_series(h0, code: CodeSubspace, v, dist: NoiseDistribution,
                          state, t_grid, gap_factor: float,
                          nodes: int = DEFAULT_NODES) -> list:
    """Row dicts comparing prediction, simulation and both bounds over time.

    One row per time point and eigenvalue pair (m < n) of the compressed
    perturbation: predicted and simulated coherence magnitudes for that
    pair, the projected-evolution bound numbers, and the fidelity pair.
    Column values are plain floats so callers can serialize them directly.
    The simulation passes the pure start vector to ``evolve_mixture_grid``
    as a one-column factor, so the whole grid costs one D^3
    eigendecomposition per magnitude node plus O(D^2) per node and time;
    the bound checks add two more full-size ones, whatever len(t_grid).
    """
    profile = dephasing_profile(code, v, dist)
    psi = _pure_code_vector(code, state)
    full_psi = code.basis @ psi
    rho0 = np.outer(full_psi, full_psi.conj())
    d = code.degeneracy
    u_frame = profile.eigenbasis
    gap_rows = gap_bound_check(h0, v, gap_factor, t_grid)
    fid_rows = fidelity_bound_check(code, v, dist, t_grid, state=state, nodes=nodes)
    simulated = evolve_mixture_grid(h0, v, dist, full_psi, t_grid,
                                    gap_factor=gap_factor, nodes=nodes)
    rows = []
    for idx, t in enumerate(t_grid):
        t = float(t)
        predicted = predict_dephasing(code, v, dist, rho0, t).matrix
        pred_f = u_frame.conj().T @ predicted @ u_frame
        sim_f = u_frame.conj().T @ simulated[idx].matrix @ u_frame
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
