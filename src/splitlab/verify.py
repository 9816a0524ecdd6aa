"""Self-check battery: re-measures every bound the library ships.

Each check draws seeded instances, recomputes a claimed inequality or
pinned value with an independent method where one exists, and reports the
worst measured margin against the pinned tolerance. ``quick`` trims the
instance counts to stay under a minute; ``full`` runs the complete battery.

The primitive under test in the marginal-identity check is looked up
through the operators module at call time on purpose, so a corrupted
install (or an injected fault in a mutation test) is caught rather than
shadowed by an import-time binding.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import replace

import numpy as np

from . import operators as ops
from .code_space import CodeSubspace, ground_subspace
from .dynamics import (
    BathModel,
    NoiseDistribution,
    bath_embedding_check,
    coherence_time,
    evolve_mixture_grid,
    fidelity_bound_check,
    gap_bound_check,
    predict_dephasing,
    worst_code_state,
)
from .models import (
    QuditSystem,
    block_sites,
    four_two_two_model,
    pauli_string_matrix,
    random_commuting_model,
    repetition_model,
    single_site_paulis,
    two_local_model,
)
from .no_hiding import no_hiding_witness_batch, subspace_pair_score_scan, two_site_attack
from .operators import (
    Ket,
    _max_abs,
    embed,
    haar_unitary,
    partial_trace,
    random_herm,
    random_projector,
)
from .report import LEVELS, verdict
from .splitting import ids
from .structure import commuting_model_attack, factor_ground_projector

def _code_from_projector(p: np.ndarray, dims) -> CodeSubspace:
    vals, vecs = np.linalg.eigh(p)
    return CodeSubspace(basis=vecs[:, vals > 0.5], gap=1.0, ground_energy=0.0,
                        dims=tuple(dims))


def _herm_norm(m: np.ndarray) -> float:
    """Operator norm of a hermitian matrix: its largest |eigenvalue|."""
    return _max_abs(np.linalg.eigvalsh(m))


def _scalar_distance_min(p: np.ndarray, v: np.ndarray) -> float:
    """min over real a of ||PvP - a P||, from three full-space norms of PvP - aP.

    Independent of the eigenvalue route: only norm evaluations of the full
    D x D matrix, no use of the compressed spectrum.

    P is an orthogonal projector, so f(a) = ||PvP - a P|| equals
    max(mu_max - a, a - mu_min) over the compressed eigenvalues mu: two
    branches of slope -1 and +1 that cross at the minimum
    a* = (mu_max + mu_min)/2. r = ||v|| + 1 lies beyond every mu, so the
    far ends read the branches exactly: f(-r) = mu_max + r and
    f(r) = r - mu_min. The result is f(a*), an evaluated norm.
    """
    pvp = p @ v @ p

    def f(a):
        return _herm_norm(pvp - a * p)

    r = _herm_norm(v) + 1.0
    mu_max = f(-r) - r
    mu_min = r - f(r)
    return f(0.5 * (mu_max + mu_min))


def _random_code_and_perturbation(rng):
    dim = int(rng.integers(2, 65))
    rank = int(rng.integers(1, dim))
    p = random_projector(dim, rank, rng).matrix
    v = random_herm(dim, rng, norm=float(rng.uniform(0.5, 2.0)))
    return p, _code_from_projector(p, (dim,)), v


def check_ids_duality(n_instances: int) -> list:
    rng = np.random.default_rng(401)
    worst = 0.0
    for _ in range(n_instances):
        p, code, v = _random_code_and_perturbation(rng)
        r = ids(code, v)
        twice_min = 2.0 * _scalar_distance_min(p, v)
        worst = max(worst, abs(twice_min - r.delta_e))
    return [verdict(
        "ids_duality_grid_oracle", worst, 1e-6, "<=",
        "splitting.ids: spread equals twice the best scalar approximation",
        f"{n_instances} random (projector, perturbation) instances, dim <= 64")]


def check_stabilizer_examples(max_n: int) -> list:
    worst_split = 0.0
    for n in range(3, max_n + 1):
        code = ground_subspace(repetition_model(n))
        v = embed(np.diag([1.0 + 0j, -1.0]), [0], (2,) * n)
        worst_split = max(worst_split, abs(ids(code, v).delta_e - 2.0))
    out = [verdict(
        "stabilizer_repetition_z_split", worst_split, 1e-12, "<=",
        "splitting.ids: single-site Z splits every repetition code by 2",
        f"repetition codes n = 3..{max_n}")]
    code = ground_subspace(four_two_two_model())
    worst_kl = 0.0
    for label in single_site_paulis(4):
        worst_kl = max(worst_kl, ids(code, pauli_string_matrix(label)).kl_deviation)
    out.append(verdict(
        "stabilizer_four_two_two_detection", worst_kl, 1e-10, "<=",
        "splitting.ids: distance-2 code detects all single-site errors",
        "12 single-site Paulis on the 4-qubit fixture"))
    return out


def _random_subspace_pairs(da, db, n, rng):
    """n random orthonormal pairs on a da x db split: the two columns of
    each matrix of an (n, da db, 2) stack. Each instance draws its real,
    then its imaginary part, as n one-instance draws would."""
    g = rng.standard_normal((n, 2, da * db, 2))
    q, _ = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    return q


def check_no_hiding(per_shape: int, scan_per_shape: int) -> list:
    rng = np.random.default_rng(402)
    floor = np.inf
    ceiling = 0.0
    shapes = [(da, db) for da in range(2, 6) for db in range(2, 6)]
    for dims in shapes:
        q = _random_subspace_pairs(*dims, per_shape, rng)
        floor = min(floor, float(np.min(no_hiding_witness_batch(q[..., 0], q[..., 1], dims))))
        for pair in q[:scan_per_shape]:
            b0, b1 = Ket(pair[:, 0], dims), Ket(pair[:, 1], dims)
            ceiling = max(ceiling, subspace_pair_score_scan(b0, b1))
    out = [
        verdict("no_hiding_witness_floor", floor, 2.0 / 3.0 - 1e-9, ">=",
                "no_hiding.no_hiding_witness: constructive distinguishability floor",
                f"{per_shape} random 2-dim subspaces per shape, sides 2..5 x 2..5"),
        verdict("no_hiding_scan_ceiling", ceiling, 4.0 + 1e-9, "<=",
                "no_hiding.subspace_pair_score_scan: score never exceeds both-sides total",
                f"{scan_per_shape} grid scans per shape"),
    ]
    # marginal identity: A-side fidelity equals the trace norm of the
    # B-side coherence block; exercises the norm primitive end to end
    worst = 0.0
    for _ in range(25):
        v0, v1 = _random_subspace_pairs(2, 3, 1, rng)[0].T
        rho0a = partial_trace(np.outer(v0, v0.conj()), (2, 3), keep=[0])
        rho1a = partial_trace(np.outer(v1, v1.conj()), (2, 3), keep=[0])
        f_a = ops.fidelity(rho0a, rho1a)
        coh_b = partial_trace(np.outer(v0, v1.conj()), (2, 3), keep=[1])
        worst = max(worst, abs(f_a - ops.trace_norm(coh_b)))
    out.append(verdict(
        "no_hiding_marginal_identity", worst, 1e-9, "<=",
        "operators.trace_norm: marginal fidelity equals cross-block trace norm",
        "25 random orthonormal pairs on a 2x3 split"))
    return out


def check_two_site_attack(n_instances: int) -> list:
    rng = np.random.default_rng(403)
    worst_cert = np.inf
    worst_gap = np.inf
    done = 0
    while done < n_instances:
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        dim = da * db
        rank = int(rng.integers(2, min(4, dim - 1) + 1))
        p = random_projector(dim, rank, rng, (da, db))
        report = two_site_attack(p)
        worst_cert = min(worst_cert, report.certified_delta_e)
        code = _code_from_projector(p.matrix, (da, db))
        v = embed(report.x.matrix, [report.site], (da, db))
        worst_gap = min(worst_gap, ids(code, v).delta_e - report.certified_delta_e)
        done += 1
    return [
        verdict("two_site_attack_floor", worst_cert, 1.0 / 3.0 - 1e-9, ">=",
                "no_hiding.two_site_attack: certified one-side splitting floor",
                f"{n_instances} random rank 2..4 projectors, sides up to 4x4"),
        verdict("two_site_attack_remeasure", worst_gap, -1e-9, ">=",
                "splitting.ids: independent re-measurement of each certificate",
                "splitting never lands below the certified value"),
    ]


def _bell_projector() -> np.ndarray:
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def _virtual_chain(pair_projector: np.ndarray, n: int, seed: int,
                   pin_first_mult: bool = False):
    """Chain of dim-4 sites hiding a C2 x C2 split, scrambled locally."""
    rng = np.random.default_rng(seed)
    h_small = np.eye(4, dtype=complex) - pair_projector
    term4 = embed(h_small, [1, 2], (2, 2, 2, 2))
    us = [haar_unitary(4, rng) for _ in range(n)]
    pair_terms = []
    for i in range(n - 1):
        u = np.kron(us[i], us[i + 1])
        pair_terms.append(((i, i + 1), u @ term4 @ u.conj().T))
    singles = None
    if pin_first_mult:
        q = np.kron(np.diag([0.0, 1.0]).astype(complex), np.eye(2))
        singles = [(0, us[0] @ q @ us[0].conj().T)]
    return two_local_model(QuditSystem((4,) * n), pair_terms,
                           single_site_terms=singles)


def _virtual_chains(level: str):
    """(name, model) of the virtual-pair chains both structural checks take."""
    chains = [("virtual_bell_chain", _virtual_chain(_bell_projector(), 3, 3))]
    if level == "full":
        rank2 = random_projector(4, 2, np.random.default_rng(9)).matrix
        chains += [
            ("virtual_rank2_chain", _virtual_chain(rank2, 3, 6)),
            ("virtual_pinned_chain",
             _virtual_chain(_bell_projector(), 3, 3, pin_first_mult=True)),
        ]
    return chains


def _attack_corpus(level: str):
    rep_top = 6 if level == "full" else 4
    corpus = [(f"repetition_{n}", repetition_model(n)) for n in range(3, rep_top + 1)]
    corpus.append(("four_two_two_blocked",
                   block_sites(four_two_two_model(), [[0, 1], [2, 3]])))
    chain_specs = [((3, 3, 2), [(0, 1), (1, 2)], 21),
                   ((2, 3, 2), [(0, 1), (1, 2)], 22)]
    if level == "full":
        chain_specs += [((3, 2, 3), [(0, 1), (1, 2)], 23),
                        ((2, 2, 3, 2), [(0, 1), (1, 2), (2, 3)], 24),
                        ((3, 3, 3), [(0, 1), (1, 2)], 25)]
    for dims, pairs, seed in chain_specs:
        model = random_commuting_model(QuditSystem(dims), pairs, seed=seed,
                                       ensure_ground_degeneracy=2)
        corpus.append((f"random_chain_seed{seed}", model))
    return corpus + _virtual_chains(level)


def check_commuting_attack(level: str) -> list:
    worst = np.inf
    worst_sector = np.inf
    names = []
    for name, model in _attack_corpus(level):
        report = commuting_model_attack(model, ground_subspace(model))
        worst = min(worst, report.certified_delta_e)
        if report.branch == "sector":
            floor = report.details["analytic_delta_e"]
            worst_sector = min(worst_sector, max(report.certified_delta_e, floor))
        names.append(f"{name}:{report.branch}")
    sector_detail = "sector-branch members of the corpus"
    if not np.isfinite(worst_sector):   # a branch with no instance certifies nothing
        worst_sector, sector_detail = 0.0, "no corpus member takes the sector branch"
    return [
        verdict("commuting_attack_floor", worst, 1.0 / 3.0 - 1e-9, ">=",
                "structure.commuting_model_attack: single-site splitting floor",
                "; ".join(names)),
        verdict("commuting_attack_sector_floor", worst_sector, 1.0 - 1e-9, ">=",
                "structure.multi_sector_attack: straddled sector splits by 1",
                sector_detail),
    ]


def check_gap_bound(t_points: int) -> list:
    rng = np.random.default_rng(404)
    decades = (10.0, 100.0, 1000.0, 10000.0)
    t_grid = np.linspace(0.0, 10.0, t_points)
    worst_margin = np.inf
    ratios = []
    for dims in ((2, 2), (2, 3), (3, 3)):
        d = int(np.prod(dims))
        h = random_herm(d, rng, norm=1.0)
        w = np.linalg.eigvalsh(h)
        h = h - w[0] * np.eye(d)
        v = random_herm(d, rng, norm=1.0)
        split = ids(ground_subspace(h), v)
        max_lhs = {}
        for g in decades:
            rows = gap_bound_check(h, split, v, g, t_grid)
            worst_margin = min(worst_margin,
                               min(r.rhs - r.lhs for r in rows))
            max_lhs[g] = max(r.lhs for r in rows)
        for g, g_next in zip(decades[:-1], decades[1:]):
            ratios.append(max_lhs[g] / max_lhs[g_next])
    out = [verdict(
        "projected_evolution_bound", worst_margin, 0.0, ">=",
        "dynamics.gap_bound_check: distance to projected evolution stays bounded",
        f"3 random two-site models, g in {tuple(decades)}, {t_points} times")]
    out.append(verdict(
        "projected_evolution_rate", min(ratios), 5.0, ">=",
        "dynamics.gap_bound_check: distance shrinks with the gap at the 1/g rate",
        f"max ratio {max(ratios):.3g}, all must sit in [5, 20]"))
    out.append(verdict(
        "projected_evolution_rate_ceiling", max(ratios), 20.0, "<=",
        "dynamics.gap_bound_check: shrink rate does not beat 1/g by a decade",
        f"min ratio {min(ratios):.3g}"))
    return out


def check_dephasing_scaling(t_points: int) -> list:
    model = repetition_model(3)
    h = model.hamiltonian()
    code = ground_subspace(model)
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    z1 = pauli_string_matrix("ZII")
    v_leaky = pauli_string_matrix("XII") + z1
    cases = [(v, ids(code, v)) for v in (z1, v_leaky)]
    rho0 = worst_code_state(cases[0][1]).density()
    t_grid = np.linspace(0.0, 5.0, t_points)
    worst_finite = 0.0
    worst_surrogate = 0.0
    for v, r in cases:
        compressed = code.basis @ (
            code.basis.conj().T @ v @ code.basis) @ code.basis.conj().T
        sims = evolve_mixture_grid(h, v, dist, rho0, t_grid, gap_factor=1e3)
        surros = evolve_mixture_grid(np.zeros_like(v), compressed, dist, rho0, t_grid)
        for t, sim, surro in zip(t_grid, sims, surros):
            predicted = predict_dephasing(r, dist, rho0, t).matrix
            worst_finite = max(worst_finite, _max_abs(sim.matrix - predicted))
            worst_surrogate = max(worst_surrogate, _max_abs(surro.matrix - predicted))
    return [
        verdict("dephasing_prediction_finite_gap", worst_finite, 5e-2, "<=",
                "dynamics.predict_dephasing: matches the mixture at gap factor 1e3",
                f"repetition code, gaussian magnitude, {t_points} times on [0, 5]"),
        verdict("dephasing_prediction_surrogate", worst_surrogate, 1e-9, "<=",
                "dynamics.predict_dephasing: exact for the compressed generator",
                "same grid, evolution generated inside the code space"),
    ]


def check_coherence_time() -> list:
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    rep = coherence_time(dist, 2.0, 0.01)
    oracle = np.sqrt(2.0 * abs(np.log(0.99))) / 0.1 / 2.0
    out = [verdict(
        "coherence_time_pinned", abs(rep.tau_eps - oracle), 1e-3, "<=",
        "dynamics.coherence_time: bisection agrees with closed-form inversion",
        f"tau {rep.tau_eps:.7f} vs inversion {oracle:.7f}")]
    doubled = coherence_time(dist, 4.0, 0.01)
    out.append(verdict(
        "coherence_time_scaling", abs(doubled.tau_eps - rep.tau_eps / 2.0), 1e-9, "<=",
        "dynamics.coherence_time: time is inverse in the splitting",
        "doubling the splitting halves the time"))
    small = coherence_time(dist, 1.0, 1e-4)
    rel = abs(small.c_eps - small.small_eps_c) / small.small_eps_c
    out.append(verdict(
        "coherence_time_small_epsilon", rel, 1e-2, "<=",
        "dynamics.coherence_time: sqrt(2 eps / var) limit at small eps",
        f"relative gap {rel:.3g} at eps = 1e-4"))
    return out


def check_fidelity_bound(t_points: int) -> list:
    cases = [
        (repetition_model(3), pauli_string_matrix("ZII"),
         NoiseDistribution.gaussian(0.0, 0.1)),
        (repetition_model(4), pauli_string_matrix("ZIII"),
         NoiseDistribution.uniform(-0.5, 0.5)),
        (repetition_model(3), pauli_string_matrix("ZZI"),
         NoiseDistribution.discrete([(1.0, 0.5), (-1.0, 0.5)])),
    ]
    worst = np.inf
    t_grid = np.linspace(0.0, 2.0, t_points)
    for model, v, dist in cases:
        rows = fidelity_bound_check(ids(ground_subspace(model), v), dist, t_grid)
        worst = min(worst, min(r.lhs - r.rhs for r in rows))
    return [verdict(
        "fidelity_lower_bound", worst, -1e-12, ">=",
        "dynamics.fidelity_bound_check: quadratic fidelity floor holds",
        f"3 fixtures, {t_points} times on [0, 2], worst state each")]


def check_bath_embedding(t_points: int) -> list:
    model = repetition_model(3)
    h = model.hamiltonian()
    rho0 = worst_code_state(ids(ground_subspace(model), pauli_string_matrix("ZII"))).density()
    v = pauli_string_matrix("XII") + pauli_string_matrix("ZII")
    worst = 0.0
    for energies, beta in (([0.0, 0.7], 1.3), ([0.0, 0.4, 1.1], 0.9)):
        e = np.asarray(energies)
        wts = np.exp(-beta * e)
        wts = wts / wts.sum()
        dist = NoiseDistribution.discrete(
            [(float(k) - 1.0, float(p)) for k, p in enumerate(wts)])
        bath = BathModel.from_discrete(dist, v, energies=e)
        for t in np.linspace(0.0, 3.0, t_points):
            worst = max(worst, bath_embedding_check(h, bath, rho0, float(t)))
    return [verdict(
        "bath_embedding_deviation", worst, 1e-10, "<=",
        "dynamics.bath_embedding_check: pointer bath reproduces the mixture",
        f"2- and 3-level thermal baths, {t_points} times each")]


def check_factorization(level: str) -> list:
    rng = np.random.default_rng(12)
    pa = random_projector(4, 2, rng).matrix
    pb = random_projector(4, 2, rng).matrix
    disconnected = two_local_model(
        QuditSystem((2, 2, 2, 2)),
        [((0, 1), np.eye(4) - pa), ((2, 3), np.eye(4) - pb)])
    fixtures = [("disconnected_pairs", disconnected)] + _virtual_chains(level)
    if level == "full":
        fixtures.append(
            ("nondegenerate_chain",
             random_commuting_model(QuditSystem((3, 3, 2)), [(0, 1), (1, 2)], seed=31)))
    worst = 0.0
    names = []
    for name, model in fixtures:
        code = ground_subspace(model)
        fz = factor_ground_projector(model, code)
        worst = max(worst, fz.reconstruction_error)
        names.append(name)
    return [verdict(
        "factorization_residual", worst, 1e-6, "<=",
        "structure.factor_ground_projector: code projector factors over pairs",
        "; ".join(names))]


class LaneError(RuntimeError):
    """A battery worker process ended without handing back its results."""


# The standard variables that size a linear-algebra thread pool.
POOL_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_pool_thread() -> bool:
    """Whether the standard variables hold linear algebra to one thread: at
    least one of POOL_VARS is set and none that is set asks for more."""
    sizes = [os.environ[v].strip() for v in POOL_VARS if v in os.environ]
    return bool(sizes) and all(size == "1" for size in sizes)


def _lanes(groups: int) -> int:
    """Processes to run ``groups`` check groups on: one per CPU this process
    may use, at most one per group, when linear algebra runs on one thread.

    1 where fork or the affinity call is missing; while another thread
    runs, since a forked child holds a copy of whatever lock that thread
    held; and when a BLAS or OpenMP pool may start more threads, which
    lanes would oversubscribe and which an OpenMP runtime may not survive
    a fork with."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1 or not _one_pool_thread():
        return 1
    return max(1, min(groups, len(os.sched_getaffinity(0))))


def _run_lane(plan: list, tickets: int) -> dict:
    """{index: results} of the groups this lane pulls from the ticket pipe.

    One byte is one group index; the lane runs and times each group it
    reads until the pipe is empty. A lane whose group raises drains the
    pipe first, so the other lanes stop after their current group.
    """
    done = {}
    try:
        while ticket := os.read(tickets, 1):
            i = ticket[0]
            t0 = time.perf_counter()
            out = plan[i]()
            dt = time.perf_counter() - t0
            done[i] = [replace(r, seconds=round(dt, 3)) for r in out]
    except BaseException:
        while os.read(tickets, 256):
            pass
        raise
    return done


def _portable(exc: BaseException) -> BaseException:
    """``exc``, or a RuntimeError of its repr when it does not survive pickling."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(repr(exc))
    return exc


def _fork_lane(plan: list, tickets: int) -> tuple:
    """(pid, read end of its result pipe) of a worker process that runs one lane.

    The worker pickles ("ok", {index: results}) or ("raised", exception,
    traceback text) onto the pipe and leaves through os._exit, so it flushes
    no stdio buffer the parent also holds and runs no atexit handler. An
    interrupt in the worker travels like any exception.
    """
    rd, wr = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rd)
        os.close(wr)
        raise
    if pid:
        os.close(wr)
        return pid, rd
    try:
        os.close(rd)
        try:
            payload = ("ok", _run_lane(plan, tickets))
        except BaseException as exc:
            import traceback
            payload = ("raised", _portable(exc), traceback.format_exc())
        with os.fdopen(wr, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
    finally:
        os._exit(0)


def _collect(pid: int, rd: int) -> dict:
    """The results of worker ``pid`` from its pipe ``rd``; reaps it and closes ``rd``.

    Re-raises the worker's exception, its traceback text as the cause, and
    raises LaneError with the wait status for a worker that sent nothing.
    """
    try:
        with os.fdopen(rd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        code = os.waitstatus_to_exitcode(status)
        how = f"exit code {code}" if code >= 0 else f"signal {-code}"
        raise LaneError(f"battery worker {pid} ended with wait status {status} "
                        f"({how}) and no results")
    payload = pickle.loads(data)
    if payload[0] == "raised":
        raise payload[1] from LaneError(f"in battery worker {pid}:\n{payload[2]}")
    return payload[1]


def run_battery(level: str = "quick") -> list:
    """All acceptance checks at the requested scale, in criterion order.

    The check groups are independent, each with its own seeds, so they run
    on _lanes(len(plan)) lanes: the calling process and a forked worker per
    further lane. Every lane pulls group indices, in plan order, from one
    ticket pipe that holds them all; the heavy groups come first, so that
    balances the lanes. With one lane nothing is forked. The results are
    merged in plan order, so they do not depend on the lane count. Every
    worker is reaped however the battery ends.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    full = level == "full"
    plan = [
        lambda: check_ids_duality(500 if full else 60),
        lambda: check_stabilizer_examples(8 if full else 5),
        lambda: check_no_hiding(1000 if full else 40, 10 if full else 2),
        lambda: check_two_site_attack(200 if full else 40),
        lambda: check_commuting_attack(level),
        lambda: check_gap_bound(50 if full else 15),
        lambda: check_dephasing_scaling(11 if full else 6),
        lambda: check_coherence_time(),
        lambda: check_fidelity_bound(21 if full else 9),
        lambda: check_bath_embedding(20 if full else 8),
        lambda: check_factorization(level),
    ]
    tickets, feed = os.pipe()
    os.write(feed, bytes(range(len(plan))))
    os.close(feed)
    workers = []
    try:
        for _ in range(_lanes(len(plan)) - 1):
            try:
                workers.append(_fork_lane(plan, tickets))
            except OSError:     # no process to spare: run on the lanes forked so far
                break
        done = _run_lane(plan, tickets)
        while workers:
            done.update(_collect(*workers.pop(0)))
    finally:
        os.close(tickets)
        for pid, rd in workers:
            os.close(rd)
            os.waitpid(pid, 0)
    return [r for i in range(len(plan)) for r in done[i]]
