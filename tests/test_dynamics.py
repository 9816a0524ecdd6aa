"""Dephasing prediction, mixture simulation, bounds, coherence time, baths."""

import numpy as np
import pytest
from scipy.integrate import quad

import splitlab.operators
from conftest import random_density
from splitlab.code_space import ground_subspace
from splitlab import dynamics
from splitlab.dynamics import (
    BathModel,
    NoiseDistribution,
    bath_embedding_check,
    coherence_time,
    dephasing_factors,
    dephasing_time_series,
    evolve_mixture_grid,
    fidelity_bound_check,
    gap_bound_check,
    predict_dephasing,
    worst_code_state,
)
from splitlab.models import (
    QuditSystem,
    pauli_string_matrix,
    random_commuting_model,
    repetition_model,
)
from splitlab.operators import (
    Ket,
    embed,
    fidelity,
    herm_propagator,
    mat_of,
    operator_norm,
)
from splitlab.splitting import ids

Z1_ON_3 = pauli_string_matrix("ZII")
X_ALL_3 = pauli_string_matrix("XXX")


def _rep_code(n=3):
    model = repetition_model(n)
    return model, ground_subspace(model)


def _plus_logical(n=3):
    amp = np.zeros(2 ** n, dtype=complex)
    amp[0] = 1 / np.sqrt(2)
    amp[-1] = 1 / np.sqrt(2)
    return Ket(amp, (2,) * n)


# characteristic functions


def test_delta_characteristic_is_pure_phase():
    d = NoiseDistribution.delta(0.8)
    alphas = np.linspace(-4, 4, 41)
    vals = d.characteristic(alphas)
    assert np.allclose(np.abs(vals), 1.0, atol=1e-14)
    assert np.allclose(vals, np.exp(-1j * 0.8 * alphas), atol=1e-14)


def test_gaussian_characteristic_closed_form():
    d = NoiseDistribution.gaussian(0.0, 0.3)
    alphas = np.linspace(-5, 5, 11)
    assert np.allclose(d.characteristic(alphas),
                       np.exp(-0.045 * alphas ** 2), atol=1e-14)


def test_gaussian_characteristic_vs_quadrature_oracle():
    d = NoiseDistribution.gaussian(0.4, 0.5)
    for alpha in (0.3, 1.1, 2.7):
        re = quad(lambda x: np.cos(x * alpha) * np.exp(-(x - 0.4) ** 2 / 0.5)
                  / np.sqrt(0.5 * np.pi), -6, 7)[0]
        im = quad(lambda x: -np.sin(x * alpha) * np.exp(-(x - 0.4) ** 2 / 0.5)
                  / np.sqrt(0.5 * np.pi), -6, 7)[0]
        assert abs(complex(d.characteristic(alpha)) - (re + 1j * im)) < 1e-9


def test_uniform_characteristic_vs_quadrature_oracle():
    a, b = -0.3, 0.7
    d = NoiseDistribution.uniform(a, b)
    for alpha in (0.0, 1.7, 9.3):
        re = quad(lambda x: np.cos(x * alpha) / (b - a), a, b)[0]
        im = quad(lambda x: -np.sin(x * alpha) / (b - a), a, b)[0]
        assert abs(complex(d.characteristic(alpha)) - (re + 1j * im)) < 1e-10


def test_discrete_characteristic_two_point():
    d = NoiseDistribution.discrete([(1.0, 0.5), (-1.0, 0.5)])
    alphas = np.linspace(0, 6, 13)
    assert np.allclose(d.characteristic(alphas), np.cos(alphas), atol=1e-14)


def test_characteristic_small_argument_taylor():
    for d in (NoiseDistribution.gaussian(0.2, 0.4),
              NoiseDistribution.uniform(-1.0, 0.5),
              NoiseDistribution.discrete([(0.3, 0.25), (-0.5, 0.75)])):
        for alpha in (1e-3, 3e-3):
            got = abs(complex(d.characteristic(alpha)))
            assert abs(got - (1 - 0.5 * d.variance * alpha ** 2)) < 5e-10


def test_moments():
    g = NoiseDistribution.gaussian(1.5, 0.2)
    assert g.mean == 1.5 and abs(g.variance - 0.04) < 1e-15
    u = NoiseDistribution.uniform(0.0, 1.0)
    assert abs(u.mean - 0.5) < 1e-15 and abs(u.variance - 1 / 12) < 1e-15
    dd = NoiseDistribution.discrete([(2.0, 0.5), (0.0, 0.5)])
    assert abs(dd.mean - 1.0) < 1e-15 and abs(dd.variance - 1.0) < 1e-15
    assert abs(dd.second_moment - 2.0) < 1e-15
    assert NoiseDistribution.delta(3.0).variance == 0.0
    # a point mass is the one-atom discrete law
    assert NoiseDistribution.delta(3.0) == NoiseDistribution.discrete([(3.0, 1.0)])


def test_quadrature_reproduces_characteristic():
    for d in (NoiseDistribution.gaussian(0.1, 0.4),
              NoiseDistribution.uniform(-0.5, 1.2),
              NoiseDistribution.discrete([(0.7, 0.3), (-0.2, 0.7)]),
              NoiseDistribution.delta(0.6)):
        lam, w = d.quadrature(64)
        assert abs(w.sum() - 1.0) < 1e-12
        assert abs(np.dot(w, lam) - d.mean) < 1e-12
        for alpha in (0.5, 2.0):
            direct = np.dot(w, np.exp(-1j * lam * alpha))
            assert abs(direct - complex(d.characteristic(alpha))) < 1e-10


def test_distribution_validation():
    with pytest.raises(ValueError, match="positive"):
        NoiseDistribution.gaussian(0.0, 0.0)
    with pytest.raises(ValueError, match="b > a"):
        NoiseDistribution.uniform(1.0, 1.0)
    with pytest.raises(ValueError, match="sum"):
        NoiseDistribution.discrete([(1.0, 0.6), (-1.0, 0.6)])
    with pytest.raises(ValueError, match="negative"):
        NoiseDistribution.discrete([(1.0, 1.5), (-1.0, -0.5)])


# dephasing prediction


def test_predict_t0_is_identity_channel():
    model, code = _rep_code()
    dist = NoiseDistribution.gaussian(0.0, 0.3)
    rho0 = _plus_logical().density()
    out = predict_dephasing(ids(code, Z1_ON_3), dist, rho0, 0.0)
    assert np.allclose(out.matrix, rho0, atol=1e-12)


def test_predict_repetition_gaussian_closed_form():
    # Z on one qubit splits the code by 2; the logical plus state's
    # off-diagonal shrinks by exp(-sigma^2 (2t)^2 / 2).
    model, code = _rep_code()
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    rho0 = _plus_logical().density()
    basis = code.basis
    for t in (0.5, 1.0, 3.0):
        out = predict_dephasing(ids(code, Z1_ON_3), dist, rho0, t)
        comp = basis.conj().T @ out.matrix @ basis
        expect = 0.5 * np.exp(-0.01 * (2 * t) ** 2 / 2)
        assert abs(abs(comp[0, 1]) - expect) < 1e-12
        assert abs(comp[0, 0] - 0.5) < 1e-12 and abs(comp[1, 1] - 0.5) < 1e-12


def test_predict_preserves_compressed_eigenstates():
    model, code = _rep_code()
    dist = NoiseDistribution.gaussian(0.0, 0.5)
    # |000> is an eigenvector of the compressed Z1.
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    rho0 = np.outer(amp, amp.conj())
    out = predict_dephasing(ids(code, Z1_ON_3), dist, rho0, 2.0)
    assert np.allclose(out.matrix, rho0, atol=1e-12)


def test_predict_zero_perturbation_is_trivial():
    model, code = _rep_code()
    dist = NoiseDistribution.gaussian(0.0, 0.5)
    rho0 = _plus_logical().density()
    out = predict_dephasing(ids(code, np.zeros((8, 8))), dist, rho0, 4.0)
    assert np.allclose(out.matrix, rho0, atol=1e-12)


def test_predict_delta_magnitude_keeps_coherence_magnitude():
    model, code = _rep_code()
    dist = NoiseDistribution.delta(0.7)
    rho0 = _plus_logical().density()
    basis = code.basis
    out = predict_dephasing(ids(code, Z1_ON_3), dist, rho0, 1.3)
    comp = basis.conj().T @ out.matrix @ basis
    assert abs(abs(comp[0, 1]) - 0.5) < 1e-12


def test_predict_rejects_leaky_state():
    model, code = _rep_code()
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    amp = np.zeros(8, dtype=complex)
    amp[1] = 1.0  # excited state, outside the code
    with pytest.raises(ValueError, match="leak"):
        predict_dephasing(ids(code, Z1_ON_3), dist, np.outer(amp, amp.conj()), 1.0)


def test_profile_factors_collapse_on_eigenvalue_gaps():
    model, code = _rep_code()
    dist = NoiseDistribution.gaussian(0.2, 0.3)
    r = ids(code, Z1_ON_3)
    for t in (0.4, 1.9):
        diffs = r.eigenvalues[:, None] - r.eigenvalues[None, :]
        expect = dist.characteristic(t * diffs)
        assert np.allclose(dephasing_factors(r, dist, t), expect, atol=1e-10)
        assert np.allclose(np.diag(dephasing_factors(r, dist, t)), 1.0, atol=1e-14)


# mixture simulation and the projected-evolution bound


def test_mixture_discrete_matches_exact_sum():
    model, code = _rep_code()
    h = model.hamiltonian()
    dist = NoiseDistribution.discrete([(1.0, 0.5), (-1.0, 0.5)])
    rho0 = _plus_logical().density()
    t, g = 0.8, 50.0
    out = evolve_mixture_grid(h, Z1_ON_3, dist, rho0, [t], gap_factor=g)[0].matrix
    acc = np.zeros_like(rho0)
    for lam in (1.0, -1.0):
        u = herm_propagator(g * h.matrix + lam * Z1_ON_3, t)
        acc += 0.5 * (u @ rho0 @ u.conj().T)
    assert np.allclose(out, acc, atol=1e-12)


def _mixture_by_propagators(h, v, dist, rho0, t, g, nodes):
    # per-time reference: one propagator per node, applied as U rho U^dag
    lam, w = dist.quadrature(nodes)
    acc = np.zeros_like(rho0)
    for lk, wk in zip(lam, w):
        u = herm_propagator(g * h + lk * v, t)
        acc += wk * (u @ rho0 @ u.conj().T)
    return acc / np.trace(acc).real


def test_mixture_grid_matches_per_time_propagators(rng):
    model, _ = _rep_code()
    h = model.hamiltonian().matrix
    v = pauli_string_matrix("XII") + Z1_ON_3
    dist = NoiseDistribution.gaussian(0.0, 0.3)
    t_grid = [0.0, 0.4, 1.1, 2.5]
    pure = _plus_logical()
    mixed = random_density(8, rng)
    assert np.linalg.matrix_rank(mixed) == 8
    starts = ((pure.amplitudes, pure.density()), (pure.density(), pure.density()),
              (mixed, mixed))
    for start, rho0 in starts:
        grid = evolve_mixture_grid(h, v, dist, start, t_grid, gap_factor=20.0, nodes=12)
        assert len(grid) == len(t_grid)
        for t, out in zip(t_grid, grid):
            ref = _mixture_by_propagators(h, v, dist, rho0, t, 20.0, 12)
            assert np.max(np.abs(out.matrix - ref)) < 1e-12


@pytest.mark.parametrize("model", [
    repetition_model(6),
    random_commuting_model(QuditSystem((3, 2, 3)), [(0, 1), (1, 2)], seed=2),
], ids=["repetition", "random_commuting"])
def test_generator_placement_matches_the_embedded_sum_bit_for_bit(model, rng):
    # the pencil's blocks of g h0 + lambda v, with v on two sites given locally
    # or as the full D x D operator on all sites, equal the blocks of
    # g h0 + lambda embed(m), signed zeros too, and that sum is zero off them
    h = model.hamiltonian().matrix
    dims = model.system.dims
    sites = [2, 0]
    d_sup = dims[2] * dims[0]
    m = rng.standard_normal((d_sup, d_sup)) + 1j * rng.standard_normal((d_sup, d_sup))
    m = m + m.conj().T
    m[0, 1] = m[1, 0] = 0.0
    full = embed(m, sites, dims)
    for g in (1.0, 1000.0):
        base = g * h
        for local, on in ((m, sites), (full, None)):
            pencil = dynamics._BlockPencil(h, local, on, dims, g)
            inside = np.zeros(h.shape, dtype=bool)
            for idx in pencil.blocks:
                inside[idx[:, :, None], idx[:, None, :]] = True
            assert sorted(np.concatenate([i.ravel() for i in pencil.blocks])) == list(range(len(h)))
            for lam in (-1.7, 0.0, 0.3):
                want = base + lam * full
                assert not want[~inside].any()
                for idx, got in zip(pencil.blocks, pencil.generator(lam), strict=True):
                    ref = want[idx[:, :, None], idx[:, None, :]]
                    for part in ("real", "imag"):
                        a, b = getattr(got, part), getattr(ref, part)
                        assert np.array_equal(a, b)
                        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_dynamics_on_sites_equal_the_full_operator():
    # the local form moves nothing but |v|, read from the small matrix
    model, code = _rep_code(4)
    h = model.hamiltonian()
    m = pauli_string_matrix("X") + pauli_string_matrix("Z")
    v = embed(m, [1], code.dims)
    r = ids(code, m, [1])
    dist = NoiseDistribution.gaussian(0.0, 0.2)
    t_grid = [0.0, 0.7, 2.0]
    start = worst_code_state(r)
    local = dephasing_time_series(h, r, m, dist, start, t_grid, 50.0, nodes=6, sites=[1])
    full = dephasing_time_series(h, r, v, dist, start, t_grid, 50.0, nodes=6)
    for a, b in zip(local, full, strict=True):
        assert a["gap_bound_lhs"] == b["gap_bound_lhs"]
        assert a["simulated_coherence"] == b["simulated_coherence"]
        assert a["gap_bound_rhs"] == pytest.approx(b["gap_bound_rhs"], rel=1e-15, abs=0)
    amp = start.amplitudes
    for a, b in zip(evolve_mixture_grid(h, m, dist, amp, t_grid, 50.0, nodes=6, sites=[1]),
                    evolve_mixture_grid(h, v, dist, amp, t_grid, 50.0, nodes=6)):
        assert np.array_equal(a.matrix, b.matrix)


def test_time_series_on_sites_runs_no_full_size_svd(monkeypatch):
    # |v| is the norm of the site matrix and the ground-energy guard reads
    # |h0| from its spectrum, so every operator_norm input is D x k or smaller
    model, code = _rep_code(4)
    m = pauli_string_matrix("X") + pauli_string_matrix("Z")
    shapes = []

    def recording(matrix):
        shapes.append(np.shape(mat_of(matrix)))
        return operator_norm(matrix)

    monkeypatch.setattr(dynamics, "operator_norm", recording)
    r = ids(code, m, [1])
    dephasing_time_series(model.hamiltonian(), r, m, NoiseDistribution.gaussian(0.0, 0.1),
                          worst_code_state(r), [0.0, 1.0], 100.0, nodes=4, sites=[1])
    assert shapes and max(max(s) for s in shapes) == 16
    assert (16, 16) not in shapes


def test_mixture_rejects_nonhermitian_start():
    model, _ = _rep_code()
    rho0 = _plus_logical().density()
    rho0[0, 7] += 1e-3
    with pytest.raises(ValueError, match="hermitian"):
        evolve_mixture_grid(model.hamiltonian(), Z1_ON_3, NoiseDistribution.delta(0.5),
                            rho0, [1.0])


def test_time_series_diagonalizes_each_node_once(factorizations):
    # no full-size herm_eig: one pattern scan for the run's one pencil, then
    # one batched block eigh per magnitude node plus one for the gap bound's
    # g h0 + v, whatever the number of time points; the mixture grid alone
    # makes one per node
    model, code = _rep_code(8)
    h = model.hamiltonian()
    v = embed(pauli_string_matrix("X") + pauli_string_matrix("Z"), [3], code.dims)
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    r = ids(code, v)
    start = worst_code_state(r)
    full, scans, stacked = factorizations
    for nodes in (4, 9):
        for num in (2, 5):
            t_grid = np.linspace(0.0, 2.0, num)
            for call, want in ((lambda: dephasing_time_series(h, r, v, dist, start, t_grid,
                                                              gap_factor=100.0, nodes=nodes),
                                nodes + 1),
                               (lambda: evolve_mixture_grid(h, v, dist, start.amplitudes, t_grid,
                                                            gap_factor=100.0, nodes=nodes),
                                nodes)):
                full.clear()
                scans.clear()
                stacked.clear()
                call()
                assert full == []
                assert len(scans) == 1
                assert stacked == [(128, 2, 2)] * want


def _four_two_two_blocked():
    from splitlab.models import block_sites, four_two_two_model
    return block_sites(four_two_two_model(), [[0, 1], [2, 3]])


def _oracle_cases():
    # (name, model, sites, m, scan floor): a split pattern (repetition,
    # D = 256), one component at D = 128 (random_commuting), and
    # 4-dimensional sites ([[4,2,2]] blocked, D = 16), whole and, with the
    # block scan's floor lowered, split into blocks of 4
    rng = np.random.default_rng(11)
    rc = random_commuting_model(QuditSystem((2,) * 7), [(i, i + 1) for i in range(6)],
                                seed=5, ensure_ground_degeneracy=2)
    m4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m4 = (m4 + m4.conj().T) / 4
    floor = splitlab.operators.BLOCK_SCAN_MIN_DIM
    return [
        ("repetition", repetition_model(8), [3],
         pauli_string_matrix("X") + pauli_string_matrix("Z"), floor),
        ("random_commuting", rc, [2, 5], pauli_string_matrix("XZ"), floor),
        ("four_two_two", _four_two_two_blocked(), [1], m4, floor),
        ("four_two_two_split", _four_two_two_blocked(), [1],
         np.kron(pauli_string_matrix("X"), np.eye(2)), 2),
    ]


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
def test_block_pencil_matches_the_per_time_propagator_oracle(case, rng, monkeypatch):
    name, model, sites, m, floor = case
    monkeypatch.setattr(splitlab.operators, "BLOCK_SCAN_MIN_DIM", floor)
    h = model.hamiltonian()
    dims = model.system.dims
    code = ground_subspace(model)
    v = embed(m, sites, dims)
    d = len(h.matrix)
    lab = splitlab.operators._pattern_blocks(
        (h.matrix != 0) | (v != 0) | (h.matrix != 0).T | (v != 0).T)
    assert (lab is None) == (name in ("random_commuting", "four_two_two"))
    r = ids(code, m, sites)
    dist = NoiseDistribution.gaussian(0.1, 0.3)
    t_grid = [0.0, 0.7, 2.3]
    g, nodes = 20.0, 5
    psi = worst_code_state(r)
    u_frame = code.basis @ r.frame
    refs = {}
    mixed = random_density(d, rng)
    for label, rho0 in (("pure", psi.density()), ("mixed", mixed)):
        refs[label] = [_mixture_by_propagators(h.matrix, v, dist, rho0, t, g, nodes)
                       for t in t_grid]
    starts = (("pure", psi.amplitudes), ("pure", psi.density()), ("mixed", mixed))
    for form in ((m, sites), (v, None)):
        pairs = [(i, j) for i in range(code.degeneracy) for j in range(i + 1, code.degeneracy)]
        for state in (psi.amplitudes, psi.density()):
            rows = dephasing_time_series(h, r, form[0], dist, state, t_grid, g, nodes=nodes,
                                         sites=form[1])
            assert len(rows) == len(t_grid) * len(pairs)
            for k, row in enumerate(rows):
                ref = u_frame.conj().T @ refs["pure"][k // len(pairs)] @ u_frame
                i, j = pairs[k % len(pairs)]
                assert abs(row["simulated_coherence"] - abs(ref[i, j])) < 1e-12
        for label, start in starts:
            grid = evolve_mixture_grid(h, form[0], dist, start, t_grid, g, nodes=nodes,
                                       sites=form[1])
            for out, ref in zip(grid, refs[label], strict=True):
                assert np.max(np.abs(out.matrix - ref)) < 1e-12
            # the code-frame reading of the same mixture, any start
            a, s = dynamics._state_factor(start)
            lam, w = dist.quadrature(nodes)
            pencil = dynamics._BlockPencil(h, form[0], form[1], dims, g)
            accs, traces = dynamics._mixture(pencil, lam, w, a, s, t_grid, reader=u_frame)
            for acc, tr, ref in zip(accs, traces, refs[label], strict=True):
                assert np.max(np.abs(acc / tr - u_frame.conj().T @ ref @ u_frame)) < 1e-12


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
def test_gap_bound_rows_match_the_dense_formulation(case, monkeypatch):
    name, model, sites, m, floor = case
    monkeypatch.setattr(splitlab.operators, "BLOCK_SCAN_MIN_DIM", floor)
    h = model.hamiltonian().matrix
    code = ground_subspace(model)
    v = embed(m, sites, model.system.dims)
    proj = code.basis @ code.basis.conj().T
    pvp = proj @ v @ proj
    vnorm = operator_norm(v)
    t_grid = [0.0, 0.4, 1.5]
    for g in (10.0, 300.0):
        for form in ((m, sites), (v, None)):
            rows = gap_bound_check(model.hamiltonian(), ids(code, m, sites), form[0], g,
                                   t_grid, sites=form[1])
            for row, t in zip(rows, t_grid, strict=True):
                dense = operator_norm(herm_propagator(g * h + v, t) @ proj
                                      - herm_propagator(pvp, t) @ proj)
                assert abs(row.lhs - dense) < 1e-12
                rhs = 4.0 * vnorm / (g * code.gap) * (vnorm * t + 1.0)
                assert abs(row.rhs - rhs) < 1e-12
                assert row.passed == (row.lhs <= row.rhs)


def test_pencil_refuses_a_nonhermitian_perturbation_as_herm_eig_does():
    model, code = _rep_code(8)
    h = model.hamiltonian()
    m = pauli_string_matrix("X") + pauli_string_matrix("Z")
    m[0, 1] += 1e-3
    v = embed(m, [3], code.dims)
    with pytest.raises(ValueError) as dense:
        splitlab.operators.herm_eig(20.0 * h.matrix + 0.3 * v)
    r = ids(code, pauli_string_matrix("Z"), [3])
    dist = NoiseDistribution.discrete([(0.3, 1.0)])
    for form in ((m, [3]), (v, None)):
        with pytest.raises(ValueError) as got:
            evolve_mixture_grid(h, form[0], dist, worst_code_state(r).amplitudes, [1.0],
                                gap_factor=20.0, sites=form[1])
        assert str(got.value) == str(dense.value) == "input is too far from hermitian"
        with pytest.raises(ValueError, match="^input is too far from hermitian$"):
            gap_bound_check(h, r, form[0], 20.0, [1.0], sites=form[1])
    with pytest.raises(ValueError, match="^input is too far from hermitian$"):
        dephasing_time_series(h, r, m, dist, worst_code_state(r), [1.0], 20.0, sites=[3])


def test_time_series_memory_stays_at_code_size():
    # D = 1024, 11 times, 8 nodes: the simulation holds k x k per time, no
    # D x D state, generator or accumulator (one complex D x D is 16 MiB)
    import tracemalloc

    model, code = _rep_code(10)
    h = model.hamiltonian()
    m = pauli_string_matrix("X") + pauli_string_matrix("Z")
    r = ids(code, m, [0])
    start = worst_code_state(r)
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    tracemalloc.start()
    try:
        rows = dephasing_time_series(h, r, m, dist, start, np.linspace(0.0, 5.0, 11), 1000.0,
                                     nodes=8, sites=[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 11
    assert peak <= 40 * 2 ** 20


def test_mixture_exact_when_perturbation_commutes():
    # Z1 commutes with the stabilizer terms, so the mixture equals the
    # large-gap prediction at any gap, machine precision.
    model, code = _rep_code()
    h = model.hamiltonian()
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    rho0 = _plus_logical().density()
    t = 1.0
    predicted = predict_dephasing(ids(code, Z1_ON_3), dist, rho0, t).matrix
    sim = evolve_mixture_grid(h, Z1_ON_3, dist, rho0, [t], gap_factor=10.0)[0].matrix
    assert operator_norm(sim - predicted) < 1e-12


def test_mixture_converges_to_prediction_as_gap_grows():
    # an X component leaks out of the code, so the agreement is only
    # asymptotic in the gap
    model, code = _rep_code()
    h = model.hamiltonian()
    v = pauli_string_matrix("XII") + Z1_ON_3
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    rho0 = _plus_logical().density()
    t = 1.0
    predicted = predict_dephasing(ids(code, v), dist, rho0, t).matrix
    errs = []
    for g in (10.0, 100.0, 1000.0):
        sim = evolve_mixture_grid(h, v, dist, rho0, [t], gap_factor=g)[0].matrix
        errs.append(operator_norm(sim - predicted))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-2


def test_gap_bound_holds_and_scales():
    model, code = _rep_code()
    h = model.hamiltonian()
    v = pauli_string_matrix("XII") + Z1_ON_3
    vnorm = operator_norm(v)
    t_grid = np.linspace(0.0, 2.0, 9)
    lhs_by_g = {}
    for g in (10.0, 100.0, 1000.0, 10000.0):
        rows = gap_bound_check(h, ids(code, v), v, g, t_grid)
        assert all(r.passed for r in rows)
        assert rows[0].t == 0.0 and rows[0].lhs < 1e-12
        assert abs(rows[0].rhs - 4.0 * vnorm / (g * code.gap)) < 1e-12
        lhs_by_g[g] = max(r.lhs for r in rows)
    # worst-case distance shrinks like 1/g within a factor of 3
    for g in (10.0, 100.0, 1000.0):
        ratio = lhs_by_g[g] / lhs_by_g[10 * g]
        assert 10.0 / 3.0 < ratio < 30.0


def test_gap_bound_requires_zero_ground_energy():
    model, code = _rep_code()
    shifted = model.hamiltonian().matrix + 0.5 * np.eye(8)
    with pytest.raises(ValueError, match="ground energy"):
        gap_bound_check(shifted, ids(ground_subspace(shifted), Z1_ON_3), Z1_ON_3, 100.0,
                        [0.5])


def test_gap_bound_rejects_code_of_another_hamiltonian():
    model, code = _rep_code()
    h = model.hamiltonian()
    _, code4 = _rep_code(4)
    with pytest.raises(ValueError, match="dims"):
        gap_bound_check(h, ids(code4, pauli_string_matrix("ZIII")), Z1_ON_3, 100.0, [0.5])
    with pytest.raises(ValueError, match="dims"):
        gap_bound_check(h, ids(ground_subspace(h.matrix), Z1_ON_3), Z1_ON_3, 100.0, [0.5])


# fidelity bound


def test_fidelity_bound_t0_and_shape():
    model, code = _rep_code()
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    rows = fidelity_bound_check(ids(code, Z1_ON_3), dist, [0.0, 0.5, 1.0])
    assert rows[0].lhs == pytest.approx(1.0, abs=1e-12)
    assert rows[0].rhs == pytest.approx(1.0, abs=1e-12)
    assert all(r.passed for r in rows)


def test_fidelity_bound_repetition_values():
    # second moment 0.01, spread 2: bound is 1 - 0.005 t^2
    model, code = _rep_code()
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    t_grid = [0.3, 0.9, 1.5]
    rows = fidelity_bound_check(ids(code, Z1_ON_3), dist, t_grid)
    for r, t in zip(rows, t_grid):
        assert abs(r.rhs - (1.0 - 0.005 * t ** 2)) < 1e-12
        assert r.lhs >= r.rhs - 1e-12
        # the worst state saturates to leading order
        assert r.lhs - r.rhs < 0.01 * t ** 4 + 1e-9


def test_fidelity_bound_eigenstate_stays_at_one():
    model, code = _rep_code()
    dist = NoiseDistribution.gaussian(0.0, 0.4)
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    rows = fidelity_bound_check(ids(code, Z1_ON_3), dist, [2.0, 5.0],
                                state=Ket(amp, (2, 2, 2)))
    for r in rows:
        assert r.lhs == pytest.approx(1.0, abs=1e-10)


def test_fidelity_bound_rejects_mixed_state():
    model, code = _rep_code()
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    mixed = 0.5 * np.outer([1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]) \
        + 0.5 * np.outer([0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="mixed"):
        fidelity_bound_check(ids(code, Z1_ON_3), dist, [0.5], state=mixed.astype(complex))


def test_worst_code_state_is_plus_logical_for_repetition():
    model, code = _rep_code()
    psi = worst_code_state(ids(code, Z1_ON_3))
    rho = psi.density()
    target = _plus_logical().density()
    # equal superposition of the extremal eigenvectors, up to phases
    comp = code.basis.conj().T @ rho @ code.basis
    assert abs(abs(comp[0, 1]) - 0.5) < 1e-10


def test_simulated_fidelity_respects_bound_at_large_gap():
    model, code = _rep_code()
    h = model.hamiltonian()
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    psi = worst_code_state(ids(code, Z1_ON_3))
    rho0 = psi.density()
    for t in (0.5, 1.0):
        sim = evolve_mixture_grid(h, Z1_ON_3, dist, rho0, [t], gap_factor=1e4)[0]
        f = fidelity(sim.matrix, rho0)
        assert f >= 1.0 - 0.005 * t ** 2 - 1e-3


# coherence time


def test_coherence_time_gaussian_pinned():
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    rep = coherence_time(dist, 2.0, 0.01)
    assert rep.c_eps == pytest.approx(1.4177684, abs=1e-6)
    assert rep.tau_eps == pytest.approx(0.7088842, abs=1e-6)
    assert rep.c_eps == pytest.approx(np.sqrt(2 * abs(np.log(0.99))) / 0.1, abs=1e-9)
    assert rep.tau_eps == pytest.approx(rep.c_eps / 2.0, abs=1e-12)
    assert rep.small_eps_c == pytest.approx(np.sqrt(2), abs=1e-12)


def test_coherence_time_halves_when_splitting_doubles():
    dist = NoiseDistribution.uniform(-0.5, 0.5)
    r1 = coherence_time(dist, 1.0, 0.05)
    r2 = coherence_time(dist, 2.0, 0.05)
    assert r2.tau_eps == pytest.approx(r1.tau_eps / 2.0, rel=1e-12)
    assert r2.c_eps == pytest.approx(r1.c_eps, rel=1e-12)


def test_coherence_time_delta_is_infinite():
    rep = coherence_time(NoiseDistribution.delta(0.9), 1.0, 0.01)
    assert np.isinf(rep.tau_eps) and np.isinf(rep.c_eps)


def test_coherence_time_small_epsilon_approximation():
    dist = NoiseDistribution.gaussian(0.0, 0.25)
    rep = coherence_time(dist, 1.0, 1e-6)
    assert rep.c_eps == pytest.approx(rep.small_eps_c, rel=1e-3)


def test_coherence_time_crossing_is_exact():
    dist = NoiseDistribution.uniform(-1.0, 1.0)
    rep = coherence_time(dist, 3.0, 0.1)
    assert abs(abs(complex(dist.characteristic(rep.c_eps))) - 0.9) < 1e-10
    assert rep.tau_eps == pytest.approx(rep.c_eps / 3.0, abs=1e-12)


def test_coherence_time_validation():
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    with pytest.raises(ValueError, match="delta_e"):
        coherence_time(dist, 0.0, 0.01)
    with pytest.raises(ValueError, match="epsilon"):
        coherence_time(dist, 1.0, 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        coherence_time(dist, 1.0, 1.0)


# bath embedding


def test_bath_single_level_is_exact_unitary():
    model, code = _rep_code()
    h = model.hamiltonian()
    dist = NoiseDistribution.discrete([(0.6, 1.0)])
    bath = BathModel.from_discrete(dist, Z1_ON_3)
    rho0 = _plus_logical().density()
    dev = bath_embedding_check(h, bath, rho0, 1.2)
    assert dev < 1e-12


def test_bath_two_level_matches_mixture():
    model, code = _rep_code()
    h = model.hamiltonian()
    dist = NoiseDistribution.discrete([(1.0, 0.5), (-1.0, 0.5)])
    bath = BathModel.from_discrete(dist, Z1_ON_3, energies=[0.3, -0.2])
    rho0 = _plus_logical().density()
    for t in (0.0, 0.9, 2.4):
        dev = bath_embedding_check(h, bath, rho0, t)
        assert dev < 1e-10


def test_bath_thermal_populations():
    # Boltzmann populations at beta = 2 over levels whose interactions are
    # not multiples of one operator
    vs = [np.eye(2, dtype=complex), pauli_string_matrix("Z")]
    w = np.exp([0.0, -2.0])
    bath = BathModel(labels=("a", "b"), energies=np.array([0.0, 1.0]),
                     populations=w / w.sum(), interactions=vs)
    h = np.diag([0.0, 1.0]).astype(complex)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert bath_embedding_check(h, bath, rho0, 1.5) < 1e-10


def test_bath_rejects_nondiagonal_state():
    dist = NoiseDistribution.discrete([(1.0, 0.5), (-1.0, 0.5)])
    bath = BathModel.from_discrete(dist, Z1_ON_3)
    model, _ = _rep_code()
    rho_bath = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="diagonal"):
        bath_embedding_check(model.hamiltonian(), bath, _plus_logical().density(),
                             0.5, rho_bath=rho_bath)


def test_bath_explicit_diagonal_state_overrides_populations():
    dist = NoiseDistribution.discrete([(1.0, 0.5), (-1.0, 0.5)])
    bath = BathModel.from_discrete(dist, Z1_ON_3)
    model, _ = _rep_code()
    rho_bath = np.diag([0.9, 0.1]).astype(complex)
    dev = bath_embedding_check(model.hamiltonian(), bath, _plus_logical().density(),
                               0.8, rho_bath=rho_bath)
    assert dev < 1e-10


def test_bath_validation():
    with pytest.raises(ValueError, match="discrete"):
        BathModel.from_discrete(NoiseDistribution.gaussian(0, 1), Z1_ON_3)
    with pytest.raises(ValueError, match="one entry per level"):
        BathModel(labels=("a",), energies=np.zeros(2), populations=np.ones(1),
                  interactions=[np.eye(2)])


# time series rows


def test_time_series_schema_and_agreement():
    model, code = _rep_code()
    h = model.hamiltonian()
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    psi = _plus_logical()
    t_grid = [0.0, 0.6, 1.2]
    rows = dephasing_time_series(h, ids(code, Z1_ON_3), Z1_ON_3, dist, psi, t_grid,
                                 gap_factor=1000.0)
    assert len(rows) == len(t_grid)  # one pair for a 2-dim code
    cols = {"t", "pair", "predicted_coherence", "simulated_coherence",
            "gap_bound_lhs", "gap_bound_rhs", "fidelity", "fidelity_bound"}
    for row in rows:
        assert set(row) == cols
        assert row["pair"] == "0-1"
        assert row["gap_bound_lhs"] <= row["gap_bound_rhs"]
        assert row["fidelity"] >= row["fidelity_bound"] - 1e-12
        assert abs(row["predicted_coherence"] - row["simulated_coherence"]) < 5e-3
    assert rows[0]["predicted_coherence"] == pytest.approx(0.5, abs=1e-12)
    assert rows[0]["simulated_coherence"] == pytest.approx(0.5, abs=1e-12)


def test_time_series_prediction_matches_closed_form():
    model, code = _rep_code()
    h = model.hamiltonian()
    dist = NoiseDistribution.gaussian(0.0, 0.1)
    rows = dephasing_time_series(h, ids(code, Z1_ON_3), Z1_ON_3, dist, _plus_logical(),
                                 [0.8], gap_factor=100.0)
    expect = 0.5 * np.exp(-0.01 * (2 * 0.8) ** 2 / 2)
    assert rows[0]["predicted_coherence"] == pytest.approx(expect, abs=1e-12)
