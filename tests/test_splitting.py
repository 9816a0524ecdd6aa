import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import min_scalar_distance
from splitlab.code_space import full_space_code, ground_subspace
from splitlab.models import four_two_two_model, repetition_model
from splitlab.operators import HermOp, embed, operator_norm, random_herm, random_projector
from splitlab.splitting import ids, kl_check, worst_single_site_ascent
from splitlab.code_space import CodeSubspace

Z = np.diag([1.0 + 0j, -1.0])
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])


def _repetition_code(n=3):
    return ground_subspace(repetition_model(n))


def test_repetition_z_splitting():
    model = repetition_model(3)
    code = ground_subspace(model)
    v = HermOp(embed(Z, (0,), model.system.dims), model.system.dims)
    r = ids(code, v)
    assert r.delta_e == pytest.approx(2.0, abs=1e-12)
    assert r.lambda_min == pytest.approx(-1.0, abs=1e-12)
    assert r.lambda_max == pytest.approx(1.0, abs=1e-12)
    assert r.alpha_opt == pytest.approx(0.0, abs=1e-12)
    assert r.kl_deviation == pytest.approx(1.0, abs=1e-12)


def test_repetition_x_detected():
    model = repetition_model(3)
    code = ground_subspace(model)
    v = HermOp(embed(X, (0,), model.system.dims), model.system.dims)
    r = ids(code, v)
    assert r.delta_e <= 1e-12
    ok, alpha = kl_check(code, v)
    assert ok and alpha == pytest.approx(0.0, abs=1e-12)


def test_report_carries_the_compressed_eigensystem(rng):
    code = ground_subspace(np.diag([0.0, 0.0, 0.0, 2.0, 3.0]).astype(complex))
    v = random_herm(5, rng, norm=None)
    r = ids(code, v)
    comp = code.basis.conj().T @ v @ code.basis
    assert r.code is code
    assert r.frame.shape == (3, 3)
    assert np.all(np.diff(r.eigenvalues) >= 0)
    assert r.eigenvalues[0] == r.lambda_min and r.eigenvalues[-1] == r.lambda_max
    assert_allclose(r.frame.conj().T @ r.frame, np.eye(3), atol=1e-12)
    assert_allclose(comp @ r.frame, r.frame * r.eigenvalues, atol=1e-12)
    assert_allclose(code.basis @ r.frame[:, -1], r.witness_psi.amplitudes, atol=0)


def test_witness_expectations_match_spread(rng):
    code = ground_subspace(np.diag([0.0, 0.0, 0.0, 2.0, 3.0]).astype(complex))
    v = random_herm(5, rng, norm=None)
    r = ids(code, v)
    e_psi = np.vdot(r.witness_psi.amplitudes, v @ r.witness_psi.amplitudes).real
    e_phi = np.vdot(r.witness_phi.amplitudes, v @ r.witness_phi.amplitudes).real
    assert e_psi - e_phi == pytest.approx(r.delta_e, abs=1e-9)


def test_duality_against_grid_oracle(rng):
    # the eigenvalue-spread route must match min_alpha ||PVP - alpha P||
    for _ in range(50):
        dim = int(rng.integers(3, 17))
        rank = int(rng.integers(1, dim))
        p = random_projector(dim, rank, rng)
        basis = np.linalg.eigh(p.matrix)[1][:, dim - rank:]
        code = CodeSubspace(basis=basis, gap=1.0, ground_energy=0.0, dims=(dim,))
        v = random_herm(dim, rng, norm=None)
        r = ids(code, v)
        oracle = min_scalar_distance(p.matrix, v)
        assert r.delta_e == pytest.approx(2.0 * oracle, abs=1e-6)
        assert r.kl_deviation == pytest.approx(oracle, abs=1e-6)


def test_splitting_shift_and_scale_invariance(rng):
    code = _repetition_code(3)
    v = random_herm(8, rng, norm=None)
    base = ids(code, v).delta_e
    shifted = ids(code, v + 0.37 * np.eye(8)).delta_e
    scaled = ids(code, -2.5 * v).delta_e
    assert shifted == pytest.approx(base, abs=1e-10)
    assert scaled == pytest.approx(2.5 * base, abs=1e-10)


def test_splitting_norm_bound(rng):
    code = _repetition_code(3)
    for _ in range(25):
        v = random_herm(8, rng, norm=None)
        assert ids(code, v).delta_e <= 2 * operator_norm(v) + 1e-9


def test_kl_check_identity_trivially_scalar():
    code = _repetition_code(3)
    ok, alpha = kl_check(code, np.eye(8, dtype=complex))
    assert ok and alpha == pytest.approx(1.0, abs=1e-12)


def test_kl_check_four_two_two_paulis():
    model = four_two_two_model()
    code = ground_subspace(model)
    for site in range(4):
        for pauli in (X, Y, Z):
            v = HermOp(embed(pauli, (site,), model.system.dims), model.system.dims)
            r = ids(code, v)
            assert r.kl_deviation <= 1e-10
            ok, _ = kl_check(code, v)
            assert ok


def test_full_space_code_splitting():
    code = full_space_code((2, 2, 2))
    v = embed(Z, [1], (2, 2, 2))
    assert ids(code, v).delta_e == pytest.approx(2.0, abs=1e-12)


# ------------------------------------------------------------------- ascent


def test_ascent_repetition_reaches_two():
    code = _repetition_code(3)
    report = worst_single_site_ascent(code, site=1, seed=5)
    assert report.certified_delta_e == pytest.approx(2.0, abs=1e-9)
    assert report.guarantee == "numeric"
    # re-measure independently
    v = embed(report.x.matrix, [1], code.dims)
    assert ids(code, v).delta_e == pytest.approx(report.certified_delta_e, abs=1e-9)


def test_ascent_trajectories_monotone(rng):
    code = ground_subspace(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
    code = CodeSubspace(basis=code.basis, gap=code.gap, ground_energy=0.0, dims=(2, 2))
    for seed in range(8):
        report = worst_single_site_ascent(code, site=0, seed=seed, iters=30)
        for traj in report.trajectories:
            diffs = np.diff(traj)
            assert np.all(diffs >= -1e-12)


def test_ascent_detected_code_stays_flat():
    code = ground_subspace(four_two_two_model())
    for site in range(4):
        report = worst_single_site_ascent(code, site=site, seed=2, iters=20)
        assert report.certified_delta_e <= 1e-9


def test_ascent_full_space_any_start():
    code = full_space_code((2, 2))
    for seed in (0, 1, 2, 3):
        report = worst_single_site_ascent(code, site=0, seed=seed)
        assert report.certified_delta_e == pytest.approx(2.0, abs=1e-9)


def test_ascent_honors_initial_ops():
    code = _repetition_code(4)
    report = worst_single_site_ascent(code, site=2, seed=0, iters=3, initial_ops=[Z])
    assert report.certified_delta_e == pytest.approx(2.0, abs=1e-12)


def test_ascent_site_out_of_range():
    code = _repetition_code(3)
    with pytest.raises(ValueError, match="site"):
        worst_single_site_ascent(code, site=3)


def test_ascent_rejects_zero_iters_before_any_work(monkeypatch):
    def no_ids(*args, **kwargs):
        raise AssertionError("ids ran for a rejected call")

    monkeypatch.setattr("splitlab.splitting.ids", no_ids)
    with pytest.raises(ValueError, match="iters must be >= 1"):
        worst_single_site_ascent(_repetition_code(), 0, iters=0)


@pytest.mark.parametrize("seed", range(4))
def test_ids_on_sites_matches_embedded_operator(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    g = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    basis, _ = np.linalg.qr(g)
    code = CodeSubspace(basis=basis, gap=1.0, ground_energy=0.0, dims=dims)
    for sites in ([0], [1], [2], [2, 0]):
        x = random_herm(int(np.prod([dims[s] for s in sites])), rng)
        local = ids(code, x, sites)
        dense = ids(code, embed(x, sites, dims))
        for f in ("delta_e", "lambda_min", "lambda_max", "alpha_opt", "kl_deviation"):
            assert getattr(local, f) == pytest.approx(getattr(dense, f), rel=0, abs=1e-14)
        assert_allclose(local.witness_psi.amplitudes, dense.witness_psi.amplitudes, atol=1e-12)
        assert_allclose(local.witness_phi.amplitudes, dense.witness_phi.amplitudes, atol=1e-12)


def test_ids_on_sites_rejects_mismatched_operator():
    code = _repetition_code(3)
    with pytest.raises(ValueError, match="support dims"):
        ids(code, np.eye(4), [0])
    with pytest.raises(ValueError, match="range"):
        ids(code, Z, [3])
