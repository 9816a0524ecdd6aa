import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import count_factorizations, random_ket, random_unitary
from oracles import pair_score_scan_loop, pair_side_norms_one
from splitlab.code_space import CodeSubspace, ground_subspace
from splitlab import no_hiding
from splitlab.models import four_two_two_model
from splitlab.no_hiding import (
    no_hiding_witness,
    no_hiding_witness_batch,
    pair_side_norms,
    subspace_pair_score_scan,
    two_site_attack,
)
from splitlab.operators import (
    Ket,
    Projector,
    embed,
    fidelity,
    helstrom,
    partial_trace,
    reduced_states,
    trace_norm,
)
from splitlab.splitting import ids


def _ket(vec, dims):
    v = np.asarray(vec, dtype=complex)
    return Ket(v / np.linalg.norm(v), tuple(dims))


def test_bell_span_witness_maximal():
    # orthogonal Bell states hide everything from both marginals, but the
    # superposition pair (b0 +- b1)/sqrt(2) = (|00>, |11>) is perfectly
    # distinguishable on either side: summed score 2 + 2
    b0 = _ket([1, 0, 0, 1], (2, 2))
    b1 = _ket([1, 0, 0, -1], (2, 2))
    w = no_hiding_witness(b0, b1)
    assert w.score == pytest.approx(4.0, abs=1e-9)
    assert w.candidate_id == 1
    # the input pair itself has identical marginals on A
    assert w.distance_d == pytest.approx(0.0, abs=1e-9)
    assert w.fidelity_f == pytest.approx(1.0, abs=1e-9)


def test_product_pair_witness():
    # b0 = |00>, b1 = |10>: differ only on site A
    b0 = _ket([1, 0, 0, 0], (2, 2))
    b1 = _ket([0, 0, 1, 0], (2, 2))
    w = no_hiding_witness(b0, b1)
    assert w.score == pytest.approx(2.0, abs=1e-9)
    assert w.candidate_id == 0
    assert w.side == "A"
    assert w.distance_d == pytest.approx(1.0, abs=1e-9)
    assert w.fidelity_f == pytest.approx(0.0, abs=1e-9)


def test_witness_floor_random_sweep(rng):
    for _ in range(200):
        raw0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        raw1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        raw1 = raw1 - (np.vdot(raw0, raw1) / np.vdot(raw0, raw0)) * raw0
        b0 = _ket(raw0, (2, 2))
        b1 = _ket(raw1, (2, 2))
        w = no_hiding_witness(b0, b1)
        assert w.score >= 2.0 / 3.0 - 1e-9
        assert w.score <= 4.0 + 1e-9
        assert w.score >= max(2.0 * w.distance_d, w.fidelity_f) - 1e-9


def test_side_norm_fidelity_identity(rng):
    # the A-side marginal fidelity of an orthogonal pair equals the trace
    # norm of the B-side coherence block Tr_A |b0><b1|
    for _ in range(50):
        raw0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        raw1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        raw1 = raw1 - (np.vdot(raw0, raw1) / np.vdot(raw0, raw0)) * raw0
        b0 = np.asarray(raw0 / np.linalg.norm(raw0))
        b1 = np.asarray(raw1 / np.linalg.norm(raw1))
        rho0a = partial_trace(np.outer(b0, b0.conj()), (2, 2), keep=[0])
        rho1a = partial_trace(np.outer(b1, b1.conj()), (2, 2), keep=[0])
        f_a = fidelity(rho0a, rho1a)
        coh_b = partial_trace(np.outer(b0, b1.conj()), (2, 2), keep=[1])
        assert f_a == pytest.approx(trace_norm(coh_b), abs=1e-9)


def test_witness_local_unitary_covariance(rng):
    raw0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    raw1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    raw1 = raw1 - (np.vdot(raw0, raw1) / np.vdot(raw0, raw0)) * raw0
    b0 = _ket(raw0, (2, 2))
    b1 = _ket(raw1, (2, 2))
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    c0 = Ket(u @ b0.amplitudes, (2, 2))
    c1 = Ket(u @ b1.amplitudes, (2, 2))
    w1 = no_hiding_witness(b0, b1)
    w2 = no_hiding_witness(c0, c1)
    assert w1.score == pytest.approx(w2.score, abs=1e-9)


def test_pair_side_norms_values():
    b0 = _ket([1, 0, 0, 0], (2, 2)).amplitudes
    b1 = _ket([0, 0, 0, 1], (2, 2)).amplitudes
    na, nb = pair_side_norms(b0, b1, (2, 2), a_sites=(0,))
    # |00> vs |11>: the marginals are orthogonal on both sides
    assert na == pytest.approx(2.0, abs=1e-12)
    assert nb == pytest.approx(2.0, abs=1e-12)
    b2 = _ket([0, 1, 0, 0], (2, 2)).amplitudes
    na, nb = pair_side_norms(b0, b2, (2, 2), a_sites=(0,))
    # |00> vs |01>: identical on A, orthogonal on B
    assert na == pytest.approx(0.0, abs=1e-12)
    assert nb == pytest.approx(2.0, abs=1e-12)


ALL_SHAPES = [(da, db) for da in range(2, 6) for db in range(2, 6)]


# the three first splits, then every other two-site shape with 2 <= d <= 5
@pytest.mark.parametrize("dims, a_sites", [((2, 3), (0,)), ((5, 4), (0,)),
                                            ((2, 3, 2), (0, 2))]
                         + [(dims, (0,)) for dims in ALL_SHAPES
                            if dims not in ((2, 3), (5, 4))])
@pytest.mark.parametrize("batch", [(), (3,), (4, 5)])
def test_pair_side_norms_batched_matches_per_pair(rng, dims, a_sites, batch):
    d = int(np.prod(dims))
    psi = rng.standard_normal(batch + (d,)) + 1j * rng.standard_normal(batch + (d,))
    phi = rng.standard_normal(batch + (d,)) + 1j * rng.standard_normal(batch + (d,))
    na, nb = pair_side_norms(psi, phi, dims, a_sites)
    if batch == ():
        assert isinstance(na, float) and isinstance(nb, float)
    assert np.shape(na) == batch and np.shape(nb) == batch
    for idx in np.ndindex(*batch):
        ref_a, ref_b = pair_side_norms_one(psi[idx], phi[idx], dims, a_sites)
        assert abs(np.asarray(na)[idx] - ref_a) <= 1e-12
        assert abs(np.asarray(nb)[idx] - ref_b) <= 1e-12


def test_pair_side_norms_rejects_nan():
    psi = _ket([1, 0, 0, 0], (2, 2)).amplitudes.copy()
    phi = _ket([0, 1, 0, 0], (2, 2)).amplitudes
    psi[2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        pair_side_norms(psi, phi, (2, 2), a_sites=(0,))
    with pytest.raises(ValueError, match="non-finite"):
        pair_side_norms(np.stack([phi, psi]), np.stack([psi, phi]), (2, 2), a_sites=(0,))


@pytest.mark.parametrize("dims, a_sites", [(dims, (0,)) for dims in ALL_SHAPES]
                         + [((2, 3, 2), (0, 2))])
def test_reduced_differences_are_bitwise_hermitian(rng, dims, a_sites):
    # pair_side_norms takes eigvalsh of these differences, which reads one
    # triangle only: entry (c, a) must be the exact conjugate of entry (a, c)
    d = int(np.prod(dims))
    pair = rng.standard_normal((2, 6, d)) + 1j * rng.standard_normal((2, 6, d))
    b_sites = [i for i in range(len(dims)) if i not in a_sites]
    for keep in (a_sites, b_sites):
        rho, sigma = reduced_states(pair, dims, keep)
        delta = rho - sigma
        assert np.array_equal(delta, delta.conj().mT)


def _random_pairs(rng):
    for dims in ((2, 2), (3, 5)):
        d = int(np.prod(dims))
        b0 = Ket(random_ket(d, rng), dims)
        raw = random_ket(d, rng)
        yield b0, _ket(raw - np.vdot(b0.amplitudes, raw) * b0.amplitudes, dims)


def test_scan_scores_its_grid_in_one_batch(rng, monkeypatch):
    # one eigvalsh per side for the whole grid, and no SVD
    calls = count_factorizations(monkeypatch)
    for b0, b1 in _random_pairs(rng):
        calls.clear()
        subspace_pair_score_scan(b0, b1, grid_n=24)
        assert (calls["svd"], calls["eigvalsh"]) == (0, 2)


def test_witness_scores_its_candidates_in_one_batch(rng, monkeypatch):
    # one eigvalsh per side for the three candidates, one eigvalsh for the
    # trace distance and one SVD inside the fidelity
    calls = count_factorizations(monkeypatch)
    for b0, b1 in _random_pairs(rng):
        calls.clear()
        no_hiding_witness(b0, b1)
        assert (calls["svd"], calls["eigvalsh"]) == (1, 3)


def test_witness_reads_its_fidelity_from_operators(rng):
    # one fidelity routine: the batch takes operators.fidelity of its stacks
    assert no_hiding.fidelity is fidelity
    assert not hasattr(no_hiding, "_psd_sqrt")
    b0s, b1s = _orthonormal_pairs((3, 2), 4, rng)
    rho0, rho1 = reduced_states(np.stack([b0s, b1s]), (3, 2), (0,))
    batch = no_hiding_witness_batch(b0s, b1s, (3, 2))
    assert [w.fidelity_f for w in batch] == [fidelity(a, b) for a, b in zip(rho0, rho1)]


def _orthonormal_pairs(dims, n, rng):
    d = int(np.prod(dims))
    q, _ = np.linalg.qr(rng.standard_normal((n, d, 2)) + 1j * rng.standard_normal((n, d, 2)))
    return q[..., 0], q[..., 1]


@pytest.mark.parametrize("dims", [(da, db) for da in range(2, 6) for db in range(2, 6)])
def test_witness_batch_matches_one_pair_calls(rng, dims):
    b0s, b1s = _orthonormal_pairs(dims, 7, rng)
    batch = no_hiding_witness_batch(b0s, b1s, dims, a_sites=(0,))
    assert len(batch) == 7
    for b0, b1, w in zip(b0s, b1s, batch):
        one = no_hiding_witness(Ket(b0, dims), Ket(b1, dims), a_sites=(0,))
        assert (w.score, w.candidate_id, w.side, w.side_norms) == \
            (one.score, one.candidate_id, one.side, one.side_norms)
        assert np.array_equal(w.psi.amplitudes, one.psi.amplitudes)
        assert np.array_equal(w.phi.amplitudes, one.phi.amplitudes)
        # D and F take stacked factorizations: equal to helstrom and
        # fidelity of the A-side reduced states up to rounding
        rho0 = partial_trace(np.outer(b0, b0.conj()), dims, [0])
        rho1 = partial_trace(np.outer(b1, b1.conj()), dims, [0])
        for wit in (w, one):
            assert abs(wit.distance_d - helstrom(rho0, rho1)[0]) <= 1e-12
            assert abs(wit.fidelity_f - fidelity(rho0, rho1)) <= 1e-12


def test_witness_batch_refuses_a_bad_member_anywhere(rng):
    b0s, b1s = _orthonormal_pairs((2, 3), 5, rng)
    scaled = b1s.copy()
    scaled[3] *= 1.001
    with pytest.raises(ValueError, match="ket norm .* is not 1"):
        no_hiding_witness_batch(b0s, scaled, (2, 3))
    with pytest.raises(ValueError, match="ket norm .* is not 1"):
        Ket(scaled[3], (2, 3))
    tilted = b1s.copy()
    tilted[2] = b0s[2]
    with pytest.raises(ValueError, match="basis kets are not orthogonal"):
        no_hiding_witness_batch(b0s, tilted, (2, 3))
    with pytest.raises(ValueError, match="basis kets are not orthogonal"):
        no_hiding_witness(Ket(b0s[2], (2, 3)), Ket(tilted[2], (2, 3)))
    with pytest.raises(ValueError, match="does not match dims"):
        no_hiding_witness_batch(b0s, b1s, (2, 2))
    assert no_hiding_witness_batch(b0s[:0], b1s[:0], (2, 3)) == []


def test_witness_floor_guard_still_fires(rng, monkeypatch):
    # a scoring fault that drops the score below max(2D, F, 2/3) must raise
    true_norms = no_hiding.pair_side_norms

    def low(*args):
        na, nb = true_norms(*args)
        return 0.1 * na, 0.1 * nb

    monkeypatch.setattr(no_hiding, "pair_side_norms", low)
    b0s, b1s = _orthonormal_pairs((3, 2), 4, rng)
    with pytest.raises(AssertionError, match="fell below its floor"):
        no_hiding_witness_batch(b0s, b1s, (3, 2))
    with pytest.raises(AssertionError, match="fell below its floor"):
        no_hiding_witness(Ket(b0s[0], (3, 2)), Ket(b1s[0], (3, 2)))


# -------------------------------------------------------------- attacks


def _code_from_projector(p, dims):
    vals, vecs = np.linalg.eigh(p)
    basis = vecs[:, vals > 0.5]
    return CodeSubspace(basis=basis, gap=1.0, ground_energy=0.0, dims=tuple(dims))


def test_two_site_attack_bell_projector():
    b0 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    b1 = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    p = np.outer(b0, b0.conj()) + np.outer(b1, b1.conj())
    report = two_site_attack(Projector(p, (2, 2)))
    assert report.certified_delta_e >= 1.0 / 3.0 - 1e-9
    assert report.guarantee == "analytic"
    # X must be a projector acting on one site
    x = report.x.matrix
    assert_allclose(x @ x, x, atol=1e-10)
    # re-measure the certificate as an actual compressed spread
    code = _code_from_projector(p, (2, 2))
    v = embed(x, [report.site], (2, 2))
    assert ids(code, v).delta_e >= report.certified_delta_e - 1e-9


def test_two_site_attack_random_codes(rng):
    for _ in range(40):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        dim = da * db
        rank = int(rng.integers(2, dim))
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        q, _ = np.linalg.qr(g)
        p = q @ q.conj().T
        report = two_site_attack(Projector(p, (da, db)))
        assert report.certified_delta_e >= 1.0 / 3.0 - 1e-9
        code = _code_from_projector(p, (da, db))
        v = embed(report.x.matrix, [report.site], (da, db))
        measured = ids(code, v).delta_e
        assert measured >= report.certified_delta_e - 1e-9


def test_two_site_attack_witnesses_returned():
    b0 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    b1 = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    p = np.outer(b0, b0.conj()) + np.outer(b1, b1.conj())
    report = two_site_attack(Projector(p, (2, 2)))
    psi, phi = report.witness_psi, report.witness_phi
    # both witnesses live in the code space
    assert np.linalg.norm(p @ psi.amplitudes - psi.amplitudes) <= 1e-9
    assert np.linalg.norm(p @ phi.amplitudes - phi.amplitudes) <= 1e-9


def test_two_site_attack_rank_one_rejected():
    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = 1.0
    with pytest.raises(ValueError, match="nothing to split"):
        two_site_attack(Projector(p, (2, 2)))


def test_two_site_attack_wrong_arity():
    with pytest.raises(ValueError, match="two"):
        two_site_attack(Projector(np.eye(8, dtype=complex), (2, 2, 2)))


def test_four_two_two_single_block_attack():
    # merging the four qubits into two ququarts makes the code 2-site;
    # the attack then certifies splitting by a 2-local (merged) operator
    from splitlab.models import block_sites

    model = block_sites(four_two_two_model(), [[0, 1], [2, 3]])
    code = ground_subspace(model)
    report = two_site_attack(code.projector)
    assert report.certified_delta_e >= 1.0 / 3.0 - 1e-9


# ----------------------------------------------------------------- scan


def test_scan_dominates_witness(rng):
    for _ in range(10):
        raw0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        raw1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        raw1 = raw1 - (np.vdot(raw0, raw1) / np.vdot(raw0, raw0)) * raw0
        b0 = _ket(raw0, (2, 2))
        b1 = _ket(raw1, (2, 2))
        w = no_hiding_witness(b0, b1)
        best = subspace_pair_score_scan(b0, b1, grid_n=16)
        assert best >= w.score - 1e-9
        assert best <= 4.0 + 1e-9


@pytest.mark.parametrize("grid_n", [16, 24])
def test_scan_matches_double_loop(rng, grid_n):
    for dims, a_sites in (((2, 2), (0,)), ((3, 4), (0,)), ((2, 3, 2), (0, 2))):
        d = int(np.prod(dims))
        g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        q, _ = np.linalg.qr(g)
        b0, b1 = Ket(q[:, 0], dims), Ket(q[:, 1], dims)
        best = subspace_pair_score_scan(b0, b1, a_sites=a_sites, grid_n=grid_n)
        ref = pair_score_scan_loop(q[:, 0], q[:, 1], dims, a_sites, grid_n)
        assert abs(best - ref) <= 1e-12


def test_scan_grid_validation():
    b0 = _ket([1, 0, 0, 0], (2, 2))
    b1 = _ket([0, 1, 0, 0], (2, 2))
    with pytest.raises(ValueError, match="grid"):
        subspace_pair_score_scan(b0, b1, grid_n=1)
