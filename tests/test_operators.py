import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_density, random_ket, random_unitary
from splitlab.operators import (
    DensityOp,
    HermOp,
    Ket,
    Projector,
    _fix_phases,
    embed,
    fidelity,
    helstrom,
    herm_eig,
    herm_propagator,
    operator_norm,
    partial_trace,
    random_herm,
    tensor,
    trace_norm,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0 + 0j, -1.0])
I2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------- containers


def test_ket_rejects_unnormalized():
    with pytest.raises(ValueError, match="norm"):
        Ket(np.array([1.0, 1.0]), (2,))


def test_ket_rejects_wrong_length():
    with pytest.raises(ValueError, match="dims"):
        Ket(np.array([1.0, 0.0, 0.0]), (2,))


def test_hermop_rejects_nonhermitian():
    with pytest.raises(ValueError, match="hermitian"):
        HermOp(np.array([[0, 1], [0, 0]], dtype=complex), (2,))


def test_density_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityOp(m, (2,))


def test_density_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityOp(np.diag([0.7, 0.7]).astype(complex), (2,))


def test_projector_rejects_nonidempotent():
    with pytest.raises(ValueError, match="idempotent"):
        Projector(0.5 * np.eye(2), (2,))


def test_projector_rank_inferred():
    p = Projector(np.diag([1.0, 1.0, 0.0]).astype(complex), (3,))
    assert p.rank == 2


# ---------------------------------------------------------------- tensor / embed


def test_tensor_kets_and_ops():
    k0 = Ket(np.array([1.0, 0.0]), (2,))
    k1 = Ket(np.array([0.0, 1.0]), (2,))
    k = tensor([k0, k1])
    assert k.dims == (2, 2)
    assert_allclose(k.amplitudes, [0, 1, 0, 0])

    zz = tensor([HermOp(Z, (2,)), HermOp(Z, (2,))])
    assert_allclose(zz.matrix, np.kron(Z, Z))
    assert zz.dims == (2, 2)


def test_tensor_rejects_mixed_and_empty():
    with pytest.raises(TypeError):
        tensor([Ket(np.array([1.0, 0]), (2,)), HermOp(Z, (2,))])
    with pytest.raises(ValueError):
        tensor([])


def test_embed_single_site():
    assert_allclose(embed(Z, [1], (2, 2)), np.kron(I2, Z))
    assert_allclose(embed(Z, [0], (2, 2)), np.kron(Z, I2))


def test_embed_unsorted_support():
    # operator given on (site2, site0) order
    m = np.kron(X, Z)  # X on site 2, Z on site 0
    got = embed(m, [2, 0], (2, 3, 2))
    want = np.kron(Z, np.kron(np.eye(3), X))
    assert_allclose(got, want, atol=1e-14)


def test_embed_rejects_bad_support():
    with pytest.raises(ValueError):
        embed(Z, [0, 0], (2, 2))
    with pytest.raises(ValueError):
        embed(Z, [3], (2, 2))


# ---------------------------------------------------------------- partial trace


def test_partial_trace_product_state(rng):
    a = random_density(2, rng)
    b = random_density(3, rng)
    ab = np.kron(a, b)
    assert_allclose(partial_trace(ab, (2, 3), [0]), a, atol=1e-12)
    assert_allclose(partial_trace(ab, (2, 3), [1]), b, atol=1e-12)


def test_partial_trace_all_traced(rng):
    m = random_density(6, rng)
    out = partial_trace(m, (2, 3), [])
    assert out.shape == (1, 1)
    assert_allclose(out[0, 0], 1.0, atol=1e-12)


def test_partial_trace_keeps_site_order(rng):
    mats = [random_herm(2, rng), random_herm(3, rng), random_herm(2, rng)]
    m = np.kron(mats[0], np.kron(mats[1], mats[2]))
    got = partial_trace(m, (2, 3, 2), [0, 2])
    want = np.kron(mats[0], mats[2]) * np.trace(mats[1])
    assert_allclose(got, want, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_partial_trace_two_steps_match_one(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 2, 3)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    one = partial_trace(m, dims, [1])
    two = partial_trace(partial_trace(m, dims, [1, 2]), (2, 3), [0])
    assert_allclose(one, two, atol=1e-12)


def test_partial_trace_nonhermitian_block():
    # Tr over site 0 of |00><01| leaves the site-1 coherence |0><1|;
    # tracing over site 1 instead kills it ( <1|0> = 0 ).
    v0 = np.kron([1, 0], [1, 0]).astype(complex)
    v1 = np.kron([1, 0], [0, 1]).astype(complex)
    coh = np.outer(v0, v1.conj())
    got = partial_trace(coh, (2, 2), [1])
    assert_allclose(got, np.array([[0, 1], [0, 0]], dtype=complex), atol=1e-14)
    v2 = np.kron([0, 1], [1, 0]).astype(complex)
    assert_allclose(partial_trace(np.outer(v0, v2.conj()), (2, 2), [1]), 0, atol=1e-14)


# ---------------------------------------------------------------- norms


def test_operator_norm_diag():
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)


def test_norms_unitary_invariance(rng):
    for _ in range(20):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u = random_unitary(5, rng)
        v = random_unitary(5, rng)
        assert operator_norm(u @ m @ v) == pytest.approx(operator_norm(m), abs=1e-10)
        assert trace_norm(u @ m @ v) == pytest.approx(trace_norm(m), abs=1e-10)


def test_trace_norm_dominates_operator_norm(rng):
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert trace_norm(m) >= operator_norm(m) - 1e-12


def test_trace_norm_unitary_dual_oracle(rng):
    # ||Y||_1 = max_U |Tr(Y U)|: random unitaries never beat it, the polar
    # unitary of Y^dag attains it.
    for _ in range(10):
        y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        tn = trace_norm(y)
        samples = [abs(np.trace(y @ random_unitary(4, rng))) for _ in range(60)]
        assert max(samples) <= tn + 1e-9
        w, s, vh = np.linalg.svd(y)
        u_star = vh.conj().T @ w.conj().T
        assert abs(np.trace(y @ u_star)) == pytest.approx(tn, abs=1e-10)


def test_norms_reject_nonfinite():
    with pytest.raises(ValueError):
        operator_norm(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        trace_norm(np.array([[np.inf, 0], [0, 1]]))


# ---------------------------------------------------------------- herm_eig


def test_herm_eig_reconstruction(rng):
    for _ in range(20):
        h = random_herm(6, rng, norm=None)
        w, v = herm_eig(h)
        assert np.all(np.diff(w) >= -1e-12)
        assert_allclose((v * w) @ v.conj().T, h, atol=1e-10 * max(1.0, operator_norm(h)))
        assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-12)


def test_herm_eig_phase_convention(rng):
    h = random_herm(5, rng)
    _, v = herm_eig(h)
    for j in range(5):
        i = int(np.argmax(np.abs(v[:, j])))
        assert v[i, j].imag == pytest.approx(0.0, abs=1e-12)
        assert v[i, j].real > 0


def _fix_phases_loop(vecs):
    # column-by-column reference for the vectorized _fix_phases
    out = vecs.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        z = out[i, j]
        a = abs(z)
        if a > 0:
            out[:, j] *= z.conjugate() / a
    return out


def test_fix_phases_matches_column_loop(rng):
    for dim in (1, 5, 64):
        _, v = np.linalg.eigh(random_herm(dim, rng, norm=None))
        v[:, 0] = 0.0
        got = _fix_phases(v)
        assert_allclose(got, _fix_phases_loop(v), rtol=0, atol=1e-15)
        assert np.all(got[:, 0] == 0)
    tie = np.array([[1j, 0.5], [-1.0, 0.5j]]) / np.sqrt(np.array([2.0, 0.5]))
    assert_allclose(_fix_phases(tie), _fix_phases_loop(tie), rtol=0, atol=1e-15)
    assert _fix_phases(np.zeros((0, 0), dtype=complex)).shape == (0, 0)


def test_herm_eig_rejects_nonhermitian():
    with pytest.raises(ValueError, match="hermitian"):
        herm_eig(np.array([[0, 1], [0.5, 0]], dtype=complex))


# ---------------------------------------------------------------- propagator


def test_propagator_unitary_and_inverse(rng):
    h = random_herm(6, rng, norm=None)
    u = herm_propagator(h, 0.7)
    assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-10)
    assert_allclose(u @ herm_propagator(h, -0.7), np.eye(6), atol=1e-10)


def test_propagator_distance_bound(rng):
    # ||exp(-i t H1) - exp(-i t H2)|| <= t ||H1 - H2|| for t >= 0
    for _ in range(15):
        h1 = random_herm(5, rng, norm=None)
        h2 = random_herm(5, rng, norm=None)
        for t in (0.1, 0.9, 2.3):
            lhs = operator_norm(herm_propagator(h1, t) - herm_propagator(h2, t))
            assert lhs <= t * operator_norm(h1 - h2) + 1e-10


# ---------------------------------------------------------------- fidelity


def _fidelity_oracle(rho, sigma):
    # direct definition, independent code path
    w, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    inner = sq @ sigma @ sq
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0, None))))


def test_fidelity_matches_direct_definition(rng):
    # sqrt of a rank-deficient state is conditioned like sqrt(eps), so the
    # two routes only agree to ~1e-8 when sigma is singular
    for _ in range(30):
        r = random_density(4, rng)
        s = random_density(4, rng, rank=2)
        assert fidelity(r, s) == pytest.approx(_fidelity_oracle(r, s), abs=5e-8)


def test_fidelity_range_symmetry_and_pure_overlap(rng):
    for _ in range(30):
        r = random_density(3, rng)
        s = random_density(3, rng)
        f = fidelity(r, s)
        assert -1e-9 <= f <= 1 + 1e-9
        assert f == pytest.approx(fidelity(s, r), abs=1e-9)
    psi = random_ket(3, rng)
    phi = random_ket(3, rng)
    f = fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
    assert f == pytest.approx(abs(np.vdot(psi, phi)), abs=1e-9)


def test_fidelity_identical_states(rng):
    r = random_density(4, rng)
    assert fidelity(r, r) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- helstrom


def test_helstrom_trace_identity(rng):
    for _ in range(30):
        r0 = random_density(4, rng)
        r1 = random_density(4, rng)
        d, x = helstrom(r0, r1)
        assert np.trace(x.matrix @ (r0 - r1)).real == pytest.approx(d, abs=1e-10)
        assert 0 <= d <= 1 + 1e-12


def test_helstrom_equal_states_full_projector(rng):
    r = random_density(3, rng)
    d, x = helstrom(r, r)
    assert d == pytest.approx(0.0, abs=1e-12)
    assert_allclose(x.matrix, np.eye(3), atol=1e-9)


def test_helstrom_orthogonal_pure_states():
    r0 = np.diag([1.0, 0.0]).astype(complex)
    r1 = np.diag([0.0, 1.0]).astype(complex)
    d, x = helstrom(r0, r1)
    assert d == pytest.approx(1.0, abs=1e-12)
    assert_allclose(x.matrix, r0, atol=1e-12)


def test_fidelity_distance_tradeoff(rng):
    # 1 - D <= F over a large random sweep
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        r0 = random_density(n, rng, rank=int(rng.integers(1, n + 1)))
        r1 = random_density(n, rng, rank=int(rng.integers(1, n + 1)))
        d, _ = helstrom(r0, r1)
        assert 1 - d <= fidelity(r0, r1) + 1e-9
