import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import splitlab.operators
from conftest import traced_peak
from splitlab.code_space import (
    CodeSubspace,
    full_space_code,
    ground_subspace,
    project_onto_code,
)
from splitlab.models import (
    QuditSystem,
    _sum_terms,
    block_sites,
    build_model,
    four_two_two_model,
    random_commuting_model,
    repetition_model,
)
from splitlab.operators import (
    BLOCK_SCAN_MIN_DIM,
    HERM_TILE,
    HermOp,
    _herm_eigvalsh,
    _pattern_blocks,
    embed,
    herm_eig,
)
from splitlab.splitting import ids

Z = np.diag([1.0 + 0j, -1.0])
X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_repetition_ground_space():
    code = ground_subspace(repetition_model(3))
    assert code.degeneracy == 2
    assert code.gap == pytest.approx(1.0, abs=1e-12)
    assert code.ground_energy == pytest.approx(0.0, abs=1e-12)
    want = np.zeros((8, 8))
    want[0, 0] = want[7, 7] = 1.0  # span of |000> and |111>
    assert_allclose(code.projector.matrix, want, atol=1e-12)


def test_four_two_two_ground_space():
    code = ground_subspace(four_two_two_model())
    assert code.degeneracy == 4
    assert code.gap == pytest.approx(1.0, abs=1e-10)


def test_accepts_hermop_and_matrix():
    h = np.diag([0.0, 0.0, 3.0]).astype(complex)
    code = ground_subspace(HermOp(h, (3,)))
    assert code.degeneracy == 2
    code2 = ground_subspace(h)
    assert code2.degeneracy == 2 and code2.dims == (3,)


def test_cluster_tolerance_is_relative():
    code = ground_subspace(np.diag([0.0, 1e-12, 1.0]).astype(complex))
    assert code.degeneracy == 2
    assert code.gap == pytest.approx(1.0, abs=1e-9)


def test_ill_separated_spectrum_rejected():
    with pytest.raises(ValueError, match="ill-separated"):
        ground_subspace(np.diag([0.0, 5e-8, 1.0]).astype(complex))


def test_identity_and_zero_rejected():
    with pytest.raises(ValueError, match="no gap"):
        ground_subspace(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="no gap"):
        ground_subspace(np.eye(4, dtype=complex))


def test_full_space_code():
    code = full_space_code((2, 2))
    assert code.degeneracy == 4
    assert code.gap == np.inf
    assert_allclose(code.projector.matrix, np.eye(4), atol=0)
    code2 = full_space_code(QuditSystem((2, 3)))
    assert code2.degeneracy == 6


def test_project_onto_code_repetition():
    model = repetition_model(3)
    code = ground_subspace(model)
    z1 = HermOp(embed(Z, (0,), model.system.dims), model.system.dims)
    comp = project_onto_code(code, z1)
    assert comp.matrix.shape == (2, 2)
    assert_allclose(sorted(np.linalg.eigvalsh(comp.matrix)), [-1.0, 1.0], atol=1e-12)

    x1 = HermOp(embed(X, (0,), model.system.dims), model.system.dims)
    compx = project_onto_code(code, x1)
    assert_allclose(compx.matrix, np.zeros((2, 2)), atol=1e-12)


def test_project_rejects_wrong_shape():
    code = ground_subspace(repetition_model(3))
    with pytest.raises(ValueError, match="shape"):
        project_onto_code(code, np.eye(4))


def test_code_subspace_validates_basis():
    bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # not orthonormal
    with pytest.raises(ValueError, match="orthonormal"):
        CodeSubspace(basis=bad, gap=1.0, ground_energy=0.0, dims=(2,))


def test_code_subspace_stores_only_its_basis():
    code = ground_subspace(four_two_two_model())
    stored = [v for v in vars(code).values() if isinstance(v, np.ndarray)]
    assert [a.shape for a in stored] == [(16, 4)]
    assert code.degeneracy == code.basis.shape[1] == 4
    p = code.projector
    assert p.rank == 4 and p.dims == code.dims
    assert_allclose(p.matrix, code.basis @ code.basis.conj().T, atol=0)
    assert code.projector is not p   # derived on each access, not cached
    with pytest.raises(ValueError, match="shape"):
        CodeSubspace(basis=code.basis[:8], gap=1.0, ground_energy=0.0, dims=code.dims)
    with pytest.raises(ValueError, match="shape"):
        CodeSubspace(basis=code.basis[:, 0], gap=1.0, ground_energy=0.0, dims=code.dims)
    with pytest.raises(ValueError, match="orthonormal"):
        CodeSubspace(basis=2 * code.basis, gap=1.0, ground_energy=0.0, dims=code.dims)


def test_ground_basis_owns_only_its_k_columns():
    # a view into the D x D eigenvector array would keep all of it alive
    code = ground_subspace(repetition_model(4))
    owner = code.basis
    while owner.base is not None:
        owner = owner.base
    assert owner.size == code.basis.size == 16 * 2


def test_ground_extraction_allocates_less_than_one_full_matrix():
    # on the split pattern of the repetition H only the k ground columns are
    # scattered from the blocks; the real operand the gate returns (half a
    # complex D x D) is the largest array the extraction makes
    h = repetition_model(10).hamiltonian()
    code, peak = traced_peak(lambda: ground_subspace(h))
    assert code.degeneracy == 2
    assert peak < 16 * 1024 ** 2


def _split_and_dense_models():
    chain = QuditSystem((2,) * 7)
    split = [repetition_model(n) for n in range(7, 11)]
    # blocks of 16 and of 4 states, with 8 and 32 ground states across them
    split += [random_commuting_model(chain, [(0, 1), (3, 4)], 5, 2),
              random_commuting_model(chain, [(0, 1)], 5, 3)]
    dense = random_commuting_model(chain, [(i, i + 1) for i in range(6)], 5, 2)
    return split, dense


def test_ground_basis_is_herm_eigs_first_columns():
    # the k columns come from the same factorization and phase rule as
    # herm_eig's, so they are its first k columns byte for byte
    split, dense = _split_and_dense_models()
    for model in split + [dense]:
        h = model.hamiltonian().matrix
        assert h.shape[0] >= BLOCK_SCAN_MIN_DIM
        assert (_pattern_blocks(h) is None) == (model is dense)
        code = ground_subspace(model)
        want = herm_eig(h)[1][:, :code.degeneracy]
        assert code.basis.dtype == want.dtype and code.basis.shape == want.shape
        assert code.basis.tobytes() == want.tobytes()
    assert {ground_subspace(m).degeneracy for m in split} >= {2, 8, 32}


def _diagonal_qutrits(n: int):
    """An inline chain of n qutrits whose pair and site terms are diagonal,
    with non-integer entries; a pair listed backwards tests the site order."""
    rng = np.random.default_rng(n)
    terms = [{"sites": [k + 1, k], "matrix": np.diag(rng.normal(size=9)).astype(complex)}
             for k in range(n - 1)]
    terms.append({"sites": [1], "matrix": np.diag(rng.normal(size=3)).astype(complex)})
    return build_model([3] * n, terms=terms)


def _zzz_chain(n: int):
    return build_model([2] * n, stabilizers=["I" * k + "ZZZ" + "I" * (n - 3 - k)
                                             for k in range(n - 2)])


_DIAGONAL_MODELS = {
    **{f"repetition{n}": lambda n=n: repetition_model(n) for n in range(2, 13)},
    **{f"z_chain{n}": lambda n=n: _zzz_chain(n) for n in range(3, 7)},
    "z_chain": lambda: _zzz_chain(8),
    "qutrits9": lambda: _diagonal_qutrits(2),
    "qutrits27": lambda: _diagonal_qutrits(3),
    "qutrits243": lambda: _diagonal_qutrits(5),
    "blocked": lambda: block_sites(repetition_model(8), [[0, 1], [2, 3], [4, 5], [6, 7]]),
}


@pytest.mark.parametrize("build", _DIAGONAL_MODELS.values(), ids=_DIAGONAL_MODELS.keys())
def test_diagonal_route_gives_the_matrix_routes_bits(build):
    # a model whose terms are all diagonal keeps its summed diagonal; its
    # offset and its code are those of the assembled matrix, bit for bit,
    # below BLOCK_SCAN_MIN_DIM, where that matrix is factored dense, and
    # from it on, where it is factored in 1 x 1 blocks
    model = build()
    assert model.diagonal is not None
    h = model.hamiltonian()
    assert model.diagonal.tobytes() == h.matrix.diagonal().real.tobytes()
    raw = _herm_eigvalsh(_sum_terms(model.terms, model.system.dims))
    assert np.float64(model.energy_offset).tobytes() == raw[:1].tobytes()
    a, b = ground_subspace(model), ground_subspace(h)
    assert a.basis.dtype == b.basis.dtype and a.basis.tobytes() == b.basis.tobytes()
    assert np.array([a.gap, a.ground_energy]).tobytes() == np.array([b.gap, b.ground_energy]).tobytes()
    assert a.dims == b.dims


def _gate_shapes(monkeypatch) -> list:
    """The shape of every matrix through operators._hermitian from here on,
    by whichever module's binding of it the call is made."""
    shapes = []
    original = splitlab.operators._hermitian

    def spy(m, atol, message):
        shapes.append(m.shape)
        return original(m, atol, message)

    for name, module in list(sys.modules.items()):
        if name.startswith("splitlab") and getattr(module, "_hermitian", None) is original:
            monkeypatch.setattr(module, "_hermitian", spy)
    return shapes


@pytest.mark.parametrize("n", [8, 9])
def test_a_built_hamiltonian_is_not_gated_again(monkeypatch, n):
    # the model's HermOp was checked when it was built; the ground
    # extraction factors it with no second D x D gate, at one tile
    # (D = 256) or more (D = 512)
    h = repetition_model(n).hamiltonian()
    assert (h.dim > HERM_TILE) == (n == 9)
    shapes = _gate_shapes(monkeypatch)
    ground_subspace(h)
    assert shapes == []


def test_ids_gates_its_compression_twice(monkeypatch):
    # once as a compression, once as the HermOp it is kept in; herm_eig
    # factors that HermOp as it is
    code = ground_subspace(repetition_model(3))
    shapes = _gate_shapes(monkeypatch)
    ids(code, Z, [0])
    assert shapes == [(2, 2), (2, 2)]
