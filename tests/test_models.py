import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import traced_peak
from oracles import commutation_defect_all_pairs, kron_sum_terms
from splitlab import cli
from splitlab.models import (
    LocalModel,
    QuditSystem,
    _diag_energy,
    _sum_terms,
    block_sites,
    four_two_two_model,
    matrix_from_json,
    matrix_to_json,
    model_to_json,
    pauli_string_local,
    pauli_string_matrix,
    random_commuting_model,
    repetition_model,
    single_site_paulis,
    stabilizer_hamiltonian,
    two_local_model,
)
from splitlab.operators import (
    HERM_ATOL,
    _hermitian,
    _max_abs,
    embed,
    operator_norm,
    random_herm,
    total_dim,
)

ZZ = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex)
XX = pauli_string_matrix("XX")


def test_system_validation():
    with pytest.raises(ValueError):
        QuditSystem((2, 1))
    with pytest.raises(ValueError):
        QuditSystem((2,) * 13)  # 8192 over the cap
    assert QuditSystem((2, 3, 4)).total_dim == 24


def test_two_local_model_basic():
    sys3 = QuditSystem((2, 2, 2))
    m = two_local_model(sys3, [((0, 1), ZZ), ((1, 2), ZZ)])
    assert m.commuting
    assert m.max_locality <= 2
    h = m.hamiltonian()
    assert h.dims == (2, 2, 2)
    # ground energy shifted to 0
    assert np.linalg.eigvalsh(h.matrix)[0] == pytest.approx(0.0, abs=1e-12)


def test_two_local_model_rejects_duplicates_and_bad_dims():
    sys2 = QuditSystem((2, 2))
    with pytest.raises(ValueError, match="duplicate"):
        two_local_model(sys2, [((0, 1), ZZ), ((1, 0), XX)])
    sys23 = QuditSystem((2, 3))
    with pytest.raises(ValueError, match="shape"):
        two_local_model(sys23, [((0, 1), ZZ)])
    with pytest.raises(ValueError, match="hermitian"):
        two_local_model(sys2, [((0, 1), ZZ + 1j * np.eye(4))])


def test_noncommuting_certificate():
    sys2 = QuditSystem((2, 2, 2))
    m = two_local_model(sys2, [((0, 1), ZZ), ((1, 2), XX)])
    assert not m.commuting
    assert m.commutation_defect > 1e-3


def test_single_site_terms():
    sys2 = QuditSystem((2, 2))
    z = np.diag([1.0, -1.0]).astype(complex)
    m = two_local_model(sys2, [((0, 1), ZZ)], single_site_terms=[(0, z)])
    assert m.max_locality == 2
    assert len(m.terms) == 2
    with pytest.raises(ValueError, match="duplicate"):
        two_local_model(sys2, [((0, 1), ZZ)], single_site_terms=[(0, z), (0, z)])


def test_stabilizer_repetition_spectrum():
    m = repetition_model(3)
    h = m.hamiltonian().matrix
    w = np.linalg.eigvalsh(h)
    assert w[0] == pytest.approx(0.0, abs=1e-14)
    assert w[1] == pytest.approx(0.0, abs=1e-14)  # two-fold degenerate
    assert w[2] >= 1 - 1e-12  # integer gap
    assert_allclose(w, np.round(w), atol=1e-12)


def test_stabilizer_validation():
    with pytest.raises(ValueError, match="anticommute"):
        stabilizer_hamiltonian(2, ["ZZ", "XI"])
    with pytest.raises(ValueError, match="non-Pauli"):
        stabilizer_hamiltonian(2, ["ZQ"])
    with pytest.raises(ValueError, match="length"):
        stabilizer_hamiltonian(3, ["ZZ"])
    with pytest.raises(ValueError, match="trivial"):
        stabilizer_hamiltonian(2, ["II"])


def test_frustrated_stabilizer_set_gets_integer_shift():
    # XX, YY, ZZ pairwise commute on two qubits but their product is -I,
    # so the bare sum has ground energy 1; the builder shifts it to 0.
    m = stabilizer_hamiltonian(2, ["XX", "YY", "ZZ"])
    w = np.linalg.eigvalsh(m.hamiltonian().matrix)
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert m.energy_offset == pytest.approx(1.0, abs=1e-12)


def test_four_two_two_degeneracy():
    m = four_two_two_model()
    w = np.linalg.eigvalsh(m.hamiltonian().matrix)
    assert sum(x < 1e-10 for x in w) == 4
    assert m.max_locality == 4
    assert m.max_locality > 2


def test_block_sites_preserves_matrix():
    m = repetition_model(3)
    blocked = block_sites(m, [[0], [1, 2]])
    assert blocked.system.dims == (2, 4)
    assert blocked.max_locality <= 2
    assert_allclose(blocked.hamiltonian().matrix, m.hamiltonian().matrix, atol=1e-12)


def test_block_sites_rejects_three_group_straddle():
    m = stabilizer_hamiltonian(3, ["ZZZ"])
    with pytest.raises(ValueError, match="straddles"):
        block_sites(m, [[0], [1], [2]])
    blocked = block_sites(m, [[0], [1, 2]])
    assert blocked.max_locality <= 2


def test_block_sites_rejects_bad_partition():
    m = repetition_model(3)
    with pytest.raises(ValueError, match="partition"):
        block_sites(m, [[0, 2], [1]])
    with pytest.raises(ValueError, match="partition"):
        block_sites(m, [[0], [1]])


def test_random_commuting_deterministic_and_commuting():
    sys3 = QuditSystem((2, 3, 2))
    a = random_commuting_model(sys3, [(0, 1), (1, 2)], seed=11)
    b = random_commuting_model(sys3, [(0, 1), (1, 2)], seed=11)
    assert a.commuting
    for (sa, ma), (sb, mb) in zip(a.terms, b.terms):
        assert sa == sb
        assert ma.tobytes() == mb.tobytes()
    c = random_commuting_model(sys3, [(0, 1), (1, 2)], seed=12)
    assert any(
        not np.array_equal(ma, mc) for (_, ma), (_, mc) in zip(a.terms, c.terms)
    )


def test_random_commuting_forced_degeneracy():
    sys3 = QuditSystem((3, 3, 3))
    for seed in range(6):
        m = random_commuting_model(
            sys3, [(0, 1), (1, 2)], seed=seed, ensure_ground_degeneracy=2
        )
        w = np.linalg.eigvalsh(m.hamiltonian().matrix)
        assert w[1] == pytest.approx(0.0, abs=1e-10)
        top = w[w > 1e-8]
        if top.size:
            assert top.min() >= 0.25 - 1e-9  # quarter-integer grid keeps a real gap


@pytest.mark.parametrize("seed", range(4))
def test_diag_energy_equals_embedded_diagonals_exactly(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2, 3)
    pairs = [(0, 1), (3, 2), (2, 0), (1, 3)]
    couplings = [rng.integers(0, 13, size=dims[i] * dims[j]) / 4.0 - rng.random()
                 for i, j in pairs]
    want = np.zeros(int(np.prod(dims)))
    for (i, j), c in zip(pairs, couplings):
        want += embed(np.diag(c), (i, j), dims).diagonal().real
    got = _diag_energy(dims, zip(pairs, couplings))
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _mixed_two_local():
    rng = np.random.default_rng(5)
    pairs = [((1, 0), random_herm(6, rng)), ((2, 1), random_herm(6, rng)),
             ((0, 2), random_herm(4, rng))]
    singles = [(0, random_herm(2, rng)), (2, random_herm(2, rng))]
    return two_local_model(QuditSystem((2, 3, 2)), pairs, singles)


_BUILDS = [
    lambda: repetition_model(8),
    lambda: repetition_model(10),
    four_two_two_model,
    lambda: random_commuting_model(QuditSystem((3, 3, 2, 2)), [(0, 1), (1, 2), (2, 3)], 1),
    lambda: random_commuting_model(QuditSystem((2, 3, 4, 2, 3)),
                                   [(0, 1), (2, 1), (3, 4), (0, 4)], 2),
    lambda: random_commuting_model(QuditSystem((2,) * 9), [(i, i + 1) for i in range(8)], 3),
    _mixed_two_local,
    lambda: stabilizer_hamiltonian(4, ["YYII", "IYYI", "IIYY"]),
    lambda: stabilizer_hamiltonian(5, ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]),    # [[5,1,3]]
    lambda: block_sites(repetition_model(6), [[0, 1], [2, 3], [4, 5]]),
]


@pytest.mark.parametrize("build", _BUILDS)
def test_sum_terms_matches_kron_oracle_bytes(build):
    # the model is built under tracing, so that freeing its arrays shows
    def check():
        model = build()
        dims = model.system.dims
        h = _sum_terms(model.terms, dims)
        assert h.tobytes() == kron_sum_terms(model.terms, dims).tobytes()
        # the hamiltonian is the shifted sum as it is, unchecked as a whole:
        # the containers' gate would return the same bits
        np.fill_diagonal(h, h.diagonal() - model.energy_offset)
        gated = _hermitian(h, HERM_ATOL * max(1.0, _max_abs(h)), "not hermitian")
        first = model.hamiltonian()
        assert first.matrix.tobytes() == h.tobytes() == gated.tobytes()
        # the first call took the built sum, if the model kept one; a second
        # one assembles it again
        second = model.hamiltonian()
        assert second.matrix.tobytes() == first.matrix.tobytes()
        del h, gated
        # the model keeps neither, so dropping each frees its D x D array
        held = tracemalloc.get_traced_memory()[0]
        del first
        dropped = tracemalloc.get_traced_memory()[0]
        del second
        return 16 * total_dim(dims) ** 2, held - dropped, dropped - tracemalloc.get_traced_memory()[0]

    (one, *falls), _ = traced_peak(check)
    for fall in falls:
        assert one <= fall <= one + 1024     # the array and its HermOp wrapper


@pytest.mark.parametrize("build", _BUILDS + [
    lambda: two_local_model(QuditSystem((2, 2, 2)), [((0, 1), XX), ((1, 2), ZZ)]),
])
def test_commutation_defect_matches_the_all_pairs_oracle(build):
    # a pair of diagonal terms is scored 0.0 unmeasured; every other pair
    # keeps its measured defect, so the worst one is the same float
    model = build()
    assert model.commutation_defect == commutation_defect_all_pairs(model.terms,
                                                                    model.system.dims)


def test_all_diagonal_model_measures_no_commutator(monkeypatch):
    import splitlab.models

    calls = []
    monkeypatch.setattr(splitlab.models, "operator_norm",
                        lambda m: calls.append(1) or operator_norm(m))
    model = repetition_model(8)
    assert calls == []
    assert model.commuting and model.commutation_defect == 0.0
    four_two_two_model()        # one mixed pair: two norms and its commutator's
    assert len(calls) == 3


def test_hand_built_model_refuses_an_inexact_term():
    # the builders' terms are exactly hermitian; a term off by 1e-13, within
    # the containers' tolerance, is refused at its own size
    z = np.diag([1.0, -1.0]).astype(complex)
    z[0, 1] = 1e-13
    model = LocalModel(QuditSystem((2, 2)), [((0, 1), ZZ), ((1,), z)])
    with pytest.raises(ValueError, match=r"term on \(1,\) is not hermitian"):
        model.hamiltonian()


def test_assembly_and_embed_allocate_one_full_matrix():
    # the result is one D x D complex array (16 MiB at D = 1024); placing
    # each term through kron allocated a D x D product and a transposed copy
    model = repetition_model(10)
    dims = model.system.dims
    one = 16 * total_dim(dims) ** 2
    assert traced_peak(lambda: _sum_terms(model.terms, dims))[1] <= 1.1 * one
    assert traced_peak(lambda: embed(ZZ, (3, 4), dims))[1] <= 1.1 * one


def test_model_build_holds_one_full_matrix():
    # a model with an off-diagonal term (X on site 0) assembles its sum
    # once, for its ground energy, and frees it; the ground energy reads it
    # through a boolean pattern of D^2 bytes, and no hermiticity gate,
    # conjugate copy or |H| of its size is formed
    one = 16 * 1024 ** 2
    gens = ["XZ" + "I" * 8] + ["I" * k + "ZZ" + "I" * (8 - k) for k in range(1, 9)]
    model, peak = traced_peak(lambda: stabilizer_hamiltonian(10, gens))
    assert model.diagonal is None
    assert peak <= 1.1 * one


def test_diagonal_model_build_holds_its_diagonal_alone():
    # every term of the repetition chain is diagonal: the build adds the
    # terms' diagonals and keeps D reals, with no D x D sum and no pattern
    d = 1024
    model, peak = traced_peak(lambda: repetition_model(10))
    arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    arrays += [m for _, m in model.terms]
    assert [a.nbytes for a in arrays if a.size >= d] == [model.diagonal.nbytes] == [8 * d]
    assert peak <= 64 * d


_BUILDERS = {
    "two_local": lambda: two_local_model(QuditSystem((2, 3)), [((0, 1), np.kron(
        pauli_string_matrix("X"), np.diag([1.0, 0.0, -1.0])).astype(complex))]),
    "stabilizers": lambda: stabilizer_hamiltonian(3, ["XXI", "ZZZ"]),
    "repetition": lambda: repetition_model(4),
    "four_two_two": four_two_two_model,
    "random_commuting": lambda: random_commuting_model(QuditSystem((3, 2)), [(0, 1)], seed=5),
    "blocked": lambda: block_sites(four_two_two_model(), [[0, 1], [2, 3]]),
    "inline": lambda: cli._build_model({"dims": [2, 2], "stabilizers": ["ZZ"], "seed": 7}),
}


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
def test_a_built_model_is_a_frozen_value(build):
    # a builder sets every field in one constructor call and stores nothing
    # beside them; hamiltonian() assembles the same bytes on every call
    model = build()
    assert set(vars(model)) == {f.name for f in dataclasses.fields(LocalModel)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.energy_offset = 1.0
    first = model.hamiltonian().matrix.tobytes()
    assert model.hamiltonian().matrix.tobytes() == first
    assert model.hamiltonian().matrix.tobytes() == first


def test_a_hand_built_model_is_not_certified():
    # the defect defaults to inf, unmeasured, so commuting stays False
    model = LocalModel(QuditSystem((2, 2)), [((0, 1), ZZ)])
    assert model.commutation_defect == np.inf and not model.commuting


def test_oversized_chain_is_refused_before_its_strings():
    # the product stops at the cap, and the repetition builder checks it
    # before writing n - 1 generator strings of length n (9 MB at n = 3000)
    with pytest.raises(ValueError, match="16000 sites exceeds the cap 4096"):
        QuditSystem((2,) * 16_000)

    def refused():
        with pytest.raises(ValueError, match="3000 sites"):
            repetition_model(3000)

    assert traced_peak(refused)[1] < 1e6


def test_matrix_json_roundtrip(rng):
    m = random_herm(3, rng) + 1j * 0  # make sure complex path is exercised
    back = matrix_from_json(matrix_to_json(m))
    assert_allclose(back, m, atol=0)


# model_to_json's output is read back by the one reader of inline models,
# the command line's _INLINE_MODEL table


def test_model_json_roundtrip_terms():
    sys3 = QuditSystem((2, 2, 2))
    z = np.diag([1.0, -1.0]).astype(complex)
    m = two_local_model(sys3, [((0, 1), ZZ), ((1, 2), ZZ)], single_site_terms=[(2, z)])
    data = model_to_json(m)
    back = cli._build_model(data)
    assert_allclose(back.hamiltonian().matrix, m.hamiltonian().matrix, atol=1e-12)
    chain = random_commuting_model(QuditSystem((3, 2)), [(0, 1)], seed=5)
    back = cli._build_model(model_to_json(chain))
    assert back.meta["seed"] == 5
    assert_allclose(back.hamiltonian().matrix, chain.hamiltonian().matrix, atol=1e-12)


def test_model_json_roundtrip_stabilizers():
    data = model_to_json(repetition_model(4))
    assert data["stabilizers"] == ["ZZII", "IZZI", "IIZZ"]
    back = cli._build_model(data)
    assert operator_norm(back.hamiltonian().matrix - repetition_model(4).hamiltonian().matrix) < 1e-12


@pytest.mark.parametrize("blocked", [
    lambda: block_sites(four_two_two_model(), [[0, 1], [2, 3]]),
    lambda: block_sites(repetition_model(4), [[0], [1, 2], [3]]),
    lambda: block_sites(random_commuting_model(QuditSystem((2, 2, 3)), [(0, 1), (1, 2)], seed=4),
                        [[0, 1], [2]]),
], ids=["four_two_two", "repetition", "random_commuting"])
def test_model_json_roundtrip_blocked(blocked):
    # a blocked model's sites are not qubits, so it is written as its terms,
    # those on one support summed into one; the unblocked model's
    # stabilizer strings and rotations are dropped, its seed kept
    model = blocked()
    assert set(model.meta) <= {"seed"}
    back = cli._build_model(model_to_json(model))
    assert back.meta == model.meta
    assert_allclose(back.hamiltonian().matrix, model.hamiltonian().matrix, atol=1e-12)


def test_model_json_rejects_ambiguous():
    with pytest.raises(cli.ScenarioError, match="exactly one"):
        cli._build_model({"dims": [2, 2], "terms": [], "stabilizers": []})
    with pytest.raises(cli.ScenarioError, match="exactly one"):
        cli._build_model(
            {"dims": [2, 2], "terms": [{"sites": [0, 1], "matrix": matrix_to_json(ZZ)}], "stabilizers": ["ZZ"]}
        )
    with pytest.raises(cli.ScenarioError, match="dims"):
        cli._build_model({"terms": []})


def test_pauli_string_local_keeps_the_non_identity_letters():
    sites, m = pauli_string_local("IZXI")
    assert sites == (1, 2)
    assert np.array_equal(m, pauli_string_matrix("ZX"))
    assert np.array_equal(embed(m, sites, (2,) * 4), pauli_string_matrix("IZXI"))
    sites, m = pauli_string_local("III")
    assert sites == () and np.array_equal(m, np.ones((1, 1)))
    with pytest.raises(ValueError, match="non-Pauli"):
        pauli_string_local("IQ")


def test_single_site_paulis_are_labels():
    assert list(single_site_paulis(2)) == ["XI", "YI", "ZI", "IX", "IY", "IZ"]
