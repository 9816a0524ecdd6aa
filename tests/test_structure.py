import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import closure_rounds, dense_ground_factors
from splitlab import cli, structure, verify
from splitlab.code_space import CodeSubspace, full_space_code, ground_subspace
from splitlab.dynamics import gap_bound_check
from splitlab.models import (
    QuditSystem,
    block_sites,
    four_two_two_model,
    random_commuting_model,
    repetition_model,
    two_local_model,
)
from splitlab.operators import embed, haar_unitary, operator_norm, random_herm, random_projector
from splitlab.splitting import ids
from splitlab.structure import (
    GroundFactorization,
    SiteSectorDecomposition,
    _cluster_bounds,
    commuting_model_attack,
    detect_multi_sector,
    factor_ground_projector,
    multi_sector_attack,
    operator_schmidt,
    sector_projectors,
    site_algebra,
)

Z = np.diag([1.0 + 0j, -1.0])
X = np.array([[0, 1], [1, 0]], dtype=complex)
ZZ = np.kron(Z, Z)
XX = np.kron(X, X)


def _rank_projector(dim, rank, rng):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    return q @ q.conj().T


def _virtual_chain(pair_projector, n=3, seed=3, pin_first_mult=False):
    # dim-4 sites, each a hidden C2 x C2; the term on (i, i+1) couples the
    # right half of site i to the left half of site i+1, then everything is
    # scrambled by one local unitary per site (which keeps terms commuting)
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
        # an energy penalty on site 0's otherwise free left half
        q = np.kron(np.diag([0.0, 1.0]).astype(complex), np.eye(2))
        singles = [(0, us[0] @ q @ us[0].conj().T)]
    model = two_local_model(QuditSystem((4,) * n), pair_terms, single_site_terms=singles)
    assert model.commuting
    return model


def _bell():
    b = np.zeros((4, 4), dtype=complex)
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    b += np.outer(v, v.conj())
    return b


# ----------------------------------------------------- operator_schmidt


def test_schmidt_zz_single_factor():
    out = operator_schmidt(ZZ, (2, 2))
    assert len(out) == 1
    left, right, s = out[0]
    assert s == pytest.approx(2.0, abs=1e-12)
    # factors proportional to Z with unit Hilbert-Schmidt norm
    assert abs(left[0, 1]) < 1e-12 and abs(left[1, 0]) < 1e-12
    assert left[0, 0] == pytest.approx(-left[1, 1], abs=1e-12)
    assert_allclose(s * np.kron(left, right), ZZ, atol=1e-12)


def test_schmidt_identity_weight():
    out = operator_schmidt(np.eye(6, dtype=complex), (2, 3))
    assert len(out) == 1
    assert out[0][2] == pytest.approx(np.sqrt(6.0), abs=1e-12)


def test_schmidt_reconstruction_and_orthonormality(rng):
    for dims in [(2, 2), (3, 2), (2, 4)]:
        d = dims[0] * dims[1]
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        out = operator_schmidt(h, dims)
        rec = sum(s * np.kron(l, r) for l, r, s in out)
        assert operator_norm(rec - h) <= 1e-10 * operator_norm(h)
        for a, (la, ra, _) in enumerate(out):
            for b, (lb, rb, _) in enumerate(out):
                want = 1.0 if a == b else 0.0
                assert np.trace(la.conj().T @ lb) == pytest.approx(want, abs=1e-10)
                assert np.trace(ra.conj().T @ rb) == pytest.approx(want, abs=1e-10)


def test_schmidt_shape_validation():
    with pytest.raises(ValueError, match="dims"):
        operator_schmidt(ZZ, (2, 3))
    with pytest.raises(ValueError, match="dimensions"):
        operator_schmidt(ZZ, (4,))


# --------------------------------------------------------- site algebra


def test_site_algebra_repetition():
    model = repetition_model(3)
    alg = site_algebra(model, 0)
    assert alg.shape == (2, 2, 2)
    # the span is {I, Z}: project Z onto it and expect no residual
    vecs = alg.reshape(2, -1)
    z = Z.reshape(-1)
    coeff = vecs.conj() @ z
    assert np.linalg.norm(z - vecs.T @ coeff) <= 1e-10


def test_closure_is_the_rounds_closure_bit_for_bit(monkeypatch):
    # every closure the full battery's two structural checks make
    seen = []

    def recorded(gens, dim):
        out = closure(gens, dim)
        seen.append((list(gens), dim, out))
        return out

    closure = structure._closure
    monkeypatch.setattr(structure, "_closure", recorded)
    verify.check_commuting_attack("full")
    verify.check_factorization("full")
    assert len(seen) >= 70
    assert max(len(out) for _, _, out in seen) > 1
    for gens, dim, out in seen:
        ref = closure_rounds(gens, dim, structure.CLOSURE_GROWTH_TOL)
        assert len(out) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(out, ref))


def test_site_algebra_untouched_site():
    model = two_local_model(QuditSystem((2, 2, 2)), [((0, 1), ZZ)])
    assert site_algebra(model, 2).shape[0] == 1


def test_site_algebra_full_matrix_algebra():
    model = two_local_model(QuditSystem((2, 2)), [((0, 1), np.eye(4) - _bell())])
    assert site_algebra(model, 0).shape[0] == 4
    assert site_algebra(model, 1).shape[0] == 4


def test_site_algebra_rejects_noncommuting():
    model = two_local_model(QuditSystem((2, 2, 2)), [((0, 1), ZZ), ((1, 2), XX)])
    assert not model.commuting
    with pytest.raises(ValueError, match="commuting"):
        site_algebra(model, 1)


def test_structure_rejects_wide_terms():
    model = four_two_two_model()
    with pytest.raises(ValueError, match="block"):
        site_algebra(model, 0)
    with pytest.raises(ValueError, match="block"):
        sector_projectors(model, 0)


def test_site_algebra_site_range():
    with pytest.raises(ValueError, match="site"):
        site_algebra(repetition_model(3), 3)


# ------------------------------------------------------------- sectors


def test_cluster_bounds():
    # a step must clear 1e-6 times the spread, and 1e-12 when the spread is tiny
    assert _cluster_bounds(np.array([0.0, 1e-9, 1.0, 1.0, 2.0])) == [0, 2, 4, 5]
    assert _cluster_bounds(np.array([0.0, 1e-8, 1e-7])) == [0, 1, 2, 3]
    assert _cluster_bounds(np.array([0.0, 1e-13, 2e-13])) == [0, 3]
    assert _cluster_bounds(np.zeros(4)) == [0, 4]


def test_sectors_repetition_site():
    dec = sector_projectors(repetition_model(3), 1)
    assert isinstance(dec, SiteSectorDecomposition)
    assert dec.algebra_dim == 2
    assert len(dec.projectors) == 2
    assert_allclose(dec.projectors[0].matrix, np.diag([1.0, 0.0]), atol=1e-10)
    assert_allclose(dec.projectors[1].matrix, np.diag([0.0, 1.0]), atol=1e-10)
    assert dec.block_certificate <= 1e-8


def test_sectors_untouched_site():
    model = two_local_model(QuditSystem((2, 2, 3)), [((0, 1), ZZ)])
    dec = sector_projectors(model, 2)
    assert len(dec.projectors) == 1
    assert_allclose(dec.projectors[0].matrix, np.eye(3), atol=1e-12)


def test_sectors_random_model_invariants():
    system = QuditSystem((2, 3, 2))
    model = random_commuting_model(system, [(0, 1), (1, 2)], seed=12)
    code = ground_subspace(model)
    pc = code.projector.matrix
    for site in range(3):
        dec = sector_projectors(model, site)
        total = sum(p.matrix for p in dec.projectors)
        assert operator_norm(total - np.eye(system.dims[site])) <= 1e-9
        assert dec.block_certificate <= 1e-8
        for p in dec.projectors:
            emb = embed(p.matrix, [site], system.dims)
            assert operator_norm(emb @ pc - pc @ emb) <= 1e-8


# ------------------------------------------------- sector detection/attack


def test_detect_multi_sector_repetition():
    model = repetition_model(3)
    code = ground_subspace(model)
    for site in range(3):
        populated = detect_multi_sector(code, sector_projectors(model, site))
        assert populated == [0, 1]


def test_detect_single_sector_product_ground():
    zloc = (np.eye(2) - Z) / 2
    model = two_local_model(
        QuditSystem((2, 2, 2)),
        [((0, 1), (np.eye(4) - ZZ) / 2), ((1, 2), (np.eye(4) - ZZ) / 2)],
        single_site_terms=[(0, zloc)],
    )
    code = ground_subspace(model)
    assert code.degeneracy == 1
    for site in range(3):
        populated = detect_multi_sector(code, sector_projectors(model, site))
        assert len(populated) == 1


def test_detect_multi_sector_dims_mismatch():
    zz33 = np.kron(np.diag([1.0, -1.0, 0.0]), np.diag([1.0, -1.0, 0.0])).astype(complex)
    model = two_local_model(QuditSystem((3, 3)), [((0, 1), zz33)])
    code = ground_subspace(repetition_model(3))
    with pytest.raises(ValueError, match="match"):
        detect_multi_sector(code, sector_projectors(model, 0))


def test_multi_sector_attack_repetition():
    model = repetition_model(3)
    code = ground_subspace(model)
    dec = sector_projectors(model, 1)
    report = multi_sector_attack(code, 1, dec.projectors[1])
    assert report.certified_delta_e == pytest.approx(1.0, abs=1e-9)
    assert report.branch == "sector"
    # the reflection built from the sector flips the relative phase of the
    # two ground components: (|000> + |111>)/sqrt(2) -> (|000> - |111>)/sqrt(2)
    refl = embed(np.eye(2) - 2 * report.x.matrix, [1], (2, 2, 2))
    plus = np.zeros(8, dtype=complex)
    plus[0] = plus[7] = 1 / np.sqrt(2)
    minus = plus.copy()
    minus[7] *= -1
    assert_allclose(refl @ plus, minus, atol=1e-12)


def test_multi_sector_attack_rejects_unsplit():
    zloc = (np.eye(2) - Z) / 2
    model = two_local_model(
        QuditSystem((2, 2)), [((0, 1), (np.eye(4) - ZZ) / 2)],
        single_site_terms=[(0, zloc)])
    code = ground_subspace(model)
    dec = sector_projectors(model, 0)
    with pytest.raises(ValueError, match="single sector"):
        multi_sector_attack(code, 0, dec.projectors[0])


# ------------------------------------------------------- factorization


def test_factor_disconnected_pairs(rng):
    p1 = _rank_projector(4, 2, rng)
    p2 = _rank_projector(4, 2, rng)
    model = two_local_model(
        QuditSystem((2, 2, 2, 2)),
        [((0, 1), np.eye(4) - p1), ((2, 3), np.eye(4) - p2)],
    )
    assert model.commuting
    code = ground_subspace(model)
    assert code.degeneracy == 4
    fz = factor_ground_projector(model, code)
    assert isinstance(fz, GroundFactorization)
    assert fz.reconstruction_error <= 1e-10
    ranks = {key: p.rank for key, p in fz.pair_factors}
    assert ranks == {(0, 1): 2, (2, 3): 2}
    assert fz.sector_assignment == (0, 0, 0, 0)


def test_factor_rotated_diagonal_chain():
    model = random_commuting_model(QuditSystem((2, 2, 2)), [(0, 1), (1, 2)], seed=5)
    code = ground_subspace(model)
    if code.degeneracy != 1:
        pytest.skip("seed produced an accidentally degenerate ground space")
    fz = factor_ground_projector(model, code)
    assert fz.reconstruction_error <= 1e-8
    assert all(p.rank == 1 for _, p in fz.pair_factors)


def test_factor_rejects_straddled_sectors():
    model = repetition_model(3)
    code = ground_subspace(model)
    with pytest.raises(ValueError, match="sector attack"):
        factor_ground_projector(model, code)


def test_factor_virtual_bell_chain():
    model = _virtual_chain(_bell(), n=3, seed=3)
    code = ground_subspace(model)
    assert code.degeneracy == 4
    fz = factor_ground_projector(model, code)
    assert fz.reconstruction_error <= 1e-8
    assert all(p.rank == 1 for _, p in fz.pair_factors)
    mults = {i: fz.site_maps[i].mult_dim for i in fz.site_maps}
    assert mults == {0: 2, 1: 1, 2: 2}
    assert fz.site_maps[1].slot_dims == (2, 2)
    report = fz.to_json()
    assert report["pair_factors"] == [
        {"pair": [0, 1], "rank": 1},
        {"pair": [1, 2], "rank": 1},
    ]
    assert report["reconstruction_error"] <= 1e-8


def test_factor_with_single_site_pin():
    model = _virtual_chain(_bell(), n=3, seed=8, pin_first_mult=True)
    code = ground_subspace(model)
    assert code.degeneracy == 2
    fz = factor_ground_projector(model, code)
    assert fz.reconstruction_error <= 1e-8
    # the pinned site now has two sectors and the code sits in one of them
    assert len(fz.site_maps[0].all_sector_dims) == 2
    assert fz.site_maps[0].mult_dim == 1
    assert fz.site_maps[2].mult_dim == 2


def test_factor_degeneracy_accounting(rng):
    model = _virtual_chain(_rank_projector(4, 2, rng), n=3, seed=4)
    code = ground_subspace(model)
    fz = factor_ground_projector(model, code)
    ranks = int(np.prod([p.rank for _, p in fz.pair_factors]))
    mults = int(np.prod([fz.site_maps[i].mult_dim for i in fz.site_maps]))
    assert ranks * mults == code.degeneracy


def _disconnected_pairs():
    rng = np.random.default_rng(12)
    pa = random_projector(4, 2, rng).matrix
    pb = random_projector(4, 2, rng).matrix
    return two_local_model(
        QuditSystem((2, 2, 2, 2)), [((0, 1), np.eye(4) - pa), ((2, 3), np.eye(4) - pb)])


FACTORIZATION_FIXTURES = {
    "disconnected_pairs": _disconnected_pairs,
    "virtual_bell_chain": lambda: _virtual_chain(_bell(), n=3, seed=3),
    "virtual_rank2_chain": lambda: _virtual_chain(
        random_projector(4, 2, np.random.default_rng(9)).matrix, n=3, seed=6),
    "virtual_pinned_chain": lambda: _virtual_chain(_bell(), n=3, seed=3, pin_first_mult=True),
    "random_chain_seed31": lambda: random_commuting_model(
        QuditSystem((3, 3, 2)), [(0, 1), (1, 2)], seed=31),
}


@pytest.mark.parametrize("name", sorted(FACTORIZATION_FIXTURES))
def test_factorization_matches_dense_oracle(name):
    model = FACTORIZATION_FIXTURES[name]()
    code = ground_subspace(model)
    fz = factor_ground_projector(model, code)
    factors, residual = dense_ground_factors(code, fz.site_maps)
    assert [key for key, _ in fz.pair_factors] == sorted(factors)
    for key, pf in fz.pair_factors:
        assert pf.rank == int(round(np.trace(factors[key]).real))
        assert np.max(np.abs(pf.matrix - factors[key])) <= 1e-12
    assert abs(fz.reconstruction_error - residual) <= 1e-12


def test_factor_rejects_code_of_another_model_before_any_work(monkeypatch):
    def no_sectors(*args, **kwargs):
        raise AssertionError("sector analysis ran for a rejected call")

    monkeypatch.setattr("splitlab.structure._site_generators", no_sectors)
    model = _virtual_chain(_bell(), n=3, seed=3)
    with pytest.raises(ValueError, match="code dims .* do not match the model"):
        factor_ground_projector(model, ground_subspace(_virtual_chain(_bell(), n=4, seed=3)))


def test_code_is_read_through_its_basis_only(monkeypatch, rng):
    def no_projector(self):
        raise AssertionError("the D x D code projector was built")

    monkeypatch.setattr(CodeSubspace, "projector", property(no_projector))
    traces = _count_calls(monkeypatch, "partial_trace")
    model = _virtual_chain(_bell(), n=3, seed=3)
    code = ground_subspace(model)
    factor_ground_projector(model, code)
    assert commuting_model_attack(model, code).branch == "multiplicity"
    v = embed(random_herm(4, rng), [0], code.dims)
    assert all(r.passed for r in gap_bound_check(model.hamiltonian(), ids(code, v), v, 100.0,
                                                   [0.0, 1.0]))
    assert traces == []


def test_factorization_peak_memory_below_one_projector():
    model = _virtual_chain(_bell(), n=4, seed=3)
    code = ground_subspace(model)
    assert code.dim == 256
    tracemalloc.start()
    try:
        factor_ground_projector(model, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < code.dim ** 2 * np.dtype(complex).itemsize    # 1 MiB


# ------------------------------------------------------ attack pipeline


def test_attack_repetition_sector_branch():
    model = repetition_model(3)
    report = commuting_model_attack(model, ground_subspace(model))
    assert report.branch == "sector"
    assert report.details["analytic_delta_e"] == pytest.approx(1.0, abs=1e-9)
    # the ascent refinement reaches the best single-qubit splitting
    assert report.details["refined_delta_e"] == pytest.approx(2.0, abs=1e-9)
    assert report.certified_delta_e == pytest.approx(2.0, abs=1e-9)


def _count_calls(monkeypatch, name):
    """Count calls of operators.<name> through every binding in splitlab."""
    import sys

    from splitlab import operators

    original = getattr(operators, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "splitlab" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_attack_acts_on_site_factors_only(monkeypatch, tmp_path):
    model = repetition_model(6)
    code = ground_subspace(model)
    embeds = _count_calls(monkeypatch, "embed")
    traces = _count_calls(monkeypatch, "partial_trace")
    report = commuting_model_attack(model, code)
    assert report.branch == "sector"
    assert report.certified_delta_e == pytest.approx(2.0, abs=1e-9)
    assert embeds == [] and traces == []
    # a whole command line run, model build and re-measure included, by the
    # structural attack and by the ascent on one site
    for params in ({}, {"site": 2}):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"schema_version": 1, "task": "attack", "params": params,
                                    "model": {"fixture": "repetition", "n": 6}}))
        assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert embeds == [] and traces == []


def test_attack_virtual_bell_chain_multiplicity_branch():
    model = _virtual_chain(_bell(), n=3, seed=3)
    report = commuting_model_attack(model, ground_subspace(model))
    assert report.branch == "multiplicity"
    assert report.details["analytic_delta_e"] >= 2.0 - 1e-9
    assert report.certified_delta_e >= 2.0 - 1e-9


def test_attack_analyses_each_site_once(monkeypatch):
    # the factorization reuses the sector analysis the attack made per site
    from splitlab import structure

    model = _virtual_chain(_bell(), n=3, seed=3)
    code = ground_subspace(model)
    original = structure._sector_decomposition
    sites = []

    def counted(model, site, *args, **kwargs):
        sites.append(site)
        return original(model, site, *args, **kwargs)

    monkeypatch.setattr(structure, "_sector_decomposition", counted)
    report = commuting_model_attack(model, code)
    assert report.branch == "multiplicity"
    assert "factorization" in report.details
    assert sites == list(range(model.n_sites))


@pytest.mark.parametrize("build, branch", [
    (lambda: repetition_model(3), "sector"),
    (lambda: _virtual_chain(_bell(), n=3, seed=3), "multiplicity"),
], ids=["sector", "factorization"])
def test_each_analysis_builds_the_generator_table_once(monkeypatch, build, branch):
    # one operator-Schmidt SVD per pair term per analysis, not one per site
    from splitlab import structure

    model = build()
    code = ground_subspace(model)
    original = structure._site_generators
    calls = []

    def counted(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(structure, "_site_generators", counted)
    assert commuting_model_attack(model, code).branch == branch
    assert len(calls) == 1
    if branch == "multiplicity":
        factor_ground_projector(model, code)
        assert len(calls) == 2


def test_attack_virtual_rank_two_chain_pair_branch(rng):
    model = _virtual_chain(_rank_projector(4, 2, rng), n=3, seed=4)
    code = ground_subspace(model)
    report = commuting_model_attack(model, code)
    assert report.branch == "pair"
    assert report.details["analytic_delta_e"] >= 1.0 / 3.0 - 1e-9
    assert report.certified_delta_e >= report.details["analytic_delta_e"] - 1e-12
    v = embed(report.x.matrix, [report.site], code.dims)
    assert ids(code, v).delta_e >= report.certified_delta_e - 1e-9


def test_attack_blocked_four_two_two():
    model = block_sites(four_two_two_model(), [[0, 1], [2, 3]])
    report = commuting_model_attack(model, ground_subspace(model))
    assert report.branch == "sector"
    assert report.certified_delta_e >= 1.0 - 1e-9


def test_attack_random_degenerate_models():
    for seed in range(6):
        system = QuditSystem((2, 3, 2))
        model = random_commuting_model(
            system, [(0, 1), (1, 2)], seed=seed, ensure_ground_degeneracy=2)
        code = ground_subspace(model)
        assert code.degeneracy >= 2
        report = commuting_model_attack(model, code)
        assert report.certified_delta_e >= 1.0 / 3.0 - 1e-9
        v = embed(report.x.matrix, [report.site], code.dims)
        assert ids(code, v).delta_e >= report.certified_delta_e - 1e-9


def test_attack_requires_degeneracy():
    zloc = (np.eye(2) - Z) / 2
    model = two_local_model(
        QuditSystem((2, 2)), [((0, 1), (np.eye(4) - ZZ) / 2)],
        single_site_terms=[(0, zloc)])
    with pytest.raises(ValueError, match="nothing to split"):
        commuting_model_attack(model, ground_subspace(model))


def test_attack_requires_commuting():
    model = two_local_model(QuditSystem((2, 2, 2)), [((0, 1), ZZ), ((1, 2), XX)])
    with pytest.raises(ValueError, match="commuting"):
        commuting_model_attack(model, full_space_code(model.system))


def test_attack_rejects_code_of_another_model():
    model = repetition_model(3)
    with pytest.raises(ValueError, match="dims"):
        commuting_model_attack(model, ground_subspace(repetition_model(4)))
    with pytest.raises(ValueError, match="dims"):
        commuting_model_attack(model, ground_subspace(model.hamiltonian().matrix))


def test_attack_deterministic():
    model = _virtual_chain(_bell(), n=3, seed=3)
    a = commuting_model_attack(model, ground_subspace(model))
    b = commuting_model_attack(model, ground_subspace(model))
    assert a.branch == b.branch and a.site == b.site
    assert a.x.matrix.tobytes() == b.x.matrix.tobytes()


def _descending(model):
    """The model with each pair term listed as (j, i), its matrix reordered to match."""
    dims = model.system.dims
    terms = []
    for sites, m in model.terms:
        if len(sites) == 2:
            i, j = sites
            m = m.reshape(dims[i], dims[j], dims[i], dims[j]).transpose(1, 0, 3, 2)
            m, sites = m.reshape(dims[i] * dims[j], -1), (j, i)
        terms.append((sites, m))
    return dataclasses.replace(model, terms=terms)


def _factorization_or_refusal(model, code):
    try:
        return factor_ground_projector(model, code).to_json()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("build", [
    lambda: _virtual_chain(_bell(), n=3, seed=3),
    lambda: random_commuting_model(QuditSystem((3, 3, 2)), [(0, 1), (1, 2)], 21, 2),
], ids=["virtual_bell_chain", "random_chain_seed21"])
def test_pairs_listed_in_descending_site_order_give_the_same_analysis(build):
    # the structure pipeline turns a pair listed as (j, i) to ascending order
    model = build()
    flipped = _descending(model)
    assert [s for s, _ in flipped.terms] == [(1, 0), (2, 1)]
    h, h_flipped = model.hamiltonian().matrix, flipped.hamiltonian().matrix
    assert h_flipped.tobytes() == h.tobytes()
    code, code_flipped = ground_subspace(model), ground_subspace(flipped)
    assert (_factorization_or_refusal(flipped, code_flipped)
            == _factorization_or_refusal(model, code))
    a = commuting_model_attack(model, code)
    b = commuting_model_attack(flipped, code_flipped)
    assert (b.branch, b.site, b.certified_delta_e) == (a.branch, a.site, a.certified_delta_e)


def test_commuting_attack_rejects_zero_refine_iters_before_any_work(monkeypatch):
    def no_sectors(*args, **kwargs):
        raise AssertionError("sector analysis ran for a rejected call")

    monkeypatch.setattr("splitlab.structure._site_generators", no_sectors)
    model = repetition_model(3)
    with pytest.raises(ValueError, match="refine_iters must be >= 1"):
        commuting_model_attack(model, ground_subspace(model), refine_iters=0)
