import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_density, random_ket, random_unitary
from oracles import hermitian_whole_matrix, kron_embed
from splitlab import cli
from splitlab.code_space import full_space_code, ground_subspace, project_onto_code
from splitlab.models import _check_term, matrix_to_json, repetition_model
from splitlab.operators import (
    HERM_ATOL,
    HERM_CHECK_REL,
    HERM_TILE,
    MAX_ABS_CHUNK,
    DensityOp,
    HermOp,
    Ket,
    Projector,
    _fix_phases,
    _herm_eigvalsh,
    _pattern_blocks,
    _hermitian,
    _stacked_herm_eig,
    _max_abs,
    apply_local,
    embed,
    fidelity,
    helstrom,
    herm_eig,
    herm_propagator,
    operator_norm,
    partial_trace,
    random_herm,
    reduced_states,
    total_dim,
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


@pytest.mark.parametrize("make, match", [
    (lambda: Ket(np.array([np.nan, 1.0]), (2,)), "ket norm nan is not 1 within"),
    (lambda: DensityOp(np.array([[0.5, np.nan], [np.nan, 0.5]]), (2,)), "non-finite entries"),
    (lambda: DensityOp(np.full((2, 2), np.nan), (2,)), "non-finite entries"),
    (lambda: Projector(np.full((2, 2), np.nan), (2,), 1), "non-finite entries"),
    (lambda: Projector(np.full((2, 2), np.nan), (2,)), "non-finite entries"),
    (lambda: Projector(np.diag([1.0, np.nan]), (2,), 1), "non-finite entries"),
    (lambda: HermOp(np.array([[1.0, np.nan], [np.nan, -1.0]]), (2,)), "non-finite entries"),
    (lambda: HermOp(np.diag([1.0, np.inf]), (2,)), "non-finite entries"),
], ids=["Ket", "DensityOp-offdiagonal", "DensityOp-all", "Projector-rank",
        "Projector-inferred", "Projector-diagonal", "HermOp", "HermOp-inf"])
def test_containers_refuse_nan(make, match):
    # every rule refuses unless its test holds, so a NaN fails each one
    with pytest.raises(ValueError, match=match):
        make()


def test_spectral_routines_refuse_a_nan_array():
    # the raw-array gate refuses as the containers do: no NaN eigenpair
    # comes back, and the ground extraction does not fail later on an
    # empty cluster; a dense and a block-scanned size, real and complex
    nan = np.array([[1.0, np.nan], [np.nan, -1.0]])
    big = np.diag(np.arange(130.0))
    big[3, 3] = np.inf
    for m in (nan, nan.astype(complex), big, big.astype(complex)):
        for solve in (herm_eig, ground_subspace, lambda a: _stacked_herm_eig([a[None]])):
            with pytest.raises(ValueError, match="non-finite entries"):
                solve(m)


@pytest.mark.parametrize("make, base", [
    (lambda m: HermOp(m, (2,)), Z),
    (lambda m: DensityOp(m, (2,)), 0.5 * I2),
    (lambda m: Projector(m, (2,)), np.diag([1.0, 0.0]).astype(complex)),
], ids=["HermOp", "DensityOp", "Projector"])
def test_containers_are_frozen_after_their_check(make, base):
    # nothing can change a container after its one check, which is what
    # lets the spectral wrappers factor it without a second one
    m = base.copy()
    c = make(m)
    for name in ("matrix", "dims", "rank"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, getattr(c, name, 2))
    with pytest.raises(ValueError, match="read-only"):
        c.matrix[0, 0] = 7.0
    assert m.flags.writeable and not np.shares_memory(c.matrix, m)
    m[0, 0] = 7.0
    assert_array_equal(c.matrix, base)


# ---------------------------------------------------------------- hermitian gate


def _assert_same_bits(a, b):
    """Same dtype and values, NaN at the same places, the same sign on every zero."""
    assert a.dtype == b.dtype
    assert_array_equal(a, b)
    for part in (np.real, np.imag):
        assert_array_equal(np.signbit(part(a)), np.signbit(part(b)))


def test_hermitian_gate_is_the_formula_bit_for_bit(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    exact = a + a.conj().T
    # signed-zero pairs that are exactly hermitian: (M + M^dag)/2 turns the
    # -0.0 of entry (0, 1) into +0.0, and keeps the one at (2, 2)
    exact[0, 1], exact[1, 0] = complex(-0.0, -0.0), complex(0.0, 0.0)
    exact[2, 2] = complex(-0.0, -0.0)
    inexact = exact + 1e-14 * rng.standard_normal((5, 5))
    real = exact.real.copy()
    real[3, 4], real[4, 3] = -0.0, 0.0
    cases = [exact, inexact, real, real + 1e-14 * rng.standard_normal((5, 5)),
             exact.real]                         # a strided view, as herm_eig passes
    for m in cases:
        before = m.copy()
        out = _hermitian(m, 1e-12, "x")
        _assert_same_bits(out, 0.5 * (m + m.conj().T))
        _assert_same_bits(m, before)
        assert not np.shares_memory(out, m)
    # returning the exact input itself would keep a sign the formula drops
    assert np.signbit(exact[0, 1].real) and not np.signbit(_hermitian(exact, 0.0, "x")[0, 1].real)


def test_hermitian_gate_passes_a_nan_defect():
    for m in (np.array([[1.0, np.nan], [2.0, 3.0]], dtype=complex),
              np.array([[np.nan, 0.0], [0.0, 1.0]])):
        _assert_same_bits(_hermitian(m, 0.0, "x"), 0.5 * (m + m.conj().T))


def test_hermitian_gate_holds_each_stacked_matrix_to_its_own_tolerance(rng):
    a = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    m = a + a.conj().mT
    m[:, 0, 1] += 1e-9                       # defect 1e-9 in both matrices
    _hermitian(m, np.array([1e-8, 1e-8]), "x")
    with pytest.raises(ValueError, match="^x$"):
        _hermitian(m, np.array([1e-8, 1e-10]), "x")
    with pytest.raises(ValueError, match="^x$"):
        _hermitian(m, 1e-10, "x")


def _result_or_message(gate, m, atol=1e-12):
    """(result, None) of a gate on ``m`` at ``atol``, or (None, its message)."""
    try:
        return gate(m, atol, "refused"), None
    except ValueError as exc:
        return None, str(exc)


def _assert_gate_is_reference(m, atol=1e-12):
    """The gate on ``m`` gives the whole-matrix reference's decision and bits."""
    before = m.copy()
    out, refused = _result_or_message(_hermitian, m, atol)
    ref, ref_refused = _result_or_message(hermitian_whole_matrix, m, atol)
    assert refused == ref_refused
    assert m.tobytes() == before.tobytes()            # the input is never written
    if ref is not None:
        assert out.dtype == ref.dtype and out.flags.c_contiguous
        assert out.tobytes() == ref.tobytes()
        _assert_same_bits(out, ref)
        assert not np.shares_memory(out, m)
    return refused


@pytest.mark.parametrize("n", [HERM_TILE - 1, HERM_TILE, HERM_TILE + 1, 1000])
def test_gate_is_the_whole_matrix_reference_bit_for_bit(rng, n):
    # one tile up to HERM_TILE rows, tile by tile past it; either way every
    # bit and every decision is the whole-matrix reference's
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    exact = a + a.conj().T
    # signed-zero pairs in the first and the last tile row, and on the diagonal
    exact[0, n - 1], exact[n - 1, 0] = complex(-0.0, -0.0), complex(0.0, 0.0)
    exact[n - 2, 1], exact[1, n - 2] = complex(0.0, -0.0), complex(-0.0, 0.0)
    exact[2, 2] = complex(-0.0, -0.0)
    noise = 1e-14 * rng.standard_normal((n, n))
    real = exact.real.copy()
    real[3, n - 4], real[n - 4, 3] = -0.0, 0.0
    within, above = exact.copy(), exact.copy()
    within[1, n - 3] += 0.99e-12                     # defect within atol = 1e-12
    above[1, n - 3] += 1.01e-12
    nan = above.copy()
    nan[n - 1, 0] += 5.0                             # a large defect in the last tile row
    nan[0, 1] = complex(np.nan, 0.0)                 # and a NaN defect in the first tile
    cases = [exact, exact + noise, real, real + noise,
             exact.real, (exact + noise).real,        # strided views, as herm_eig passes
             within, above, nan, nan.real]
    for m in cases:
        _assert_gate_is_reference(m)
    assert _result_or_message(_hermitian, above)[1] == "refused"
    assert _result_or_message(_hermitian, within)[1] is None
    assert _result_or_message(_hermitian, nan)[1] is None     # a NaN anywhere passes
    # stacks, each matrix held to its own tolerance: a NaN passes only its
    # own matrix, and one matrix past its tolerance refuses the stack
    for stack, atol, refused in [
            (np.stack([exact + noise, within]), 1e-12, None),
            (np.stack([within, above]), np.array([1e-12, 1e-12]), "refused"),
            (np.stack([within, above]), np.array([1e-12, 1.1e-12]), None),
            (np.stack([nan, above]), 1e-12, "refused"),
            (np.stack([above, nan]).real, np.array([1.1e-12, 0.0]), None)]:
        assert _assert_gate_is_reference(stack, atol) == refused
    before = exact.copy()
    op = HermOp(exact, (n,))
    assert exact.tobytes() == before.tobytes() and not np.shares_memory(op.matrix, exact)


def test_gate_decides_once_for_the_whole_matrix():
    # the whole matrix is held to one tolerance: a defect past it refuses,
    # in a diagonal tile or off it, in the first tile or the last
    n = 2 * HERM_TILE + 3
    for i, j in [(0, 1), (HERM_TILE, 0), (n - 1, n - 2), (1, n - 1)]:
        m = np.zeros((n, n))
        m[i, j] = 1e-9
        with pytest.raises(ValueError, match="^x$"):
            _hermitian(m, 1e-10, "x")
        _hermitian(m, 1e-8, "x")
    # an all-zero defect passes whatever the tolerance is
    assert _hermitian(np.eye(n), -1.0, "x").tobytes() == np.eye(n).tobytes()


def test_gate_forms_no_second_d_by_d_array(rng):
    # a raw matrix or a one-matrix stack past one tile: besides its result
    # the gate holds one tile buffer and one tile's |defect|
    n = 1024
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a + a.conj().T + 1e-14 * rng.standard_normal((n, n))
    for x in (m, m[None]):
        tracemalloc.start()
        try:
            _hermitian(x, 1e-12, "x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * m.nbytes, (x.shape, peak / m.nbytes)


def _same_float(a, b) -> bool:
    return type(a) is type(b) is float and (
        (np.isnan(a) and np.isnan(b)) or (a == b and np.signbit(a) == np.signbit(b)))


def test_max_abs_is_the_whole_reduction(rng):
    rows = MAX_ABS_CHUNK // 64                       # rows of 64 entries in one chunk
    cases = []
    for n in (1, rows - 1, rows, rows + 1, 3 * rows, 3 * rows + 5):
        m = rng.standard_normal((n, 64)) + 1j * rng.standard_normal((n, 64))
        cases.append(m)
        cases.append(m.real)                          # a strided view
    big = rng.standard_normal((3 * rows + 5, 64))
    for where in ((0, 0), (rows, 3), (3 * rows + 4, 63)):   # first, a middle, the last chunk
        for bad in (np.nan, np.inf, -np.inf):
            m = big.copy()
            m[where] = bad
            cases.append(m)
    nan_and_inf = big.copy()
    nan_and_inf[5, 5], nan_and_inf[3 * rows, 0] = np.inf, np.nan
    zeros = np.full((3 * rows, 64), -0.0)
    cases += [nan_and_inf, zeros, zeros.astype(complex) * -1,
              rng.standard_normal(5 * MAX_ABS_CHUNK),           # a long vector
              rng.standard_normal((4, 5, 6)), np.array([-0.0])]
    for m in cases:
        assert _same_float(_max_abs(m), float(np.max(np.abs(m))))
    assert _same_float(_max_abs(zeros), 0.0)
    # an empty matrix, or one of empty rows, raises as np.max does
    for m in (np.zeros((0, 4)), np.zeros((3 * rows, 0)), np.zeros(0)):
        with pytest.raises(ValueError, match="zero-size array"):
            np.max(np.abs(m))
        with pytest.raises(ValueError, match="zero-size array"):
            _max_abs(m)


def test_max_abs_reads_in_chunks():
    # |m| is formed a chunk at a time: a 2048 x 2048 complex matrix (64 MiB)
    # makes no temporary near its 32 MiB |m|
    import tracemalloc

    m = np.ones((2048, 2048), dtype=complex)
    tracemalloc.start()
    try:
        assert _max_abs(m) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * MAX_ABS_CHUNK


def _scenario_matrix(m):
    table = {"matrix": cli.Field(cli._matrix, cli._MATRIX)}
    return cli._fields({"matrix": matrix_to_json(m)}, table, "p")["matrix"]


_SCALED = np.diag([4.0, -2.0]).astype(complex)         # largest entry 4
_SCALED_REL = 4e-10                                    # 1e-10 * max(1, 4)


@pytest.mark.parametrize("call, base, atol, message", [
    pytest.param(lambda m: HermOp(m, (2,)), _SCALED, 4 * HERM_ATOL,
                 "matrix is not hermitian within tolerance", id="HermOp"),
    pytest.param(lambda m: DensityOp(m, (2,)), np.diag([0.5, 0.5]).astype(complex), HERM_ATOL,
                 "density matrix is not hermitian within tolerance", id="DensityOp"),
    pytest.param(lambda m: Projector(m, (2,)), np.diag([1.0, 0.0]).astype(complex), HERM_ATOL,
                 "projector is not hermitian within tolerance", id="Projector"),
    pytest.param(herm_eig, np.diag([3.0, 4.0]).astype(complex), 5 * HERM_CHECK_REL,
                 "input is too far from hermitian", id="herm_eig"),   # Frobenius norm 5
    pytest.param(lambda m: _check_term((0,), m, (2,)), _SCALED, _SCALED_REL,
                 "term on (0,) is not hermitian", id="model-term"),
    pytest.param(_scenario_matrix, _SCALED, _SCALED_REL,
                 "p.matrix must be a square matrix of [re, im] pairs, finite and hermitian",
                 id="scenario-matrix"),
    pytest.param(lambda m: project_onto_code(full_space_code((2,)), m), _SCALED, _SCALED_REL,
                 "compressed operator is not hermitian; input was not", id="code-compression"),
])
def test_hermitian_gate_keeps_each_callers_tolerance(call, base, atol, message):
    below, above = base.copy(), base.copy()
    below[0, 1] = 0.99 * atol                   # the defect max|M - M^dag| is this entry
    above[0, 1] = 1.01 * atol
    call(below)
    with pytest.raises((ValueError, cli.ScenarioError), match=f"^{re.escape(message)}$"):
        call(above)


def test_scenario_matrix_is_used_as_given():
    m = _SCALED.copy()
    m[0, 1] = 1e-10
    assert_array_equal(_scenario_matrix(m), m)


# ---------------------------------------------------------------- embed


def test_embed_single_site():
    assert_allclose(embed(Z, [1], (2, 2)), np.kron(I2, Z))
    assert_allclose(embed(Z, [0], (2, 2)), np.kron(Z, I2))


def test_embed_unsorted_support():
    # operator given on (site2, site0) order
    m = np.kron(X, Z)  # X on site 2, Z on site 0
    got = embed(m, [2, 0], (2, 3, 2))
    want = np.kron(Z, np.kron(np.eye(3), X))
    assert_allclose(got, want, atol=1e-14)


def _has_negative_zero(a):
    return bool(np.any((a.real == 0) & np.signbit(a.real))
                or np.any((a.imag == 0) & np.signbit(a.imag)))


@pytest.mark.parametrize("dims, sites", [
    ((2, 3, 4), []),
    ((2, 3, 4), [1]),
    ((2, 3, 4), [2, 0]),
    ((3, 2, 4), [1, 2]),
    ((2, 3, 4, 2), [3, 1, 0]),
    ((2, 3, 4, 2), [0, 2, 1, 3]),
])
def test_embed_equals_kron_oracle_without_negative_zeros(rng, dims, sites):
    # kron multiplies negative entries by the identity's zeros and emits
    # -0.0 there; the strided placement leaves those entries at +0.0
    d_sup = total_dim([dims[s] for s in sites])
    m = rng.standard_normal((d_sup, d_sup)) + 1j * rng.standard_normal((d_sup, d_sup))
    got = embed(m, sites, dims)
    assert np.array_equal(got, kron_embed(m, sites, dims))
    assert not _has_negative_zero(got)


def test_embed_rejects_bad_support():
    with pytest.raises(ValueError):
        embed(Z, [0, 0], (2, 2))
    with pytest.raises(ValueError):
        embed(Z, [3], (2, 2))
    with pytest.raises(ValueError, match="shape"):
        embed(Z, [0], (3, 2))


@pytest.mark.parametrize("dims, sites", [
    ((2, 3, 2), [1]),
    ((2, 3, 2), [2, 0]),
    ((2, 3, 2), [0, 2]),
    ((3, 2, 2, 2), [3, 1]),
    ((2, 3, 2), [1, 2, 0]),
    ((2, 3), []),
])
@pytest.mark.parametrize("cols", [None, 1, 5])
def test_apply_local_matches_embed(rng, dims, sites, cols):
    d_sup = total_dim([dims[s] for s in sites])
    op = rng.standard_normal((d_sup, d_sup)) + 1j * rng.standard_normal((d_sup, d_sup))
    shape = (total_dim(dims),) if cols is None else (total_dim(dims), cols)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = apply_local(op, sites, dims, x)
    assert got.shape == x.shape
    assert_allclose(got, embed(op, sites, dims) @ x, rtol=0, atol=1e-14 * d_sup)


def test_apply_local_rejects_bad_support_and_shape():
    x = np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="repeated"):
        apply_local(Z, [0, 0], (2, 2), x)
    with pytest.raises(ValueError, match="range"):
        apply_local(Z, [3], (2, 2), x)
    with pytest.raises(ValueError, match="range"):
        apply_local(Z, [-1], (2, 2), x)
    with pytest.raises(ValueError, match="support dims"):
        apply_local(Z, [0], (3, 2), np.ones(6))
    with pytest.raises(ValueError, match="shape"):
        apply_local(Z, [0], (2, 2), np.ones(3))
    with pytest.raises(ValueError, match="shape"):
        apply_local(Z, [0], (2, 2), np.ones((4, 2, 2)))


@pytest.mark.parametrize("dims, keep", [
    ((2, 3), [0]), ((2, 3), [1]), ((2, 3, 2), [2, 0]), ((2, 2, 2, 2), [1, 3]),
    ((3, 2), []), ((2, 3), [0, 1]),
])
def test_reduced_states_match_partial_trace(rng, dims, keep):
    d = total_dim(dims)
    vecs = np.stack([random_ket(d, rng) for _ in range(3)])
    got = reduced_states(vecs, dims, keep)
    for v, r in zip(vecs, got):
        assert_allclose(r, partial_trace(np.outer(v, v.conj()), dims, keep), atol=1e-14)
    assert_allclose(reduced_states(vecs[0], dims, keep), got[0], atol=0)


def test_reduced_states_rejects_bad_keep():
    v = np.ones(4) / 2
    with pytest.raises(ValueError):
        reduced_states(v, (2, 2), [2])
    with pytest.raises(ValueError):
        reduced_states(v, (2, 2), [0, 0])


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


@pytest.mark.parametrize("norm", [operator_norm, trace_norm])
def test_norms_of_a_stack_are_the_per_matrix_norms_bit_for_bit(rng, norm):
    for shape in ((5,), (2, 3)):
        stack = rng.standard_normal(shape + (4, 3)) + 1j * rng.standard_normal(shape + (4, 3))
        out = norm(stack)
        assert isinstance(out, np.ndarray) and out.shape == shape
        one = [norm(m) for m in stack.reshape(-1, 4, 3)]
        assert all(type(x) is float for x in one)
        assert np.array_equal(out.reshape(-1), one)
    stack[1, 2, 3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite entries"):
        norm(stack)
    for shape in ((0, 3, 3), (2, 0, 0)):
        empty = norm(np.zeros(shape))
        assert isinstance(empty, np.ndarray) and np.array_equal(empty, np.zeros(shape[:-2]))
    assert norm(np.zeros((0, 0))) == 0.0


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
        want = _fix_phases_loop(v)
        got = _fix_phases(v)
        assert got is v                                   # rotated in place
        assert_allclose(got, want, rtol=0, atol=1e-15)
        assert np.all(got[:, 0] == 0)
        # real columns: the rotation is a sign flip and stays real
        _, r = np.linalg.eigh(random_herm(dim, rng, norm=None).real)
        want = _fix_phases_loop(r.astype(complex))
        mags = np.abs(r)
        got = _fix_phases(r)
        assert got.dtype == np.float64
        assert_allclose(got, want, rtol=0, atol=1e-15)
        assert_array_equal(np.abs(got), mags)
    tie = np.array([[1j, 0.5], [-1.0, 0.5j]]) / np.sqrt(np.array([2.0, 0.5]))
    want = _fix_phases_loop(tie)
    assert_allclose(_fix_phases(tie), want, rtol=0, atol=1e-15)
    assert _fix_phases(np.zeros((0, 0), dtype=complex)).shape == (0, 0)


def _record_eigen_inputs(monkeypatch, attr="dtype"):
    """One attribute (dtype or shape) of each matrix reaching
    np.linalg.eigh/eigvalsh from operators."""
    from splitlab import operators

    seen = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(operators.np.linalg, name)

        def recorded(a, *args, _original=original, **kwargs):
            seen.append(getattr(np.asarray(a), attr))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(operators.np.linalg, name, recorded)
    return seen


def _real_symmetric(dim, rng):
    g = rng.standard_normal((dim, dim))
    return (g + g.T).astype(complex)       # complex dtype, imaginary part exactly 0


def _degenerate_real(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    levels = np.array([-1.0, 0.0, 2.0])[np.arange(dim) % 3]
    return ((q * levels) @ q.T).astype(complex)


def _clusters(w, tol):
    """(start, stop) of each run of eigenvalues closer than 1e3 tol."""
    cuts = [0] + [i + 1 for i in np.nonzero(np.diff(w) > 1e3 * tol)[0]] + [len(w)]
    return list(zip(cuts[:-1], cuts[1:]))


def test_real_valued_input_takes_the_real_driver(monkeypatch):
    seen = _record_eigen_inputs(monkeypatch)
    h = np.kron(Z, Z) + 0.3 * np.kron(X, I2)
    w, v = herm_eig(h)
    _herm_eigvalsh(h)
    DensityOp(np.eye(4, dtype=complex) / 4, (4,))
    assert seen == [np.float64] * 3
    assert v.dtype == np.complex128 and w.dtype == np.float64
    assert_allclose((v * w) @ v.conj().T, h, atol=1e-12)


def test_complex_input_keeps_the_complex_driver(monkeypatch, rng):
    seen = _record_eigen_inputs(monkeypatch)
    u = random_unitary(4, rng)
    y_term = np.kron(Z, Z) + 1e-300 * np.kron(Y, I2)   # a tiny imaginary part is enough
    for h in (y_term, u @ np.kron(Z, Z) @ u.conj().T):
        herm_eig(h)
        _herm_eigvalsh(h)
    assert seen == [np.complex128] * 4


def test_real_and_complex_routes_agree(monkeypatch, rng):
    from splitlab import operators

    def complex_route(m):
        # the same wrapper with the dispatch switched off
        with monkeypatch.context() as mp:
            mp.setattr(operators, "_lapack_operand", lambda a: a)
            return herm_eig(m), _herm_eigvalsh(m)

    for dim in (1, 2, 7, 32):
        for m in (_real_symmetric(dim, rng),
                  # degenerate clusters: eigenvalues -1, 0 and 2 with multiplicities
                  _degenerate_real(dim, rng)):
            (w, v), wv = herm_eig(m), _herm_eigvalsh(m)
            (wc, vc), wvc = complex_route(m)
            tol = 1e-12 * max(operator_norm(m), 1.0)
            assert v.dtype == vc.dtype == np.complex128
            assert_allclose(w, wc, rtol=0, atol=tol)
            assert_allclose(wv, wvc, rtol=0, atol=tol)
            for lo, hi in _clusters(wc, tol):
                p = v[:, lo:hi] @ v[:, lo:hi].conj().T
                pc = vc[:, lo:hi] @ vc[:, lo:hi].conj().T
                assert_allclose(p, pc, rtol=0, atol=tol)
            for vecs in (v, vc):
                top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(dim)]
                assert np.all(np.abs(top.imag) <= 1e-15) and np.all(top.real > 0)


def _permuted_blocks(n, rng, real, sizes=None):
    """A hermitian matrix whose pattern is blocks of the given sizes (default
    random sizes 1-5) under a random permutation, with eigenvalues from
    three levels, so ties cross blocks."""
    if sizes is None:
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(int(rng.integers(1, 6)), n - sum(sizes)))
    b = np.zeros((n, n), dtype=complex)
    lo = 0
    for s in sizes:
        u = np.linalg.qr(rng.standard_normal((s, s)))[0] if real else random_unitary(s, rng)
        levels = rng.choice([-1.0, 0.5, 2.0], size=s)
        b[lo:lo + s, lo:lo + s] = (u * levels) @ u.conj().T
        lo += s
    perm = rng.permutation(n)
    return b[np.ix_(perm, perm)]


def test_block_and_dense_routes_agree(monkeypatch, rng):
    from splitlab import operators

    def dense_route(m):
        # the same wrappers with the pattern dispatch switched off
        with monkeypatch.context() as mp:
            mp.setattr(operators, "_pattern_blocks", lambda a: None)
            return herm_eig(m), _herm_eigvalsh(m)

    floor = operators.BLOCK_SCAN_MIN_DIM
    for n in (floor // 2, floor, 2 * floor + 3):
        diagonal = np.diag(rng.choice([-1.0, 0.0, 3.0], size=n)).astype(complex)
        for m in (_permuted_blocks(n, rng, real=True), _permuted_blocks(n, rng, real=False),
                  diagonal,
                  # two dense halves; one dense block and one index, the
                  # split pattern with the most nonzero entries, (n-1)^2 + 1
                  _permuted_blocks(n, rng, real=True, sizes=[n // 2, n - n // 2]),
                  _permuted_blocks(n, rng, real=False, sizes=[n - 1, 1])):
            assert (operators._pattern_blocks(m) is None) == (n < floor)
            (w, v), wv = herm_eig(m), _herm_eigvalsh(m)
            (wd, vd), wvd = dense_route(m)
            tol = 1e-12 * max(operator_norm(m), 1.0)
            assert v.dtype == vd.dtype == np.complex128
            assert_allclose(w, wd, rtol=0, atol=tol)
            assert_allclose(wv, wvd, rtol=0, atol=tol)
            assert_allclose((v * w) @ v.conj().T, m, rtol=0, atol=10 * tol)
            for lo, hi in _clusters(wd, tol):
                p = v[:, lo:hi] @ v[:, lo:hi].conj().T
                pd = vd[:, lo:hi] @ vd[:, lo:hi].conj().T
                assert_allclose(p, pd, rtol=0, atol=10 * tol)
            for vecs in (v, vd):
                top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
                assert np.all(np.abs(top.imag) <= 1e-15) and np.all(top.real > 0)
    # a block-diagonal input that is not hermitian is still refused
    m = _permuted_blocks(2 * floor, rng, real=False)
    i, j = np.argwhere(np.abs(m - np.diag(np.diag(m))) > 0.1)[0]
    m[i, j] += 0.5
    assert operators._pattern_blocks(m) is not None
    with pytest.raises(ValueError, match="hermitian"):
        herm_eig(m)


def test_block_patterns_reach_lapack_as_small_blocks(monkeypatch, rng):
    from splitlab import operators
    from splitlab.code_space import ground_subspace
    from splitlab.models import QuditSystem, random_commuting_model, repetition_model

    shapes = _record_eigen_inputs(monkeypatch, attr="shape")
    model = repetition_model(8)                     # D = 256, H diagonal
    code = ground_subspace(model)
    v = embed(X + Z, [0], model.system.dims)
    herm_eig(1000 * model.hamiltonian().matrix + 0.1 * v)   # blocks of size 2
    assert code.degeneracy == 2 and shapes
    assert all(s[-1] <= 2 for s in shapes)
    # the pattern of a random commuting chain is one component: its ground
    # extraction is one full-size matrix on the dense route
    n = 7
    assert 2 ** n >= operators.BLOCK_SCAN_MIN_DIM
    model = random_commuting_model(QuditSystem((2,) * n),
                                   [(i, i + 1) for i in range(n - 1)], seed=3)
    shapes.clear()
    ground_subspace(model)
    assert shapes == [(2 ** n, 2 ** n)]
    # a fully dense matrix leaves after the nonzero count, reading no index
    monkeypatch.setattr(operators.np, "flatnonzero", None)
    assert operators._pattern_blocks(random_herm(2 ** n, rng, norm=None)) is None


def test_herm_eig_of_a_container_is_herm_eig_of_its_array(rng):
    # a HermOp's array is factored as it is and the raw array through the
    # gate, which returns that same array: the two agree bit for bit
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    dense = z + z.conj().T
    dense[0, 1] += 1e-15                      # a defect inside both tolerances
    rep = repetition_model(8).hamiltonian()   # real, and its pattern splits
    assert not rep.matrix.imag.any() and _pattern_blocks(rep.matrix.real) is not None
    for m, dims in [(dense, (16,)), (np.array(rep.matrix), rep.dims)]:
        (w_op, v_op), (w_raw, v_raw) = herm_eig(HermOp(m, dims)), herm_eig(m)
        for a, b in [(w_op, w_raw), (v_op, v_raw)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_herm_eig_rejects_nonhermitian():
    for m in ([[0, 1], [0.5, 0]], [[0, 1j], [1j, 0]]):       # real route, complex route
        with pytest.raises(ValueError, match="hermitian"):
            herm_eig(np.array(m, dtype=complex))


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


def test_fidelity_of_stacks_is_the_pairwise_fidelity_bit_for_bit(rng):
    for n in (2, 3, 5):
        rhos = np.stack([random_density(n, rng) for _ in range(6)])
        sigmas = np.stack([random_density(n, rng, rank=1 + i % n) for i in range(6)])
        f = fidelity(rhos, sigmas)
        assert isinstance(f, np.ndarray) and f.shape == (6,)
        one = [fidelity(r, s) for r, s in zip(rhos, sigmas)]
        assert all(type(x) is float for x in one)
        assert np.array_equal(f, one)


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


def test_total_dim_is_exact_past_int64():
    # a 64-bit product would wrap 2**64 to 0 and slip under the dimension cap
    assert total_dim((2,) * 64) == 2 ** 64
    assert total_dim((2,) * 66) == 2 ** 66
