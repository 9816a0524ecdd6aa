"""Pieces of the self-check battery tested on their own."""

import numpy as np

from conftest import count_factorizations
from oracles import scalar_distance_min_full_scan
from splitlab import verify
from splitlab.operators import operator_norm, random_herm, random_projector
from splitlab.verify import _herm_norm, _random_code_and_perturbation, _scalar_distance_min


def test_duality_oracle_norm_matches_svd(rng):
    # the duality oracle reads ||PvP - aP|| as the largest |eigenvalue|
    for _ in range(40):
        dim = int(rng.integers(2, 65))
        p = random_projector(dim, int(rng.integers(1, dim)), rng).matrix
        v = random_herm(dim, rng, norm=float(rng.uniform(0.5, 2.0)))
        m = p @ v @ p - float(rng.uniform(-2.0, 2.0)) * p
        assert abs(_herm_norm(m) - operator_norm(m)) <= 1e-12


def _compressed_spectrum(p, v):
    # eigenvalues of the compression B^dag v B, B the range of p
    w, u = np.linalg.eigh(p)
    b = u[:, w > 0.5]
    return np.linalg.eigvalsh(b.conj().T @ v @ b)


def _half_spread(p, v):
    mu = _compressed_spectrum(p, v)
    return (mu[-1] - mu[0]) / 2.0


def _assert_on_the_kink(p, v):
    # an evaluated norm: never above the golden-section reference, and on
    # the minimum that the eigenvalue-spread identity gives
    got = _scalar_distance_min(p, v)
    assert got <= scalar_distance_min_full_scan(p, v) + 1e-15
    assert abs(got - _half_spread(p, v)) <= 1e-13


def test_bisected_oracle_lands_on_the_kink_on_battery_instances():
    # the quick battery's instances
    rng = np.random.default_rng(401)
    for _ in range(60):
        p, _, v = _random_code_and_perturbation(rng)
        _assert_on_the_kink(p, v)


def test_bisected_oracle_lands_on_the_kink_on_edge_cases(rng):
    p1 = random_projector(9, 1, rng).matrix
    p3 = random_projector(7, 3, rng).matrix
    zero = np.zeros((7, 7), dtype=complex)
    for p, v in ((p1, random_herm(9, rng)), (p3, zero)):   # rank-1 code; v = 0
        _assert_on_the_kink(p, v)
    # v = 0 gives f(a) = |a|, least at a = 0
    assert _scalar_distance_min(p3, zero) <= 1e-12


def _counting_herm_norm(monkeypatch):
    seen = []

    def counting(m):
        norm = _herm_norm(m)
        seen.append((m, norm))
        return norm

    monkeypatch.setattr(verify, "_herm_norm", counting)
    return seen


def test_duality_oracle_takes_three_norms(monkeypatch):
    # the battery's instances: after ||v||, which places the far ends, both
    # far ends and the crossing of the branches, each one eigvalsh; no SVD
    seen = _counting_herm_norm(monkeypatch)
    calls = count_factorizations(monkeypatch)
    rng = np.random.default_rng(401)
    for _ in range(60):
        p, _, v = _random_code_and_perturbation(rng)
        seen.clear()
        calls.clear()
        _scalar_distance_min(p, v)
        assert len(seen) == 4
        assert seen[0][0] is v
        assert (calls["svd"], calls["eigvalsh"]) == (0, 4)


def test_duality_oracle_far_ends_read_the_compressed_extremes(monkeypatch, rng):
    # f(-r) - r and r - f(r) are the largest and least compressed eigenvalue
    seen = _counting_herm_norm(monkeypatch)
    for _ in range(40):
        p, _, v = _random_code_and_perturbation(rng)
        seen.clear()
        _scalar_distance_min(p, v)
        r = _herm_norm(v) + 1.0
        pvp = p @ v @ p
        (low_m, low_f), (high_m, high_f) = seen[1:3]
        assert np.array_equal(low_m, pvp + r * p)
        assert np.array_equal(high_m, pvp - r * p)
        mu = _compressed_spectrum(p, v)
        assert abs((low_f - r) - mu[-1]) <= 1e-13
        assert abs((r - high_f) - mu[0]) <= 1e-13
