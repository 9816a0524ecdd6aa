"""Pieces of the self-check battery tested on their own."""

import math

import numpy as np

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


def _half_spread(p, v):
    # (mu_max - mu_min) / 2 of the compression B^dag v B, B the range of p
    w, u = np.linalg.eigh(p)
    b = u[:, w > 0.5]
    mu = np.linalg.eigvalsh(b.conj().T @ v @ b)
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


def test_bisected_oracle_takes_the_first_of_a_tie(monkeypatch):
    # spectrum +-6 on the code and |v| = 6: the even grid is -7, -5, ..., 7
    # exactly and f(a) = 6 + |a| ties at -1 and 1, where np.argmin takes the
    # first; so the branches are read at -3 and 1 and cross at a = 0
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    v = np.diag([6.0, -6.0, 3.0]).astype(complex)
    pvp = p @ v @ p
    grid = np.linspace(-7.0, 7.0, 8)
    assert grid[3] == -1.0 and grid[4] == 1.0
    assert _herm_norm(pvp - grid[3] * p) == _herm_norm(pvp - grid[4] * p)
    seen = []
    monkeypatch.setattr(verify, "_herm_norm", lambda m: seen.append(m) or _herm_norm(m))
    assert _scalar_distance_min(p, v, 8) == 6.0
    assert any(np.array_equal(m, pvp) for m in seen)                 # a = 0
    assert any(np.array_equal(m, pvp - grid[2] * p) for m in seen)   # a = -3


def test_bisected_oracle_scores_few_grid_points(monkeypatch):
    # every norm evaluation counts: the bisection, both bracket ends and the
    # crossing of the branches
    seen = []
    monkeypatch.setattr(verify, "_herm_norm", lambda m: seen.append(m) or _herm_norm(m))
    rng = np.random.default_rng(401)
    grid_n = 61
    for _ in range(60):
        p, _, v = _random_code_and_perturbation(rng)
        seen.clear()
        _scalar_distance_min(p, v, grid_n)
        assert 2 <= len(seen) <= 2 * math.ceil(math.log2(grid_n)) + 3
