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


def test_bisected_oracle_matches_full_scan_on_battery_instances():
    # the quick battery's instances: the same float as scoring all 61 points
    rng = np.random.default_rng(401)
    for _ in range(60):
        p, _, v = _random_code_and_perturbation(rng)
        assert _scalar_distance_min(p, v) == scalar_distance_min_full_scan(p, v)


def test_bisected_oracle_matches_full_scan_on_edge_cases(rng):
    p1 = random_projector(9, 1, rng).matrix
    p3 = random_projector(7, 3, rng).matrix
    zero = np.zeros((7, 7), dtype=complex)
    for p, v in ((p1, random_herm(9, rng)), (p3, zero)):   # rank-1 code; v = 0
        assert _scalar_distance_min(p, v) == scalar_distance_min_full_scan(p, v)
    # v = 0 gives f(a) = |a|, least at the middle grid point
    assert _scalar_distance_min(p3, zero) <= 1e-12


def test_bisected_oracle_takes_the_first_of_a_tie(monkeypatch):
    # spectrum +-6 on the code and |v| = 6: the even grid is -7, -5, ..., 7
    # exactly and f(a) = 6 + |a| ties at -1 and 1, where np.argmin takes the
    # first; so the golden section starts on the bracket [-3, 1]
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    v = np.diag([6.0, -6.0, 3.0]).astype(complex)
    pvp = p @ v @ p
    grid = np.linspace(-7.0, 7.0, 8)
    assert grid[3] == -1.0 and grid[4] == 1.0
    assert _herm_norm(pvp - grid[3] * p) == _herm_norm(pvp - grid[4] * p)
    seen = []
    monkeypatch.setattr(verify, "_herm_norm", lambda m: seen.append(m) or _herm_norm(m))
    assert _scalar_distance_min(p, v, 8) == scalar_distance_min_full_scan(p, v, 8)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    first_c = grid[4] - golden * (grid[4] - grid[2])
    assert any(np.array_equal(m, pvp - first_c * p) for m in seen)


def test_bisected_oracle_scores_few_grid_points(monkeypatch):
    # every norm evaluation is recorded; those of a grid point are counted
    seen = []
    monkeypatch.setattr(verify, "_herm_norm", lambda m: seen.append(m) or _herm_norm(m))
    rng = np.random.default_rng(401)
    grid_n = 61
    for _ in range(10):
        p, _, v = _random_code_and_perturbation(rng)
        seen.clear()
        _scalar_distance_min(p, v, grid_n)
        r = operator_norm(v) + 1.0
        stack = p @ v @ p - np.linspace(-r, r, grid_n)[:, None, None] * p
        on_grid = sum(bool(np.any(np.all(stack == m, axis=(1, 2)))) for m in seen)
        assert 1 <= on_grid <= 2 * math.ceil(math.log2(grid_n)) + 1
