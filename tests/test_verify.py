"""Pieces of the self-check battery tested on their own."""

from splitlab.operators import operator_norm, random_herm, random_projector
from splitlab.verify import _herm_norm


def test_duality_oracle_norm_matches_svd(rng):
    # the duality oracle reads ||PvP - aP|| as the largest |eigenvalue|
    for _ in range(40):
        dim = int(rng.integers(2, 65))
        p = random_projector(dim, int(rng.integers(1, dim)), rng).matrix
        v = random_herm(dim, rng, norm=float(rng.uniform(0.5, 2.0)))
        m = p @ v @ p - float(rng.uniform(-2.0, 2.0)) * p
        assert abs(_herm_norm(m) - operator_norm(m)) <= 1e-12
