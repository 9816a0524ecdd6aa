"""Shared helpers for the test suite.

Random objects are always drawn from an explicitly seeded Generator so every
test is reproducible; tests that sweep many instances derive one rng per
sweep and never reseed inside the loop.
"""

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import splitlab.operators
from splitlab import dynamics
from splitlab.operators import haar_unitary, mat_of


def random_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    r = rank if rank is not None else dim
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return haar_unitary(dim, rng)


def traced_peak(fn):
    """(fn(), the peak traced memory in bytes while it ran), under tracemalloc.

    Only what fn allocates is traced; fn may read the current figure itself
    through tracemalloc.get_traced_memory.
    """
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_factorizations(monkeypatch) -> Counter:
    """A Counter of the svd and eigvalsh calls made from here on, by name."""
    # np.linalg.norm reaches the SVD through the private module's global,
    # so both bindings of each routine are replaced
    calls = Counter()
    for name in ("svd", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
        monkeypatch.setattr(np.linalg._linalg, name, counting)
    return calls


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


@pytest.fixture
def factorizations(monkeypatch):
    """Lists that record, from here on, the shape of every full
    eigendecomposition's input (operators._eigh_columns, which herm_eig and
    the ground extraction call), one entry per pattern scan of the dynamics,
    and the shape of every batched (3-D) np.linalg.eigh input, whoever
    makes the call."""
    full, scans, stacked = [], [], []
    original = splitlab.operators._eigh_columns

    def counting(matrix):
        full.append(np.shape(mat_of(matrix)))
        return original(matrix)

    for name, module in list(sys.modules.items()):
        if name.startswith("splitlab") and getattr(module, "_eigh_columns", None) is original:
            monkeypatch.setattr(module, "_eigh_columns", counting)
    scan = dynamics._pattern_blocks
    monkeypatch.setattr(dynamics, "_pattern_blocks", lambda a: scans.append(1) or scan(a))
    eigh = np.linalg.eigh

    def batched(a):
        if np.ndim(a) == 3:
            stacked.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", batched)
    return full, scans, stacked
