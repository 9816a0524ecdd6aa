"""Pieces of the self-check battery tested on their own."""

import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import BATTERY_GROUPS, battery_cpus, count_factorizations, stub_battery
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


# ---------------------------------------------------------------- lanes


def test_lane_count_does_not_change_results(monkeypatch):
    # every field but the group's own seconds, in the same order
    battery_cpus(monkeypatch, 3)
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(fork()) or forked[-1])
    many = verify.run_battery("quick")
    assert len(forked) == 2
    battery_cpus(monkeypatch, 1)
    one = verify.run_battery("quick")
    assert len(one) == 21
    assert [replace(r, seconds=0.0) for r in one] == [replace(r, seconds=0.0) for r in many]


def _no_fork():
    raise AssertionError("forked")


def _one_cpu(monkeypatch):
    battery_cpus(monkeypatch, 1)


def _another_thread(monkeypatch):
    # a forked child would hold a copy of any lock this thread holds
    battery_cpus(monkeypatch, 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    return lambda: (release.set(), thread.join(60))


def _pool_unset(monkeypatch):
    # a BLAS pool left at its default may take every CPU
    battery_cpus(monkeypatch, 3)
    for var in verify.POOL_VARS:
        monkeypatch.delenv(var)


def _pool_of_two(monkeypatch):
    battery_cpus(monkeypatch, 3)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")


@pytest.mark.parametrize("setting", [_one_cpu, _another_thread, _pool_unset, _pool_of_two],
                         ids=["one-cpu", "another-thread", "pool-unset", "pool-of-two"])
def test_one_lane_forks_nothing(monkeypatch, setting):
    # the same pull loop, in the calling process alone
    monkeypatch.setattr(os, "fork", _no_fork)
    stub_battery(monkeypatch, lambda: None, lambda: None)
    done = setting(monkeypatch)
    try:
        assert [r.name for r in verify.run_battery("quick")] == list(BATTERY_GROUPS)
    finally:
        if done:
            done()


def test_a_refused_fork_leaves_the_lanes_forked_so_far(monkeypatch):
    real_fork, forks = os.fork, []

    def fork_once():
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    stub_battery(monkeypatch, _pause, _pause)
    battery_cpus(monkeypatch, 3)
    assert [r.name for r in verify.run_battery("quick")] == list(BATTERY_GROUPS)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pause():
    time.sleep(0.02)


def _raise():
    raise RuntimeError("group failed")


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("cannot travel")
        self.hook = lambda: None


def _raise_unpicklable():
    raise _Unpicklable()


def _die():
    os._exit(7)


@pytest.mark.parametrize("in_parent, in_worker, kind, error", [
    (_pause, _pause, None, None),
    (_raise, _pause, RuntimeError, "group failed"),
    (_pause, _raise, RuntimeError, "group failed"),
    (_pause, _raise_unpicklable, RuntimeError, "cannot travel"),
    (_pause, _die, verify.LaneError,
     r"ended with wait status 1792 \(exit code 7\) and no results"),
], ids=["returns", "parent-raises", "worker-raises", "worker-raises-unpicklable",
        "worker-dies"])
def test_no_worker_is_left_behind(monkeypatch, in_parent, in_worker, kind, error):
    # however the battery ends, every forked lane is reaped before it does;
    # a lane pauses on each group it runs, so each one pulls some
    stub_battery(monkeypatch, in_parent, in_worker)
    battery_cpus(monkeypatch, 3)
    if kind is None:
        assert [r.name for r in verify.run_battery("quick")] == list(BATTERY_GROUPS)
    else:
        with pytest.raises(kind, match=error) as caught:
            verify.run_battery("quick")
        if in_worker is _raise:
            # the worker's own exception, its traceback text as the cause
            assert isinstance(caught.value.__cause__, verify.LaneError)
            assert "_raise" in str(caught.value.__cause__)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
