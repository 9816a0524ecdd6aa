"""Fuzzed scenarios: one field replaced or added, always a documented exit.

Each example takes a small valid scenario (qubit chains of at most four
sites, the four-qubit code and one 18-dimensional random chain), replaces the value at one path
(or adds one field to one object) with an arbitrary JSON value, runs it and
asserts the exit code is 0, 2, 3 or 4, with nothing written on 2 or 4,
and every JSON file written on 0 or 3 strict JSON: no NaN or Infinity.
Integers stay in [-2, 6] so sizes such as ``n``, ``nodes`` and ``num``
cannot make an example slow.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitlab import cli

X_PLUS_Z = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]]

BASES = [
    {"schema_version": 1, "task": "ids", "model": {"fixture": "four_two_two"},
     "params": {"sweep": "single_paulis", "require_kl": True, "kl_tol": 1e-8}},
    {"schema_version": 1, "task": "ids", "model": {"fixture": "repetition", "n": 3},
     "params": {"perturbations": [{"pauli": "ZII"},
                                  {"sites": [1], "matrix": X_PLUS_Z}]}},
    {"schema_version": 1, "task": "attack", "seed": 7,
     "model": {"fixture": "repetition", "n": 3},
     "params": {"site": 1, "refine_iters": 5}},
    {"schema_version": 1, "task": "attack",
     "model": {"fixture": "four_two_two", "blocked": True}},
    {"schema_version": 1, "task": "decompose",
     "model": {"fixture": "random_commuting", "dims": [3, 3, 2],
               "pairs": [[0, 1], [1, 2]], "seed": 31, "ground_degeneracy": 1}},
    {"schema_version": 1, "task": "dephase", "seed": 3,
     "model": {"fixture": "repetition", "n": 3},
     "params": {"perturbation": {"sites": [0], "matrix": X_PLUS_Z},
                "distribution": {"kind": "gaussian", "mean": 0.0, "std": 0.1},
                "t_grid": {"start": 0.0, "stop": 1.0, "num": 2},
                "nodes": 4, "gap_factor": 100.0, "epsilon": 0.01,
                "sim_tol": 0.05, "state": "worst"}},
]

# field names the scenarios know, so that added fields are often known ones
NAMES = sorted({"schema_version", "task", "model", "params", "seed", "fixture", "n",
                "blocked", "dims", "pairs", "ground_degeneracy", "terms",
                "stabilizers", "sites", "matrix", "pauli", "perturbations", "sweep",
                "require_kl", "kl_tol", "site", "refine_iters", "perturbation",
                "distribution", "kind", "mean", "std", "a", "b", "atoms", "value",
                "t_grid", "start", "stop", "num", "gap_factor", "state",
                "amplitudes", "nodes", "epsilon", "sim_tol", "level"})

keys = st.sampled_from(NAMES) | st.text(max_size=4)
leaves = (st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
          | st.floats(-2, 2) | st.text(max_size=4)
          | st.sampled_from(["worst", "single_paulis", "repetition", "gaussian", "ZII"]))
# leaves twice: plain values, most of them plausible, outnumber containers
values = leaves | leaves | st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=6)


def _paths(obj, prefix=()):
    """Every path into obj, as a tuple of keys and indices, parents first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _at(obj, path):
    for k in path:
        obj = obj[k]
    return obj


def _no_constant(name):
    raise AssertionError(f"{name} in a written report")


@settings(max_examples=1500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_scenario_exits_cleanly(data):
    scenario = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    path = data.draw(st.sampled_from(list(_paths(scenario))))
    value = data.draw(values)
    target = _at(scenario, path)
    if isinstance(target, dict) and data.draw(st.integers(0, 3)) == 0:
        target[data.draw(keys)] = value
    elif path:
        _at(scenario, path[:-1])[path[-1]] = value
    else:
        scenario = value
    with tempfile.TemporaryDirectory() as tmp:
        scn = Path(tmp) / "s.json"
        scn.write_text(json.dumps(scenario))
        out = Path(tmp) / "out"
        code = cli.main(["run", "--scenario", str(scn), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code in (2, 4):
            assert not out.exists()
        else:
            written = sorted(out.glob("*.json"))
            assert out / "report.json" in written
            for f in written:
                json.loads(f.read_text(), parse_constant=_no_constant)
