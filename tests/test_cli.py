"""Scenario front end: exit codes, artifacts, determinism, mutation catch."""

import json
import subprocess
import sys

import numpy as np
import pytest

from splitlab import cli
from splitlab.models import QuditSystem, model_to_json, two_local_model
from splitlab.operators import random_projector


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def _report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def _attack_scenario(n=3, seed=7):
    return {"schema_version": 1, "task": "attack",
            "model": {"fixture": "repetition", "n": n}, "seed": seed}


def _dephase_scenario(**overrides):
    params = {"perturbation": {"pauli": "ZII"},
              "distribution": {"kind": "gaussian", "mean": 0.0, "std": 0.1},
              "t_grid": {"start": 0.0, "stop": 2.0, "num": 5},
              "gap_factor": 1000.0}
    params.update(overrides)
    return {"schema_version": 1, "task": "dephase",
            "model": {"fixture": "repetition", "n": 3}, "seed": 3,
            "params": params}


def test_attack_scenario_reports_full_split(tmp_path):
    scn = _write(tmp_path, "s.json", _attack_scenario())
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["all_passed"] is True
    assert rep["results"]["delta_e"] == pytest.approx(2.0, abs=1e-9)
    assert rep["results"]["branch"] == "sector"
    assert rep["task"] == "attack"


def test_ids_sweep_all_paulis_detected(tmp_path):
    scn = _write(tmp_path, "s.json", {
        "schema_version": 1, "task": "ids",
        "model": {"fixture": "four_two_two"},
        "params": {"sweep": "single_paulis", "require_kl": True}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    rep = _report(out)
    assert len(rep["checks"]) == 12
    assert all(c["passed"] for c in rep["checks"])
    assert all(e["kl_detected"] for e in rep["results"]["perturbations"])


def test_malformed_json_exits_2_without_files(tmp_path):
    scn = _write(tmp_path, "s.json", '{"broken')
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_fields_rejected(tmp_path):
    out = tmp_path / "out"
    cases = [
        {**_attack_scenario(), "extra": 1},
        {"schema_version": 2, "task": "attack",
         "model": {"fixture": "repetition", "n": 3}},
        {"schema_version": 1, "task": "nonsense",
         "model": {"fixture": "repetition", "n": 3}},
        {"schema_version": 1, "task": "attack",
         "model": {"fixture": "unheard_of"}},
        {"schema_version": 1, "task": "attack",
         "model": {"fixture": "repetition", "n": 3},
         "params": {"mystery": True}},
        {"schema_version": 1, "task": "ids",
         "model": {"fixture": "repetition", "n": 3},
         "params": {"sweep": "single_paulis",
                    "perturbations": [{"pauli": "ZII"}]}},
    ]
    for case in cases:
        scn = _write(tmp_path, "s.json", case)
        assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
        assert not out.exists()


def test_missing_model_rejected(tmp_path):
    scn = _write(tmp_path, "s.json", {"schema_version": 1, "task": "attack"})
    assert cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("override", [
    {"epsilon": 1.5},
    {"epsilon": 0.0},
    {"epsilon": 1},
    {"gap_factor": 0},
    {"gap_factor": -1},
    {"gap_factor": float("inf")},
    {"nodes": 0},
    {"nodes": 2.0},
    {"t_grid": {"start": 0.0, "stop": 1.0, "num": 0}},
    {"t_grid": {"start": 0.0, "stop": 1.0, "num": "x"}},
    {"t_grid": {"start": "x", "stop": 1.0, "num": 3}},
    {"t_grid": [0.0, "x"]},
])
def test_bad_dephase_params_exit_2_before_model(tmp_path, monkeypatch, override):
    def no_build(src):
        raise AssertionError("model built for a rejected scenario")

    monkeypatch.setattr(cli, "_build_model", no_build)
    scn = _write(tmp_path, "s.json", _dephase_scenario(**override))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    assert not out.exists()


def test_repetition_over_dimension_cap_unsupported(tmp_path):
    scn = _write(tmp_path, "s.json", _attack_scenario(n=13))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 4
    assert not out.exists()


def test_dephase_writes_csv_with_fixed_columns(tmp_path):
    scn = _write(tmp_path, "s.json", _dephase_scenario())
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    header = (out / "dephasing.csv").read_text().splitlines()[0]
    assert header == ("t,pair,predicted_coherence,simulated_coherence,"
                      "gap_bound_lhs,gap_bound_rhs,fidelity,fidelity_bound")
    rep = _report(out)
    assert rep["data_files"] == ["dephasing.csv"]
    assert rep["results"]["coherence_time"]["tau"] == pytest.approx(0.7088842, abs=1e-6)


def test_same_scenario_same_bytes(tmp_path):
    scn = _write(tmp_path, "s.json", _dephase_scenario())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--scenario", scn, "--out", str(out1)]) == 0
    assert cli.main(["run", "--scenario", scn, "--out", str(out2)]) == 0

    def stripped(p):
        return "\n".join(line for line in (p / "report.json").read_text().splitlines()
                         if '"wall_clock_seconds"' not in line)

    assert stripped(out1) == stripped(out2)
    assert (out1 / "dephasing.csv").read_bytes() == (out2 / "dephasing.csv").read_bytes()


def test_seed_override_changes_digest(tmp_path):
    scn = _write(tmp_path, "s.json", _attack_scenario(seed=7))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--scenario", scn, "--out", str(out1)]) == 0
    assert cli.main(["run", "--scenario", scn, "--out", str(out2),
                     "--seed", "8"]) == 0
    r1, r2 = _report(out1), _report(out2)
    assert r1["scenario_digest"] != r2["scenario_digest"]
    assert r2["seed"] == 8


def test_decompose_inline_model(tmp_path):
    rng = np.random.default_rng(12)
    pa = random_projector(4, 2, rng).matrix
    pb = random_projector(4, 2, rng).matrix
    model = two_local_model(QuditSystem((2, 2, 2, 2)),
                            [((0, 1), np.eye(4) - pa), ((2, 3), np.eye(4) - pb)])
    scn = _write(tmp_path, "s.json", {"schema_version": 1, "task": "decompose",
                                      "model": model_to_json(model)})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    rep = _report(out)
    ranks = {tuple(f["pair"]): f["rank"]
             for f in rep["results"]["factorization"]["pair_factors"]}
    assert ranks == {(0, 1): 2, (2, 3): 2}


def test_decompose_multi_sector_unsupported(tmp_path):
    scn = _write(tmp_path, "s.json", {"schema_version": 1, "task": "decompose",
                                      "model": {"fixture": "repetition", "n": 3}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 4
    assert not out.exists()


def test_decompose_noncommuting_unsupported(tmp_path):
    xx = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
                  dtype=complex)
    zz = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    model = two_local_model(QuditSystem((2, 2, 2)),
                            [((0, 1), xx), ((1, 2), zz)])
    assert not model.commuting
    scn = _write(tmp_path, "s.json", {"schema_version": 1, "task": "decompose",
                                      "model": model_to_json(model)})
    assert cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == 4


def test_attack_on_nondegenerate_code_unsupported(tmp_path):
    scn = _write(tmp_path, "s.json", {
        "schema_version": 1, "task": "attack",
        "model": {"fixture": "random_commuting", "dims": [3, 3, 2],
                  "pairs": [[0, 1], [1, 2]], "seed": 31}})
    assert cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == 4


def test_tolerance_failure_exits_3_with_report(tmp_path):
    scn = _write(tmp_path, "s.json", _dephase_scenario(
        perturbation={"pauli": "XII"}, sim_tol=1e-30,
        gap_factor=10.0))
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", scn, "--out", str(out)])
    assert code == 3
    rep = _report(out)
    assert rep["all_passed"] is False
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert "prediction_tracks_simulation" in failed
    # the failing check carries its measured value, bound, and origin line
    bad = next(c for c in rep["checks"] if c["name"] == "prediction_tracks_simulation")
    assert bad["measured"] > bad["bound"]
    assert bad["reference"].startswith("dynamics.")


def test_attack_with_explicit_site(tmp_path):
    scn = _write(tmp_path, "s.json", {
        "schema_version": 1, "task": "attack",
        "model": {"fixture": "repetition", "n": 3}, "seed": 1,
        "params": {"site": 1, "refine_iters": 60}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["results"]["site"] == 1
    assert rep["results"]["delta_e"] == pytest.approx(2.0, abs=1e-6)


def test_verify_quick_passes(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["all_passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert "ids_duality_grid_oracle" in names
    assert "no_hiding_marginal_identity" in names
    assert "factorization_residual" in names


def test_injected_norm_fault_is_caught(tmp_path, monkeypatch):
    # a sign error in the trace norm must surface as a named identity
    # failure in the battery report, not pass silently
    import splitlab.operators as ops

    true_norm = ops.trace_norm

    def broken(matrix):
        return -true_norm(matrix)

    monkeypatch.setattr(ops, "trace_norm", broken)
    out = tmp_path / "out"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 3
    rep = _report(out)
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert "no_hiding_marginal_identity" in failed


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "splitlab.cli", "run", "--scenario",
         "/nonexistent/path.json", "--out", "/tmp/never"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "cannot read scenario" in proc.stderr
