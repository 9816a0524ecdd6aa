"""Scenario front end: exit codes, artifacts, determinism, mutation catch."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import battery_cpus, stub_battery, traced_peak
from splitlab import cli, verify
from splitlab.code_space import ground_subspace
from splitlab.models import (
    QuditSystem,
    matrix_to_json,
    model_to_json,
    pauli_string_matrix,
    two_local_model,
)
from splitlab.operators import embed, operator_norm, random_herm, random_projector
from splitlab.splitting import ids


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


def test_kl_check_and_field_use_one_relative_bound(tmp_path):
    # a large scalar part makes the deviation tiny relative to ||v||, but not
    # below kl_tol in absolute terms: both the check and the field must say
    # "detected", since the criterion is relative
    v = 1e6 * pauli_string_matrix("ZZI") + 1e-3 * pauli_string_matrix("ZII")
    scn = _write(tmp_path, "s.json", {
        "schema_version": 1, "task": "ids",
        "model": {"fixture": "repetition", "n": 3},
        "params": {"perturbations": [{"matrix": matrix_to_json(v)}],
                   "require_kl": True}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    rep = _report(out)
    (entry,), (check,) = rep["results"]["perturbations"], rep["checks"]
    assert entry["kl_deviation"] == pytest.approx(1e-3, rel=1e-6)
    assert entry["kl_detected"] is True
    assert check["passed"] is True
    assert check["bound"] == pytest.approx(1e-8 * (1e6 + 1e-3), rel=1e-12)


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


def _ids_scenario(perturbation):
    return {"schema_version": 1, "task": "ids",
            "model": {"fixture": "repetition", "n": 3},
            "params": {"perturbations": [perturbation]}}


def _random_chain(**fields):
    return {"schema_version": 1, "task": "attack",
            "model": {"fixture": "random_commuting", "dims": [2, 2],
                      "pairs": [[0, 1]], "seed": 1, **fields}}


# |000><111| on three qubits: square and finite, but not hermitian
_NOT_HERMITIAN = [[[1.0 if (i, j) == (0, 7) else 0.0, 0.0] for j in range(8)]
                  for i in range(8)]
# Z on site 0 with its first entry left open for a raw JSON literal
_Z_AT_0 = {"sites": [0], "matrix": [[["@", 0], [0, 0]], [[0, 0], [-1, 0]]]}


def _literal(payload, text):
    """Scenario JSON with the "@" placeholder replaced by raw JSON text."""
    return json.dumps(payload).replace('"@"', text)


@pytest.mark.parametrize("payload", [
    pytest.param(_literal(_ids_scenario(_Z_AT_0), "NaN"), id="nan-entry"),
    pytest.param(_literal(_ids_scenario(_Z_AT_0), "1e999"), id="overflowing-entry"),
    pytest.param(_literal(_dephase_scenario(
        distribution={"kind": "gaussian", "mean": 0.0, "std": "@"}), "Infinity"),
        id="infinity-literal"),
    pytest.param(_ids_scenario({"pauli": "ZQI"}), id="non-pauli-symbol"),
    pytest.param(_ids_scenario({"matrix": _NOT_HERMITIAN}), id="non-hermitian-ids"),
    pytest.param(_dephase_scenario(perturbation={"matrix": _NOT_HERMITIAN}),
                 id="non-hermitian-dephase"),
    pytest.param(_random_chain(seed="x"), id="model-seed-text"),
    pytest.param(_dephase_scenario(
        distribution={"kind": "gaussian", "mean": 0.0, "std": "x"}), id="std-text"),
    pytest.param(_dephase_scenario(state={"amplitudes": [1, 0]}), id="flat-amplitudes"),
    pytest.param(_random_chain(ground_degeneracy="x"), id="degeneracy-text"),
    pytest.param({**_attack_scenario(), "seed": True}, id="seed-bool"),
    pytest.param({**_attack_scenario(), "params": {"site": True}}, id="site-bool"),
    pytest.param(_dephase_scenario(t_grid={"start": 0.0, "stop": 1.0, "num": 10**12}),
                 id="huge-num"),
    pytest.param(_dephase_scenario(t_grid={"start": 0.0, "stop": 1.0, "num": 10_001}),
                 id="num-over-ceiling"),
    pytest.param(_dephase_scenario(t_grid=[0.0] * 10_001), id="times-over-ceiling"),
    pytest.param(_dephase_scenario(nodes=10**12), id="huge-nodes"),
    pytest.param(_dephase_scenario(nodes=1025), id="nodes-over-ceiling"),
    pytest.param(_ids_scenario({"sites": [0, 0], "matrix": matrix_to_json(np.eye(4))}),
                 id="repeated-perturbation-site"),
])
def test_malformed_input_exits_2_without_files(tmp_path, payload):
    scn = _write(tmp_path, "s.json", payload)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    assert not out.exists()


def test_repetition_over_dimension_cap_unsupported(tmp_path):
    scn = _write(tmp_path, "s.json", _attack_scenario(n=13))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 4
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_perturbation_past_the_float_range_exits_4_without_files(tmp_path, capsys):
    # finite entries whose compression (M + M^dag)/2 overflows: an ids run
    # must not write a NaN into report.json, and exits as a dephase run does,
    # with one line on stderr and no numpy warning before it
    huge = {"sites": [0], "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [-1e308, 0]]]}
    for name, scenario in (("ids", _ids_scenario(huge)),
                           ("dephase", _dephase_scenario(perturbation=huge))):
        scn = _write(tmp_path, f"{name}.json", scenario)
        out = tmp_path / f"out_{name}"
        assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("unsupported input: ")
        assert "non-finite entries" in err


def test_oversized_chains_exit_with_the_cap_in_the_message(tmp_path, capsys):
    # the message names the cap and the site count; the full product of
    # 16,000 dims has more digits than Python converts to a string
    inline = {"dims": [2] * 16_000,
              "terms": [{"sites": [0, 1], "matrix": matrix_to_json(np.eye(4))}]}
    for model, code in (({"fixture": "repetition", "n": 16_000}, 4), (inline, 2)):
        scn = _write(tmp_path, "s.json", {"schema_version": 1, "task": "attack",
                                          "model": model})
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == code
        assert not out.exists()
        err = capsys.readouterr().err
        assert "16000 sites" in err and "cap 4096" in err


def test_dephase_on_nondegenerate_code_exits_4_before_simulating(tmp_path, monkeypatch,
                                                                 capsys):
    def no_series(*args, **kwargs):
        raise AssertionError("dynamics ran for a code with nothing to dephase")

    monkeypatch.setattr(cli, "dephasing_time_series", no_series)
    scn = _write(tmp_path, "s.json", {
        **_dephase_scenario(perturbation={"sites": [0], "matrix": _Z}),
        "model": {"fixture": "random_commuting", "dims": [2, 2, 2],
                  "pairs": [[0, 1], [1, 2]], "seed": 3}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 4
    assert not out.exists()
    assert "nothing to dephase" in capsys.readouterr().err


def test_delta_law_runs_as_its_one_atom_discrete_law(tmp_path):
    outs = []
    for i, dist in enumerate(({"kind": "delta", "value": 0.3},
                              {"kind": "discrete", "atoms": [[0.3, 1.0]]})):
        scn = _write(tmp_path, f"s{i}.json", _dephase_scenario(
            distribution=dist, perturbation={"pauli": "XII"}))
        out = tmp_path / f"out{i}"
        assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
        outs.append(out)
    (a, b) = (_report(out) for out in outs)
    assert (a["checks"], a["results"]) == (b["checks"], b["results"])
    assert (outs[0] / "dephasing.csv").read_bytes() == (outs[1] / "dephasing.csv").read_bytes()


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


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_decompose_structure_error_writes_a_json_report(tmp_path, monkeypatch):
    # a factorization that fails records the residual's ceiling, 1.0, and
    # exits 3; the report stays strict JSON
    def fail(model, code):
        raise cli.StructureError("no virtual pair split")

    monkeypatch.setattr(cli, "factor_ground_projector", fail)
    scn = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / \
        "random_chain_decompose.json"
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scn), "--out", str(out)]) == 3
    rep = _strict_json((out / "report.json").read_text())
    (check,) = rep["checks"]
    assert (check["name"], check["measured"], check["passed"]) == \
        ("factorization_residual", 1.0, False)
    assert rep["results"] == {"error": "no virtual pair split"}


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
    for c in rep["checks"]:
        assert set(c) == {"name", "passed", "measured", "bound", "direction",
                          "reference", "detail"}


def test_verify_quick_without_out_prints_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[PASS] ") for line in lines) == 21
    assert not any(line.startswith("[FAIL]") for line in lines)
    assert re.fullmatch(r"total \d+\.\ds at level quick", lines[-1])
    assert list(tmp_path.iterdir()) == []


def test_verify_report_bytes_do_not_depend_on_the_lane_count(tmp_path, monkeypatch):
    # three lanes, then one: the same bytes but the clock
    reports = []
    for cpus in (3, 1):
        battery_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus-{cpus}"
        assert cli.main(["verify", "--quick", "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        reports.append(re.sub(r'\n  "wall_clock_seconds": [^\n]*', "", text))
    assert "wall_clock_seconds" not in reports[0]
    assert reports[0] == reports[1]


def _raise_in_a_check(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("check blew up")

    monkeypatch.setattr(verify, "check_coherence_time", broken)
    return "battery failed: ValueError: check blew up\n"


def _kill_a_worker(monkeypatch):
    # the calling process pauses on its groups, so the forked lane pulls one
    stub_battery(monkeypatch, lambda: __import__("time").sleep(0.02), lambda: os._exit(9))
    battery_cpus(monkeypatch, 2)
    return re.compile(r"battery failed: LaneError: battery worker \d+ ended with "
                      r"wait status 2304 \(exit code 9\) and no results\n")


@pytest.mark.parametrize("fault", [_raise_in_a_check, _kill_a_worker],
                         ids=["check-raises", "worker-dies"])
@pytest.mark.parametrize("with_out", [False, True], ids=["printed", "report"])
def test_battery_failure_is_one_line_and_exit_3(tmp_path, monkeypatch, capsys, fault, with_out):
    # a numerical failure: no traceback, no check lines, no report
    expected = fault(monkeypatch)
    out = tmp_path / "out"
    argv = ["verify", "--quick"] + (["--out", str(out)] if with_out else [])
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    if isinstance(expected, str):
        assert captured.err == expected
    else:
        assert expected.fullmatch(captured.err)
    assert not out.exists()


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


def test_injected_splitting_fault_is_caught(tmp_path, monkeypatch):
    # a splitting off by 1e-3 must fail the duality oracle: its three
    # full-space norms still measure the spread independently of ids
    true_ids = verify.ids

    def off(*args, **kwargs):
        r = true_ids(*args, **kwargs)
        r.delta_e += 1e-3
        return r

    monkeypatch.setattr(verify, "ids", off)
    (check,) = verify.check_ids_duality(5)
    assert check.name == "ids_duality_grid_oracle" and not check.passed
    out = tmp_path / "out"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 3
    failed = [c["name"] for c in _report(out)["checks"] if not c["passed"]]
    assert "ids_duality_grid_oracle" in failed


def test_small_splitting_fault_is_caught(monkeypatch):
    # the oracle lands on the minimum itself, so an ids off by 1e-5, ten
    # times the check's bound, still fails it
    true_ids = verify.ids

    def off(*args, **kwargs):
        r = true_ids(*args, **kwargs)
        r.delta_e += 1e-5
        return r

    monkeypatch.setattr(verify, "ids", off)
    (check,) = verify.check_ids_duality(60)
    assert not check.passed
    assert abs(check.measured - 1e-5) <= 1e-12

@pytest.mark.parametrize("where", ["a file", "below a file", "below /dev/null", "read-only"])
def test_unusable_out_exits_2_before_any_work(tmp_path, monkeypatch, capsys, where):
    # refused with one line before the scenario is parsed or the battery
    # runs, and nothing is created
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = {"a file": taken, "below a file": taken / "a" / "b",
           "below /dev/null": Path("/dev/null/x"), "read-only": tmp_path / "new"}[where]
    if where == "read-only":
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "parse_scenario", no_work)
    scn = _write(tmp_path, "s.json", _attack_scenario())
    before = sorted(tmp_path.rglob("*"))
    for argv in (["run", "--scenario", scn, "--out", str(out)],
                 ["verify", "--quick", "--out", str(out)]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("unusable --out: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert taken.read_text() == "keep"


def test_write_failure_is_a_plain_message(tmp_path, monkeypatch, capsys):
    # --out was usable when checked but is a file by the time of writing
    out = tmp_path / "out"
    true_runner = cli._TASK_RUNNERS["attack"]

    def runner(scenario):
        result = true_runner(scenario)
        out.write_text("taken meanwhile")
        return result

    monkeypatch.setitem(cli._TASK_RUNNERS, "attack", runner)
    scn = _write(tmp_path, "s.json", _attack_scenario())
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("cannot write artifacts: ")
    assert out.read_text() == "taken meanwhile"

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "splitlab.cli", "run", "--scenario",
         "/nonexistent/path.json", "--out", "/tmp/never"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "cannot read scenario" in proc.stderr


# sha256 of each demo's canonical scenario; a canonical form that filled in
# defaults, or stopped expanding t_grid, would change every report's digest
SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "scenario_schema.md"


def _cells(line):
    return [c.strip() for c in line.strip().strip("|").split("|")]


def _doc_field_tables(text):
    """{(section, first column): rows} of every table of the schema doc
    with a field column. The section is the nearest heading above it, or a
    task's bold name (``**ids**:``); each row is its list of cells."""
    tables, section, rows = {}, None, None
    for line in text.splitlines():
        if line.startswith("#"):
            section = line.lstrip("#").strip()
        elif line.startswith("**"):
            section = line.split("**")[1]
        if not line.startswith("|"):
            rows = None
        elif rows is None:
            head = _cells(line)
            rows = tables.setdefault((section, head[0]), []) if "field" in head else []
        elif not line.startswith("| ---"):
            rows.append(_cells(line))
    return tables


def _doc_default(cell):
    if cell == "required":
        return cli.REQUIRED
    if cell == "—":
        return None
    return json.loads(cell.strip("`"))


def _doc_table(rows):
    return {row[0].strip("`"): _doc_default(row[-1]) for row in rows}


def _doc_variants(rows):
    out, name = {}, None
    for row in rows:
        name = row[0].strip("`") or name
        out.setdefault(name, {}).update(_doc_table([row[1:]]))
    return out


def _defaults(table):
    return {k: f.default for k, f in table.items()}


def test_schema_doc_tables_are_the_parse_tables():
    # the hand-kept doc lists each field table of the parser: the same
    # field names, in each table, with the same defaults
    tables = _doc_field_tables(SCHEMA_DOC.read_text())
    expected = {
        ("Scenario file", "field"): _defaults(cli._SCENARIO),
        ("Model source", "field"): _defaults(cli._INLINE_MODEL),
        ("Perturbation spec", "field"): _defaults(cli._PERTURBATION),
        ("Time grid", "field"): _defaults(cli._T_RANGE),
        ("Model source", "fixture"):
            {k: _defaults(t) for k, (t, _) in cli._FIXTURES.items()},
        ("Magnitude distribution", "`kind`"):
            {k: _defaults(t) for k, (t, _) in cli._DISTRIBUTIONS.items()},
    }
    expected.update({(task, "field"): _defaults(t) for task, t in cli._PARAMS.items() if t})
    assert set(tables) == set(expected)
    for key, rows in tables.items():
        doc = _doc_variants(rows) if key[1] != "field" else _doc_table(rows)
        assert doc == expected[key], key
    assert cli._PARAMS["decompose"] == {}


@pytest.mark.parametrize("name, digest", [
    ("four_two_two_detection",
     "8b0610706fb1f1350d7d72cb3ea79d4b356f741ffea43f38d55011e373ebb59b"),
    ("random_chain_decompose",
     "e3018a0029b51e2e44db50c312107cf1115e63c2ad6f6397b77c910382a432bd"),
    ("repetition_attack",
     "6acfe522114a8475bca1db00281ff4f3ae6fd3f3ab4e2bf9dcbdb1cfbd49eff6"),
    ("repetition_dephasing",
     "6931bfdb886b658d5118a3e83f077c94384f8bb298a6b456d6ed0855c4477f64"),
])
def test_demo_scenario_digest_pinned(name, digest):
    path = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / f"{name}.json"
    raw = json.loads(path.read_text())
    assert cli._digest(cli.parse_scenario(raw).canonical) == digest


@pytest.mark.parametrize("scenario", [
    _attack_scenario(n=4),
    {**_dephase_scenario(perturbation={"pauli": "ZIII"}),
     "model": {"fixture": "repetition", "n": 4}},
], ids=["attack", "dephase"])
def test_run_extracts_the_ground_code_once(tmp_path, monkeypatch, scenario):
    import splitlab.code_space

    original = splitlab.code_space.ground_subspace
    calls = []

    def counting(h):
        calls.append(1)
        return original(h)

    for name, module in list(sys.modules.items()):
        if name.startswith("splitlab") and getattr(module, "ground_subspace", None) is original:
            monkeypatch.setattr(module, "ground_subspace", counting)
    scn = _write(tmp_path, "s.json", scenario)
    assert cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_dephase_run_compresses_the_perturbation_once(tmp_path, factorizations):
    # one k x k eigendecomposition (ids) and one full-size one (the ground
    # extraction) for the whole run; the gap bound and the simulation share
    # one block pencil: one pattern scan, then one batched block eigh per
    # magnitude node plus one for the gap bound's generator, whatever the
    # number of time points
    full, scans, stacked = factorizations
    nodes = 8
    for num in (2, 5):
        full.clear()
        scans.clear()
        stacked.clear()
        scn = _write(tmp_path, "s.json", {
            **_dephase_scenario(perturbation={"pauli": "XIII"}, nodes=nodes,
                                t_grid={"start": 0.0, "stop": 2.0, "num": num}),
            "model": {"fixture": "repetition", "n": 4}})
        assert cli.main(["run", "--scenario", scn, "--out", str(tmp_path / f"out{num}")]) == 0
        assert sorted(full) == [(2, 2), (16, 16)]
        assert len(scans) == 1
        assert stacked == [(1, 16, 16)] * (nodes + 1)


def test_dephase_at_the_time_ceiling_holds_code_size_per_time(tmp_path):
    # 10000 time points at D = 256: the run holds the k x k code block per
    # time, where a D x D state per time would need 10.5 GB
    scn = _write(tmp_path, "s.json", {
        **_dephase_scenario(perturbation={"pauli": "XZIIIIII"}, nodes=2,
                            t_grid={"start": 0.0, "stop": 5.0, "num": cli.MAX_TIMES}),
        "model": {"fixture": "repetition", "n": 8}})
    code, peak = traced_peak(
        lambda: cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "out")]))
    assert code == 0
    assert peak <= 64 * 2 ** 20
    assert _report(tmp_path / "out")["results"]["rows"] == cli.MAX_TIMES


def test_attack_holds_one_full_matrix_at_a_time(tmp_path):
    # D = 1024 (one complex D x D is 16 MiB): the model hands its hamiltonian
    # to the ground extraction and keeps no copy, so H is freed before the
    # re-measure embeds the attack operator as the run's one other D x D
    scn = _write(tmp_path, "s.json", _attack_scenario(n=10))
    code, peak = traced_peak(
        lambda: cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "out")]))
    assert code == 0
    assert _report(tmp_path / "out")["all_passed"] is True
    assert peak <= 1.2 * 16 * 2 ** 20


def test_attack_rejects_noncommuting_model_before_ground_extraction(tmp_path, monkeypatch):
    def no_ground(*args, **kwargs):
        raise AssertionError("ground space extracted for a rejected model")

    monkeypatch.setattr(cli, "ground_subspace", no_ground)
    xx = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
                  dtype=complex)
    zz = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    model = two_local_model(QuditSystem((2, 2, 2)), [((0, 1), xx), ((1, 2), zz)])
    for task in ("attack", "decompose"):
        scn = _write(tmp_path, f"{task}.json", {"schema_version": 1, "task": task,
                                                "model": model_to_json(model)})
        out = tmp_path / f"out_{task}"
        assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 4
        assert not out.exists()


_REPETITION_4 = {"fixture": "repetition", "n": 4}
_RANDOM_QUBITS = {"fixture": "random_commuting", "dims": [2, 2, 2, 2],
                  "pairs": [[0, 1], [1, 2], [2, 3]], "seed": 4, "ground_degeneracy": 2}


@pytest.mark.parametrize("model", [_REPETITION_4, _RANDOM_QUBITS],
                         ids=["repetition", "random_commuting"])
def test_ids_entries_match_the_embedded_perturbation(tmp_path, model):
    # every spec kind is measured on its sites; the oracle compresses the
    # full D x D operator
    rng = np.random.default_rng(8)
    m2, m16 = random_herm(4, rng), random_herm(16, rng)
    specs = [({"pauli": "IZXI"}, pauli_string_matrix("IZXI")),
             ({"pauli": "IIII"}, np.eye(16, dtype=complex)),
             ({"sites": [2, 0], "matrix": matrix_to_json(m2)}, embed(m2, [2, 0], (2,) * 4)),
             ({"matrix": matrix_to_json(m16)}, m16)]
    scn = _write(tmp_path, "s.json", {
        "schema_version": 1, "task": "ids", "model": model,
        "params": {"perturbations": [spec for spec, _ in specs]}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    entries = _report(out)["results"]["perturbations"]
    code = ground_subspace(cli._build_model(model))
    assert code.degeneracy == 2
    for entry, (_, v) in zip(entries, specs, strict=True):
        r = ids(code, v)
        for key in ("delta_e", "lambda_min", "lambda_max", "alpha_opt", "kl_deviation"):
            assert entry[key] == pytest.approx(getattr(r, key), abs=1e-12)
        assert entry["kl_detected"] == bool(r.kl_deviation <= 1e-8 * operator_norm(v))
    assert {e["kl_detected"] for e in entries} == {False, True}


def test_single_pauli_sweep_is_placed_site_by_site():
    scenario = cli.parse_scenario({
        "schema_version": 1, "task": "ids", "model": {"fixture": "repetition", "n": 10},
        "params": {"sweep": "single_paulis"}})
    placed = scenario.params["perturbations"]
    assert len(placed) == 30
    for label, (sites, m) in placed:
        (site,) = sites
        assert label == "I" * site + label[site] + "I" * (9 - site)
        assert np.array_equal(m, pauli_string_matrix(label[site]))


_Z = matrix_to_json(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("scenario", [
    _ids_scenario({"sites": [3], "matrix": _Z}),
    _ids_scenario({"sites": [0, 1], "matrix": _Z}),
    _ids_scenario({"matrix": matrix_to_json(np.eye(4))}),
    _ids_scenario({"pauli": "ZI"}),
    {**_ids_scenario({"pauli": "ZI"}),
     "model": {"fixture": "random_commuting", "dims": [3, 2], "pairs": [[0, 1]], "seed": 1}},
    {**_ids_scenario(None), "params": {"sweep": "single_paulis"},
     "model": {"fixture": "random_commuting", "dims": [3, 2], "pairs": [[0, 1]], "seed": 1}},
    _dephase_scenario(perturbation={"pauli": "ZIII"}),
    {**_attack_scenario(), "params": {"site": 99}},
], ids=["site-out-of-range", "matrix-size-for-sites", "full-matrix-dimension",
        "pauli-length", "pauli-on-qudits", "sweep-on-qudits", "dephase-pauli-length",
        "attack-site-out-of-range"])
def test_misfit_input_exits_4_before_ground_extraction(tmp_path, monkeypatch, scenario):
    def no_ground(*args, **kwargs):
        raise AssertionError("ground space extracted for a rejected scenario")

    monkeypatch.setattr(cli, "ground_subspace", no_ground)
    scn = _write(tmp_path, "s.json", scenario)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 4
    assert not out.exists()
