"""Tests of the benchmark's independent checks and its trace arithmetic.

    python3 -m pytest bench/test_checks.py

Each checker must pass a real CLI output at small size and reject the same
output with one value perturbed.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks     # noqa: E402
import run        # noqa: E402
import scenarios  # noqa: E402
import tracer     # noqa: E402
from splitlab import cli  # noqa: E402


def _run_cli(scenario: dict, tmp_path: Path) -> tuple[int, dict, Path]:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", str(path), "--out", str(out)])
    return code, json.loads((out / "report.json").read_text()), out


def _small(workload: str, n: int) -> dict:
    sc = scenarios.scenario(workload, seed=3)
    sc["model"]["n"] = n
    return sc


def test_checks_do_not_import_splitlab():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import checks; "
             "sys.exit(any(m.split('.')[0] == 'splitlab' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", probe, str(HERE)]).returncode == 0


def test_attack_checker(tmp_path):
    sc = _small("attack_d1024", 5)
    code, report, _ = _run_cli(sc, tmp_path)
    assert checks.check_attack(sc, code, report) == []

    bad = copy.deepcopy(report)
    bad["results"]["delta_e"] += 1e-6
    assert checks.check_attack(sc, code, bad)
    assert checks.check_attack(sc, 3, report)


def test_dephase_checker(tmp_path):
    sc = _small("dephase_d256", 3)
    code, report, out = _run_cli(sc, tmp_path)
    rows = checks.read_rows(out / "dephasing.csv")
    assert checks.check_dephase(sc, code, report, rows) == []
    assert checks.check_dephase_simulation(sc, rows) == []

    bad = copy.deepcopy(rows)
    bad[1]["predicted_coherence"] += 1e-3
    assert checks.check_dephase(sc, code, report, bad)

    bad = copy.deepcopy(rows)
    bad[-1]["simulated_coherence"] += 1e-3
    assert checks.check_dephase(sc, code, report, bad) == []   # within sim_tol
    assert checks.check_dephase_simulation(sc, bad)

    bad = copy.deepcopy(report)
    bad["results"]["coherence_time"]["tau"] += 1e-3
    assert checks.check_dephase(sc, code, bad, rows)


def test_verify_checker():
    report = {"checks": [{"name": f"c{k}", "passed": True}
                         for k in range(scenarios.VERIFY_CHECKS)]}
    assert checks.check_verify(0, report) == []

    bad = copy.deepcopy(report)
    bad["checks"][7]["passed"] = False
    assert checks.check_verify(0, bad)
    assert checks.check_verify(3, report)
    assert checks.check_verify(0, {"checks": report["checks"][:-1]})


def test_aggregate_self_time_and_outermost_spans():
    names = ["cli.main", "models.repetition_model", "models.stabilizer_hamiltonian",
             "operators.embed"]
    trace = {
        "wall_s": 10.5,
        "names": names,
        # name, start, end, parent
        "spans": [[0, 0.0, 10.0, -1],
                  [1, 1.0, 5.0, 0],
                  [2, 1.5, 4.5, 1],
                  [3, 2.0, 3.0, 2],
                  [3, 6.0, 7.0, 0]],
        "count_idx": [2, 3],
        "counts": [[1, 0, 8.0], [0, 2, 0.5]],    # eigh, svd, gflop
        "embed_idx": [3, 4],
        "embed_bytes": [16 * 64 ** 2, 16 * 64 ** 2],
    }
    m = tracer.aggregate(trace, 10.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert m["models.self_s"] == pytest.approx((4.0 - 3.0) + (3.0 - 1.0))
    assert m["operators.self_s"] == pytest.approx(2.0)
    assert (m["models.calls"], m["operators.calls"]) == (2, 2)
    assert (m["models.eigh_calls"], m["operators.svd_calls"]) == (1, 2)
    assert m["models.factor_gflop"] == pytest.approx(8.0)
    assert m["models.build_s"] == pytest.approx(4.0)     # nested builder not counted twice
    assert m["operators.embed_calls"] == 2
    assert m["operators.embed_mb"] == pytest.approx(2 * 16 * 64 ** 2 / 1e6)
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert m["trace.span_coverage"] == pytest.approx(10.0 / 10.5)
    assert set(m) == {row["name"] for row in tracer.metric_table()}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == tracer.metric_table()
