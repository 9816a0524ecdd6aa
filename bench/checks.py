"""Independent checks of the workloads' outputs.

Each checker recomputes what it can from closed forms and plain
numpy/scipy, never through splitlab, and returns a list of problems (empty
when the output is right).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

import scenarios

DELTA_E = 2.0        # splitting of the repetition code by Z, and by X + Z, on one site
SPLIT_TOL = 1e-9
PREDICTED_TOL = 1e-12
TAU_TOL = 1e-6
FIDELITY_TOL = 1e-12  # the report's own pinned tolerance on the fidelity floor
SIMULATION_TOL = 1e-8

Z = np.diag([1.0, -1.0]).astype(complex)


def read_rows(path: Path) -> list[dict]:
    """The dephasing CSV with every column but ``pair`` as float."""
    with open(path, newline="") as fh:
        return [{k: (v if k == "pair" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _complex_matrix(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _failed_checks(report: dict) -> list[str]:
    return [f"report check {c['name']} failed"
            for c in report.get("checks", []) if not c.get("passed")]


def _repetition_code(n: int) -> np.ndarray:
    """Columns |0...0> and |1...1> of n qubits."""
    basis = np.zeros((2 ** n, 2), dtype=complex)
    basis[0, 0] = 1.0
    basis[-1, 1] = 1.0
    return basis


def _apply_on_site(x: np.ndarray, vec: np.ndarray, site: int, n: int) -> np.ndarray:
    t = np.tensordot(x, vec.reshape((2,) * n), axes=([1], [site]))
    return np.moveaxis(t, 0, site).reshape(-1)


def check_attack(scenario: dict, exit_code: int, report: dict) -> list[str]:
    """Splitting of the reported single-site operator on the repetition code."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    problems += _failed_checks(report)
    res = report["results"]
    n = scenario["model"]["n"]
    x = _complex_matrix(res["operator"])
    norm = float(np.linalg.norm(x, 2))
    if norm > 1.0 + SPLIT_TOL:
        problems.append(f"operator norm {norm!r} exceeds 1")
    basis = _repetition_code(n)
    applied = np.stack([_apply_on_site(x, basis[:, j], res["site"], n)
                        for j in range(2)], axis=1)
    comp = basis.conj().T @ applied
    w = np.linalg.eigvalsh((comp + comp.conj().T) / 2)
    spread = float(w[-1] - w[0])
    for key in ("delta_e", "remeasured_delta_e"):
        if abs(res[key] - spread) > SPLIT_TOL:
            problems.append(f"{key} {res[key]!r} but the code splitting is {spread!r}")
    if not 1.0 - SPLIT_TOL <= res["delta_e"] <= 2 * norm + SPLIT_TOL:
        problems.append(f"delta_e {res['delta_e']!r} outside [1, 2 |X|] = [1, {2 * norm!r}]")
    return problems


def predicted_coherence(sigma: float, t: float) -> float:
    """Half the gaussian characteristic function at t times the splitting."""
    return 0.5 * math.exp(-((sigma * t * DELTA_E) ** 2) / 2)


def check_dephase(scenario: dict, exit_code: int, report: dict, rows: list[dict]) -> list[str]:
    """Closed-form prediction, tolerances, bounds and coherence time."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    problems += _failed_checks(report)
    params = scenario["params"]
    sigma = params["distribution"]["std"]
    grid = params["t_grid"]
    times = np.linspace(grid["start"], grid["stop"], grid["num"])
    got_times = [r["t"] for r in rows]
    if len(got_times) != len(times) or not np.allclose(got_times, times, rtol=0, atol=1e-12):
        problems.append(f"rows at times {got_times}, expected {times.tolist()}")
    for r in rows:
        at = f"t={r['t']:g}"
        pred = predicted_coherence(sigma, r["t"])
        if abs(r["predicted_coherence"] - pred) > PREDICTED_TOL:
            problems.append(f"{at}: predicted {r['predicted_coherence']!r}, closed form {pred!r}")
        if abs(r["simulated_coherence"] - pred) > params["sim_tol"]:
            problems.append(f"{at}: simulated {r['simulated_coherence']!r} off the closed form {pred!r}")
        if not r["gap_bound_lhs"] <= r["gap_bound_rhs"]:
            problems.append(f"{at}: gap bound {r['gap_bound_lhs']!r} > {r['gap_bound_rhs']!r}")
        if not r["fidelity"] >= r["fidelity_bound"] - FIDELITY_TOL:
            problems.append(f"{at}: fidelity {r['fidelity']!r} < bound {r['fidelity_bound']!r}")
    eps = params["epsilon"]
    tau = math.sqrt(2 * abs(math.log(1 - eps))) / (sigma * DELTA_E)
    got = report["results"]["coherence_time"]["tau"]
    if abs(got - tau) > TAU_TOL:
        problems.append(f"tau {got!r}, closed form {tau!r}")
    return problems


def simulated_coherence(scenario: dict, t: float) -> float:
    """Finite-gap mixture coherence of (|0...0> + |1...1>)/sqrt 2 at time t.

    Gauss-Hermite nodes over the gaussian magnitude, ``scipy.linalg.expm``
    propagators of g H + lambda V with H and V built by ``np.kron``. The
    relative phase of the start state only enters through amplitudes that
    flip every qubit, so it does not show at this tolerance.
    """
    params = scenario["params"]
    n = scenario["model"]["n"]
    sigma = params["distribution"]["std"]
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for k in range(n - 1):
        zz = np.kron(np.kron(np.eye(2 ** k), np.kron(Z, Z)), np.eye(2 ** (n - k - 2)))
        h += 0.5 * (np.eye(2 ** n) - zz)
    site = params["perturbation"]["sites"][0]
    x = _complex_matrix(params["perturbation"]["matrix"])
    v = np.kron(np.kron(np.eye(2 ** site), x), np.eye(2 ** (n - site - 1)))
    code = _repetition_code(n)
    psi = code.sum(axis=1) / math.sqrt(2)
    nodes, weights = np.polynomial.hermite.hermgauss(params["nodes"])
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for xk, wk in zip(nodes, weights):
        lam = math.sqrt(2) * sigma * xk
        evolved = scipy.linalg.expm(-1j * t * (params["gap_factor"] * h + lam * v)) @ psi
        rho += wk / math.sqrt(math.pi) * np.outer(evolved, evolved.conj())
    rho /= np.trace(rho).real
    return float(abs(code[:, 0].conj() @ rho @ code[:, 1]))


_SIMULATED: dict[tuple[str, float], float] = {}


def check_dephase_simulation(scenario: dict, rows: list[dict]) -> list[str]:
    """Recompute the simulated coherence at the last time point.

    The reference is computed once per scenario and time in a process, so
    the rounds of a run share it.
    """
    row = rows[-1]
    key = (json.dumps(scenario, sort_keys=True), row["t"])
    if key not in _SIMULATED:
        _SIMULATED[key] = simulated_coherence(scenario, row["t"])
    ref = _SIMULATED[key]
    if abs(row["simulated_coherence"] - ref) > SIMULATION_TOL:
        return [f"t={row['t']:g}: simulated {row['simulated_coherence']!r}, "
                f"independent quadrature {ref!r}"]
    return []


def check_verify(exit_code: int, report: dict) -> list[str]:
    """Every check of the battery ran and passed."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    problems += _failed_checks(report)
    count = len(report.get("checks", []))
    if count != scenarios.VERIFY_CHECKS:
        problems.append(f"{count} battery checks, expected {scenarios.VERIFY_CHECKS}")
    return problems
