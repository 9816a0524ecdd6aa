"""Scenario-driven command line front end.

``splitlab run --scenario file.json --out dir`` loads a model, runs one
analysis task and writes a deterministic JSON report (plus CSV for time
series). ``splitlab verify --quick|--full`` runs the acceptance battery.

Exit codes: 0 all checks passed; 2 scenario rejected by schema validation
(nothing is written); 3 a numerical check failed (the report is still
written); 4 input outside the supported domain (nothing is written).

Reports are byte-identical across runs of the same scenario and seed,
except for the wall_clock_seconds field.
"""

import os

# honor the thread cap before numpy configures its pools; no effect if
# numpy is already loaded in this process
_T = os.environ.get("SPLITLAB_THREADS")
if _T and _T.isdigit():
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(_var, _T)

import argparse          # noqa: E402
import csv               # noqa: E402
import hashlib           # noqa: E402
import json              # noqa: E402
import math              # noqa: E402
import sys               # noqa: E402
import time              # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np       # noqa: E402

from .code_space import ground_subspace                      # noqa: E402
from .dynamics import (                                      # noqa: E402
    NoiseDistribution,
    coherence_time,
    dephasing_time_series,
    worst_code_state,
)
from .models import (                                        # noqa: E402
    QuditSystem,
    block_sites,
    four_two_two_model,
    matrix_from_json,
    model_from_json,
    pauli_string_matrix,
    random_commuting_model,
    repetition_model,
)
from .operators import Ket, embed, mat_of                    # noqa: E402
from .splitting import ids, kl_check, worst_single_site_ascent  # noqa: E402
from .structure import (                                     # noqa: E402
    StructureError,
    commuting_model_attack,
    factor_ground_projector,
)
from .verify import LEVELS, run_battery                      # noqa: E402

ARTIFACT_VERSION = "0.1.0"
SCHEMA_VERSION = 1
TASKS = ("ids", "attack", "decompose", "dephase", "verify")
CSV_COLUMNS = ("t", "pair", "predicted_coherence", "simulated_coherence",
               "gap_bound_lhs", "gap_bound_rhs", "fidelity", "fidelity_bound")

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_TOLERANCE = 3
EXIT_UNSUPPORTED = 4


class ScenarioError(Exception):
    """Scenario file rejected before any work starts."""


class UnsupportedInput(Exception):
    """Valid file, but the model or parameters fall outside the task's domain."""


def _require_keys(obj: dict, where: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    allowed = set(required) | set(optional)
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where} has unknown fields {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ScenarioError(f"{where} is missing fields {sorted(missing)}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    return _is_number(x) and math.isfinite(x)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _as_float_list(value, where: str):
    if isinstance(value, dict):
        _require_keys(value, where, ("start", "stop", "num"))
        if not (_is_finite(value["start"]) and _is_finite(value["stop"])):
            raise ScenarioError(f"{where}.start and {where}.stop must be finite numbers")
        if not _is_count(value["num"]):
            raise ScenarioError(f"{where}.num must be an integer >= 1")
        return [float(t) for t in np.linspace(value["start"], value["stop"],
                                              value["num"])]
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{where} must be a non-empty list or a range object")
    if not all(_is_finite(t) for t in value):
        raise ScenarioError(f"{where} entries must be finite numbers")
    return [float(t) for t in value]


# ------------------------------------------------------------- scenario


def validate_scenario(raw: dict) -> dict:
    """Normalize and fully validate a scenario; raises ScenarioError."""
    _require_keys(raw, "scenario", ("schema_version", "task"),
                  ("model", "params", "seed"))
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version {raw['schema_version']!r} is not {SCHEMA_VERSION}")
    task = raw["task"]
    if task not in TASKS:
        raise ScenarioError(f"task {task!r} is not one of {TASKS}")
    if task != "verify" and "model" not in raw:
        raise ScenarioError(f"task {task!r} needs a model")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ScenarioError("seed must be an integer")
    params = raw.get("params", {})
    validator = _PARAM_VALIDATORS[task]
    params = validator(params)
    out = {"schema_version": SCHEMA_VERSION, "task": task, "seed": seed,
           "params": params}
    if "model" in raw:
        out["model"] = _validate_model_source(raw["model"])
    return out


def _validate_model_source(src: dict) -> dict:
    if not isinstance(src, dict):
        raise ScenarioError("model must be a JSON object")
    if "fixture" in src:
        name = src["fixture"]
        if name == "repetition":
            _require_keys(src, "model", ("fixture", "n"))
            if not isinstance(src["n"], int) or src["n"] < 2:
                raise ScenarioError("repetition fixture needs integer n >= 2")
        elif name == "four_two_two":
            _require_keys(src, "model", ("fixture",), ("blocked",))
            if not isinstance(src.get("blocked", False), bool):
                raise ScenarioError("'blocked' must be a boolean")
        elif name == "random_commuting":
            _require_keys(src, "model", ("fixture", "dims", "pairs", "seed"),
                          ("ground_degeneracy",))
            if not (isinstance(src["dims"], list)
                    and all(isinstance(d, int) and d >= 2 for d in src["dims"])):
                raise ScenarioError("dims must be a list of integers >= 2")
            if not (isinstance(src["pairs"], list)
                    and all(isinstance(p, list) and len(p) == 2 for p in src["pairs"])):
                raise ScenarioError("pairs must be a list of two-element lists")
        else:
            raise ScenarioError(f"unknown fixture {name!r}")
        return dict(src)
    # inline model: delegate shape checks, surface failures as schema errors
    if "dims" not in src:
        raise ScenarioError("inline model needs a 'dims' field")
    try:
        model_from_json(src)
    except (ValueError, TypeError, KeyError) as exc:
        raise ScenarioError(f"inline model rejected: {exc}") from exc
    return dict(src)


def _validate_perturbation(spec, where: str) -> dict:
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    forms = [k for k in ("pauli", "matrix") if k in spec]
    if "pauli" in spec:
        _require_keys(spec, where, ("pauli",))
        if not isinstance(spec["pauli"], str):
            raise ScenarioError(f"{where}.pauli must be a string")
    elif "matrix" in spec:
        _require_keys(spec, where, ("matrix",), ("sites",))
        try:
            matrix_from_json(spec["matrix"])
        except ValueError as exc:
            raise ScenarioError(f"{where}.matrix rejected: {exc}") from exc
        if "sites" in spec and not (isinstance(spec["sites"], list)
                                    and all(isinstance(s, int) for s in spec["sites"])):
            raise ScenarioError(f"{where}.sites must be a list of integers")
    if len(forms) != 1:
        raise ScenarioError(f"{where} needs exactly one of 'pauli' or 'matrix'")
    return dict(spec)


def _validate_distribution(spec, where: str) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError(f"{where} must be an object with a 'kind'")
    kind = spec["kind"]
    fields = {"gaussian": ("kind", "mean", "std"),
              "uniform": ("kind", "a", "b"),
              "discrete": ("kind", "atoms"),
              "delta": ("kind", "value")}
    if kind not in fields:
        raise ScenarioError(f"{where}.kind {kind!r} is not one of {sorted(fields)}")
    _require_keys(spec, where, fields[kind])
    try:
        _build_distribution(spec)
    except ValueError as exc:
        raise ScenarioError(f"{where} rejected: {exc}") from exc
    return dict(spec)


def _validate_ids_params(params) -> dict:
    _require_keys(params, "params", (),
                  ("perturbations", "sweep", "require_kl", "kl_tol"))
    has_list = "perturbations" in params
    has_sweep = "sweep" in params
    if has_list == has_sweep:
        raise ScenarioError("ids needs exactly one of 'perturbations' or 'sweep'")
    if has_sweep and params["sweep"] != "single_paulis":
        raise ScenarioError("the only sweep is 'single_paulis'")
    if has_list:
        if not isinstance(params["perturbations"], list) or not params["perturbations"]:
            raise ScenarioError("'perturbations' must be a non-empty list")
        params = dict(params)
        params["perturbations"] = [
            _validate_perturbation(p, f"perturbations[{i}]")
            for i, p in enumerate(params["perturbations"])]
    if not isinstance(params.get("require_kl", False), bool):
        raise ScenarioError("'require_kl' must be a boolean")
    if "kl_tol" in params and not isinstance(params["kl_tol"], (int, float)):
        raise ScenarioError("'kl_tol' must be a number")
    return dict(params)


def _validate_attack_params(params) -> dict:
    _require_keys(params, "params", (), ("site", "refine_iters"))
    if "site" in params and not isinstance(params["site"], int):
        raise ScenarioError("'site' must be an integer")
    if "refine_iters" in params and not (
            isinstance(params["refine_iters"], int) and params["refine_iters"] >= 0):
        raise ScenarioError("'refine_iters' must be a non-negative integer")
    return dict(params)


def _validate_decompose_params(params) -> dict:
    _require_keys(params, "params", (), ())
    return dict(params)


_DEPHASE_RANGES = {
    "gap_factor": (lambda x: _is_finite(x) and x > 0, "a finite number > 0"),
    "nodes": (_is_count, "an integer >= 1"),
    "epsilon": (lambda x: _is_number(x) and 0 < x < 1,
                "a number strictly between 0 and 1"),
    "sim_tol": (_is_number, "a number"),
}


def _validate_dephase_params(params) -> dict:
    _require_keys(params, "params", ("perturbation", "distribution", "t_grid"),
                  ("gap_factor", "state", "nodes", "epsilon", "sim_tol"))
    params = dict(params)
    params["perturbation"] = _validate_perturbation(params["perturbation"],
                                                    "perturbation")
    params["distribution"] = _validate_distribution(params["distribution"],
                                                    "distribution")
    params["t_grid"] = _as_float_list(params["t_grid"], "t_grid")
    for key, (ok, what) in _DEPHASE_RANGES.items():
        if key in params and not ok(params[key]):
            raise ScenarioError(f"'{key}' must be {what}")
    state = params.get("state", "worst")
    if state != "worst":
        _require_keys(state, "state", ("amplitudes",))
    return params


def _validate_verify_params(params) -> dict:
    _require_keys(params, "params", (), ("level",))
    if params.get("level", "quick") not in LEVELS:
        raise ScenarioError(f"'level' must be one of {LEVELS}")
    return dict(params)


_PARAM_VALIDATORS = {
    "ids": _validate_ids_params,
    "attack": _validate_attack_params,
    "decompose": _validate_decompose_params,
    "dephase": _validate_dephase_params,
    "verify": _validate_verify_params,
}


# ------------------------------------------------------------ building


def _build_model(src: dict):
    try:
        if "fixture" not in src:
            return model_from_json(src)
        name = src["fixture"]
        if name == "repetition":
            return repetition_model(src["n"])
        if name == "four_two_two":
            model = four_two_two_model()
            if src.get("blocked", False):
                model = block_sites(model, [[0, 1], [2, 3]])
            return model
        return random_commuting_model(
            QuditSystem(tuple(src["dims"])),
            [tuple(p) for p in src["pairs"]],
            seed=src["seed"],
            ensure_ground_degeneracy=src.get("ground_degeneracy", 1))
    except ValueError as exc:
        raise UnsupportedInput(str(exc)) from exc


def _build_perturbation(spec: dict, model) -> np.ndarray:
    dims = model.system.dims
    if "pauli" in spec:
        s = spec["pauli"]
        if any(d != 2 for d in dims) or len(s) != len(dims):
            raise UnsupportedInput(
                f"pauli string {s!r} needs {len(s)} qubit sites, model has dims {dims}")
        return pauli_string_matrix(s)
    m = matrix_from_json(spec["matrix"])
    if "sites" in spec:
        try:
            return embed(m, spec["sites"], dims)
        except ValueError as exc:
            raise UnsupportedInput(str(exc)) from exc
    d = int(np.prod(dims))
    if m.shape != (d, d):
        raise UnsupportedInput(
            f"full matrix shape {m.shape} does not match total dimension {d}")
    return m


def _build_distribution(spec: dict) -> NoiseDistribution:
    kind = spec["kind"]
    if kind == "gaussian":
        return NoiseDistribution.gaussian(spec["mean"], spec["std"])
    if kind == "uniform":
        return NoiseDistribution.uniform(spec["a"], spec["b"])
    if kind == "discrete":
        atoms = spec["atoms"]
        if not (isinstance(atoms, list)
                and all(isinstance(a, list) and len(a) == 2 for a in atoms)):
            raise ValueError("'atoms' must be a list of [value, probability] pairs")
        return NoiseDistribution.discrete([(a[0], a[1]) for a in atoms])
    return NoiseDistribution.delta(spec["value"])


def _single_pauli_sweep(model):
    dims = model.system.dims
    if any(d != 2 for d in dims):
        raise UnsupportedInput("the single-Pauli sweep needs qubit sites")
    n = len(dims)
    for site in range(n):
        for p in "XYZ":
            s = "".join(p if k == site else "I" for k in range(n))
            yield s, pauli_string_matrix(s)


def _check(name, measured, bound, direction, reference, detail=""):
    measured = float(measured)
    bound = float(bound)
    ok = measured <= bound if direction == "<=" else measured >= bound
    return {"name": name, "passed": bool(ok), "measured": measured,
            "bound": bound, "direction": direction, "reference": reference,
            "detail": detail}


# ---------------------------------------------------------------- tasks


def _run_ids(scenario: dict):
    model = _build_model(scenario["model"])
    code = ground_subspace(model)
    params = scenario["params"]
    if "sweep" in params:
        perts = list(_single_pauli_sweep(model))
    else:
        perts = [(spec.get("pauli", f"perturbation_{i}"),
                  _build_perturbation(spec, model))
                 for i, spec in enumerate(params["perturbations"])]
    kl_tol = float(params.get("kl_tol", 1e-8))
    require_kl = params.get("require_kl", False)
    entries = []
    checks = []
    for label, v in perts:
        r = ids(code, v)
        detected, alpha = kl_check(code, v, tol=kl_tol)
        entries.append({"label": label, "delta_e": r.delta_e,
                        "lambda_min": r.lambda_min, "lambda_max": r.lambda_max,
                        "alpha_opt": r.alpha_opt, "kl_deviation": r.kl_deviation,
                        "kl_detected": bool(detected)})
        if require_kl:
            checks.append(_check(
                f"kl_detected:{label}", r.kl_deviation, kl_tol, "<=",
                "splitting.kl_check: perturbation leaves no trace on the code",
                f"relative deviation of the compressed operator from alpha={alpha:.6g}"))
    results = {"degeneracy": code.degeneracy, "gap": code.gap,
               "perturbations": entries}
    return checks, results, None


def _run_attack(scenario: dict):
    model = _build_model(scenario["model"])
    params = scenario["params"]
    iters = params.get("refine_iters", 40)
    try:
        if "site" in params:
            code = ground_subspace(model)
            report = worst_single_site_ascent(code, params["site"], iters=iters,
                                              seed=scenario["seed"])
            floor = 0.0
        else:
            report = commuting_model_attack(model, refine_iters=iters,
                                            seed=scenario["seed"])
            floor = float(report.details.get("analytic_delta_e", 0.0))
            code = ground_subspace(model)
    except ValueError as exc:
        raise UnsupportedInput(str(exc)) from exc
    v_full = embed(report.x.matrix, [report.site], model.system.dims)
    remeasured = ids(code, v_full).delta_e
    checks = [
        _check("attack_certified_floor", report.certified_delta_e,
               floor - 1e-9, ">=",
               "structure.commuting_model_attack: branch-specific analytic floor"
               if "site" not in params else
               "splitting.worst_single_site_ascent: numeric search result",
               f"branch {report.branch or 'ascent'}, site {report.site}"),
        _check("attack_remeasured", remeasured - report.certified_delta_e,
               -1e-9, ">=",
               "splitting.ids: independent re-measurement of the certificate",
               f"splitting {remeasured:.6g} vs certified {report.certified_delta_e:.6g}"),
    ]
    results = {
        "site": report.site,
        "branch": report.branch or "ascent",
        "guarantee": report.guarantee,
        "delta_e": report.certified_delta_e,
        "remeasured_delta_e": remeasured,
        "operator": _matrix_json(report.x.matrix),
        "details": {k: v for k, v in report.details.items()
                    if isinstance(v, (int, float, str, bool))},
    }
    return checks, results, None


def _run_decompose(scenario: dict):
    model = _build_model(scenario["model"])
    code = ground_subspace(model)
    try:
        fz = factor_ground_projector(model, code)
    except ValueError as exc:
        raise UnsupportedInput(str(exc)) from exc
    except StructureError as exc:
        checks = [_check("factorization_residual", np.inf, 1e-6, "<=",
                         "structure.factor_ground_projector: reconstruction residual",
                         str(exc))]
        return checks, {"error": str(exc)}, None
    checks = [_check("factorization_residual", fz.reconstruction_error, 1e-6, "<=",
                     "structure.factor_ground_projector: reconstruction residual",
                     "code projector rebuilt from pair factors")]
    return checks, {"factorization": fz.to_json(), "degeneracy": code.degeneracy}, None


def _run_dephase(scenario: dict):
    model = _build_model(scenario["model"])
    params = scenario["params"]
    code = ground_subspace(model)
    v = _build_perturbation(params["perturbation"], model)
    dist = _build_distribution(params["distribution"])
    t_grid = params["t_grid"]
    gap_factor = float(params.get("gap_factor", 1000.0))
    nodes = int(params.get("nodes", 64))
    state_spec = params.get("state", "worst")
    try:
        if state_spec == "worst":
            state = worst_code_state(code, v)
        else:
            amp = np.asarray(state_spec["amplitudes"], dtype=float)
            state = Ket(amp[:, 0] + 1j * amp[:, 1], code.dims)
        rows = dephasing_time_series(model.hamiltonian(), code, v, dist, state,
                                     t_grid, gap_factor, nodes=nodes)
    except ValueError as exc:
        raise UnsupportedInput(str(exc)) from exc
    sim_tol = float(params.get("sim_tol", 5e-2))
    gap_margin = min(r["gap_bound_rhs"] - r["gap_bound_lhs"] for r in rows)
    fid_margin = min(r["fidelity"] - r["fidelity_bound"] for r in rows)
    sim_dev = max(abs(r["predicted_coherence"] - r["simulated_coherence"])
                  for r in rows)
    checks = [
        _check("gap_bound_holds", gap_margin, 0.0, ">=",
               "dynamics.gap_bound_check: projected-evolution distance bound",
               f"{len(t_grid)} times, gap factor {gap_factor:g}"),
        _check("fidelity_bound_holds", fid_margin, -1e-12, ">=",
               "dynamics.fidelity_bound_check: quadratic fidelity floor",
               "surrogate evolution of the requested state"),
        _check("prediction_tracks_simulation", sim_dev, sim_tol, "<=",
               "dynamics.predict_dephasing: characteristic-function prediction",
               "per-pair coherence magnitudes"),
    ]
    spread = ids(code, v).delta_e
    results = {"delta_e": spread, "gap_factor": gap_factor,
               "rows": len(rows)}
    if spread > 0:
        eps = float(params.get("epsilon", 0.01))
        rep = coherence_time(dist, spread, eps)
        results["coherence_time"] = {
            "epsilon": rep.epsilon,
            "tau": rep.tau_eps if np.isfinite(rep.tau_eps) else "inf",
            "crossing": rep.c_eps if np.isfinite(rep.c_eps) else "inf",
            "small_epsilon_crossing": rep.small_eps_c
            if np.isfinite(rep.small_eps_c) else "inf",
        }
    return checks, results, ("dephasing.csv", rows)


def _run_verify(scenario: dict):
    level = scenario["params"].get("level", "quick")
    battery = run_battery(level)
    checks = [{"name": r.name, "passed": r.passed, "measured": r.measured,
               "bound": r.bound, "direction": r.direction,
               "reference": r.reference, "detail": r.detail,
               "seconds": r.seconds} for r in battery]
    return checks, {"level": level}, None


_TASK_RUNNERS = {
    "ids": _run_ids,
    "attack": _run_attack,
    "decompose": _run_decompose,
    "dephase": _run_dephase,
    "verify": _run_verify,
}


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


# -------------------------------------------------------------- report


def _digest(scenario: dict) -> str:
    blob = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_report(out_dir: Path, report: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path


def _write_csv(out_dir: Path, name: str, rows: list) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def execute(scenario: dict, out_dir: Path) -> int:
    """Run a validated scenario and write its artifacts. Returns exit code."""
    t0 = time.perf_counter()
    checks, results, series = _TASK_RUNNERS[scenario["task"]](scenario)
    report = {
        "artifact_version": ARTIFACT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "scenario_digest": _digest(scenario),
        "task": scenario["task"],
        "seed": scenario["seed"],
        "checks": checks,
        "results": results,
        "all_passed": all(c["passed"] for c in checks),
        "wall_clock_seconds": round(time.perf_counter() - t0, 6),
    }
    if series is not None:
        name, rows = series
        _write_csv(out_dir, name, rows)
        report["data_files"] = [name]
    path = _write_report(out_dir, report)
    for c in checks:
        tag = "PASS" if c["passed"] else "FAIL"
        print(f"[{tag}] {c['name']}: measured {c['measured']:.6g} "
              f"{c['direction']} bound {c['bound']:.6g}")
    print(f"report: {path}")
    return EXIT_OK if report["all_passed"] else EXIT_TOLERANCE


def run_scenario_file(path: str, out_dir: str, seed_override=None) -> int:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"scenario is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        scenario = validate_scenario(raw)
    except ScenarioError as exc:
        print(f"scenario rejected: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if seed_override is not None:
        scenario["seed"] = int(seed_override)
    try:
        return execute(scenario, Path(out_dir))
    except UnsupportedInput as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def run_verify(level: str, out_dir=None) -> int:
    scenario = {"schema_version": SCHEMA_VERSION, "task": "verify",
                "seed": 0, "params": {"level": level}}
    if out_dir is None:
        t0 = time.perf_counter()
        battery = run_battery(level)
        for r in battery:
            print(r.line())
        print(f"total {time.perf_counter() - t0:.1f}s at level {level}")
        return EXIT_OK if all(r.passed for r in battery) else EXIT_TOLERANCE
    return execute(scenario, Path(out_dir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitlab",
        description="degeneracy splitting analysis, worst-case perturbation "
                    "synthesis and dephasing checks for commuting models")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("--scenario", required=True, help="path to scenario JSON")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")

    ver_p = sub.add_parser("verify", help="run the acceptance battery")
    scale = ver_p.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true",
                       help="reduced instance counts (default)")
    scale.add_argument("--full", action="store_true",
                       help="complete battery")
    ver_p.add_argument("--out", default=None,
                       help="write report.json here instead of printing")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario_file(args.scenario, args.out, seed_override=args.seed)
    level = "full" if args.full else "quick"
    return run_verify(level, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
