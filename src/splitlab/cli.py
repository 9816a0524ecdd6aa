"""Scenario-driven command line front end.

``splitlab run --scenario file.json --out dir`` loads a model, runs one
analysis task and writes a deterministic JSON report (plus CSV for time
series). ``splitlab verify --quick|--full`` runs the acceptance battery:
the verify scenario, through the same body.

Exit codes: 0 all checks passed; 2 malformed scenario or an unusable
--out (nothing is written); 3 a numerical check failed (the report is
still written), or an analysis could not finish: a battery check raised
or its worker process died, or an attack's structure analysis failed
(one line on stderr, nothing is written); 4 a valid scenario the model
cannot take (nothing is written). No command ends in exit 1 or a
traceback.

Reports are byte-identical across runs of the same scenario and seed,
except for the wall_clock_seconds field.
"""

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

# CPython's own SHA-256, which maps no OpenSSL; hashlib's import loads
# _hashlib and with it libcrypto, several MB resident for one digest
try:
    from _sha2 import sha256            # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from .code_space import ground_subspace
from .dynamics import (
    NoiseDistribution,
    coherence_time,
    dephasing_time_series,
    worst_code_state,
)
from .models import (
    QuditSystem,
    block_sites,
    build_model,
    four_two_two_model,
    matrix_from_json,
    matrix_to_json,
    pauli_string_local,
    random_commuting_model,
    repetition_model,
    single_site_paulis,
)
from .operators import (
    Ket,
    _hermitian,
    _kept_rows,
    _max_abs,
    _support,
    herm_eig,
    operator_norm,
)
from .report import LEVELS, verdict
from .splitting import KL_REL_TOL, ids, worst_single_site_ascent
from .structure import (
    StructureError,
    commuting_model_attack,
    factor_ground_projector,
    require_commuting_pairs,
)

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
    """Scenario file rejected before any work starts.

    A well-formed scenario the model cannot take (a fixture over the cap, a
    perturbation that does not fit the chain, a multi-sector decompose)
    raises ValueError instead, from the parse or from the task.
    """


# --------------------------------------------------------- field tables
#
# Each object in a scenario is read through a table of Field(check, what,
# default). check(value, where) returns the parsed value or raises
# ValueError/TypeError, read as "<where> must be <what>"; nested checks
# raise ScenarioError naming the inner field. default is REQUIRED, None
# (optional, stays None) or the value an absent field takes.
# docs/scenario_schema.md lists the same tables.

REQUIRED = object()

# Fixed ceilings on the dephase sizes: a simulation holds the k x k code
# block of its state per time point (k the degeneracy) and runs one batched
# block eigh per quadrature node, full size only when the pattern of the
# hamiltonian and the perturbation does not split.
MAX_TIMES = 10_000
MAX_NODES = 1_024


class Field(NamedTuple):
    check: Callable
    what: str
    default: object = REQUIRED


def _fields(obj, table: dict, where: str) -> dict:
    """Every field of ``table`` parsed from ``obj``, defaults filled in."""
    name = where or "scenario"
    if not isinstance(obj, dict):
        raise ScenarioError(f"{name} must be a JSON object")
    unknown = set(obj) - set(table)
    if unknown:
        raise ScenarioError(f"{name} has unknown fields {sorted(unknown)}")
    missing = [k for k, f in table.items() if f.default is REQUIRED and k not in obj]
    if missing:
        raise ScenarioError(f"{name} is missing fields {missing}")
    out = {}
    for key, f in table.items():
        path = f"{where}.{key}" if where else key
        try:
            out[key] = f.check(obj[key], path) if key in obj else f.default
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise ScenarioError(f"{path} must be {f.what}") from exc
    return out


def _check(ok, convert=lambda x: x):
    """A check that accepts x when ok(x) holds and returns convert(x)."""
    def check(x, where):
        if not ok(x):
            raise ValueError
        return convert(x)
    return check


# type(x) is int, not isinstance: a JSON true is no integer here
def _integer(lo, hi=math.inf):
    return _check(lambda x: type(x) is int and lo <= x <= hi)


def _real(ok=lambda x: True):
    return _check(lambda x: type(x) in (int, float) and math.isfinite(x) and ok(x), float)


def _word(*options, letters=""):
    """A string among ``options``, or a non-empty one spelled in ``letters``."""
    return _check(lambda x: type(x) is str and (x in options or x and set(x) <= set(letters)))


_boolean = _check(lambda x: type(x) is bool)
_as_is = _check(lambda x: True)


def _list_of(item, min_len=1, max_len=math.inf, distinct=False):
    def check(x, where):
        if not (isinstance(x, list) and min_len <= len(x) <= max_len):
            raise ValueError
        out = [item(v, f"{where}[{i}]") for i, v in enumerate(x)]
        if distinct and len(set(out)) != len(out):
            raise ValueError
        return out
    return check


def _matrix(x, where) -> np.ndarray:
    """The matrix as given, once it is hermitian within 1e-10 of its largest entry (or 1)."""
    m = matrix_from_json(x)
    _hermitian(m, 1e-10 * max(1.0, _max_abs(m)), f"{where} is not hermitian")
    return m


def _variant(x, where: str, tag: str, variants: dict):
    """(build, fields) of an object whose ``tag`` field names its table."""
    name = x.get(tag) if isinstance(x, dict) else None
    if not (isinstance(name, str) and name in variants):
        raise ScenarioError(f"{where}.{tag} must be one of {sorted(variants)}")
    table, build = variants[name]
    return build, _fields({k: v for k, v in x.items() if k != tag}, table, where)


_MATRIX = "a square matrix of [re, im] pairs, finite and hermitian"
_FINITE = Field(_real(), "a finite number")
_PAIRS = "a non-empty list of [{}, {}] pairs of finite numbers"

_FIXTURES = {
    "repetition": ({"n": Field(_integer(2), "an integer >= 2")}, repetition_model),
    "four_two_two": (
        {"blocked": Field(_boolean, "a boolean", False)},
        lambda blocked: (block_sites(four_two_two_model(), [[0, 1], [2, 3]])
                         if blocked else four_two_two_model())),
    "random_commuting": (
        {"dims": Field(_list_of(_integer(2)), "a non-empty list of integers >= 2"),
         "pairs": Field(_list_of(_list_of(_integer(0), 2, 2, distinct=True)),
                        "a non-empty list of two distinct sites (integers >= 0)"),
         "seed": Field(_integer(0), "an integer >= 0"),
         "ground_degeneracy": Field(_integer(1), "an integer >= 1", 1)},
        lambda dims, pairs, seed, ground_degeneracy: random_commuting_model(
            QuditSystem(dims), pairs, seed, ground_degeneracy)),
}

_TERM = {"sites": Field(_list_of(_integer(0), 1, 2, distinct=True),
                        "one or two distinct integers >= 0"),
         "matrix": Field(_matrix, _MATRIX)}

_INLINE_MODEL = {
    "dims": Field(_list_of(_integer(2)), "a non-empty list of integers >= 2"),
    "terms": Field(
        _list_of(lambda x, where: _fields(x, _TERM, where), 0),
        "a list of {sites, matrix} terms", None),
    "stabilizers": Field(_list_of(_word(letters="IXYZixyz"), 0),
                         "a list of Pauli strings", None),
    "seed": Field(_integer(0), "an integer >= 0", None),
}

_PERTURBATION = {
    "pauli": Field(_word(letters="IXYZ"), "a non-empty string of I, X, Y, Z", None),
    "matrix": Field(_matrix, _MATRIX, None),
    "sites": Field(_list_of(_integer(0), 0, distinct=True),
                   "a list of distinct integers >= 0", None),
}

_DISTRIBUTIONS = {
    "gaussian": ({"mean": _FINITE,
                  "std": Field(_real(lambda x: x > 0), "a finite number > 0")},
                 NoiseDistribution.gaussian),
    "uniform": ({"a": _FINITE, "b": Field(_real(), "a finite number > a")},
                NoiseDistribution.uniform),
    "discrete": ({"atoms": Field(_list_of(_list_of(_real(), 2, 2)),
                                 _PAIRS.format("value", "probability"))},
                 lambda atoms: NoiseDistribution.discrete(atoms)),
    "delta": ({"value": _FINITE}, NoiseDistribution.delta),
}

_T_RANGE = {"start": _FINITE, "stop": _FINITE,
            "num": Field(_integer(1, MAX_TIMES), f"an integer from 1 to {MAX_TIMES}")}

_AMPLITUDES = {"amplitudes": Field(_list_of(_list_of(_real(), 2, 2)),
                                   _PAIRS.format("re", "im"))}


def _perturbation(x, where):
    """(label, place): the Pauli string or None, and place(model) -> (sites, matrix on them)."""
    f = _fields(x, _PERTURBATION, where)
    pauli, m, sites = f["pauli"], f["matrix"], f["sites"]
    if (pauli is None) == (m is None) or (pauli is not None and sites is not None):
        raise ScenarioError(
            f"{where} needs either 'pauli' alone or 'matrix' with optional 'sites'")

    def place(model) -> tuple[list, np.ndarray]:
        dims = model.system.dims
        on, local = sites, m
        if pauli is not None:
            if any(d != 2 for d in dims) or len(pauli) != len(dims):
                raise ValueError(f"pauli string {pauli!r} needs {len(pauli)} "
                                 f"qubit sites, model has dims {dims}")
            on, local = pauli_string_local(pauli)
        elif sites is None:
            on = range(len(dims))
        return _support(on, dims, local), local

    return pauli, place


def _distribution(x, where) -> NoiseDistribution:
    build, f = _variant(x, where, "kind", _DISTRIBUTIONS)
    try:
        return build(**f)
    except ValueError as exc:
        raise ScenarioError(f"{where} rejected: {exc}") from exc


def _t_grid(x, where) -> list:
    if isinstance(x, dict):
        f = _fields(x, _T_RANGE, where)
        return [float(t) for t in np.linspace(f["start"], f["stop"], f["num"])]
    return _list_of(_real(), max_len=MAX_TIMES)(x, where)


def _state(x, where):
    """"worst", or the amplitude vector of an explicit start state."""
    if x == "worst":
        return x
    if not isinstance(x, dict):
        raise ValueError
    amp = np.array(_fields(x, _AMPLITUDES, where)["amplitudes"])
    return amp[:, 0] + 1j * amp[:, 1]


_PARAMS = {
    "ids": {
        "perturbations": Field(_list_of(_perturbation),
                               "a non-empty list of perturbation specs", None),
        "sweep": Field(_word("single_paulis"), '"single_paulis"', None),
        "require_kl": Field(_boolean, "a boolean", False),
        "kl_tol": Field(_real(lambda x: x >= 0), "a finite number >= 0", KL_REL_TOL),
    },
    "attack": {
        "site": Field(_integer(0), "an integer >= 0", None),
        "refine_iters": Field(_integer(1), "an integer >= 1", 40),
    },
    "decompose": {},
    "dephase": {
        "perturbation": Field(_perturbation, "a perturbation spec"),
        "distribution": Field(_distribution, "a distribution spec"),
        "t_grid": Field(_t_grid, f"a list of 1 to {MAX_TIMES} finite numbers "
                                 "or a {start, stop, num} range"),
        "gap_factor": Field(_real(lambda x: x > 0), "a finite number > 0", 1000.0),
        "state": Field(_state, '"worst" or {"amplitudes": [[re, im], ...]}', "worst"),
        "nodes": Field(_integer(1, MAX_NODES), f"an integer from 1 to {MAX_NODES}", 64),
        "epsilon": Field(_real(lambda x: 0 < x < 1),
                         "a number strictly between 0 and 1", 0.01),
        "sim_tol": Field(_real(lambda x: x >= 0), "a finite number >= 0", 5e-2),
    },
    "verify": {
        "level": Field(_word(*LEVELS), f"one of {LEVELS}", "quick"),
    },
}

_SCENARIO = {
    "schema_version": Field(_integer(SCHEMA_VERSION, SCHEMA_VERSION),
                            str(SCHEMA_VERSION)),
    "task": Field(_word(*TASKS), f"one of {TASKS}"),
    "model": Field(_as_is, "a model source", None),    # read by _build_model
    "params": Field(_as_is, "a JSON object", {}),      # read by _PARAMS[task]
    "seed": Field(_integer(0), "an integer >= 0", 0),
}


# ------------------------------------------------------------- scenario


class Scenario(NamedTuple):
    """A parsed scenario: its canonical form and the inputs built from it."""

    canonical: dict     # hashed into scenario_digest: t_grid expanded, no defaults
    model: object       # the built model; None for verify
    params: dict        # the task's inputs, built, with every default filled in


def parse_scenario(raw) -> Scenario:
    """The one pass over a scenario; raises ScenarioError or ValueError.

    Checks and builds every part that needs no model (the distribution and
    the time grid among them), then the model (_build_model checks its
    source as it builds it), then places the perturbations, the start
    state and an attack site on the model.
    """
    top = _fields(raw, _SCENARIO, "")
    task = top["task"]
    params = _fields(top["params"], _PARAMS[task], "params")
    if task == "ids" and (params["perturbations"] is None) == (params["sweep"] is None):
        raise ScenarioError("ids needs exactly one of 'perturbations' or 'sweep'")
    if (top["model"] is None) != (task == "verify"):
        raise ScenarioError("verify takes no model" if task == "verify"
                            else f"task {task!r} needs a model")
    canonical = {"schema_version": SCHEMA_VERSION, "task": task, "seed": top["seed"],
                 "params": dict(top["params"])}
    if task == "verify":
        return Scenario(canonical, None, params)
    canonical["model"] = top["model"]
    if task == "dephase":
        canonical["params"]["t_grid"] = params["t_grid"]
    model = _build_model(top["model"])
    dims = model.system.dims
    if task == "ids":
        # a Pauli string on a qudit model exits 4 at its placement
        specs = params["perturbations"] or [_perturbation({"pauli": label}, "params.sweep")
                                            for label in single_site_paulis(len(dims))]
        params["perturbations"] = [(label or f"perturbation_{i}", place(model))
                                   for i, (label, place) in enumerate(specs)]
    elif task == "attack" and params["site"] is not None and params["site"] >= len(dims):
        raise ValueError(f"site {params['site']} out of range")   # before the D^3 extraction
    elif task == "dephase":
        _, place = params["perturbation"]
        params["perturbation"] = place(model)
        if isinstance(params["state"], np.ndarray):
            params["state"] = Ket(params["state"], dims)
    return Scenario(canonical, model, params)


def _build_model(src):
    """Check a model source and build the run's one model.

    An inline model that build_model rejects is malformed (exit 2); the
    ValueError of a fixture builder means unsupported (exit 4).
    """
    if isinstance(src, dict) and "fixture" not in src:
        f = _fields(src, _INLINE_MODEL, "model")
        try:
            return build_model(**f)
        except ValueError as exc:
            raise ScenarioError(f"inline model rejected: {exc}") from exc
    build, f = _variant(src, "model", "fixture", _FIXTURES)
    return build(**f)


# ---------------------------------------------------------------- tasks


def _run_ids(scenario: Scenario):
    params = scenario.params
    code = ground_subspace(scenario.model)
    kl_tol = params["kl_tol"]
    entries = []
    checks = []
    for label, (sites, m) in params["perturbations"]:
        r = ids(code, m, sites)
        # the kl_check criterion: deviation within kl_tol times ||m (x) I|| = ||m||
        bound = kl_tol * operator_norm(m)
        entries.append({"label": label, "delta_e": r.delta_e,
                        "lambda_min": r.lambda_min, "lambda_max": r.lambda_max,
                        "alpha_opt": r.alpha_opt, "kl_deviation": r.kl_deviation,
                        "kl_detected": bool(r.kl_deviation <= bound)})
        if params["require_kl"]:
            checks.append(verdict(
                f"kl_detected:{label}", r.kl_deviation, bound, "<=",
                "splitting.kl_check: perturbation leaves no trace on the code",
                f"relative deviation of the compressed operator from alpha={r.alpha_opt:.6g}"))
    results = {"degeneracy": code.degeneracy, "gap": code.gap,
               "perturbations": entries}
    return checks, results, None


def _remeasure(code, x: np.ndarray, site: int) -> float:
    """Splitting of ``x`` on ``site`` over ``code``, read from its reduced states there.

    Code column b_n, read as the d_site x D/d_site matrix M_n that
    reduced_states reads, gives [B^dag (x (x) I) B]_mn = tr(x M_n M_m^dag):
    the cross terms of the reduced states on the site, formed as x M_n
    and contracted with each M_m in O(k D) memory. The k x k result goes
    through herm_eig's gate and the spread of its spectrum is returned. No
    D x D matrix is formed, and apply_local, project_onto_code and ids are
    not called, so the route stays apart from the one that certified x.
    """
    m = _kept_rows(code.basis.T, code.dims, [site])
    k = m.shape[0]
    comp = m.reshape(k, -1).conj() @ (x @ m).reshape(k, -1).T
    w, _ = herm_eig(comp)
    return float(w[-1] - w[0])


def _run_attack(scenario: Scenario):
    model = scenario.model
    site = scenario.params["site"]
    iters = scenario.params["refine_iters"]
    seed = scenario.canonical["seed"]
    if site is None:
        require_commuting_pairs(model)      # before the D^3 ground extraction
    code = ground_subspace(model)
    if site is not None:
        report = worst_single_site_ascent(code, site, iters=iters, seed=seed)
        floor = 0.0
    else:
        report = commuting_model_attack(model, code, refine_iters=iters, seed=seed)
        floor = report.details["analytic_delta_e"]
    remeasured = _remeasure(code, report.x.matrix, report.site)
    checks = [
        verdict("attack_certified_floor", report.certified_delta_e,
                floor - 1e-9, ">=",
                "structure.commuting_model_attack: branch-specific analytic floor"
                if site is None else
                "splitting.worst_single_site_ascent: numeric search result",
                f"branch {report.branch}, site {report.site}"),
        verdict("attack_remeasured", remeasured - report.certified_delta_e,
                -1e-9, ">=",
                "splitting.ids: independent re-measurement of the certificate",
                f"splitting {remeasured:.6g} vs certified {report.certified_delta_e:.6g}"),
    ]
    results = {
        "site": report.site,
        "branch": report.branch,
        "guarantee": report.guarantee,
        "delta_e": report.certified_delta_e,
        "remeasured_delta_e": remeasured,
        "operator": matrix_to_json(report.x.matrix),
        "details": {k: v for k, v in report.details.items()
                    if isinstance(v, (int, float, str, bool))},
    }
    return checks, results, None


def _run_decompose(scenario: Scenario):
    model = scenario.model
    require_commuting_pairs(model)          # before the D^3 ground extraction
    code = ground_subspace(model)
    try:
        fz = factor_ground_projector(model, code)
        residual, detail = fz.reconstruction_error, "code projector rebuilt from pair factors"
        results = {"factorization": fz.to_json(), "degeneracy": code.degeneracy}
    except StructureError as exc:
        # 1.0 is the ceiling of ||B - Pi B|| for a projector Pi and an isometry B
        residual, detail, results = 1.0, str(exc), {"error": str(exc)}
    checks = [verdict("factorization_residual", residual, 1e-6, "<=",
                      "structure.factor_ground_projector: reconstruction residual", detail)]
    return checks, results, None


def _run_dephase(scenario: Scenario):
    model = scenario.model
    params = scenario.params
    sites, m = params["perturbation"]
    if model.diagonal is None:
        h = model.hamiltonian()
        code = ground_subspace(h)
    else:   # h0 stays D reals, and the code comes from them
        h, code = model.diagonal, ground_subspace(model)
    if code.degeneracy < 2:
        raise ValueError("nothing to dephase: the ground space is not degenerate")
    split = ids(code, m, sites)
    dist = params["distribution"]
    t_grid = params["t_grid"]
    gap_factor = params["gap_factor"]
    state = params["state"]
    if state == "worst":
        state = worst_code_state(split)
    rows = dephasing_time_series(h, split, m, dist, state,
                                 t_grid, gap_factor, nodes=params["nodes"], sites=sites)
    gap_margin = min(r["gap_bound_rhs"] - r["gap_bound_lhs"] for r in rows)
    fid_margin = min(r["fidelity"] - r["fidelity_bound"] for r in rows)
    sim_dev = max(abs(r["predicted_coherence"] - r["simulated_coherence"])
                  for r in rows)
    checks = [
        verdict("gap_bound_holds", gap_margin, 0.0, ">=",
                "dynamics.gap_bound_check: projected-evolution distance bound",
                f"{len(t_grid)} times, gap factor {gap_factor:g}"),
        verdict("fidelity_bound_holds", fid_margin, -1e-12, ">=",
                "dynamics.fidelity_bound_check: quadratic fidelity floor",
                "surrogate evolution of the requested state"),
        verdict("prediction_tracks_simulation", sim_dev, params["sim_tol"], "<=",
                "dynamics.predict_dephasing: characteristic-function prediction",
                "per-pair coherence magnitudes"),
    ]
    spread = split.delta_e
    results = {"delta_e": spread, "gap_factor": gap_factor,
               "rows": len(rows)}
    if spread > 0:
        rep = coherence_time(dist, spread, params["epsilon"])
        results["coherence_time"] = {
            "epsilon": rep.epsilon,
            "tau": rep.tau_eps if np.isfinite(rep.tau_eps) else "inf",
            "crossing": rep.c_eps if np.isfinite(rep.c_eps) else "inf",
            "small_epsilon_crossing": rep.small_eps_c
            if np.isfinite(rep.small_eps_c) else "inf",
        }
    return checks, results, ("dephasing.csv", rows)


def _run_verify(scenario: Scenario):
    from .verify import run_battery     # the battery's modules load for this task alone

    level = scenario.params["level"]
    try:
        checks = run_battery(level)
    except Exception as exc:    # exit 3 whatever its type, even a ValueError
        raise _BatteryStopped(f"battery failed: {type(exc).__name__}: {exc}") from exc
    return checks, {"level": level}, None


_TASK_RUNNERS = {
    "ids": _run_ids,
    "attack": _run_attack,
    "decompose": _run_decompose,
    "dephase": _run_dephase,
    "verify": _run_verify,
}


# -------------------------------------------------------------- report


def _digest(scenario: dict) -> str:
    blob = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


def _refuse_out(out_dir: str) -> bool:
    """True, after one line on stderr, when ``out_dir`` cannot take the
    artifacts: its nearest existing path (itself, if it exists) is not a
    directory this process can write into. Creates nothing."""
    near = os.path.abspath(out_dir)
    while not os.path.exists(near):   # False also below a file or on any OSError
        near = os.path.dirname(near)
    if os.path.isdir(near) and os.access(near, os.W_OK | os.X_OK):
        return False
    what = "writable" if os.path.isdir(near) else "a directory"
    print(f"unusable --out: {near} is not {what}", file=sys.stderr)
    return True


def execute(scenario: Scenario, out_dir) -> int:
    """Run a parsed scenario, print its check lines and write its artifacts
    to ``out_dir`` (a verify run without --out writes none and prints its
    total instead). Returns the exit code; a failure raises, for _run."""
    t0 = time.perf_counter()
    task = scenario.canonical["task"]
    checks, results, series = _TASK_RUNNERS[task](scenario)
    report = {
        "artifact_version": ARTIFACT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "scenario_digest": _digest(scenario.canonical),
        "task": task,
        "seed": scenario.canonical["seed"],
        "checks": [c.to_json() for c in checks],
        "results": results,
        "all_passed": all(c.passed for c in checks),
        "wall_clock_seconds": round(time.perf_counter() - t0, 6),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if series is not None:
            name, rows = series
            with open(out / name, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
                writer.writeheader()
                writer.writerows(rows)
            report["data_files"] = [name]
        path = out / "report.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    for c in checks:
        print(c.line())
    print(f"total {report['wall_clock_seconds']:.1f}s at level {results['level']}"
          if out_dir is None else f"report: {path}")
    return EXIT_OK if report["all_passed"] else EXIT_TOLERANCE


class _BatteryStopped(Exception):
    """A battery check raised or a worker died; the message is its stderr line."""


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _read_scenario(path: str, seed_override):
    """The JSON at ``path``, its seed replaced by ``seed_override`` if given."""
    try:
        raw = json.loads(Path(path).read_text(), parse_constant=_no_constant)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    if seed_override is not None and isinstance(raw, dict):
        raw = {**raw, "seed": seed_override}
    return raw


def _run(read, out_dir) -> int:
    """The one body of every command: refuse an unusable ``out_dir``, then
    parse the scenario ``read()`` returns, run it, and map each failure to
    its exit code with one line on stderr and no report."""
    if out_dir is not None and _refuse_out(out_dir):
        return EXIT_SCHEMA
    try:
        # an input past the float range warns on its way; the finite checks
        # of the parse and the tasks decide its exit
        with np.errstate(all="ignore"):
            return execute(parse_scenario(read()), out_dir)
    except ScenarioError as exc:
        print(f"scenario rejected: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except _BatteryStopped as exc:
        print(exc, file=sys.stderr)
        return EXIT_TOLERANCE
    except (ValueError, ArithmeticError) as exc:
        # the model cannot take the input, or its magnitudes leave the float range
        print(f"unsupported input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except Exception as exc:
        # an analysis that cannot finish, such as a StructureError out of an attack
        print(f"analysis failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


def run_scenario_file(path: str, out_dir: str, seed_override=None) -> int:
    return _run(lambda: _read_scenario(path, seed_override), out_dir)


def run_verify(level: str, out_dir=None) -> int:
    """The verify scenario at ``level``: its lines printed, and report.json
    written to ``out_dir`` when given."""
    return _run(lambda: {"schema_version": SCHEMA_VERSION, "task": "verify",
                         "params": {"level": level}}, out_dir)


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
