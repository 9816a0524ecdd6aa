"""The benchmark's workloads: the scenario each one feeds the CLI.

Imports nothing from splitlab, so both the workload process and the
independent checks can use it.
"""

from __future__ import annotations

import json
from pathlib import Path

ATTACK_N = 10                 # D = 2**10 = 1024
DEPHASE_N = 8                 # D = 2**8 = 256
DEPHASE_SIGMA = 0.1
DEPHASE_T = (0.0, 5.0, 2)     # start, stop, num
DEPHASE_NODES = 64
DEPHASE_GAP_FACTOR = 1000.0
DEPHASE_EPSILON = 0.01
DEPHASE_SIM_TOL = 5e-2
VERIFY_CHECKS = 21            # checks in the battery, at either level

WORKLOADS = ("attack_d1024", "dephase_d256", "verify_quick")

# X + Z on one qubit, as [re, im] pairs: Z splits the repetition code by 2,
# X leaks out of it, so the finite-gap simulation is not trivial.
X_PLUS_Z = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]]


def scenario(workload: str, seed: int) -> dict | None:
    """Scenario dict for a workload, or None when the CLI needs no file."""
    if workload == "attack_d1024":
        return {"schema_version": 1, "task": "attack",
                "model": {"fixture": "repetition", "n": ATTACK_N},
                "seed": seed}
    if workload == "dephase_d256":
        start, stop, num = DEPHASE_T
        return {"schema_version": 1, "task": "dephase",
                "model": {"fixture": "repetition", "n": DEPHASE_N},
                "seed": seed,
                "params": {
                    "perturbation": {"sites": [0], "matrix": X_PLUS_Z},
                    "distribution": {"kind": "gaussian", "mean": 0.0,
                                     "std": DEPHASE_SIGMA},
                    "t_grid": {"start": start, "stop": stop, "num": num},
                    "nodes": DEPHASE_NODES,
                    "gap_factor": DEPHASE_GAP_FACTOR,
                    "epsilon": DEPHASE_EPSILON,
                    "sim_tol": DEPHASE_SIM_TOL}}
    if workload == "verify_quick":
        return None
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int, round_dir: Path) -> list[str]:
    """Write the workload's scenario into ``round_dir``; return the CLI argv."""
    out = str(round_dir / "out")
    sc = scenario(workload, seed)
    if sc is None:
        return ["verify", "--quick", "--out", out]
    path = round_dir / "scenario.json"
    path.write_text(json.dumps(sc, indent=2) + "\n")
    return ["run", "--scenario", str(path), "--out", out]
