"""The report corpus: the bytes each committed run writes.

    PYTHONPATH=src python tests/corpus/regen.py

Runs every entry of ``RUNS`` through the command line and rewrites its
directory here: ``report.json`` without its ``wall_clock_seconds`` line,
and ``dephasing.csv`` where the run writes one. ``tests/test_corpus.py``
re-runs the same entries and compares bytes, so a change that moves report
bytes on purpose runs this script, commits the diff and names each moved
field in CHANGES.md.

The entries: the demo scenarios, every directory here that holds a
``scenario.json``, and ``verify --quick``. The kept scenarios are the
benchmark's (a repetition n = 10 attack and a repetition n = 8 dephase, at
seed 1); ``ids``, ``attack`` and ``dephase`` on diagonal models on both
sides of D = 128 (repetition n = 6 and n = 8, and a 5-site diagonal qutrit
chain, D = 243); and ``random_commuting`` attacks at D = 64, whose bytes
are the same at one and at two BLAS threads, and at D = 512, whose bytes
are not.

An entry whose directory holds a ``GAUGE_FREE`` file is such an entry: the
eigenbasis LAPACK picks for its degenerate ground space moves with the
thread count, and with it the operator and the last digits of every float
the attack derives from it. Its report is compared on the fields no choice
of that basis moves (``agrees``), and this script keeps its committed
report while those fields agree, so a run at another thread count moves no
bytes.
"""

import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from splitlab import cli  # noqa: E402


def _scenario(path: Path) -> list:
    return ["run", "--scenario", str(path)]


# entry name -> command line, less --out
RUNS = {
    **{p.stem: _scenario(p) for p in sorted((ROOT / "demos" / "scenarios").glob("*.json"))},
    **{p.parent.name: _scenario(p) for p in sorted(HERE.glob("*/scenario.json"))},
    "verify_quick": ["verify", "--quick"],
}

# the last key of the sorted top level, so its line ends the object
_CLOCK = re.compile(r',\n  "wall_clock_seconds": [^\n]*')


def artifacts(argv: list, out: Path) -> tuple:
    """(exit code, {file name: text as the corpus keeps it}) of one run into ``out``."""
    code = cli.main([*argv, "--out", str(out)])
    files = {}
    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.name == "report.json":
            text, n = _CLOCK.subn("", text)
            if n != 1:
                raise ValueError(f"{path} has no final wall_clock_seconds line")
        files[path.name] = text
    return code, files


GAUGE_FREE_MARK = "GAUGE_FREE"
GAUGE_FREE_TOL = 1e-12


def _gauge_free_fields(text: str) -> tuple:
    """(exact fields, floats) of an attack report.json: every top-level field
    but the checks and results; branch, site and guarantee; each check's name
    and verdict; and delta_e, remeasured_delta_e and the details."""
    report = json.loads(text)
    results = report["results"]
    exact = {k: v for k, v in report.items() if k not in ("checks", "results")}
    exact.update({k: results[k] for k in ("branch", "site", "guarantee")})
    exact["checks"] = [(c["name"], c["passed"]) for c in report["checks"]]
    floats = {k: results[k] for k in ("delta_e", "remeasured_delta_e")}
    floats.update({f"details.{k}": v for k, v in results["details"].items()})
    return exact, floats


def agrees(name: str, file_name: str, text: str, committed: str) -> bool:
    """True when a run's ``text`` of ``file_name`` matches the corpus's
    ``committed`` text: byte for byte, or on its gauge-free fields (floats
    within GAUGE_FREE_TOL) for the report of an entry marked GAUGE_FREE."""
    if file_name != "report.json" or not (HERE / name / GAUGE_FREE_MARK).is_file():
        return text == committed
    exact, floats = _gauge_free_fields(text)
    kept_exact, kept_floats = _gauge_free_fields(committed)
    return (exact == kept_exact and floats.keys() == kept_floats.keys()
            and all(abs(floats[k] - kept_floats[k]) <= GAUGE_FREE_TOL for k in floats))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            code, files = artifacts(argv, Path(tmp) / name)
            if code != 0:
                print(f"{name}: exit {code}, corpus entry not written", file=sys.stderr)
                return 1
            entry = HERE / name
            entry.mkdir(exist_ok=True)
            for stale in {"report.json", "dephasing.csv"} - files.keys():
                (entry / stale).unlink(missing_ok=True)
            for file_name, text in files.items():
                path = entry / file_name
                if not (path.is_file() and agrees(name, file_name, text, path.read_text())):
                    path.write_text(text)
            print(f"{name}: {', '.join(files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
