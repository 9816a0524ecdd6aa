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
chain, D = 243); and a ``random_commuting`` attack at D = 64, whose bytes
are the same at one and at two BLAS threads.
"""

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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            code, files = artifacts(argv, Path(tmp) / name)
            if code != 0:
                print(f"{name}: exit {code}, corpus entry not written", file=sys.stderr)
                return 1
            entry = HERE / name
            entry.mkdir(exist_ok=True)
            for stale in ("report.json", "dephasing.csv"):
                (entry / stale).unlink(missing_ok=True)
            for file_name, text in files.items():
                (entry / file_name).write_text(text)
            print(f"{name}: {', '.join(files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
