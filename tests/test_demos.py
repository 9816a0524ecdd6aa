"""Smoke test: every demo script runs to completion, and README's library
quick start prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = _run([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_its_comments():
    # the quick start is the package namespace's one documented user: it
    # imports every name from splitlab itself, in a fresh interpreter
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = _run(["-c", block.group(1)])
    assert proc.returncode == 0, proc.stderr
    delta_e, attack, tau = proc.stdout.splitlines()
    assert delta_e == "2.0"
    assert attack == "0 2.0"
    assert tau.startswith("0.70888")
