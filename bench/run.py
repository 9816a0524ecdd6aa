"""splitlab benchmark: time the CLI end to end, check its outputs, trace its layers.

    python3 bench/run.py --workload attack_d1024 --seed 1 --seconds 30 --trace 0

Run from anywhere; it works on the splitlab source next to this directory.
Each round runs the workload once in a fresh process with one BLAS thread
(``workload.py``), and rounds repeat until ``--seconds`` have passed, so a
run makes at least one round. A few extra processes only set up, so that
``setup_s`` is a median. The outputs of every round are checked by
``checks.py`` outside the timed region. With ``--trace 1`` the run adds one
traced round and prints the per-layer metrics instead of the end-to-end
ones. The last line of standard output is the result as JSON.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "SPLITLAB_THREADS")
# the checks factor matrices in this process too; set before numpy loads
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse    # noqa: E402
import json        # noqa: E402
import shutil      # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys         # noqa: E402
import time        # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np        # noqa: E402

import checks     # noqa: E402
import scenarios  # noqa: E402
import tracer     # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 6          # set-up-only processes per run, besides each round's own
RUN_LIMIT_S = 170.0       # a run must end within 180 s
OUT_DIR = ROOT / ".bench_out"
TRACE_DIR = ROOT / ".bench_trace"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _spawn(workload: str, seed: int, round_dir: Path, deadline: float,
           *extra: str) -> dict | None:
    """One workload process; its measurements, or None if it crashed.

    A process still running at ``deadline`` (``time.monotonic()``) is
    killed and waited for, and ``subprocess.TimeoutExpired`` propagates.
    """
    round_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(round_dir / "cli.log", "w") as log:
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), "--workload", workload,
             "--seed", str(seed), "--dir", str(round_dir),
             "--spawned-at", repr(spawned_at), *extra],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 0.0))
    measure = round_dir / "measure.json"
    if proc.returncode != 0 or not measure.is_file():
        log_tail = (round_dir / "cli.log").read_text().splitlines()[-20:]
        print(f"{workload}: process exited {proc.returncode}", *log_tail,
              sep="\n", file=sys.stderr)
        return None
    return json.loads(measure.read_text())


def _evaluate(workload: str, seed: int, round_dir: Path, measure: dict | None):
    """(attempted, failed, problems) of one round.

    An operation fails when the CLI says so by its exit code; the
    independent checks run on operations that did not fail.
    """
    out = round_dir / "out"
    if workload == "verify_quick":
        report_path = out / "report.json"
        if measure is None or not report_path.is_file():
            return scenarios.VERIFY_CHECKS, scenarios.VERIFY_CHECKS, []
        report = json.loads(report_path.read_text())
        failed = sum(not c["passed"] for c in report["checks"])
        if measure["exit_code"] != 0:
            return scenarios.VERIFY_CHECKS, max(failed, 1), []
        return scenarios.VERIFY_CHECKS, failed, checks.check_verify(0, report)
    if measure is None or measure["exit_code"] != 0:
        return 1, 1, []
    sc = scenarios.scenario(workload, seed)
    report = json.loads((out / "report.json").read_text())
    if workload == "attack_d1024":
        return 1, 0, checks.check_attack(sc, 0, report)
    rows = checks.read_rows(out / "dephasing.csv")
    return 1, 0, (checks.check_dephase(sc, 0, report, rows)
                  + checks.check_dephase_simulation(sc, rows))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "splitlab" / "cli.py").is_file():
        print(f"no splitlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        for k in range(SETUP_PROBES):
            probe = _spawn(args.workload, args.seed, work / f"setup{k}", deadline,
                           "--setup-only")
            if probe is None:
                return 1
            setups.append(probe["setup_s"])

        rounds, attempted, failed, problems = [], 0, 0, []

        def one_round(*extra):
            nonlocal attempted, failed
            round_dir = work / f"round{len(rounds)}"
            measure = _spawn(args.workload, args.seed, round_dir, deadline, *extra)
            a, f, p = _evaluate(args.workload, args.seed, round_dir, measure)
            attempted, failed = attempted + a, failed + f
            problems.extend(p)
            rounds.append(measure)
            if measure is not None:
                print(f"round {len(rounds)}: wall {measure['wall_s']:.3f} s, "
                      f"setup {measure['setup_s']:.3f} s, "
                      f"peak rss {measure['peak_rss_mb']:.1f} MB, "
                      f"{a} attempted, {f} failed")
            shutil.rmtree(round_dir)
            return measure

        start = time.monotonic()
        while True:
            one_round()
            if time.monotonic() - start >= args.seconds:
                break
        timed = [m for m in rounds if m is not None]
        if not timed:
            print("no round completed", file=sys.stderr)
            return 1

        if args.trace:
            trace_file = TRACE_DIR / f"{args.workload}.npz"
            traced = one_round("--trace", str(trace_file))
            if traced is None:
                return 1
            with np.load(trace_file) as trace:
                values = tracer.aggregate(
                    trace, statistics.median(m["wall_s"] for m in timed))
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in tracer.metric_table()}
        else:
            values = {
                "wall_s": statistics.median(m["wall_s"] for m in timed),
                "setup_s": statistics.median(setups + [m["setup_s"] for m in timed]),
                "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m in timed),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    except subprocess.TimeoutExpired:
        print(f"run stopped: over {RUN_LIMIT_S:g} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
