"""One round of a workload in a fresh process; started by ``bench/run.py``.

    python3 bench/workload.py --workload W --seed S --dir D --spawned-at T
        [--setup-only] [--trace FILE]

Set-up runs from process start (``T``, the parent's ``time.monotonic()``
just before it spawned this process) until the workload is ready: the
interpreter, the imports of numpy and splitlab from ``src/``, and writing
the generated scenario. Then the CLI entry point is called once and timed.
The measurements go to ``D/measure.json``; the CLI's own output goes to
``D/out``.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MB.

    ``VmHWM`` belongs to the image started by exec. ``ru_maxrss`` would also
    count the memory of the parent copied at fork, which can exceed this
    process's own peak once the parent has run the checks.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None,
                        help="record layer spans and write them to this file")
    args = parser.parse_args()
    round_dir = Path(args.dir)

    sys.path.insert(0, str(SRC))
    import splitlab.cli
    import scenarios

    if Path(splitlab.cli.__file__).resolve().parent != SRC / "splitlab":
        raise SystemExit(f"splitlab imported from {splitlab.cli.__file__}, not {SRC}")
    argv = scenarios.prepare(args.workload, args.seed, round_dir)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}

    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        code = splitlab.cli.main(argv)
        wall_s = time.perf_counter() - t0
        result.update(
            exit_code=code, wall_s=wall_s, peak_rss_mb=peak_rss_mb())
        if tracer is not None:
            tracer.dump(Path(args.trace), wall_s)
    (round_dir / "measure.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
