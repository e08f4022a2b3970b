"""Benchmark of the nessfold pipeline, one workload per process.

    python3 benchmark/run.py --workload exact-n8 --seed 0 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all

Run from the root of a checkout: the package is imported from `src/` there,
never from an installed copy.  A run

1. computes each point's reference answer from the covariance Lyapunov
   equation (`reference.py`), untimed, and refuses to report if the reference
   disagrees with the transfer-stack readout at a fixed N=8 point;
2. repeats passes over the workload's points through the public entry points
   until `--seconds` have passed (at least two), checking every answer;
3. times `setup_s` between the passes: fresh processes that import nessfold
   and finish one N=2 solve, median of five;
4. prints one `{"env": ...}` line, then the result object as the last line.

With `--trace 1` it alternates untraced and traced passes, reports the
per-layer metrics of the traced ones plus the tracing overhead, and writes the
spans to `.bench_out/`.  No BLAS or OpenMP thread variable is set: the run
measures the thread policy users get, and records it in the env line.

Exit codes: 0 result printed, 1 a workload of `all` failed, 2 no sources,
3 reference pin failed, 4 tracing could not cover a layer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_all(names, args) -> int:
    """Each workload in a fresh process; one tagged result line per workload."""
    status = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(json.dumps({"workload": name, "exit": done.returncode}))
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def main(argv=None) -> int:
    if not (SRC / "nessfold" / "__init__.py").is_file():
        print(f"no nessfold sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(WORKLOADS, args)
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.PinFailure as exc:
        print(f"refusing to report: {exc}", file=sys.stderr)
        return 3
    except harness.TraceError as exc:
        print(f"tracing failed: {exc}", file=sys.stderr)
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
