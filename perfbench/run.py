#!/usr/bin/env python3
"""Build and run the qcut benchmark for one workload.

    python3 perfbench/run.py --workload serve|cold|nme --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
qcut library, qcut-server and the two benchmark programs from the
checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), through the repository's own CMakeLists.txt; later
runs rebuild only what changed. With
--trace 0 the end-to-end command (qbench-e2e) runs and prints the
end-to-end metrics; with --trace 1 the traced run (qbench-trace) prints
the per-layer metrics. Either way the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["serve", "cold", "nme"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(ROOT if not os.path.isabs(target) else "", target, "perfbench")
    work = os.path.join(build, "run")
    tmp = os.path.join(build, "tmp")
    os.makedirs(work, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    # The program runs with its defaults: no QCUT_* switches (metrics,
    # tracing, fault injection, SIMD tier) leak in from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("QCUT_")}
    env["TMPDIR"] = tmp

    # Build output goes to stderr: stdout carries only the result line.
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build, "-j", "4"], check=True, stdout=sys.stderr,
                   env=env)

    program = "qbench-trace" if args.trace == "1" else "qbench-e2e"
    server = os.path.join(build, "qcut", "qcut-server")
    cmd = [os.path.join(build, program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--server-bin", server, "--work-dir", work]
    # Own process group, so a run that overstays is stopped with its server.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {program} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
