#!/usr/bin/env python3
"""Build and run the ppvi cost-ledger benchmark.

Run from the root of a ppvi checkout:

    python3 ledger/run.py --workload vae_b256 --seed 0 --seconds 10 --trace 0
    python3 ledger/run.py --smoke

The script builds ledger/ledger.exe and bin/ppvi.exe with dune (build
output goes to stderr), then runs the benchmark with the given
arguments. The last line of standard output is the result object. A
run that exceeds its time limit is killed together with every process
it started. See ledger/README.md for the workloads and metrics.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "ledger", "ledger.exe")
PPVI = os.path.join("_build", "default", "bin", "ppvi.exe")


def run_group(argv, timeout, **kwargs):
    """Run argv in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"ledger: {argv[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin")):
        print("ledger: run from the root of a ppvi checkout "
              "(dune-project, lib/ and bin/ are missing here)", file=sys.stderr)
        return 2
    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    status = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./ledger/ledger.exe", "./bin/ppvi.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if status != 0:
        print("ledger: build failed", file=sys.stderr)
        return status
    return run_group([EXE, "--ppvi", PPVI, *sys.argv[1:]], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
