"""One-off evidence report, outside the repeated benchmark runs.

    python3 perfbench/evidence.py [--seconds 25]

For every workload it records, on this machine:
  - the untraced end-to-end metrics with BLAS pinned to nproc threads (the
    benchmark's setting) and with 1 BLAS thread (the single-threaded baseline);
  - the wall time of each of the workload's whole figures built through
    ``build_figure`` with threads=1 and threads=2, the evidence on whether the
    figure builders' thread pool pays for itself;
and the tier-1 test suite's wall time and outcome.  Writes evidence.json.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time

import run


def _values(out: dict) -> dict:
    return {k: v["value"] for k, v in out["metrics"].items()} | {
        "failed": out["failed"], "attempted": out["attempted"]}


def tier1() -> dict:
    env = run.child_env(run.nproc())
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", "tests"],
                          cwd=run.ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"wall_s": wall, "summary": summary, **counts}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seconds", type=float, default=run.RUN_SECONDS)
    args = p.parse_args(argv)
    report = {"nproc": run.nproc(), "workloads": {}}
    env_n = run.child_env(run.nproc())
    for workload in run.WORKLOADS:
        pinned = run.measure(workload, 0, args.seconds, 0)
        single = run.measure(workload, 0, args.seconds, 0, blas_threads=1)
        report["env"] = pinned["env"]
        entry = {f"blas_threads_{run.nproc()}": _values(pinned),
                 "blas_threads_1": _values(single)}
        if workload != "map-search":
            for threads in (1, 2):
                figs = run.spawn(["--workload", workload, "--seed", "0", "--seconds", "0",
                                  "--figure-threads", str(threads)], env_n, timeout=600)
                entry[f"figures_threads_{threads}_s"] = figs["figures"]
        report["workloads"][workload] = entry
        print(workload, json.dumps(entry), flush=True)
    report["tier1"] = tier1()
    print("tier1", json.dumps(report["tier1"]), flush=True)
    (run.HERE / "evidence.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
