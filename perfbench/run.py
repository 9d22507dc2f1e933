"""Benchmark of nongauss: time to a checked dataset, end to end and per layer.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the library is imported from ``src/``.  Every
workload runs in fresh processes with the BLAS/OpenMP thread count pinned to
the number of usable cores (OpenBLAS's own default).  Set-up is measured in
``SETUP_SAMPLES`` set-up-only processes plus the measuring one, and reported
as their median.  The last line of standard output is one JSON object:

  --trace 0: wall_s, setup_s, op_p50_ms, peak_rss_mb
  --trace 1: the per-layer metrics of ``tracer.LAYER_METRICS``; the spans go
             to perfbench/out/trace-<workload>-<seed>.jsonl

Lines before it give the environment and every metric by name and unit,
together with fail_ratio (failed / attempted ops).  The workloads and their
reasons are in BENCHMARK.json and workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalogue", "wehrl", "distill", "map-search")
SETUP_SAMPLES = 4
RUN_SECONDS = 25          # BENCHMARK.json's run_seconds
SETUP_TIMEOUT_S = 60
# the measuring process may overrun --seconds by its last pass, and a traced
# run always makes three passes
PASS_MARGIN_S = 120


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list, env: dict, timeout: float) -> dict:
    """Run one worker process to completion; its last stdout line is JSON."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--started", repr(started)] + args,
        env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def op_p50(latencies: list) -> float:
    """Median over ops of each op's median latency across the measured passes."""
    return statistics.median(statistics.median(per_op) for per_op in zip(*latencies))


def measure(workload: str, seed: int, seconds: float, trace: int,
            blas_threads: int | None = None, extra: tuple = ()) -> dict:
    """Run a workload; returns {correct, attempted, failed, metrics} plus details."""
    env = child_env(blas_threads or nproc())
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)] + list(extra)
    setups = [] if trace else [
        spawn(base + ["--setup-only"], env, SETUP_TIMEOUT_S)["setup_s"]
        for _ in range(SETUP_SAMPLES)]
    run_args = base + ["--trace", str(trace)]
    if trace:
        run_args += ["--trace-out", str(HERE / "out" / f"trace-{workload}-{seed}.jsonl")]
    res = spawn(run_args, env, seconds + PASS_MARGIN_S)
    setups.append(res["setup_s"])
    failed = len(res["failures"])
    if trace:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * op_p50(res["latencies"]), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    return {"correct": failed == 0 and res.get("negative_self", 0) == 0,
            "attempted": res["attempted"], "failed": failed, "metrics": metrics,
            "env": res["env"], "passes": len(res["walls"]), "failures": res["failures"]}


def report(workload: str, out: dict) -> None:
    """Human-readable lines: environment, every metric, failures."""
    print(f"# env {json.dumps(out['env'], sort_keys=True)}")
    for name, m in out["metrics"].items():
        print(f"{workload:<11} {name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:<11} {'fail_ratio':<36} {out['failed'] / out['attempted']:>16.6g} "
          f"({out['failed']}/{out['attempted']} ops, {out['passes']} passes)")
    for failure in out["failures"][:10]:
        print(f"# FAILED {failure}")


def result_line(out: dict) -> str:
    return json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nongauss" / "__init__.py").is_file():
        print(f"error: no nongauss sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not (HERE / "reference" / "ops.json").is_file():
        print("error: reference outputs missing; run perfbench/make_reference.py",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outs = {}
    for workload in workloads:
        out = measure(workload, args.seed, args.seconds, args.trace)
        report(workload, out)
        outs[workload] = out
    if args.workload == "all":
        print(json.dumps({w: json.loads(result_line(o)) for w, o in outs.items()}))
    else:
        print(result_line(outs[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
