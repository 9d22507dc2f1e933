"""One benchmark process: set up a workload, run it, print one JSON line.

Started by ``run.py`` with the BLAS thread count pinned in its environment and
``--started`` set to the monotonic time just before the process was spawned,
so set-up time covers interpreter start, ``import nongauss`` and loading the
workload's inputs.

A pass runs every op of the workload once, in order, after emptying the
library's caches, so each pass costs what a fresh process pays.  Untraced, the
worker runs passes until another would overrun ``--seconds``.  Traced, it runs
two untraced passes, then one pass under the span tracer.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--started", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true", help="the cheapest ops only")
    p.add_argument("--perturb", default=None,
                   help="op whose reference is shifted by 1e-6 (self-test)")
    p.add_argument("--trace-out", default=None, help="JSONL file for the spans")
    p.add_argument("--figure-threads", type=int, default=0,
                   help="instead of ops, time the workload's figure builders "
                        "with this many worker threads (evidence report)")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_pass(ops, seed, refs, tracer=None) -> dict:
    from tracer import clear_library_caches
    from workloads import check
    clear_library_caches()
    gc.collect()
    latencies, failures = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            rows = (tracer.call(op.span, op.run) if tracer is not None and op.span
                    else op.run())
            error = None
        except Exception as exc:  # a raising op is a counted failure, not a crash
            rows, error = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if error is None:
            error = check(op, rows, seed, refs)
        if error is not None:
            failures.append(f"{op.name}: {error}")
    return {"wall_s": time.perf_counter() - start, "latencies": latencies,
            "failures": failures}


def figure_pass(workload: str, threads: int) -> dict:
    """Build the workload's figures whole through build_figure(threads=...)."""
    from nongauss import figures
    from tracer import clear_library_caches
    numbers = {"catalogue": (1, 3, 4, 5, 6, 7, 8), "wehrl": (2,),
               "distill": (9, 10, 11), "map-search": ()}[workload]
    clear_library_caches()
    out = {}
    for n in numbers:
        t0 = time.perf_counter()
        figures.build_figure(n, seed=0, threads=threads)
        out[f"fig{n}"] = time.perf_counter() - t0
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    import workloads
    refs = workloads.References()
    ops = workloads.build(args.workload, args.seed, refs, smoke=args.smoke)
    if args.perturb:
        workloads.perturb(refs, next(op for op in ops if op.name == args.perturb), 1e-6)
    setup_s = time.monotonic() - args.started
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result["env"] = environment()
    if args.figure_threads:
        result["figures"] = figure_pass(args.workload, args.figure_threads)
        print(json.dumps(result))
        return 0

    # the first pass also pays the process's one-off costs (lazy imports,
    # allocator growth); it is reported only when no other pass fits
    first = time.monotonic()
    passes = [run_pass(ops, args.seed, refs)]
    if args.trace:
        passes.append(run_pass(ops, args.seed, refs))
    else:
        while time.monotonic() - first + max(p["wall_s"] for p in passes) <= args.seconds:
            passes.append(run_pass(ops, args.seed, refs))
    measured = passes[1:] or passes
    result["walls"] = [p["wall_s"] for p in measured]
    result["latencies"] = [p["latencies"] for p in measured]
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, args.seed, refs, tracer)
        finally:
            tracer.uninstall()
        result["layers"] = tracer.metrics(traced["wall_s"] - measured[-1]["wall_s"])
        result["negative_self"] = sum(1 for t in tracer.self_times() if t < 0)
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(args.trace_out)
        passes.append(traced)

    result.update({
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
