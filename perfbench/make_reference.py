"""Regenerate the benchmark's reference outputs at the reference seed.

    python3 perfbench/make_reference.py

Writes reference/figures/figN.csv for figures 1-11 through the CLI (the
regression baseline of the figure datasets) and reference/ops.json with the
rows of every op that is not a figure grid point.  Then runs every figure
grid-point op and checks it against its CSV rows, so each op is shown to be
paired with the rows the builder wrote for its point.  Only rerun it on
purpose: the references define what the benchmark accepts as correct.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    # pin the BLAS thread count as the benchmark does, before numpy loads
    os.environ.update(run.child_env(run.nproc()))
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    from nongauss import cli

    workloads.FIGURE_DIR.mkdir(parents=True, exist_ok=True)
    for n in range(1, 12):
        code = cli.main(["figure", str(n), "--seed", str(workloads.REF_SEED),
                         "--out", str(workloads.FIGURE_DIR / f"fig{n}.csv")])
        if code != 0:
            print(f"figure {n} failed with exit code {code}", file=sys.stderr)
            return 1
        print(f"figure {n} written", flush=True)

    refs = workloads.References()
    refs.ops = {}
    bad = []
    for workload in run.WORKLOADS:
        for op in workloads.build(workload, workloads.REF_SEED, refs):
            rows = op.run()
            if op.reference[0] == "ops":
                refs.ops[op.name] = rows
            elif workloads.deviation(rows, refs.lookup(op.reference)) > workloads.TOLERANCE:
                bad.append(op.name)
        print(f"{workload} done", flush=True)
    workloads.OPS_FILE.write_text(json.dumps(refs.ops, indent=1, sort_keys=True) + "\n")
    if bad:
        print(f"grid-point ops disagree with their figure CSV: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
