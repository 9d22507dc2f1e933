"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs each workload at its smallest size (workloads.SMOKE) and checks that:
every metric BENCHMARK.json names is emitted with its unit, untraced and
traced; every span's self time is >= 0; the per-layer counts that must repeat
exactly do so between two traced runs; a deliberately perturbed reference
value turns that op into a counted failure.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import sys

import run

SMOKE = ("--smoke",)
EXACT = ("channels.bs_block.misses", "channels.expm.calls", "gaussian.expm.calls")


def _expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def _check_units(out: dict, declared: list, label: str) -> None:
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    _expect(got == want, f"{label}: every metric emitted with its unit")


def _spans_nonnegative(workload: str) -> bool:
    path = run.HERE / "out" / f"trace-{workload}-0.jsonl"
    with open(path) as fh:
        return all(json.loads(line)["self_s"] >= 0 for line in fh)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        plain = run.measure(workload, 0, 1, 0, extra=SMOKE)
        _expect(plain["correct"] and plain["failed"] == 0, f"{workload}: smoke ops correct")
        _check_units(plain, spec["end_to_end"], f"{workload} untraced")
        traced = run.measure(workload, 0, 1, 1, extra=SMOKE)
        _check_units(traced, spec["per_layer"], f"{workload} traced")
        _expect(_spans_nonnegative(workload), f"{workload}: every span's self time >= 0")
        again = run.measure(workload, 0, 1, 1, extra=SMOKE)
        _expect(all(traced["metrics"][k] == again["metrics"][k] for k in EXACT),
                f"{workload}: {', '.join(EXACT)} repeat exactly")

    target = "fig1[0]"
    out = run.measure("catalogue", 0, 1, 0, extra=SMOKE + ("--perturb", target))
    _expect(not out["correct"] and out["failed"] >= 1
            and all(f.startswith(target + ":") for f in out["failures"]),
            f"perturbed reference of {target} counted as a failure "
            f"({out['failed']}/{out['attempted']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
