"""The benchmark's workloads: fixed lists of operations and their correctness checks.

An operation ("op") is one row-producing evaluation: one figure grid point,
one CLI invocation made in-process through ``cli.main(argv)``, or one
``ng_of_map`` call.  A figure grid point runs the builder's own per-point
function on one point of the builder's own grid (``figure_points``), so each
point is timed on its own; its reference rows are the figure CSVs the
builders wrote at seed 0 (``reference/figures``).  Every other op's reference
is in ``reference/ops.json``.

Library functions are always reached through their module object
(``measures.delta_b``, not a bound name), so the wrappers of a traced run see
every call the benchmark makes.

Seeded ops draw their inputs from the run's seed.  At the reference seed they
are compared with stored values; at any other seed they are checked against
the paper's relations instead.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nongauss
from nongauss import (bounds, channels, cli, distillation, figures, infometrics,
                      measures, states)

REF_SEED = 0
TOLERANCE = 1e-8          # largest absolute deviation from a reference value
T_PROTOCOL_TOL = 1e-5     # one-photon delta_B = 2 log 2, as tier-1 checks it
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIGURE_DIR = REFERENCE_DIR / "figures"
OPS_FILE = REFERENCE_DIR / "ops.json"
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Op:
    """One timed evaluation.

    ``run`` returns rows (lists of numbers and strings).  ``reference`` is a
    ("figure", number, first_row, row_count) or ("ops", name) locator.
    ``relation`` is set for seeded ops: away from the reference seed it
    returns None when the rows satisfy the paper's relations, else a reason.
    ``span`` names the span a traced run opens around the op, for ops whose
    own code is not a wrapped library function (a builder's per-point code).
    """

    name: str
    run: Callable[[], list]
    reference: tuple
    relation: Callable[[list], str | None] | None = None
    span: str | None = None


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _cell(value):
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return float(value)


def deviation(got: list, ref: list) -> float:
    """Largest absolute deviation between two tables; inf on any mismatch of
    shape, of a string cell, or of NaN against a number."""
    if len(got) != len(ref):
        return math.inf
    worst = 0.0
    for row_g, row_r in zip(got, ref):
        if len(row_g) != len(row_r):
            return math.inf
        for a, b in zip(row_g, row_r):
            a, b = _cell(a), _cell(b)
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    return math.inf
            elif math.isnan(a) or math.isnan(b):
                if not (math.isnan(a) and math.isnan(b)):
                    return math.inf
            elif a != b:
                worst = max(worst, abs(a - b))
    return worst


class References:
    """Reference tables, loaded once per run."""

    def __init__(self):
        self.ops = json.loads(OPS_FILE.read_text()) if OPS_FILE.exists() else {}
        self._figures = {}

    def figure_rows(self, number: int) -> list:
        if number not in self._figures:
            self._figures[number] = parse_table((FIGURE_DIR / f"fig{number}.csv").read_text())[1:]
        return self._figures[number]

    def lookup(self, locator: tuple) -> list:
        if locator[0] == "figure":
            _, number, first, count = locator
            return self.figure_rows(number)[first:None if count is None else first + count]
        return self.ops[locator[1]]


def parse_table(text: str) -> list:
    """Rows of a CSV or JSON text; '#' comment lines are skipped."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return [_flatten(json.loads(stripped))]
    lines = [ln for ln in stripped.splitlines() if ln and not ln.startswith("#")]
    return [[_cell(c) for c in row] for row in csv.reader(lines)]


def _flatten(obj) -> list:
    if isinstance(obj, dict):
        return [v for key in obj for v in _flatten(obj[key])]
    if isinstance(obj, list):
        return [v for item in obj for v in _flatten(item)]
    if isinstance(obj, bool):
        return [float(obj)]
    return [obj]


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------

def _run_cli(argv: list, out: Path | None = None) -> list:
    """Rows of an in-process CLI call: its stdout, or the JSON it wrote to ``out``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv) + (["--out", str(out)] if out else []))
    if code != 0:
        raise RuntimeError(f"nongauss {' '.join(argv)} exited with {code}")
    return parse_table(out.read_text() if out else buf.getvalue())


def _cli_op(name: str, argv: list) -> Op:
    # `measure` and `bound` print 6 decimals; their --out JSON has every digit
    out = None
    if argv[0] in ("measure", "bound"):
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{name.replace('/', '-')}.json"
    return Op(name, lambda: _run_cli(argv, out), ("ops", name))


class _Captured(Exception):
    pass


def figure_points(number: int) -> tuple:
    """The per-point function and the grid of figure ``number``'s builder.

    The builder is called and stopped where it hands both to
    ``figures._parallel_map``, so each op runs the builder's own per-point
    code and a change to a builder shows in the benchmark's time and checks.
    """
    if not hasattr(figures, "_parallel_map"):
        raise RuntimeError("figures._parallel_map is gone: figure_points needs the "
                           "builders' new per-point seam")
    seen = {}

    def capture(fn, items, threads=1):
        seen["point"], seen["items"] = fn, list(items)
        raise _Captured

    original = figures._parallel_map
    figures._parallel_map = capture
    try:
        figures.FIGURES[number](seed=REF_SEED, threads=1)
    except _Captured:
        pass
    finally:
        figures._parallel_map = original
    if not seen:
        raise RuntimeError(f"figure {number}'s builder no longer calls figures._parallel_map")
    return seen["point"], seen["items"]


def _point_rows(result) -> list:
    """A builder's per-point result as rows (figs 9 and 10 return several)."""
    return result if result and isinstance(result[0], list) else [result]


def _figure_ops(number: int, refs: References, select=None) -> list:
    """One op per selected grid point; rows are compared with the figure CSV.

    ``select`` maps the builder's grid to the indices to run (default: all).
    """
    point, items = figure_points(number)
    per_point = len(refs.figure_rows(number)) // len(items)
    picks = range(len(items)) if select is None else select(items)
    return [Op(f"fig{number}[{i}]", (lambda item=items[i]: _point_rows(point(item))),
               ("figure", number, i * per_point, per_point), span="figures")
            for i in picks]


def _every_other(items) -> range:
    return range(0, len(items), 2)


# ---------------------------------------------------------------------------
# seeded ops
# ---------------------------------------------------------------------------

def _is_random(row) -> bool:
    return str(row[0]).startswith("random_H")


def _fig4_op(seed: int, refs: References) -> Op:
    """CLI `figure 4`: closed-form family rows plus the seeded random mixtures."""
    rng = np.random.default_rng(seed)   # the builder's draw, repeated
    purities = [float(np.dot(w, w)) for hdim in (10, 100)
                for w in (rng.dirichlet(np.ones(hdim + 1)) for _ in range(200))]
    family_ref = [r for r in refs.figure_rows(4) if not _is_random(r)]

    def relation(rows):
        if deviation([r for r in rows if not _is_random(r)], family_ref) > TOLERANCE:
            return "family rows deviate from the reference"
        mixtures = [r for r in rows if _is_random(r)]
        if len(mixtures) != len(purities):
            return f"{len(mixtures)} random mixtures, expected {len(purities)}"
        for mu, (_, _, da, db) in zip(purities, mixtures):
            if not 0.0 <= da <= 0.5 + 1e-6:
                return f"delta_A = {da} outside [0, 1/2]"
            if db < mu * da - 1e-6:
                return f"delta_B = {db} < mu delta_A = {mu * da}"
        return None
    return Op("cli/figure4", lambda: _run_cli(["figure", "4", "--seed", str(seed)])[1:],
              ("figure", 4, 0, None), relation)


def _a5_op(seed: int, cutoff: int, samples: int = 30) -> Op:
    def run():
        stats = measures.conjecture_a5_sweep(samples, [cutoff], seed=seed)[cutoff]
        return [[stats["max"], stats["mean"], float(stats["bound_ok"])] + stats["histogram"]]

    def relation(rows):
        mx, _, ok, *hist = rows[0]
        if not ok or mx > 0.5 + 1e-6:
            return f"delta_A max {mx} breaks the 1/2 bound"
        if sum(hist) != samples + 1:
            return "histogram does not count every sample"
        return None
    return Op(f"a5_sweep[d={cutoff}]", run, ("ops", f"a5_sweep[d={cutoff}]"), relation)


def _inequality_op(seed: int, k: int) -> Op:
    def run():
        rho = nongauss.random_density_matrix(1, 6, 1 + k % 6, seed=[seed, k])
        return [[measures.delta_a(rho).value, measures.delta_b(rho).value,
                 nongauss.purity(rho)]]

    def relation(rows):
        da, db, mu = rows[0]
        if not 0.0 <= da <= 0.5 + 1e-6:
            return f"delta_A = {da} outside [0, 1/2]"
        if db < mu * da - 1e-6:
            return f"delta_B = {db} < mu delta_A = {mu * da}"
        return None
    return Op(f"random_state[{k}]", run, ("ops", f"random_state[{k}]"), relation)


def _taka_seeded_op(seed: int) -> Op:
    r = 0.3 + 0.2 * float(np.random.default_rng(seed).random())

    def run():
        psi = distillation.t_protocol_output(r, "one")
        return [[r, measures.delta_b(psi).value, distillation.log_negativity(psi)]]

    def relation(rows):
        db = rows[0][1]
        if abs(db - 2.0 * math.log(2.0)) > T_PROTOCOL_TOL:
            return f"one-photon delta_B = {db}, not 2 log 2"
        return None
    return Op("taka_seeded", run, ("ops", "taka_seeded"), relation)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def _bound_op(label: str, make_state, thermal_reference: bool) -> Op:
    """delta_B and every bound valid on the state's class (the tier-1 zoo)."""
    def run():
        rho = make_state()
        row = [measures.delta_b(rho).value, bounds.epsilon_d(rho)]
        for eta in (0.4, 0.8):
            row.append(bounds.epsilon_e(rho, eta))
        if thermal_reference:
            row.append(bounds.epsilon_b(rho))
            for eta in (0.4, 0.8):
                q = bounds.detection_statistics(
                    rho, bounds.PhotodetectionPOVM(eta, rho.cutoff))
                row += [bounds.epsilon_c(rho, eta), bounds.epsilon_a(q)]
        return [row]
    return Op(f"bounds/{label}", run, ("ops", f"bounds/{label}"))


def _bound_ops() -> list:
    zoo = [
        ("fock1", lambda: states.fock(1, 40), True),
        ("fock3", lambda: states.fock(3, 40), True),
        ("psi13", lambda: states.fock_superposition(1, 3, 40), True),
        ("psi04", lambda: states.fock_superposition(0, 4, 40), True),
        ("mixture", lambda: states.diagonal_mixture([0.5, 0.2, 0.2, 0.1], 40), True),
        ("odd_cat", lambda: states.cat(1.0, -math.pi / 4, 50), False),
        ("even_cat", lambda: states.cat(0.7, math.pi / 4, 50), False),
        ("dephased", lambda: channels.phase_diffusion(
            states.coherent(1.0, 40).density(), 0.4), False),
    ]
    return [_bound_op(*entry) for entry in zoo]


CATALOGUE_CLI = [
    ("measure_dA_fock1", ["measure", "deltaA", "--state", "fock:1"]),
    ("measure_dB_cat", ["measure", "deltaB", "--state", "cat:1.0,0.785"]),
    ("measure_dB_thermal", ["measure", "deltaB", "--state", "thermal:0.5"]),
    ("measure_dA_psi", ["measure", "deltaA", "--state", "psi:2,4", "--log-base", "2"]),
    ("bound_A", ["bound", "A", "--state", "fock:2", "--eta", "0.6"]),
    ("bound_B", ["bound", "B", "--state", "psi:1,3"]),
    ("bound_C", ["bound", "C", "--state", "fock:2", "--eta", "0.7"]),
    ("bound_D", ["bound", "D", "--state", "cat:1.0,-0.785", "--cutoff", "50"]),
    ("bound_E", ["bound", "E", "--state", "cat:1.0,-0.785", "--eta", "0.7",
                 "--cutoff", "50"]),
    ("inspect_cat", ["state", "inspect", "--state", "cat:1.0,0.785"]),
    ("inspect_pnes", ["state", "inspect", "--state", "pnes:tmc:1.0", "--cutoff", "12"]),
    ("sweep_psi", ["sweep", "--family", "psi", "--measure", "deltaB",
                   "--param", "a=1:4:4", "--param", "b=3:5:3"]),
    ("sweep_cat", ["sweep", "--family", "cat", "--measure", "deltaA",
                   "--param", "a=0.5:2.0:4", "--param", "phi=0.785"]),
]


def catalogue(seed: int, refs: References) -> list:
    ops = []
    ops += _figure_ops(1, refs)
    ops += _figure_ops(3, refs)
    ops += _figure_ops(5, refs, _every_other)
    ops += _figure_ops(6, refs, _every_other)
    ops += _figure_ops(7, refs)
    ops += _figure_ops(8, refs)
    ops.append(_fig4_op(seed, refs))
    ops += _bound_ops()
    ops += [_a5_op(seed, d) for d in (5, 8)]
    ops += [_inequality_op(seed, k) for k in range(8)]
    ops += [_cli_op(f"cli/{name}", argv) for name, argv in CATALOGUE_CLI]
    return ops


def wehrl(seed: int, refs: References) -> list:
    # small and large r: the Husimi grid's half-width runs from 6.5 at (1, 0)
    # to 14.2 at (1, 1); (4, 1), at 23.6, would double the pass
    ops = _figure_ops(2, refs, lambda items: [items.index(job) for job in
                                              ((1, 0.0), (4, 0.0), (2, 0.5), (1, 1.0))])
    ops.append(_cli_op("cli/measure_dC_covering",
                       ["measure", "deltaC", "--state", "cat:1.5,0.785",
                        "--grid-auto", "covering"]))
    return ops


def _browne_op(kind: str, variant: str, lam: float) -> Op:
    name = f"{kind}/browne_{variant}_{lam}"
    return Op(name, lambda: [[getattr(infometrics, kind)(distillation.browne_state(variant, lam))]],
              ("ops", name))


def distill(seed: int, refs: References) -> list:
    # B-protocol runs are the median ops: enough of them that the median never
    # falls in the gap between the cheap T-protocol ops and the long ones
    ops = _figure_ops(9, refs, _every_other)
    # variant a at lambda 0.1 and 0.5; the rank-2 variant b runs through the CLI
    ops += _figure_ops(10, refs, lambda items: [i for i, (v, lam) in enumerate(items)
                                                if v == "a" and round(float(lam), 1) in (0.1, 0.5)])
    ops += _figure_ops(11, refs, lambda items: [i for i, (_, r) in enumerate(items)
                                                if round(float(r), 1) in (0.1, 0.5, 1.1)])
    ops.append(_taka_seeded_op(seed))
    ops.append(_cli_op("cli/protocol_browne",
                       ["protocol", "browne", "--variant", "b", "--lam", "0.5",
                        "--steps", "3"]))
    ops.append(_cli_op("cli/protocol_taka",
                       ["protocol", "taka", "--r", "0.8", "--subtracted", "two"]))
    for variant in ("a", "b"):
        ops.append(_browne_op("mutual_information", variant, 0.5))
        ops.append(_browne_op("conditional_entropy", variant, 0.5))
    return ops


# the three calls of tests/test_measures.py::test_ng_of_map, at its energy
# caps, cutoffs and budgets
MAP_SEARCHES = [
    ("loss", lambda: channels.ChannelSpec.loss(0.6), 2.0, 25, 100),
    ("kerr", lambda: channels.ChannelSpec.kerr(0.1), 3.0, 30, 120),
    ("phase_diffusion", lambda: channels.ChannelSpec.phase_diffusion(0.5), 3.0, 30, 120),
]
# loss is Gaussian: every probe stays Gaussian, the objective is zero up to
# rounding and the search path follows that noise, so only the value counts
GAUSSIAN_CHANNELS = ("loss",)


def _map_op(label, spec, cap, cutoff, budget) -> Op:
    def run():
        rep = measures.ng_of_map(spec(), energy_cap=cap, cutoff=cutoff, budget=budget)
        if label in GAUSSIAN_CHANNELS:
            return [[rep.value]]
        return [[rep.value] + [rep.diagnostics[k] for k in sorted(rep.diagnostics)]]
    return Op(f"ng_of_map/{label}", run, ("ops", f"ng_of_map/{label}"))


def map_search(seed: int, refs: References) -> list:
    return [_map_op(*entry) for entry in MAP_SEARCHES]


BUILDERS = {"catalogue": catalogue, "wehrl": wehrl, "distill": distill,
            "map-search": map_search}

# the cheapest op of each kind, for the benchmark's self-test
SMOKE = {
    "catalogue": ("fig1[0]", "fig3[0]", "fig7[0]", "bounds/fock1", "a5_sweep[d=5]",
                  "random_state[0]", "cli/figure4", "cli/measure_dA_fock1"),
    "wehrl": ("fig2[0]",),
    "distill": ("fig9[0]", "fig11[0]", "taka_seeded", "cli/protocol_taka",
                "mutual_information/browne_b_0.5"),
    "map-search": ("ng_of_map/loss",),
}


def build(workload: str, seed: int, refs: References, smoke: bool = False) -> list:
    ops = BUILDERS[workload](seed, refs)
    if smoke:
        ops = [op for op in ops if op.name in SMOKE[workload]]
    return ops


def perturb(refs: References, op: Op, delta: float) -> None:
    """Shift the first numeric reference value of an op (for the self-test)."""
    row = refs.lookup(op.reference)[0]
    k = next(i for i, v in enumerate(row) if not isinstance(v, str))
    row[k] = row[k] + delta


def check(op: Op, rows: list, seed: int, refs: References) -> str | None:
    """None when the op's rows are correct, else the reason they are not."""
    if op.relation is not None and seed != REF_SEED:
        return op.relation(rows)
    try:
        ref = refs.lookup(op.reference)
    except KeyError:
        return "no reference value"
    dev = deviation(rows, ref)
    if dev > TOLERANCE:
        return f"deviation {dev:.3e} from the reference"
    return None
