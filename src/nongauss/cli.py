"""Command-line front end: build states, apply channels, compute measures and
bounds, run the distillation protocols, and emit per-figure CSV datasets.

Exit codes: 0 success, 2 argument error, 3 numerical-validity error,
4 truncation/resource error.  With --json-errors a machine-readable error
object is printed to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import config
from .channels import ChannelSpec, apply_channel
from .distillation import (b_protocol_run, browne_state, log_negativity,
                           t_protocol_output)
from .errors import ArgumentError, NonGaussError, TruncationError
from .fock import (DensityMatrix, FockStateVector, MeasureReport, _log_factorials, as_density,
                   purity, von_neumann_entropy)
from .figures import _parallel_map, build_figure
from .gaussian import moments
from .measures import QuadratureGrid, delta_a, delta_b, delta_c
from .states import (PNESSpec, cat, coherent, diagonal_mixture, fock,
                     fock_superposition, pnes, squeezed_vacuum, thermal, vacuum)

DEFAULT_CUTOFF = 40
_POISSON_SCAN_MAX = 1 << 16  # longest Poisson profile scanned for the tail check


# ---------------------------------------------------------------------------
# state and channel mini-language
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    """A finite real number; NaN and infinities are argument errors."""
    try:
        value = float(text)
    except ValueError:
        raise ArgumentError(f"cannot parse number {text!r}") from None
    if not math.isfinite(value):
        raise ArgumentError(f"number {text!r} is not finite")
    return value


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise ArgumentError(f"cannot parse complex number {text!r}") from None
    if not np.isfinite(value):
        raise ArgumentError(f"complex number {text!r} is not finite")
    return value


def parse_state(spec: str, cutoff: int):
    """fock:N | coherent:A | thermal:N | squeezed:R[,PHI] | cat:A,PHI | psi:N,K |
    vacuum | poisson:LAM | pnes:FAMILY:X | browne:V:LAM | path to a state JSON."""
    if spec.startswith("@") or spec.endswith(".json"):
        path = Path(spec.lstrip("@"))
        if not path.exists():
            raise ArgumentError(f"state file {path} not found")
        return _state_from_json(path.read_text())
    name, _, rest = spec.partition(":")
    args = rest.split(",") if rest else []
    try:
        if name == "vacuum":
            return vacuum(cutoff)
        if name == "fock":
            return fock(int(args[0]), cutoff)
        if name == "coherent":
            return coherent(_parse_complex(args[0]), cutoff)
        if name == "thermal":
            return thermal(finite_float(args[0]), cutoff)
        if name == "squeezed":
            phi = finite_float(args[1]) if len(args) > 1 else 0.0
            return squeezed_vacuum(finite_float(args[0]), cutoff, phi)
        if name == "cat":
            return cat(_parse_complex(args[0]), finite_float(args[1]), cutoff)
        if name == "psi":
            return fock_superposition(int(args[0]), int(args[1]), cutoff)
        if name == "poisson":
            lam = finite_float(args[0])
            if lam < 0:
                raise ArgumentError("mean photon number must be >= 0")
            if lam == 0:
                return vacuum(cutoff).density()
            # scan 12 standard deviations past the mean, so that the tail check
            # and its minimal-cutoff hint see the whole profile, and normalize
            # in log space, where no weight underflows to a 0/0
            levels = max(4 * cutoff, 256, math.ceil(lam + 12 * math.sqrt(lam) + 12))
            if levels > _POISSON_SCAN_MAX:
                raise TruncationError(f"poisson({lam}): the photon-number profile "
                                      f"extends beyond {_POISSON_SCAN_MAX} levels")
            logw = np.arange(levels) * math.log(lam) - _log_factorials(levels)
            w = np.exp(logw - logw.max())
            return diagonal_mixture(w / w.sum(), cutoff)
        if name == "pnes":
            family, _, param = rest.partition(":")
            return pnes(PNESSpec(family, finite_float(param), cutoff))
        if name == "browne":
            variant, _, lam = rest.partition(":")
            return browne_state(variant, finite_float(lam), min(cutoff, 8))
    except (IndexError, ValueError) as exc:
        raise ArgumentError(f"malformed state spec {spec!r}: {exc}") from None
    raise ArgumentError(f"unknown state family {name!r}")


def _state_from_json(text: str):
    try:
        obj = json.loads(text)
        dim = int(obj["cutoff"]) ** int(obj["modes"])
        values = np.asarray([obj["re"], obj["im"]], dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite amplitude")
        if values.shape[1] == dim:
            return FockStateVector.from_json(text)
        if values.shape[1] == dim * dim:
            return DensityMatrix.from_json(text)
    except KeyError as exc:
        raise ArgumentError(f"state JSON lacks the key {exc}") from None
    except (ValueError, TypeError, IndexError) as exc:
        raise ArgumentError(f"malformed state JSON: {exc}") from None
    raise ArgumentError("state JSON length matches neither a vector nor a matrix")


CHANNEL_SYNTAX = ("loss:ETA (0 <= ETA <= 1) | phasediff:DELTA (DELTA >= 0) | kerr:GAMMA "
                  "| displace:ALPHA (complex) | squeeze:R[,PHI] | beamsplit[:THETA[,M0,M1]] "
                  "(THETA defaults to pi/4, modes M0, M1 to 0, 1)")


def parse_channel(spec: str) -> ChannelSpec:
    """A ChannelSpec from the CLI syntax CHANNEL_SYNTAX."""
    name, _, rest = spec.partition(":")
    args = rest.split(",") if rest else []
    most = {"loss": 1, "phasediff": 1, "phase_diffusion": 1, "kerr": 1, "displace": 1,
            "squeeze": 2, "beamsplit": 3}   # arguments each channel takes at most
    if name not in most:
        raise ArgumentError(f"unknown channel {name!r}")
    if len(args) > most[name]:
        raise ArgumentError(f"malformed channel spec {spec!r}: {name} takes at most "
                            f"{most[name]} argument(s), got {len(args)}")
    try:
        if name == "loss":
            return ChannelSpec.loss(finite_float(args[0]))
        if name in ("phasediff", "phase_diffusion"):
            return ChannelSpec.phase_diffusion(finite_float(args[0]))
        if name == "kerr":
            return ChannelSpec.kerr(finite_float(args[0]))
        if name == "displace":
            return ChannelSpec("displace", {"alpha": _parse_complex(args[0])})
        if name == "squeeze":
            phi = finite_float(args[1]) if len(args) > 1 else 0.0
            return ChannelSpec("squeeze", {"r": finite_float(args[0]), "phi": phi})
        theta = finite_float(args[0]) if args else math.pi / 4
        modes = tuple(int(a) for a in args[1:]) or (0, 1)
        return ChannelSpec("beamsplit", {"theta": theta, "modes": modes})
    except (IndexError, ValueError) as exc:
        raise ArgumentError(f"malformed channel spec {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _format_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _in_log_base(nats: float, args) -> float:
    """An entropy the library computed in nats, in the base --log-base selects."""
    return nats / math.log(2) if args.log_base == "2" else nats


def _csv_text(meta: dict, header: list, rows: list) -> str:
    lines = ["# " + json.dumps(meta, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_state(args) -> int:
    state = parse_state(args.state, args.cutoff)
    if args.action == "build":
        _write_text(state.to_json(), args.out)
        return 0
    dm = as_density(state)
    g = moments(state) if state.modes <= 2 else None
    info = {
        "modes": state.modes,
        "cutoff": state.cutoff,
        "pure": isinstance(state, FockStateVector),
        "purity": purity(dm),
        "entropy_nats": von_neumann_entropy(dm),
        "mean_photons": dm.energy(),
        "leakage": dm.leakage,
    }
    if g is not None:
        info["X"] = g.X.tolist()
        info["sigma"] = g.sigma.tolist()
    _write_text(json.dumps(info, indent=2), args.out)
    return 0


def cmd_measure(args) -> int:
    state = parse_state(args.state, args.cutoff)
    if args.which == "deltaA":
        rep = delta_a(state)
    elif args.which == "deltaB":
        rep = delta_b(state)
    else:
        if args.grid_half_width:
            grid = QuadratureGrid(args.grid_half_width)
        elif args.grid_auto == "covering":
            grid = QuadratureGrid.covering(state)
        else:
            grid = QuadratureGrid.for_state(state)
        rep = delta_c(state, grid=dataclasses.replace(grid, spacing=args.grid_spacing))
    if args.which != "deltaA":   # delta_A is unitless
        rep = MeasureReport(_in_log_base(rep.value, args), rep.diagnostics)
    print(f"{rep.value:.6f}")
    if args.out:
        Path(args.out).write_text(rep.to_json())
    return 0


def cmd_channel(args) -> int:
    state = parse_state(args.state, args.cutoff)
    spec = parse_channel(args.channel)
    out_state = apply_channel(state, spec)
    _write_text(out_state.to_json(), args.out)
    return 0


def cmd_protocol(args) -> int:
    if args.which == "browne":
        state = browne_state(args.variant, args.lam, args.protocol_cutoff)
        budget = None if args.leak_budget in (None, "none") else finite_float(args.leak_budget)
        trace = b_protocol_run(state, args.steps, leak_budget=budget)
        _write_text(trace.to_csv(), args.out)
        return 0
    psi = t_protocol_output(args.r, args.subtracted)
    meta = {"protocol": "taka", "r": args.r, "subtracted": args.subtracted,
            "cutoff": psi.cutoff}
    rows = [[args.r, args.subtracted, _in_log_base(delta_b(psi).value, args),
             log_negativity(psi)]]
    _write_text(_csv_text(meta, ["r", "subtracted", "delta_B", "E_N"], rows), args.out)
    return 0


def cmd_bound(args) -> int:
    which = args.which.upper()
    if which == "A":
        if args.hist:
            rows = []
            for line in Path(args.hist).read_text().splitlines():
                line = line.strip()
                if not line or line.startswith("#") or line.lower().startswith("m,"):
                    continue
                try:
                    m, c = line.split(",")
                    rows.append((int(m), finite_float(c)))
                except ValueError:
                    raise ArgumentError(f"malformed histogram row {line!r}") from None
            q = bounds_mod.histogram_to_distribution(rows)
        else:
            state = parse_state(args.state, args.cutoff)
            povm = bounds_mod.PhotodetectionPOVM(args.eta, state.cutoff)
            q = bounds_mod.detection_statistics(state, povm)
        value = bounds_mod.epsilon_a(q)
    else:
        state = parse_state(args.state, args.cutoff)
        if which == "B":
            value = bounds_mod.epsilon_b(state)
        elif which == "C":
            value = bounds_mod.epsilon_c(state, args.eta)
        elif which == "D":
            value = bounds_mod.epsilon_d(state)
        elif which == "E":
            value = bounds_mod.epsilon_e(state, args.eta)
        else:
            raise ArgumentError(f"unknown bound {args.which!r}; choose A..E")
    value = _in_log_base(value, args)
    print(f"{value:.6f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"bound": which, "value": value}))
    return 0


def cmd_figure(args) -> int:
    meta, header, rows = build_figure(args.number, seed=args.seed, threads=args.threads)
    _write_text(_csv_text(meta, header, rows), args.out)
    return 0


def _parse_param(text: str):
    name, _, value = text.partition("=")
    if not value:
        raise ArgumentError(f"malformed --param {text!r}; use name=value or name=lo:hi:count")
    try:
        if ":" not in value:
            return name, [finite_float(value)]
        lo, hi, count = value.split(":")
        lo, hi, count = finite_float(lo), finite_float(hi), int(count)
    except ValueError:
        raise ArgumentError(f"malformed --param {text!r}") from None
    if count < 1:
        raise ArgumentError(f"--param {text!r}: a range needs count >= 1")
    return name, np.linspace(lo, hi, count)


def cmd_sweep(args) -> int:
    """Generic grid runner: a state family, swept parameters, one measure."""
    # the spec takes the values in the order the --param flags are given
    params = dict(_parse_param(p) for p in args.param)
    if len(params) < len(args.param):
        raise ArgumentError("each --param name may be given only once")
    names = list(params)
    mesh = [[]]
    for name in names:
        mesh = [m + [float(v)] for m in mesh for v in params[name]]

    def spec_for(values):
        if args.family in ("fock", "psi"):
            parts = [str(int(v)) for v in values]
        else:
            parts = [f"{v!r}".strip("'") for v in values]
        return args.family + ":" + ",".join(parts)

    def run(values):
        state = parse_state(spec_for(values), args.cutoff)
        if args.measure == "deltaA":
            return delta_a(state).value
        if args.measure == "deltaB":
            return _in_log_base(delta_b(state).value, args)
        return _in_log_base(delta_c(state).value, args)

    results = _parallel_map(run, mesh, args.threads)
    rows = [values + [val] for values, val in zip(mesh, results)]
    meta = {"family": args.family, "measure": args.measure, "seed": args.seed,
            "grid": {n: [float(v) for v in params[n]] for n in names}}
    _write_text(_csv_text(meta, names + [args.measure], rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def _config_args(path: str) -> list[str]:
    """The key=value lines of a config file as leading --key=value arguments."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ArgumentError(f"cannot read config file {path}: {exc.strerror}") from None
    args = []
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            args.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return args


def _common_options() -> argparse.ArgumentParser:
    # accepted both before and after the subcommand; SUPPRESS keeps a value
    # set at one position from being clobbered by the other's default
    c = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    c.add_argument("--cutoff", type=int, help="per-mode Fock cutoff")
    c.add_argument("--tolerance-profile", choices=sorted(config.PROFILES),
                   help="numerical tolerance profile")
    c.add_argument("--log-base", choices=["nat", "2"],
                   help="log base (default: natural) of the entropies reported by "
                        "measure deltaB/deltaC, bound, sweep deltaB/deltaC and "
                        "protocol taka's delta_B; protocol browne and figure "
                        "report nats, and E_N is always log2")
    c.add_argument("--seed", type=int, help="random seed")
    c.add_argument("--out", help="output path (default: stdout)")
    c.add_argument("--threads", type=int, help="worker pool size")
    c.add_argument("--config", help="key=value config file; flags win")
    c.add_argument("--json-errors", action="store_true",
                   help="emit machine-readable errors on stderr")
    return c


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    p = argparse.ArgumentParser(
        prog="nongauss",
        parents=[common],
        description="Non-Gaussianity measures, channels, protocols and bounds "
                    "for continuous-variable states in truncated Fock space.")

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("state", help="build or inspect a state", parents=[common])
    sp.add_argument("action", choices=["build", "inspect"])
    sp.add_argument("--state", required=True)
    sp.set_defaults(fn=cmd_state)

    sp = sub.add_parser("measure", help="compute deltaA, deltaB or deltaC", parents=[common])
    sp.add_argument("which", choices=["deltaA", "deltaB", "deltaC"])
    sp.add_argument("--state", required=True)
    sp.add_argument("--grid-half-width", type=finite_float, default=None)
    sp.add_argument("--grid-spacing", type=finite_float, default=0.05)
    sp.add_argument("--grid-auto", choices=["default", "covering"], default="default")
    sp.set_defaults(fn=cmd_measure)

    sp = sub.add_parser("channel", help="apply a channel to a state", parents=[common])
    sp.add_argument("apply", choices=["apply"])
    sp.add_argument("--channel", required=True, help=CHANNEL_SYNTAX)
    sp.add_argument("--state", required=True)
    sp.set_defaults(fn=cmd_channel)

    sp = sub.add_parser("protocol", help="run a distillation protocol", parents=[common])
    sp.add_argument("which", choices=["browne", "taka"])
    sp.add_argument("--variant", choices=["a", "b"], default="a")
    sp.add_argument("--lam", type=finite_float, default=0.5)
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--protocol-cutoff", type=int, default=8)
    sp.add_argument("--leak-budget", default="none",
                    help="accumulated leakage budget, or 'none'")
    sp.add_argument("--r", type=finite_float, default=0.8)
    sp.add_argument("--subtracted", choices=["one", "two"], default="one")
    sp.set_defaults(fn=cmd_protocol)

    sp = sub.add_parser("bound", help="measurable lower bounds A..E", parents=[common])
    sp.add_argument("which", choices=list("ABCDE") + list("abcde"))
    sp.add_argument("--state", default=None)
    sp.add_argument("--hist", default=None, help="CSV of m,count rows (bound A)")
    sp.add_argument("--eta", type=finite_float, default=1.0)
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("figure", help="emit a figure dataset as CSV", parents=[common])
    sp.add_argument("number", type=int)
    sp.set_defaults(fn=cmd_figure)

    sp = sub.add_parser("sweep", help="generic grid runner over a state family", parents=[common])
    sp.add_argument("--family", required=True)
    sp.add_argument("--measure", choices=["deltaA", "deltaB", "deltaC"],
                    default="deltaB")
    sp.add_argument("--param", action="append", required=True,
                    help="name=value or name=lo:hi:count (repeatable)")
    sp.set_defaults(fn=cmd_sweep)
    return p


_GLOBAL_DEFAULTS = {"cutoff": DEFAULT_CUTOFF, "log_base": "nat", "seed": 0,
                    "threads": 1, "tolerance_profile": "default", "out": None,
                    "json_errors": False}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's settings go first, so flags on the command line win
            args = parser.parse_args(_config_args(args.config) + argv)
        for key, default in _GLOBAL_DEFAULTS.items():
            if not hasattr(args, key):
                setattr(args, key, default)
        with config.using(args.tolerance_profile):   # the profile is scoped to this run
            return args.fn(args)
    except NonGaussError as exc:
        if getattr(args, "json_errors", False):
            sys.stderr.write(json.dumps({
                "error": type(exc).__name__, "message": str(exc),
                "exit_code": exc.exit_code}) + "\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
