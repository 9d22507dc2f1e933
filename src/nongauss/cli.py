"""Command-line front end: build states, apply channels, compute measures and
bounds, run the distillation protocols, and emit per-figure CSV datasets.

Exit codes: 0 success, 1 standard output closed by its reader, 2 argument error,
3 numerical-validity error, 4 truncation/resource error.  With --json-errors a
machine-readable error object is printed to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import typing
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import channels, states
from .channels import _OPERATIONS, ChannelSpec, _signature, apply_channel
from .distillation import (b_protocol_run, browne_state, log_negativity,
                           t_protocol_output)
from .errors import ArgumentError, NonGaussError
from .fock import (FockStateVector, MeasureReport, purity, state_from_json,
                   von_neumann_entropy)
from .figures import _parallel_map, build_figure
from .gaussian import moments
from .measures import QuadratureGrid, delta_a, delta_b, delta_c
from .states import PNESSpec, pnes

DEFAULT_CUTOFF = 40


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


# state family -> its constructor in `states`, looked up at each call as apply_channel does
_FAMILIES = {"fock": "fock", "coherent": "coherent", "thermal": "thermal",
             "squeezed": "squeezed_vacuum", "cat": "cat", "psi": "fock_superposition",
             "vacuum": "vacuum", "poisson": "poisson"}
# the CLI supplies the cutoff, and one mode: vacuum(40, 7) would allocate 40^7 amplitudes
_STATE_SUPPLIED = ("cutoff", "modes")

# annotation -> parser of one spec argument; a tuple[int, int] parameter takes two
_PARSERS = {int: int, float: finite_float, complex: _parse_complex}


def _parameters(fn, supplied: tuple) -> list:
    """fn's parameters but those named in `supplied`, in signature order."""
    return [p for p in _signature(fn).parameters.values() if p.name not in supplied]


def _bind(fn, name: str, args: list, supplied: tuple) -> dict:
    """fn's keyword arguments from the spec `name:args`, bound in signature order
    to its parameters but `supplied`: a text argument parsed by the parameter's
    annotation, a number (sweep's) cast to it, which must keep its value."""
    params = _parameters(fn, supplied)
    types = [typing.get_args(p.annotation) or (p.annotation,) for p in params]
    required = sum(p.default is p.empty for p in params)
    counts = [sum(map(len, types[:i])) for i in range(required, len(params) + 1)]
    if len(args) not in counts:
        takes = f"at most {counts[-1]}" if len(args) > counts[-1] else " or ".join(map(str, counts))
        raise ArgumentError(f"{name} takes {takes} argument(s), got {len(args)}")
    kwargs = {}
    for p, ts in zip(params, types):
        if not args:
            break
        given, args = tuple(args[:len(ts)]), args[len(ts):]
        values = tuple(_PARSERS[t](a) if isinstance(a, str) else t(a) for t, a in zip(ts, given))
        if not isinstance(given[0], str) and values != given:
            raise ArgumentError(f"{p.name} = {given[0]!r} is not of type {ts[0].__name__}")
        kwargs[p.name] = values if len(ts) > 1 else values[0]
    return kwargs


def _family_state(name: str, args: list, cutoff: int | None):
    fn = getattr(states, _FAMILIES[name])
    return fn(**_bind(fn, name, args, _STATE_SUPPLIED),
              cutoff=DEFAULT_CUTOFF if cutoff is None else cutoff)


def _browne(variant: str, lam: float, cutoff: int | None):
    """browne_state at `cutoff`, or at browne_state's own default without one."""
    return browne_state(variant, lam) if cutoff is None else browne_state(variant, lam, cutoff)


def parse_state(spec: str, cutoff: int | None):
    """A state from the CLI syntax STATE_SYNTAX, at `cutoff` levels per mode;
    None is browne_state's default for browne and DEFAULT_CUTOFF for the rest."""
    if spec.startswith("@") or spec.endswith(".json"):
        path = Path(spec.lstrip("@"))
        if not path.exists():
            raise ArgumentError(f"state file {path} not found")
        return state_from_json(path.read_text())
    name, _, rest = spec.partition(":")
    try:
        if name in _FAMILIES:
            return _family_state(name, rest.split(",") if rest else [], cutoff)
        if name == "pnes":
            family, _, param = rest.partition(":")
            return pnes(PNESSpec(family, finite_float(param),
                                 DEFAULT_CUTOFF if cutoff is None else cutoff))
        if name == "browne":
            variant, _, lam = rest.partition(":")
            return _browne(variant, finite_float(lam), cutoff)
    except (IndexError, ValueError) as exc:
        raise ArgumentError(f"malformed state spec {spec!r}: {exc}") from None
    raise ArgumentError(f"unknown state family {name!r}")


def parse_channel(spec: str) -> ChannelSpec:
    """A ChannelSpec from the CLI syntax CHANNEL_SYNTAX."""
    name, _, rest = spec.partition(":")
    kind = "phase_diffusion" if name == "phasediff" else name
    if kind not in _OPERATIONS:
        raise ArgumentError(f"unknown channel {name!r}")
    try:
        op = getattr(channels, _OPERATIONS[kind])
        return ChannelSpec(kind, _bind(op, name, rest.split(",") if rest else [], ("state",)))
    except ValueError as exc:
        raise ArgumentError(f"malformed channel spec {spec!r}: {exc}") from None


def _syntax(name: str, fn, supplied: tuple) -> str:
    """name's spec syntax read off fn's signature, as squeeze:R[,PHI=0[,MODE=0]]."""
    text, close = name, ""
    for i, p in enumerate(_parameters(fn, supplied)):
        arg = ("," if i else ":") + p.name.upper()
        arg += "(complex)" if p.annotation is complex else ""
        if p.default is not p.empty:
            arg = f"[{arg}=" + ",".join(f"{v:g}" for v in np.atleast_1d(p.default))
            close += "]"
        text += arg
    return text + close


STATE_SYNTAX = " | ".join(
    [_syntax(name, getattr(states, fn), _STATE_SUPPLIED) for name, fn in _FAMILIES.items()]
    + ["pnes:FAMILY:X (FAMILY twin_beam, tmc, pssv or pasv)", "browne:V:LAM (V a or b)",
       "PATH.json or @PATH of a state JSON"])
CHANNEL_SYNTAX = " | ".join([_syntax(kind, getattr(channels, op), ("state",))
                             for kind, op in _OPERATIONS.items()] + ["phasediff:DELTA"])


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _format_cell(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else "NA" if v is None else str(v)


def _in_log_base(nats: float, args) -> float:
    """An entropy the library computed in nats, in the base --log-base selects."""
    return nats / math.log(2) if args.log_base == "2" else nats


def _csv_text(meta: dict, header: list, rows: list) -> str:
    lines = ["# " + json.dumps(meta, sort_keys=True), ",".join(header)]
    lines += [",".join(_format_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_state(args) -> int:
    state = parse_state(args.state, args.cutoff)
    if args.action == "build":
        _write_text(state.to_json(), args.out)
        return 0
    g = moments(state) if state.modes <= 2 else None
    info = {
        "modes": state.modes,
        "cutoff": state.cutoff,
        "pure": isinstance(state, FockStateVector),
        "purity": purity(state),
        "entropy_nats": von_neumann_entropy(state),
        "mean_photons": state.energy(),
        "leakage": state.leakage,
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
        if args.grid_half_width is None:
            grid = QuadratureGrid.covering(state, args.grid_spacing)
        else:
            grid = QuadratureGrid(args.grid_half_width, args.grid_spacing)
        rep = delta_c(state, grid=grid)
    if args.which != "deltaA":   # delta_A is unitless
        rep = MeasureReport(_in_log_base(rep.value, args), rep.diagnostics)
    print(f"{rep.value:.6f}")
    if args.out:
        Path(args.out).write_text(rep.to_json())
    return 0


def cmd_channel(args) -> int:
    state = parse_state(args.state, args.cutoff)
    _write_text(apply_channel(state, parse_channel(args.channel)).to_json(), args.out)
    return 0


def cmd_browne(args) -> int:
    state = _browne(args.variant, args.lam, args.cutoff)
    budget = None if args.leak_budget == "none" else finite_float(args.leak_budget)
    steps = b_protocol_run(state, args.steps, leak_budget=budget)
    meta = {"protocol": "browne", "variant": args.variant, "lam": args.lam,
            "steps": args.steps, "cutoff": state.cutoff, "leak_budget": budget}
    rows = [list(step.values()) for step in steps]   # keyed in column order
    _write_text(_csv_text(meta, list(steps[0]), rows), args.out)
    return 0


def cmd_taka(args) -> int:
    psi = t_protocol_output(args.r, args.subtracted)
    meta = {"protocol": "taka", "r": args.r, "subtracted": args.subtracted,
            "cutoff": psi.cutoff}
    rows = [[args.r, args.subtracted, _in_log_base(delta_b(psi).value, args),
             log_negativity(psi)]]
    _write_text(_csv_text(meta, ["r", "subtracted", "delta_B", "E_N"], rows), args.out)
    return 0


def cmd_bound(args) -> int:
    which = args.which.upper()
    if which == "A" and args.hist:
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
        value = bounds_mod.epsilon_a(bounds_mod.histogram_to_distribution(rows))
    elif args.state is None:
        raise ArgumentError(f"bound {which} needs --state" + (" or --hist" if which == "A" else ""))
    else:
        data = parse_state(args.state, args.cutoff)
        if which == "A":   # epsilon_A reads the photocount distribution
            data = bounds_mod.detection_statistics(
                data, bounds_mod.PhotodetectionPOVM(args.eta, data.cutoff))
        fn = getattr(bounds_mod, f"epsilon_{which.lower()}")
        value = fn(data, **({"eta": args.eta} if "eta" in _signature(fn).parameters else {}))
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

    def run(values):
        state = _family_state(args.family, values, args.cutoff)
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


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing leaves it as it was, and main fills a
    fresh Namespace on each call."""
    # one parent parser per common option; SUPPRESS keeps a value given before
    # the sub-command from being clobbered by its default after it
    common = {}
    for flag, kwargs in {
        "--cutoff": dict(type=int, help=f"per-mode Fock cutoff (default: {DEFAULT_CUTOFF}; "
                                         "8 for browne specs and protocol browne)"),
        "--log-base": dict(choices=["nat", "2"], help="log base (default: natural) of "
                           "the reported entropies; E_N is always log2"),
        "--seed": dict(type=int, help="random seed"),
        "--threads": dict(type=int, help="worker pool size"),
        "--out": dict(help="output path (default: stdout)"),
        "--config": dict(help="key=value config file; flags win"),
        "--json-errors": dict(action="store_true", help="emit machine-readable errors on stderr"),
    }.items():
        common[flag] = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
        common[flag].add_argument(flag, **kwargs)

    def command(parent, name: str, summary: str, fn, *reads: str) -> argparse.ArgumentParser:
        # a sub-command takes the common options it reads; each reads the last three
        flags = reads + ("--out", "--config", "--json-errors")
        sp = parent.add_parser(name, help=summary, parents=[common[flag] for flag in flags])
        sp.set_defaults(fn=fn)
        return sp

    p = argparse.ArgumentParser(
        prog="nongauss",
        parents=list(common.values()),
        description="Non-Gaussianity measures, channels, protocols and bounds "
                    "for continuous-variable states in truncated Fock space.",
        epilog="Before the sub-command, and as config-file keys, every common option "
               "is accepted; after it, a sub-command takes only those it reads.")

    sub = p.add_subparsers(dest="command", required=True)

    sp = command(sub, "state", "build or inspect a state", cmd_state, "--cutoff")
    sp.add_argument("action", choices=["build", "inspect"])
    sp.add_argument("--state", required=True, help=STATE_SYNTAX)

    sp = command(sub, "measure", "compute deltaA, deltaB or deltaC", cmd_measure,
                 "--cutoff", "--log-base")
    sp.add_argument("which", choices=["deltaA", "deltaB", "deltaC"])
    sp.add_argument("--state", required=True, help=STATE_SYNTAX)
    sp.add_argument("--grid-half-width", type=finite_float, default=None)
    sp.add_argument("--grid-spacing", type=finite_float, default=0.05)
    sp.add_argument("--grid-auto", choices=["covering"],
                    help="grid rule without --grid-half-width (the only one, and the default)")

    sp = command(sub, "channel", "apply a channel to a state", cmd_channel, "--cutoff")
    sp.add_argument("apply", choices=["apply"])
    sp.add_argument("--channel", required=True, help=CHANNEL_SYNTAX)
    sp.add_argument("--state", required=True, help=STATE_SYNTAX)

    sp = command(sub, "protocol", "run a distillation protocol", None)   # each protocol sets fn
    protocols = sp.add_subparsers(dest="which", required=True)
    pp = command(protocols, "browne", "the B protocol on browne:V:LAM", cmd_browne, "--cutoff")
    pp.add_argument("--variant", choices=["a", "b"], default="a")
    pp.add_argument("--lam", type=finite_float, default=0.5)
    pp.add_argument("--steps", type=int, default=10)
    pp.add_argument("--leak-budget", default="none",
                    help="accumulated leakage budget, or 'none'")
    pp = command(protocols, "taka", "the T protocol (photon subtraction)", cmd_taka,
                 "--log-base")
    pp.add_argument("--r", type=finite_float, default=0.8)
    pp.add_argument("--subtracted", choices=["one", "two"], default="one")

    sp = command(sub, "bound", "measurable lower bounds A..E", cmd_bound,
                 "--cutoff", "--log-base")
    sp.add_argument("which", choices=list("ABCDE") + list("abcde"))
    sp.add_argument("--state", default=None, help=STATE_SYNTAX)
    sp.add_argument("--hist", default=None, help="CSV of m,count rows (bound A)")
    sp.add_argument("--eta", type=finite_float, default=1.0)

    sp = command(sub, "figure", "emit a figure dataset as CSV", cmd_figure,
                 "--seed", "--threads")
    sp.add_argument("number", type=int)

    sp = command(sub, "sweep", "generic grid runner over a state family", cmd_sweep,
                 "--cutoff", "--log-base", "--threads")
    sp.add_argument("--family", required=True, choices=list(_FAMILIES))
    sp.add_argument("--measure", choices=["deltaA", "deltaB", "deltaC"],
                    default="deltaB")
    sp.add_argument("--param", action="append", required=True,
                    help="name=value or name=lo:hi:count (repeatable)")
    return p


# no --cutoff: browne specs and protocol browne take browne_state's own default
_GLOBAL_DEFAULTS = {"cutoff": None, "log_base": "nat", "seed": 0, "threads": 1,
                    "out": None, "config": None, "json_errors": False}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv, argparse.Namespace(**_GLOBAL_DEFAULTS))
    try:
        if args.config:
            # the file's settings go first, so flags on the command line win
            args = parser.parse_args(_config_args(args.config) + argv,
                                     argparse.Namespace(**_GLOBAL_DEFAULTS))
        code = args.fn(args)
        sys.stdout.flush()   # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed standard output: point it at os.devnull, so that the flush
        # at interpreter exit has no pipe to fail on (the SIGPIPE note of Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NonGaussError as exc:
        if args.json_errors:
            sys.stderr.write(json.dumps({
                "error": type(exc).__name__, "message": str(exc),
                "exit_code": exc.exit_code}) + "\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
