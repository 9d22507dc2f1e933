import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import nongauss
from nongauss import cli
from nongauss.cli import main, parse_channel, parse_state
from nongauss.distillation import b_protocol_run, browne_state
from nongauss.errors import ArgumentError, TruncationError
from nongauss.fock import DensityMatrix, FockStateVector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_state_spec_parsing():
    assert isinstance(parse_state("fock:2", 20), FockStateVector)
    assert isinstance(parse_state("thermal:0.5", 40), DensityMatrix)
    assert parse_state("pnes:tmc:1.0", 12).modes == 2
    assert parse_state("browne:a:0.5", 8).modes == 2
    with pytest.raises(ArgumentError):
        parse_state("nope:1", 20)
    with pytest.raises(ArgumentError):
        parse_state("fock:x", 20)


def test_channel_spec_parsing():
    assert parse_channel("loss:0.5").kind == "loss"
    assert parse_channel("phasediff:0.2").kind == "phase_diffusion"
    assert parse_channel("squeeze:0.5,0.3").kind == "squeeze"
    with pytest.raises(ArgumentError):
        parse_channel("loss:1.5")


def test_measure_command(capsys):
    code, out, _ = run(capsys, "measure", "deltaB", "--state", "fock:1")
    assert code == 0 and out.strip() == "1.386294"
    code, out, _ = run(capsys, "measure", "deltaA", "--state", "fock:1")
    assert code == 0 and out.strip() == "0.416667"
    code, out, _ = run(capsys, "measure", "deltaB", "--state", "fock:1",
                       "--log-base", "2")
    assert code == 0 and out.strip() == "2.000000"


def test_exit_codes(capsys):
    code, _, err = run(capsys, "measure", "deltaB", "--state", "nope:1")
    assert code == 2
    code, _, err = run(capsys, "--json-errors", "measure", "deltaB",
                       "--state", "thermal:1.0", "--cutoff", "10")
    assert code == 4  # truncation: thermal(1) does not fit in 10 levels
    assert json.loads(err)["exit_code"] == 4
    code, _, err = run(capsys, "measure", "deltaC", "--state", "coherent:2.0",
                       "--grid-half-width", "1.0")
    assert code == 3  # quadrature residual trips the numerical-validity check


def test_state_build_round_trip(tmp_path, capsys):
    out = tmp_path / "state.json"
    code, _, _ = run(capsys, "state", "build", "--state", "cat:1.0,0.785",
                     "--out", str(out))
    assert code == 0
    code, printed, _ = run(capsys, "measure", "deltaB", "--state", str(out))
    assert code == 0 and float(printed) >= 0
    code, printed, _ = run(capsys, "state", "inspect", "--state", str(out))
    info = json.loads(printed)
    assert info["modes"] == 1 and info["pure"] is True


def test_inspect_reads_a_two_mode_vector_without_a_dense_density(capsys):
    # d^2 = 2500 is past the dense cap, which delta_B never needs either
    code, printed, _ = run(capsys, "state", "inspect", "--state", "pnes:tmc:1.0",
                           "--cutoff", "50")
    info = json.loads(printed)
    assert code == 0 and info["modes"] == 2 and info["pure"] is True
    assert info["purity"] == 1.0 and info["entropy_nats"] == 0.0


def test_channel_apply(tmp_path, capsys):
    out = tmp_path / "lossy.json"
    code, _, _ = run(capsys, "channel", "apply", "--channel", "loss:0.6",
                     "--state", "fock:2", "--out", str(out))
    assert code == 0
    rho = DensityMatrix.from_json(out.read_text())
    assert abs(np.real(rho.matrix[2, 2]) - 0.36) < 1e-12


def test_bound_commands(tmp_path, capsys):
    hist = tmp_path / "counts.csv"
    hist.write_text("m,count\n0,70\n1,30\n")
    code, out, _ = run(capsys, "bound", "A", "--hist", str(hist), "--eta", "0.8")
    assert code == 0 and float(out) >= 0
    code, out, _ = run(capsys, "bound", "B", "--state", "psi:1,3")
    assert code == 0 and float(out) > 0
    code, out, _ = run(capsys, "bound", "E", "--state", "cat:1.0,-0.785",
                       "--eta", "0.7", "--cutoff", "50")
    assert code == 0 and float(out) >= 0


def test_protocol_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "protocol", "browne", "--variant", "a",
                     "--lam", "0.5", "--steps", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0][2:]) == {"protocol": "browne", "variant": "a", "lam": 0.5,
                                        "steps": 3, "cutoff": 8, "leak_budget": None}
    assert lines[1] == "step,success_prob,delta_B,E_N,Delta_i,leakage"
    assert len(lines) == 6
    code, out_text, _ = run(capsys, "protocol", "taka", "--r", "0.5",
                            "--subtracted", "one")
    assert code == 0 and "delta_B" in out_text


def _protocol_trace_csv(steps) -> str:
    """The browne CSV body as the removed ``ProtocolTrace.to_csv`` wrote it: the
    reference for protocol browne's lines after its metadata line."""
    buf = io.StringIO()
    buf.write("step,success_prob,delta_B,E_N,Delta_i,leakage\n")
    for row in steps:
        gain = "NA" if row["Delta_i"] is None else f"{row['Delta_i']:.12g}"
        buf.write(f"{row['step']},{row['success_prob']:.12g},"
                  f"{row['delta_B']:.12g},{row['E_N']:.12g},"
                  f"{gain},{row['leakage']:.12g}\n")
    return buf.getvalue()


@pytest.mark.parametrize("variant, lam, steps", [("b", 0.5, 3), ("a", 0.5, 2), ("a", 0.0, 2)],
                         ids=["b-0.5", "a-0.5", "a-0-NA"])
def test_protocol_browne_body_is_the_trace_csv(capsys, variant, lam, steps):
    code, out, _ = run(capsys, "protocol", "browne", "--variant", variant, "--lam", str(lam),
                       "--steps", str(steps))
    meta, body = out.split("\n", 1)
    expect = _protocol_trace_csv(b_protocol_run(browne_state(variant, lam), steps,
                                                leak_budget=None))
    assert code == 0 and meta.startswith("# {") and body == expect
    assert (",NA," in body.splitlines()[-1]) == (lam == 0.0)


def test_one_cutoff_option_sets_browne_cutoffs(capsys):
    for argv, cutoff in [((), 8), (("--cutoff", "6"), 6), (("--cutoff", "12"), 12)]:
        code, printed, _ = run(capsys, "state", "inspect", "--state", "browne:a:0.5", *argv)
        assert code == 0 and json.loads(printed)["cutoff"] == cutoff
    assert parse_state("fock:1", None).cutoff == 40
    assert parse_state("browne:b:0.5", None).cutoff == 8
    code, out, _ = run(capsys, "protocol", "browne", "--cutoff", "6", "--steps", "1")
    lines = out.splitlines()
    assert code == 0 and json.loads(lines[0][2:])["cutoff"] == 6
    assert "\n".join(lines[1:]) + "\n" == _protocol_trace_csv(
        b_protocol_run(browne_state("a", 0.5, 6), 1, leak_budget=None))


@pytest.mark.parametrize("argv", [
    ["protocol", "browne", "--protocol-cutoff", "8"],
    ["protocol", "taka", "--lam", "0.3"],
    ["protocol", "browne", "--r", "2"],
    ["protocol", "taka", "--steps", "2"],
    ["protocol", "browne", "--subtracted", "two"],
], ids=["protocol-cutoff", "taka-lam", "browne-r", "taka-steps", "browne-subtracted"])
def test_a_flag_of_the_other_protocol_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


# each common option a sub-command does not read, given after that sub-command
_UNREAD = {
    "--cutoff": [["protocol", "taka"], ["figure", "3"]],
    "--log-base": [["figure", "3"], ["state", "inspect", "--state", "fock:1"],
                   ["channel", "apply", "--channel", "loss:0.5", "--state", "fock:1"],
                   ["protocol", "browne", "--steps", "1"]],
    "--seed": [["state", "inspect", "--state", "fock:1"],
               ["measure", "deltaB", "--state", "fock:1"],
               ["channel", "apply", "--channel", "loss:0.5", "--state", "fock:1"],
               ["protocol", "browne", "--steps", "1"], ["protocol", "taka"],
               ["bound", "B", "--state", "fock:1"],
               ["sweep", "--family", "fock", "--param", "n=1"]],
    "--threads": [["state", "inspect", "--state", "fock:1"],
                  ["measure", "deltaB", "--state", "fock:1"],
                  ["channel", "apply", "--channel", "loss:0.5", "--state", "fock:1"],
                  ["protocol", "browne", "--steps", "1"], ["protocol", "taka"],
                  ["bound", "B", "--state", "fock:1"]],
}
_VALUES = {"--cutoff": "6", "--log-base": "2", "--seed": "1", "--threads": "2"}
_UNREAD_CASES = [(flag, argv) for flag, cases in _UNREAD.items() for argv in cases]


@pytest.mark.parametrize("flag, argv", _UNREAD_CASES, ids=[
    f"{flag[2:]}-{argv[1] if argv[0] == 'protocol' else argv[0]}" for flag, argv in _UNREAD_CASES])
def test_an_option_the_sub_command_does_not_read_is_a_usage_error(capsys, flag, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, _VALUES[flag]])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err and "Traceback" not in captured.err


def test_a_protocol_takes_no_common_option_before_its_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--cutoff", "6", "browne", "--steps", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--cutoff", "6", "protocol", "taka"],
    ["--cutoff", "6", "figure", "4"],
    ["--log-base", "2", "state", "inspect", "--state", "fock:1"],
    ["--seed", "1", "--threads", "2", "measure", "deltaA", "--state", "fock:1"],
], ids=["cutoff-taka", "cutoff-figure", "log-base-state", "seed-threads-measure"])
def test_the_root_position_takes_every_common_option(tmp_path, capsys, argv):
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "out.txt"))
    assert code == 0 and (tmp_path / "out.txt").stat().st_size > 0


def test_a_second_main_call_sees_none_of_the_first_calls_options(tmp_path, capsys):
    path = tmp_path / "first.json"
    code, out, _ = run(capsys, "measure", "deltaB", "--state", "fock:1", "--log-base", "2",
                       "--out", str(path))
    assert code == 0 and out.strip() == "2.000000"
    first = path.read_text()
    code, out, _ = run(capsys, "measure", "deltaB", "--state", "fock:1")
    assert code == 0 and out.strip() == "1.386294"   # nats: no --log-base 2 carried over
    assert path.read_text() == first                  # and no --out either
    assert cli.build_parser() is cli.build_parser()


def test_threads_calling_main_each_see_their_own_log_base(tmp_path):
    """4 threads, more than the cores, call main at once with different --log-base
    values; a Namespace shared through the one parser would mix their answers."""
    want = {"nat": math.log(4), "2": 2.0}   # delta_B of |1>: h(3/2) = 2 ln 2
    bases = ["nat", "2", "nat", "2"]
    results, errors = {}, []

    def worker(i: int, base: str) -> None:
        try:
            for k in range(5):
                path = tmp_path / f"t{i}-{k}.json"
                code = main(["measure", "deltaB", "--state", "fock:1",
                             "--log-base", base, "--out", str(path)])
                results[i, k] = (code, json.loads(path.read_text())["value"])
        except Exception as exc:   # reported below, with the thread it came from
            errors.append((i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i, b)) for i, b in enumerate(bases)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(results) == 20
    for (i, _), (code, value) in results.items():
        assert code == 0 and abs(value - want[bases[i]]) <= 1e-12, (i, bases[i], value)


def test_figure_csv_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "figure", "7", "--out", str(path), "--seed", "1")
        assert code == 0
    assert a.read_text() == b.read_text()
    lines = a.read_text().splitlines()
    meta = json.loads(lines[0][2:])
    assert meta["figure"] == 7
    assert lines[1].split(",") == ["p", "t", "eta", "delta_A", "delta_B"]
    # grid covers p in {2,4,6,8}
    ps = {row.split(",")[0] for row in lines[2:]}
    assert ps == {"2", "4", "6", "8"}


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "fock", "--measure", "deltaB",
                       "--param", "n=1:3:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n,deltaB"
    vals = [float(r.split(",")[1]) for r in lines[2:]]
    assert len(vals) == 3 and vals[0] < vals[1] < vals[2]


def test_sweep_keeps_param_order(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--family", "psi", "--param", "n=2",
                       "--param", "k=4")
    assert code == 0
    header, row = out.strip().splitlines()[1:]
    assert header == "n,k,deltaB"
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, "measure", "deltaB", "--state", "psi:2,4",
                     "--out", str(path))
    assert code == 0
    assert row.split(",")[2] == f"{json.loads(path.read_text())['value']:.12g}"


def _json_value(out, path):
    obj = json.loads(path.read_text())
    assert out.strip() == f"{obj['value']:.6f}"
    return [obj["value"]], obj.get("diagnostics")


def _csv_column(col):
    def read(out, path):
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        return [float(r[col]) for r in rows], [r[:col] + r[col + 1:] for r in rows]
    return read


_JSON_RTOL = 1e-12
_CSV_RTOL = 1e-11   # CSV cells carry 12 significant digits


@pytest.mark.parametrize("argv, read, rtol", [
    (["measure", "deltaB", "--state", "psi:1,3"], _json_value, _JSON_RTOL),
    (["measure", "deltaC", "--state", "cat:1.0,0.785"], _json_value, _JSON_RTOL),
    *[(["bound", b, "--state", "psi:1,3", "--eta", "0.8"], _json_value, _JSON_RTOL)
      for b in "ABCDE"],
    (["protocol", "taka", "--r", "0.5"], _csv_column(2), _CSV_RTOL),
    (["sweep", "--family", "fock", "--param", "n=1:3:3"], _csv_column(1), _CSV_RTOL),
], ids=["deltaB", "deltaC", "A", "B", "C", "D", "E", "taka", "sweep"])
def test_log_base_converts_every_entropy(tmp_path, capsys, argv, read, rtol):
    """--log-base 2 reports nats / ln 2; everything else is unchanged."""
    results = []
    for base in ("nat", "2"):
        path = tmp_path / f"{base}.json"
        out_opt = ["--out", str(path)] if argv[0] in ("measure", "bound") else []
        code, out, _ = run(capsys, *argv, *out_opt, "--log-base", base)
        assert code == 0
        results.append(read(out, path))
    (nats, rest_nat), (bits, rest_bits) = results
    assert rest_nat == rest_bits
    assert len(nats) == len(bits) and all(v > 0 for v in nats)
    for n, b in zip(nats, bits):
        assert abs(b - n / np.log(2)) <= rtol * b


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "ng.cfg"
    cfg.write_text("# comment\ncutoff=60\nlog_base=nat\n")
    code, out, _ = run(capsys, "--config", str(cfg), "measure", "deltaB",
                       "--state", "thermal:1.0")
    assert code == 0 and abs(float(out)) < 1e-5
    # explicit flag beats the config file
    code, _, _ = run(capsys, "--config", str(cfg), "--cutoff", "10",
                     "measure", "deltaB", "--state", "thermal:1.0")
    assert code == 4


@pytest.mark.parametrize("text", ["log_base=10\n", "cutoff=abc\n",
                                  "tolerance_profile=strict\n", "no_such_key=1\n", None],
                         ids=["log-base", "cutoff", "profile", "unknown-key", "missing-file"])
def test_bad_config_file_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_text(text)
    try:
        code = main(["--config", str(cfg), "measure", "deltaB", "--state", "fock:1"])
    except SystemExit as exc:   # argparse rejects the value as a usage error
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err


def test_grid_spacing_applies_to_the_default_grid(tmp_path, capsys):
    path = tmp_path / "dc.json"
    code, _, _ = run(capsys, "measure", "deltaC", "--state", "fock:1",
                     "--grid-spacing", "0.2", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["diagnostics"]["grid_spacing"] == 0.2


def test_a_coarser_spacing_admits_an_automatic_grid_past_the_side_limit(capsys):
    argv = ["measure", "deltaC", "--state", "fock:700", "--cutoff", "701",
            "--grid-auto", "covering"]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "4159 points per side" in err
    code, out, _ = run(capsys, *argv, "--grid-spacing", "0.2")
    assert code == 0 and out == "2.857790\n"


@pytest.mark.parametrize("argv", [
    ["measure", "deltaB", "--state", "coherent:nan"],
    ["measure", "deltaB", "--state", "squeezed:inf"],
    ["measure", "deltaB", "--state", "{dir}/bad.json"],
    ["measure", "deltaB", "--state", "{dir}/no_cutoff.json"],
    ["bound", "A", "--hist", "{dir}/counts.csv"],
    ["channel", "apply", "--channel", "phasediff:nan", "--state", "fock:1"],
    ["sweep", "--family", "fock", "--param", "n=x"],
    ["sweep", "--family", "fock", "--param", "n=1", "--param", "n=2"],
    ["sweep", "--family", "fock", "--measure", "deltaB", "--param", "n=1:3:0"],
    ["measure", "deltaC", "--state", "fock:1", "--grid-spacing", "0"],
    ["measure", "deltaC", "--state", "fock:1", "--cutoff", "20", "--grid-half-width", "0"],
    ["protocol", "browne", "--steps", "1", "--leak-budget", "x"],
    ["protocol", "browne", "--steps", "1", "--leak-budget", "-1"],
    ["channel", "apply", "--channel", "loss:0.5,0.9", "--state", "fock:1"],
    ["channel", "apply", "--channel", "phasediff:0.2,0.1", "--state", "fock:1"],
    ["channel", "apply", "--channel", "kerr:0.1,1", "--state", "fock:1"],
    ["channel", "apply", "--channel", "displace:0.3,1", "--state", "fock:1"],
    ["channel", "apply", "--channel", "squeeze:0.5,0.3,1", "--state", "fock:1"],
    ["channel", "apply", "--channel", "displace:0.3,1,2", "--state", "fock:1"],
    ["channel", "apply", "--channel", "squeeze:0.5,0.3,1,2", "--state", "fock:1"],
    ["measure", "deltaB", "--state", "fock:1,2"],
    ["measure", "deltaB", "--state", "thermal:0.5,0.1"],
    ["measure", "deltaB", "--state", "coherent:1,5"],
    ["measure", "deltaB", "--state", "squeezed:0.5,0.3,9"],
    ["measure", "deltaA", "--state", "vacuum:7"],
    ["bound", "B"],
    ["bound", "A"],
    ["measure", "deltaC", "--state", "fock:1", "--grid-half-width", "2000"],
    ["measure", "deltaC", "--state", "fock:1", "--grid-spacing", "1e-300"],
    ["measure", "deltaC", "--state", "pnes:tmc:1.0", "--cutoff", "12", "--grid-auto", "covering"],
], ids=["coherent-nan", "squeezed-inf", "json-syntax", "json-no-cutoff",
        "hist-row", "channel-nan", "sweep-param", "sweep-repeated-param",
        "sweep-zero-count", "grid-spacing-0", "grid-half-width-0", "leak-budget",
        "leak-budget-negative",
        "loss-surplus", "phasediff-surplus", "kerr-surplus", "displace-surplus", "squeeze-surplus",
        "displace-true-surplus", "squeeze-true-surplus", "fock-surplus", "thermal-surplus",
        "coherent-surplus", "squeezed-surplus", "vacuum-surplus", "bound-B-no-state",
        "bound-A-no-state", "grid-oversized", "grid-spacing-tiny", "deltaC-two-mode"])
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    (tmp_path / "bad.json").write_text("{bad")
    (tmp_path / "no_cutoff.json").write_text('{"modes": 1, "re": [1.0], "im": [0.0]}')
    (tmp_path / "counts.csv").write_text("m,count\n0,70\nx,3\n")
    code, out, err = run(capsys, *[a.format(dir=tmp_path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("channel, op, kwargs", [
    ("squeeze:0.3,0.2,1", "squeeze", {"r": 0.3, "phi": 0.2}),
    ("displace:0.2+0.1j,1", "displace", {"alpha": 0.2 + 0.1j}),
], ids=["squeeze", "displace"])
@pytest.mark.parametrize("cutoff", [12, 16])
def test_channel_selects_a_mode(capsys, channel, op, kwargs, cutoff):
    # at cutoff 12 squeeze leaks 1.5e-5 past the cutoff, beyond leak_max:
    # the library raises and the CLI exits 4
    from nongauss import channels
    from nongauss.states import PNESSpec, pnes
    code, out, _ = run(capsys, "channel", "apply", "--channel", channel,
                       "--state", "pnes:tmc:1.0", "--cutoff", str(cutoff))
    try:
        expected = getattr(channels, op)(pnes(PNESSpec("tmc", 1.0, cutoff)), **kwargs, mode=1)
    except TruncationError:
        assert code == 4 and out == ""
    else:
        assert code == 0 and out == expected.to_json() + "\n"


def test_help_lists_every_channel_kind_and_state_family(capsys):
    from nongauss import channels, cli
    with pytest.raises(SystemExit) as exc:
        main(["channel", "apply", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for kind in channels._OPERATIONS:
        assert f"{kind}:" in text or f"{kind}[:" in text
    for family in cli._FAMILIES:
        assert family in text


def test_sweep_rejects_a_non_integral_value_for_an_integer_parameter(capsys):
    code, out, err = run(capsys, "sweep", "--family", "fock", "--param", "n=1:2:3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "n = 1.5" in err


def test_closed_standard_output_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(nongauss.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "nongauss.cli", "measure", "deltaB",
                             "--state", "fock:1"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()   # no reader is left when the result is written
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and err == b""


def test_non_finite_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "browne", "--lam", "nan"])
    assert exc.value.code == 2
    assert "invalid finite_float value: 'nan'" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--tolerance-profile", "strict"],
                                    ["--tolerance-profile=strict"]], ids=["spaced", "joined"])
def test_tolerance_profile_is_a_usage_error(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main([*option, "measure", "deltaB", "--state", "fock:1"])
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err


def test_main_leaves_global_state_alone(capsys):
    rng = np.random.get_state()
    for argv, expected in ((["measure", "deltaB", "--state", "fock:1"], 0),
                           (["measure", "deltaB", "--state", "nope:1"], 2)):
        code, _, _ = run(capsys, *argv)
        assert code == expected
    after = np.random.get_state()
    assert after[0] == rng[0] and np.array_equal(after[1], rng[1]) and after[2:] == rng[2:]


def test_poisson_mean_must_be_non_negative(capsys):
    code, out, err = run(capsys, "measure", "deltaB", "--state", "poisson:-1")
    assert code == 2 and out == ""
    assert "mean photon number must be >= 0" in err
    rho = parse_state("poisson:0", 20)
    assert rho.matrix[0, 0] == 1.0 and np.count_nonzero(rho.matrix) == 1


@pytest.mark.parametrize("lam, hint", [(700, 876), (5000, 5457)])
def test_poisson_beyond_the_cutoff_names_the_minimal_cutoff(capsys, lam, hint):
    # hint - 1 is the least k with P(N <= k) >= 1 - tail_tol for N ~ Poisson(lam),
    # from scipy.stats.poisson.cdf
    code, out, err = run(capsys, "measure", "deltaB", "--state", f"poisson:{lam}")
    assert code == 4 and out == ""
    assert f"minimal adequate cutoff is {hint}" in err


def test_poisson_too_large_to_scan_is_a_truncation_error(capsys):
    code, _, err = run(capsys, "measure", "deltaB", "--state", "poisson:1e9")
    assert code == 4 and "beyond 65536 levels" in err


@pytest.mark.parametrize("argv, check", [
    (["measure", "deltaB", "--state", "cat:1.0,0.785"], lambda out: float(out) > 0),
    (["channel", "apply", "--channel", "squeeze:0.4,0.3", "--state", "fock:1", "--cutoff", "40"],
     lambda out: json.loads(out)["cutoff"] == 40),
    (["channel", "apply", "--channel", "displace:0.5", "--state", "fock:1", "--cutoff", "40"],
     lambda out: json.loads(out)["cutoff"] == 40),
], ids=["measure", "squeeze", "displace"])
def test_measure_imports_no_scipy(argv, check):
    # a one-shot CLI process pays for every module it imports; scipy is
    # imported only by the functions that run expm or Nelder-Mead
    env = dict(os.environ, PYTHONPATH=str(Path(nongauss.__file__).resolve().parents[1]))
    code = ("import sys\n"
            "from nongauss import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, loaded = proc.stdout.strip().splitlines()
    assert check(value)
    assert loaded == "[]"
