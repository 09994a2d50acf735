import contextlib
import dataclasses
import io
import json
import math
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_config
import ddgrape
from ddgrape import cli, harness
from ddgrape.cli import main
from ddgrape.discord import save_state
from ddgrape.grape import FidelityReport
from ddgrape.harness import ExperimentConfig, _pulse_path, worker_count
from ddgrape.nmr import load_pulse


@pytest.fixture(scope="module")
def toy_workspace(toy_gates):
    """Config file for the session's toy gates; its optimize run loads them
    from the pulse cache."""
    cfg, _ = toy_gates
    path = Path(cfg.output_dir).parent / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["optimize", "--config", str(path), "--quiet"]) == 0
    return cfg, path


MIXED = np.eye(4, dtype=complex) / 4
BELL = np.zeros((4, 4), dtype=complex)
BELL[::3, ::3] = 0.5


def test_discord_command_bell_state(tmp_path, capsys):
    path = tmp_path / "bell.txt"
    save_state(path, BELL)
    assert main(["discord", "--state", str(path)]) == 0
    out = capsys.readouterr().out
    assert "discord=1.000000" in out
    assert "mutual_information=2.000000" in out


def test_discord_command_epsilon_scaling(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    save_state(path, MIXED)
    assert main(["discord", "--state", str(path), "--epsilon", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "discord=0.000000" in out
    assert "scaled_discord=0.000000" in out


def test_optimize_writes_gates_csv_and_manifest(toy_workspace):
    cfg, _ = toy_workspace
    out = cfg.output_dir
    lines = (np.loadtxt(f"{out}/gates.csv", dtype=str, delimiter=",")).tolist()
    assert lines[0] == ["scheme", "target", "mean_fidelity", "warning"]
    assert len(lines) == 1 + 2 * len(cfg.schemes)
    manifest = json.loads(open(f"{out}/run_manifest.json").read())
    assert manifest["seed"] == cfg.seed
    assert manifest["versions"] == {
        "ddgrape": ddgrape.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }
    assert manifest["workers"] == worker_count() >= 1


def test_the_manifest_records_the_resolved_worker_count(toy_workspace, monkeypatch):
    cfg, config_path = toy_workspace
    for env in ("1", "3", "0"):
        monkeypatch.setenv("DDGRAPE_THREADS", env)
        assert main(["optimize", "--config", str(config_path), "--quiet"]) == 0
        manifest = json.loads(Path(cfg.output_dir, "run_manifest.json").read_text())
        assert manifest["workers"] == (int(env) or worker_count())


def test_simulate_writes_trajectory(toy_workspace, capsys):
    cfg, config_path = toy_workspace
    assert main(["simulate", "--config", str(config_path), "--scheme", "none"]) == 0
    assert "wrote" in capsys.readouterr().out
    rows = open(f"{cfg.output_dir}/trajectory__none__none.csv").read().strip().splitlines()
    assert rows[0] == "stage,marked_prob,discord_bits,scaled_discord"
    assert len(rows) == 1 + 2 + 2 * cfg.iterations
    assert rows[1].startswith("PPS,")
    assert rows[2].startswith("H,")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["optimize"], "the following arguments are required: --config"),
        (["sweep", "--quiet", "--config", "c.json"], "unrecognized arguments: --quiet"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["discord", "--state", "s.txt", "--epsilon", "abc"], "invalid float value: 'abc'"),
        ([], "{optimize,simulate,discord,sweep,analyze}"),
        (["simulate", "--config", "c.json", "--scheme", "none", "--noise", "bogus"], "invalid choice: 'bogus'"),
    ],
)
def test_usage_error_exits_1_with_usage_and_no_traceback(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: ddgrape")
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: ddgrape")
    assert captured.err == ""


def test_sweep_command(toy_workspace, capsys):
    cfg, config_path = toy_workspace
    assert main(["sweep", "--config", str(config_path)]) == 0
    capsys.readouterr()
    rows = open(f"{cfg.output_dir}/sweep.csv").read().strip().splitlines()
    assert rows[0] == "scheme,error_kind,mean_fidelity,mean_fidelity_incoherent"
    assert len(rows) == 1 + 2 * len(cfg.schemes)


def test_analyze_command(toy_workspace, capsys):
    cfg, config_path = toy_workspace
    assert main(["analyze", "--config", str(config_path), "--noise", "incoherence"]) == 0
    capsys.readouterr()
    rows = open(f"{cfg.output_dir}/rms__incoherence.csv").read().strip().splitlines()
    assert rows[0] == "scheme,rms_discord,rms_prob,incoherence"
    assert len(rows) == 1 + len(cfg.schemes)
    for row in rows[1:]:
        assert row.endswith(",1")


FLOAT_COLUMNS = {
    "mean_fidelity", "marked_prob", "discord_bits", "scaled_discord",
    "mean_fidelity_incoherent", "rms_discord", "rms_prob",
}
FLAG_COLUMNS = {"warning", "incoherence"}


@pytest.mark.parametrize(
    "command, name",
    [
        (["optimize", "--quiet"], "gates.csv"),
        (["simulate", "--scheme", "xy:90:20", "--noise", "incoherence"], "trajectory__xy-90-20__incoherence.csv"),
        (["sweep"], "sweep.csv"),
        (["analyze", "--no-normalize"], "rms__none.csv"),
    ],
    ids=["optimize", "simulate", "sweep", "analyze"],
)
def test_config_command_tables_round_trip(toy_workspace, capsys, command, name):
    # Every float reads back exactly, flags are 0 or 1, and every command but
    # optimize announces its one file.
    cfg, config_path = toy_workspace
    assert main([*command, "--config", str(config_path)]) == 0
    path = Path(cfg.output_dir) / name
    assert capsys.readouterr().out == ("" if command[0] == "optimize" else f"wrote {path}\n")
    header, *rows = path.read_text().splitlines()
    assert rows
    for row in rows:
        for column, cell in zip(header.split(","), row.split(","), strict=True):
            if column in FLOAT_COLUMNS:
                assert repr(float(cell)) == cell
            elif column in FLAG_COLUMNS:
                assert cell in ("0", "1")


def test_simulate_rerun_is_byte_identical(toy_workspace):
    cfg, config_path = toy_workspace
    path = f"{cfg.output_dir}/trajectory__none__none.csv"
    assert main(["simulate", "--config", str(config_path), "--scheme", "none"]) == 0
    first = open(path, "rb").read()
    assert main(["simulate", "--config", str(config_path), "--scheme", "none"]) == 0
    assert open(path, "rb").read() == first


@pytest.fixture(scope="module")
def cached_gates_copy(toy_workspace, tmp_path_factory):
    """Factory: a copy of the toy gate cache under a one-iteration config,
    with the config file and the path of its none/U_W pulse."""
    cfg, _ = toy_workspace

    def make():
        root = tmp_path_factory.mktemp("cached")
        shutil.copytree(Path(cfg.output_dir) / "pulses", root / "pulses")
        config = dataclasses.replace(cfg, output_dir=str(root), iterations=1)
        path = root / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        return path, _pulse_path(config, "none", "uw")

    return make


def _assert_rejected(capsys, argv, root, words):
    """main exits 2 on argv with empty stdout, one stderr line that starts
    with "error:" and holds every word, and every file under root unchanged.
    Every input the CLI must reject goes through this one check."""
    before = _files(root)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error:") and all(word in line for word in words), line
    assert _files(root) == before


def _files(root):
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.filterwarnings("error")
def test_missing_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    _assert_rejected(capsys, ["sweep", "--config", str(path)], tmp_path, [str(path)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("content", [b'{"seed": ', b'\xff\xfe{"seed": 1}'], ids=["truncated", "undecodable"])
def test_an_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    _assert_rejected(capsys, ["sweep", "--config", str(path)], tmp_path, [str(path)])


@pytest.mark.filterwarnings("error")
def test_a_config_nested_too_deeply_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"schemes": ' + b"[" * 100000 + b"]" * 100000 + b"}")
    _assert_rejected(capsys, ["sweep", "--config", str(path)], tmp_path, [str(path)])


# id: (command, workspace, change, words). The workspace is "toy" (the toy
# config), "defaults" (the default config) or "cache" (cached_gates_copy), each
# with `change` merged into it and its output_dir under a fresh directory. The
# one stderr line must hold every word. A new config rule is one row here.
REJECTED_CONFIGS = {
    "unknown-key": (["sweep"], "defaults", {"bogus_key": 1}, ["'bogus_key'"]),
    "missing-system-key": (["sweep"], "defaults", {"system": {"offset1": 1.0}}, ["'offset2'"]),
    "int-beyond-float": (["sweep"], "defaults", {"dt": 10**400}, ["'dt'"]),
    "system-int-beyond-float": (
        ["sweep"],
        "defaults",
        {"system": {"offset1": 10**400, "offset2": 0.0, "coupling": 0.0}},
        ["'system.offset1'"],
    ),
    "bad-scheme": (["sweep"], "defaults", {"schemes": ["none", "xy:abc:10"]}, ["'schemes'", "xy:abc:10"]),
    "sweep-fidelity_goal": (["sweep"], "defaults", {"fidelity_goal": 1.5}, ["'fidelity_goal'"]),
    "repeated-scheme": (
        ["optimize", "--quiet"],
        "toy",
        {"schemes": ["none", "xy:90:20", "xy:90.0:20"]},
        ["'schemes'", "'xy:90.0:20'"],
    ),
    "empty-flip-grid": (["sweep"], "toy", {"flip_scales": []}, ["'flip_scales'"]),
    "nan-flip-scale": (["sweep"], "toy", {"flip_scales": [math.nan]}, ["'flip_scales'"]),
    "simulate-epsilon": (["simulate", "--scheme", "none"], "toy", {"epsilon": 1.5}, ["'epsilon'"]),
    "simulate-epsilon-0": (["simulate", "--scheme", "none"], "toy", {"epsilon": 0}, ["'epsilon'"]),
    # Below 1e-6 the scaled discord D ln2 / epsilon^2 is mostly rounding.
    "simulate-epsilon-1e-7": (["simulate", "--scheme", "none"], "toy", {"epsilon": 1e-7}, ["'epsilon'", "1e-6"]),
    "optimize-dd-pulse-above-omega_max": (["optimize"], "toy", {"dt": 1e-6}, ["'dt'"]),
    "optimize-max_iterations": (["optimize"], "toy", {"max_iterations": -3}, ["'max_iterations'"]),
    "optimize-seed": (["optimize"], "toy", {"seed": -1}, ["'seed'"]),
    "simulate-unknown-scheme": (["simulate", "--scheme", "xy:90:10"], "toy", {}, ["'xy:90:10'"]),
    # On a cache hit nothing is optimized, so the config check alone stops these.
    **{
        f"optimize-cached-{key}": (["optimize"], "cache", {key: value}, [repr(key)])
        for key, value in [("fidelity_goal", 1.5), ("amplitude_fraction", 2.0), ("marked", 7)]
    },
    # A cached pulse built for another dt, segment count or omega_max is
    # refused, not rebuilt over.
    **{
        f"simulate-cached-pulses-for-another-{key}": (
            ["simulate", "--scheme", "none"],
            "cache",
            {key: value},
            ["none__uw__seed11.txt", "move it away"],
        )
        for key, value in [("dt", 5.0e-6), ("n_segments_per_gate", 80), ("omega_max", 2 * math.pi * 2e5)]
    },
    # Each value passes alone, but a gate's segments may rotate by more than
    # UNITARITY_TOL / eps = 4.5e5 rad in all: the bound is infinite for the
    # overflows and 3.2e20 rad a segment at scale 1e20. With the desk's 1470
    # segments, 96 is the first whole flip scale rejected (308 rad a segment
    # against 306). Without the rule, a sweep at flip scale 1e20 would pass
    # check_unitary, and at rf scale 1e20 numpy's overflow warnings would
    # reach stderr ahead of the error line.
    **{
        f"{command}-cached-{name}": ([command], "cache", change, [repr(next(iter(change)))])
        for command in ["optimize", "sweep"]
        for name, change in [
            ("system-overflow", {"system": {"offset1": 1e308, "offset2": -1e308, "coupling": 70.0}}),
            ("incoherence_range-overflow", {"incoherence_range": [0.0, 1e308]}),
            ("rfi_scales-overflow", {"rfi_scales": [1e308]}),
            ("rfi_scales-1e20", {"rfi_scales": [1e20]}),
            ("flip_scales-overflow", {"flip_scales": [1.0, 1e308]}),
            ("flip_scales-1e20", {"flip_scales": [1e20]}),
            ("flip_scales-96-at-1470-segments", {"flip_scales": [96.0], "n_segments_per_gate": 1470}),
        ]
    },
    # The width hi - lo would overflow inside np.linspace.
    "incoherence_range-width-overflow": (
        ["sweep"],
        "defaults",
        {"incoherence_range": [-1e308, 1e308]},
        ["'incoherence_range'"],
    ),
    # 10**15 float64 values are 7.1 PiB, which numpy refuses to allocate at once.
    **{
        f"{key}-beyond-memory": (["sweep"], "defaults", {key: 10**15}, [repr(key), "allocate"])
        for key in ["n_segments_per_gate", "incoherence_points"]
    },
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, workspace, change, words", REJECTED_CONFIGS.values(), ids=list(REJECTED_CONFIGS))
def test_a_rejected_config_exits_2(request, tmp_path, capsys, command, workspace, change, words):
    path = tmp_path / "config.json"
    if workspace == "cache":
        path, _ = request.getfixturevalue("cached_gates_copy")()
        config = json.loads(path.read_text())
    elif workspace == "toy":
        config = toy_config(tmp_path / "out").to_dict()
    elif workspace == "defaults":
        config = {"output_dir": str(tmp_path / "out")}
    path.write_text(json.dumps(config | change))
    _assert_rejected(capsys, [*command, "--config", str(path)], path.parent, words)


def _write(data):
    return lambda path: path.write_bytes(data)


def _save(rho):
    return lambda path: save_state(path, rho)


# id: (write, options, words). write(path) makes the state file that
# `discord --state path *options` reads; the stderr line must hold every
# word, with {path} standing for the file.
REJECTED_STATES = {
    "16-entries": (_write(b"1 2 3\n"), [], ["16 entries", "{path}"]),
    "unparsable": (_write(b"1 2 3 x\n"), [], ["{path}"]),
    "undecodable": (_write(b"\xff\xfe1 0 0 0\n"), [], ["{path}"]),
    "trace-2": (_save(np.diag([2.0, 0.0, 0.0, 0.0])), [], ["trace", "{path}"]),
    "not-hermitian": (_save(np.diag([1.0, 0.0, 0.0, 0.0]) + np.eye(4, k=1) * 0.1), [], ["Hermitian", "{path}"]),
    "negative-eigenvalue": (_save(np.diag([1.5, -0.5, 0.0, 0.0])), [], ["eigenvalue", "{path}"]),
    "non-finite": (_save(np.diag([math.nan, 1.0, 0.0, 0.0])), [], ["non-finite", "{path}"]),
    "missing": (lambda path: None, [], ["[Errno 2]", "{path}"]),
    "directory": (Path.mkdir, [], ["[Errno 21]", "{path}"]),
    # discord.quantum_discord holds the epsilon rule. argparse reads
    # "--epsilon -1e-3" as a missing value (exit 1), so that row uses "=".
    **{f"epsilon-{e}": (_save(MIXED), ["--epsilon", e], ["epsilon"]) for e in ["1.5", "0", "-1", "nan", "inf"]},
    "epsilon=-1e-3": (_save(MIXED), ["--epsilon=-1e-3"], ["epsilon"]),
    # D ln2 / epsilon^2 with D = 1 is mostly rounding at 1e-7; without the
    # 1e-6 floor, epsilon^2 would underflow to 0 at 1e-300, and to a
    # subnormal that overflows the quotient at 1e-160.
    "epsilon-1e-7": (_save(BELL), ["--epsilon", "1e-7"], ["epsilon", "1e-6"]),
    **{f"epsilon-{e}": (_save(BELL), ["--epsilon", e], ["epsilon"]) for e in ["1e-300", "1e-160"]},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("write, options, words", REJECTED_STATES.values(), ids=list(REJECTED_STATES))
def test_a_rejected_state_exits_2(tmp_path, capsys, write, options, words):
    path = tmp_path / "state.txt"
    write(path)
    words = [word.format(path=path) for word in words]
    _assert_rejected(capsys, ["discord", "--state", str(path), *options], tmp_path, words)


# id: (column, token, words). The token replaces that column of a row of the
# cached none/U_W pulse; simulate must refuse the file, naming it and every word.
REJECTED_PULSE_EDITS = {
    **{f"amplitude-{value}": (1, value, []) for value in ["1e300", "nan", "inf"]},
    "unprotected-frozen-segment": (3, "1", ["'none'"]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("column, token, words", REJECTED_PULSE_EDITS.values(), ids=list(REJECTED_PULSE_EDITS))
def test_a_rejected_cached_pulse_exits_2(cached_gates_copy, capsys, column, token, words):
    config_path, pulse_path = cached_gates_copy()
    pulse_path.write_text(_edit_lines(pulse_path.read_text().splitlines(), [(5, column, token)]))
    argv = ["simulate", "--config", str(config_path), "--scheme", "none"]
    _assert_rejected(capsys, argv, config_path.parent, [str(pulse_path), *words])


@pytest.mark.filterwarnings("error")
def test_sweep_with_a_bad_thread_count_exits_2(cached_gates_copy, capsys, monkeypatch):
    config_path, _ = cached_gates_copy()
    monkeypatch.setenv("DDGRAPE_THREADS", "-1")
    _assert_rejected(capsys, ["sweep", "--config", str(config_path)], config_path.parent, ["DDGRAPE_THREADS"])


@pytest.mark.filterwarnings("error")
def test_sweep_with_a_propagator_that_is_not_unitary_exits_2(cached_gates_copy, capsys, monkeypatch):
    config_path, _ = cached_gates_copy()
    propagator = harness.sequence_propagator
    monkeypatch.setattr(harness, "sequence_propagator", lambda *args: 1.001 * propagator(*args))
    argv = ["sweep", "--config", str(config_path)]
    _assert_rejected(capsys, argv, config_path.parent, ["NoiseRealization(", "not unitary"])


def test_gates_csv_flags_every_gate_of_a_scheme_whose_lower_fidelity_misses_the_goal(toy_gates, cached_gates_copy):
    _, gates = toy_gates
    lowest = {s: min(g.report_w.fidelity, g.report_d.fidelity) for s, g in gates.items()}
    failing = min(lowest, key=lowest.get)
    goal = sum(lowest.values()) / 2
    assert min(lowest.values()) < goal < max(lowest.values())
    config_path, _ = cached_gates_copy()
    config = json.loads(config_path.read_text())
    config["fidelity_goal"] = goal
    config_path.write_text(json.dumps(config))
    assert main(["optimize", "--config", str(config_path), "--quiet"]) == 0
    rows = [line.split(",") for line in (config_path.parent / "gates.csv").read_text().splitlines()[1:]]
    flags = {(s, t): w for s, t, _, w in rows}
    assert flags == {(s, t): str(int(s == failing)) for s in gates for t in ("uw", "ud")}


def test_gates_csv_flags_a_scheme_with_a_nan_fidelity(cached_gates_copy, monkeypatch):
    config_path, _ = cached_gates_copy()
    build = cli.build_protected_gates

    def nan_diffusion_gates(config, verbose=False):
        gates = build(config, verbose)
        return {s: dataclasses.replace(g, report_d=FidelityReport(math.nan)) for s, g in gates.items()}

    monkeypatch.setattr(cli, "build_protected_gates", nan_diffusion_gates)
    assert main(["optimize", "--config", str(config_path), "--quiet"]) == 0
    rows = [line.split(",") for line in (config_path.parent / "gates.csv").read_text().splitlines()[1:]]
    assert [(t, w) for _, t, _, w in rows] == [("uw", "1"), ("ud", "1")] * 2


# ---------------------------------------------------------------------------
# Fuzzing the three file parsers: any input ends in an exit code, never in a
# traceback.

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)
config_keys = st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)] + ["bogus_key"])
config_values = (
    json_values
    | st.floats(-1e6, 1e6)
    | st.lists(st.floats(-2.0, 2.0), max_size=4)
    | st.lists(st.sampled_from(["none", "xy:90:100", "xx:180:20", "x:0:0", "xy:90", "z:90:10"]), max_size=3)
    | st.fixed_dictionaries(
        {}, optional={k: st.floats() | st.integers() | st.text(max_size=3) for k in ("offset1", "offset2", "coupling")}
    )
)
config_texts = (
    st.dictionaries(config_keys, config_values, max_size=6).map(json.dumps)
    | json_values.map(json.dumps)
    | st.text(max_size=40)
)

state_tokens = (
    st.floats().map(repr)
    | st.complex_numbers().map(str)
    | st.sampled_from(["0", "1", "0.25", "0.5+0.5j", "nan", "inf", "j", "#", "1e999"])
    | st.text(max_size=4)
)
state_texts = st.lists(state_tokens, max_size=20).map(" ".join) | st.text(max_size=60)


@st.composite
def nudged_density_matrices(draw):
    """A valid state of any rank plus a nudge that moves its trace by nudge/2:
    within the 1e-10 trace tolerance for nudge 0 and 1e-12, beyond it else."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, 4))
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    nudge = draw(st.sampled_from([0.0, 1e-12, 1e-9, -1e-3, math.nan]))
    return rho + nudge * np.diag([1.0, -1.0, 0.5, 0.0]), nudge


def _exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert code == 0 or err.startswith("error:")
    assert "Traceback" not in err
    return code


@FUZZ
@given(text=state_texts)
def test_fuzz_state_file_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_state.txt"
    path.write_text(text, encoding="utf-8")
    _exit_code(["discord", "--state", str(path)])


@FUZZ
@given(data=st.binary(max_size=60))
def test_fuzz_state_file_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_state.bin"
    path.write_bytes(data)
    _exit_code(["discord", "--state", str(path)])


@FUZZ
@given(case=nudged_density_matrices())
def test_fuzz_state_file_near_density_matrices(tmp_path_factory, case):
    rho, nudge = case
    path = tmp_path_factory.getbasetemp() / "fuzz_rho.txt"
    save_state(path, rho)
    assert _exit_code(["discord", "--state", str(path)]) == (0 if nudge in (0.0, 1e-12) else 2)


@FUZZ
@given(text=config_texts)
def test_fuzz_config_file(tmp_path_factory, text):
    # The scheme is never a valid descriptor, so a config that loads ends in
    # the scheme check (exit 2) before any gate is built.
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_text(text, encoding="utf-8")
    assert _exit_code(["simulate", "--config", str(path), "--scheme", "not-a-scheme"]) == 2


numbers = (
    st.sampled_from([0, 1, -1, 1e308, -1e308, 1e300, 1e-308, 5e-324, 10**400])
    | st.floats(-2.0, 2.0)
    | st.floats()
    | st.integers()
)
number_lists = st.lists(numbers, min_size=1, max_size=3)
# Every numeric config value but those that name or size the cached gates
# (seed, n_segments_per_gate); a changed dt or omega_max fails the cache check.
NUMERIC_VALUES = {
    "system": st.fixed_dictionaries({"offset1": numbers, "offset2": numbers, "coupling": numbers}),
    "rfi_scales": number_lists,
    "flip_scales": number_lists,
    "phase_offsets": number_lists,
    "incoherence_range": st.lists(numbers, min_size=2, max_size=2),
    "incoherence_points": st.integers(-2, 40),
    "fidelity_goal": numbers,
    "epsilon": numbers,
    "amplitude_fraction": numbers,
    "free_amplitude_bound": numbers,
    "max_iterations": st.integers(),
    "iterations": st.integers(-2, 8),
    "marked": st.integers(-2, 5),
    "dt": numbers,
    "omega_max": numbers,
}
# One or two keys per config, so that many configs keep enough valid values
# to reach the gates.
numeric_changes = st.sets(st.sampled_from(sorted(NUMERIC_VALUES)), min_size=1, max_size=2).flatmap(
    lambda keys: st.fixed_dictionaries({k: NUMERIC_VALUES[k] for k in keys})
)


@pytest.fixture(scope="module")
def optimize_fuzz_workspace(cached_gates_copy):
    config_path, _ = cached_gates_copy()
    return config_path, json.loads(config_path.read_text())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(change=numeric_changes)
def test_fuzz_numeric_config_values_on_a_cache_hit(optimize_fuzz_workspace, change):
    # optimize on the cached toy gates: exit 0 or 2, and never a nan fidelity.
    # A gate build (a cache miss) fails the test.
    config_path, config = optimize_fuzz_workspace
    config_path.write_text(json.dumps(config | change))
    gates_csv = config_path.parent / "gates.csv"
    gates_csv.unlink(missing_ok=True)

    def refuse(*args):
        raise AssertionError("a fuzzed config missed the gate cache")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "optimize", refuse)
        code = _exit_code(["optimize", "--config", str(config_path), "--quiet"])
    assert code in (0, 2)
    assert gates_csv.exists() == (code == 0)
    if code == 0:
        assert "nan" not in gates_csv.read_text()


PULSE_FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

pulse_tokens = (
    st.floats().map(repr)
    | st.sampled_from(["0", "1", "2", "-1", "nan", "inf", "1e300", "6.3e5", "1e-300", "01", "0x1", "", "#"])
    | st.tuples(st.sampled_from(["dt_seconds=", "omega_max_rad_s="]), st.floats().map(repr)).map("".join)
    | st.text(max_size=4)
)
# (line, column, token): the token replaces that column of the line, or is
# appended when the line is shorter; None deletes the line. Low line
# numbers (the header and the first rows) are drawn often.
pulse_edits = st.lists(
    st.tuples(st.integers(0, 3) | st.integers(0, 10**6), st.integers(0, 4), st.none() | pulse_tokens),
    min_size=1,
    max_size=3,
)


def _edit_lines(lines, edits):
    lines = list(lines)
    for line, column, token in edits:
        if not lines:
            break
        i = line % len(lines)
        if token is None:
            del lines[i]
            continue
        parts = lines[i].split()
        if column < len(parts):
            parts[column] = token
        else:
            parts.append(token)
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def pulse_fuzz_workspace(cached_gates_copy):
    config_path, pulse_path = cached_gates_copy()
    return config_path, pulse_path, pulse_path.read_text().splitlines()


@PULSE_FUZZ
@given(edits=pulse_edits, text=st.none() | st.text(max_size=60))
def test_fuzz_cached_pulse_file(pulse_fuzz_workspace, edits, text):
    # The cached none/U_W pulse is edited (or, with text, replaced) and then
    # loaded by simulate. Any content ends in exit 0 or 2, and a file that
    # load_pulse rejects never reaches a trajectory.
    config_path, pulse_path, lines = pulse_fuzz_workspace
    pulse_path.write_text(_edit_lines(lines, edits) if text is None else text, encoding="utf-8")
    try:
        load_pulse(pulse_path)
        loads = True
    except ValueError:
        loads = False
    code = _exit_code(["simulate", "--config", str(config_path), "--scheme", "none"])
    assert code in (0, 2) if loads else code == 2
