"""Config parsing, snapshot I/O, and the command-line interface."""

import ast
import csv
import ctypes
import os
import platform
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hydrostokes
from hydrostokes.basis import Grid
import hydrostokes.cli
import hydrostokes.fields
from hydrostokes.cli import main
from hydrostokes.fields import NodeValues, PhysicalField, SpectralField, forward_transform
from hydrostokes.lab import SEMIGROUP_COMBOS, ScanReport
from hydrostokes.sampling import random_field
from hydrostokes.solver import DIAGNOSTICS, full_solve
from hydrostokes.workbench import (
    CONFIG_KEYS,
    SNAPSHOT_HEADER,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    ConfigError,
    _atomic_open,
    initial_data,
    parse_config,
    read_snapshot,
    solver_config,
    write_snapshot,
)


# -- config parsing -------------------------------------------------------


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_basic(tmp_path):
    path = write(
        tmp_path,
        """
        # comment line
        grid.n = 8
        grid.k = 4     # trailing comment
        time.dt = 0.01
        data.kind = random-decay
        """,
    )
    cfg = parse_config(path)
    assert cfg["grid.n"] == 8
    assert cfg["grid.k"] == 4
    assert cfg["time.dt"] == 0.01
    assert cfg["data.kind"] == "random-decay"


def test_parse_config_unknown_key(tmp_path):
    path = write(tmp_path, "grid.q = 3\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_bad_value(tmp_path):
    path = write(tmp_path, "grid.n = eight\n")
    with pytest.raises(ConfigError):
        parse_config(path)


@pytest.mark.parametrize("key", ["dealias", "reproject"])
def test_parse_config_rejects_solver_switches(tmp_path, key):
    # the solver always dealiases and re-projects; there is no switch
    path = write(tmp_path, f"{key} = true\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)


def test_readme_config_example_is_valid(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        (example,) = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    cfg = parse_config(write(tmp_path, example))
    assert "data.kind" in cfg
    solver_config(cfg)


def test_solver_config_roundtrip(tmp_path):
    path = write(tmp_path, "grid.n = 8\ngrid.k = 4\ntime.dt = 0.01\ntime.horizon = 0.05\n")
    sc = solver_config(parse_config(path))
    assert sc.grid() == Grid(8, 4, 1.0)
    assert sc.dt == 0.01 and sc.T == 0.05


_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-(10**6), 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "1e-320", "0", "-1", "1e300", "true", ""]),
)
_KEY_LINES = st.lists(st.tuples(st.sampled_from(sorted(CONFIG_KEYS)), _VALUES).map(" = ".join))
_CONFIG_TEXT = st.tuples(_KEY_LINES, st.lists(st.text(max_size=30), max_size=1)).map(
    lambda parts: "\n".join(parts[0] + parts[1])
)


@settings(max_examples=500, deadline=None)
@given(body=st.one_of(_CONFIG_TEXT.map(str.encode), st.binary()))
def test_config_fuzz_parses_or_config_error(body):
    # any file either yields a solver config with a valid grid and no NaN,
    # or raises ConfigError: never another exception
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(body)
        try:
            sc = solver_config(parse_config(path))
        except ConfigError:
            return
        sc.grid()
        assert not any(isinstance(v, float) and np.isnan(v) for v in vars(sc).values())


# -- initial data generators ----------------------------------------------


def test_initial_data_zero():
    a = initial_data({"data.kind": "zero"}, Grid(8, 8, 1.0))
    assert np.abs(a.coeffs).max() == 0.0


def test_initial_data_deterministic_under_seed():
    cfg = {"data.kind": "random-decay", "seed": 11, "data.amplitude": 0.1}
    a = initial_data(cfg, Grid(8, 8, 1.0))
    b = initial_data(cfg, Grid(8, 8, 1.0))
    assert np.array_equal(a.coeffs, b.coeffs)


def test_initial_data_single_mode_is_solenoidal():
    from hydrostokes.projection import check_solenoidal

    a = initial_data({"data.kind": "single-mode"}, Grid(8, 8, 1.0))
    assert check_solenoidal(a) <= 1e-12


def test_initial_data_unknown_kind():
    with pytest.raises(ConfigError):
        initial_data({"data.kind": "perlin-noise"}, Grid(8, 8, 1.0))


@pytest.mark.parametrize(
    "cfg",
    [
        {"data.amplitude": np.inf},
        {"data.amplitude": 1e200},  # finite coefficients whose squares overflow
        {"data.kind": "rough-perturbation", "data.rough": np.inf},
        {"data.decay": -2000.0},  # the spectral envelope overflows
        {"data.decay": 1e300},  # the spectral envelope underflows to 0
        {"data.amplitude": 1e308},  # the rescaling to this amplitude overflows
        {"data.kind": "rough-perturbation", "data.rough": 1e308},
    ],
)
def test_initial_data_non_finite_without_warning(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="non-finite L\\^2 norm"):
            initial_data(cfg, Grid(8, 4, 1.0))


def test_initial_data_ignores_parameters_its_kind_does_not_read():
    # random-decay has no rough part, so data.rough is never read
    a = initial_data({"data.kind": "random-decay", "data.rough": np.inf}, Grid(8, 4, 1.0))
    assert np.isfinite(a.norm2()) and a.norm2() > 0


# -- snapshots ------------------------------------------------------------


def test_snapshot_round_trip_bit_exact(tmp_path):
    grid = Grid(8, 8, 0.7)
    f = random_field(grid, ncomp=2, seed=3)
    path = str(tmp_path / "a.hstk")
    write_snapshot(path, f, 0.375)
    g, t = read_snapshot(path)
    assert t == 0.375
    assert g.grid == grid
    assert np.array_equal(g.coeffs, f.coeffs)
    # byte-stable: writing the same field twice gives identical files
    path2 = str(tmp_path / "b.hstk")
    write_snapshot(path2, f, 0.375)
    assert open(path, "rb").read() == open(path2, "rb").read()


# HSTK1 file of random_field(Grid(8, 4, 1.0), seed=0, solenoidal=True) at
# t = 0.25, written when fields still stored the full plane of coefficients
SNAPSHOT_FIXTURE = os.path.join(os.path.dirname(__file__), "snapshot_8x4_seed0.hstk")


def test_snapshot_fixture_reads_and_rewrites_equal(tmp_path):
    grid = Grid(8, 4, 1.0)
    f, t = read_snapshot(SNAPSHOT_FIXTURE)
    assert t == 0.25 and f.grid == grid
    assert np.array_equal(f.coeffs, random_field(grid, seed=0, solenoidal=True).coeffs)
    path = str(tmp_path / "again.hstk")
    write_snapshot(path, f, t)
    old, new = (open(p, "rb").read() for p in (SNAPSHOT_FIXTURE, path))
    head = len(SNAPSHOT_MAGIC) + SNAPSHOT_HEADER.size
    assert len(old) == len(new) == 8229 and old[:head] == new[:head]
    assert np.array_equal(np.frombuffer(old[head:], "<c16"), np.frombuffer(new[head:], "<c16"))


def test_snapshot_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.hstk")
    with open(path, "wb") as fh:
        fh.write(b"not a snapshot at all")
    with pytest.raises(ConfigError):
        read_snapshot(path)


@settings(max_examples=40, deadline=None)
@given(
    N=st.sampled_from([4, 6, 8]),
    K=st.integers(1, 4),
    h=st.floats(0.1, 10.0),
    time=st.floats(0.0, 100.0),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_snapshot_round_trip_and_truncation(N, K, h, time, seed, data):
    f = random_field(Grid(N, K, h), ncomp=2, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.hstk")
        write_snapshot(path, f, time)
        g, t = read_snapshot(path)
        assert t == time and g.grid == f.grid
        assert np.array_equal(g.coeffs, f.coeffs)
        raw = open(path, "rb").read()
        cut = data.draw(st.integers(1, len(raw)))
        with open(path, "wb") as fh:
            fh.write(raw[:-cut])
        with pytest.raises(ConfigError):
            read_snapshot(path)


# -- CLI ------------------------------------------------------------------


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors
        return exc.code


def test_cli_simulate_and_norms(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(
        tmp_path,
        """
        grid.n = 8
        grid.k = 8
        time.dt = 0.01
        time.horizon = 0.03
        data.kind = random-decay
        data.amplitude = 0.01
        seed = 2
        output.dir = out
        snapshot.every = 1
        """,
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    with open(tmp_path / "out" / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert float(rows[0]["t"]) == 0.0
    energies = [float(r["energy"]) for r in rows]
    assert all(b <= a * (1 + 1e-10) for a, b in zip(energies, energies[1:]))
    snap = str(tmp_path / "out" / "snapshot_00003.hstk")
    assert run_cli(["norms", snap]) == 0
    out = capsys.readouterr().out
    assert "L^2" in out


@pytest.mark.parametrize("rough", [False, True], ids=["smooth", "rough"])
def test_cli_simulate_diagnostics_header(tmp_path, monkeypatch, rough):
    # one tuple names the per-node columns of the solve and of the CSV, on both branches
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, ROUGH_8 + ("" if rough else "split.delta = 0\n"))
    assert run_cli(["simulate", "--config", cfg]) == 0
    with open(tmp_path / "out" / "diagnostics.csv") as fh:
        table = list(csv.reader(fh))
    assert DIAGNOSTICS == ("energy", "sol_drift", "norm_inf_p", "t_sqrt_grad_norm", "residual")
    assert table[0] == ["t", *DIAGNOSTICS]
    assert [len(row) for row in table] == [1 + len(DIAGNOSTICS)] * 4


def test_cli_simulate_zero_data(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(
        tmp_path,
        "grid.n = 8\ngrid.k = 8\ntime.dt = 0.01\ntime.horizon = 0.02\n"
        "data.kind = zero\noutput.dir = out\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    with open(tmp_path / "out" / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["energy"]) == 0.0 for r in rows)


def test_cli_simulate_outputs_share_the_umask_mode(tmp_path, monkeypatch):
    # snapshots and CSVs go through one writer: plain open, so both take
    # 0o666 & ~umask, and no temp file is left behind
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, ROUGH_8)
    old = os.umask(0o027)
    try:
        assert run_cli(["simulate", "--config", cfg]) == 0
    finally:
        os.umask(old)
    out = tmp_path / "out"
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
    assert "diagnostics.csv" in modes and "snapshot_00000.hstk" in modes
    assert set(modes.values()) == {0o666 & ~0o027}
    assert not [n for n in modes if n.endswith(".tmp")]


@pytest.mark.parametrize("every, kept", [(3, (0, 3, 6, 7)), (1, (1, 2, 5))], ids=["due", "any"])
def test_cli_simulate_writes_exactly_the_held_snapshots(tmp_path, monkeypatch, every, kept):
    # one file per snapshot the solve holds, whichever slots those are, and
    # none for a None slot: the due rule is the solver's alone
    monkeypatch.chdir(tmp_path)
    solves = []

    def solve(a, config):
        traj = full_solve(a, config)
        if every == 1:  # slots that no interval keeps
            traj.snapshots = [s if n in kept else None for n, s in enumerate(traj.snapshots)]
        solves.append(traj)
        return traj

    monkeypatch.setattr(hydrostokes.cli, "full_solve", solve)
    cfg = write(
        tmp_path,
        "grid.n = 8\ngrid.k = 8\ntime.dt = 0.01\ntime.horizon = 0.07\nsplit.delta = 0\n"
        "data.kind = random-decay\ndata.amplitude = 0.05\noutput.dir = out\n"
        f"snapshot.every = {every}\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    (traj,) = solves
    assert [n for n, s in enumerate(traj.snapshots) if s is not None] == list(kept)
    written = sorted(p.name for p in (tmp_path / "out").glob("snapshot_*"))
    assert written == [f"snapshot_{n:05d}.hstk" for n in kept]
    for n in kept:
        field, t = read_snapshot(str(tmp_path / "out" / f"snapshot_{n:05d}.hstk"))
        assert t == traj.times[n]
        assert np.array_equal(field.coeffs, traj.snapshots[n].coeffs)
    with open(tmp_path / "out" / "diagnostics.csv") as fh:
        assert len(list(csv.DictReader(fh))) == len(traj.times) == 8


def test_cli_verify_all_writes_params_as_python_literals(tmp_path, monkeypatch):
    # each sample point reads back as the tuple or scalar it was, with no
    # numpy scalar repr such as np.float64(0.1) in it
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "grid.n = 8\ngrid.k = 8\noutput.dir = out\n")
    assert run_cli(["verify", "all", "--config", cfg]) == 0
    cells = []
    for path in sorted((tmp_path / "out").glob("*.csv")):
        with open(path) as fh:
            cells += [row["params"] for row in csv.DictReader(fh) if "params" in row]
    assert len(cells) > 100
    for cell in cells:
        assert "np." not in cell
        ast.literal_eval(cell)


def test_atomic_open_names_its_temp_file_by_pid(tmp_path):
    path = str(tmp_path / "x.csv")
    with _atomic_open(path, "w") as fh:
        fh.write("partial")
        assert os.listdir(tmp_path) == [f"x.csv.{os.getpid()}.tmp"]
    assert os.listdir(tmp_path) == ["x.csv"]
    # a failure while writing leaves the old file and no temp file
    with pytest.raises(RuntimeError):
        with _atomic_open(path, "w") as fh:
            fh.write("new")
            raise RuntimeError("interrupted")
    assert os.listdir(tmp_path) == ["x.csv"]
    assert (tmp_path / "x.csv").read_text() == "partial"


def test_cli_norms_constant_one_snapshot(tmp_path, capsys):
    grid = Grid(8, 8, 1.0)
    f = forward_transform(PhysicalField(np.ones((2, 8, 8, 8)), grid))
    snap = str(tmp_path / "one.hstk")
    write_snapshot(snap, f, 0.0)
    assert run_cli(["norms", snap]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("sup")][0]
    # |(1,1)| = sqrt(2) at every node
    assert float(line.split("=")[1]) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_cli_norms_corrupt_snapshot_exit_2(tmp_path):
    snap = str(tmp_path / "a.hstk")
    write_snapshot(snap, random_field(Grid(8, 4, 1.0), seed=0), 0.0)
    raw = open(snap, "rb").read()
    with open(snap, "wb") as fh:
        fh.write(raw[:-16])
    assert run_cli(["norms", snap]) == 2
    # zero N in the header: magic (5 bytes), then version and ncomp as u32
    with open(snap, "wb") as fh:
        fh.write(raw[:13] + bytes(4) + raw[17:])
    assert run_cli(["norms", snap]) == 2


@pytest.mark.parametrize("defect", ["no-partner", "nan"])
def test_cli_norms_bad_coefficients_exit_2(tmp_path, capsys, defect):
    c = np.zeros((2, 8, 8, 4), dtype=complex)
    if defect == "no-partner":
        c[0, 1, 0, 0] = 1.0  # c(1, 0) without c(-1, 0) = conj c(1, 0)
    else:
        c[0, 0, 0, 0] = np.nan
    snap = str(tmp_path / "a.hstk")
    # written by hand: write_snapshot only writes Hermitian coefficients
    with open(snap, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC + SNAPSHOT_HEADER.pack(SNAPSHOT_VERSION, 2, 8, 4, 1.0, 0.0))
        fh.write(c.astype("<c16").tobytes())
    assert run_cli(["norms", snap]) == 2
    assert "error: snapshot:" in capsys.readouterr().err


@pytest.mark.parametrize("time", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_cli_norms_bad_snapshot_time_exit_2(tmp_path, capsys, time):
    # a snapshot's time is a node time t_n = n dt: finite and >= 0
    snap = str(tmp_path / "a.hstk")
    write_snapshot(snap, random_field(Grid(8, 4, 1.0), seed=0), time)
    assert run_cli(["norms", snap]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: snapshot:") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


@pytest.mark.parametrize("modes,value", [("origin", 1e308), ("one", 1e200)])
def test_cli_norms_overflowing_snapshot_exit_2(tmp_path, capsys, modes, value):
    # finite coefficients whose node values (1e308 in every xi = 0 coefficient)
    # or L^2 sum of squares (1e200 at one mode) overflow: an error, not a norm
    f = SpectralField.zeros(Grid(8, 4, 1.0))
    if modes == "origin":
        f.coeffs[:, 0, 0, :] = value
    else:
        f.coeffs[0, 0, 0, 0] = value
    snap = str(tmp_path / "big.hstk")
    write_snapshot(snap, f, 0.0)
    assert run_cli(["norms", snap]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: snapshot:") and out.err.count("\n") == 1


@pytest.mark.parametrize(
    "flag,value", [("--q", "abc"), ("--q", "0.5"), ("--p", "-1"), ("--p", "nan")]
)
def test_cli_norms_bad_exponent_exit_2(tmp_path, capsys, flag, value):
    snap = str(tmp_path / "a.hstk")
    write_snapshot(snap, random_field(Grid(8, 4, 1.0), seed=0), 0.0)
    assert run_cli(["norms", snap, flag, value]) == 2
    assert "exponent must be" in capsys.readouterr().err


def test_cli_norms_exponents(tmp_path, capsys):
    snap = str(tmp_path / "a.hstk")
    write_snapshot(snap, random_field(Grid(8, 4, 1.0), seed=0), 0.0)
    assert run_cli(["norms", snap, "--q", "1", "--p", "inf"]) == 0
    assert "L^1_H L^inf_z = " in capsys.readouterr().out


def test_cli_norms_large_vertical_exponent_nonzero(tmp_path, capsys):
    # every node power underflows at p = 1000; the rescaled norm lies
    # between the p = 4 and p = inf norms of the same field
    snap = str(tmp_path / "a.hstk")
    f = random_field(Grid(8, 8, 1.0), seed=0, amplitude=0.02)
    write_snapshot(snap, f, 0.0)
    assert run_cli(["norms", snap, "--p", "1000"]) == 0
    out = capsys.readouterr().out.splitlines()
    got = float(next(x for x in out if x.startswith("L^inf_H L^1000_z")).split("=")[1])
    nodes = NodeValues(f)
    assert nodes.norm("u", np.inf, 4) < got <= nodes.norm("u", np.inf, np.inf)


@pytest.mark.parametrize(
    "command,text",
    [
        (["verify", "kernel"], "grid.n = 5\n"),
        (["spectrum"], "grid.n = 5\n"),
        (["verify", "nonlinear"], "norm.p = 0.5\n"),
    ],
)
def test_cli_verify_spectrum_bad_config_exit_2(tmp_path, monkeypatch, capsys, command, text):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, text)
    assert run_cli(command + ["--config", cfg]) == 2
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["verify", "kernel"], ["spectrum"]])
def test_cli_uncreatable_output_dir_exit_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    cfg = write(tmp_path, "grid.n = 8\ngrid.k = 4\ntime.horizon = 0.01\noutput.dir = afile/sub\n")
    assert run_cli(command + ["--config", cfg]) == 2
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,blocked",
    [
        (["simulate"], "diagnostics.csv"),
        (["simulate"], "snapshot_00000.hstk"),
        (["verify", "kernel"], "kernel.csv"),
        (["spectrum"], "spectrum.csv"),
    ],
)
def test_cli_unwritable_output_file_exit_2(tmp_path, monkeypatch, capsys, command, blocked):
    # an output path that is a directory: one error line, exit 2, no temp file left
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out" / blocked).mkdir(parents=True)
    cfg = write(
        tmp_path, "grid.n = 8\ngrid.k = 4\ntime.dt = 0.01\ntime.horizon = 0.02\noutput.dir = out\n"
    )
    assert run_cli(command + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output: ") and err.count("\n") == 1
    assert "Traceback" not in err
    left = {p.name for p in (tmp_path / "out").iterdir()}
    assert not {n for n in left if n.endswith(".tmp") or n.startswith("tmp")}
    assert (tmp_path / "out" / blocked).is_dir()


@pytest.mark.parametrize("command", [["simulate"], ["verify", "young"], ["verify", "semigroup"]])
def test_cli_negative_seed_exit_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "seed = -1\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)
    assert run_cli(command + ["--config", cfg]) == 2
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode",
    [
        "data.mode_m = 4",  # the Nyquist mode at N = 8
        "data.mode_n = -4",
        "data.mode_m = 9",
        "data.mode_k = 8",
        "data.mode_k = 9",
        "data.mode_k = -1",
    ],
)
def test_cli_single_mode_off_grid_exit_2(tmp_path, monkeypatch, capsys, mode):
    monkeypatch.chdir(tmp_path)
    cfg = write(
        tmp_path,
        "grid.n = 8\ngrid.k = 8\ntime.dt = 0.01\ntime.horizon = 0.01\n"
        f"data.kind = single-mode\n{mode}\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert "not on the grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        "data.amplitude = inf",
        "data.amplitude = nan",
        "data.amplitude = 1e200",  # finite coefficients whose squares overflow
        "data.decay = nan",
        "data.kind = rough-perturbation\ndata.rough = inf",
        "data.kind = single-mode\ndata.amplitude = nan",
    ],
)
def test_cli_non_finite_initial_data_exit_2(tmp_path, monkeypatch, capsys, data):
    monkeypatch.chdir(tmp_path)
    cfg = write(
        tmp_path, f"grid.n = 8\ngrid.k = 4\ntime.dt = 0.01\ntime.horizon = 0.02\n{data}\n"
    )
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert "non-finite L^2 norm" in capsys.readouterr().err


def test_cli_huge_horizon_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "time.horizon = 1e300\ntime.dt = 1\n")
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["1e-200", "1e200"])
@pytest.mark.parametrize("command", [["simulate"], ["verify", "semigroup"], ["spectrum"]])
def test_cli_depth_out_of_float_range_exit_2(tmp_path, monkeypatch, capsys, command, h):
    # lambda_{K-1}^2 or h^2 would overflow: a config error, not a traceback
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, f"grid.n = 8\ngrid.k = 8\ngrid.h = {h}\ntime.horizon = 0.01\n")
    assert run_cli(command + ["--config", cfg]) == 2
    assert "floating-point range" in capsys.readouterr().err


# the rough config of the CI smoke run
ROUGH_8 = (
    "grid.n = 8\ngrid.k = 8\ntime.dt = 0.0025\ntime.horizon = 0.005\n"
    "split.delta = 0.01\ndata.kind = rough-perturbation\ndata.rough = 1.0\n"
    "data.amplitude = 0.02\noutput.dir = out\n"
)


def test_rough_solve_converges_below_round_off(tmp_path):
    # the Picard differences keep contracting past the default tolerance,
    # down to round-off of the solution
    cfg = parse_config(write(tmp_path, ROUGH_8 + "picard.tol = 1e-15\n"))
    config = solver_config(cfg)
    traj = full_solve(initial_data(cfg, config.grid()), config)
    report = traj.diagnostics["picard"]
    assert report.converged
    assert report.iterations == 6
    assert report.diff_S[-1] < 1e-15


@pytest.mark.parametrize("h", ["1e-14", "1e-16", "1e-20"])
def test_cli_simulate_tiny_depth_decays(tmp_path, monkeypatch, h):
    # lambda^2 t is huge, but the exponential blocks are built from
    # Theta <= 0 and cannot overflow; the exact energy decay is
    # e^{-(pi/2h)^2 t}, so nothing measurable is left after one step
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, ROUGH_8 + f"grid.h = {h}\n")
    assert run_cli(["simulate", "--config", cfg]) == 0
    with open(tmp_path / "out" / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    energy = [float(r["energy"]) for r in rows]
    assert len(energy) == 3 and energy[0] > 0
    assert all(e <= 1e-15 * energy[0] for e in energy[1:])
    # the solenoidal defect is relative to the data, so the decayed
    # round-off residue does not read as a large drift
    drift = [float(r["sol_drift"]) for r in rows]
    assert all(d <= drift[0] for d in drift[1:])


@pytest.mark.parametrize("suite", ["semigroup"])
def test_cli_verify_tiny_depth_fails_suite(tmp_path, monkeypatch, capsys, suite):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "grid.n = 8\ngrid.k = 8\ngrid.h = 1e-14\n")
    assert run_cli(["verify", suite, "--config", cfg]) == 1
    out = capsys.readouterr()
    assert out.out == f"verify {suite}: FAIL\n"
    assert out.err.startswith(f"error: verify {suite}:") and "non-finite" in out.err


def test_cli_verify_resolvent_tiny_depth_passes(tmp_path, monkeypatch, capsys):
    # every multiplier is a bounded real part of 1/d or 1/e, so no ratio is
    # inf or nan; the derivative datum's ratios are at round-off
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "grid.n = 8\ngrid.k = 8\ngrid.h = 1e-14\n")
    assert run_cli(["verify", "resolvent", "--config", cfg]) == 0
    assert capsys.readouterr().out == "verify resolvent: ok\n"
    ratios = {}
    for name in ("resolvent", "resolvent_dz"):
        with open(tmp_path / f"{name}.csv") as fh:
            ratios[name] = [float(r["ratio"]) for r in csv.DictReader(fh)]
        assert ratios[name] and np.all(np.isfinite(ratios[name]))
    assert max(ratios["resolvent_dz"]) <= 1e-12


@pytest.mark.parametrize("h", ["1e-20", "1e-150"])
def test_cli_verify_all_tiny_depth_writes_every_row(tmp_path, monkeypatch, capsys, h):
    # at p = 1 every denominator is of order h; no sample is dropped, so
    # every CSV has rows and only the semigroup suite fails (e^{beta t}
    # underflows, so its ratios are inf).  At h = 1e-150 the boundary-flat
    # datum's dz node values square past the float range; its column norms
    # are rescaled, not non-finite
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, f"grid.n = 8\ngrid.k = 8\ngrid.h = {h}\nnorm.p = 1\noutput.dir = out\n")
    assert run_cli(["verify", "all", "--config", cfg]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: verify semigroup:")
    csvs = sorted((tmp_path / "out").glob("*.csv"))
    assert len(csvs) == 14
    for path in csvs:
        with open(path) as fh:
            assert len(list(csv.DictReader(fh))) >= 1, path.name


def test_cli_verify_nonlinear_tiny_depth_passes(tmp_path, monkeypatch, capsys):
    # every term of the estimate decays like the semigroup: ratios at round-off
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "grid.n = 8\ngrid.k = 8\ngrid.h = 1e-14\n")
    assert run_cli(["verify", "nonlinear", "--config", cfg]) == 0
    assert capsys.readouterr().out == "verify nonlinear: ok\n"
    with open(tmp_path / "nonlinear.csv") as fh:
        ratios = [float(r["ratio"]) for r in csv.DictReader(fh)]
    assert ratios and max(ratios) <= 1e-12


def test_cli_picard_cap_reached_exit_3(tmp_path, monkeypatch, capsys):
    # two iterations leave the difference far above picard.tol: a failure
    monkeypatch.chdir(tmp_path)
    cfg = write(
        tmp_path,
        "grid.n = 8\ngrid.k = 8\ntime.dt = 0.0025\ntime.horizon = 0.005\n"
        "split.delta = 0.01\ndata.kind = rough-perturbation\ndata.rough = 1.0\n"
        "data.amplitude = 0.02\npicard.max_iter = 2\noutput.dir = out\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 3
    assert "cap of 2 iterations" in capsys.readouterr().err
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


def test_cli_product_overflow_on_a_later_slab_exit_3(tmp_path, monkeypatch, capsys):
    # single-mode data whose first product is 0 on padded node row 0 and
    # overflows on later rows: at one row per slab, a later slab's check
    # stops the solve
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(hydrostokes.fields, "_SLAB_BYTES", 1)
    cfg = write(
        tmp_path,
        "grid.n = 8\ngrid.k = 4\ntime.dt = 0.0025\ntime.horizon = 0.005\n"
        "split.delta = 0\ndata.kind = single-mode\ndata.amplitude = 2e154\noutput.dir = out\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 3
    assert capsys.readouterr().err == "error: solver: field contains non-finite entries\n"
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


def test_cli_coefficient_overflow_exit_3(tmp_path, monkeypatch, capsys):
    # finite products whose truncated coefficients overflow: the product's
    # message, not a blow-up of the reference solve one node later
    monkeypatch.chdir(tmp_path)
    cfg = write(
        tmp_path,
        "grid.n = 8\ngrid.k = 4\ntime.dt = 0.0025\ntime.horizon = 0.005\n"
        "split.delta = 0\ndata.kind = single-mode\ndata.amplitude = 1.3e154\noutput.dir = out\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 3
    assert capsys.readouterr().err == "error: solver: field contains non-finite entries\n"
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


def test_cli_picard_cap_names_step_size_number(tmp_path, monkeypatch, capsys):
    # the exit-3 line carries dt * max|a| * k_max of the data, k_max = pi N
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, ROUGH_8 + "picard.max_iter = 2\n")
    assert run_cli(["simulate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    sc = solver_config(parse_config(cfg))
    a = initial_data(parse_config(cfg), sc.grid())
    number = sc.dt * NodeValues(a).norm("u", np.inf, np.inf) * np.pi * sc.N
    assert err.startswith("error: solver:") and err.count("\n") == 1 and "cap of 2" in err
    assert f"step-size number dt*max|u|*k_max = {number:.3e}" in err


def test_cli_infinite_smoothing_time_exit_2(tmp_path, monkeypatch, capsys):
    # e^{-inf |xi|^2} at xi = 0 is NaN: refused as a config error before the split
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, ROUGH_8 + "split.delta = inf\n")
    assert run_cli(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "smoothing time" in err
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cli_picard_cap_below_one_exit_2(tmp_path, monkeypatch, capsys, cap):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, f"picard.max_iter = {cap}\n")
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert "error: config:" in capsys.readouterr().err


def test_cli_corrupt_config_exit_2(tmp_path):
    cfg = write(tmp_path, "grid.n = 15\n")
    assert run_cli(["simulate", "--config", cfg]) == 2
    cfg2 = write(tmp_path, "volume = 11\n", "x.cfg")
    assert run_cli(["simulate", "--config", cfg2]) == 2


def test_cli_verify_kernel(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["verify", "kernel"]) == 0
    with open(tmp_path / "kernel.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(float(r["abs_err"]) <= 1e-6 for r in rows)
    assert "verify kernel: ok" in capsys.readouterr().out


def test_cli_verify_kernel_fails_off_by_1e5(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exact = hydrostokes.cli.kernel_l1_norm

    def off(lam):
        res = exact(lam)
        return {**res, "kernel_numeric": res["kernel_numeric"] + 1e-5}

    monkeypatch.setattr(hydrostokes.cli, "kernel_l1_norm", off)
    assert run_cli(["verify", "kernel"]) == 1
    assert "verify kernel: FAIL" in capsys.readouterr().out


def test_cli_verify_young(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["verify", "young"]) == 0
    for name in ("young_inf_4.csv", "young_2_2.csv", "young_1_inf.csv"):
        with open(tmp_path / name) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["ratio"]) <= 1 + 1e-10 for r in rows)


def test_cli_verify_recursion_violation_exit_1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "recursion.a0 = 0.2\nrecursion.c1 = 1.0\nrecursion.c2 = 0.25\n")
    assert run_cli(["verify", "recursion", "--config", cfg]) == 1


def test_cli_verify_recursion_one_key_makes_one_case(tmp_path, monkeypatch):
    # recursion.c1 alone makes one case, a0 and c2 from the first default
    # case; 4 * 100 * 0.1 >= (1 - 0.25)^2 breaks the lemma's hypothesis
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "recursion.c1 = 100\n")
    assert run_cli(["verify", "recursion", "--config", cfg]) == 1
    with open(tmp_path / "recursion.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["a0"], r["c1"], r["c2"], r["bound"]) for r in rows] == [
        ("0.1", "100.0", "0.25", "error")
    ]


def test_cli_verify_non_finite_sup_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        hydrostokes.cli,
        "resolvent_scan",
        lambda *args, **kwargs: {
            "resolvent": ScanReport("resolvent", [0], [np.nan]),
            "resolvent_dz": ScanReport("resolvent_dz", [0], [1.0]),
        },
    )
    assert run_cli(["verify", "resolvent"]) == 1
    # the FAIL says why, on one stderr line naming the CSV
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: verify resolvent: non-finite sup ratio nan in resolvent.csv")


def test_cli_verify_all_reports_each_suite_from_its_own_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    called = set()

    def stub(name, sup):
        def scan(*args, **kwargs):
            called.add(name)
            if name == "semigroup_decay_scan":  # one report per combo
                return {c: ScanReport(c, [0], [sup]) for c in SEMIGROUP_COMBOS}
            if name == "resolvent_scan":
                return {c: ScanReport(c, [0], [sup]) for c in ("resolvent", "resolvent_dz")}
            return ScanReport(name, [0], [sup])

        return scan

    scans = {
        "young_anisotropic_test": 0.5,
        "semigroup_decay_scan": 1.0,
        "resolvent_scan": 1.0,
        "horizontal_multiplier_scan": np.nan,
        "interpolation_ratio": np.inf,
        "nonlinear_estimate_scan": 1.0,
    }
    for name, sup in scans.items():
        monkeypatch.setattr(hydrostokes.cli, name, stub(name, sup))
    real_stability = hydrostokes.cli.resolution_stability

    def stability(*args, **kwargs):
        called.add("resolution_stability")
        return real_stability(*args, **kwargs)

    monkeypatch.setattr(hydrostokes.cli, "resolution_stability", stability)
    assert run_cli(["verify", "all"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "verify kernel: ok",
        "verify young: ok",
        "verify semigroup: ok",
        "verify resolvent: ok",
        "verify multiplier: FAIL",
        "verify interpolation: FAIL",
        "verify nonlinear: ok",
        "verify recursion: ok",
    ]
    # the suites look each scan up in cli at call time, so every stub ran
    assert called == set(scans) | {"resolution_stability"}
    assert all(os.path.exists(f"semigroup_{combo}.csv") for combo in SEMIGROUP_COMBOS)
    assert os.path.exists("resolvent.csv") and os.path.exists("resolvent_dz.csv")


def test_cli_verify_unknown_suite():
    assert run_cli(["verify", "frobnicate"]) == 2


def test_cli_spectrum(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "grid.n = 8\ngrid.k = 4\n")
    assert run_cli(["spectrum", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "solenoidal spectral bound" in out
    with open(tmp_path / "spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    sol = [float(r["re"]) for r in rows if r["subspace"] == "solenoidal"]
    assert max(sol) < 0
    assert min(abs(v + np.pi**2 / 4) for v in sol) <= 1e-8


def test_cli_spectrum_lists_every_mode(tmp_path, monkeypatch):
    # one row per eigenvalue of every (m, n) of the full plane; the
    # solenoidal subspace drops one parallel eigenvalue per mode xi != 0
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "grid.n = 8\ngrid.k = 4\n")
    assert run_cli(["spectrum", "--config", cfg]) == 0
    with open(tmp_path / "spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    N, K = 8, 4
    every = {(m, n) for m in range(-N // 2, N // 2) for n in range(-N // 2, N // 2)}
    for subspace, count in (("full", N * N * 2 * K), ("solenoidal", N * N * (2 * K - 1) + 1)):
        sub = [r for r in rows if r["subspace"] == subspace]
        assert len(sub) == count
        assert {(int(r["m"]), int(r["n"])) for r in sub} == every


def test_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgtext = (
        "grid.n = 8\ngrid.k = 8\ntime.dt = 0.01\ntime.horizon = 0.02\n"
        "data.kind = random-decay\ndata.amplitude = 0.01\nseed = 7\noutput.dir = {}\n"
    )
    a = write(tmp_path, cfgtext.format("outa"), "a.cfg")
    b = write(tmp_path, cfgtext.format("outb"), "b.cfg")
    assert run_cli(["simulate", "--config", a]) == 0
    assert run_cli(["simulate", "--config", b]) == 0
    da = (tmp_path / "outa" / "diagnostics.csv").read_text()
    db = (tmp_path / "outb" / "diagnostics.csv").read_text()
    assert da == db


# -- the command-line process keeps its freed heap ---------------------------


def run_python(code, *args):
    """Run code in a fresh interpreter that imports this hydrostokes; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hydrostokes.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_scipy():
    # the run time needs only numpy: the transforms are numpy.fft's, and
    # scipy is left to the tests' oracles
    code = (
        "import sys, hydrostokes.cli, hydrostokes.workbench; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert run_python(code).strip() == "[]"


# a finder that fails every import of scipy, installed before hydrostokes is
_BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
from hydrostokes.cli import main
simulate = main(["simulate", "--config", sys.argv[1]])
verify = main(["verify", "all", "--config", sys.argv[2]])
print("exit", simulate, verify)
"""


def test_commands_run_with_scipy_blocked(tmp_path):
    # simulate on the rough shape and verify all, both at 8^3, with no scipy
    rough = write(
        tmp_path,
        "grid.n = 8\ngrid.k = 8\ntime.dt = 0.0025\ntime.horizon = 0.005\n"
        "split.delta = 0.01\ndata.kind = rough-perturbation\ndata.rough = 1.0\n"
        f"data.amplitude = 0.02\noutput.dir = {tmp_path / 'rough'}\n",
        "rough.cfg",
    )
    verify = write(
        tmp_path, f"grid.n = 8\ngrid.k = 8\noutput.dir = {tmp_path / 'verify'}\n", "verify.cfg"
    )
    out = run_python(_BLOCK_SCIPY, str(rough), str(verify))
    assert out.splitlines()[-1] == "exit 0 0"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_cli_warm_simulate_takes_few_page_faults(tmp_path):
    # the products and S(T)-norms free 0.1-2 MB node arrays at every node;
    # under glibc's default thresholds each goes back to the kernel and is
    # faulted in again (about 13.5k minor faults per call on this config)
    cfg = write(
        tmp_path,
        "grid.n = 16\ngrid.k = 16\ntime.dt = 0.0025\ntime.horizon = 0.005\n"
        "split.delta = 0.01\ndata.kind = rough-perturbation\ndata.rough = 1.0\n"
        f"data.amplitude = 0.02\noutput.dir = {tmp_path / 'out'}\n",
    )
    code = (
        "import resource, sys\n"
        "from hydrostokes.cli import main\n"
        "argv = ['simulate', '--config', sys.argv[1]]\n"
        "assert main(argv) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt\n"
        "assert main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)\n"
    )
    assert int(run_python(code, cfg)) < 1000


def no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [no_libc, lambda name: object()], ids=["no-libc", "no-mallopt"])
def test_cli_runs_where_mallopt_is_missing(tmp_path, monkeypatch, cdll):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["verify", "recursion"]) == 0
