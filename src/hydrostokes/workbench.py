"""Config files, snapshot persistence and initial-data generators."""

import os
import struct
from contextlib import contextmanager

import numpy as np

from .basis import Grid
from .fields import SpectralField
from .projection import project_hydrostatic
from .sampling import random_field, single_mode_field
from .solver import SolverConfig

SNAPSHOT_MAGIC = b"HSTK1"
SNAPSHOT_VERSION = 1
# version, ncomp, N, K, h, time
SNAPSHOT_HEADER = struct.Struct("<IIIIdd")

CONFIG_KEYS = {
    "grid.n": int,
    "grid.k": int,
    "grid.h": float,
    "norm.p": float,
    "time.dt": float,
    "time.horizon": float,
    "split.delta": float,
    "split.eps0": float,
    "picard.max_iter": int,
    "picard.tol": float,
    "seed": int,
    "output.dir": str,
    # initial-data generator selection
    "data.kind": str,
    "data.amplitude": float,
    "data.mode_m": int,
    "data.mode_n": int,
    "data.mode_k": int,
    "data.decay": float,
    "data.rough": float,
    "snapshot.every": int,
    # parameters for the recursion-lemma verification suite
    "recursion.a0": float,
    "recursion.c1": float,
    "recursion.c2": float,
}


class ConfigError(ValueError):
    pass


def parse_config(path: str) -> dict:
    """Read `key = value` lines; '#' starts a comment; unknown keys rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:  # a missing file or a directory, say
        raise ConfigError(str(exc)) from exc
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        if key == "seed" and out[key] < 0:
            raise ConfigError(f"{path}:{lineno}: seed must be >= 0, got {out[key]}")
    return out


# config key -> SolverConfig field; a key absent from the config keeps the field's default
SOLVER_KEYS = {
    "grid.n": "N", "grid.k": "K", "grid.h": "h", "norm.p": "p",
    "time.dt": "dt", "time.horizon": "T", "split.delta": "delta", "split.eps0": "eps0",
    "picard.max_iter": "max_picard", "picard.tol": "picard_tol",
    "snapshot.every": "snapshot_every",
}


def solver_config(cfg: dict) -> SolverConfig:
    try:
        return SolverConfig(**{name: cfg[key] for key, name in SOLVER_KEYS.items() if key in cfg})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_grid(cfg: dict) -> Grid:
    """The grid a config names; ConfigError when it is not a valid grid."""
    try:
        return Grid(
            cfg.get("grid.n", SolverConfig.N),
            cfg.get("grid.k", SolverConfig.K),
            cfg.get("grid.h", SolverConfig.h),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# data.kind -> the float parameters that generator reads, with their defaults
DATA_PARAMS = {
    "zero": {},
    "single-mode": {"data.amplitude": 1.0},
    "random-decay": {"data.amplitude": 1.0, "data.decay": 3.0},
    "rough-perturbation": {"data.amplitude": 1.0, "data.decay": 3.0, "data.rough": 0.1},
}


def initial_data(cfg: dict, grid: Grid) -> SpectralField:
    """Named generators: random-decay, single-mode, rough-perturbation, zero."""
    kind = cfg.get("data.kind", "random-decay")
    if kind not in DATA_PARAMS:
        raise ConfigError(f"unknown data.kind {kind!r}")
    par = {key: cfg.get(key, default) for key, default in DATA_PARAMS[kind].items()}
    for key, val in par.items():
        if not np.isfinite(val):
            raise ConfigError(
                f"initial data ({kind}) would have a non-finite L^2 norm: {key} = {val}"
            )
    if kind == "zero":
        return SpectralField.zeros(grid)
    amp = par["data.amplitude"]
    if kind == "single-mode":
        m = cfg.get("data.mode_m", 1)
        n = cfg.get("data.mode_n", 0)
        k = cfg.get("data.mode_k", 0)
        # the Nyquist mode |m| = N/2 has no conjugate partner; larger ones alias
        if not (abs(m) < grid.N // 2 and abs(n) < grid.N // 2 and 0 <= k < grid.K):
            raise ConfigError(
                f"single mode (m, n, k) = ({m}, {n}, {k}) is not on the grid: "
                f"need |m|, |n| < {grid.N // 2} and 0 <= k < {grid.K}"
            )
    # finite parameters can still overflow while the field is formed
    # (data.amplitude = 1e308) or squared (1e200); the norm check catches both
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "single-mode":
            f = project_hydrostatic(single_mode_field(grid, m=m, n=n, k=k, amplitude=amp))
        else:
            try:
                f = random_field(
                    grid,
                    seed=cfg.get("seed", 0),
                    decay=par["data.decay"],
                    rough_amplitude=par.get("data.rough", 0.0),
                    solenoidal=True,
                    amplitude=amp,
                )
            except ValueError as exc:
                raise ConfigError(
                    f"initial data ({kind}) would have a non-finite L^2 norm or vanish: {exc}"
                ) from exc
        norm = f.norm2()
    if not np.isfinite(norm):
        raise ConfigError(f"initial data ({kind}) has a non-finite L^2 norm")
    return f


@contextmanager
def _atomic_open(path: str, mode: str, **kwargs):
    """``open(path, mode)`` whose file appears at ``path`` only once it is complete.

    The file is written as ``f"{path}.{pid}.tmp"`` in the same directory,
    created by plain ``open`` so it takes the umask's mode, then renamed
    onto ``path``; the temp file is removed on any failure.  The pid keeps
    two processes writing the same path from sharing a temp file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.unlink(tmp)
        raise


def write_snapshot(path: str, field: SpectralField, time: float):
    """Binary snapshot, written to a temp file then renamed (no partial files);
    ValueError, before any file is opened, for a time read_snapshot refuses."""
    if not 0 <= time < np.inf:  # written so that NaN fails it
        raise ValueError(f"snapshot time must be finite and >= 0, got {time}")
    g = field.grid
    header = SNAPSHOT_MAGIC + SNAPSHOT_HEADER.pack(
        SNAPSHOT_VERSION, field.ncomp, g.N, g.K, g.h, time
    )
    # the full plane, interleaved (re, im) little-endian f64 in index order comp, m, n, k
    body = field.full().astype("<c16").tobytes()
    with _atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def read_snapshot(path: str):
    """Inverse of :func:`write_snapshot`; returns (field, time), time finite and >= 0."""
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != SNAPSHOT_MAGIC:
            raise ConfigError(f"bad snapshot magic {magic!r} in {path}")
        header = fh.read(SNAPSHOT_HEADER.size)
        if len(header) != SNAPSHOT_HEADER.size:
            raise ConfigError(f"truncated snapshot header in {path}")
        version, ncomp, N, K, h, time = SNAPSHOT_HEADER.unpack(header)
        if version != SNAPSHOT_VERSION:
            raise ConfigError(f"unsupported snapshot version {version}")
        if not 0 <= time < np.inf:  # written so that NaN fails it
            raise ConfigError(f"snapshot time must be finite and >= 0, got {time} in {path}")
        body = fh.read()
    try:
        grid = Grid(N, K, h)
    except ValueError as exc:
        raise ConfigError(f"bad snapshot grid in {path}: {exc}") from exc
    if ncomp < 1:
        raise ConfigError(f"bad snapshot component count {ncomp} in {path}")
    expect = ncomp * N * N * K * 16
    if len(body) != expect:
        raise ConfigError(f"snapshot body in {path} has {len(body)} bytes, header implies {expect}")
    coeffs = np.frombuffer(body, dtype="<c16").reshape(ncomp, N, N, K).astype(complex)
    if not np.all(np.isfinite(coeffs)):
        raise ConfigError(f"snapshot {path} holds non-finite coefficients")
    try:
        field = SpectralField.from_full(coeffs, grid)
    except ValueError as exc:
        raise ConfigError(f"snapshot {path}: {exc}") from exc
    return field, time
