"""Flat key=value run configuration.

One ``key = value`` assignment per line, ``#`` starts a comment, unknown keys
are rejected, and every violated constraint is reported (not just the first).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional

import numpy as np

from .model import (KAPPA_TOO_SMALL, DoubleWell, Grid, ModelParams, ScalarField,
                    kappa_square_is_normal, make_initial_profile)
from .solver import SolverConfig
from .tensors import ElasticTensor, SymMatrix3


class ConfigError(ValueError):
    """Carries the full list of configuration problems."""

    def __init__(self, errors: List[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = errors


@dataclass
class RunConfig:
    # domain / model
    a: float = 0.0
    d: float = 1.0
    t_end: float = 1.0
    n: int = 200
    c: float = 1.0
    nu: float = 1.0
    kappa: float = 0.1
    epsbar: tuple = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    elastic: str = "isotropic"          # isotropic | identity
    lame_lambda: float = 1.0
    lame_mu: float = 1.0
    potential: str = "quartic"          # quartic | poly
    poly_coeffs: tuple = (1.0, -2.0, 1.0, 0.0, 0.0)
    wells: tuple = (0.0, 0.5, 1.0)
    # solver
    coupling: str = "direct"
    safety: float = 0.4
    max_steps: int = 5_000_000
    picard_sweeps: int = 2
    mollify_samples: int = 257
    mollify_table: int = 513
    jit: str = "auto"                   # only auto: the compiled loop runs
    dt_override: float = 0.0
    snapshot_stride: int = 1
    snapshot_interval: float = -1.0     # < 0 means auto: t_end / 256
    # initial data
    initial_profile: str = "smoothed-step"
    amplitude: float = 1.0
    profile_width: float = 0.0          # 0 means the profile default
    # body force
    body_force: str = "zero"            # zero | constant | sine
    body_force_vector: tuple = (0.0, 0.0, 0.0)
    body_force_amplitude: float = 1.0
    body_force_mode: int = 1
    # manufactured-solution command
    mms_grids: tuple = (100, 200, 400)
    mms_t_end: float = 0.08
    # output
    output_dir: str = "out"

    # ---- derived objects -------------------------------------------------

    def grid(self) -> Grid:
        return Grid(self.a, self.d, self.n)

    def double_well(self) -> DoubleWell:
        if self.potential == "quartic":
            return DoubleWell.quartic()
        return DoubleWell(self.poly_coeffs, *self.wells)

    def elastic_tensor(self) -> ElasticTensor:
        if self.elastic == "identity":
            return ElasticTensor.identity()
        return ElasticTensor.isotropic(self.lame_lambda, self.lame_mu)

    def model_params(self, t_end: Optional[float] = None) -> ModelParams:
        return ModelParams(
            c=self.c, nu=self.nu, kappa=self.kappa,
            epsbar=SymMatrix3(np.asarray(self.epsbar)),
            elastic=self.elastic_tensor(), a=self.a, d=self.d,
            t_end=self.t_end if t_end is None else t_end,
            potential=self.double_well())

    def solver_config(self) -> SolverConfig:
        interval = self.snapshot_interval
        if interval < 0.0:
            interval = self.t_end / 256.0
        return SolverConfig(
            coupling=self.coupling, cfl_safety=self.safety,
            max_steps=self.max_steps, snapshot_stride=self.snapshot_stride,
            snapshot_interval=interval, picard_sweeps=self.picard_sweeps,
            mollify_samples=self.mollify_samples,
            mollify_table=self.mollify_table, dt_override=self.dt_override)

    def initial_field(self) -> ScalarField:
        width = self.profile_width if self.profile_width > 0.0 else None
        return make_initial_profile(self.initial_profile, self.amplitude,
                                    self.grid(), width=width)

    def body_force_field(self) -> np.ndarray:
        grid = self.grid()
        b = np.zeros((grid.n_nodes, 3))
        if self.body_force == "constant":
            b[:] = np.asarray(self.body_force_vector)
        elif self.body_force == "sine":
            u = (grid.x - grid.a) / (grid.d - grid.a)
            b[:, 0] = self.body_force_amplitude * np.sin(
                2.0 * np.pi * self.body_force_mode * u)
        return b


# a key's value parses as its default's type (float, int, str, or a tuple
# of its first entry's type), so an integer key, scalar or tuple, takes
# integer literals only; a tuple key needs this many values (0: any), and an
# enumerated key one of these words
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_TUPLE_KEYS = {"epsbar": 6, "poly_coeffs": 0, "wells": 3,
               "body_force_vector": 3, "mms_grids": 0}
# the largest value of an integer key that sizes an allocation (grid cells,
# each MMS grid, the mollifier's samples and table rows), and the most
# snapshot intervals in t_end, which size the run's row store
SIZE_LIMIT = 1_000_000
_ENUM_KEYS = {
    "elastic": ("isotropic", "identity"),
    "potential": ("quartic", "poly"),
    "coupling": ("direct", "mollified", "picard"),
    "jit": ("auto",),
    "initial_profile": ("sine", "smoothed-step", "polynomial-bump"),
    "body_force": ("zero", "constant", "sine"),
}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration document.

    Raises :class:`ConfigError` carrying every problem found.
    """
    errors: List[str] = []
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _DEFAULTS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        parsed = _parse_value(key, val, errors, lineno)
        if parsed is not None:
            values[key] = parsed

    cfg = RunConfig(**values)
    _validate(cfg, errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def _parse_value(key, val, errors, lineno):
    default = _DEFAULTS[key]
    try:
        if key in _TUPLE_KEYS:
            kind = type(default[0])
            parts = tuple(kind(p) for p in val.split(",") if p.strip() != "")
            want = _TUPLE_KEYS[key]
            if want and len(parts) != want:
                errors.append(f"line {lineno}: {key} needs {want} comma-separated values")
                return None
            if kind is float and not all(np.isfinite(parts)):
                errors.append(f"line {lineno}: {key} needs finite values (got {val!r})")
                return None
            return parts
        if key in _ENUM_KEYS and val not in _ENUM_KEYS[key]:
            errors.append(f"line {lineno}: {key} must be one of "
                          f"{', '.join(_ENUM_KEYS[key])} (got {val!r})")
            return None
        value = type(default)(val)
        if type(value) is float and not np.isfinite(value):
            errors.append(f"line {lineno}: {key} must be finite (got {val!r})")
            return None
        return value
    except ValueError:
        errors.append(f"line {lineno}: cannot parse {key} value {val!r}")
        return None


def _validate(cfg: RunConfig, errors: List[str]):
    if not (cfg.a < cfg.d):
        errors.append("domain endpoints must satisfy a < d")
    if cfg.n < 4:
        errors.append("n must be at least 4 grid cells")
    if not (0.0 < cfg.kappa <= 1.0):
        errors.append("kappa must lie in (0,1]")
    elif not kappa_square_is_normal(cfg.kappa):
        errors.append(KAPPA_TOO_SMALL)
    if not (cfg.c > 0.0):
        errors.append("c must be positive")
    if not (cfg.nu > 0.0):
        errors.append("nu must be positive")
    if not (cfg.t_end > 0.0):
        errors.append("t_end must be positive")
    if not (0.0 < cfg.safety < 1.0):
        errors.append("safety must lie in (0,1)")
    if cfg.snapshot_stride < 1:
        errors.append("snapshot_stride must be >= 1")
    if 0.0 < cfg.snapshot_interval < cfg.t_end / SIZE_LIMIT:
        errors.append(f"snapshot_interval must be at least t_end / {SIZE_LIMIT}")
    if cfg.max_steps < 1:
        errors.append("max_steps must be >= 1")
    if cfg.dt_override < 0.0:
        errors.append("dt_override must be >= 0")
    if cfg.picard_sweeps < 0:
        errors.append("picard_sweeps must be >= 0")
    if cfg.mollify_samples < 9:
        errors.append("mollify_samples must be >= 9")
    if cfg.mollify_table < 9:
        errors.append("mollify_table must be >= 9")
    if cfg.potential == "poly":
        try:
            DoubleWell(cfg.poly_coeffs, *cfg.wells)
        except ValueError as exc:
            errors.append(f"poly potential rejected: {exc}")
    if cfg.elastic == "isotropic":
        if cfg.lame_mu <= 0.0 or 3.0 * cfg.lame_lambda + 2.0 * cfg.lame_mu <= 0.0:
            errors.append("isotropic stiffness needs mu > 0 and 3*lambda + 2*mu > 0")
    if cfg.mms_t_end <= 0.0:
        errors.append("mms_t_end must be positive")
    for key in ("n", "mollify_samples", "mollify_table"):
        if getattr(cfg, key) > SIZE_LIMIT:
            errors.append(f"{key} must be at most {SIZE_LIMIT}")
    grids = cfg.mms_grids
    if any(g < 4 for g in grids):
        errors.append("mms_grids entries must be >= 4")
    if any(g > SIZE_LIMIT for g in grids):
        errors.append(f"mms_grids entries must be at most {SIZE_LIMIT}")
    if len(grids) < 2 or any(fine <= coarse for coarse, fine in zip(grids, grids[1:])):
        errors.append("mms_grids needs at least two grids, each finer than "
                      "the one before")
