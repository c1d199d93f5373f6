"""Experiment configuration: JSON schema, validation, canonical round-trip."""

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .dynamics import (
    AmplitudeSchedule,
    ReferenceTrajectory,
    taylor_green_reference,
    zero_reference,
)
from .errors import ConfigError
from .spectral import ChiMask, SpectralSpace, build_space


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _typed(path: str, value, default):
    """value, read from JSON, checked against the type of its field's
    default: an int field takes an integer, a float field any number within
    float range (returned as a float), a tuple field a list of such entries
    (returned as a tuple), and no bool is a number."""
    if isinstance(default, tuple):
        _require(isinstance(value, (list, tuple)), path, f"must be a list, not {value!r}")
        return tuple(_typed(f"{path}[{i}]", v, default[0]) for i, v in enumerate(value))
    kinds, kind = {int: (int, "an integer"), float: ((int, float), "a number"),
                   str: (str, "a string"), list: (list, "a list")}[type(default)]
    _require(isinstance(value, kinds) and not isinstance(value, bool), path,
             f"must be {kind}, not {value!r}")
    if isinstance(default, float):
        try:
            return float(value)
        except OverflowError:       # an integer beyond float range
            raise ConfigError(f"{path}: must lie within float range, not an "
                              f"integer of {len(str(abs(value)))} digits") from None
    return value


@dataclass
class SpaceConfig:
    nu: float = 0.6
    K: int = 24
    grid_n: int = 16
    m_max: int = 160

    def validate(self):
        _require(self.nu > 0, "space.nu", "must be positive")
        _require(self.K >= 1, "space.K", "must be at least 1")
        _require(self.grid_n >= 4, "space.grid_n", "must be at least 4")
        _require(self.m_max >= 1, "space.m_max", "must be at least 1")


@dataclass
class ReferenceConfig:
    preset: str = "taylor_green"
    a0: float = 1.2
    a1: float = 0.6
    omega: float = 0.5
    horizon: float = 30.0
    modes: list = field(default_factory=list)   # explicit (k, phase, weight, schedule)

    def validate(self):
        _require(self.preset in ("taylor_green", "zero", "modes"),
                 "reference.preset", f"unknown preset {self.preset!r}")
        _require(self.horizon > 0, "reference.horizon", "must be positive")
        for name in ("a0", "a1", "omega"):
            _require(np.isfinite(getattr(self, name)), f"reference.{name}",
                     "must be finite")
        if self.preset == "modes":
            _require(len(self.modes) > 0, "reference.modes",
                     "explicit preset needs at least one mode")
            for i, m in enumerate(self.modes):
                path = f"reference.modes[{i}]"
                _require(isinstance(m, dict) and set(m) >= {"k", "phase", "weight", "a0"},
                         path, "needs k, phase, weight, a0 fields")
                _require(m["phase"] in ("cos", "sin"), f"{path}.phase",
                         "must be cos or sin")
                _require(len(_typed(f"{path}.k", m["k"], (0,))) == 2, f"{path}.k",
                         "must be a list of two integers")
                for name in ("weight", "a0", "a1", "omega"):
                    if name in m:
                        _require(np.isfinite(_typed(f"{path}.{name}", m[name], 0.0)),
                                 f"{path}.{name}", "must be finite")


@dataclass
class ChiConfig:
    center: tuple = (np.pi, np.pi)
    radius: float = 2.8
    sharpness: float = 0.1

    def validate(self):
        _require(len(self.center) == 2, "chi.center", "must have two entries")
        _require(self.radius > 0, "chi.radius", "must be positive")
        _require(0 < self.sharpness < 1, "chi.sharpness", "must lie in (0, 1)")


@dataclass
class ControlConfig:
    lam: float = 1.0
    lambda_hat_factor: float = 1.25
    M_list: tuple = (8, 16, 32, 64, 96, 128)
    N_max: int = 32
    slack: float = 2.0

    def validate(self):
        _require(self.lam > 0, "control.lambda", "must be positive")
        _require(self.lambda_hat_factor > 1.0, "control.lambda_hat_factor",
                 "must exceed 1")
        _require(len(self.M_list) > 0, "control.M_list", "must not be empty")
        _require(all(m >= 1 for m in self.M_list), "control.M_list",
                 "entries must be positive")
        _require(self.N_max >= 1, "control.N_max", "must be at least 1")
        _require(self.slack > 1.0, "control.slack", "must exceed 1")


@dataclass
class TimeConfig:
    dt: float = 1.0 / 128
    T_h: float = 14.0
    n_max: int = 6

    def validate(self):
        _require(self.dt > 0, "time.dt", "must be positive")
        _require(abs(round(1.0 / self.dt) * self.dt - 1.0) < 1e-12, "time.dt",
                 "must divide the unit interval")
        _require(0 < self.T_h < np.inf, "time.T_h", "must be positive and finite")
        # the law's grid ends at round(T_h/dt) dt, which must be T_h itself
        _require(abs(round(self.T_h / self.dt) * self.dt - self.T_h)
                 < 1e-12 * max(1.0, self.T_h), "time.T_h",
                 "must be a whole number of time.dt steps")
        _require(self.n_max >= 1, "time.n_max", "must be at least 1")


@dataclass
class ToleranceConfig:
    pinv_rtol: float = 1e-10
    null_tol: float = 1e-8
    riccati_cap: float = 1e8

    def validate(self):
        _require(0 < self.pinv_rtol < 1, "tolerances.pinv_rtol", "must be in (0, 1)")
        _require(0 < self.null_tol < 1, "tolerances.null_tol", "must be in (0, 1)")
        _require(self.riccati_cap > 1, "tolerances.riccati_cap", "must exceed 1")


@dataclass
class NonlinearConfig:
    """Shipped calibration: eps_star is half the top of the tested basin range
    (basin_scales up to 4), not a measured edge; the default sweep decays at
    every tested amplitude and reports edge_found = false."""

    eps_star: float = 2.0
    theta_star: float = 2.0
    basin_scales: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    basin_directions: int = 3
    sim_units: float = 6.0

    def validate(self):
        _require(self.eps_star > 0, "nonlinear.eps_star", "must be positive")
        _require(self.theta_star >= 1.0, "nonlinear.theta_star", "must be >= 1")
        _require(len(self.basin_scales) > 0, "nonlinear.basin_scales",
                 "must not be empty")
        _require(self.basin_directions >= 1, "nonlinear.basin_directions",
                 "must be at least 1")
        _require(self.sim_units > 0, "nonlinear.sim_units", "must be positive")


@dataclass
class ExperimentConfig:
    space: SpaceConfig = field(default_factory=SpaceConfig)
    reference: ReferenceConfig = field(default_factory=ReferenceConfig)
    chi: ChiConfig = field(default_factory=ChiConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    nonlinear: NonlinearConfig = field(default_factory=NonlinearConfig)
    seed: int = 20260808
    output_dir: str = "out"

    def validate(self):
        for section in (self.space, self.reference, self.chi, self.control,
                        self.time, self.tolerances, self.nonlinear):
            section.validate()
        _require(self.seed >= 0, "seed", "must be nonnegative")
        _require(max(self.control.M_list) <= self.space.m_max, "control.M_list",
                 f"entries must not exceed space.m_max = {self.space.m_max}")
        _require(self.time.n_max <= self.reference.horizon, "time.n_max",
                 "the unit intervals [n, n + 1], n < n_max, must lie within "
                 f"reference.horizon = {self.reference.horizon}")
        _require(2 * self.time.T_h + 1.0 <= self.reference.horizon,
                 "reference.horizon",
                 "must cover twice the synthesis horizon plus one unit "
                 "(the doubling gate re-runs at 2*T_h)")
        # the closed loop runs on [0, min(n_units, T_h - 1)]: at least one step
        _require(self.time.T_h - 1.0 >= self.time.dt, "time.T_h",
                 f"must exceed 1 by at least time.dt = {self.time.dt} (the closed "
                 "loop stops one unit before the synthesis horizon)")
        _require(self.nonlinear.sim_units >= self.time.dt, "nonlinear.sim_units",
                 f"must be at least time.dt = {self.time.dt} (one closed-loop step)")
        return self

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["chi"]["center"] = list(self.chi.center)
        d["control"]["M_list"] = list(self.control.M_list)
        d["nonlinear"]["basin_scales"] = list(self.nonlinear.basin_scales)
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        _require(isinstance(d, dict), "top level", f"must be an object, not {d!r}")
        cfg = ExperimentConfig()
        for key, val in d.items():
            _require(key in {f.name for f in fields(cfg)}, key,
                     "unknown configuration section")
            section = getattr(cfg, key)
            if not is_dataclass(section):               # seed, output_dir
                setattr(cfg, key, _typed(key, val, section))
                continue
            _require(isinstance(val, dict), key, f"must be an object, not {val!r}")
            for name, value in val.items():
                path = f"{key}.{name}"
                _require(name in {f.name for f in fields(section)}, path, "unknown field")
                setattr(section, name, _typed(path, value, getattr(section, name)))
        return cfg

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return ExperimentConfig.from_dict(data).validate()

    # -- model construction ---------------------------------------------------

    def build_space(self) -> SpectralSpace:
        s = self.space
        try:
            return build_space(nu=s.nu, K=s.K, n=s.grid_n, m_max=s.m_max)
        except ValueError as exc:     # validate() leaves only m_max to fail here
            raise ConfigError(f"space.m_max: {exc}") from None

    def build_reference(self, space: SpectralSpace) -> ReferenceTrajectory:
        r = self.reference
        if r.preset == "taylor_green":
            return taylor_green_reference(space, r.a0, r.a1, r.omega, r.horizon)
        if r.preset == "zero":
            return zero_reference(space, r.horizon)
        shapes = []
        index = {(kx, ky, ph): j for j, (kx, ky, ph) in enumerate(space.modes)}
        for i, m in enumerate(r.modes):
            key = (int(m["k"][0]), int(m["k"][1]), 0 if m["phase"] == "cos" else 1)
            _require(key in index, f"reference.modes[{i}]",
                     f"mode {key} not in the retained table")
            c = np.zeros(space.K)
            c[index[key]] = float(m["weight"])
            shapes.append((c, AmplitudeSchedule(m["a0"], m.get("a1", 0.0),
                                                m.get("omega", 0.0))))
        return ReferenceTrajectory(space, shapes, r.horizon)

    def build_chi(self, space: SpectralSpace) -> ChiMask:
        try:
            return ChiMask.bump(space, center=self.chi.center,
                                radius=self.chi.radius, rho=self.chi.sharpness)
        except ValueError as exc:     # validate() leaves only an empty mask
            raise ConfigError(f"chi.radius: {exc} (chi.center = "
                              f"{list(self.chi.center)})") from None
