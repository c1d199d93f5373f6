import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nsstab import dynamics
from nsstab.config import ExperimentConfig
from nsstab.spectral import ChiMask, build_space
from oracles import save_config


@pytest.fixture(scope="session")
def small_space():
    """K=12 model on a 16^2 grid; enough for exact-oracle comparisons."""
    return build_space(nu=0.1, K=12, n=16)


@pytest.fixture(scope="session")
def medium_space():
    return build_space(nu=0.1, K=24, n=16)


@pytest.fixture(scope="session")
def bump_mask(small_space):
    return ChiMask.bump(small_space, center=(np.pi, np.pi), radius=2.2, rho=0.1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture()
def small_cfg(tmp_path):
    """Scaled-down configuration that exercises every subcommand quickly."""
    cfg = ExperimentConfig()
    cfg.space.K = 12
    cfg.space.m_max = 64
    cfg.control.M_list = (8, 16, 32, 64)
    cfg.control.N_max = 8
    cfg.time.T_h = 8.0
    cfg.time.n_max = 3
    cfg.reference.horizon = 18.0
    cfg.nonlinear.sim_units = 3.0
    cfg.nonlinear.basin_scales = (0.5, 1.0)
    cfg.nonlinear.basin_directions = 2
    cfg.validate()
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    return cfg, path


@pytest.fixture()
def inverse_paths(monkeypatch):
    """record(module) patches module's InversePath: each path the module
    makes from then on is appended to the list record returns, and keeps
    in its `kinds` how it obtained each inverse ("one", "two", "solved")."""
    def record(module):
        paths = []

        class Kinds(dynamics.InversePath):
            def __init__(self):
                super().__init__()
                self.kinds = []
                paths.append(self)

            def inverse(self, A, m):
                before = dict(self.counts)
                X = super().inverse(A, m)
                self.kinds += [k for k in self.counts if self.counts[k] != before[k]]
                return X
        monkeypatch.setattr(module, "InversePath", Kinds)
        return paths
    return record
