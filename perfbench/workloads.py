"""Workload definitions for the nsstab benchmark.

Every workload is a frozen copy of the shipped default configuration with a
few overrides, one CLI subcommand, and the integers that the run must
reproduce.  The base is copied here rather than read from the repository so
that a later edit of the shipped config cannot silently change what the
benchmark measures.  Why each workload was chosen is in README.md.
"""

import copy

DEFAULT_SEED = 20260808

BASE_CONFIG = {
    "chi": {"center": [3.141592653589793, 3.141592653589793],
            "radius": 2.8, "sharpness": 0.1},
    "control": {"M_list": [8, 16, 32, 64, 96, 128], "N_max": 32, "lam": 1.0,
                "lambda_hat_factor": 1.25, "slack": 2.0},
    "nonlinear": {"basin_directions": 3,
                  "basin_scales": [0.25, 0.5, 1.0, 2.0, 4.0],
                  "eps_star": 2.0, "sim_units": 6.0, "theta_star": 2.0},
    "output_dir": "out",
    "reference": {"a0": 1.2, "a1": 0.6, "horizon": 60.0, "modes": [],
                  "omega": 0.5, "preset": "taylor_green"},
    "seed": DEFAULT_SEED,
    "space": {"K": 24, "grid_n": 16, "m_max": 160, "nu": 0.6},
    "time": {"T_h": 28.0, "dt": 0.0078125, "n_max": 6},
    "tolerances": {"null_tol": 1e-08, "pinv_rtol": 1e-10,
                   "riccati_cap": 100000000.0},
}

# Artifacts each subcommand must leave behind (manifest.json comes with all).
ARTIFACTS = {
    "all": ["basin.json", "basin.svg", "closed_loop.csv", "closed_loop.json",
            "closed_loop.svg", "dm_staircase.svg", "dm_table.csv",
            "feedback.json", "feedback_decay.csv", "feedback_decay.svg",
            "feedback_law.npz", "min_norm_control.csv", "null_control.json",
            "observability.json", "reference.csv", "reference.json",
            "reference.svg", "stabilize.json", "stabilize_decay.csv",
            "stabilize_decay.svg"],
    "stabilize": ["stabilize.json", "stabilize_decay.csv",
                  "stabilize_decay.svg"],
}

WORKLOADS = {
    "desk": {
        "overrides": {},
        "subcommand": "all",
        "pinned": {"N": 8, "M1": 32},
    },
    "scaled": {
        "overrides": {"space.K": 96, "space.grid_n": 22},
        "subcommand": "all",
        "pinned": {"N": 8, "M1": 32},
    },
    "interval": {
        "overrides": {"space.K": 48, "time.n_max": 12, "control.lam": 2.0},
        "subcommand": "stabilize",
        "pinned": {"N": 26, "M1": 96},
    },
}


def workload_config(name: str, seed: int) -> dict:
    """The full config the program receives for one workload and seed."""
    cfg = copy.deepcopy(BASE_CONFIG)
    for dotted, value in WORKLOADS[name]["overrides"].items():
        section, key = dotted.split(".")
        cfg[section][key] = value
    cfg["seed"] = int(seed)
    return cfg
