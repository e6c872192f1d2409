"""Workload configs for the benchmark, generated from a seed.

Each workload is one `ssmopt` CLI command on a config built here. The same
seed always gives the same config; only the starting point (or, for the
logistic workload, the dataset seed) depends on it, so the amount of work is
the same for every seed. Every hyperparameter is written out explicitly, so
the plain-numpy reference in reference.py reads the config alone and does
not depend on the package's defaults.

Why these three:
- sweep: 36 adaptive runs on 2-D Rosenbrock. Each step is a few tiny numpy
  calls, so interpreter overhead per step (stepper, run loop, objective
  call) dominates. Also the shape of a b3 x eta ablation.
- logistic-wide: six kinds on logistic regression with d=100, n=2000. The
  objective's matrix-vector products and a 9 MB CSV emission dominate;
  per-step overhead is under a tenth. Building the dataset goes into setup.
- flow-rk4: the five presets' continuous-time flows integrated by RK4 near
  the Rosenbrock minimum. The only workload that reaches the flow layer.
"""

from __future__ import annotations

import random

# The milestone schedule of configs/example_compare.json.
MILESTONES = [[800, 0.1], [1400, 0.1]]

# PresetParams defaults, written out so the reference does not import them.
MOMENT_RATES = {"b1": 0.67, "b2": 0.0067, "delta": 0.15, "epsilon": 1e-8}
SSM_B3 = 0.02

WORKLOADS = ("sweep", "logistic-wide", "flow-rk4")

# Integration grid of the flow command.
FLOW_DT = 0.01
FLOW_T_END = 40.0
PROBE_T_END = 2.0


def _moment_entry(kind: str, name: str, eta: float, b3: float = 0.0) -> dict:
    entry = {"kind": kind, "name": name, **MOMENT_RATES, "eta": eta}
    if kind in ("adamssm", "adabeliefssm"):
        entry["b3"] = b3
    return entry


def _gadagrad_entry(eta: float) -> dict:
    return {"kind": "gadagrad", "name": "gadagrad", "c": 0.5, "delta": 0.15, "epsilon": 1e-8, "eta": eta}


def five_presets(eta: float) -> list[dict]:
    """The paper's five named presets, one entry each."""
    return [
        _gadagrad_entry(10 * eta),
        _moment_entry("adam", "adam", eta),
        _moment_entry("adabelief", "adabelief", eta),
        _moment_entry("adamssm", "adamssm", eta, SSM_B3),
        _moment_entry("adabeliefssm", "adabeliefssm", eta, SSM_B3),
    ]


def _sweep(rng: random.Random) -> dict:
    etas = (0.01, 0.02, 0.05)
    b3s = (0.01, 0.02, 0.04, 0.08, 0.16)
    entries = []
    for eta in etas:
        for kind in ("adam", "adabelief"):
            entries.append(_moment_entry(kind, f"{kind}-eta{eta}", eta))
    for b3 in b3s:
        for eta in etas:
            for kind in ("adamssm", "adabeliefssm"):
                entries.append(_moment_entry(kind, f"{kind}-b3{b3}-eta{eta}", eta, b3))
    # A small jitter: from farther afield the share of runs that converge
    # swings from one seed to the next.
    x0 = [-1.2 + rng.uniform(-0.01, 0.01), 1.0 + rng.uniform(-0.01, 0.01)]
    return {
        "objective": {"kind": "rosenbrock", "dim": 2, "x0": x0},
        "optimizers": entries,
        "iterations": 2000,
        "record_stride": 100,
        "threshold": 1e-3,
        "schedule": {"milestones": MILESTONES},
    }


def _logistic_wide(rng: random.Random) -> dict:
    dim = 100
    entries = five_presets(0.05)
    entries.append({"kind": "sgd_momentum", "name": "sgd_momentum", "beta": 0.9, "eta": 0.5})
    return {
        "objective": {
            "kind": "logistic",
            "dim": dim,
            "n_samples": 2000,
            "seed": rng.randrange(1, 2 ** 31),
            "x0": [0.0] * dim,
        },
        "optimizers": entries,
        "iterations": 2000,
        "record_stride": 10,
        "threshold": 1e-4,
        "schedule": {"milestones": MILESTONES},
    }


def _flow_rk4(rng: random.Random) -> dict:
    x0 = [0.8 + rng.uniform(-0.02, 0.02), 0.64 + rng.uniform(-0.02, 0.02)]
    return {
        "objective": {"kind": "rosenbrock", "dim": 2, "x0": x0},
        "optimizers": five_presets(0.001),
        "record_stride": 10,
        "threshold": 1e-3,
    }


_BUILDERS = {"sweep": _sweep, "logistic-wide": _logistic_wide, "flow-rk4": _flow_rk4}


def make_config(workload: str, seed: int) -> dict:
    """The workload's config for this seed."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def command(workload: str, config_path: str) -> list[str]:
    """CLI arguments that run the workload on its config file."""
    if workload == "flow-rk4":
        return ["flow", config_path, "--dt", str(FLOW_DT), "--t-end", str(FLOW_T_END)]
    return ["compare", config_path]


def probe_config(config: dict) -> dict:
    """Config of the traced probe: the workload's objective with the five
    presets, short enough to cost little next to the workload itself."""
    return {
        "objective": config["objective"],
        "optimizers": five_presets(0.001),
        "iterations": 200,
        "record_stride": 10,
        "threshold": config["threshold"],
        "schedule": {"milestones": MILESTONES},
    }


def probe_command(workload: str, config_path: str) -> list[str]:
    """The CLI command the workload does not run, so the traced pass reaches
    every layer: a short flow after a compare workload, and a short compare
    after the flow workload."""
    if workload == "flow-rk4":
        return ["compare", config_path]
    return ["flow", config_path, "--dt", str(FLOW_DT), "--t-end", str(PROBE_T_END)]
