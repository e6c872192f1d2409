"""Plain-numpy transcription of the discrete updates, and the check of a run's
final iterate against it.

The loops below restate, operation by operation, the updates that
`ssmopt compare` runs, so on the same gradients they give the same bits.
They read every hyperparameter from the config entry and take only the
gradient from the package. Timed, the same loop is the bare baseline of
`discrete.run.overhead_x`.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

import numpy as np


def eta_at(base: float, milestones, k: int) -> float:
    eta = base
    for it, m in milestones:
        if k >= it:
            eta = eta * m
    return eta


def final_iterate(entry: dict, grad, x0, iterations: int, milestones) -> np.ndarray:
    """x after `iterations` steps of the entry's update from x0, nu0 = 0."""
    kind = entry["kind"]
    x = np.array(x0, dtype=float)
    mu = np.zeros_like(x)
    zeta = np.zeros_like(x)
    nu = np.zeros_like(x)
    if kind == "sgd_momentum":
        beta = entry["beta"]
        for k in range(iterations):
            g = grad(x)
            mu = beta * mu + g
            x = x - eta_at(entry["eta"], milestones, k) * mu
        return x
    delta, eps = entry["delta"], entry["epsilon"]
    if kind == "gadagrad":
        c = entry["c"]
        for k in range(iterations):
            g = grad(x)
            nu = nu + delta * (g * g)
            denom = nu ** c + eps
            direction = np.divide(g, denom, out=np.zeros_like(g), where=denom > 0)
            x = x - (delta * eta_at(entry["eta"], milestones, k)) * direction
        return x
    b1, b2 = entry["b1"], entry["b2"]
    b3 = entry.get("b3", 0.0)
    belief = kind in ("adabelief", "adabeliefssm")
    for k in range(iterations):
        g = grad(x)
        mu_new = (1.0 - delta * b1) * mu + (delta * b1) * g
        zeta_new = (1.0 - delta * b2) * zeta + (delta * b2) * nu
        drive = (g - mu_new) ** 2 if belief else g ** 2
        nu = (delta * b3) * zeta + (1.0 - delta * b2 - delta * b3) * nu + (delta * b2) * drive
        mu, zeta = mu_new, zeta_new
        b1_corr = 1.0 - (1.0 - b1) ** (k + 1)
        b2_corr = 1.0 - (1.0 - b2) ** (k + 1)
        step = (mu / b1_corr) / (np.sqrt(nu / b2_corr) + eps)
        x = x - eta_at(entry["eta"], milestones, k) * step
    return x


def checked_entries(config: dict) -> list[int]:
    """Index of the first entry of each kind, in config order."""
    seen: dict[str, int] = {}
    for i, entry in enumerate(config["optimizers"]):
        seen.setdefault(entry["kind"], i)
    return sorted(seen.values())


def csv_final_x(path: Path, dim: int) -> np.ndarray:
    """x of the last row of a trajectory CSV (columns t, f, grad_norm, alpha, x_0, ...)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(v) for v in rows[-1][4 : 4 + dim]])


def check_final_iterates(config: dict, grad, out: Path) -> tuple[list[str], float]:
    """Compare the last CSV row of one compare entry per kind, bit for bit,
    with the transcription. Returns the mismatches and the transcription's
    time per iteration in seconds."""
    x0 = config["objective"]["x0"]
    iterations = config["iterations"]
    milestones = config["schedule"]["milestones"]
    indices = checked_entries(config)
    mismatches = []
    elapsed = 0.0
    for i in indices:
        entry = config["optimizers"][i]
        t0 = time.perf_counter()
        expected = final_iterate(entry, grad, x0, iterations, milestones)
        elapsed += time.perf_counter() - t0
        paths = sorted(Path(out).glob(f"traj_{i:02d}_*.csv"))
        if len(paths) != 1:
            mismatches.append(f"{entry['name']}: expected one trajectory file, found {len(paths)}")
            continue
        got = csv_final_x(paths[0], len(x0))
        if got.tobytes() != expected.tobytes():
            mismatches.append(f"{entry['name']}: final x {got.tolist()} != reference {expected.tolist()}")
    return mismatches, elapsed / (iterations * len(indices))
